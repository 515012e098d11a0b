"""Every frozen seed cell replays bit for bit through the warp replayer.

``tests/fixtures/seed_reports.json`` (see :mod:`seed_fixture`) freezes
the reports of the original tuple-token replayer over the whole
catalog at 64 threads x widths {8, 16, 32} x {locks off, emulated with
``unlock`` reconvergence, emulated with ``exit`` reconvergence}, plus
one workload per family at 48 threads under both execution engines.
The replayer it came from no longer exists: this file only reads the
fixture, it never rewrites it.
"""

import pytest

from repro.core.analyzer import ThreadFuserAnalyzer
from repro.workloads import all_workloads

import seed_fixture
from seed_fixture import canonical, cells, dumps, expected, traces_of

CELLS = cells()
WORKLOADS = sorted({name for _cell, name, *_rest in CELLS})

#: The jobs=2 subset: lock-heavy, divergent and converged workloads at
#: the widths where the parallel path has the most warps to merge.
PARALLEL_CELLS = [
    "memcached@64/w8/locks=unlock",
    "memcached@64/w8/locks=exit",
    "pigz@64/w8/locks=off",
    "rodinia_bfs@64/w16/locks=off",
    "nbody@64/w8/locks=off",
    "vectoradd@64/w16/locks=off",
]


def _report(name, n_threads, engine, config, jobs=1):
    analyzer = ThreadFuserAnalyzer(config, jobs=jobs)
    return analyzer.analyze(traces_of(name, n_threads, engine))


class TestFixture:
    def test_header_records_origin(self):
        header, frozen = seed_fixture.load()
        assert len(header["parent_commit"]) == 40
        assert header["command"]
        assert "packed=False, memo=False, jobs=1" in header["replay"]
        assert set(frozen) == {cell for cell, *_rest in CELLS}

    def test_grid_covers_the_catalog(self):
        names = {w.name for w in all_workloads()}
        grid = {cell for cell, *_rest in CELLS if "/locks=" in cell}
        assert len(grid) == (len(names) * len(seed_fixture.GRID_WIDTHS)
                             * len(seed_fixture.LOCK_MODES))

    def test_parallel_subset_is_frozen(self):
        frozen = seed_fixture.load()[1]
        assert all(cell in frozen for cell in PARALLEL_CELLS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_serial_replay_matches_seed(name):
    for cell, workload, n_threads, engine, config in CELLS:
        if workload != name:
            continue
        report = _report(workload, n_threads, engine, config)
        assert dumps(canonical(report)) == expected(cell), cell


@pytest.mark.parametrize("cell", PARALLEL_CELLS)
def test_parallel_replay_matches_seed(cell):
    (_cell, name, n_threads, engine, config), = [
        c for c in CELLS if c[0] == cell]
    report = _report(name, n_threads, engine, config, jobs=2)
    assert dumps(canonical(report)) == expected(cell)
