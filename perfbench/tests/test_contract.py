"""BENCHMARK.json matches what the benchmark reports; results ingest."""

import json
import os
import subprocess
import sys
import tempfile

from conftest import BENCH, ROOT

RESULTS = os.path.join(BENCH, "results", "BENCH_perfbench.json")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as doc:
        return json.load(doc)


def test_setup_s_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_workloads_match_run_py():
    sys.path.insert(0, BENCH)
    import run

    assert [w["name"] for w in spec()["workloads"]] == list(run.WORKLOADS)


def test_results_file_ingests_into_the_result_index():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as store:
        ingest = subprocess.run(
            [sys.executable, "-m", "repro", "index", "ingest", RESULTS,
             "--cache-dir", store, "--json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert ingest.returncode == 0, ingest.stderr
        (row,) = json.loads(ingest.stdout)
        assert row["label"] == "BENCH_perfbench" and row["metrics"] > 0
        history = subprocess.run(
            [sys.executable, "-m", "repro", "index", "history",
             "--workload", "cold-mix", "--cache-dir", store],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
        assert history.returncode == 0, history.stderr
        assert "throughput_rps" in history.stdout
