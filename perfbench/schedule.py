"""Request streams of the three workloads, generated from one seed.

The benchmark's ``--seed`` alone decides every request seed and the
order of the requests within each cycle.  The program under test only
ever receives the generated requests.  The same seed yields the same
stream, byte for byte (see :func:`dumps`).
"""

from __future__ import annotations

import json
import random
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: ``screen(program, threads, seed)`` is False for a seed not to send
#: (see :mod:`screen`); the next seed is drawn instead.
ScreenFn = Optional[Callable[[str, int, int], bool]]

#: One ``cold-mix`` cycle: (program, threads, analyze calls per cycle).
COLD_CYCLE = (
    ("pigz", 64, 1),
    ("nbody", 64, 2),
    ("memcached", 256, 4),
    ("vectoradd", 64, 8),
)

#: Programs whose traces and DCFG tables ``trace-warm-sweep`` stores.
WARM_PROGRAMS = (("pigz", 64), ("nbody", 64), ("memcached", 256))

WIDTHS = (8, 16, 32)

#: Programs of the cold analyze requests of ``serve-mix``.
SERVE_COLD = (("vectoradd", 64), ("memcached", 256), ("nbody", 64),
              ("btree", 256))

#: Program of the cold sweeps of ``serve-mix``.
SERVE_SWEEP = ("memcached", 256)

#: Seeds per program in the pre-warmed popular set of ``serve-mix``.
POPULAR_SEEDS_PER_PROGRAM = 2


class SeedPool:
    """Unique request seeds drawn from one generator."""

    def __init__(self, rng: random.Random, screen: ScreenFn = None) -> None:
        self._rng = rng
        self._screen = screen
        self._used: set = set()

    def draw(self, program: str, threads: int) -> int:
        while True:
            seed = self._rng.randrange(1000, 2 ** 31 - 1)
            if seed in self._used:
                continue
            self._used.add(seed)
            if self._screen is None or self._screen(program, threads, seed):
                return seed


def cold_mix(seed: int, screen: ScreenFn = None) -> Iterator[List[Dict]]:
    """Endless ``cold-mix`` cycles; every request has a unique seed."""
    rng = random.Random(f"cold-mix/{seed}")
    seeds = SeedPool(rng, screen)
    while True:
        cycle = [{"program": program, "n_threads": threads,
                  "seed": seeds.draw(program, threads)}
                 for program, threads, repeat in COLD_CYCLE
                 for _ in range(repeat)]
        rng.shuffle(cycle)
        yield cycle


def warm_sweep(seed: int, screen: ScreenFn = None
               ) -> Tuple[Dict[str, Dict], Iterator[List[Dict]]]:
    """The stored specs of ``trace-warm-sweep`` and its endless cycles.

    Returns ``(specs, cycles)``: ``specs`` maps each program to the one
    request that setup stores and every timed request repeats; each
    cycle sweeps every program once, in a seeded order.
    """
    rng = random.Random(f"trace-warm-sweep/{seed}")
    seeds = SeedPool(rng, screen)
    specs = {program: {"program": program, "n_threads": threads,
                       "seed": seeds.draw(program, threads),
                       "warp_sizes": list(WIDTHS)}
             for program, threads in WARM_PROGRAMS}

    def cycles() -> Iterator[List[Dict]]:
        while True:
            order = [specs[program] for program, _ in WARM_PROGRAMS]
            rng.shuffle(order)
            yield order

    return specs, cycles()


def popular_set(seed: int, screen: ScreenFn = None) -> List[Dict]:
    """The ``serve-mix`` analyze requests that setup pre-warms."""
    rng = random.Random(f"serve-mix/popular/{seed}")
    seeds = SeedPool(rng, screen)
    return [_analyze(program, threads, seeds.draw(program, threads))
            for program, threads in SERVE_COLD
            for _ in range(POPULAR_SEEDS_PER_PROGRAM)]


def serve_mix(seed: int, screen: ScreenFn = None) -> Iterator[List[Dict]]:
    """Endless ``serve-mix`` cycles of 40 requests, in a seeded order.

    Each cycle holds every popular request three times (24), ten cold
    analyses and two identical pairs spread evenly over the four cold
    programs, and two cold sweeps: 60% / 25% / 10% / 5% of requests.
    A pair is one entry; the client sends its two requests back to
    back.  Entries are ``{"kind", "endpoint", "body"}``.
    """
    rng = random.Random(f"serve-mix/{seed}")
    seeds = SeedPool(random.Random(f"serve-mix/seeds/{seed}"), screen)
    popular = popular_set(seed, screen)
    while True:
        programs = list(SERVE_COLD) * 3
        rng.shuffle(programs)
        cycle = [dict(request, kind="popular")
                 for request in popular for _ in range(3)]
        for index, (program, threads) in enumerate(programs):
            kind = "cold" if index < 10 else "pair"
            cycle.append(dict(_analyze(program, threads,
                                       seeds.draw(program, threads)),
                              kind=kind))
        program, threads = SERVE_SWEEP
        for _ in range(2):
            cycle.append(dict(_sweep(program, threads,
                                     seeds.draw(program, threads)),
                              kind="sweep"))
        rng.shuffle(cycle)
        yield cycle


def dumps(schedule) -> bytes:
    """Canonical bytes of a schedule (for the determinism check)."""
    return json.dumps(schedule, sort_keys=True,
                      separators=(",", ":")).encode()


def _analyze(program: str, threads: int, seed: int) -> Dict:
    return {"endpoint": "/v1/analyze",
            "body": {"workload": program, "n_threads": threads,
                     "seed": seed}}


def _sweep(program: str, threads: int, seed: int) -> Dict:
    return {"endpoint": "/v1/sweep",
            "body": {"workload": program, "n_threads": threads,
                     "seed": seed, "warp_sizes": list(WIDTHS)}}
