"""Screening of request seeds that hit a known program defect.

``memcached`` at 256 threads runs away for about 3% of seeds: the
machine loops until its 200M-instruction budget raises, which takes
minutes, while a normal run executes about 45k instructions.  At 256
threads four requests share each of the 64 ``malloc_fg`` arenas, and
the arena bump is an unlocked load/add/store, so two requests can
receive the same node.  For seed 1592976436 the stopped machine holds
a node linked to itself in bucket 53, so every chain walk through that
bucket loops forever.  At 64 threads every request owns its arena and
no seed was seen to run away.

Until the workload is fixed, the benchmark runs each memcached@256
request natively with a 1M-instruction budget before using it, outside
every timed window.  A seed that runs away is not sent; it is counted
and listed in every run's output under ``screened_out``, and a test in
``perfbench/tests`` reproduces the defect, so it stays visible.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: (program, threads) pairs with a known runaway.
SCREENED = {("memcached", 256)}
#: Machine-instruction budget of one screening run (~20x a normal run).
BUDGET = 1_000_000


class Screen:
    """Predicate: True when a request seed is safe to send."""

    def __init__(self) -> None:
        self.runaways: List[str] = []
        self._safe: Dict[Tuple[str, int, int], bool] = {}

    def __call__(self, program: str, threads: int, seed: int) -> bool:
        if (program, threads) not in SCREENED:
            return True
        key = (program, threads, seed)
        if key not in self._safe:
            self._safe[key] = not runs_away(program, threads, seed)
            if not self._safe[key]:
                self.runaways.append(f"{program}@{threads} seed {seed}")
        return self._safe[key]


def runs_away(program: str, threads: int, seed: int,
              budget: int = BUDGET) -> bool:
    """Whether a native run of the request exceeds ``budget``."""
    from repro.machine.errors import InstructionLimitError
    from repro.workloads.base import get_workload
    from repro.workloads.runner import run_instance

    instance = get_workload(program).instantiate(threads, seed=seed)
    try:
        run_instance(instance, max_instructions=budget)
    except InstructionLimitError:
        return True
    return False
