"""Filling in the metrics a run reports.

Every run reports every metric that ``BENCHMARK.json`` names for its
mode (end-to-end untraced, per-layer traced): a figure that does not
apply to a workload, or whose layer is absent from the program, reads
0 and is listed under ``not_measured`` in the run's results file.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def complete(values: Dict[str, float],
             names: Iterable[Tuple[str, str]]) -> Tuple[Dict, List[str]]:
    """``{name: {"value", "unit"}}`` for every name; the unfilled ones."""
    out: Dict[str, Dict] = {}
    unfilled: List[str] = []
    for name, unit in names:
        if name not in values:
            unfilled.append(name)
        out[name] = {"value": values.get(name, 0), "unit": unit}
    return out, unfilled
