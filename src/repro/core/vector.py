"""Bulk column operations behind the replayer's bulk-span steps.

:class:`~repro.core.replay.WarpReplayer` consumes whole converged spans
of packed columns at once; the arithmetic it needs -- "first index
of a value in a column slice", "32-byte transaction counts for a span of
aligned memory records across lanes", "segment totals for one lane's
record span" -- lives here, implemented twice:

* a pure-``array`` backend (``"array"``) built from stdlib slicing and
  set arithmetic -- always available, and the bit-exact reference;
* an optional numpy backend (``"numpy"``) that lifts the same
  computations onto ``sort``/``diff`` over whole column slices.

The backend is selected **once at import time** (numpy when importable,
the ``accel`` extra of ``pyproject.toml``) and never changes results:
both produce plain Python ints, and every count is the size of the same
mathematical set.  :func:`use_backend` rebinds the module-level entry
points so tests force the pure path and assert bit-identical reports;
callers therefore invoke the functions as module attributes
(``vector.span_stats(...)``), never via ``from``-imports.

All address/segment columns handled here are int64 (``array`` typecode
``"q"``) whether they live in process-local ``array`` objects or in
shared-memory ``memoryview`` casts -- both export the buffer protocol,
which is what each backend consumes.
"""

from __future__ import annotations

from typing import Sequence, Tuple

try:  # pragma: no cover - exercised via tests that force the pure path
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "BACKEND",
    "first_index",
    "numpy_active",
    "prefix_len",
    "solo_span_stats",
    "span_stats",
    "use_backend",
]

#: Name of the active backend: ``"numpy"`` or ``"array"``.
BACKEND = "array"


def numpy_active() -> bool:
    """True when the numpy-accelerated backend is selected."""
    return BACKEND == "numpy"


# -- pure-``array`` backend (always available, the parity reference) ------


def _first_index_py(col, lo: int, hi: int, value: int) -> int:
    """First ``i`` in ``[lo, hi)`` with ``col[i] == value``, else -1."""
    index = getattr(col, "index", None)
    if index is not None:  # array.array grew start/stop in Python 3.10
        try:
            return index(value, lo, hi)
        except ValueError:
            return -1
    for i in range(lo, hi):  # memoryview columns (shared-memory arenas)
        if col[i] == value:
            return i
    return -1


def _prefix_len_py(a, ao: int, b, bo: int, k: int) -> int:
    """Longest ``l <= k`` with ``a[ao:ao+l] == b[bo:bo+l]``.

    Bisects on slice equality so every comparison runs at C speed; the
    all-equal fast path (converged lanes) costs exactly one compare.
    """
    if a[ao:ao + k] == b[bo:bo + k]:
        return k
    lo, hi = 0, k  # invariant: prefix(lo) equal, prefix(hi) unequal
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[ao:ao + mid] == b[bo:bo + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def _span_stats_py(fcols: Sequence, lcols: Sequence, los: Sequence[int],
                   maddr, nrec: int,
                   threshold: int) -> Tuple[int, int, int, int]:
    """Per-segment-class totals for ``nrec`` aligned records across lanes.

    ``fcols``/``lcols`` are each lane's first/last-32B-segment columns
    (``msegf``/``msegl``), ``los`` the lane record bases; ``maddr`` and
    ``los[0]`` locate the representative lane's addresses, which decide
    the segment class (``addr >= threshold`` is stack traffic).  Returns
    ``(heap_instructions, heap_transactions, stack_instructions,
    stack_transactions)`` -- accesses are ``instructions * n_lanes``,
    added by the caller.
    """
    fsl = [col[lo:lo + nrec] for col, lo in zip(fcols, los)]
    lsl = [col[lo:lo + nrec] for col, lo in zip(lcols, los)]
    heap_ins = heap_txn = stack_ins = stack_txn = 0
    base = los[0]
    if fsl == lsl:
        # Every access in every lane touches exactly one segment: a
        # record's transaction count is its number of distinct lane
        # segments.
        i = base
        for segs in zip(*fsl):
            txn = len(set(segs))
            if maddr[i] >= threshold:
                stack_ins += 1
                stack_txn += txn
            else:
                heap_ins += 1
                heap_txn += txn
            i += 1
        return heap_ins, heap_txn, stack_ins, stack_txn
    # Some access spans multiple segments: union the per-lane segment
    # ranges, materializing the set only when a lane leaves the
    # representative's run.
    rep_f = fsl[0]
    rep_l = lsl[0]
    n_lanes = len(fsl)
    for i in range(nrec):
        lo_seg = rep_f[i]
        hi_seg = rep_l[i]
        segments = None
        for k in range(1, n_lanes):
            f = fsl[k][i]
            last = lsl[k][i]
            if segments is None:
                if f == lo_seg and last == hi_seg:
                    continue
                segments = set(range(lo_seg, hi_seg + 1))
            segments.update(range(f, last + 1))
        txn = (hi_seg - lo_seg + 1) if segments is None else len(segments)
        if maddr[base + i] >= threshold:
            stack_ins += 1
            stack_txn += txn
        else:
            heap_ins += 1
            heap_txn += txn
    return heap_ins, heap_txn, stack_ins, stack_txn


def _solo_span_stats_py(maddr, msegf, msegl, lo: int, hi: int,
                        threshold: int) -> Tuple[int, int, int, int]:
    """Segment-class totals for one lane's record span ``[lo, hi)``.

    Returns ``(heap_instructions, heap_transactions, stack_instructions,
    stack_transactions)``; a solo access's transaction count is its own
    32-byte segment span length.
    """
    heap_ins = heap_txn = stack_ins = stack_txn = 0
    for j in range(lo, hi):
        txn = msegl[j] - msegf[j] + 1
        if maddr[j] >= threshold:
            stack_ins += 1
            stack_txn += txn
        else:
            heap_ins += 1
            heap_txn += txn
    return heap_ins, heap_txn, stack_ins, stack_txn


# -- numpy backend (optional accelerator; identical results) --------------

#: Below this many elements the stdlib-slicing implementations win --
#: numpy's per-call dispatch dwarfs the work -- so the numpy backend
#: delegates small spans to them.  Results are identical either way.
_NP_MIN = 64


def _view(col):
    """Zero-copy int64 view over an ``array``/``memoryview`` column."""
    return _np.frombuffer(col, dtype=_np.int64)


def _first_index_np(col, lo: int, hi: int, value: int) -> int:
    """First ``i`` in ``[lo, hi)`` with ``col[i] == value``, else -1."""
    if hi - lo < _NP_MIN:
        return _first_index_py(col, lo, hi, value)
    matches = (_view(col)[lo:hi] == value).nonzero()[0]
    if matches.size:
        return lo + int(matches[0])
    return -1


def _prefix_len_np(a, ao: int, b, bo: int, k: int) -> int:
    """Longest ``l <= k`` with ``a[ao:ao+l] == b[bo:bo+l]``."""
    if k < _NP_MIN:
        return _prefix_len_py(a, ao, b, bo, k)
    unequal = (_view(a)[ao:ao + k] != _view(b)[bo:bo + k]).nonzero()[0]
    if unequal.size:
        return int(unequal[0])
    return k


def _span_stats_np(fcols: Sequence, lcols: Sequence, los: Sequence[int],
                   maddr, nrec: int,
                   threshold: int) -> Tuple[int, int, int, int]:
    """Per-segment-class totals for ``nrec`` records across lanes.

    Same contract as :func:`_span_stats_py`; transaction counts come
    from ``sort``/``diff`` over the stacked lane-segment columns.
    """
    n_lanes = len(fcols)
    if nrec < 8 or n_lanes * nrec < _NP_MIN:
        # The fixed cost here is ~2 * n_lanes ``frombuffer`` views, paid
        # per call; short record spans cannot amortize it.
        return _span_stats_py(fcols, lcols, los, maddr, nrec, threshold)
    first = _np.empty((n_lanes, nrec), dtype=_np.int64)
    last = _np.empty((n_lanes, nrec), dtype=_np.int64)
    for k in range(n_lanes):
        lo = los[k]
        first[k] = _view(fcols[k])[lo:lo + nrec]
        last[k] = _view(lcols[k])[lo:lo + nrec]
    txn = _np.empty(nrec, dtype=_np.int64)
    single = (first == last).all(axis=0)
    if single.all():
        # The common case: every access is one segment, so a record's
        # transaction count is 1 + the number of steps in its sorted
        # lane-segment column.
        ordered = _np.sort(first, axis=0)
        txn = 1 + (ordered[1:] != ordered[:-1]).sum(axis=0)
    else:
        narrow = single.nonzero()[0]
        if narrow.size:
            ordered = _np.sort(first[:, narrow], axis=0)
            txn[narrow] = 1 + (ordered[1:] != ordered[:-1]).sum(axis=0)
        for i in (~single).nonzero()[0]:
            segments = set()
            for k in range(n_lanes):
                segments.update(range(int(first[k, i]),
                                      int(last[k, i]) + 1))
            txn[i] = len(segments)
    base = los[0]
    addrs = _view(maddr)[base:base + nrec]
    stack_mask = addrs >= threshold
    stack_ins = int(stack_mask.sum())
    stack_txn = int(txn[stack_mask].sum())
    total_txn = int(txn.sum())
    return (nrec - stack_ins, total_txn - stack_txn, stack_ins, stack_txn)


def _solo_span_stats_np(maddr, msegf, msegl, lo: int, hi: int,
                        threshold: int) -> Tuple[int, int, int, int]:
    """Segment-class totals for one lane's record span ``[lo, hi)``."""
    if hi - lo < _NP_MIN:
        return _solo_span_stats_py(maddr, msegf, msegl, lo, hi, threshold)
    spans = _view(msegl)[lo:hi] - _view(msegf)[lo:hi] + 1
    stack_mask = _view(maddr)[lo:hi] >= threshold
    stack_ins = int(stack_mask.sum())
    stack_txn = int(spans[stack_mask].sum())
    total_txn = int(spans.sum())
    return (hi - lo - stack_ins, total_txn - stack_txn,
            stack_ins, stack_txn)


# -- backend selection ----------------------------------------------------

_BACKENDS = {
    "array": (_first_index_py, _prefix_len_py, _span_stats_py,
              _solo_span_stats_py),
}
if _np is not None:
    _BACKENDS["numpy"] = (_first_index_np, _prefix_len_np, _span_stats_np,
                          _solo_span_stats_np)


def use_backend(name: str = "auto") -> str:
    """Select the active backend; returns the name actually selected.

    ``"auto"`` (the import-time default) picks ``"numpy"`` when numpy is
    importable and ``"array"`` otherwise.  Requesting ``"numpy"``
    without numpy installed raises ``ValueError``.  Results never depend
    on the choice -- this exists for deployment (the ``accel`` extra)
    and for parity tests that force the pure path.
    """
    global BACKEND, first_index, prefix_len, span_stats, solo_span_stats
    if name == "auto":
        name = "numpy" if _np is not None else "array"
    impls = _BACKENDS.get(name)
    if impls is None:
        known = ", ".join(sorted(set(_BACKENDS) | {"auto"}))
        raise ValueError(
            f"unknown or unavailable vector backend {name!r} "
            f"(available: {known})")
    first_index, prefix_len, span_stats, solo_span_stats = impls
    BACKEND = name
    return name


first_index = _first_index_py
prefix_len = _prefix_len_py
span_stats = _span_stats_py
solo_span_stats = _solo_span_stats_py
use_backend()
