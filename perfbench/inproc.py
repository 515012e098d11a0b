"""The in-process workloads: ``cold-mix`` and ``trace-warm-sweep``.

Both are closed loops with one caller: the next request starts when
the previous one has returned its reports.  Requests run whole cycles
(see :mod:`schedule`) until ``seconds`` of request time have passed,
so every run measures the same program mix.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from typing import Callable, Dict, Iterable, List, Optional

import schedule
import stats
from metrics import ratio
from screen import Screen


class Done:
    """One finished (or failed) request of a closed loop."""

    __slots__ = ("request", "latency", "reports", "error")

    def __init__(self, request: Dict, latency: float, reports: List,
                 error: Optional[str] = None) -> None:
        self.request = request
        self.latency = latency
        self.reports = reports
        self.error = error


class StoreTally:
    """Store and fault counters summed over every session of a pass."""

    def __init__(self) -> None:
        self.hits = self.misses = self.bytes_read = self.bytes_written = 0
        self.retries = self.worker_failures = 0

    def add(self, session) -> None:
        cache = session.cache_stats
        self.hits += cache.hits
        self.misses += cache.misses
        self.bytes_read += cache.bytes_read
        self.bytes_written += cache.bytes_written
        self.retries += session.fault_stats.get("retries", 0)
        self.worker_failures += session.fault_stats.get("worker_failures", 0)


def closed_loop(cycles: Iterable[List[Dict]], call: Callable,
                seconds: float, tracer=None,
                before: Optional[Callable] = None) -> List[List[Done]]:
    """Run whole cycles until ``seconds`` of request time have passed.

    ``before(request)`` runs outside the timed window.  With a
    ``tracer`` each request is one root span.  Returns the finished
    cycles, so a second pass can repeat exactly the same requests.
    """
    done: List[List[Done]] = []
    busy = 0.0
    for cycle in cycles:
        finished: List[Done] = []
        for request in cycle:
            if before is not None:
                before(request)
            request_id = f"r{len(done)}.{len(finished)}"
            start = time.perf_counter()
            try:
                if tracer is None:
                    reports = call(request)
                else:
                    with tracer.request(request_id):
                        reports = call(request)
                error = None
            except Exception as exc:  # noqa: BLE001 - counted as failed
                reports, error = [], f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            busy += latency
            finished.append(Done(request, latency, reports, error))
        done.append(finished)
        if busy >= seconds:
            break
    return done


def e2e_figures(cycles: List[List[Done]],
                latency_limit: float) -> Dict[str, float]:
    """End-to-end figures of a closed-loop pass (no ``setup_s``).

    Rates are the median over cycles of each cycle's rate, so a burst
    of noise on a shared host moves few cycles, not the figure.  The
    ``latency_p95_s`` is the nearest-rank p95 of every completed request
    of the pass, ``latency_class_p50_s`` the median latency of the
    program that holds the pass's median request (see
    :func:`stats.class_median`), and the peak RSS the high-water mark
    since :func:`reset_peak_rss`.
    """
    rates: Dict[str, List[float]] = {"throughput_rps": [],
                                     "minstr_per_s": [], "goodput_rps": []}
    latencies: List[float] = []
    by_program: Dict[str, List[float]] = {}
    for cycle in cycles:
        ok = [d for d in cycle if d.error is None]
        busy = sum(d.latency for d in cycle)
        instructions = sum(report.metrics.thread_instructions
                           for d in ok for report in d.reports)
        rates["throughput_rps"].append(ratio(len(ok), busy))
        rates["minstr_per_s"].append(ratio(instructions / 1e6, busy))
        rates["goodput_rps"].append(ratio(
            sum(1 for d in ok if d.latency <= latency_limit), busy))
        for d in ok:
            latencies.append(d.latency)
            by_program.setdefault(d.request["program"], []).append(d.latency)
    figures = {name: stats.median(values) for name, values in rates.items()}
    figures.update({
        "latency_class_p50_s": stats.class_median(by_program, 50),
        "latency_p95_s": stats.percentile(latencies, 95),
        "peak_rss_mb": peak_rss_mb(),
    })
    return figures


def reset_peak_rss(pid: str = "self") -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) of process ``pid``."""
    with open(f"/proc/{pid}/clear_refs", "w") as refs:
        refs.write("5")


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set (VmHWM) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


def report_doc_bytes(doc) -> bytes:
    """Canonical bytes of one report document."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def report_bytes(report) -> bytes:
    """Canonical bytes of one :class:`AnalysisReport`, as served."""
    from repro.serve import summarize_report

    return report_doc_bytes(summarize_report(report))


class InProcess:
    """Shared parts of the two in-process workloads.

    Every request opens a new session on the workload's store and
    closes it when its reports are back.  (One long-lived session
    would keep every trace it produced in memory, about 70 MB per
    pigz@64 trace, so later requests would run slower and peak RSS
    would grow with the length of the run.)

    A run calls :meth:`setup` once, then per pass :meth:`start_pass`,
    :meth:`before` and :meth:`call` per request; :meth:`verify` checks
    the finished requests outside the timing.
    """

    name = ""
    jobs = 1

    def __init__(self, work: str, seed: int) -> None:
        self.work = work
        self.seed = seed
        self.traced = False
        self.tally = StoreTally()
        self.screen = Screen()
        self.executions = 0
        self.mismatches: List[str] = []

    def fresh_dir(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"{label}-", dir=self.work)

    def session(self, cache_dir: Optional[str]):
        """A session on ``cache_dir``.  In a traced pass it gets a
        recorder, whose replay gauges the layer probes read."""
        from repro.session import AnalysisSession

        if not self.traced:
            return AnalysisSession(cache_dir=cache_dir, jobs=self.jobs)
        from repro.obs import Recorder

        return AnalysisSession(cache_dir=cache_dir, jobs=self.jobs,
                               recorder=Recorder())

    def start_pass(self, traced: bool) -> None:
        self.traced = traced

    def before(self, request: Dict) -> None:
        """Untimed preparation of one request."""

    def call(self, request: Dict) -> List:
        """One timed request: a new session, its reports, close."""
        session = self.session(self.store_dir)
        try:
            reports = run_request(session, request)
        finally:
            session.close()
        self.tally.add(session)
        self.executions += session.executions
        return reports

    def reference(self, request: Dict) -> List[bytes]:
        """Report bytes of ``request`` from a fresh store-less jobs=1
        session."""
        from repro.session import AnalysisSession

        with AnalysisSession(cache_dir=None, jobs=1) as session:
            return [report_bytes(r) for r in run_request(session, request)]

    def mismatch(self, item: Done, expected: List[bytes]) -> bool:
        """Record a mismatch when ``item``'s reports differ."""
        if [report_bytes(r) for r in item.reports] == expected:
            return False
        self.mismatches.append(
            f"{self.name}: reports of {item.request} differ from a fresh "
            "store-less jobs=1 session")
        return True


def run_request(session, request: Dict) -> List:
    """The reports of one request on ``session``."""
    if "warp_sizes" in request:
        out = session.sweep(request["program"],
                            warp_sizes=tuple(request["warp_sizes"]),
                            n_threads=request["n_threads"],
                            seed=request["seed"])
        return [out[width] for width in request["warp_sizes"]]
    return [session.analyze(request["program"],
                            n_threads=request["n_threads"],
                            seed=request["seed"])]


class ColdMix(InProcess):
    """Unique-seed analyze calls: every stage misses every cache."""

    name = "cold-mix"
    jobs = 1

    def setup(self) -> None:
        from repro import session  # noqa: F401 - imports are set-up cost

        self.cycles = schedule.cold_mix(self.seed, self.screen)

    def start_pass(self, traced: bool) -> None:
        """Each pass gets a fresh store, so a repeated pass is cold too."""
        super().start_pass(traced)
        self.store_dir = self.fresh_dir("store")

    def verify(self, done: List[Done]) -> None:
        """Check one finished request per program, chosen by the seed."""
        rng = random.Random(f"{self.name}/check/{self.seed}")
        by_program: Dict[str, List[Done]] = {}
        for item in done:
            if item.error is None:
                by_program.setdefault(item.request["program"],
                                      []).append(item)
        for program in sorted(by_program):
            item = rng.choice(by_program[program])
            self.mismatch(item, self.reference(item.request))


class TraceWarmSweep(InProcess):
    """New-session sweeps over stored traces and DCFG tables."""

    name = "trace-warm-sweep"
    jobs = 2

    def setup(self) -> None:
        from repro.artifacts import KIND_REPORT, ArtifactStore

        self.specs, self.cycles = schedule.warm_sweep(self.seed,
                                                      self.screen)
        self.store_dir = self.fresh_dir("store")
        # Storing every program once also starts and warms the pool.
        with self.session(self.store_dir) as session:
            for request in self.specs.values():
                run_request(session, request)
        self.clearer = ArtifactStore(self.store_dir)
        self.clearer.index  # attach the index, so clears reach it too
        self.report_kind = KIND_REPORT

    def before(self, request: Dict) -> None:
        self.clearer.clear(self.report_kind)

    def verify(self, done: List[Done]) -> None:
        """Every request's reports, and no machine execution at all."""
        if self.executions:
            self.mismatches.append(
                f"{self.name}: the trace-warm path executed the machine "
                f"{self.executions} times")
        for program, request in sorted(self.specs.items()):
            expected = self.reference(request)
            for item in done:
                if item.error is None and item.request is request \
                        and self.mismatch(item, expected):
                    break


IN_PROCESS = {ColdMix.name: ColdMix, TraceWarmSweep.name: TraceWarmSweep}


def shutdown_pool() -> None:
    """Stop the persistent worker processes, if any were started."""
    from repro import pool

    shutdown = getattr(pool, "shutdown", None)
    if shutdown is not None:
        shutdown()
