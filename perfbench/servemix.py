"""The ``serve-mix`` workload: a closed loop against ``repro serve``.

Set-up pre-populates a store with the popular set, boots ``python -m
repro serve --port 0 --cache-dir <store>`` as a subprocess with every
other flag at its default, and submits the popular set once so that
the server's registry holds it.  The timed run sends seeded cycles of
requests (see :func:`schedule.serve_mix`) from one process over one
keep-alive connection: each request is submitted and its job polled
until the client holds the report, then the next is sent; the two
requests of a pair go out back to back, so the second coalesces onto
the first.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import schedule
import stats
from inproc import (peak_rss_mb, report_bytes, report_doc_bytes,
                    reset_peak_rss, run_request)
from metrics import ratio
from screen import Screen

#: Seconds between polls of an unfinished job.
POLL_S = 0.005
BOOT_S = 60.0
#: Cycles after which the server's peak RSS is read.  The server keeps
#: every trace it produced, so its RSS grows with the cold jobs it ran;
#: reading it after a fixed amount of work keeps a faster program from
#: reading as a larger one.
RSS_CYCLES = 8


class Conn:
    """One keep-alive HTTP/JSON connection."""

    def __init__(self, host: str, port: int) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=60.0)

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, Dict]:
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        self.conn.request(method, path, body=payload, headers=headers)
        response = self.conn.getresponse()
        return response.status, json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


class Server:
    """``python -m repro serve`` as a subprocess of this process."""

    def __init__(self, root: str, store_dir: str, log_path: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.log_path = log_path
        with open(log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--cache-dir", store_dir],
                cwd=root, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            self.host, self.port = self._wait_url()
            self.wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_url(self) -> Tuple[str, int]:
        deadline = time.monotonic() + BOOT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f"; see {self.log_path}")
            with open(self.log_path, "rb") as log:
                for line in log.read().decode(errors="replace").splitlines():
                    if line.startswith("SERVE_URL=http://"):
                        host, port = line.split("//", 1)[1].rsplit(":", 1)
                        return host, int(port)
            time.sleep(0.01)
        raise RuntimeError("server did not print SERVE_URL in time")

    def wait_healthy(self) -> None:
        conn = Conn(self.host, self.port)
        try:
            deadline = time.monotonic() + BOOT_S
            while time.monotonic() < deadline:
                try:
                    status, doc = conn.request("GET", "/v1/health")
                    if status == 200 and doc.get("status") == "ok":
                        return
                except OSError:
                    pass
                time.sleep(0.01)
            raise RuntimeError("server never reported healthy")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)


class Outcome:
    """Client-side timeline of one request."""

    __slots__ = ("request", "sent", "submitted", "fetch", "held", "doc",
                 "submit_doc", "error")

    def __init__(self, request: Dict) -> None:
        self.request = request
        self.sent = self.submitted = self.fetch = self.held = 0.0
        self.doc: Optional[Dict] = None
        self.submit_doc: Optional[Dict] = None
        self.error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.held - self.sent

    @property
    def ok(self) -> bool:
        return self.error is None and self.doc is not None


def _error(status: int, doc: Dict) -> str:
    error = doc.get("error") or {}
    return f"HTTP {status} {error.get('type', '')}".strip()


def send(conn: Conn, entry: Dict) -> List[Outcome]:
    """Submit one entry (both requests of a pair) and await its reports."""
    outcomes = [Outcome(entry)
                for _ in range(2 if entry["kind"] == "pair" else 1)]
    for outcome in outcomes:
        outcome.sent = time.time()
        status, doc = conn.request("POST", entry["endpoint"], entry["body"])
        outcome.submitted = time.time()
        if status in (200, 202):
            outcome.submit_doc = doc
        else:
            outcome.error = _error(status, doc)
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        outcome.fetch = time.time()
        while True:
            status, doc = conn.request(
                "GET", f"/v1/jobs/{outcome.submit_doc['job_id']}/report")
            if status != 409:
                break
            time.sleep(POLL_S)
        outcome.held = time.time()
        if status == 200:
            outcome.doc = doc
        else:
            outcome.error = _error(status, doc)
    return outcomes


def get_health(host: str, port: int) -> Dict:
    conn = Conn(host, port)
    try:
        status, doc = conn.request("GET", "/v1/health")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/v1/health answered {status}")
    return doc


def created_here(outcome: Outcome) -> bool:
    """True when this request's submit created the job it waited on."""
    doc = outcome.submit_doc or {}
    return (outcome.ok and not doc.get("coalesced")
            and doc.get("status") != "done")


def cells(doc: Dict) -> List[Dict]:
    """The report documents of one finished job."""
    if "report" in doc:
        return [doc["report"]]
    return [doc["reports"][key] for key in sorted(doc["reports"], key=int)]


def e2e_figures(cycles: List[Tuple[List[Outcome], float]],
                latency_limit: float) -> Dict[str, float]:
    """End-to-end figures of a run (no ``setup_s``/RSS).

    As in the in-process workloads, rates are medians over cycles,
    ``latency_p95_s`` is the nearest-rank p95 of every completed
    request, and ``latency_class_p50_s`` the median latency of the
    class that holds the run's median request, with the request kind
    and program as the class and every popular repeat in one class.  ``minstr_per_s`` counts per second the server
    spent running the jobs this run created.
    """
    rates: Dict[str, List[float]] = {"throughput_rps": [],
                                     "minstr_per_s": [], "goodput_rps": []}
    latencies: List[float] = []
    classes: Dict[Tuple[str, str], List[float]] = {}
    for cycle, wall in cycles:
        ok = [o for o in cycle if o.ok]
        jobs = {o.doc["job_id"]: o.doc for o in ok if created_here(o)}
        busy = sum(doc["finished"] - doc["started"] for doc in jobs.values())
        instructions = sum(cell["thread_instructions"]
                           for doc in jobs.values() for cell in cells(doc))
        rates["throughput_rps"].append(ratio(len(ok), wall))
        rates["minstr_per_s"].append(ratio(instructions / 1e6, busy))
        rates["goodput_rps"].append(ratio(
            sum(1 for o in ok if o.latency <= latency_limit), wall))
        for o in ok:
            latencies.append(o.latency)
            kind = o.request["kind"]
            program = "" if kind == "popular" else o.request["body"][
                "workload"]
            classes.setdefault((kind, program), []).append(o.latency)
    figures = {name: stats.median(values) for name, values in rates.items()}
    figures["latency_class_p50_s"] = stats.class_median(classes, 50)
    figures["latency_p95_s"] = stats.percentile(latencies, 95)
    return figures


#: Job stage-log names -> the serve.stage figure they count toward.
STAGE_OF = {"trace": "trace", "build": "trace", "prepare": "prepare",
            "replay": "replay", "form_warps": "replay",
            "replay_warps": "replay"}


def stage_seconds(doc: Dict) -> Dict[str, float]:
    """Seconds per stage from a job's stage log.

    Each logged stage entry runs until the next entry (the last one
    until the job finished), so store writes after a replay count as
    replay.  Entries outside :data:`STAGE_OF` count toward no stage.
    """
    out = {"trace": 0.0, "prepare": 0.0, "replay": 0.0}
    entries = doc.get("stages") or []
    end = doc["finished"] - doc["started"]
    for index, entry in enumerate(entries):
        stop = entries[index + 1]["t_s"] if index + 1 < len(entries) else end
        stage = STAGE_OF.get(entry["stage"])
        if stage is not None:
            out[stage] += max(0.0, stop - entry["t_s"])
    return out


def layer_figures(outcomes: List[Outcome], before: Dict,
                  after: Dict) -> Dict[str, float]:
    """Per-layer ``serve.*`` figures of one run."""
    ok = [o for o in outcomes if o.ok]
    jobs = {o.doc["job_id"]: o.doc for o in ok if created_here(o)}
    queue_wait = [doc["started"] - doc["created"] for doc in jobs.values()]
    run = [doc["finished"] - doc["started"] for doc in jobs.values()]
    stage_total = {"trace": 0.0, "prepare": 0.0, "replay": 0.0}
    for doc in jobs.values():
        for stage, seconds in stage_seconds(doc).items():
            stage_total[stage] += seconds
    overhead = [(o.held - o.sent)
                - max(0.0, o.doc["finished"] - max(o.doc["created"], o.sent))
                for o in ok]
    counters = {key: after["requests"][key] - before["requests"].get(key, 0)
                for key in after["requests"]}
    submits = counters.get("submits", 0)
    return {
        "serve.queue_wait_p50_s": stats.median(queue_wait),
        "serve.queue_wait_p95_s": stats.percentile(queue_wait, 95),
        "serve.run_p50_s": stats.median(run),
        "serve.run_p95_s": stats.percentile(run, 95),
        "serve.stage.trace_s": stage_total["trace"],
        "serve.stage.prepare_s": stage_total["prepare"],
        "serve.stage.replay_s": stage_total["replay"],
        "serve.http_overhead_p50_s": stats.median(overhead),
        "serve.coalesced_ratio": ratio(counters.get("coalesced", 0), submits),
        "serve.warm_ratio": ratio(counters.get("warm_hits", 0), submits),
        "serve.executions": after["executions"] - before["executions"],
        "serve.rejected": counters.get("rejected", 0),
    }


def add_spans(tracer, outcomes: List[Outcome]) -> None:
    """Rebuild each request's spans from its recorded timeline.

    Client and server stamps share the host's wall clock.  The gaps
    between polls are covered by no span.
    """
    for index, o in enumerate(outcomes):
        if not o.ok:
            continue
        rid = f"r{index}"
        tracer.add("request", o.sent, o.held, None, rid)
        tracer.add("http.submit", o.sent, o.submitted, None, rid)
        created, started, finished = (o.doc["created"], o.doc["started"],
                                      o.doc["finished"])
        tracer.add("server.queue", max(created, o.sent), started, None, rid)
        tracer.add("server.run", max(started, o.sent), finished, None, rid)
        tracer.add("http.report", o.fetch, o.held, None, rid)


class ServeMix:
    """Set-up, run and checks of the ``serve-mix`` workload."""

    name = "serve-mix"

    def __init__(self, root: str, work: str, seed: int) -> None:
        self.root, self.work, self.seed = root, work, seed
        self.screen = Screen()
        self.popular = schedule.popular_set(seed, self.screen)
        self.mismatches: List[str] = []
        self.server: Optional[Server] = None
        self.peak_rss_mb = 0.0

    def setup(self) -> None:
        import tempfile

        from repro.session import AnalysisSession

        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work)
        with AnalysisSession(cache_dir=self.store_dir, jobs=1) as session:
            for request in self.popular:
                body = request["body"]
                session.analyze(body["workload"], n_threads=body["n_threads"],
                                seed=body["seed"])
        self.server = Server(self.root, self.store_dir,
                             os.path.join(self.store_dir, "server.log"))
        conn = Conn(self.server.host, self.server.port)
        try:
            for request in self.popular:
                (outcome,) = send(conn, dict(request, kind="popular"))
                if not outcome.ok or outcome.doc["executions"]:
                    raise RuntimeError(
                        f"popular request {request['body']} was not "
                        f"answered from the store: {outcome.error}")
        finally:
            conn.close()

    def run(self, seconds: float) -> Tuple[List[Tuple[List[Outcome], float]],
                                           Dict, Dict]:
        """Whole cycles until ``seconds`` of request time have passed.

        Runs at least :data:`RSS_CYCLES` cycles and reads the server's
        peak RSS since the run started after that many
        (``self.peak_rss_mb``).  Returns each
        cycle's outcomes with its wall time, and the ``/v1/health``
        documents from before and after.
        """
        before = get_health(self.server.host, self.server.port)
        reset_peak_rss(self.server.proc.pid)
        conn = Conn(self.server.host, self.server.port)
        cycles: List[Tuple[List[Outcome], float]] = []
        busy = 0.0
        try:
            for cycle in schedule.serve_mix(self.seed, self.screen):
                outcomes: List[Outcome] = []
                start = time.perf_counter()
                for entry in cycle:
                    try:
                        outcomes.extend(send(conn, entry))
                    except OSError as exc:
                        failed = Outcome(entry)
                        failed.error = f"{type(exc).__name__}: {exc}"
                        outcomes.append(failed)
                wall = time.perf_counter() - start
                cycles.append((outcomes, wall))
                busy += wall
                if len(cycles) == RSS_CYCLES:
                    self.peak_rss_mb = peak_rss_mb(self.server.proc.pid)
                if busy >= seconds and len(cycles) >= RSS_CYCLES:
                    break
        finally:
            conn.close()
        after = get_health(self.server.host, self.server.port)
        return cycles, before, after

    def verify(self, outcomes: List[Outcome], before: Dict,
               after: Dict) -> None:
        """Report bytes and warm-path executions (outside the timing)."""
        from repro.session import AnalysisSession

        ok = [o for o in outcomes if o.ok]
        warm = [o for o in ok if o.request["kind"] == "popular"]
        executed = [o for o in warm if o.doc["executions"]]
        if executed:
            self.mismatches.append(
                f"{self.name}: {len(executed)} repeat submit(s) of the "
                "popular set reported machine executions")
        computed = {o.doc["job_id"] for o in ok if created_here(o)}
        executions = after["executions"] - before["executions"]
        if executions > len(computed):
            self.mismatches.append(
                f"{self.name}: the server executed the machine "
                f"{executions} times for {len(computed)} new jobs")
        rng = random.Random(f"{self.name}/check/{self.seed}")
        sample: Dict[str, List[Outcome]] = {}
        for o in ok:
            sample.setdefault(o.request["kind"] + o.request["body"]
                              ["workload"], []).append(o)
        chosen = {o.doc["job_id"]: o for o in warm}
        for key in sorted(sample):
            pick = rng.choice(sample[key])
            chosen.setdefault(pick.doc["job_id"], pick)
        with AnalysisSession(cache_dir=None, jobs=1) as session:
            for o in chosen.values():
                body = o.request["body"]
                request = {"program": body["workload"],
                           "n_threads": body["n_threads"],
                           "seed": body["seed"]}
                if "warp_sizes" in body:
                    request["warp_sizes"] = sorted(body["warp_sizes"])
                expected = [report_bytes(r)
                            for r in run_request(session, request)]
                if expected != [report_doc_bytes(c) for c in cells(o.doc)]:
                    self.mismatches.append(
                        f"{self.name}: served report of {body} differs "
                        "from a fresh store-less jobs=1 session")

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
