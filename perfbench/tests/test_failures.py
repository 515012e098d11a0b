"""A request that raises fails the run, even with every check passing."""

import child
import run
from repro.session import AnalysisSession


def test_a_program_whose_requests_raise_fails_the_run(monkeypatch, tmp_path):
    analyze = AnalysisSession.analyze

    def broken(self, program, *args, **kwargs):
        if program == "vectoradd":
            raise RuntimeError("injected failure")
        return analyze(self, program, *args, **kwargs)

    monkeypatch.setattr(AnalysisSession, "analyze", broken)
    args = child.parse(["--workload", "cold-mix", "--seed", "1",
                        "--seconds", "0", "--latency-limit-s", "0.5",
                        "--work", str(tmp_path), "--out", str(tmp_path)])
    raw = child.run_in_process(args, str(tmp_path))
    # One cycle: 8 of its 15 requests are vectoradd, and every report
    # that did come back matches.
    assert (raw["attempted"], raw["failed"]) == (15, 8)
    assert not raw["mismatches"]
    assert run.verdict(raw) == ["8 of 15 requests failed"]


def test_a_clean_run_has_no_verdict():
    assert run.verdict({"mismatches": [], "failed": 0, "attempted": 3}) == []
