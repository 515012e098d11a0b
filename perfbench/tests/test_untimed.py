"""The untimed run imports no span wrapper; the traced run does."""

import json
import os
import subprocess
import sys
import tempfile

from conftest import BENCH, ROOT


def imported_modules(trace: int):
    with tempfile.TemporaryDirectory() as scratch:
        proc = subprocess.run(
            [sys.executable, "-X", "importtime",
             os.path.join(BENCH, "child.py"), "--workload", "cold-mix",
             "--seed", "1", "--seconds", "0", "--trace", str(trace),
             "--latency-limit-s", "0.5",
             "--work", scratch, "--out", scratch],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["mismatches"]
    return {line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def test_untimed_run_imports_no_wrapper():
    assert "layers" not in imported_modules(trace=0)
    assert "spans" not in imported_modules(trace=0)


def test_traced_run_does():
    assert {"layers", "spans"} <= imported_modules(trace=1)
