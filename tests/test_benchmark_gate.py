"""The benchmark's correctness gate, run as part of the suite.

For every workload BENCHMARK.json declares, `perfbench/run.py --trace 1`
runs the workload once untraced and once traced, compares the logs with
perfbench's reference and checks the trace's step spans against the
logged modes.  A change that breaks either fails here, not only when the
benchmark runs.  About 3 s per workload.
"""
import json
import subprocess
import sys

import pytest
from conftest import REPO_ROOT

WORKLOADS = [w["name"] for w in json.loads(
    (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, \
        proc.stderr[-2000:]
