"""The benchmark's correctness gate, run as part of the suite.

For every workload BENCHMARK.json declares, `perfbench/run.py --trace 1`
runs the workload once untraced and once traced, compares the logs with
perfbench's reference and checks the trace's step spans against the
logged modes.  `--trace 0` runs it untraced only, with the split timing
that wraps the workload's marker function (worker.MARKERS) and probes the
host's speed at each of its calls.  A change that breaks any of these
fails here, not only when the benchmark runs.  About 3 s per workload and
mode.
"""
import importlib.util
import json
import subprocess
import sys

import pytest
from conftest import REPO_ROOT

WORKLOADS = [w["name"] for w in json.loads(
    (REPO_ROOT / "BENCHMARK.json").read_text())["workloads"]]


def run(workload, trace):
    """perfbench/run.py's result line and its information lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", str(trace)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    *lines, last = proc.stdout.splitlines()
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0, \
        proc.stderr[-2000:]
    return result, dict(line.split(" = ", 1) for line in lines
                        if " = " in line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_workload_is_correct(workload):
    run(workload, 1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_workload_is_correct_and_probed(workload):
    """A marker gone from its module kills the untraced run; a run that no
    longer calls it takes no probe, so calibration_s falls back to
    worker.PROBE_REFERENCE_S and every time reads unscaled."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", REPO_ROOT / "perfbench" / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    _, info = run(workload, 0)
    calibration_s = float(info["host.calibration_s"].split()[0])
    assert calibration_s != worker.PROBE_REFERENCE_S
