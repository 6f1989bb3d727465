"""Golden reference for the shipped team22 scenario.

tests/data/team22_golden.json holds one run of scenarios/team22.yaml:
the actual positions every second, the event list with exact ticks and
payloads, and the network epoch metadata.  A change that moves a
trajectory by more than 1e-9 m, shifts an event by a tick or changes a
network epoch fails here.  The log digest is not stored: a reassociated
formula, such as the affine closed form of the RK4 step, changes logged
series in their last bits without moving a trajectory, so an exact digest
would have to be re-recorded on every such change and would then compare
nothing.

Re-record after an intended numeric change, and declare it in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --record
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from conftest import TEAM22  # noqa: E402

from contiform.simulate import run_scenario  # noqa: E402

GOLDEN = HERE / "data" / "team22_golden.json"
STRIDE_S = 1.0
POSITION_TOL = 1e-9   # m


def summarize(log):
    stride = int(round(STRIDE_S / log.dt))
    return {
        "scenario": TEAM22.name,
        "dt": log.dt,
        "stride_ticks": stride,
        "agent_ids": [int(a) for a in log.agent_ids],
        "positions": log.actual[::stride].tolist(),
        "events": [[int(round(e.time / log.dt)), e.kind, e.payload]
                   for e in log.events],
        "epochs": log.epochs,
    }


def _same_payload(got, want):
    if isinstance(got, float) or isinstance(want, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(got, (list, tuple)) and isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(
            _same_payload(a, b) for a, b in zip(got, want))
    if isinstance(got, dict) and isinstance(want, dict):
        return got.keys() == want.keys() and all(
            _same_payload(got[k], want[k]) for k in got)
    return got == want


@pytest.fixture(scope="module")
def team22_run():
    golden = json.loads(GOLDEN.read_text())
    got = summarize(run_scenario(str(TEAM22)))
    # JSON round trip, so that tuples and int keys compare as recorded
    return json.loads(json.dumps(got)), golden


def test_positions_within_tolerance(team22_run):
    got, golden = team22_run
    assert got["stride_ticks"] == golden["stride_ticks"]
    assert got["agent_ids"] == golden["agent_ids"]
    actual = np.array(got["positions"])
    want = np.array(golden["positions"])
    assert actual.shape == want.shape
    assert np.max(np.abs(actual - want)) <= POSITION_TOL


def test_event_ticks_exact(team22_run):
    got, golden = team22_run
    assert [e[:2] for e in got["events"]] == \
        [e[:2] for e in golden["events"]]
    assert _same_payload([e[2] for e in got["events"]],
                         [e[2] for e in golden["events"]])


def test_epoch_metadata(team22_run):
    got, golden = team22_run
    assert _same_payload(got["epochs"], golden["epochs"])


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    summary = summarize(run_scenario(str(TEAM22)))
    GOLDEN.write_text(json.dumps(summary, sort_keys=True) + "\n")
    print(f"recorded {GOLDEN.name}")
