"""Hybrid supervisor: HDM/CEM mode logic over the containment domain.

The mode transition is a pure function of the previous mode, the flagged
agents' positions and the containment domain, so replaying a logged run
reproduces identical transition times.  The containment domain is a
rigid-size norm ball (1-norm box by default, boundary inclusive); its
center is maintained by the caller, which either freezes it at CEM entry
(default policy) or tracks the healthy mean every tick.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Mode(enum.Enum):
    HDM = "HDM"
    CEM = "CEM"


@dataclass(frozen=True)
class Event:
    """One supervisor or harness event, serialized to the run log."""

    time: float
    kind: str
    payload: dict


def transition(mode, anomalous, positions, center, half_size, norm_kind,
               clock):
    """One supervisor step; pure in all inputs.

    anomalous is the sorted flagged ids and positions the (k, 3) array of
    their actual positions; norm_kind is "l1" or "l2".  HDM switches to
    CEM when any anomalous agent sits inside the containment domain.  An
    agent outside the domain needs no evasion, so once every anomalous
    agent is outside, CEM returns to HDM and HDM stays in HDM, and both
    emit a reference-reset event so the caller excludes them, rebuilds the
    communication network and discards stream constants.  Returns
    (next_mode, events); HDM with nobody anomalous emits nothing.
    """
    # Python floats summed in order, as numpy sums a (k, 3) array's rows:
    # for the few flagged agents this is cheaper than numpy's calls
    diff = (positions - center).tolist()
    if norm_kind == "l1":
        dist = [abs(x) + abs(y) + abs(z) for x, y, z in diff]
    else:
        dist = [math.sqrt(x * x + y * y + z * z) for x, y, z in diff]
    inside = [a for a, d in zip(anomalous, dist) if d <= half_size]
    if inside:
        if mode is Mode.CEM:
            return mode, []
        return Mode.CEM, [Event(time=clock, kind="mode_change", payload={
            "from": "HDM", "to": "CEM", "agents": inside})]
    reset = Event(time=clock, kind="reference_reset",
                  payload={"excluded": list(anomalous)})
    if mode is Mode.HDM:
        return mode, [reset] if len(anomalous) else []
    return Mode.HDM, [
        Event(time=clock, kind="mode_change",
              payload={"from": "CEM", "to": "HDM",
                       "agents": list(anomalous)}),
        reset,
    ]
