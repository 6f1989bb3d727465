"""Replay of the shipped 22-agent failure scenario.

Agent 11 freezes at t = 100 s while the team deforms through a corridor.
The detector flags it, the supervisor switches to streamline evasion,
and once the frozen agent's 1-norm distance from the containment center
exceeds the box half-size it is excluded and the network is rebuilt.
Takes about seven seconds; pass a different scenario path to replay it.
"""
import sys
import time
from pathlib import Path

import numpy as np

from contiform.simulate import MODE_CODE, run_scenario
from contiform.automaton import Mode

default = Path(__file__).resolve().parent.parent / "scenarios" / "team22.yaml"
path = sys.argv[1] if len(sys.argv) > 1 else str(default)

print(f"scenario: {path}")
t0 = time.perf_counter()
log = run_scenario(path)
print(f"simulated {log.times[-1]:g} s in {time.perf_counter() - t0:.1f} s "
      f"wall time ({log.times.shape[0] - 1} ticks)")

for event in log.events:
    if event.kind in ("failure_active", "mode_change", "reference_reset",
                      "leader_fallback"):
        print(f"  t={event.time:9.3f}  {event.kind}: {event.payload}")

changes = log.mode_changes()
if changes:
    enter, leave = changes[0], changes[-1]
    print(f"\ndetection latency: {enter.time - 100.0:.3f} s")
    idx = log.agent_ids.index(11)
    dist = np.abs(log.actual[:, idx, :] - log.center).sum(axis=1)
    k_exit = int(round(leave.time / log.dt))
    print(f"exit at t={leave.time:.3f} s, 1-norm distance from center "
          f"{dist[k_exit]:.3f} m (half size 40)")

cem_ticks = int(np.sum(log.mode == MODE_CODE[Mode.CEM]))
print(f"CEM ticks: {cem_ticks} ({cem_ticks * log.dt:.3f} s)")
print(f"epochs: {len(log.epochs)}")
for ep in log.epochs:
    print(f"  start tick {ep['start_tick']:>6}  leaders {ep['leaders']}  "
          f"followers {len(ep['followers'])}  Xi_max {ep['Xi_max']:.4f}")
print(f"digest: {log.digest()[:16]}...")
