"""Simulation harness tests.

The convergence oracle is the scalar ODE e' = -g e: with static leaders
a displaced follower must contract toward its weighted in-neighbor
point at rate g (up to the classical integrator's truncation error).
"""
import numpy as np
import pytest
from conftest import TEAM22

from contiform.automaton import Mode
from contiform.errors import NumericError
from contiform.scenario import load_scenario
from contiform.simulate import (HEALTH_FLAGGED, HEALTH_OK, MODE_CODE,
                                Simulation, inject_failure, run_scenario,
                                step_simulation)

STATIC4 = """
n: 2
dt: 0.001
duration: {duration}
gain: 25.0
agents:
  - {{id: 1, position: [0, 0]}}
  - {{id: 2, position: [4, 0]}}
  - {{id: 3, position: [0, 4]}}
  - {{id: 4, position: [1, 1]}}
{extra}
"""


def static4(duration=0.1, extra=""):
    return load_scenario(STATIC4.format(duration=duration, extra=extra))


MOVING5 = """
n: 2
dt: 0.001
duration: {duration}
gain: 25.0
agents:
  - {{id: 1, position: [0, 0]}}
  - {{id: 2, position: [6, 0]}}
  - {{id: 3, position: [0, 6]}}
  - {{id: 4, position: [1.5, 1.5]}}
  - {{id: 5, position: [2.5, 1.0]}}
leader_trajectories:
  1:
    - {{time: 0.0, position: [0, 0]}}
    - {{time: 10.0, position: [10, 0]}}
  2:
    - {{time: 0.0, position: [6, 0]}}
    - {{time: 10.0, position: [16, 0]}}
  3:
    - {{time: 0.0, position: [0, 6]}}
    - {{time: 10.0, position: [10, 6]}}
{extra}
"""


def moving5(duration=0.3, extra=""):
    return load_scenario(MOVING5.format(duration=duration, extra=extra))


class TestFixedPoint:
    def test_reference_formation_is_stationary(self):
        log = run_scenario(static4(duration=0.1))
        np.testing.assert_allclose(log.actual[-1], log.actual[0], atol=1e-12)
        assert np.all(log.mode == MODE_CODE[Mode.HDM])
        assert np.all(log.health == HEALTH_OK)


class TestConvergenceRate:
    def test_follower_contracts_at_gain_rate(self):
        sim = Simulation(static4(duration=1.0))
        j = sim.idx[4]
        ref = sim.positions[j].copy()
        sim.positions[j] = ref + np.array([0.05, 0.0, 0.0])
        ticks = 200
        for _ in range(ticks):
            step_simulation(sim)
        err = np.linalg.norm(sim.positions[j] - ref)
        want = 0.05 * np.exp(-25.0 * ticks * sim.dt)
        assert err == pytest.approx(want, rel=1e-6)

    def test_static_leader_settling(self):
        sim = Simulation(static4(duration=1.0))
        j = sim.idx[4]
        ref = sim.positions[j].copy()
        sim.positions[j] = ref + np.array([0.05, 0.0, 0.0])
        errors = []
        for _ in range(500):
            step_simulation(sim)
            errors.append(np.linalg.norm(sim.positions[j] - ref))
        errors = np.array(errors)
        # monotone contraction toward the weighted point, settling < 1e-6
        assert np.all(np.diff(errors) <= 0.0)
        assert errors[-1] < 1e-6


class TestCemTick:
    def test_healthy_targets_advance_downstream(self):
        # far-away failed agent leaves the flow locally uniform, so one
        # tick must advance each healthy target by v_phi/u_inf*dt along x
        doc = """
n: 2
dt: 0.001
duration: 0.1
gain: 25.0
containment: {half_size: 1000}
agents:
  - {id: 1, position: [0, 0]}
  - {id: 2, position: [4, 0]}
  - {id: 3, position: [0, 4]}
  - {id: 4, position: [1, 1]}
  - {id: 5, position: [0, -500]}
"""
        sim = Simulation(load_scenario(doc))
        sim.flagged = frozenset({5})
        sim._refresh_healthy()
        sim._enter_cem(0.0)
        sim.mode = Mode.CEM
        before = sim.cem_targets.copy()
        step_simulation(sim)
        advance = sim.cem_targets[sim.healthy_idx] - before[sim.healthy_idx]
        dt = sim.dt
        np.testing.assert_allclose(advance[:, 0], 10.0 / 10.0 * dt,
                                   atol=1e-6)
        np.testing.assert_allclose(advance[:, 1], 0.0, atol=2e-6)
        np.testing.assert_allclose(advance[:, 2], 0.0, atol=1e-12)
        assert sim.mode is Mode.CEM


class TestFailures:
    def test_freeze_holds_position(self):
        extra = """
failures:
  - {agent: 4, time: 0.05, kind: freeze}
"""
        log = run_scenario(moving5(duration=0.3, extra=extra))
        j = log.agent_ids.index(4)
        active = log.times >= 0.05 + log.dt / 2
        frozen_rows = log.actual[active, j, :]
        assert np.max(np.abs(frozen_rows - frozen_rows[0])) <= 1e-12
        # the rest of the team keeps moving
        lead = log.agent_ids.index(1)
        assert log.actual[-1, lead, 0] > log.actual[0, lead, 0] + 0.2
        kinds = [e.kind for e in log.events]
        assert "failure_active" in kinds

    def test_drift_moves_linearly(self):
        extra = """
failures:
  - {agent: 4, time: 0.1, kind: drift, velocity: [0.5, 0, 0]}
"""
        log = run_scenario(static4(duration=0.3, extra=extra))
        j = log.agent_ids.index(4)
        t = log.times
        active = t >= 0.1 + log.dt / 2
        anchor = log.actual[np.argmax(active) - 1, j, :]
        expect_x = anchor[0] + 0.5 * (t[active] - 0.1)
        np.testing.assert_allclose(log.actual[active, j, 0], expect_x,
                                   atol=1e-9)

    def test_failure_beyond_duration_warns(self):
        sim = Simulation(static4(duration=0.1))
        with pytest.warns(UserWarning, match="beyond the run duration"):
            inject_failure(sim, 4, "freeze", time=5.0)
        assert 4 not in sim.failures
        kinds = [e.kind for e in sim.events]
        assert "failure_ignored" in kinds

    def test_inject_on_running_sim(self):
        sim = Simulation(static4(duration=0.1))
        inject_failure(sim, 4, "freeze", time=0.02)
        for _ in range(sim.total_ticks):
            step_simulation(sim)
        j = sim.idx[4]
        np.testing.assert_allclose(sim.positions[j], sim.log.actual[20, j],
                                   atol=1e-12)

    def test_unknown_agent_rejected(self):
        sim = Simulation(static4(duration=0.1))
        with pytest.raises(ValueError):
            inject_failure(sim, 99, "freeze", time=0.01)
        with pytest.raises(ValueError):
            inject_failure(sim, 4, "teleport", time=0.01)

    @pytest.mark.parametrize("time, velocity, field", [
        (float("nan"), None, "time"),
        (float("inf"), None, "time"),
        (-3.0, None, "time"),
        (0.05, [float("nan"), 0.0], r"velocity\[0\]"),
        (0.05, [0.0, 0.0, float("inf")], r"velocity\[2\]"),
        (0.05, [1.0, 2.0, 3.0, 4.0], "velocity"),
    ])
    def test_bad_time_or_velocity_rejected(self, time, velocity, field):
        """The checks load_scenario applies to a declared failure."""
        sim = Simulation(static4(duration=0.1))
        kind = "freeze" if velocity is None else "drift"
        with pytest.raises(ValueError, match=field):
            inject_failure(sim, 4, kind, time=time, velocity=velocity)
        assert sim.failures == {}


class TestRunScenario:
    def test_no_failures_stays_hdm(self):
        log = run_scenario(moving5(duration=0.3))
        assert np.all(log.mode == MODE_CODE[Mode.HDM])
        assert log.mode_changes() == []

    def test_zero_duration(self):
        log = run_scenario(static4(duration=0.0))
        assert log.times.shape == (1,)
        np.testing.assert_allclose(log.actual[0, 3], [1.0, 1.0, 0.0])

    def test_accepts_path_and_text(self, tmp_path):
        doc = STATIC4.format(duration=0.01, extra="")
        p = tmp_path / "tiny.yaml"
        p.write_text(doc)
        log_a = run_scenario(str(p))
        log_b = run_scenario(doc)
        assert log_a.digest() == log_b.digest()

    def test_determinism(self):
        extra = """
failures:
  - {agent: 4, time: 0.05, kind: freeze}
"""
        first = run_scenario(moving5(duration=0.4, extra=extra))
        second = run_scenario(moving5(duration=0.4, extra=extra))
        assert first.digest() == second.digest()

    def test_time_column_advances_by_dt(self):
        log = run_scenario(static4(duration=0.05))
        np.testing.assert_allclose(np.diff(log.times), log.dt, atol=1e-15)

    def test_numeric_blowup_raises(self):
        doc = MOVING5.format(duration=0.3, extra="").replace(
            "gain: 25.0", "gain: 1000000.0")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match="tick"):
                run_scenario(load_scenario(doc))

    def test_step_guard(self):
        sim = Simulation(static4(duration=0.01))
        with pytest.raises(ValueError, match="dt must equal"):
            step_simulation(sim, dt=0.5)
        for _ in range(sim.total_ticks):
            step_simulation(sim, dt=sim.dt)
        with pytest.raises(RuntimeError):
            sim.step()


class TestLogShape:
    def test_row_layout(self):
        log = run_scenario(moving5(duration=0.1))
        rows = log.times.shape[0]
        n_agents = len(log.agent_ids)
        assert log.actual.shape == (rows, n_agents, 3)
        assert log.weights.shape == (rows, n_agents, 3)
        assert log.mode.shape == (rows,)
        assert log.sigma.shape == (rows, 3)
        # leaders carry no detector rows: weights stay NaN
        lead = log.agent_ids.index(1)
        assert np.all(np.isnan(log.weights[:, lead]))
        fol = log.agent_ids.index(4)
        assert np.all(np.isfinite(log.weights[1:, fol]))

    def test_sigma_profile_identity_for_static(self):
        log = run_scenario(static4(duration=0.05))
        np.testing.assert_allclose(log.sigma[1:], 1.0, atol=1e-9)
        assert np.all(log.margin_ok[1:] == 1)


class TestKnownLimitations:
    def test_frozen_leader_is_never_flagged(self):
        """A failed leader is not detected (README, Known limitations).

        The detector checks follower weights only, and followers keep
        tracking the stuck leader, so the run reports the leader's lag once
        and otherwise stays in HDM with every agent healthy.  This pins
        today's behaviour; a leader-failure policy will change it.
        """
        text = TEAM22.read_text().replace("duration: 125.0", "duration: 20.0")
        text = text.replace("dt: 0.001", "dt: 0.002")
        text = text[:text.index("failures:")] \
            + "failures:\n- {agent: 1, time: 1.0, kind: freeze}\n"
        log = run_scenario(load_scenario(text))
        deviations = log.events_of_kind("leader_deviation")
        assert [e.payload["agent"] for e in deviations] == [1]
        assert np.all(log.health == HEALTH_OK)
        assert np.all(log.mode == MODE_CODE[Mode.HDM])
        assert log.mode_changes() == []
        assert log.events_of_kind("reference_reset") == []

    def test_simultaneous_failures_are_handled_serially(self):
        """Two agents frozen together are flagged one after the other
        (README, Known limitations).

        The flagged set is frozen while CEM is active, so agent 11 is
        flagged only once 14 has been excluded and the network rebuilt.
        This pins today's behaviour; flagging both at once will change it.
        """
        text = TEAM22.read_text().replace("duration: 125.0", "duration: 5.0")
        text = text.replace("dt: 0.001", "dt: 0.002")
        text = text[:text.index("failures:")] + (
            "failures:\n- {agent: 11, time: 1.0, kind: freeze}\n"
            "- {agent: 14, time: 1.0, kind: freeze}\n")
        log = run_scenario(load_scenario(text))
        changes = log.mode_changes()
        assert [(e.payload["to"], e.payload["agents"]) for e in changes] == \
            [("CEM", [14]), ("HDM", [14]), ("CEM", [11])]
        resets = log.events_of_kind("reference_reset")
        assert [e.payload["excluded"] for e in resets] == [[14]]
        rebuilt = resets[0].time
        assert changes[1].time == rebuilt < changes[2].time
        assert 14 not in log.epochs[1]["followers"] + log.epochs[1]["leaders"]
        # 11 stays unflagged until the rebuild, though frozen since 1 s
        j = log.agent_ids.index(11)
        before = log.times < rebuilt
        assert np.all(log.health[before, j] == HEALTH_OK)
        assert np.any(log.health[~before, j] == HEALTH_FLAGGED)
