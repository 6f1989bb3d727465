"""Simulation harness tests.

The convergence oracle is the scalar ODE e' = -g e: with static leaders
a displaced follower must contract toward its weighted in-neighbor
point at rate g (up to the classical integrator's truncation error).
The oracle for the affine team step r+ = M r + U is the classical RK4
step it is the closed form of, written out stage by stage.
"""
import math
import warnings

import numpy as np
import pytest
from conftest import REPO_ROOT, TEAM22
from hypothesis import given, settings
from hypothesis import strategies as st

from contiform import anomaly, refnet, simulate
from contiform.automaton import Mode
from contiform.errors import NumericError, ScenarioError
from contiform.scenario import load_scenario
from contiform.simulate import (HEALTH_EXCLUDED, HEALTH_FLAGGED, HEALTH_OK,
                                MARGIN_NA, MODE_CODE, Simulation, _Epoch,
                                _rk4_coefficients, _stage_commands,
                                _team_matrix, inject_failure, run_scenario)
from test_lookahead import CEM_DRIFT, failure_doc, team7, team22_freeze

LATTICE27 = REPO_ROOT / "scenarios" / "lattice27.yaml"

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

    @pytest.mark.parametrize("path", [TEAM22, LATTICE27],
                             ids=["team22", "lattice27"])
    def test_transient_weights_equal_static_at_reference(self, path):
        """At the reference formation the detector's transient weights are
        the network's static weights bit for bit: both come from one
        weight kernel on the same positions."""
        sim = Simulation(load_scenario(path))
        ep = sim.epoch
        np.testing.assert_array_equal(sim.log.weights[0, ep.follower_idx],
                                      ep.static_w)

    def test_boundary_follower_below_minus_one_stays_healthy(self):
        # follower 5 sits at weight -5/3 toward leader 1; a static team
        # tracks perfectly, so nothing may be flagged
        doc = """
n: 2
dt: 0.001
duration: 0.05
agents:
  - {id: 1, position: [0, 0]}
  - {id: 2, position: [6, 0]}
  - {id: 3, position: [0, 6]}
  - {id: 4, position: [2, 2]}
  - {id: 5, position: [8, 8]}
leader_override: [1, 2, 3]
"""
        sim = Simulation(load_scenario(doc))
        assert sim.epoch.network.weights[(5, 1)] == pytest.approx(-5.0 / 3.0)
        log = sim.run()
        assert log.mode_changes() == []
        assert np.all(log.health == HEALTH_OK)


def rk4_track(r, rd1, rd2, rd3, g, dt):
    """RK4 step of r' = g (rd(t) - r), rd sampled at t, t+dt/2, t+dt."""
    k1 = g * (rd1 - r)
    k2 = g * (rd2 - (r + 0.5 * dt * k1))
    k3 = g * (rd2 - (r + 0.5 * dt * k2))
    k4 = g * (rd3 - (r + dt * k3))
    return r + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


class TestTeamStep:
    @settings(max_examples=60)
    @given(n=st.sampled_from([2, 3]),
           h=st.floats(0.0, 2.0, exclude_min=True),
           dt=st.sampled_from([1e-3, 5e-3, 0.2]),
           followers=st.integers(1, 6), excluded=st.integers(0, 2),
           magnitude=st.floats(-2.0, 3.0), seed=st.integers(0, 2**32 - 1))
    def test_affine_step_matches_rk4(self, n, h, dt, followers, excluded,
                                     magnitude, seed):
        """One tick of M r + U against RK4 with the followers' weighted
        in-neighbor points held over the tick and the leaders' commands
        sampled at the three stage times."""
        rng = np.random.default_rng(seed)
        leaders = n + 1
        size = leaders + followers + excluded
        perm = rng.permutation(size)
        leader_idx = perm[:leaders]
        follower_idx = perm[leaders:leaders + followers]
        excluded_idx = perm[leaders + followers:]
        order_idx = perm[:leaders + followers]
        W = np.zeros((followers, len(order_idx)))
        for j in range(followers):   # affine rows over n+1 other agents
            cols = rng.choice(np.delete(np.arange(len(order_idx)),
                                        leaders + j), n + 1, replace=False)
            W[j, cols[:-1]] = rng.uniform(-2.0, 2.0, n)
            W[j, cols[-1]] = 1.0 - W[j, cols[:-1]].sum()
        scale = 10.0 ** magnitude
        r = rng.uniform(-scale, scale, (size, 3))
        cmd = rng.uniform(-scale, scale, (leaders, 3, 3))   # t, t+dt/2, t+dt
        g = h / dt
        coeffs = _rk4_coefficients(g * dt)
        M = _team_matrix(size, coeffs[0], follower_idx, order_idx, W,
                         leader_idx)
        U = np.zeros((size, 3))
        U[leader_idx] = _stage_commands(coeffs, cmd)[:, 0]
        got = M @ r + U

        stages = []
        for c in cmd.swapaxes(0, 1):
            rd = r.copy()
            rd[follower_idx] = W @ r[order_idx]
            rd[leader_idx] = c
            stages.append(rd)
        want = rk4_track(r, *stages, g, dt)
        tol = 1e-12 * scale * max(1.0, np.abs(W).sum(axis=1).max())
        np.testing.assert_allclose(got, want, rtol=0.0, atol=tol)
        assert got[excluded_idx].tobytes() == r[excluded_idx].tobytes()
        assert abs(math.fsum(coeffs) - 1.0) <= 4 * np.spacing(1.0)


class TestConvergenceRate:
    def test_follower_contracts_at_gain_rate(self):
        sim = Simulation(static4(duration=1.0))
        j = sim.idx[4]
        ref = sim.positions[j].copy()
        sim.positions[j] = ref + np.array([0.05, 0.0, 0.0])
        ticks = 200
        for _ in range(ticks):
            sim.step()
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
            sim.step()
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
        sim._enter_cem()
        sim.mode = Mode.CEM
        before = sim.episode.targets.copy()
        sim.step()
        advance = sim.episode.targets - before   # (H, 3), in healthy_idx order
        dt = sim.dt
        np.testing.assert_allclose(advance[:, 0], 10.0 / 10.0 * dt,
                                   atol=1e-6)
        np.testing.assert_allclose(advance[:, 1], 0.0, atol=2e-6)
        np.testing.assert_allclose(advance[:, 2], 0.0, atol=1e-12)
        assert sim.mode is Mode.CEM

    def test_activation_is_logged_before_the_tick_end_events(self):
        # agent 1 sits on the upstream stagnation point (-4, 0) of the
        # doublet around flagged agent 5; a failure activating at t = 0
        # is logged before the stagnation at the end of the tick
        doc = """
n: 2
dt: 0.01
duration: 1.0
gain: 25.0
containment: {half_size: 1000}
agents:
  - {id: 1, position: [-4, 0]}
  - {id: 2, position: [20, -10]}
  - {id: 3, position: [0, 20]}
  - {id: 4, position: [5, 3]}
  - {id: 5, position: [0, 0]}
"""
        sim = Simulation(load_scenario(doc))
        sim.flagged = frozenset({5})
        sim._refresh_healthy()
        sim._enter_cem()
        sim.mode = Mode.CEM
        inject_failure(sim, 4, "freeze", 0.0)
        sim.step()
        assert [(e.time, e.kind, e.payload) for e in sim.events] == [
            (0.0, "failure_active", {"agent": 4, "kind": "freeze"}),
            (0.01, "stagnation", {"agent": 1})]
        times = [e.time for e in sim.events]
        assert times == sorted(times)


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

    def test_declared_failure_beyond_duration_is_only_logged(self):
        """Library code does not warn about the scenario's own failure;
        the run logs it (the CLI prints it)."""
        extra = """
failures:
  - {agent: 4, time: 5.0, kind: freeze}
"""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = run_scenario(static4(duration=0.1, extra=extra))
        assert [(e.time, e.kind, e.payload) for e in log.events] == [
            (0.0, "failure_ignored", {"agent": 4, "time": 5.0})]

    def test_injected_failure_beyond_duration_warns_at_the_caller(self):
        sim = Simulation(static4(duration=0.1))
        with pytest.warns(UserWarning, match="agent 4 at t=5.0") as caught:
            inject_failure(sim, 4, "freeze", time=5)
        assert [w.filename for w in caught] == [__file__]

    def test_inject_on_running_sim(self):
        sim = Simulation(static4(duration=0.1))
        inject_failure(sim, 4, "freeze", time=0.02)
        for _ in range(sim.total_ticks):
            sim.step()
        j = sim.idx[4]
        np.testing.assert_allclose(sim.positions[j], sim.log.actual[20, j],
                                   atol=1e-12)

    def test_unknown_agent_rejected(self):
        sim = Simulation(static4(duration=0.1))
        with pytest.raises(ValueError):
            inject_failure(sim, 99, "freeze", time=0.01)
        with pytest.raises(ValueError):
            inject_failure(sim, 4, "teleport", time=0.01)

    def test_checked_as_a_scenario_entry(self):
        """A numpy integer id is an agent id; a freeze given a velocity
        and a second failure of one agent are rejected as in a file."""
        sim = Simulation(static4(duration=0.1))
        with pytest.raises(ValueError, match="velocity: only valid for drift"):
            inject_failure(sim, 4, "freeze", time=0.01, velocity=[1.0, 0.0])
        assert sim.failures == {}
        inject_failure(sim, np.int64(4), "drift", time=0.01,
                       velocity=np.array([1.0, 0.0]))
        spec = sim.failures[4]
        assert type(spec.agent_id) is int
        np.testing.assert_array_equal(spec.velocity, [1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="already has a failure"):
            inject_failure(sim, 4, "freeze", time=0.02)

    @pytest.mark.parametrize("time, ignored", [(0.995, True), (0.99, False)])
    def test_failure_after_the_last_tick_start_is_ignored(self, time,
                                                          ignored):
        """A 1 s run at dt = 0.01 steps ticks starting at 0 ... 0.99: a
        freeze at 0.995 activates at no tick, so it is logged as ignored
        (and injecting it warns); one at 0.99 activates on the last."""
        text = STATIC4.replace("dt: 0.001", "dt: 0.01").format(
            duration=1.0, extra="")
        freeze = f"failures:\n  - {{agent: 4, time: {time}, kind: freeze}}\n"
        log = run_scenario(text + freeze)
        assert [(e.time, e.kind) for e in log.events] == [
            (0.0, "failure_ignored") if ignored else (0.99, "failure_active")]
        sim = Simulation(load_scenario(text))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inject_failure(sim, 4, "freeze", time=time)
        assert len(caught) == ignored
        assert (4 in sim.failures) is not ignored

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
        for _ in range(sim.total_ticks):
            sim.step()
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


class TestLattice27:
    def test_evades_excludes_and_rebuilds_in_3d(self):
        """n = 3 end to end: the shipped 3-D lattice tracks its climbing
        leaders, evades the drifting centre agent, excludes it and rebuilds
        the network, and the block length does not change the log."""
        config = load_scenario(LATTICE27)
        assert config.n == 3 and len(config.agent_ids) == 27
        log = run_scenario(config)
        changes = log.mode_changes()
        assert [(e.payload["to"], e.payload["agents"]) for e in changes] \
            == [("CEM", [14]), ("HDM", [14])]
        resets = log.events_of_kind("reference_reset")
        assert [e.payload["excluded"] for e in resets] == [[14]]
        assert [ep["start_tick"] for ep in log.epochs] == \
            [0, round(resets[0].time / log.dt)]
        rebuilt = log.epochs[1]
        assert 14 not in rebuilt["leaders"] + rebuilt["followers"]
        assert log.health[-1, log.agent_ids.index(14)] == HEALTH_EXCLUDED
        # before the drift every agent follows the leaders' 0.12 m/s climb,
        # each in-neighbor hop adding a lag of about v/g
        row = round(0.5 / log.dt)
        assert np.all(log.health[:row + 1] == HEALTH_OK)
        climb = log.actual[row, :, 2] - log.actual[0, :, 2]
        assert np.all((climb > 0.03) & (climb < 0.06))
        # the planar evasion carries each healthy agent's height
        cem = np.flatnonzero(log.mode == MODE_CODE[Mode.CEM])
        healthy = log.health[cem[-1]] == HEALTH_OK
        z = log.actual[cem[0]:cem[-1] + 1][:, healthy, 2]
        np.testing.assert_allclose(z, np.broadcast_to(z[0], z.shape),
                                   rtol=0.0, atol=1e-9)
        one = Simulation(config)
        one.lookahead_ticks = 1
        assert one.run().digest() == log.digest()


def team22_two_freezes():
    """team22 cut to 11 s at dt = 2 ms, agents 11 and 14 frozen at 1 s."""
    text = TEAM22.read_text().replace("duration: 125.0", "duration: 11.0")
    text = text.replace("dt: 0.001", "dt: 0.002")
    return load_scenario(text[:text.index("failures:")] + (
        "failures:\n- {agent: 11, time: 1.0, kind: freeze}\n"
        "- {agent: 14, time: 1.0, kind: freeze}\n"))


class TestEpochs:
    @pytest.mark.parametrize("config", [
        lambda: load_scenario(LATTICE27), team22_two_freezes],
        ids=["lattice27", "team22-two-freezes"])
    def test_step_loop_logs_the_epochs_of_run(self, config):
        """Each network epoch is logged as it is built, so a run driven
        by step() logs the epochs run() does."""
        stepped = Simulation(config())
        assert len(stepped.log.epochs) == 1
        while stepped.tick < stepped.total_ticks:
            stepped.step()
        ran = Simulation(config()).run()
        assert len(ran.epochs) >= 2
        assert stepped.log.epochs == ran.epochs
        assert stepped.log.digest() == ran.digest()


def array_bytes(obj):
    """Summed nbytes of the arrays among obj's attributes, also inside
    lists and tuples."""
    def walk(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        if isinstance(value, (list, tuple)):
            return sum(walk(v) for v in value)
        return 0
    return walk(list(vars(obj).values()))


class TestLeaderPlan:
    """An epoch's leader plan is a function of the waypoints and the
    positions at its build, and every HDM row logs it."""

    @pytest.mark.parametrize("config", [
        team22_freeze, lambda: load_scenario(LATTICE27), team22_two_freezes],
        ids=["team22-freeze", "lattice27", "team22-two-freezes"])
    def test_log_rows_are_the_plan(self, config, monkeypatch):
        """global_desired, sigma and margin_ok of every HDM row equal, bit
        for bit, its epoch's plan evaluated over the epoch at once."""
        epochs, build = [], simulate._build_epoch

        def recorded(*args, **kwargs):
            epochs.append(build(*args, **kwargs))
            return epochs[-1]

        monkeypatch.setattr(simulate, "_build_epoch", recorded)
        log = Simulation(config()).run()
        assert len(epochs) == len(log.epochs) >= 2
        ends = [ep.start_tick for ep in epochs[1:]] + [len(log.times)]
        for ep, end in zip(epochs, ends):
            rows = np.arange(ep.start_tick, end)
            rows = rows[log.mode[rows] == MODE_CODE[Mode.HDM]]
            cmd, sigma, ok, desired = ep.plan(ep.start_tick,
                                              end - 1 - ep.start_tick)
            cmd = cmd[:, ::2].swapaxes(0, 1)
            at = rows - ep.start_tick
            for got, want in (
                    (desired[:, ep.leader_idx], cmd),
                    (desired[:, ep.follower_idx], ep.network.W_L @ cmd),
                    (log.global_desired[rows], desired[at]),
                    (log.sigma[rows], sigma[at]),
                    (log.margin_ok[rows], ok[at])):
                assert got.tobytes() == want.astype(got.dtype).tobytes()

    def test_anchor_is_a_copy_of_the_positions(self):
        """A leader edited in place before the first step moves as if the
        positions were replaced: the plan keeps the anchor of its build."""
        def edited(in_place):
            sim = Simulation(moving5())
            i = sim.idx[1]
            if in_place:
                sim.positions[i] += (0.25, -0.5, 0.0)
            else:
                moved = sim.positions.copy()
                moved[i] += (0.25, -0.5, 0.0)
                sim.positions = moved
            return sim.run().digest()

        assert edited(True) == edited(False)

    def test_epoch_holds_nothing_that_grows_with_the_run(self):
        text = TEAM22.read_text()
        short = Simulation(load_scenario(text.replace("duration: 125.0",
                                                      "duration: 10.0")))
        full = _Epoch(short.epoch.network, load_scenario(text),
                      short.positions, 0)
        assert array_bytes(short.epoch) > 0
        assert array_bytes(full) == array_bytes(short.epoch)


def recorded_epochs(monkeypatch):
    """The list each _Epoch the simulation builds is appended to."""
    epochs, build = [], simulate._build_epoch

    def recorded(*args, **kwargs):
        epochs.append(build(*args, **kwargs))
        return epochs[-1]

    monkeypatch.setattr(simulate, "_build_epoch", recorded)
    return epochs


class TestDerivedSeries:
    """The log stores the state rows; the weights, bounds, desired
    positions, sigma and margin_ok are derived from them on read."""

    @pytest.mark.parametrize("config", [
        lambda: team7(failure_doc(*CEM_DRIFT)),
        lambda: load_scenario(LATTICE27), team22_two_freezes],
        ids=["team7-cem-drift", "lattice27", "team22-two-freezes"])
    def test_row_rules(self, config, monkeypatch):
        """The rules each derived row keeps, against the epochs the run
        built: row 0 carries the detector's weights; a rebuilt epoch's
        first row has none and its local desired positions come from its
        own positions; a CEM episode's first row keeps the detector's
        weights of its positions and logs the entry targets, the healthy
        agents' positions; the other CEM rows have no weights, sigma or
        margin; on the other HDM rows the followers' local desired
        positions are W over the previous row."""
        epochs = recorded_epochs(monkeypatch)
        log = Simulation(config()).run()
        assert len(epochs) == len(log.epochs) >= 2
        det = ("weights", "bounds_lo", "bounds_hi")

        def detector(ep, row):
            computed, _ = ep.detect(log.actual[row:row + 1])
            for name, want in zip(det, computed):
                np.testing.assert_array_equal(
                    getattr(log, name)[row, ep.follower_idx], want[0])

        detector(epochs[0], 0)
        starts = [ep.start_tick for ep in epochs]
        ends = starts[1:] + [len(log.times)]
        cem = MODE_CODE[Mode.CEM]
        entries = 0
        for i, (ep, end) in enumerate(zip(epochs, ends)):
            row = ep.start_tick
            own, local = log.actual[row], log.local_desired[row]
            outside = np.setdiff1d(np.arange(len(own)), ep.order_idx)
            np.testing.assert_array_equal(local[outside], own[outside])
            np.testing.assert_array_equal(local[ep.leader_idx],
                                          log.global_desired[row,
                                                             ep.leader_idx])
            np.testing.assert_array_equal(local[ep.follower_idx],
                                          ep.network.W @ own[ep.order_idx])
            np.testing.assert_allclose(local[ep.order_idx], own[ep.order_idx],
                                       rtol=0.0, atol=1e-9)
            if i:
                for name in det:
                    assert np.isnan(getattr(log, name)[row]).all()
            for row in range(row + 1, end):
                if log.mode[row] != cem:
                    np.testing.assert_array_equal(
                        log.local_desired[row, ep.follower_idx],
                        ep.network.W @ log.actual[row - 1, ep.order_idx])
                elif log.mode[row - 1] != cem:   # the episode's first row
                    entries += 1
                    detector(ep, row)
                    healthy = log.health[row] == HEALTH_OK
                    for desired in (log.local_desired[row],
                                    log.global_desired[row]):
                        np.testing.assert_array_equal(
                            desired[healthy], log.actual[row, healthy])
                        assert np.isnan(desired[~healthy]).all()
                else:
                    for name in (*det, "sigma"):
                        assert np.isnan(getattr(log, name)[row]).all()
                    assert log.margin_ok[row] == MARGIN_NA
        assert entries == len(log.events_of_kind("mode_change")) // 2

    def test_series_read_after_every_step_match_one_read(self):
        """Read after every step, the derived series cover exactly the
        rows written so far, the block's uncommitted ones included, and
        hold their unwritten values past them: a block dropped by an
        injected failure leaves nothing behind, and the run ends with the
        log of a run read only at its end."""
        def digest(read):
            sim = Simulation(team7(failure_doc(*CEM_DRIFT)))
            log = sim.log
            while sim.tick < sim.total_ticks:
                if sim.tick == 30:
                    inject_failure(sim, 6, "freeze", 0.5)
                sim.step()
                if read:
                    ahead = sim._ahead
                    end = (sim.tick if ahead is None else ahead.end) + 1
                    written = np.isfinite(log.local_desired[:end])
                    assert written.any(axis=(1, 2)).all()
                    for name in ("local_desired", "weights", "sigma"):
                        assert np.isnan(getattr(log, name)[end:]).all()
                    assert np.all(log.margin_ok[end:] == MARGIN_NA)
            return log.digest()

        assert digest(True) == digest(False)

    def test_log_arrays_at_construction(self):
        """Building the shipped team22 run allocates only its state rows:
        at most 75 MiB of arrays for 125,001 rows of 22 agents."""
        log = Simulation(load_scenario(TEAM22)).log
        assert array_bytes(log) <= 75 * 2**20


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

        The flagged set is frozen while CEM is active, so agent 14 is
        flagged only once 11 has been excluded and the network rebuilt.
        By then 14 lies outside the containment domain, so it is excluded
        at once, without CEM.  This pins today's behaviour; flagging both
        at once will change it.
        """
        text = TEAM22.read_text().replace("duration: 125.0", "duration: 11.0")
        text = text.replace("dt: 0.001", "dt: 0.002")
        text = text[:text.index("failures:")] + (
            "failures:\n- {agent: 11, time: 1.0, kind: freeze}\n"
            "- {agent: 14, time: 1.0, kind: freeze}\n")
        log = run_scenario(load_scenario(text))
        changes = log.mode_changes()
        assert [(e.payload["to"], e.payload["agents"]) for e in changes] == \
            [("CEM", [11]), ("HDM", [11])]
        resets = log.events_of_kind("reference_reset")
        assert [e.payload["excluded"] for e in resets] == [[11], [14]]
        rebuilt = resets[0].time
        assert changes[1].time == rebuilt
        assert 11 not in log.epochs[1]["followers"] + log.epochs[1]["leaders"]
        # 14 stays unflagged until the rebuild, though frozen since 1 s,
        # and is excluded on the tick it is flagged
        j = log.agent_ids.index(14)
        before = log.times < rebuilt
        assert np.all(log.health[before, j] == HEALTH_OK)
        excluded = log.times >= resets[1].time - 1e-9
        assert np.all(log.health[~before & ~excluded, j] == HEALTH_OK)
        assert np.all(log.health[excluded, j] == HEALTH_EXCLUDED)
        assert log.epochs[2]["start_tick"] == np.flatnonzero(excluded)[0]
        assert 14 not in log.epochs[2]["followers"] + log.epochs[2]["leaders"]

    def test_blind_follower_is_flagged_late(self):
        """A follower whose bounds are all infinite is flagged late
        (README, Known limitations).

        In lattice27, Delta is 0.578 m and every in-neighbor of follower
        14 lies within 2 Delta of the opposite face, so all four of its
        reference bounds are infinite; no other follower has one.  It
        drifts from 0.5 s and is flagged only at 1.93 s, more than 4 m
        on, once two bounds turn finite.  This pins today's behaviour; a
        detector that sees blind followers will change it.
        """
        sim = Simulation(load_scenario(LATTICE27))
        network = sim.epoch.network
        assert network.in_neighbors[14] == (5, 13, 15, 23)
        assert sim.epoch.delta == pytest.approx(0.578, abs=5e-4)
        log = sim.run()
        ids = np.array(log.agent_ids)
        infinite = (np.isinf(log.bounds_lo[0]) & np.isinf(log.bounds_hi[0]))
        follower = np.isin(ids, network.followers)
        assert ids[follower & infinite.any(axis=1)].tolist() == [14]
        assert infinite[log.agent_ids.index(14)].all()
        [active] = log.events_of_kind("failure_active")
        assert (active.time, active.payload["agent"]) == (0.5, 14)
        j = log.agent_ids.index(14)
        flagged = np.flatnonzero(log.health[:, j] == HEALTH_FLAGGED)[0]
        assert log.times[flagged] == pytest.approx(1.93)
        assert log.times[flagged] - active.time == pytest.approx(1.43)
        start = round(active.time / log.dt)
        assert np.linalg.norm(log.actual[flagged, j]
                              - log.actual[start, j]) > 4.0

    # seed 24 of the whole-run fuzz in ROADMAP.md: a jittered 4 x 4 grid
    # whose agent 5 drifts at 2.3 m/s
    FUZZ24 = """
n: 2
dt: 0.002
duration: 6.0
gain: 25.0
containment: {half_size: 20.0, norm: l1, center_policy: tracking}
cem: {exclusion_radius: 1.0, v_phi: 10.0}
agents:
  - {id: 1, position: [-0.284, 0.224]}
  - {id: 2, position: [10.019, 0.193]}
  - {id: 3, position: [20.209, 1.122]}
  - {id: 4, position: [28.759, 0.727]}
  - {id: 5, position: [0.961, 10.636]}
  - {id: 6, position: [9.730, 11.329]}
  - {id: 7, position: [18.593, 10.909]}
  - {id: 8, position: [30.306, 8.623]}
  - {id: 9, position: [-0.503, 19.635]}
  - {id: 10, position: [9.028, 20.428]}
  - {id: 11, position: [19.818, 20.647]}
  - {id: 12, position: [29.614, 18.663]}
  - {id: 13, position: [0.647, 30.699]}
  - {id: 14, position: [8.746, 29.896]}
  - {id: 15, position: [19.866, 31.245]}
  - {id: 16, position: [30.293, 29.422]}
failures:
  - {agent: 5, time: 0.445, kind: drift, velocity: [0.5, 2.24]}
"""

    def test_healthy_agent_passes_inside_the_exclusion_radius(self):
        """A healthy agent can pass a drifting flagged agent closer than
        the exclusion radius (README, Known limitations).

        The doublet stays where agent 5 was at CEM entry, 1.148 s, while
        5 drifts on until it leaves the domain at 4.472 s.  Healthy agent
        9 comes 0.249 m from it at 4.47 s, inside the 1 m radius.  This
        pins today's behaviour; a disk that moves with the failed agent
        will change it.
        """
        log = run_scenario(load_scenario(self.FUZZ24))
        changes = log.mode_changes()
        assert [(e.payload["to"], e.payload["agents"]) for e in changes] \
            == [("CEM", [5]), ("HDM", [5])]
        assert [e.time for e in changes] == pytest.approx([1.148, 4.472])
        cem = log.mode == MODE_CODE[Mode.CEM]
        drifter = log.actual[:, log.agent_ids.index(5)]
        gaps = np.linalg.norm(log.actual - drifter[:, None], axis=2)
        gaps[~((log.health == HEALTH_OK) & cem[:, None])] = np.inf
        tick, j = np.unravel_index(np.argmin(gaps), gaps.shape)
        assert log.agent_ids[j] == 9
        assert log.times[tick] == pytest.approx(4.47)
        assert gaps[tick, j] == pytest.approx(0.249, abs=5e-4)
        assert gaps[tick, j] < 1.0


class TestBuildNetwork:
    """The three outcomes of a network build (simulate._build_epoch), on
    the shipped scenario cut to 0.1 s."""

    TEXT = TEAM22.read_text().replace("duration: 125.0", "duration: 0.1")

    def test_first_build_failure_is_a_scenario_error(self):
        text = self.TEXT.replace("leader_override:\n- 1\n- 2\n- 3\n",
                                 "leader_override:\n- 1\n- 2\n- 11\n")
        with pytest.raises(ScenarioError) as err:
            Simulation(load_scenario(text))
        assert str(err.value) == ("initial network build failed: leader "
                                  "override ids not on boundary: [11]")

    def test_rebuild_falls_back_to_selected_leaders(self, monkeypatch):
        """Leader 1 moved inside the formation: the rebuild logs why the
        override failed and selects leaders as if none were given, from
        the one search it made (one enclosing-simplex search per agent)."""
        sim = Simulation(load_scenario(self.TEXT))
        sim.positions[sim.idx[1]] = sim.positions.mean(axis=0) + (0.5, 0.3,
                                                                  0.0)
        searched, search = [], refnet._enclosing_simplex

        def counted(*args):
            searched.append(args[0])
            return search(*args)

        monkeypatch.setattr(refnet, "_enclosing_simplex", counted)
        sim._exclude_flagged()
        assert sorted(searched) == list(range(22))
        fallbacks = [e for e in sim.events if e.kind == "leader_fallback"]
        assert [e.payload for e in fallbacks] == [
            {"reason": "leader override ids not on boundary: [1]"}]
        network = sim.epoch.network
        assert network.leaders == (2, 3, 8)
        assert network.leaders == refnet.select_leaders(
            network.boundary, dict(zip(sim.ids, sim.positions)), 2)
        sim.run()
        assert sim.tick == sim.total_ticks

    def test_rebuild_failure_is_a_numeric_error(self):
        sim = Simulation(load_scenario(self.TEXT))
        sim.flagged = frozenset(sim.ids) - {1, 2, 3}
        with pytest.raises(NumericError) as err:
            sim._exclude_flagged()
        message = str(err.value)
        assert message.startswith("reference rebuild failed at tick 0, ")
        assert message.endswith(": need at least 4 agents for n=2, got 3")


class TestFlaggedOutsideDomain:
    def test_excluded_at_once_and_blocks_resume(self, monkeypatch):
        """The paper's exit rule in HDM: an agent flagged outside the
        containment domain is excluded at once and the network rebuilt.

        In the shipped scenario cut to 30 s with agents 11 and 14 frozen
        at 5 s, 14 is flagged at 14.101 s, after 11's exclusion, outside
        the domain.  Had it stayed flagged, every later HDM tick would be
        a look-ahead block of one (about 16,000 detector calls); excluded,
        the quiet ticks run in full blocks again.
        """
        calls = []
        detect = anomaly.evaluate_followers_batch

        def counted(*args, **kwargs):
            calls.append(1)
            return detect(*args, **kwargs)

        monkeypatch.setattr(anomaly, "evaluate_followers_batch", counted)
        text = TEAM22.read_text().replace("duration: 125.0", "duration: 30.0")
        text = text[:text.index("failures:")] + (
            "failures:\n- {agent: 11, time: 5.0, kind: freeze}\n"
            "- {agent: 14, time: 5.0, kind: freeze}\n")
        log = run_scenario(load_scenario(text))
        resets = log.events_of_kind("reference_reset")
        assert [e.payload["excluded"] for e in resets] == [[11], [14]]
        assert resets[1].time == pytest.approx(14.101, abs=1e-9)
        assert [e.payload["to"] for e in log.mode_changes()] == ["CEM", "HDM"]
        k = int(round(resets[1].time / log.dt))
        j = log.agent_ids.index(14)
        assert np.all(log.health[:k, j] == HEALTH_OK)
        assert np.all(log.health[k:, j] == HEALTH_EXCLUDED)
        assert [ep["start_tick"] for ep in log.epochs][2] == k
        assert np.all(log.mode[k:] == MODE_CODE[Mode.HDM])
        hdm_ticks = np.count_nonzero(log.mode[1:] == MODE_CODE[Mode.HDM])
        assert len(calls) <= hdm_ticks // Simulation.lookahead_ticks + 10
