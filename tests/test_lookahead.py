"""Look-ahead blocks inside Simulation.step.

Both modes run one tick protocol: a block is built from the live state
(quiet HDM ticks integrated and evaluated together, or one CEM tick), its
rows are written ahead, and step() commits one tick of it through the same
_commit; a supervisor action rewrites the committed row.  The oracle
throughout is the same simulation with lookahead_ticks = 1, which
evaluates every HDM tick on its own and reads the failed agents' rows one
tick at a time: the block length, an injected failure and an edit of the
state between steps, in HDM or in CEM, must not change a single logged
bit against it.  The engine only writes its log: a run whose log arrays
raise on any read writes the same bytes.
"""
import dataclasses
import inspect

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from conftest import REPO_ROOT, TEAM22
from hypothesis import strategies as st

from contiform import anomaly, cem, simulate
from contiform.automaton import Mode
from contiform.errors import NumericError, ScenarioError
from contiform.scenario import load_scenario
from contiform.simulate import (HEALTH_FLAGGED, HEALTH_OK, MODE_CODE,
                                Simulation, inject_failure)

# Seven agents translating east at 1 m/s.  Freezes and drifts of its
# followers are flagged within the run and reach CEM, some of them the
# exclusion and the rebuild; a frozen leader raises leader_deviation.
TEAM7 = """
n: 2
dt: 0.005
duration: 3.0
gain: 25.0
containment: {{half_size: 14.0, center_policy: tracking}}
cem: {{exclusion_radius: 1.0, v_phi: 10.0}}
agents:
  - {{id: 1, position: [0, 0]}}
  - {{id: 2, position: [12, 0]}}
  - {{id: 3, position: [0, 12]}}
  - {{id: 4, position: [3, 3]}}
  - {{id: 5, position: [7, 2]}}
  - {{id: 6, position: [2, 7]}}
  - {{id: 7, position: [5, 5]}}
leader_trajectories:
  1: [{{time: 0, position: [0, 0]}}, {{time: 10, position: [10, 0]}}]
  2: [{{time: 0, position: [12, 0]}}, {{time: 10, position: [22, 0]}}]
  3: [{{time: 0, position: [0, 12]}}, {{time: 10, position: [10, 12]}}]
{extra}
"""
DT, TICKS = 0.005, 600

PROPERTY = settings(max_examples=12)


def team7(extra="", gain=None):
    doc = TEAM7.format(extra=extra)
    if gain is not None:
        doc = doc.replace("gain: 25.0", f"gain: {gain}")
    return load_scenario(doc)


def failure_doc(*failures):
    """The failures block for (agent, time, kind, velocity) specs, given
    flat for one failure or as tuples for several."""
    if not isinstance(failures[0], tuple):
        failures = (failures,)
    lines = ["failures:"]
    for agent, time, kind, velocity in failures:
        spec = f"{{agent: {agent}, time: {time!r}, kind: {kind}"
        if kind == "drift":
            spec += f", velocity: [{velocity[0]!r}, {velocity[1]!r}]"
        lines.append(f"  - {spec}}}")
    return "\n".join(lines) + "\n"


# a drift of follower 4 that is flagged, evaded in CEM from tick 115 to
# tick 353, then excluded
CEM_DRIFT = (4, 0.3, "drift", (-6.0, -1.0))


def run(sim, before=None, at=0):
    """Step sim to the end, calling before(sim) after `at` steps; returns
    the log digest, or the error the run raised."""
    try:
        while sim.tick < sim.total_ticks:
            if before is not None and sim.tick == at:
                before(sim)
            sim.step()
    except Exception as exc:   # both runs must fail alike
        return f"{type(exc).__name__}: {exc}"
    return sim.log.digest()


def sim_with(config, lookahead):
    sim = Simulation(config)
    sim.lookahead_ticks = lookahead
    return sim


# (agent, time, kind, velocity); velocities in cm/s so that the scenario
# text holds them exactly
failures = st.builds(
    lambda agent, tick, kind, vx, vy: (agent, tick * DT + 0.001, kind,
                                       (vx / 100, vy / 100)),
    st.integers(1, 7), st.integers(0, TICKS - 2),
    st.sampled_from(["freeze", "drift"]),
    st.integers(-600, 600), st.integers(-600, 600))


@PROPERTY
@given(lookahead=st.integers(2, 80), failure=failures)
def test_block_length_does_not_change_the_log(lookahead, failure):
    config = team7(failure_doc(*failure))
    assert run(sim_with(config, lookahead)) == run(sim_with(config, 1))


def test_block_length_does_not_change_the_lattice27_log():
    """The same check on lattice27: n = 3 with four weight slots, and an
    exclusion and rebuild, over agent columns that are not runs of
    consecutive indices."""
    config = load_scenario(REPO_ROOT / "scenarios" / "lattice27.yaml")
    sim = Simulation(config)
    assert run(sim) == run(sim_with(config, 1))
    assert len(sim.epochs) == 2 and isinstance(sim.epoch.follower_cols,
                                               np.ndarray)


LONG_BLOCK_RUNS = {
    "team7": lambda: team7(failure_doc(*CEM_DRIFT)),
    "lattice27": lambda: load_scenario(REPO_ROOT / "scenarios"
                                       / "lattice27.yaml"),
}


@pytest.mark.parametrize("lookahead", [257, 300, 1000])
@pytest.mark.parametrize("name", LONG_BLOCK_RUNS)
def test_blocks_past_the_class_length_keep_the_log(name, lookahead):
    """Any positive lookahead_ticks, above the class value too, gives the
    default run's log: nothing an epoch caches depends on the block
    length."""
    make = LONG_BLOCK_RUNS[name]
    assert run(sim_with(make(), lookahead)) == run(Simulation(make()))


def center_rule(log, frozen):
    """Each row's containment center by the rules, from the state rows:
    the mean of the row's healthy agents, but under the frozen policy a
    CEM episode's rows and the row that ends it take its entry row's."""
    cem = log.mode == MODE_CODE[Mode.CEM]
    want = np.empty((len(log.times), 3))
    for r in range(len(log.times)):
        ok = log.health[r] == HEALTH_OK
        want[r] = log.actual[r][ok].sum(axis=0) / np.count_nonzero(ok)
        if cem[r] and (r == 0 or not cem[r - 1]):
            entry = r
        elif frozen and (cem[r] or r and cem[r - 1]):
            want[r] = want[entry]
    return want


def center_run(policy, picked, lookahead=None):
    """TEAM7 under the center policy with the picked failures, stepped to
    the end: (digest, log), or (the error, None) if it raises a
    ScenarioError or NumericError, the load included."""
    text = TEAM7.format(extra=failure_doc(*picked)).replace(
        "center_policy: tracking", f"center_policy: {policy}")
    try:
        config = load_scenario(text)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}", None
    sim = Simulation(config) if lookahead is None else sim_with(config,
                                                                lookahead)
    digest = run(sim)
    if sim.tick < sim.total_ticks:
        assert digest.startswith(("ScenarioError:", "NumericError:"))
        return digest, None
    return digest, sim.log


@settings(max_examples=40, derandomize=True, deadline=None)
@given(policy=st.sampled_from(["frozen", "tracking"]),
       picked=st.lists(failures, min_size=1, max_size=2))
@example(policy="frozen", picked=[CEM_DRIFT])
@example(policy="frozen", picked=[CEM_DRIFT, (6, 2.0, "drift", (-10.0, 6.0))])
@example(policy="frozen", picked=[CEM_DRIFT, (6, 1.0, "freeze", None)])
def test_logged_center_keeps_the_center_rules(policy, picked):
    """Every logged center row is center_rule's, bit for bit, and the run
    is the one-tick-block run's."""
    digest, log = center_run(policy, picked)
    assert center_run(policy, picked, lookahead=1)[0] == digest
    if log is not None:
        np.testing.assert_array_equal(log.center,
                                      center_rule(log, policy == "frozen"))


@PROPERTY
@given(failure=failures, steps=st.integers(0, TICKS - 2))
def test_inject_failure_matches_declared_failure(failure, steps):
    agent, time, kind, velocity = failure
    time = max(time, steps * DT)   # not yet active when injected
    declared = run(Simulation(team7(failure_doc(agent, time, kind,
                                                velocity))))
    injected = run(Simulation(team7()), at=steps, before=lambda sim:
                   inject_failure(sim, agent, kind, time,
                                  velocity if kind == "drift" else None))
    assert injected == declared


@PROPERTY
@given(failure=failures, steps=st.integers(0, TICKS - 2))
@example(failure=(6, 1.001, "freeze", (0.0, 0.0)), steps=200)
@example(failure=(2, 1.2, "drift", (0.5, 0.0)), steps=240)
def test_inject_failure_during_cem_matches_declared(failure, steps):
    """A second failure injected at any step, CEM steps included, gives
    the log of both failures declared: the failure rows a CEM tick reads
    from its chunk are rebuilt when the failures change."""
    agent, time, kind, velocity = failure
    assume(agent != CEM_DRIFT[0])
    time = max(time, steps * DT)   # not yet active when injected
    second = (agent, time, kind, velocity)
    declared = run(Simulation(team7(failure_doc(CEM_DRIFT, second))))
    injected = run(Simulation(team7(failure_doc(*CEM_DRIFT))), at=steps,
                   before=lambda sim: inject_failure(
                       sim, agent, kind, time,
                       velocity if kind == "drift" else None))
    assert injected == declared


@PROPERTY
@given(steps=st.integers(1, TICKS - 2), agent=st.integers(0, 6),
       shift_mm=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       in_place=st.booleans())
def test_position_edit_takes_effect_on_next_step(steps, agent, shift_mm,
                                                 in_place):
    offset = np.array([shift_mm[0] / 1000, shift_mm[1] / 1000, 0.0])

    def edit(sim):
        if in_place:
            sim.positions[agent] += offset
        else:
            moved = sim.positions.copy()
            moved[agent] += offset
            sim.positions = moved

    config = team7()
    edited = sim_with(config, 64)
    assert run(edited, at=steps, before=edit) == \
        run(sim_with(config, 1), at=steps, before=edit)
    if offset.any():
        plain = sim_with(config, 64)
        run(plain)
        assert not np.array_equal(edited.log.actual[steps + 1, agent],
                                  plain.log.actual[steps + 1, agent])


@PROPERTY
@given(steps=st.integers(115, 353), agent=st.integers(0, 6),
       shift_mm=st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
       in_place=st.booleans())
@example(steps=200, agent=3, shift_mm=(20, -30), in_place=True)
@example(steps=353, agent=5, shift_mm=(-40, 10), in_place=False)
def test_position_edit_takes_effect_during_cem(steps, agent, shift_mm,
                                               in_place):
    """The edit property above during CEM_DRIFT's episode (rows 115-353):
    the CEM tick after the edit steps from the edited positions, but
    drifting agent 4's next row is still its failure row, which overrides
    the edit."""
    offset = np.array([shift_mm[0] / 1000, shift_mm[1] / 1000, 0.0])

    def edit(sim):
        assert sim.mode is Mode.CEM
        if in_place:
            sim.positions[agent] += offset
        else:
            moved = sim.positions.copy()
            moved[agent] += offset
            sim.positions = moved

    config = team7(failure_doc(*CEM_DRIFT))
    edited = sim_with(config, 64)
    assert run(edited, at=steps, before=edit) == \
        run(sim_with(config, 1), at=steps, before=edit)
    if offset.any():
        plain = sim_with(config, 64)
        run(plain)
        moved = not np.array_equal(edited.log.actual[steps + 1, agent],
                                   plain.log.actual[steps + 1, agent])
        assert moved is (edited.ids[agent] != CEM_DRIFT[0])


@pytest.mark.parametrize("agent, mode", [(7, Mode.CEM), (2, Mode.HDM)],
                         ids=["inside", "outside"])
def test_flagged_edit_is_supervised_on_next_step(agent, mode):
    """A flagged set edited in HDM is kept and supervised on the next
    tick, whatever the block length: follower 7, inside a 3 m domain, is
    evaded; leader 2, outside it, is excluded at once and the network
    rebuilt, and no row of a block built before the rebuild survives."""
    config = load_scenario(TEAM7.format(extra="").replace(
        "half_size: 14.0", "half_size: 3.0"))
    digests = []
    for lookahead in (1, 64):
        sim = sim_with(config, lookahead)
        for _ in range(3):
            sim.step()
        sim.flagged = frozenset({agent})
        sim._refresh_healthy()
        sim.step()
        assert sim.mode is mode
        assert (sim.excluded == {agent}) is (mode is Mode.HDM)
        digests.append(run(sim))
    assert digests[0] == digests[1]


def test_run_steps_once_per_tick(monkeypatch):
    calls = []
    step = Simulation.step
    monkeypatch.setattr(Simulation, "step",
                        lambda self: calls.append(self.tick) or step(self))
    sim = Simulation(team7(failure_doc(*CEM_DRIFT)))
    sim.run()
    assert calls == list(range(TICKS))


def public_caller():
    """Code of the nearest public contiform function or method on the
    stack above the caller: its module is contiform's and no part of its
    qualified name is private or a comprehension."""
    for info in inspect.stack(0)[2:]:
        code = info.frame.f_code
        module = info.frame.f_globals.get("__name__", "")
        name = getattr(code, "co_qualname", code.co_name)
        if module.split(".")[0] == "contiform" and not any(
                part.startswith(("_", "<")) for part in name.split(".")):
            return code
    return None


def test_each_cem_tick_steps_the_streamlines_once(monkeypatch):
    """Exactly one cem.step_streamline_many call on each CEM tick and none
    on an HDM tick, made from Simulation.step itself or its private
    methods.  `perfbench/run.py --trace 1` depends on this: it wraps every
    public function and method, counts a tick as CEM when a
    Simulation.step span is the direct parent of a step_streamline_many
    span, and fails a run whose count disagrees with the logged modes."""
    calls = []
    step_streamline_many = cem.step_streamline_many

    def counted(*args, **kwargs):
        calls[-1] += 1
        assert public_caller() is Simulation.step.__code__
        return step_streamline_many(*args, **kwargs)

    monkeypatch.setattr(cem, "step_streamline_many", counted)
    sim = Simulation(team7(failure_doc(*CEM_DRIFT)))
    modes = []
    while sim.tick < sim.total_ticks:
        modes.append(sim.mode)
        calls.append(0)
        sim.step()
    assert calls == [int(m is Mode.CEM) for m in modes]
    assert calls.count(1) == np.count_nonzero(sim.log.mode[:-1]) > 0


def test_cem_row_is_final_when_step_returns():
    """After every step that leaves the run in CEM, the entry step
    included, row tick logs the live state: positions, center, mode and
    health, with the healthy agents' targets as their local and global
    desired positions and NaN for everyone else.  Healthy agent 6 freezes
    during CEM, and the tracking center stays the mean of all healthy
    agents' positions, its frozen one included."""
    sim = Simulation(team7(failure_doc(CEM_DRIFT, (6, 1.0, "freeze", None))))
    log, cem_rows = sim.log, 0
    while sim.tick < sim.total_ticks:
        sim.step()
        if sim.mode is not Mode.CEM:
            continue
        cem_rows += 1
        row, idx = sim.tick, sim.healthy_idx
        np.testing.assert_array_equal(log.actual[row], sim.positions)
        np.testing.assert_array_equal(
            log.center[row], sim.positions[idx].sum(axis=0) / len(idx))
        assert log.mode[row] == 1
        np.testing.assert_array_equal(log.health[row], sim.health)
        others = np.setdiff1d(np.arange(sim.n_agents), idx)
        for desired in (log.local_desired[row], log.global_desired[row]):
            np.testing.assert_array_equal(desired[idx], sim.episode.targets)
            assert np.isnan(desired[others]).all()
        assert np.isnan(log.sigma[row]).all() and log.margin_ok[row] == -1
    assert cem_rows == np.count_nonzero(log.mode) > 0
    frozen = log.actual[:, sim.idx[6]]
    assert np.any(log.mode[1:] & np.all(frozen[1:] == frozen[:-1], axis=1))


def step_checking_hdm_rows(sim):
    """Step sim, whose center policy is tracking, to the end.  After every
    step that leaves the run in HDM, the CEM episode is gone and row tick
    holds the live positions, health and mode, and as center the mean of
    the healthy agents, on a step that starts a network epoch those left.
    Returns (tick, mode before the step) for each such step."""
    log, starts = sim.log, []
    while sim.tick < sim.total_ticks:
        mode, epochs = sim.mode, len(sim.epochs)
        sim.step()
        if sim.mode is not Mode.HDM:
            continue
        row, idx = sim.tick, sim.healthy_idx
        assert sim.episode is None
        assert np.array_equal(log.actual[row], sim.positions)
        np.testing.assert_array_equal(
            log.center[row], sim.positions[idx].sum(axis=0) / len(idx))
        assert np.array_equal(log.health[row], sim.health)
        assert log.mode[row] == 0
        if len(sim.epochs) > epochs:
            starts.append((row, mode))
    return starts


def test_hdm_row_is_live_when_step_returns():
    sim = Simulation(team7(failure_doc(*CEM_DRIFT)))
    assert step_checking_hdm_rows(sim) == [(354, Mode.CEM)]


def test_exclusion_in_hdm_logs_the_live_center():
    """TestFlaggedOutsideDomain's run, cut after 14's exclusion in HDM at
    14.101 s: the new epoch's row logs the center, not a row the rebuild
    cleared."""
    text = TEAM22.read_text().replace("duration: 125.0", "duration: 14.2")
    text = text[:text.index("failures:")] + (
        "failures:\n- {agent: 11, time: 5.0, kind: freeze}\n"
        "- {agent: 14, time: 5.0, kind: freeze}\n")
    sim = Simulation(load_scenario(text))
    starts = step_checking_hdm_rows(sim)
    assert [mode for _, mode in starts] == [Mode.CEM, Mode.HDM]
    assert starts[1][0] == 14101 and sim.excluded == {11, 14}


def test_event_times_are_their_rows_times():
    """Every event, the supervisor's and the CEM tick's included, is
    stamped with its log row's time exactly, so it can be looked up."""
    text = TEAM22.read_text().replace("duration: 125.0", "duration: 10.0")
    text = text.replace("dt: 0.001", "dt: 0.002")
    text = text[:text.index("failures:")] + (
        "failures:\n- {agent: 11, time: 1.0, kind: freeze}\n")
    log = Simulation(load_scenario(text)).run()
    assert [e.kind for e in log.events] == [
        "failure_active", "mode_change", "mode_change", "reference_reset"]
    for event in log.events:
        assert event.time == log.times[round(event.time / log.dt)]


def test_each_cem_episode_is_its_own():
    """Two CEM episodes: the second, made at its entry, evades only the
    second failed agent, with a fresh latch."""
    sim = Simulation(team7(failure_doc(CEM_DRIFT, (6, 2.0, "drift",
                                                   (-10.0, 6.0)))))
    episodes = []
    step = Simulation.step

    def recorded(self):
        mode = self.mode
        step(self)
        if mode is Mode.HDM and self.mode is Mode.CEM:
            ep = self.episode
            episodes.append((self.tick, ep, self.positions[self.idx[6], :2],
                             {k: set(v) for k, v in ep.latch.items()}))

    sim.step = recorded.__get__(sim)
    assert step_checking_hdm_rows(sim) == [(354, Mode.CEM), (488, Mode.CEM)]
    assert [e[0] for e in episodes] == [115, 415]
    (_, first, *_), (_, second, at, latch) = episodes
    assert second is not first and second.latch is not first.latch
    assert latch == {"stagnation": set(), "disk_projection": set()}
    assert len(second.flow.doublets) == 1
    doublet = second.flow.doublets[0]
    assert (doublet.a, doublet.b) == tuple(at)
    assert len(second.psi0) == len(second.targets) == 5
    assert sim.excluded == {4, 6}


def test_quiet_run_detects_once_per_block(monkeypatch):
    calls = []
    detect = anomaly.evaluate_followers_batch

    def counted(vertices, *args, **kwargs):
        calls.append(len(vertices))
        return detect(vertices, *args, **kwargs)

    monkeypatch.setattr(anomaly, "evaluate_followers_batch", counted)
    Simulation(team7()).run()
    blocks = -(-TICKS // Simulation.lookahead_ticks)
    assert len(calls) == blocks
    followers = 4
    assert calls[0] == Simulation.lookahead_ticks * followers


def test_hdm_block_after_cem_starts_its_own_chunk(monkeypatch):
    """Each HDM block starts a failure-row chunk: the block after a CEM
    episode runs to the end of the run, not to the end of the chunk that
    the CEM ticks began."""
    blocks, look_ahead = [], Simulation._look_ahead

    def recorded(self):
        start = self.tick
        look_ahead(self)
        blocks.append((start, self._ahead.end - start))

    monkeypatch.setattr(Simulation, "_look_ahead", recorded)
    Simulation(team7(failure_doc(*CEM_DRIFT))).run()
    assert blocks == [(0, 60), (60, 55), (354, 246)]


@pytest.mark.parametrize("extra", ["", failure_doc(*CEM_DRIFT)],
                         ids=["quiet", "cem-drift"])
def test_plan_is_evaluated_once_per_block(monkeypatch, extra):
    """Each HDM block evaluates the leaders' commands once, and the run
    evaluates nothing more of the plan: an epoch's first row needs none,
    and the log derives sigma and the desired rows when read."""
    calls = []
    for owner, name in ((simulate._Epoch, "plan"),
                        (simulate._Epoch, "_commands"),
                        (Simulation, "_look_ahead")):
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    Simulation(team7(extra)).run()
    blocks = calls.count("_look_ahead")
    assert calls.count("_commands") == blocks and "plan" not in calls
    if not extra:
        assert blocks == -(-TICKS // Simulation.lookahead_ticks)


def test_block_stops_at_the_first_flagged_tick():
    sim = Simulation(team7(failure_doc(7, 0.3, "freeze", None)))
    while not sim.flagged:
        sim.step()
    flagged_at = sim.tick
    # the flagged tick was the last buffered one, and its row is the
    # first to log the flag
    assert sim.tick == sim._ahead.end
    col = sim.idx[7]
    assert np.all(sim.log.health[:flagged_at, col] == HEALTH_OK)
    assert sim.log.health[flagged_at, col] == HEALTH_FLAGGED


def test_dropped_block_clears_its_uncommitted_rows():
    sim = Simulation(team7())
    sim.step()
    ahead = Simulation.lookahead_ticks
    assert np.all(np.isfinite(sim.log.weights[2:ahead + 1, sim.idx[7]]))
    inject_failure(sim, 7, "freeze", time=20 * DT)
    sim.step()
    # the new block ends before the activation tick 20: rows 2..20 are
    # rewritten, the rest of the dropped block's rows are unwritten again
    assert np.all(sim.log.actual[21:ahead + 1] == 0.0)
    assert np.all(np.isnan(sim.log.weights[21:ahead + 1]))
    assert np.all(np.isfinite(sim.log.weights[2:21, sim.idx[7]]))
    sim.step()
    assert sim.tick == 3


def test_numeric_blowup_raises_at_the_same_tick():
    config = team7(gain=1e6)
    messages = []
    for lookahead in (1, 64):
        sim = sim_with(config, lookahead)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError) as info:
                sim.run()
        messages.append((sim.tick, str(info.value)))
    assert messages[0] == messages[1]
    assert f"tick {messages[0][0]}" in messages[0][1]


class WriteOnly:
    """A log array the simulation may assign to but never read."""

    def __init__(self, array):
        self.array = array

    def __setitem__(self, key, value):
        self.array[key] = value

    def __getitem__(self, key):
        raise AssertionError(f"the simulation read its log at {key!r}")


def team22_freeze():
    """The shipped scenario cut to 12 s with follower 11 frozen at 1 s."""
    text = TEAM22.read_text().replace("duration: 125.0", "duration: 12.0")
    text = text[:text.index("failures:")]
    return load_scenario(
        text + "failures:\n- {agent: 11, time: 1.0, kind: freeze}\n")


# (scenario, follower frozen 20 CEM ticks into the first episode): in TEAM7
# it starts a second episode, in team22 a second exclusion
WRITE_ONLY_RUNS = {
    "team7": (lambda: team7(failure_doc(*CEM_DRIFT)), 6),
    "lattice27": (lambda: load_scenario(REPO_ROOT / "scenarios"
                                        / "lattice27.yaml"), 13),
    "team22": (team22_freeze, 14),
}


def digest_of(config, write_only, second=None):
    """Digest of the run of config: by run(), or with second by a step()
    loop that freezes that agent 20 CEM ticks in.  With write_only the
    simulation's log arrays are write-only; the digest is of the arrays
    they write through to."""
    sim = Simulation(config)
    log = sim.log
    if write_only:
        sim.log = dataclasses.replace(log, **{
            f.name: WriteOnly(getattr(log, f.name))
            for f in dataclasses.fields(log)
            if isinstance(getattr(log, f.name), np.ndarray)})
    if second is None:
        sim.run()
        return log.digest()
    cem_ticks = 0
    while sim.tick < sim.total_ticks:
        sim.step()
        cem_ticks += sim.mode is Mode.CEM
        if cem_ticks == 20 and second not in sim.failures:
            inject_failure(sim, second, "freeze", sim.clock)
    assert second in sim.failures
    return log.digest()


@pytest.mark.parametrize("injected", [False, True], ids=["run", "step"])
@pytest.mark.parametrize("name", WRITE_ONLY_RUNS)
def test_simulation_never_reads_its_log(name, injected):
    """The look-ahead block and the live state hold everything the engine
    needs: with log arrays that raise on any read the run writes the same
    bytes, through run() and through a step() loop with a failure
    injected during CEM."""
    make, second = WRITE_ONLY_RUNS[name]
    second = second if injected else None
    assert digest_of(make(), True, second) == digest_of(make(), False, second)
