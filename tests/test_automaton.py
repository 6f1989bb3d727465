"""Supervisory automaton tests. transition is a pure function of plain
values, so every case is a direct input/output check; the containment
center it reads is the simulator's."""
import numpy as np
import pytest
import yaml
from conftest import TEAM22
from hypothesis import given, settings
from hypothesis import strategies as st

from contiform.automaton import Event, Mode, transition
from contiform.errors import ScenarioError
from contiform.scenario import load_scenario
from contiform.simulate import Simulation

ORIGIN = np.zeros(3)


def step(mode, positions, ids=None, half_size=40.0, norm="l1", clock=1.0,
         center=ORIGIN):
    positions = np.asarray(positions, dtype=float).reshape(-1, 3)
    ids = list(range(11, 11 + len(positions))) if ids is None else ids
    return transition(mode, ids, positions, center, half_size, norm, clock)


def enters(position, norm="l1", half_size=40.0):
    """Whether one flagged agent at position switches HDM to CEM."""
    return step(Mode.HDM, position, norm=norm, half_size=half_size)[0] \
        is Mode.CEM


FIVE = """
n: 2
dt: 0.001
duration: 0.01
agents:
  - {id: 1, position: [0, 0]}
  - {id: 2, position: [8, 0]}
  - {id: 3, position: [0, 8]}
  - {id: 4, position: [2, 2]}
  - {id: 5, position: [3, 1]}
"""


class TestNominalContainmentPosition:
    """The containment center the supervisor reads is the healthy mean."""

    def test_mean_of_two(self):
        sim = Simulation(load_scenario(FIVE))
        sim.flagged = frozenset({1, 4, 5})
        sim._refresh_healthy()
        np.testing.assert_allclose(sim._containment_center(), [4.0, 4.0, 0.0])

    def test_mean_of_many(self):
        doc = yaml.safe_load(TEAM22.read_text())
        doc.update(duration=0.05, failures=[])
        log = Simulation(load_scenario(yaml.safe_dump(doc))).run()
        np.testing.assert_allclose(log.center, log.actual.mean(axis=1),
                                   atol=1e-12)


class TestContainmentContains:
    def test_boundary_inclusive(self):
        assert enters((40.0, 0.0, 0.0))
        assert enters((25.0, 15.0, 0.0))
        assert enters((0.0, 0.0, 40.0), norm="l2")

    def test_just_outside(self):
        assert not enters((40.1, 0.0, 0.0))

    def test_l1_norm_diagonal(self):
        assert enters((20.0, 20.0, 0.0), "l1")
        assert not enters((25.0, 20.0, 0.0), "l1")

    def test_l2_norm(self):
        # l2 distance 35.4 is inside, l1 distance 50 is outside
        assert enters((25.0, 25.0, 0.0), "l2")
        assert not enters((25.0, 25.0, 0.0), "l1")

    def test_bad_norm(self):
        doc = FIVE + "containment: {norm: linf}\n"
        with pytest.raises(ScenarioError, match="^containment.norm"):
            load_scenario(doc)


class TestTransition:
    def test_hdm_to_cem_on_inside_anomaly(self):
        mode, events = step(Mode.HDM, (5.0, 5.0, 0.0), ids=[11],
                            clock=100.69)
        assert mode is Mode.CEM
        assert len(events) == 1
        assert events[0] == Event(time=100.69, kind="mode_change",
                                  payload={"from": "HDM", "to": "CEM",
                                           "agents": [11]})

    def test_hdm_holds_when_anomaly_outside(self):
        """An agent flagged outside the domain needs no evasion: HDM holds
        and the agent is excluded at once, as on CEM exit."""
        assert step(Mode.HDM, (50.0, 0.0, 0.0), ids=[11], clock=5.0) == (
            Mode.HDM, [Event(time=5.0, kind="reference_reset",
                             payload={"excluded": [11]})])

    def test_cem_to_hdm_on_exit(self):
        mode, events = step(Mode.CEM, (41.0, 0.0, 0.0), ids=[11],
                            clock=106.76)
        assert mode is Mode.HDM
        kinds = [e.kind for e in events]
        assert kinds == ["mode_change", "reference_reset"]
        assert events[0].payload == {"from": "CEM", "to": "HDM",
                                     "agents": [11]}
        assert events[1].payload == {"excluded": [11]}
        assert all(e.time == 106.76 for e in events)

    def test_cem_holds_while_inside(self):
        assert step(Mode.CEM, (39.9, 0.0, 0.0), clock=3.0) == (Mode.CEM, [])

    def test_all_healthy_noop(self):
        assert step(Mode.HDM, np.empty((0, 3)), ids=[]) == (Mode.HDM, [])

    def test_pure_replay(self):
        positions = np.array([[1.0, 2.0, 0.0], [80.0, 0.0, 0.0]])
        center = np.array([0.5, 0.5, 0.0])
        kept = positions.copy(), center.copy()
        first = step(Mode.HDM, positions, ids=[7, 9], center=center,
                     clock=2.5)
        second = step(Mode.HDM, positions, ids=[7, 9], center=center,
                      clock=2.5)
        assert first == second
        assert first[1][0].payload["agents"] == [7]
        # the inputs are never mutated
        np.testing.assert_array_equal(positions, kept[0])
        np.testing.assert_array_equal(center, kept[1])

    def test_rigid_domain_size(self):
        # membership depends only on the distance to the center, not on
        # the clock or on how long the current mode has lasted
        for clock in (0.0, 1.0, 1e6):
            assert step(Mode.HDM, (30.0, 10.0, 0.0), clock=clock)[0] \
                is Mode.CEM
            assert step(Mode.CEM, (30.0, 10.1, 0.0), clock=clock)[0] \
                is Mode.HDM

    def test_event_is_frozen(self):
        e = Event(time=1.0, kind="mode_change", payload={})
        with pytest.raises(AttributeError):
            e.kind = "other"


PROPERTY = settings(max_examples=80)
coords = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords)


class TestProperties:
    @PROPERTY
    @given(st.lists(points, max_size=4), points,
           st.floats(1.0, 50.0), st.sampled_from(["l1", "l2"]),
           st.sampled_from([Mode.HDM, Mode.CEM]))
    def test_switch_iff_some_flagged_agent_inside(self, flagged, center,
                                                  half_size, norm, mode):
        positions = np.array(flagged, dtype=float).reshape(-1, 3)
        center = np.array(center)
        ids = list(range(1, len(flagged) + 1))
        args = (mode, ids, positions, center, half_size, norm, 4.2)
        next_mode, events = transition(*args)
        order = 1 if norm == "l1" else 2
        inside = [a for a, p in zip(ids, positions)
                  if np.linalg.norm(p - center, ord=order) <= half_size]
        if mode is Mode.HDM:
            assert (next_mode is Mode.CEM) == bool(inside)
            if inside:
                assert events[0].payload["agents"] == inside
        else:
            assert (next_mode is Mode.HDM) == (not inside)
        # with nobody flagged inside, CEM and a flagged HDM exclude them
        excludes = not inside and (mode is Mode.CEM or bool(ids))
        resets = [e.payload["excluded"] for e in events
                  if e.kind == "reference_reset"]
        assert resets == ([ids] if excludes else [])
        assert (events == []) == (next_mode is mode and not excludes)
        assert all(e.time == 4.2 for e in events)
        assert transition(*args) == (next_mode, events)   # replay is pure

    @settings(max_examples=300)
    @given(st.lists(st.tuples(*[st.floats(-1e4, 1e4)] * 3), min_size=1,
                    max_size=3), points, st.sampled_from(["l1", "l2"]),
           st.integers(0, 2), st.integers(-1, 1))
    def test_domain_edge_is_numpys_norm(self, flagged, center, norm, pick,
                                        ulps):
        """The containment test decides a distance that lies on the domain
        edge, or one ulp either side of it, as numpy's row norms of the
        (k, 3) offsets do, to the last bit."""
        positions, center = np.array(flagged), np.array(center)
        diff = positions - center
        dist = np.abs(diff).sum(axis=1) if norm == "l1" \
            else np.sqrt((diff * diff).sum(axis=1))
        half_size = dist[pick % len(dist)]
        for _ in range(abs(ulps)):
            half_size = np.nextafter(half_size, ulps * np.inf)
        mode, _ = transition(Mode.HDM, list(range(len(dist))), positions,
                             center, float(half_size), norm, 0.0)
        assert (mode is Mode.CEM) == bool((dist <= half_size).any())
