"""Scenario-file loading and validation tests."""
import dataclasses
import math
import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from contiform import cli, scenario
from contiform.errors import ScenarioError
from contiform.scenario import load_scenario
from conftest import REPO_ROOT, TEAM22

MINIMAL = """
n: 2
dt: 0.001
duration: 1.0
agents:
  - {id: 1, position: [0, 0]}
  - {id: 2, position: [4, 0]}
  - {id: 3, position: [0, 4]}
  - {id: 4, position: [1, 1]}
"""


class TestShippedScenario:
    def test_team22_loads(self):
        config = load_scenario(str(TEAM22))
        assert len(config.agent_ids) == 22
        assert config.gain == 25.0
        assert config.n == 2
        assert config.containment_half_size == 40.0
        assert config.containment_norm == "l1"
        assert config.leader_override == (1, 2, 3)
        failures = config.failures
        assert len(failures) == 1
        assert failures[0].agent_id == 11
        assert failures[0].time == 100.0
        assert failures[0].kind == "freeze"

    def test_team22_leader_trajectories_cover_duration(self):
        config = load_scenario(str(TEAM22))
        for lid in config.leader_override:
            traj = config.trajectories[lid]
            assert traj.times[0] == 0.0
            assert traj.times[-1] >= config.duration


class TestDefaults:
    def test_minimal_document(self):
        config = load_scenario(MINIMAL)
        assert config.gain == 25.0
        assert config.rho == 0.1
        np.testing.assert_allclose(config.tolerances, 0.1)
        assert config.vehicle_radius == 0.5
        assert config.containment_half_size == 40.0
        assert config.center_policy == "frozen"
        assert config.cem_u_inf == 10.0
        assert config.cem_radius == 4.0
        assert config.dt == 0.001

    def test_every_default_spelled_out(self):
        """Each optional field given at its documented default loads as
        the document that omits them all."""
        doc = MINIMAL + """
name: scenario
gain: 25
rho: 0.1
xi: 1
tolerances: {dx: 0.1, dy: 0.1, dz: 0.1}
vehicle_radius: 0.5
d_min: null
containment: {half_size: 40, norm: l1, center_policy: frozen}
cem: {u_inf: 10, theta_inf: 0, exclusion_radius: 4, v_phi: 10}
leader_override: null
leader_trajectories: {}
failures: []
"""
        assert same(load_scenario(doc), load_scenario(MINIMAL))

    def test_two_component_positions_get_z0(self):
        config = load_scenario(MINIMAL)
        np.testing.assert_allclose(config.ref_positions[:, 2], 0.0)


class TestValidation:
    def test_missing_dt(self):
        doc = MINIMAL.replace("dt: 0.001\n", "")
        with pytest.raises(ScenarioError, match="dt: required"):
            load_scenario(doc)

    def test_duplicate_agent_id(self):
        doc = MINIMAL.replace("{id: 4, position: [1, 1]}",
                              "{id: 3, position: [1, 1]}")
        with pytest.raises(ScenarioError, match="duplicate id 3"):
            load_scenario(doc)

    def test_unknown_field(self):
        with pytest.raises(ScenarioError, match="unknown field"):
            load_scenario(MINIMAL + "\nwind_speed: 3\n")

    def test_bad_n(self):
        with pytest.raises(ScenarioError, match="n"):
            load_scenario(MINIMAL.replace("n: 2", "n: 4"))

    def test_negative_dt(self):
        with pytest.raises(ScenarioError, match="dt"):
            load_scenario(MINIMAL.replace("dt: 0.001", "dt: -0.5"))

    def test_zero_duration_allowed(self):
        config = load_scenario(MINIMAL.replace("duration: 1.0",
                                               "duration: 0.0"))
        assert config.duration == 0.0

    def test_nonmonotone_waypoints(self):
        doc = MINIMAL + """
leader_trajectories:
  1:
    - {time: 0.0, position: [0, 0]}
    - {time: 5.0, position: [1, 0]}
    - {time: 5.0, position: [2, 0]}
"""
        with pytest.raises(ScenarioError, match="strictly increase"):
            load_scenario(doc)

    def test_unknown_trajectory_agent(self):
        doc = MINIMAL + """
leader_trajectories:
  77:
    - {time: 0.0, position: [0, 0]}
"""
        with pytest.raises(ScenarioError, match="unknown id 77"):
            load_scenario(doc)

    @pytest.mark.parametrize("key", ["1.5", "true", "'x'", "null"])
    def test_trajectory_key_not_an_id(self, key):
        doc = MINIMAL + f"""
leader_trajectories:
  {key}:
    - {{time: 0.0, position: [0, 0]}}
"""
        with pytest.raises(ScenarioError) as err:
            load_scenario(doc)
        assert str(err.value).startswith("leader_trajectories.")
        assert str(err.value).endswith(": keys must be agent ids")

    def test_trajectory_key_digit_string(self):
        doc = MINIMAL + """
leader_trajectories:
  "1":
    - {time: 0.0, position: [0, 0]}
"""
        assert list(load_scenario(doc).trajectories) == [1]

    def test_bad_failure_kind(self):
        doc = MINIMAL + """
failures:
  - {agent: 4, time: 0.5, kind: teleport}
"""
        with pytest.raises(ScenarioError, match="kind"):
            load_scenario(doc)

    def test_drift_requires_velocity(self):
        doc = MINIMAL + """
failures:
  - {agent: 4, time: 0.5, kind: drift}
"""
        with pytest.raises(ScenarioError, match="velocity"):
            load_scenario(doc)

    def test_duplicate_failure_agent(self):
        doc = MINIMAL + """
failures:
  - {agent: 4, time: 0.5, kind: freeze}
  - {agent: 4, time: 0.7, kind: freeze}
"""
        with pytest.raises(ScenarioError, match="already has a failure"):
            load_scenario(doc)

    def test_leader_override_wrong_count(self):
        doc = MINIMAL + "\nleader_override: [1, 2]\n"
        with pytest.raises(ScenarioError, match="leader_override"):
            load_scenario(doc)

    def test_not_a_mapping(self):
        with pytest.raises(ScenarioError, match="mapping"):
            load_scenario("- just\n- a list\n")

    def test_json_document_accepted(self):
        doc = """
{"n": 2, "dt": 0.01, "duration": 0.5,
 "agents": [{"id": 1, "position": [0, 0]},
            {"id": 2, "position": [4, 0]},
            {"id": 3, "position": [0, 4]},
            {"id": 4, "position": [1, 1]}]}
"""
        config = load_scenario(doc)
        assert config.agent_ids == (1, 2, 3, 4)


# (field path, strategy of values the loader must reject) for n = 2
NOT_A_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, "x", True,
                                [1.0]])
BAD_FIELDS = (
    [(path, st.one_of(st.floats(max_value=0.0), NOT_A_NUMBER))
     for path in ("dt", "gain", "vehicle_radius", "d_min",
                  "containment.half_size", "cem.u_inf",
                  "cem.exclusion_radius", "cem.v_phi")]
    + [(path, st.one_of(st.floats(max_value=-1e-9), NOT_A_NUMBER))
       for path in ("duration", "tolerances.dx", "tolerances.dz")]
    + [("rho", st.one_of(st.floats(max_value=0.0), NOT_A_NUMBER)),
       ("rho", st.floats(min_value=1.0 / 3.0, allow_infinity=False)),
       ("xi", st.one_of(st.just(0.0), NOT_A_NUMBER)),
       ("cem.theta_inf", NOT_A_NUMBER),
       ("containment.norm", st.text(max_size=4).filter(
           lambda v: v not in ("l1", "l2"))),
       ("containment.center_policy", st.one_of(st.text(max_size=4),
                                               st.integers())),
       ("n", st.one_of(st.integers().filter(lambda v: v not in (2, 3)),
                       st.sampled_from([2.0, 3.0]))),
       ("agents[0].id", st.one_of(st.floats(), st.text(max_size=3))),
       ("cem.speed", st.floats()),
       ("tolerances.dw", st.floats()),
       ("containment", st.one_of(st.integers(), st.text(max_size=3),
                                 st.lists(st.integers(), max_size=2))),
       ("agents[0].position", st.one_of(
           st.lists(st.floats(-5.0, 5.0), max_size=1),
           st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=5),
           st.lists(NOT_A_NUMBER, min_size=2, max_size=3)))]
)


def with_value(path, value):
    """The MINIMAL document with the field at path set to value."""
    doc = yaml.safe_load(MINIMAL)
    *outer, last = re.findall(r"\w+|\[\d+\]", path)
    node = doc
    for key in outer:
        node = node[int(key[1:-1])] if key.startswith("[") \
            else node.setdefault(key, {})
    node[last] = value
    return yaml.safe_dump(doc)


class TestProperties:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(st.sampled_from(BAD_FIELDS).flatmap(
        lambda case: st.tuples(st.just(case[0]), case[1])))
    def test_bad_field_raises_naming_its_path(self, case):
        path, value = case
        with pytest.raises(ScenarioError) as err:
            load_scenario(with_value(path, value))
        message = str(err.value)
        assert message.startswith(path)
        assert message[len(path)] in ":["


def same(a, b):
    """Deep equality over configs: dataclasses, arrays, containers."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype
                and np.array_equal(a, b, equal_nan=True))
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(same(a[k], b[k]) for k in a))
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(same, a, b)))
    return type(a) is type(b) and (a == b or (a != a and b != b))


def scenario_documents():
    """Every shipped scenario and the scenario documents the tests load."""
    from test_automaton import FIVE
    from test_hdm import LOCAL4
    from test_logio_cli import TINY
    from test_lookahead import CEM_DRIFT, TEAM7, failure_doc
    from test_simulate import STATIC4
    docs = {path.name: path.read_text()
            for path in sorted((REPO_ROOT / "scenarios").glob("*.yaml"))}
    docs.update(minimal=MINIMAL, five=FIVE, tiny=TINY,
                local4=LOCAL4.format(x=1.25, y=0.5),
                team7=TEAM7.format(extra=failure_doc(*CEM_DRIFT)),
                static4=STATIC4.format(duration=0.1, extra=""),
                bad_rho=with_value("rho", 0.5),
                bad_position=with_value("agents[0].position", [math.nan, 1]))
    return docs


LIBYAML = getattr(yaml, "CSafeLoader", None)
BAD_YAML = ["agents: [1, 2\n", "n: 2\ndt: : 1\n", "{\n", "\t- x\n"]


class TestYamlLoaders:
    def test_libyaml_parses_when_available(self):
        assert scenario._YAML_LOADER is (LIBYAML or yaml.SafeLoader)

    @pytest.mark.skipif(LIBYAML is None, reason="PyYAML built without libyaml")
    @pytest.mark.parametrize("name", sorted(scenario_documents()))
    def test_both_loaders_agree(self, name, monkeypatch):
        """Equal configs, or the same scenario error, under both."""
        text = scenario_documents()[name]
        outcomes = []
        for loader in (yaml.SafeLoader, LIBYAML):
            monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
            try:
                outcomes.append(load_scenario(text))
            except ScenarioError as exc:
                outcomes.append(str(exc))
        assert same(*outcomes)

    @pytest.mark.parametrize("loader", [yaml.SafeLoader, LIBYAML],
                             ids=["SafeLoader", "CSafeLoader"])
    @pytest.mark.parametrize("text", BAD_YAML)
    def test_invalid_yaml_is_a_scenario_error(self, loader, text,
                                              monkeypatch, tmp_path, capsys):
        if loader is None:
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(scenario, "_YAML_LOADER", loader)
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load_scenario(text)
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        assert cli.main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("scenario error:")
