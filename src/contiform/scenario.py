"""Scenario ingestion: YAML/JSON schema, validation, defaults.

A scenario document is a mapping with the following keys (lengths in
meters, times in seconds, angles in radians):

    name: optional run label
    n: 2 or 3                      spatial dimension of the formation
    dt: required step size
    duration: required run length
    gain: tracking gain g
    rho: interior margin in (0, 1/(n+1)) (default 0.1 for n=2,
         0.05 for n=3)
    xi: virtual-vertex scale
    tolerances: {dx, dy, dz}       per-axis tracking bounds
    vehicle_radius: collision radius epsilon
    d_min: optional reference minimum-separation override
    containment: {half_size, norm l1|l2, center_policy frozen|tracking}
    cem: {u_inf, theta_inf, exclusion_radius, v_phi}
    agents: list of {id, position [x, y] or [x, y, z]}
    leader_override: optional list of n+1 agent ids
    leader_trajectories: mapping id -> list of {time, position}
    failures: list of {agent, time, kind freeze|drift, velocity for drift}

OPTIONAL holds each optional field's default and check.  Leader
waypoints are linearly interpolated and clamped beyond the ends.
The simulator anchors each trajectory at the leader's position when a
reference network is (re)built, so waypoint lists act as displacement
profiles; writing absolute positions that start at the agent's reference
position keeps the two views identical for the initial build.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
import yaml

from .cem import DEFAULT_EXCLUSION_RADIUS
from .errors import ScenarioError
from .geometry import DEFAULT_XI
from .refnet import DEFAULT_RHO

FAILURE_KINDS = ("freeze", "drift")

# libyaml's parser when PyYAML was built with it: the same documents, parsed
# five to eight times faster than by the pure-Python SafeLoader
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# section ("" for the document) -> field -> (default, check); a check is
# a _number keyword ("" for any finite number) or the allowed strings
OPTIONAL = {
    "": {"gain": (25.0, "positive"), "xi": (DEFAULT_XI, ""),
         "vehicle_radius": (0.5, "positive")},
    "tolerances": {k: (0.1, "nonnegative") for k in ("dx", "dy", "dz")},
    "containment": {"half_size": (40.0, "positive"),
                    "norm": ("l1", ("l1", "l2")),
                    "center_policy": ("frozen", ("frozen", "tracking"))},
    "cem": {"u_inf": (10.0, "positive"), "theta_inf": (0.0, ""),
            "exclusion_radius": (DEFAULT_EXCLUSION_RADIUS, "positive"),
            "v_phi": (10.0, "positive")},
}
# the document's fields outside OPTIONAL[""]
_DOCUMENT = ("name", "n", "dt", "duration", "rho", "tolerances", "d_min",
             "containment", "cem", "agents", "leader_override",
             "leader_trajectories", "failures")


@dataclass(frozen=True)
class LeaderTrajectory:
    """Piecewise-linear waypoint trajectory for one leader."""

    agent_id: int
    times: np.ndarray
    positions: np.ndarray

    def position(self, t):
        """Clamped linear interpolation; t may be a scalar or an array."""
        t = np.asarray(t, dtype=np.float64)
        out = np.stack(
            [np.interp(t, self.times, self.positions[:, k]) for k in range(3)],
            axis=-1,
        )
        return out


@dataclass(frozen=True)
class FailureSpec:
    agent_id: int
    time: float
    kind: str
    velocity: np.ndarray | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    n: int
    dt: float
    duration: float
    gain: float
    rho: float
    xi: float
    tolerances: np.ndarray
    vehicle_radius: float
    d_min_override: float | None
    containment_half_size: float
    containment_norm: str
    center_policy: str
    cem_u_inf: float
    cem_theta_inf: float
    cem_radius: float
    cem_v_phi: float
    agent_ids: tuple
    ref_positions: np.ndarray
    leader_override: tuple | None
    trajectories: dict
    failures: tuple


def _require(mapping, key, path):
    if key not in mapping or mapping[key] is None:
        raise ScenarioError(f"{path}{key}: required")
    return mapping[key]


def _number(value, path, positive=False, nonnegative=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ScenarioError(f"{path}: must be finite")
    if positive and not value > 0.0:
        raise ScenarioError(f"{path}: must be positive, got {value}")
    if nonnegative and value < 0.0:
        raise ScenarioError(f"{path}: must be nonnegative, got {value}")
    return value


def _position(value, path):
    if not isinstance(value, (list, tuple)) or len(value) not in (2, 3):
        raise ScenarioError(f"{path}: expected [x, y] or [x, y, z], got {value!r}")
    coords = [_number(v, f"{path}[{k}]") for k, v in enumerate(value)]
    if len(coords) == 2:
        coords.append(0.0)
    return np.array(coords)


def _agent_id(value, path, known=None):
    """value as an agent id, one of known unless known is None."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: agent ids must be integers, got {value!r}")
    if known is not None and value not in known:
        raise ScenarioError(f"{path}: unknown id {value}")
    return value


def _mapping(value, path):
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _fields(value, path, known):
    """value as a mapping whose keys all lie in known; path "" is the
    document's."""
    for key in _mapping(value, path):
        if key not in known:
            raise ScenarioError(
                f"{path}.{key}".removeprefix(".") + ": unknown field")
    return value


def _section(value, path, others=()):
    """The values of OPTIONAL[path]'s fields in value, in the table's
    order, defaults filled in; value's other keys must lie in others."""
    table = OPTIONAL[path]
    _fields(value, path, (*table, *others))
    values = []
    for key, (default, check) in table.items():
        field = f"{path}.{key}".removeprefix(".")
        item = value.get(key, default)
        if isinstance(check, tuple):
            if item not in check:
                raise ScenarioError(f"{field}: must be {' or '.join(check)}, "
                                    f"got {item!r}")
        else:
            item = _number(item, field, **({check: True} if check else {}))
        values.append(item)
    return values


def _failure_spec(item, path, agent_ids, taken):
    """The FailureSpec of one failures entry, a mapping; path names it in
    errors, and taken holds the agents that already have a failure."""
    item = _fields(item, path, ("agent", "time", "kind", "velocity"))
    agent_id = _agent_id(_require(item, "agent", f"{path}."), f"{path}.agent",
                         agent_ids)
    if agent_id in taken:
        raise ScenarioError(
            f"{path}.agent: agent {agent_id} already has a failure")
    time = _number(_require(item, "time", f"{path}."), f"{path}.time",
                   nonnegative=True)
    kind = _require(item, "kind", f"{path}.")
    if kind not in FAILURE_KINDS:
        raise ScenarioError(
            f"{path}.kind: must be one of {FAILURE_KINDS}, got {kind!r}")
    velocity = None
    if kind == "drift":
        velocity = _position(_require(item, "velocity", f"{path}."),
                             f"{path}.velocity")
    elif item.get("velocity") is not None:
        raise ScenarioError(f"{path}.velocity: only valid for drift")
    return FailureSpec(agent_id=agent_id, time=time, kind=kind,
                       velocity=velocity)


def load_scenario(source):
    """Parse and validate a scenario from a file path or document text.

    source may be a filesystem path or the YAML/JSON text itself (anything
    containing a newline, or not naming an existing file, is treated as
    text).  Raises ScenarioError naming the offending field on any schema
    violation.
    """
    if isinstance(source, os.PathLike) or (
            isinstance(source, str) and "\n" not in source
            and os.path.exists(source)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source
    try:
        doc = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario document is not valid YAML/JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")

    gain, xi, vehicle_radius = _section(doc, "", _DOCUMENT)
    name = str(doc.get("name", "scenario"))
    n = _require(doc, "n", "")
    if type(n) is not int or n not in (2, 3):
        raise ScenarioError(f"n: must be 2 or 3, got {n!r}")
    dt = _number(_require(doc, "dt", ""), "dt", positive=True)
    # duration 0 is allowed: such a run logs only the initial state
    duration = _number(_require(doc, "duration", ""), "duration",
                       nonnegative=True)
    rho = _number(doc.get("rho", DEFAULT_RHO[n]), "rho", positive=True)
    if not rho < 1.0 / (n + 1):
        raise ScenarioError(f"rho: must lie in (0, 1/{n + 1}) for n={n}, "
                            f"got {rho}")
    if xi == 0.0:
        raise ScenarioError("xi: must be nonzero")
    tolerances = np.array(_section(doc.get("tolerances", {}), "tolerances"))
    d_min_override = None
    if doc.get("d_min") is not None:
        d_min_override = _number(doc["d_min"], "d_min", positive=True)
    half_size, norm, center_policy = _section(doc.get("containment", {}),
                                              "containment")
    u_inf, theta_inf, radius, v_phi = _section(doc.get("cem", {}), "cem")

    agents_doc = _require(doc, "agents", "")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents: expected a nonempty list")
    ids = []
    positions = []
    for k, item in enumerate(agents_doc):
        item = _fields(item, f"agents[{k}]", ("id", "position"))
        agent_id = _agent_id(_require(item, "id", f"agents[{k}]."), f"agents[{k}].id")
        if agent_id in ids:
            raise ScenarioError(f"agents[{k}].id: duplicate id {agent_id}")
        ids.append(agent_id)
        positions.append(_position(_require(item, "position", f"agents[{k}]."),
                                   f"agents[{k}].position"))
    agent_ids = tuple(ids)
    ref_positions = np.array(positions)

    leader_override = None
    if doc.get("leader_override") is not None:
        raw = doc["leader_override"]
        if not isinstance(raw, list):
            raise ScenarioError("leader_override: expected a list of agent ids")
        override = [_agent_id(v, f"leader_override[{k}]", agent_ids)
                    for k, v in enumerate(raw)]
        if len(override) != n + 1:
            raise ScenarioError(
                f"leader_override: expected {n + 1} ids for n={n}, "
                f"got {len(override)}"
            )
        if len(set(override)) != len(override):
            raise ScenarioError("leader_override: duplicate ids")
        leader_override = tuple(override)

    trajectories = {}
    traj_doc = _mapping(doc.get("leader_trajectories", {}), "leader_trajectories")
    for raw_id, waypoints in traj_doc.items():
        # 1 or "1" (JSON keys are strings), not 1.5 or true
        if not str(raw_id).removeprefix("-").isdecimal():
            raise ScenarioError(f"leader_trajectories.{raw_id}: keys must be agent ids")
        path = f"leader_trajectories.{int(raw_id)}"
        agent_id = _agent_id(int(raw_id), path, agent_ids)
        if not isinstance(waypoints, list) or not waypoints:
            raise ScenarioError(f"{path}: expected a nonempty waypoint list")
        times = []
        points = []
        for k, wp in enumerate(waypoints):
            wp = _fields(wp, f"{path}[{k}]", ("time", "position"))
            times.append(_number(_require(wp, "time", f"{path}[{k}]."),
                                 f"{path}[{k}].time", nonnegative=True))
            points.append(_position(_require(wp, "position", f"{path}[{k}]."),
                                    f"{path}[{k}].position"))
        times = np.array(times)
        if np.any(np.diff(times) <= 0.0):
            raise ScenarioError(f"{path}: waypoint times must strictly increase")
        trajectories[agent_id] = LeaderTrajectory(
            agent_id=agent_id, times=times, positions=np.array(points))

    failures = []
    failures_doc = doc.get("failures", [])
    if not isinstance(failures_doc, list):
        raise ScenarioError("failures: expected a list")
    for k, item in enumerate(failures_doc):
        failures.append(_failure_spec(item, f"failures[{k}]", agent_ids,
                                      {f.agent_id for f in failures}))

    return ScenarioConfig(
        name=name, n=n, dt=dt, duration=duration, gain=gain, rho=rho, xi=xi,
        tolerances=tolerances, vehicle_radius=vehicle_radius,
        d_min_override=d_min_override, containment_half_size=half_size,
        containment_norm=norm, center_policy=center_policy, cem_u_inf=u_inf,
        cem_theta_inf=theta_inf, cem_radius=radius, cem_v_phi=v_phi,
        agent_ids=agent_ids, ref_positions=ref_positions,
        leader_override=leader_override, trajectories=trajectories,
        failures=tuple(failures),
    )
