"""contiform: resilient continuum-deformation coordination for agent teams.

A small numpy library plus a deterministic simulation harness. The team
tracks an affine (homogeneous) deformation commanded through a handful
of leader agents, monitors inter-agent weight consistency to catch
failed members, and detours healthy agents along potential-flow
streamlines around any failed one until it falls outside a containment
box, after which the coordination network is rebuilt.
"""

__version__ = "0.1.0"

from . import geometry, refnet, hdm, cem, anomaly, automaton, scenario, simulate
from .errors import (
    ContiformError,
    DegeneracyError,
    SelectionError,
    NetworkError,
    FlowSingularityError,
    ScenarioError,
    NumericError,
)

__all__ = [
    "geometry",
    "refnet",
    "hdm",
    "cem",
    "anomaly",
    "automaton",
    "scenario",
    "simulate",
    "ContiformError",
    "DegeneracyError",
    "SelectionError",
    "NetworkError",
    "FlowSingularityError",
    "ScenarioError",
    "NumericError",
    "__version__",
]
