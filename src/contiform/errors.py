"""Exception types shared across the library.

Everything derives from ContiformError so callers can catch library
failures with one except clause. Geometry degeneracies, network build
problems, scenario file problems and runtime numeric blowups are kept
distinct because the CLI maps them to different exit codes.
"""


class ContiformError(Exception):
    """Base class for all library errors."""


class DegeneracyError(ContiformError, ValueError):
    """Geometric input is rank deficient (collinear, coplanar, coincident)."""


class SelectionError(ContiformError, ValueError):
    """Leader selection failed (bad override or degenerate boundary)."""


class NetworkError(ContiformError):
    """Weight-matrix construction produced an unusable network."""


class FlowSingularityError(ContiformError):
    """Flow field evaluated exactly at a doublet center."""


class ScenarioError(ContiformError, ValueError):
    """Scenario file failed validation. Message names the offending field."""


class NumericError(ContiformError):
    """Simulation state became non-finite."""
