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


class ConnectivityError(ContiformError):
    """No admissible enclosing simplex exists for an agent."""

    def __init__(self, agent_id, message=None):
        self.agent_id = agent_id
        super().__init__(message or f"no admissible enclosing simplex for agent {agent_id}")


class SelectionError(ContiformError, ValueError):
    """Leader selection failed (bad override or degenerate boundary)."""


class NetworkError(ContiformError):
    """Weight-matrix construction produced an unusable network."""


class StagnationError(ContiformError):
    """Flow Jacobian determinant fell below the stagnation floor."""

    def __init__(self, x, y, jac_det, floor):
        self.x, self.y = x, y
        self.jac_det = jac_det
        self.floor = floor
        super().__init__(
            f"stagnation at ({x:.6g}, {y:.6g}): |J| = {jac_det:.3e} < floor {floor:.3e}"
        )


class FlowSingularityError(ContiformError):
    """Flow field evaluated exactly at a doublet center."""


class ScenarioError(ContiformError, ValueError):
    """Scenario file failed validation. Message names the offending field."""


class NumericError(ContiformError):
    """Simulation state became non-finite."""
