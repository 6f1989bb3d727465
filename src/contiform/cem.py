"""Containment Exclusion Mode: uniform-plus-doublet planar flow fields.

The desired motion of every healthy agent in CEM follows an ideal planar
flow built by superposing a uniform stream (speed u_inf, heading theta_inf)
with one doublet per failed agent.  Each doublet wraps its agent with a
circular exclusion disk of radius sqrt(delta / u_inf); the combined stream
function vanishes on that circle, so no streamline crosses it.

With z = x + 1j y, the whole field is one complex potential

    W(z)  = u_e z - sum_i c_i / (z - z_i),    phi = Re W,  psi = Im W
    W'(z) = u_e   + sum_i c_i / (z - z_i)^2,  phi_x = Re W',  phi_y = -Im W'

with u_e = u_inf exp(-1j theta_inf) and, per doublet of center
z_i = a + 1j b, strength delta and orientation gamma, the coefficient
c_i = delta exp(1j gamma).  In real form one doublet contributes

    phi_D = -delta * (cos(gamma) dx + sin(gamma) dy) / rho^2
    psi_D =  delta * (cos(gamma) dy - sin(gamma) dx) / rho^2

with dx = x - a, dy = y - b, rho^2 = dx^2 + dy^2.  W is analytic, so phi
and psi are harmonic conjugates (Cauchy-Riemann holds exactly), and with
the orientation gamma = theta_inf + pi the field is the classical flow
past a cylinder: stagnation points on the upstream/downstream axis and the
zero streamline on the circle of radius sqrt(delta / u_inf).

A FlowField caches u_e, the disk radii and the doublet centers and
coefficients, also as the Python complex pairs that the one evaluator of
W and W' loops over.  The streamline step inverts W: the outer root of a
quadratic with one doublet, a batched Newton solve with more.  The flow
is planar: z is carried through.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import FlowSingularityError, ScenarioError

# default disk radius around a failed agent (meters)
DEFAULT_EXCLUSION_RADIUS = 4.0

# stagnation guard: an agent where |J| = |W'|^2 is below this multiple of
# u_inf^2 holds its position and is marked stagnated
STAGNATION_FLOOR_FACTOR = 1e-9

# Newton inversion of W with two or more doublets: residual tolerance
# relative to the summed term scale, and iteration cap
_INVERSE_RTOL = 1e-13
_INVERSE_MAX_ITER = 12


@dataclass(frozen=True)
class Doublet:
    """One doublet singularity: center (a, b), strength delta, heading gamma."""

    a: float
    b: float
    delta: float
    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise ValueError("doublet center must be finite")
        if not (self.delta > 0.0 and np.isfinite(self.delta)):
            raise ValueError(f"doublet strength must be positive, got {self.delta}")


def _cached():
    return dataclass_field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class FlowField:
    """Immutable uniform-plus-doublet flow description."""

    u_inf: float
    theta_inf: float = 0.0
    doublets: tuple = ()
    _centers: np.ndarray = _cached()   # (k,) complex z_i
    _coef: np.ndarray = _cached()      # (k,) complex delta e^{i gamma}
    _ue: complex = _cached()           # u_inf e^{-i theta_inf}
    _radius: np.ndarray = _cached()    # (k,) disk radius
    _terms: tuple = _cached()          # ((z_i, c_i), ...) as Python complex

    def __post_init__(self):
        if not (self.u_inf > 0.0 and np.isfinite(self.u_inf)):
            raise ValueError(f"u_inf must be positive, got {self.u_inf}")
        doublets = tuple(self.doublets)
        delta = np.array([d.delta for d in doublets], dtype=np.float64)
        gamma = np.array([d.gamma for d in doublets], dtype=np.float64)
        cached = {
            "doublets": doublets,
            "_centers": np.array([complex(d.a, d.b) for d in doublets],
                                 dtype=np.complex128),
            "_coef": delta * (np.cos(gamma) + 1j * np.sin(gamma)),
            "_ue": self.u_inf * complex(np.cos(self.theta_inf),
                                        -np.sin(self.theta_inf)),
            "_radius": np.sqrt(delta / self.u_inf),
        }
        cached["_terms"] = tuple(zip(cached["_centers"].tolist(),
                                     cached["_coef"].tolist()))
        for name, value in cached.items():
            object.__setattr__(self, name, value)
        radii = self._radius
        for i in range(len(doublets)):
            for j in range(i + 1, len(doublets)):
                gap = abs(self._centers[i] - self._centers[j])
                if gap < radii[i] + radii[j]:
                    warnings.warn(
                        f"exclusion disks {i} and {j} overlap "
                        f"(centers {gap:.3g} m apart, radii {radii[i]:.3g} + {radii[j]:.3g})",
                        stacklevel=2,
                    )


@dataclass(frozen=True)
class FlowSample:
    """Flow evaluation at one point.

    grad_phi equals (d psi/dy, -d psi/dx) analytically (Cauchy-Riemann) and
    jac_det = |grad_phi|^2 is the Jacobian determinant of (x, y) -> (phi, psi).
    unsafe is True when the point lies strictly inside an exclusion disk.
    """

    phi: float
    psi: float
    grad_phi: np.ndarray
    grad_psi: np.ndarray
    jac_det: float
    unsafe: bool = False


def exclusion_radius(u_inf, delta):
    """Radius of the exclusion disk: sqrt(delta / u_inf)."""
    if not u_inf > 0.0:
        raise ValueError(f"u_inf must be positive, got {u_inf}")
    if not delta > 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    return float(np.sqrt(delta / u_inf))


def build_flow_from_failures(failed_positions, u_inf, theta_inf=0.0,
                             radius_override=None):
    """Wrap each failed agent with a doublet sized for the exclusion radius.

    failed_positions is an (k, 2) or (k, 3) array-like of failed-agent
    positions (z ignored).  Each doublet gets strength radius^2 * u_inf, the
    exact inverse of exclusion_radius, and orientation theta_inf + pi so the
    combined stream function vanishes on the circle of that radius.
    Overlapping disks trigger a warning but are not fatal.
    """
    radius = DEFAULT_EXCLUSION_RADIUS if radius_override is None else float(radius_override)
    if not radius > 0.0:
        raise ValueError(f"exclusion radius must be positive, got {radius}")
    pts = np.atleast_2d(np.asarray(failed_positions, dtype=np.float64))
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.shape[-1] not in (2, 3):
        raise ValueError(f"failed positions must be (k, 2) or (k, 3), got {pts.shape}")
    delta = radius**2 * u_inf
    doublets = (   # a generator: FlowField checks u_inf before any Doublet
        Doublet(a=float(p[0]), b=float(p[1]), delta=delta, gamma=theta_inf + np.pi)
        for p in pts
    )
    return FlowField(u_inf=u_inf, theta_inf=theta_inf, doublets=doublets)


def _eval(field, z):
    """W and W' at the complex points z (m,), one doublet at a time.

    Raises FlowSingularityError if any point coincides with a doublet center.
    """
    w, dw = field._ue * z, field._ue
    for center, coef in field._terms:
        zeta = z - center
        if np.count_nonzero(zeta) < len(zeta):
            raise FlowSingularityError(
                f"flow evaluated at doublet center "
                f"({center.real:.6g}, {center.imag:.6g})")
        term = coef / zeta
        w -= term
        dw = dw + term / zeta
    # with no doublet dw is still the scalar u_e
    return w, dw if len(field._centers) else np.full(len(z), dw)


def _inside(field, z):
    """(m, k) mask of the points z (m,) strictly inside each disk."""
    return np.abs(z[:, None] - field._centers) < field._radius


def _as_complex(positions):
    """x + 1j y of each row of an (m, >=2) float array."""
    return np.ascontiguousarray(positions[:, :2]).view(np.complex128)[:, 0]


def eval_flow(field, x, y):
    """Evaluate potential, stream function, gradients and |J| at one point."""
    z = np.array([complex(float(x), float(y))])
    w, dw = _eval(field, z)
    phi_x, phi_y = float(dw[0].real), -float(dw[0].imag)
    return FlowSample(phi=float(w[0].real), psi=float(w[0].imag),
                      grad_phi=np.array([phi_x, phi_y]),
                      grad_psi=np.array([-phi_y, phi_x]),
                      jac_det=phi_x * phi_x + phi_y * phi_y,
                      unsafe=bool(_inside(field, z).any()))


def assign_stream_constants(healthy_positions, field):
    """Stream constant psi_0 per agent, from positions at CEM entry.

    healthy_positions maps agent id to a position whose x, y components are
    used.  An agent strictly inside an exclusion disk cannot be put on a
    streamline, which is a fatal scenario error naming the agent.
    """
    ids = list(healthy_positions)
    if not ids:
        return {}
    pts = np.array([np.asarray(healthy_positions[a], dtype=np.float64)[:2]
                    for a in ids])
    z = _as_complex(pts)
    unsafe = _inside(field, z).any(axis=1)
    if unsafe.any():
        j = int(np.argmax(unsafe))
        raise ScenarioError(
            f"agent {ids[j]} lies strictly inside an exclusion disk "
            f"at CEM activation: position ({pts[j, 0]:.6g}, {pts[j, 1]:.6g})"
        )
    return {a: float(psi) for a, psi in zip(ids, _eval(field, z)[0].imag)}


def _invert(field, target, seed):
    """Points z (m,) with W(z) = target (m,), and the unconverged indices.

    With one doublet zeta = z - z_1 solves u_e zeta^2 - s zeta - c = 0,
    s = target - u_e z_1.  Its roots are mirror images across the disk
    circle, so the outer one has the larger |zeta|, from whichever of
    s +- sqrt(s^2 + 4 u_e c) has the larger modulus.  Otherwise Newton
    steps on W from seed (m,) run per point until the residual is within
    _INVERSE_RTOL of the summed term scale, or for _INVERSE_MAX_ITER steps.
    """
    ue = field._ue
    if len(field._centers) == 1:
        center, radius = field._centers[0], field._radius[0]
        s = target - ue * center
        root = np.sqrt(s * s + 4.0 * ue * field._coef[0])
        plus, minus = s + root, s - root
        np.copyto(minus, plus, where=np.abs(plus) >= np.abs(minus))
        zeta = minus / (2 * ue)
        z = center + zeta
        # both roots on the circle (the dividing streamline past its
        # stagnation point): keep to the arc nearer the seed, just outside
        tie = np.abs(zeta) <= radius * (1.0 + 1e-9)
        if np.count_nonzero(tie):
            near, seed = z[tie] - center, seed[tie] - center
            far = -field._coef[0] / (ue * near)   # roots' product: -c / u_e
            arc = np.where(np.abs(far - seed) < np.abs(near - seed), far, near)
            z[tie] = center + arc * (radius * (1.0 + 1e-12) / np.abs(arc))
        return z, np.zeros(0, dtype=int)
    z = np.array(seed, dtype=np.complex128)
    todo = np.arange(len(z))
    for it in range(_INVERSE_MAX_ITER + 1):
        w, dw = _eval(field, z[todo])
        res = w - target[todo]
        # the summed term scale |u_e z| + sum_i |c_i / (z - z_i)|
        scale = np.abs(ue * z[todo]) + np.add.reduce(
            np.abs(field._coef) / np.abs(z[todo, None] - field._centers), 1)
        left = np.abs(res) > _INVERSE_RTOL * scale
        todo = todo[left]
        if not todo.size or it == _INVERSE_MAX_ITER:
            break
        z[todo] -= res[left] / dw[left]
    return z, todo


def step_streamline_many(positions, field, v_phi, dt, psi_targets=None):
    """One streamline step for the simulation loop, by inverting W.

    positions is (m, 3).  Along a streamline psi is constant and
    d(phi)/dt = v_phi, so each agent moves to the z+ with W(z+) =
    phi(z) + v_phi dt + 1j psi_target (_invert); psi_targets are the stream
    constants, by default the current psi.  An agent where |W'|^2 is below
    the stagnation floor, or whose solve fails, holds and is flagged
    stagnated (the supervisor's clamp-and-log policy).  An agent whose
    Newton result lies strictly inside a disk holds too, flagged both
    projected and stagnated.  The z column is carried through.

    Returns (next_positions (m, 3), stagnated (m,), projected (m,)).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (m, 3), got {positions.shape}")
    m = positions.shape[0]
    if m == 0 or dt == 0.0:
        return positions.copy(), np.zeros(m, bool), np.zeros(m, bool)
    z0 = _as_complex(positions)
    w, dw = _eval(field, z0)
    target = w + v_phi * dt
    if psi_targets is not None:
        target.imag = psi_targets
    z1, failed = _invert(field, target, z0)
    stagnated = np.abs(dw) < (STAGNATION_FLOOR_FACTOR * field.u_inf**2) ** 0.5
    if len(field._centers) > 1:
        # only a Newton solve can fail or land inside a disk
        projected = _inside(field, z1).any(axis=1)
        stagnated[failed] = True
        stagnated |= projected
    else:
        projected = np.zeros(m, dtype=bool)
    if np.count_nonzero(stagnated):
        z1[stagnated] = z0[stagnated]

    out = positions.copy()
    out[:, :2] = z1.view(np.float64).reshape(m, 2)
    return out, stagnated, projected
