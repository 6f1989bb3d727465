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

A FlowField caches u_e and the doublet centers, coefficients, disk radii
and squared radii as arrays when it is built; one evaluator broadcasts W
and W' over (queries, doublets).  The flow is planar: the z coordinate of
a position is carried through unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import FlowSingularityError, ScenarioError, StagnationError

# default disk radius around a failed agent (meters)
DEFAULT_EXCLUSION_RADIUS = 4.0

# stagnation guard: |J| below this multiple of u_inf^2 raises StagnationError
STAGNATION_FLOOR_FACTOR = 1e-9

# relative tolerance for the streamline-restoring Newton projection
_PROJECTION_RTOL = 1e-12
_PROJECTION_MAX_ITER = 12


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
    _radius2: np.ndarray = _cached()   # (k,) delta / u_inf

    def __post_init__(self):
        if not (self.u_inf > 0.0 and np.isfinite(self.u_inf)):
            raise ValueError(f"u_inf must be positive, got {self.u_inf}")
        doublets = tuple(self.doublets)
        delta = np.array([d.delta for d in doublets], dtype=np.float64)
        gamma = np.array([d.gamma for d in doublets], dtype=np.float64)
        radius2 = delta / self.u_inf
        cached = {
            "doublets": doublets,
            "_centers": np.array([complex(d.a, d.b) for d in doublets],
                                 dtype=np.complex128),
            "_coef": delta * (np.cos(gamma) + 1j * np.sin(gamma)),
            "_ue": self.u_inf * complex(np.cos(self.theta_inf),
                                        -np.sin(self.theta_inf)),
            "_radius": np.sqrt(radius2),
            "_radius2": radius2,
        }
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

    @property
    def exclusion_radii(self):
        """Disk radius per doublet, as a (k,) array."""
        return self._radius.copy()

    @property
    def stagnation_floor(self):
        return STAGNATION_FLOOR_FACTOR * self.u_inf**2


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
    if not u_inf > 0.0:
        raise ValueError(f"u_inf must be positive, got {u_inf}")
    radius = DEFAULT_EXCLUSION_RADIUS if radius_override is None else float(radius_override)
    if not radius > 0.0:
        raise ValueError(f"exclusion radius must be positive, got {radius}")
    pts = np.atleast_2d(np.asarray(failed_positions, dtype=np.float64))
    if pts.size == 0:
        pts = pts.reshape(0, 2)
    if pts.shape[-1] not in (2, 3):
        raise ValueError(f"failed positions must be (k, 2) or (k, 3), got {pts.shape}")
    delta = radius**2 * u_inf
    doublets = tuple(
        Doublet(a=float(p[0]), b=float(p[1]), delta=delta, gamma=theta_inf + np.pi)
        for p in pts
    )
    return FlowField(u_inf=u_inf, theta_inf=theta_inf, doublets=doublets)


def _offsets(field, z):
    """z - z_i for the complex points z (m,) and every center, as (m, k).

    Raises FlowSingularityError if any point coincides with a center.
    """
    zeta = z[:, None] - field._centers
    if np.count_nonzero(zeta) < zeta.size:
        c = field._centers[int(np.argmax((zeta == 0).any(axis=0)))]
        raise FlowSingularityError(
            f"flow evaluated at doublet center ({c.real:.6g}, {c.imag:.6g})"
        )
    return zeta


def _derivative(field, zeta):
    """W'(z) = u_e + sum_i c_i / zeta_i^2 from the offsets zeta (m, k)."""
    return field._ue + np.add.reduce(field._coef / (zeta * zeta), axis=1)


def _eval(field, z):
    """W, W' and the unsafe mask at the complex points z, shape (m,).

    unsafe marks points strictly inside an exclusion disk.  Raises
    FlowSingularityError if any point coincides with a doublet center.
    """
    zeta = _offsets(field, z)
    w = field._ue * z - np.add.reduce(field._coef / zeta, axis=1)
    rho2 = zeta.real * zeta.real + zeta.imag * zeta.imag
    return w, _derivative(field, zeta), (rho2 < field._radius2).any(axis=1)


def _as_complex(positions):
    """x + 1j y of each row of an (m, >=2) float array."""
    return np.ascontiguousarray(positions[:, :2]).view(np.complex128)[:, 0]


def eval_flow(field, x, y):
    """Evaluate potential, stream function, gradients and |J| at one point."""
    w, dw, unsafe = _eval(field, np.array([complex(float(x), float(y))]))
    phi_x, phi_y = float(dw[0].real), -float(dw[0].imag)
    return FlowSample(phi=float(w[0].real), psi=float(w[0].imag),
                      grad_phi=np.array([phi_x, phi_y]),
                      grad_psi=np.array([-phi_y, phi_x]),
                      jac_det=phi_x * phi_x + phi_y * phi_y,
                      unsafe=bool(unsafe[0]))


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
    w, _, unsafe = _eval(field, _as_complex(pts))
    if unsafe.any():
        j = int(np.argmax(unsafe))
        raise ScenarioError(
            f"agent {ids[j]} lies strictly inside an exclusion disk "
            f"at CEM activation: position ({pts[j, 0]:.6g}, {pts[j, 1]:.6g})"
        )
    return {a: float(psi) for a, psi in zip(ids, w.imag)}


def streamline_velocity(field, x, y, v_phi):
    """Desired velocity sliding along the streamline through (x, y).

    Planar part is (v_phi / |J|) * (psi_y, -psi_x) = v_phi conj(W') / |W'|^2;
    along it d(psi)/dt = 0 and d(phi)/dt = v_phi analytically.  The flow is
    planar, so vz = 0.  Raises StagnationError when |J| falls below
    1e-9 * u_inf^2.
    """
    sample = eval_flow(field, x, y)
    floor = field.stagnation_floor
    if sample.jac_det < floor:
        raise StagnationError(x, y, sample.jac_det, floor)
    vx, vy = v_phi / sample.jac_det * sample.grad_phi
    return np.array([vx, vy, 0.0])


def _planar_rk4(field, z, v_phi, dt, floor):
    """One classical 4th-order step of the planar streamline ODE.

    z is a complex (m,) array.  Returns (z_next, stagnated): a stage with
    |W'|^2 below the floor gets zero velocity and marks the agent stagnated.
    """
    def rate(p):
        dw = _derivative(field, _offsets(field, p))
        jac = dw.real * dw.real + dw.imag * dw.imag
        bad = jac < floor
        # where jac >= floor the maximum is jac itself
        scale = np.where(bad, 0.0, v_phi / np.maximum(jac, floor))
        return scale * dw.conj(), bad

    k1, b1 = rate(z)
    k2, b2 = rate(z + 0.5 * dt * k1)
    k3, b3 = rate(z + 0.5 * dt * k2)
    k4, b4 = rate(z + dt * k3)
    z_next = z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z_next, b1 | b2 | b3 | b4


def _restore_streamline(field, z, psi_target, floor):
    """Newton correction along grad_psi bringing psi(z) back to psi_target.

    z and psi_target are (m,) arrays; each point iterates until its own
    error is within tolerance or its |J| falls below the floor.
    """
    z = z.copy()
    tol = _PROJECTION_RTOL * np.maximum(1.0, np.abs(psi_target))
    active = np.ones(len(z), dtype=bool)
    for _ in range(_PROJECTION_MAX_ITER):
        w, dw, _ = _eval(field, z)
        err = psi_target - w.imag
        norm2 = dw.real * dw.real + dw.imag * dw.imag
        active &= (np.abs(err) > tol) & (norm2 >= floor)
        if not active.any():
            break
        # grad_psi = (-phi_y, phi_x) = (Im W', Re W') = 1j conj(W')
        step = err * (1j * dw.conj()) / np.where(active, norm2, 1.0)
        z[active] += step[active]
    return z


def step_streamline_many(positions, field, v_phi, dt, psi_targets=None):
    """Vectorized streamline step for the simulation loop.

    positions is (m, 3).  Stagnating agents keep their position for the step
    (velocity clamped to zero) and are reported in the stagnated mask rather
    than raising, matching the supervisor's clamp-and-log policy.  Agents
    drifting strictly into a disk are pushed back out and re-projected onto
    psi_targets (their stream constants; defaults to the pre-step psi), and
    reported in the projected mask.  The z column is carried through.

    Returns (next_positions (m, 3), stagnated (m,), projected (m,)).
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must be (m, 3), got {positions.shape}")
    m = positions.shape[0]
    if m == 0 or dt == 0.0:
        return positions.copy(), np.zeros(m, bool), np.zeros(m, bool)
    floor = field.stagnation_floor
    z0 = _as_complex(positions)
    if psi_targets is None:
        psi_targets = _eval(field, z0)[0].imag
    else:
        psi_targets = np.asarray(psi_targets, dtype=np.float64)

    z1, stagnated = _planar_rk4(field, z0, v_phi, dt, floor)
    z1 = np.where(stagnated, z0, z1)

    zeta = z1[:, None] - field._centers
    rho = np.hypot(zeta.real, zeta.imag)
    inside = rho < field._radius
    projected = np.zeros(m, dtype=bool)
    if np.count_nonzero(inside):
        projected = inside.any(axis=1)
        # push radially out of the first disk entered, then back onto psi_0
        idx = np.flatnonzero(projected)
        j = inside[idx].argmax(axis=1)
        d, r = zeta[idx, j], rho[idx, j]
        target = field._radius[j] * (1.0 + 1e-12)
        # a point exactly on a center goes out along the upstream axis
        push = np.where(r == 0.0,
                        -target * np.exp(1j * field.theta_inf),
                        d * target / np.where(r == 0.0, 1.0, r))
        z1[idx] = _restore_streamline(field, field._centers[j] + push,
                                      psi_targets[idx], floor)

    out = positions.copy()
    out[:, :2] = z1.view(np.float64).reshape(m, 2)
    return out, stagnated, projected
