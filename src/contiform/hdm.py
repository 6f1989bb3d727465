"""Homogeneous deformation mode.

The team's desired configuration at time t is an affine image of the
reference formation, r_c(t) = Q(t) r_0 + d(t), commanded entirely
through the n+1 leaders. Followers never see Q or d: tracking the
weighted combination of in-neighbor positions reproduces the global
map because the weight rows are barycentric.

The singular values of Q certify inter-agent separation: as long as
min sigma stays above (Delta + eps) / (d_min/2 + eps) no two agents can
collide despite bounded tracking error Delta.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError
from .geometry import _barycentric, _check_n, _full_rank, as_position


@dataclass(frozen=True)
class HomogeneousTransform:
    """Affine map r -> Q r + d with singular values of Q sorted descending."""

    Q: np.ndarray
    d: np.ndarray
    singular_values: np.ndarray

    def apply(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts @ self.Q.T + self.d
        return out[0] if np.asarray(points).ndim == 1 else out


def reference_edge_inverse(leader_ref) -> np.ndarray:
    """The per-epoch factor deformation_sigmas needs, from the n + 1
    reference leaders (n+1, 3).

    With R the reference edges p_k - p_0 as columns, it is R^-1 for n = 3;
    for n = 2 it is T^-1, where R = U T is the QR factorization of the
    3 x 2 edge matrix.
    """
    ref = np.asarray(leader_ref, dtype=float)
    edges = (ref[1:] - ref[0]).T
    if len(ref) == 3:
        edges = np.linalg.qr(edges)[1]
    return np.linalg.inv(edges)


def deformation_sigmas(edge_inv, leader_cmd) -> np.ndarray:
    """Singular values (K, 3), descending, of the deformations Q that map
    the reference leaders onto each of K commanded leader sets (K, n+1, 3).

    edge_inv comes from reference_edge_inverse.  For n = 2, Q maps the
    reference edges R = U T onto the commanded edges C and the reference
    unit normal onto the commanded one (see fit_homogeneous_transform), so
    its singular values are 1 and those of A = C T^-1.  They come in closed
    form from A's 2 x 2 Gram matrix: the larger from its eigenvalue, the
    smaller as |a1 x a2| over it, which keeps both accurate.  A commanded
    triangle geometry._full_rank calls degenerate gives a NaN row.  For
    n = 3, Q = C R^-1 goes through one batched SVD.
    """
    cmd = np.asarray(leader_cmd, dtype=float)
    if cmd.shape[1] == 4:
        edges = cmd[:, 1:] - cmd[:, :1]        # rows are C's columns
        return np.linalg.svd(edge_inv.T @ edges, compute_uv=False)
    x, y, z = cmd[..., 0], cmd[..., 1], cmd[..., 2]
    ax, ay, az = x[:, 1] - x[:, 0], y[:, 1] - y[:, 0], z[:, 1] - z[:, 0]
    bx, by, bz = x[:, 2] - x[:, 0], y[:, 2] - y[:, 0], z[:, 2] - z[:, 0]
    g11 = ax * ax + ay * ay + az * az
    g22 = bx * bx + by * by + bz * bz
    g12 = ax * bx + ay * by + az * bz
    cx, cy, cz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    area2 = cx * cx + cy * cy + cz * cz
    area = np.sqrt(area2)
    # A's columns are t00 c1 and t01 c1 + t11 c2 (T^-1 is upper triangular)
    t00, t01, t11 = edge_inv[0, 0], edge_inv[0, 1], edge_inv[1, 1]
    a = t00 * t00 * g11
    b = t00 * (t01 * g11 + t11 * g12)
    d = t01 * t01 * g11 + 2.0 * t01 * t11 * g12 + t11 * t11 * g22
    big = np.sqrt(0.5 * (a + d) + np.hypot(0.5 * (a - d), b))
    with np.errstate(invalid="ignore", divide="ignore"):
        small = area * abs(t00 * t11) / big
    sigma = np.empty((len(cmd), 3))
    sigma[:, 0] = np.maximum(big, 1.0)
    sigma[:, 1] = np.minimum(np.maximum(small, 1.0), big)
    sigma[:, 2] = np.minimum(small, 1.0)
    sigma[~_full_rank(area2, g11 * g22, 2)] = np.nan
    return sigma


def fit_homogeneous_transform(leader_ref, leader_current, n: int = 2):
    """Recover (Q, d) mapping leader reference positions onto current ones.

    n = 3 uses the four leaders directly. n = 2 has only three leaders,
    which pin the in-plane part; the out-of-plane direction is completed
    by mapping the reference unit normal, placed at p1, onto the current
    one, so one singular value is exactly 1 for planar fits. Raises
    DegeneracyError for a degenerate reference simplex or (n = 2) current
    triangle, as geometry._full_rank decides.
    """
    _check_n(n)
    ref = np.stack([as_position(p) for p in leader_ref])
    cur = np.stack([as_position(p) for p in leader_current])
    if len(ref) != n + 1 or len(cur) != n + 1:
        raise ValueError(f"need {n + 1} leader positions for n={n}")
    _, det, _, scale = _barycentric(ref[None], ref[:1], n)
    if not _full_rank(det, scale, n)[0]:
        raise DegeneracyError("degenerate leader reference simplex")
    sv = deformation_sigmas(reference_edge_inverse(ref), cur[None])[0]
    if np.isnan(sv[0]):
        raise DegeneracyError("degenerate commanded leader triangle")
    if n == 2:
        # each triangle gains its unit normal (p3 - p1) x (p2 - p1) at p1
        lifted = []
        for p in (ref, cur):
            raw = np.cross(p[2] - p[0], p[1] - p[0])
            lifted.append(np.vstack([p, p[0] + raw / np.linalg.norm(raw)]))
        ref, cur = lifted
    # rows [Q^T; d] solve [r_0 | 1] [Q^T; d] = r
    sol = np.linalg.solve(np.column_stack([ref, np.ones(4)]), cur)
    return HomogeneousTransform(Q=sol[:3].T, d=sol[3], singular_values=sv)


def global_desired_positions(W_L, leader_desired):
    """Follower desired stack W_L @ leader_desired, one row per follower."""
    W_L = np.asarray(W_L, dtype=float)
    leaders = np.atleast_2d(np.asarray(leader_desired, dtype=float))
    if W_L.shape[1] != leaders.shape[0]:
        raise ValueError(
            f"W_L has {W_L.shape[1]} leader columns but got {leaders.shape[0]} leader rows"
        )
    return W_L @ leaders


def collision_safety_margin(transform, delta, epsilon, d_min):
    """(threshold, satisfied): the deformation-based separation certificate.

    threshold = (delta + epsilon) / (d_min / 2 + epsilon); the team is
    certified collision free while min sigma(Q) >= threshold, where
    delta bounds each agent's deviation from its global desired spot,
    epsilon is the vehicle radius and d_min the smallest reference
    separation.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if d_min <= 0:
        raise ValueError(f"d_min must be > 0, got {d_min}")
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    threshold = (delta + epsilon) / (d_min / 2.0 + epsilon)
    sv = transform.singular_values if isinstance(transform, HomogeneousTransform) \
        else np.asarray(transform, dtype=float)
    return threshold, bool(np.min(sv) >= threshold)
