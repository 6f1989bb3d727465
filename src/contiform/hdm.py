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
from .geometry import RANK_TOLERANCE, as_position, plane_normal, rank_simplex


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


def leader_fit_system(leader_ref, n: int = 2) -> np.ndarray:
    """Inverse of the leader-fit system [r_0 | 1] of one reference simplex.

    The rows are the n + 1 reference leaders; for n = 2 a fourth row,
    the reference unit normal placed at p1, completes the out-of-plane
    direction. One network epoch factors this once and hands it to
    fit_transforms_batch. Raises DegeneracyError for a degenerate
    reference simplex.
    """
    ref = np.stack([as_position(p) for p in leader_ref])
    if len(ref) != n + 1:
        raise ValueError(f"need {n + 1} leader positions for n={n}")
    if rank_simplex(ref, n) != n:
        raise DegeneracyError("degenerate leader reference simplex")
    if n == 2:
        ref = np.vstack([ref, ref[0] + plane_normal(*ref)])
    m = np.ones((4, 4))
    m[:, :3] = ref
    try:
        return np.linalg.inv(m)
    except np.linalg.LinAlgError as exc:
        raise DegeneracyError("singular leader system") from exc


def fit_transforms_batch(fit_inv, leader_cmd) -> np.ndarray:
    """Rows [Q^T; d], (K, 4, 3), mapping the reference leaders onto each
    of K commanded leader sets (K, n+1, 3).

    fit_inv comes from leader_fit_system. Planar sets are completed with
    their own unit normal at p1, so one singular value of Q is exactly 1;
    a collinear commanded triangle gives a NaN row.
    """
    leader_cmd = np.asarray(leader_cmd, dtype=float)
    degenerate = np.zeros(len(leader_cmd), dtype=bool)
    rhs = leader_cmd
    if leader_cmd.shape[1] == 3:
        e1 = leader_cmd[:, 1] - leader_cmd[:, 0]
        e2 = leader_cmd[:, 2] - leader_cmd[:, 0]
        raw = np.cross(e2, e1)
        nrm = np.sqrt(np.einsum("ki,ki->k", raw, raw))
        scale = np.sqrt(np.einsum("ki,ki->k", e1, e1)
                        * np.einsum("ki,ki->k", e2, e2))
        degenerate = nrm <= RANK_TOLERANCE * np.maximum(scale, 1e-300)
        normal = raw / np.where(degenerate, 1.0, nrm)[:, None]
        rhs = np.concatenate(
            [leader_cmd, (leader_cmd[:, 0] + normal)[:, None]], axis=1)
    sol = fit_inv @ rhs
    sol[degenerate] = np.nan
    return sol


def fit_homogeneous_transform(leader_ref, leader_current, n: int = 2):
    """Recover (Q, d) mapping leader reference positions onto current ones.

    n = 3 uses the four leaders directly. n = 2 has only three leaders,
    which pin the in-plane part; the out-of-plane direction is completed
    by mapping the reference unit normal onto the current unit normal,
    so one singular value is exactly 1 for planar fits.
    """
    cur = np.stack([as_position(p) for p in leader_current])
    if len(cur) != n + 1:
        raise ValueError(f"need {n + 1} leader positions for n={n}")
    sol = fit_transforms_batch(leader_fit_system(leader_ref, n), cur[None])[0]
    if np.isnan(sol).any():
        raise DegeneracyError("degenerate current leader simplex")
    Q = sol[:3].T
    sv = np.linalg.svd(Q, compute_uv=False)
    return HomogeneousTransform(Q=Q, d=sol[3], singular_values=sv)


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
