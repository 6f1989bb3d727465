"""Simplex geometry and barycentric weight operators.

Positions are (3,) float arrays in meters. Weight vectors are
dimensionless 4-vectors that sum to one: the solution of

    [p1 p2 p3 p4] [l1]   [c]
    [ 1  1  1  1] [..] = [1]

For planar (n = 2) formations the fourth vertex is virtual: p1 plus a
scaled cross product of the triangle edges. Queries are projected onto
the triangle plane before solving, which pins the fourth weight to zero
for any query point.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneracyError

# Relative singular-value cutoff for numerical rank decisions.
RANK_TOLERANCE = 1e-9

# Default scale of the virtual fourth vertex for planar simplexes.
DEFAULT_XI = 1.0


def _cross_rows(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise cross product without np.cross's axis-juggling overhead."""
    out = np.empty(np.broadcast(u, v).shape)
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def _row_norms(u: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...j,...j->...", u, u))


def as_position(p) -> np.ndarray:
    """Coerce an array-like to a finite (3,) float vector."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"position must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"position has non-finite components: {arr!r}")
    return arr


def rank_simplex(points, n: int) -> int:
    """Numerical rank of the edge matrix [p2-p1 ... p_{n+1}-p1].

    points must hold exactly n + 1 positions. The returned rank equals n
    exactly when the points span an n-dimensional simplex.
    """
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    pts = [as_position(p) for p in points]
    if len(pts) != n + 1:
        raise ValueError(f"rank_simplex needs {n + 1} points for n={n}, got {len(pts)}")
    edges = np.stack([pts[k] - pts[0] for k in range(1, n + 1)], axis=1)
    sv = np.linalg.svd(edges, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_TOLERANCE * sv[0]))


def plane_normal(p1, p2, p3) -> np.ndarray:
    """Unit normal (p3 - p1) x (p2 - p1) / ||.|| of the triangle plane."""
    p1, p2, p3 = as_position(p1), as_position(p2), as_position(p3)
    raw = np.cross(p3 - p1, p2 - p1)
    norm = np.linalg.norm(raw)
    scale = np.linalg.norm(p3 - p1) * np.linalg.norm(p2 - p1)
    if norm <= RANK_TOLERANCE * max(scale, 1e-300):
        raise DegeneracyError(f"collinear triangle: |cross| = {norm:.3e}")
    return raw / norm


def lambda_nd(p1, p2, p3, p4, c, n: int, xi: float = DEFAULT_XI) -> np.ndarray:
    """Weights (l1..l4) of one query point; see lambda_nd_batch.

    n = 3 needs p4, a real vertex; n = 2 ignores it. Raises
    DegeneracyError for a degenerate simplex.
    """
    if n == 3 and p4 is None:
        raise ValueError("n=3 requires a real fourth point")
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")
    pts = [as_position(p) for p in (p1, p2, p3, p4)[: n + 1]]
    return lambda_nd_batch(np.stack(pts)[None], as_position(c)[None], n, xi)[0]


def lambda_nd_batch(vertices: np.ndarray, queries: np.ndarray, n: int,
                    xi: float = DEFAULT_XI, on_degenerate: str = "raise") -> np.ndarray:
    """Dimension-aware weight operator over M simplexes.

    vertices: (M, n+1, 3) simplex vertices, queries: (M, 3).
    Returns (M, 4) weight rows. For n = 2 the virtual vertex is
    p1 + xi (p3 - p1) x (p2 - p1) and the query is projected in
    p1-centered coordinates, so the first three weights do not depend on
    the nonzero scale xi. Degenerate simplexes either raise or are filled
    with NaN rows (on_degenerate = "nan"), which search code uses to
    discard unusable candidate tuples in bulk.
    """
    if n == 2 and xi == 0.0:
        raise DegeneracyError("xi must be nonzero")
    vertices = np.asarray(vertices, dtype=float)
    queries = np.asarray(queries, dtype=float)
    m_count = vertices.shape[0]
    if m_count == 0:
        return np.zeros((0, 4))
    if n == 2:
        p1 = vertices[:, 0, :]
        q2 = vertices[:, 1, :] - p1
        q3 = vertices[:, 2, :] - p1
        raw = _cross_rows(q3, q2)
        norm = _row_norms(raw)
        scale = _row_norms(q3) * _row_norms(q2)
        good = norm > RANK_TOLERANCE * np.maximum(scale, 1e-300)
        mats = np.ones((m_count, 4, 4))
        mats[:, :3, 0] = 0.0
        mats[:, :3, 1] = q2
        mats[:, :3, 2] = q3
        mats[:, :3, 3] = xi * raw
        cq = queries - p1
        with np.errstate(invalid="ignore", divide="ignore"):
            nhat = raw / np.where(norm > 0, norm, 1.0)[:, None]
        cq = cq - np.sum(cq * nhat, axis=1)[:, None] * nhat
        rhs = np.concatenate([cq, np.ones((m_count, 1))], axis=1)
    else:
        if n != 3:
            raise ValueError(f"n must be 2 or 3, got {n}")
        mats = np.ones((m_count, 4, 4))
        mats[:, :3, :] = np.swapaxes(vertices, 1, 2)
        edges = vertices[:, 1:, :] - vertices[:, :1, :]
        vol = np.abs(np.linalg.det(edges))
        scale = np.max(_row_norms(edges), axis=1)
        good = vol > RANK_TOLERANCE * np.maximum(scale, 1e-300) ** 3
        rhs = np.concatenate([queries, np.ones((m_count, 1))], axis=1)
    if not np.all(good):
        if on_degenerate == "raise":
            raise DegeneracyError(f"{int(np.sum(~good))} degenerate simplexes in batch")
        out = np.full((m_count, 4), np.nan)
        if np.any(good):
            out[good] = np.linalg.solve(mats[good], rhs[good][..., None])[..., 0]
        return out
    return np.linalg.solve(mats, rhs[..., None])[..., 0]
