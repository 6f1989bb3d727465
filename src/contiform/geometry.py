"""Simplex geometry and barycentric weight operators.

Positions are (3,) float arrays in meters. Weight vectors are
dimensionless 4-vectors that sum to one: the solution of

    [p1 p2 p3 p4] [l1]   [c]
    [ 1  1  1  1] [..] = [1]

For planar (n = 2) formations the fourth vertex is virtual: p1 plus a
nonzero multiple xi of the triangle normal. The query is taken in the
triangle plane, so the fourth weight is exactly zero and the first three
do not depend on xi. Every weight comes from one closed-form kernel,
_barycentric, which the network build (through lambda_nd_batch) and the
anomaly detector share. Whether a simplex is degenerate is decided in one
place, _full_rank, over the (det, scale) that kernel returns: the weight
operator, the leader override check, the leader fit, the deformation's
singular values and the detector all read it, and the detector's linear
test reads it with the cutoff anomaly.QUIET_SINE as its rank certificate.
"""
from __future__ import annotations

import numpy as np

from .errors import DegeneracyError

# Relative cutoff of the one rank test, _full_rank.
RANK_TOLERANCE = 1e-9

# Default scale of the virtual fourth vertex for planar simplexes.
DEFAULT_XI = 1.0


def as_position(p) -> np.ndarray:
    """Coerce an array-like to a finite (3,) float vector."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"position must have 3 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"position has non-finite components: {arr!r}")
    return arr


def _check_n(n):
    """Reject a dimension other than 2 (triangles) or 3 (tetrahedra)."""
    if n not in (2, 3):
        raise ValueError(f"n must be 2 or 3, got {n}")


def _check_simplexes(vertices, queries, n):
    """Reject vertices not (m, n+1, 3) or queries not (m, 3)."""
    if (vertices.shape[1:] != (n + 1, 3)
            or queries.shape != (*vertices.shape[:1], 3)):
        raise ValueError(f"expected vertices (m, {n + 1}, 3) and queries "
                         f"(m, 3), got {vertices.shape} and {queries.shape}")


def lambda_nd(p1, p2, p3, p4, c, n: int, xi: float = DEFAULT_XI) -> np.ndarray:
    """Weights (l1..l4) of one query point; see lambda_nd_batch.

    n = 3 needs p4, a real vertex; n = 2 ignores it. Raises
    DegeneracyError for a degenerate simplex.
    """
    _check_n(n)
    if n == 3 and p4 is None:
        raise ValueError("n=3 requires a real fourth point")
    pts = [as_position(p) for p in (p1, p2, p3, p4)[: n + 1]]
    return lambda_nd_batch(np.stack(pts)[None], as_position(c)[None], n, xi)[0]


def _barycentric(vertices, queries, n):
    """Closed-form weights of m queries (m, 3) in the simplexes vertices
    (m, n+1, 3): (lam (m, n+1), det (m,), norm (m, n+1), scale (m,)).

    Each weight lam_k is affine in the query, with a constant gradient
    g_k.  For n = 2 the gradients come from the Gram matrix of the edges
    a = p1 - p0 and b = p2 - p0, its determinant det taken as |a x b|^2,
    free of cancellation.  They lie in the triangle plane, so the query's
    offset from that plane drops out.  norm_k = |g_k|^2 det is the squared
    length of the edge opposite vertex k, and scale = |a|^2 |b|^2.  For
    n = 3, det is the triple product a . (b x c) and g_k = k_k / det, with
    k_1 = b x c, k_2 = c x a, k_3 = a x b and k_0 = -(k_1 + k_2 + k_3);
    norm_k = |k_k|^2, and scale is the cube of the longest of a, b, c.
    A degenerate simplex yields inf or NaN entries.

    Works on the coordinate columns, no (m, n+1, 3) temporaries, and
    accumulates each sum and difference in place, in the order written.
    """
    x, y, z = vertices[..., 0], vertices[..., 1], vertices[..., 2]
    x0, y0, z0 = x[:, 0], y[:, 0], z[:, 0]
    wx, wy, wz = queries[:, 0] - x0, queries[:, 1] - y0, queries[:, 2] - z0
    ax, ay, az = x[:, 1] - x0, y[:, 1] - y0, z[:, 1] - z0
    bx, by, bz = x[:, 2] - x0, y[:, 2] - y0, z[:, 2] - z0
    lam = np.empty((len(x0), n + 1))
    norm = np.empty((len(x0), n + 1))
    term = np.empty(len(x0))   # each product after a sum's first

    def dot(ux, uy, uz, vx, vy, vz):
        """ux vx + uy vy + uz vz, summed left to right."""
        out = ux * vx
        out += np.multiply(uy, vy, out=term)
        out += np.multiply(uz, vz, out=term)
        return out

    def cross(p, q, r, s):
        """p q - r s."""
        out = p * q
        out -= np.multiply(r, s, out=term)
        return out

    with np.errstate(invalid="ignore", divide="ignore"):
        if n == 2:
            g11 = dot(ax, ay, az, ax, ay, az)
            g22 = dot(bx, by, bz, bx, by, bz)
            g12 = dot(ax, ay, az, bx, by, bz)
            w1 = dot(ax, ay, az, wx, wy, wz)
            w2 = dot(bx, by, bz, wx, wy, wz)
            nx, ny, nz = (cross(ay, bz, az, by), cross(az, bx, ax, bz),
                          cross(ax, by, ay, bx))
            det = dot(nx, ny, nz, nx, ny, nz)
            inv = np.divide(1.0, det, out=nx)
            for k, (p, q, r, s) in ((1, (g22, w1, g12, w2)),
                                    (2, (g11, w2, g12, w1))):
                np.multiply(p, q, out=lam[:, k])
                lam[:, k] -= np.multiply(r, s, out=term)
                lam[:, k] *= inv
            np.subtract(1.0, lam[:, 1], out=lam[:, 0])
            lam[:, 0] -= lam[:, 2]
            np.add(g11, g22, out=norm[:, 0])
            norm[:, 0] -= np.multiply(2.0, g12, out=term)
            norm[:, 1] = g22
            norm[:, 2] = g11
            scale = np.multiply(g11, g22, out=g11)
        else:
            cx, cy, cz = x[:, 3] - x0, y[:, 3] - y0, z[:, 3] - z0
            k1 = (cross(by, cz, bz, cy), cross(bz, cx, bx, cz),
                  cross(bx, cy, by, cx))
            k2 = (cross(cy, az, cz, ay), cross(cz, ax, cx, az),
                  cross(cx, ay, cy, ax))
            k3 = (cross(ay, bz, az, by), cross(az, bx, ax, bz),
                  cross(ax, by, ay, bx))
            det = dot(ax, ay, az, *k1)
            inv = np.divide(1.0, det)
            for k, kk in enumerate((k1, k2, k3), start=1):
                np.multiply(dot(*kk, wx, wy, wz), inv, out=lam[:, k])
            np.subtract(1.0, lam[:, 1], out=lam[:, 0])
            lam[:, 0] -= lam[:, 2]
            lam[:, 0] -= lam[:, 3]
            # into the query offsets, which are spent
            k0 = [np.add(u, v, out=w) for u, v, w in zip(k1, k2, (wx, wy, wz))]
            for u, v in zip(k0, k3):
                u += v
            for k, kk in enumerate((k0, k1, k2, k3)):
                norm[:, k] = dot(*kk, *kk)
            scale = np.maximum(np.maximum(dot(ax, ay, az, ax, ay, az),
                                          dot(bx, by, bz, bx, by, bz),
                                          out=ax),
                               dot(cx, cy, cz, cx, cy, cz), out=ax)
            scale *= np.sqrt(scale)
    return lam, det, norm, scale


def _full_rank(det, scale, n, tolerance=RANK_TOLERANCE):
    """True where a simplex with _barycentric's (det, scale) spans n
    dimensions: |a x b| > tolerance |a| |b| for n = 2 (det and scale are
    the squares), |triple product| > tolerance times the cube of the
    longest edge for n = 3.  NaN measures are degenerate."""
    if n == 2:
        return det > tolerance**2 * scale
    return np.abs(det) > tolerance * scale


def lambda_nd_batch(vertices: np.ndarray, queries: np.ndarray, n: int,
                    xi: float = DEFAULT_XI, on_degenerate: str = "raise") -> np.ndarray:
    """Dimension-aware weight operator over M simplexes.

    vertices: (M, n+1, 3) simplex vertices, queries: (M, 3).
    Returns (M, 4) weight rows in closed form (_barycentric). For n = 2
    the fourth vertex is virtual, p1 + xi (p3 - p1) x (p2 - p1): the
    query is taken in the triangle plane, so l4 is exactly 0 and xi
    enters only the check that it is nonzero. A simplex is degenerate
    when _full_rank says so. Degenerate simplexes either raise or are
    filled with NaN rows (on_degenerate = "nan"), which search code uses
    to discard unusable candidate tuples in bulk.
    """
    _check_n(n)
    if n == 2 and xi == 0.0:
        raise DegeneracyError("xi must be nonzero")
    vertices = np.asarray(vertices, dtype=float)
    queries = np.asarray(queries, dtype=float)
    _check_simplexes(vertices, queries, n)
    if vertices.shape[0] == 0:
        return np.zeros((0, 4))
    lam, det, _, scale = _barycentric(vertices, queries, n)
    out = np.zeros((len(det), 4))
    out[:, : n + 1] = lam
    good = _full_rank(det, scale, n)
    if not good.all():
        if on_degenerate == "raise":
            raise DegeneracyError(f"{int(np.sum(~good))} degenerate simplexes in batch")
        out[~good] = np.nan
    return out
