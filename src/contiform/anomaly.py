"""Distributed anomaly detection from transient-weight bounds.

Every follower continuously recomputes its communication weights from the
ACTUAL positions of its in-neighbors instead of the reference positions.
These transient weights equal the static weights exactly whenever the team
moves under a homogeneous deformation, so bounded tracking error confines
them to a computable interval around the static weights.  A follower whose
transient weight leaves the interval on any in-neighbor is flagged.

Each weight lambda_k is an affine function of the query point with a
constant gradient g_k: it is 1 on in-neighbor k and 0 on the side (n = 2)
or face (n = 3) opposite it.  So l_k = 1 / |g_k| is the height of neighbor
k over that side or face, and d_k = lambda_k / |g_k| the signed distance
of the query from it, positive toward neighbor k.  For n = 2 the gradients
come from the 2 x 2 Gram matrix of the edges p1 - p0 and p2 - p0 and lie in
the neighbor plane, so the query's offset from that plane drops out, as in
the weight operator's projection; for n = 3 they are the cross products of
the edges p1 - p0, p2 - p0 and p3 - p0 over their triple product.

The transient weight is d_k / l_k, and a deviation budget Delta on every
position shifts numerator and denominator by at most 2 Delta.  The
denominator is a height, positive in the reference, so a nonnegative
numerator is extreme over the farthest denominator l_k + 2 Delta and a
negative one over the nearest, l_k - 2 Delta:

    lo_k = (d_k - 2 Delta) / (l_k + 2 Delta)   if d_k - 2 Delta >= 0
           (d_k - 2 Delta) / (l_k - 2 Delta)   otherwise (-inf when l_k <= 2 Delta)
    hi_k = (d_k + 2 Delta) / (l_k + 2 Delta)   if d_k + 2 Delta <= 0
           (d_k + 2 Delta) / (l_k - 2 Delta)   otherwise (+inf when l_k <= 2 Delta)

The distances are signed, so the test stays sound for boundary followers
whose static weights are negative, below -1 included.
"""

from __future__ import annotations

import numpy as np

_DEGENERATE_NORM = 1e-12


def _gradients(vertices, queries, n):
    """Weights lam and heights l, (m, n+1) each, of m queries (m, 3) in
    the simplexes vertices (m, n+1, 3), and the (m,) degenerate mask.

    Works on the coordinate columns: no (m, n+1, 3) temporaries.
    """
    x, y, z = vertices[..., 0], vertices[..., 1], vertices[..., 2]
    x0, y0, z0 = x[:, 0], y[:, 0], z[:, 0]
    wx, wy, wz = queries[:, 0] - x0, queries[:, 1] - y0, queries[:, 2] - z0
    ax, ay, az = x[:, 1] - x0, y[:, 1] - y0, z[:, 1] - z0
    bx, by, bz = x[:, 2] - x0, y[:, 2] - y0, z[:, 2] - z0
    lam = np.empty((len(x0), n + 1))
    # |g_k| up to a common factor: squared for n = 2, plain for n = 3
    norm = np.empty((len(x0), n + 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        if n == 2:
            g11 = ax * ax + ay * ay + az * az
            g22 = bx * bx + by * by + bz * bz
            g12 = ax * bx + ay * by + az * bz
            w1 = ax * wx + ay * wy + az * wz
            w2 = bx * wx + by * wy + bz * wz
            # the Gram determinant as |a x b|^2, free of cancellation
            nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            det = nx * nx + ny * ny + nz * nz
            inv = 1.0 / det
            lam[:, 1] = (g22 * w1 - g12 * w2) * inv
            lam[:, 2] = (g11 * w2 - g12 * w1) * inv
            lam[:, 0] = 1.0 - lam[:, 1] - lam[:, 2]
            # |g_1|^2 = g22 / det, |g_2|^2 = g11 / det, |g_0|^2 = |p2-p1|^2 / det
            norm[:, 0] = g11 + g22 - 2.0 * g12
            norm[:, 1] = g22
            norm[:, 2] = g11
            l = np.sqrt(det[:, None] / norm)
            degenerate = ~(det >= _DEGENERATE_NORM**2)
        else:
            cx, cy, cz = x[:, 3] - x0, y[:, 3] - y0, z[:, 3] - z0
            # rows of the inverse edge matrix: b x c, c x a, a x b over V
            k1x, k1y, k1z = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
            k2x, k2y, k2z = cy * az - cz * ay, cz * ax - cx * az, cx * ay - cy * ax
            k3x, k3y, k3z = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
            vol = ax * k1x + ay * k1y + az * k1z
            inv = 1.0 / vol
            lam[:, 1] = (k1x * wx + k1y * wy + k1z * wz) * inv
            lam[:, 2] = (k2x * wx + k2y * wy + k2z * wz) * inv
            lam[:, 3] = (k3x * wx + k3y * wy + k3z * wz) * inv
            lam[:, 0] = 1.0 - lam[:, 1] - lam[:, 2] - lam[:, 3]
            k0x, k0y, k0z = k1x + k2x + k3x, k1y + k2y + k3y, k1z + k2z + k3z
            norm[:, 0] = k0x * k0x + k0y * k0y + k0z * k0z
            norm[:, 1] = k1x * k1x + k1y * k1y + k1z * k1z
            norm[:, 2] = k2x * k2x + k2y * k2y + k2z * k2z
            norm[:, 3] = k3x * k3x + k3y * k3y + k3z * k3z
            np.sqrt(norm, out=norm)
            l = np.abs(vol)[:, None] / norm
            degenerate = ~(norm >= _DEGENERATE_NORM).all(axis=1)
        degenerate |= ~(l >= _DEGENERATE_NORM).all(axis=1)
    degenerate |= np.isnan(lam[:, 0])
    return lam, l, degenerate


def evaluate_followers_batch(vertices, queries, static_weights, delta, n):
    """Vectorized condition Psi over many followers at once.

    vertices is (m, n+1, 3) actual in-neighbor positions, queries (m, 3) the
    followers' own actual positions, static_weights (m, n+1).  Returns
    (weights (m, n+1), lo, hi, healthy (m,) bool).  Rows with a degenerate
    actual simplex get NaN entries and healthy = False.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    static_weights = np.asarray(static_weights, dtype=np.float64)
    if vertices.shape[0] == 0:
        empty = np.empty((0, n + 1))
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=bool)
    weights, l, degenerate = _gradients(vertices, queries, n)
    two = 2.0 * delta
    with np.errstate(invalid="ignore", divide="ignore"):
        d = weights * l
        low, high = d - two, d + two
        far = l + two
        # l <= 2 Delta lets the denominator reach zero: x / +0 is +-inf
        near = np.maximum(l - two, 0.0)
        lo = low / np.where(low >= 0.0, far, near)
        hi = high / np.where(high <= 0.0, far, near)
    healthy = ((lo <= static_weights) & (static_weights <= hi)).all(axis=1)
    if degenerate.any():
        weights[degenerate] = lo[degenerate] = hi[degenerate] = np.nan
        healthy &= ~degenerate
    return weights, lo, hi, healthy
