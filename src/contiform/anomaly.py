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
of the query from it, positive toward neighbor k.  The weights and |g_k|
come from the closed-form kernel geometry._barycentric, which the network
build shares through lambda_nd_batch, so at the reference formation the
transient weights are the static ones bit for bit, and a follower's actual
neighbor simplex is degenerate exactly when geometry._full_rank, the rank
test of the network build, says so.  For n = 2 the gradients come from
the 2 x 2 Gram matrix of the edges p1 - p0 and p2 - p0 and lie in the
neighbor plane, so the query's offset from that plane drops out; for
n = 3 they are the cross products of the edges p1 - p0, p2 - p0 and
p3 - p0 over their triple product.

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

from .geometry import _barycentric, _check_n, _check_simplexes, _full_rank


def evaluate_followers_batch(vertices, queries, static_weights, delta, n):
    """Vectorized condition Psi over many followers at once.

    vertices is (m, n+1, 3) actual in-neighbor positions, queries (m, 3) the
    followers' own actual positions, static_weights (m, n+1): other shapes
    raise ValueError.  Returns (weights (m, n+1), lo, hi, healthy (m,)
    bool).  Rows with a degenerate actual simplex (geometry._full_rank) or
    non-finite weights get NaN entries and healthy = False.
    """
    _check_n(n)
    vertices = np.asarray(vertices, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    static_weights = np.asarray(static_weights, dtype=np.float64)
    _check_simplexes(vertices, queries, n)
    if static_weights.shape != (len(queries), n + 1):
        raise ValueError(f"expected static_weights ({len(queries)}, {n + 1}), "
                         f"got {static_weights.shape}")
    if vertices.shape[0] == 0:
        empty = np.empty((0, n + 1))
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=bool)
    weights, det, norm, scale = _barycentric(vertices, queries, n)
    degenerate = ~_full_rank(det, scale, n) | np.isnan(weights[:, 0])
    two = 2.0 * delta
    # in place where the operands allow: the arrays are (m, n+1) and fresh
    with np.errstate(invalid="ignore", divide="ignore"):
        if n == 2:
            # |g_k|^2 = norm_k / det
            l = np.sqrt(np.divide(det[:, None], norm, out=norm), out=norm)
        else:
            # |g_k| = |k_k| / |det|
            np.sqrt(norm, out=norm)
            l = np.divide(np.abs(det)[:, None], norm, out=norm)
        lo = weights * l          # d, then its low end d - 2 Delta
        hi = lo + two
        lo -= two
        far = l + two
        # l <= 2 Delta lets the denominator reach zero: x / +0 is +-inf
        near = np.maximum(np.subtract(l, two, out=l), 0.0, out=l)
        lo /= np.where(lo >= 0.0, far, near)
        hi /= np.where(hi <= 0.0, far, near)
    inside = lo <= static_weights
    inside &= static_weights <= hi
    healthy = inside[:, 0] & inside[:, 1]
    for k in range(2, n + 1):
        healthy &= inside[:, k]
    if degenerate.any():
        weights[degenerate] = lo[degenerate] = hi[degenerate] = np.nan
        healthy &= ~degenerate
    return weights, lo, hi, healthy
