"""Distributed anomaly detection from transient-weight bounds.

Every follower continuously recomputes its communication weights from the
ACTUAL positions of its in-neighbors instead of the reference positions.
These transient weights equal the static weights exactly whenever the team
moves under a homogeneous deformation, so bounded tracking error confines
them to a computable interval around the static weights.  A follower whose
transient weight leaves the interval on any in-neighbor is flagged.

The interval follows the geometric reading of the weights: with d_k the
signed distance from the agent to the side (n = 2) or face (n = 3) opposite
in-neighbor k, and l_k the distance from neighbor k to that same side or
face, the transient weight is d_k / l_k and a deviation budget Delta on
every position shifts numerator and denominator by at most 2 Delta.  The
denominator is a height, positive in the reference, so a nonnegative
numerator is extreme over the farthest denominator l_k + 2 Delta and a
negative one over the nearest, l_k - 2 Delta:

    lo_k = (d_k - 2 Delta) / (l_k + 2 Delta)   if d_k - 2 Delta >= 0
           (d_k - 2 Delta) / (l_k - 2 Delta)   otherwise (-inf when l_k <= 2 Delta)
    hi_k = (d_k + 2 Delta) / (l_k + 2 Delta)   if d_k + 2 Delta <= 0
           (d_k + 2 Delta) / (l_k - 2 Delta)   otherwise (+inf when l_k <= 2 Delta)

Distances are signed, positive toward neighbor k, so the test stays sound
for boundary followers whose static weights are negative, below -1
included.
"""

from __future__ import annotations

import numpy as np

from .geometry import _cross_rows, _row_norms

_DEGENERATE_NORM = 1e-12

# vertex indices of the side or face opposite vertex k
_OTHERS_2 = np.array([(1, 2), (0, 2), (0, 1)])
_OTHERS_3 = np.array([(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)])


def _signed_distances(vertices, queries, n):
    """Signed agent-to-face and neighbor-to-face distances, batched.

    vertices is (m, n+1, 3), queries (m, 3).  Returns (d, l, degenerate)
    where d[:, k] is the signed distance from the query to the side or face
    opposite vertex k (positive toward vertex k) and l[:, k] the distance
    from vertex k to it.  For n = 2 the side normals lie in the neighbor
    plane, so d ignores the query's offset from that plane, as the
    weight operator's projection does.
    """
    vertices = np.asarray(vertices, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    degenerate = np.zeros(vertices.shape[0], dtype=bool)

    if n == 2:
        raw = _cross_rows(vertices[:, 2] - vertices[:, 0],
                          vertices[:, 1] - vertices[:, 0])
        norm = _row_norms(raw)
        degenerate |= norm < _DEGENERATE_NORM
        safe = np.where(degenerate, 1.0, norm)
        plane = raw / safe[:, None]
        o1 = vertices[:, _OTHERS_2[:, 0]]            # (m, 3, 3)
        o2 = vertices[:, _OTHERS_2[:, 1]]
        u = _cross_rows(plane[:, None, :], o2 - o1)
    else:
        o1 = vertices[:, _OTHERS_3[:, 0]]            # (m, 4, 3)
        o2 = vertices[:, _OTHERS_3[:, 1]]
        o3 = vertices[:, _OTHERS_3[:, 2]]
        u = _cross_rows(o2 - o1, o3 - o1)
    u_norm = _row_norms(u)
    degenerate |= (u_norm < _DEGENERATE_NORM).any(axis=1)
    u = u / np.where(u_norm < _DEGENERATE_NORM, 1.0, u_norm)[..., None]
    toward = np.einsum("mkj,mkj->mk", vertices - o1, u)
    sign = np.where(toward < 0.0, -1.0, 1.0)
    d = sign * np.einsum("mkj,mkj->mk", queries[:, None, :] - o1, u)
    l = sign * toward
    degenerate |= np.abs(l).min(axis=1) < _DEGENERATE_NORM
    return d, l, degenerate


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
    m = vertices.shape[0]
    if m == 0:
        empty = np.empty((0, n + 1))
        return empty, empty.copy(), empty.copy(), np.empty(0, dtype=bool)
    d, l, degenerate = _signed_distances(vertices, queries, n)
    # geometric identity: the transient weight toward neighbor k is the
    # ratio of signed distances d_k / l_k
    with np.errstate(invalid="ignore", divide="ignore"):
        weights = d / np.where(np.abs(l) < _DEGENERATE_NORM, np.nan, l)
        low, high = d - 2.0 * delta, d + 2.0 * delta
        far = l + 2.0 * delta
        # l <= 2 Delta lets the denominator reach zero: x / +0 is +-inf
        near = np.maximum(l - 2.0 * delta, 0.0)
        lo = low / np.where(low >= 0.0, far, near)
        hi = high / np.where(high <= 0.0, far, near)
    degenerate |= np.isnan(weights).any(axis=1)
    lo[degenerate] = np.nan
    hi[degenerate] = np.nan
    weights = np.where(degenerate[:, None], np.nan, weights)
    ok = (lo <= static_weights) & (static_weights <= hi)
    healthy = ok.all(axis=1) & ~degenerate
    return weights, lo, hi, healthy
