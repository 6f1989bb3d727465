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

A linear test decides most rows without the kernel.  Let w be a
follower's static weights, p_k its in-neighbors' actual positions and
e = r - sum_k w_k p_k its offset from the point that w picks out among
them.  lambda_k is affine with gradient g_k and that point has the weights
w, so lambda_k(r) = w_k + g_k . e: d_k = w_k l_k + c_k with
c_k = e . g_k / |g_k|, and |c_k| <= |e|.  If |e| <= 2 Delta = D, then in
either sign case

    lo_k = (d_k - D) / (l_k + D) <= (d_k - D) / l_k   if d_k - D >= 0
    lo_k = (d_k - D) / (l_k - D) <= (d_k - D) / l_k   otherwise (or -inf)

and (d_k - D) / l_k <= (d_k - c_k) / l_k = w_k; in the same way
hi_k >= (d_k + D) / l_k >= w_k.  So |e| <= 2 Delta implies
the verdict "healthy" on every in-neighbor, whatever the static weights
and the heights are, as long as the simplex is full rank: the bounds are
the extremes of (d_k + a) / (l_k + b) over |a|, |b| <= 2 Delta, and w_k is
the point a = -c_k, b = 0.  The bound is tight: a weight w_k = 0 is
flagged once c_k exceeds 2 Delta.  The test (_quiet) asks for
|e| <= 2 Delta (1 - QUIET_SLACK), which leaves at least 2 Delta QUIET_SLACK
/ l_k in the step through w_k.  Its rank certificate is geometry._full_rank
with the cutoff s = QUIET_SINE over the edges a = p1 - p0, b = p2 - p0
(and c = p3 - p0): for n = 2, det = |a|^2 |b|^2 - (a . b)^2 = |a x b|^2 by
Lagrange's identity and scale = |a|^2 |b|^2; for n = 3, the triple product
against the cube of the longest edge.  That rounds the measures of
_barycentric, where the cutoff is RANK_TOLERANCE = 1e-9, so the certificate
implies full rank with a margin of seven orders of magnitude or more.

The slack covers rounding.  The kernel's edges and query offsets are
exact differences rounded once, and each of its later steps adds a few
units u = 2^-53 of relative error, amplified at most by 1/s^2 (for n = 2
the cancellation in |p2 - p1|^2 = |a|^2 + |b|^2 - 2 a . b).  Carried to
the step through w_k, in units of length, that is well below 500 u times
the row's largest length (a coordinate, edge, height, offset or 2 Delta)
over s^2; e itself, a product of positions with the static weights, whose
sum is 1 to within a few u, is off by less than 50 u times the largest
coordinate.  Where a numerator's sign rounds the other way, it is within
its rounding of zero, and so is either quotient.  The test applies only
to rows with s > QUIET_SINE whose coordinates are at most QUIET_REACH
times 2 Delta (so every length at most 2 sqrt 3 times that), and there
all of it stays below 2e-5 times 2 Delta: a fiftieth of the slack.
"""

from __future__ import annotations

import numpy as np

from .geometry import _barycentric, _check_n, _check_simplexes, _full_rank

# The linear test (see the module docstring): the share of 2 Delta it
# leaves for rounding, the least sine of its rank certificate, and the
# largest coordinate it accepts, in units of 2 Delta.
QUIET_SLACK = 1e-3
QUIET_SINE = 1e-2
QUIET_REACH = 1e4


def _quiet(cols, reach, delta, n):
    """True where a follower row passes the linear test and its rank
    certificate, so that evaluate_followers_batch finds it healthy (see the
    module docstring).  cols (3, n+1, ...) holds, per coordinate, the
    offset e and the edges p_k - p_0 of each row; reach is the largest
    |coordinate| of the positions they come from (NaN fails every row)."""
    if not reach <= QUIET_REACH * 2.0 * delta:
        return np.zeros(cols.shape[2:], dtype=bool)
    square = np.square(cols)
    norms = square[0]   # |e|^2 and each edge's squared length
    norms += square[1]
    norms += square[2]
    quiet = norms[0] <= (2.0 * delta * (1.0 - QUIET_SLACK))**2
    if n == 2:   # Lagrange: |a x b|^2 = |a|^2 |b|^2 - (a . b)^2
        scale = np.multiply(norms[1], norms[2], out=norms[1])
        det = np.einsum("c...,c...->...", cols[:, 1], cols[:, 2])
        det = np.subtract(scale, np.square(det, out=det), out=det)
    else:
        (_, ax, bx, cx), (_, ay, by, cy), (_, az, bz, cz) = cols
        det = ax * (by * cz - bz * cy)
        det += ay * (bz * cx - bx * cz)
        det += az * (bx * cy - by * cx)
        scale = np.maximum(np.maximum(norms[1], norms[2], out=norms[1]),
                           norms[3], out=norms[1])
        scale *= np.sqrt(scale)   # the longest edge, cubed
    quiet &= _full_rank(det, scale, n, QUIET_SINE)
    return quiet


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
