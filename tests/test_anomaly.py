"""Failure-detector tests.

Every case drives anomaly.evaluate_followers_batch, the one detector.
The equilateral bound values were computed by hand from the signed
point-line distances (d = 2/sqrt(3), l = 2 sqrt(3) for side 4):
lo = (d - 2*0.1) / (l + 2*0.1), hi = (d + 2*0.1) / (l - 2*0.1).  A
negative numerator takes the other denominator (see the anomaly module).
The weights are checked against the 4 x 4 bordered solve the weight
operator used before its closed form (test_geometry.bordered_solve), an
independent route to the same values: the detector and lambda_nd_batch
share one kernel.
"""
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contiform import anomaly, geometry, refnet
from conftest import DECAGON22, random_network, tilt
from test_geometry import bordered_solve

RNG_SEED = 5150

EQUILATERAL = np.array([
    [0.0, 0.0, 0.0],
    [4.0, 0.0, 0.0],
    [2.0, 2.0 * np.sqrt(3.0), 0.0],
])
EQ_CENTROID = EQUILATERAL.mean(axis=0)


def random_planar_map(rng):
    while True:
        Q2 = rng.uniform(-1.5, 1.5, size=(2, 2))
        sv = np.linalg.svd(Q2, compute_uv=False)
        if sv.min() < 0.4 or sv.max() > 2.0:
            continue
        Q = np.eye(3)
        Q[:2, :2] = Q2
        return Q, np.append(rng.uniform(-10, 10, size=2), 0.0)


def evaluate(nbrs, own, static=None, delta=0.0, n=2):
    """One follower through the batch detector: (weights, lo, hi, healthy)."""
    static = np.zeros(n + 1) if static is None else static
    w, lo, hi, healthy = anomaly.evaluate_followers_batch(
        np.asarray(nbrs, dtype=float)[None], np.asarray(own, dtype=float)[None],
        np.asarray(static, dtype=float)[None], delta, n)
    return w[0], lo[0], hi[0], bool(healthy[0])


def hand_bounds(vertices, weights, delta):
    """lo/hi from each vertex's height over the opposite side (n = 2) or
    face (n = 3), written out per simplex: l_k = n * measure / facet,
    d_k = weight_k * l_k."""
    n = len(vertices) - 1
    lo, hi = np.empty(n + 1), np.empty(n + 1)
    if n == 2:
        measure = np.linalg.norm(np.cross(vertices[1] - vertices[0],
                                          vertices[2] - vertices[0])) / 2
    else:
        measure = abs(np.linalg.det(vertices[1:] - vertices[0])) / 6
    for k in range(n + 1):
        o = np.delete(vertices, k, axis=0)
        if n == 2:
            facet = np.linalg.norm(o[1] - o[0])
        else:
            facet = np.linalg.norm(np.cross(o[1] - o[0], o[2] - o[0])) / 2
        l = n * measure / facet
        d = weights[k] * l
        low, high = d - 2 * delta, d + 2 * delta
        far, near = l + 2 * delta, l - 2 * delta
        if low >= 0:
            lo[k] = low / far
        else:
            lo[k] = low / near if near > 0 else -np.inf
        if high <= 0:
            hi[k] = high / far
        else:
            hi[k] = high / near if near > 0 else np.inf
    return lo, hi


class TestTransientWeights:
    def test_centroid(self):
        w = evaluate(EQUILATERAL, EQ_CENTROID)[0]
        np.testing.assert_allclose(w, 1.0 / 3.0, atol=1e-12)

    def test_homogeneous_invariance(self):
        rng = np.random.default_rng(RNG_SEED)
        static = evaluate(EQUILATERAL, np.array([1.0, 0.8, 0.0]))[0]
        for _ in range(50):
            Q, d = random_planar_map(rng)
            moved_nbrs = EQUILATERAL @ Q.T + d
            moved_own = Q @ np.array([1.0, 0.8, 0.0]) + d
            w = evaluate(moved_nbrs, moved_own)[0]
            np.testing.assert_allclose(w, static, atol=1e-9)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(RNG_SEED)
        nbrs = rng.uniform(-10, 10, size=(30, 3, 3))
        nbrs[..., 2] = 0.0
        own = rng.uniform(-10, 10, size=(30, 3))
        own[:, 2] = 0.0
        w, _, _, _ = anomaly.evaluate_followers_batch(
            nbrs, own, np.zeros((30, 3)), 0.0, 2)
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-9)

    def test_collinear_nan_row(self):
        flat = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        w, lo, hi, healthy = evaluate(flat, np.array([1.0, 1.0, 0.0]))
        assert np.all(np.isnan(w)) and np.all(np.isnan(lo))
        assert np.all(np.isnan(hi)) and not healthy


class TestTransientWeightBounds:
    def test_zero_delta_collapses(self):
        w, lo, hi, _ = evaluate(EQUILATERAL, np.array([1.0, 0.9, 0.0]))
        np.testing.assert_allclose(lo, w, atol=1e-12)
        np.testing.assert_allclose(hi, w, atol=1e-12)

    def test_equilateral_centroid_values(self):
        _, lo, hi, _ = evaluate(EQUILATERAL, EQ_CENTROID, delta=0.1)
        np.testing.assert_allclose(lo, 0.2605551479344983, atol=1e-12)
        np.testing.assert_allclose(hi, 0.4150301363464383, atol=1e-12)
        assert np.all(lo < 1.0 / 3.0) and np.all(hi > 1.0 / 3.0)

    def test_large_delta_unbounded_above(self):
        # side-4 equilateral: l = 2 sqrt(3) < 2 * 2.0, and d - 2 * 2.0 < 0,
        # so the denominator can reach zero on both sides
        _, lo, hi, _ = evaluate(EQUILATERAL, EQ_CENTROID, delta=2.0)
        assert np.all(hi == np.inf)
        assert np.all(lo == -np.inf)

    def test_weight_below_minus_one_is_bracketed(self):
        # the query at weights (-1.5, 1.25, 1.25) of a right triangle: the
        # first numerator is negative on both sides, so lo divides by the
        # nearest denominator and hi by the farthest
        tri = np.array([[0.0, 0, 0], [4.0, 0, 0], [0.0, 4.0, 0]])
        static = np.array([-1.5, 1.25, 1.25])
        w, lo, hi, healthy = evaluate(tri, static @ tri, static, delta=0.1)
        np.testing.assert_allclose(w, static, atol=1e-12)
        l0 = 2.0 * np.sqrt(2.0)
        d0 = -1.5 * l0
        assert lo[0] == pytest.approx((d0 - 0.2) / (l0 - 0.2), abs=1e-12)
        assert hi[0] == pytest.approx((d0 + 0.2) / (l0 + 0.2), abs=1e-12)
        assert np.all((lo <= static) & (static <= hi))
        assert healthy


class TestCheckAgentHealth:
    def test_perfect_tracking_passes(self):
        static = np.full(3, 1.0 / 3.0)
        assert evaluate(EQUILATERAL, EQ_CENTROID, static, delta=0.1)[3]

    def test_frozen_agent_fails(self):
        own = EQ_CENTROID.copy()
        static = evaluate(EQUILATERAL, own)[0]
        # neighbors advance 10 m while the agent stays put
        moved = EQUILATERAL + np.array([10.0, 0.0, 0.0])
        assert not evaluate(moved, own, static, delta=0.1)[3]


class TestEvaluateFollower:
    def test_healthy_report(self):
        own = np.array([1.0, 1.2, 0.0])
        static = evaluate(EQUILATERAL, own)[0]
        w, lo, hi, healthy = evaluate(EQUILATERAL, own, static, delta=0.1)
        assert healthy
        np.testing.assert_array_equal(w, static)
        assert np.all((lo <= static) & (static <= hi))

    def test_degenerate_actual_simplex_flags(self):
        own = np.array([1.0, 1.0, 0.0])
        static = np.full(3, 1.0 / 3.0)
        collinear = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        w, _, _, healthy = evaluate(collinear, own, static, delta=0.1)
        assert not healthy
        assert np.all(np.isnan(w))


class TestBatchEvaluation:
    def test_matches_scalar_routes(self):
        rng = np.random.default_rng(RNG_SEED)
        m = 40
        vertices = np.empty((m, 3, 3))
        queries = np.empty((m, 3))
        static = np.empty((m, 3))
        for k in range(m):
            tri = rng.uniform(-10, 10, size=(3, 3))
            tri[:, 2] = 0.0
            lam = rng.uniform(0.15, 0.7, size=3)
            lam /= lam.sum()
            vertices[k] = tri
            queries[k] = lam @ tri
            static[k] = rng.uniform(0.1, 0.6, size=3)
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            vertices, queries, static, 0.1, 2)
        solved = bordered_solve(vertices, queries, 2)[:, :3]
        np.testing.assert_allclose(w, solved, atol=1e-9)
        for k in range(m):
            los, his = hand_bounds(vertices[k], solved[k], 0.1)
            np.testing.assert_allclose(lo[k], los, atol=1e-9)
            np.testing.assert_allclose(hi[k], his, atol=1e-9)
            assert healthy[k] == bool(np.all((los <= static[k])
                                             & (static[k] <= his)))

    def test_spatial_parity(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        tet = np.array([[0.0, 0, 0], [4.0, 0, 0], [0, 4.0, 0], [0, 0, 4.0]])
        for _ in range(10):
            lam = rng.uniform(0.1, 0.5, size=4)
            lam /= lam.sum()
            query = lam @ tet
            w, lo, hi, healthy = evaluate(tet, query, lam, 0.05, 3)
            solved = bordered_solve(tet[None], query[None], 3)[0]
            np.testing.assert_allclose(w, solved, atol=1e-9)
            los, his = hand_bounds(tet, solved, 0.05)
            np.testing.assert_allclose(lo, los, atol=1e-9)
            np.testing.assert_allclose(hi, his, atol=1e-9)
            assert healthy

    def test_empty_batch(self):
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 3)), 0.1, 2)
        assert w.shape == (0, 3) and healthy.shape == (0,)

    @pytest.mark.parametrize("shape", [(3,), (1, 3), (2, 2)],
                             ids=["one-row", "row-to-broadcast", "n-columns"])
    def test_static_weights_not_one_row_per_query_are_rejected(self, shape):
        """static_weights is (m, n+1): a row for every query, not one row
        broadcast to all of them, and n+1 weights in each."""
        with pytest.raises(ValueError) as err:
            anomaly.evaluate_followers_batch(
                np.ones((2, 3, 3)), np.ones((2, 3)), np.full(shape, 1 / 3),
                0.1, 2)
        assert str(err.value) == (f"expected static_weights (2, 3), "
                                  f"got {shape}")


PROPERTY = settings(max_examples=60)
coords = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2.0 * np.pi)


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def well_shaped(vertices):
    """The simplex's smallest edge singular value is at least a tenth of
    its largest, so both routes stay far from their degeneracy tests."""
    sv = np.linalg.svd(vertices[1:] - vertices[0], compute_uv=False)
    return sv[-1] >= 0.1 * sv[0] > 0.5


class TestProperties:
    @PROPERTY
    @given(origin=st.tuples(coords, coords), heading=angles,
           opening=st.floats(0.3, np.pi - 0.3),
           sides=st.tuples(st.floats(1.0, 20.0), st.floats(1.0, 20.0)),
           l1=st.floats(-0.4, 1.4), t=st.floats(0.0, 1.0),
           delta=st.floats(0.01, 1.0), turns=st.tuples(angles, angles),
           sv=st.tuples(st.floats(0.4, 2.0), st.floats(0.4, 2.0)),
           mirror=st.booleans(), shift=st.tuples(coords, coords))
    def test_homogeneous_maps_keep_weights_and_verdict(
            self, origin, heading, opening, sides, l1, t, delta, turns, sv,
            mirror, shift):
        """A follower at the affine image of its reference point rates with
        its static weights and healthy, for any planar map with singular
        values in [0.4, 2]."""
        ref = np.zeros((3, 3))
        ref[:, :2] = origin
        for k, angle in ((1, heading), (2, heading + opening)):
            ref[k, :2] += sides[k - 1] * np.array([np.cos(angle),
                                                   np.sin(angle)])
        # every weight >= -0.4
        l2 = -0.4 + t * (1.8 - l1)
        lam = np.array([l1, l2, 1.0 - l1 - l2])
        Q = np.eye(3)
        Q[:2, :2] = rotation(turns[0]) @ np.diag(sv) @ rotation(turns[1])
        if mirror:
            Q[:2, 0] *= -1.0
        d = np.array([shift[0], shift[1], 0.0])
        own = lam @ ref
        w_ref, _, _, ok_ref = evaluate(ref, own, lam, delta)
        w_map, _, _, ok_map = evaluate(ref @ Q.T + d, Q @ own + d, lam, delta)
        np.testing.assert_allclose(w_ref, lam, atol=1e-9)
        np.testing.assert_allclose(w_map, w_ref, atol=1e-9)
        assert ok_ref and ok_map

    @PROPERTY
    @given(n=st.sampled_from([2, 3]),
           pts=st.lists(st.tuples(coords, coords, coords), min_size=5,
                        max_size=5))
    def test_weights_match_bordered_solve(self, n, pts):
        pts = np.array(pts)
        vertices, query = pts[:n + 1], pts[4]
        assume(well_shaped(vertices))
        w = evaluate(vertices, query, n=n)[0]
        solved = bordered_solve(vertices[None], query[None], n)[0]
        scale = 1.0 + np.abs(solved).max()
        np.testing.assert_allclose(w, solved[:n + 1], atol=1e-9 * scale)
        if n == 2:
            assert abs(solved[3]) <= 1e-9 * scale


class TestSoundnessAtBound:
    def test_no_false_flags_within_delta(self):
        rng = np.random.default_rng(RNG_SEED)
        net = refnet.build_reference_configuration(DECAGON22, n=2, rho=0.1)
        order = list(net.agent_order)
        idx = {a: k for k, a in enumerate(order)}
        ref = np.stack([net.ref_positions[a] for a in order])
        delta = 0.3
        followers = list(net.followers)
        static = np.stack([
            np.array([net.weights[(f, a)] for a in net.in_neighbors[f]])
            for f in followers])
        nbr_idx = np.stack([
            np.array([idx[a] for a in net.in_neighbors[f]])
            for f in followers])
        fol_idx = np.array([idx[f] for f in followers])
        for _ in range(200):
            Q, d = random_planar_map(rng)
            desired = ref @ Q.T + d
            actual = desired + rng.uniform(-delta / np.sqrt(3.0),
                                           delta / np.sqrt(3.0),
                                           size=ref.shape)
            w, lo, hi, healthy = anomaly.evaluate_followers_batch(
                actual[nbr_idx], actual[fol_idx], static, delta, 2)
            assert healthy.all()


def check_against_routes(vertices, query, static, delta):
    """The detector's row against the bordered solve (weights) and the
    per-simplex heights of hand_bounds (bounds, verdict)."""
    n = len(vertices) - 1
    w, lo, hi, healthy = evaluate(vertices, query, static, delta, n)
    solved = bordered_solve(vertices[None], query[None], n)[0]
    scale = 1.0 + np.abs(solved).max()
    np.testing.assert_allclose(w, solved[:n + 1], rtol=0, atol=1e-9 * scale)
    los, his = hand_bounds(vertices, solved[:n + 1], delta)
    for got, want in ((lo, los), (hi, his)):
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9,
                                   atol=1e-9 * scale)
    gap = np.minimum(np.abs(static - los), np.abs(static - his)).min()
    assume(gap > 1e-6 * scale)   # a verdict on the edge of a bound is moot
    assert healthy == bool(np.all((los <= static) & (static <= his)))


offsets = st.lists(st.floats(-0.5, 0.5), min_size=4, max_size=4)


class TestGradientKernel:
    """The barycentric-gradient detector against the bordered solve and
    hand_bounds, off the z = 0 plane and beyond the simplex."""

    @PROPERTY
    @given(corners=st.lists(st.tuples(coords, coords), min_size=3,
                            max_size=3),
           turn=st.tuples(angles, angles, angles),
           lam=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           lift=st.floats(-5.0, 5.0), delta=st.floats(0.0, 1.0),
           shift=st.tuples(coords, coords, coords), offset=offsets)
    def test_tilted_triangles(self, corners, turn, lam, lift, delta, shift,
                              offset):
        """n = 2 in a tilted plane, with the query lifted off it and
        weights down to -3."""
        flat = np.zeros((3, 3))
        flat[:, :2] = corners
        assume(well_shaped(flat))
        rot = tilt(*turn)
        vertices = flat @ rot.T + np.array(shift)
        weights = np.array([1.0 - lam[0] - lam[1], lam[0], lam[1]])
        query = weights @ vertices + lift * rot[:, 2]
        check_against_routes(vertices, query, weights + offset[:3], delta)

    @PROPERTY
    @given(pts=st.lists(st.tuples(coords, coords, coords), min_size=5,
                        max_size=5),
           delta=st.floats(0.0, 1.0), offset=offsets)
    def test_tetrahedra(self, pts, delta, offset):
        """n = 3, with the query anywhere: weights below -1 included."""
        pts = np.array(pts)
        assume(well_shaped(pts[:4]))
        solved = bordered_solve(pts[None, :4], pts[None, 4], 3)[0]
        check_against_routes(pts[:4], pts[4], solved + offset, delta)

    @PROPERTY
    @given(n=st.sampled_from([2, 3]),
           base=st.tuples(*[st.integers(-20, 20)] * 3),
           steps=st.tuples(*[st.integers(-20, 20)] * 3),
           along=st.lists(st.integers(-4, 4), min_size=4, max_size=4),
           good=st.lists(st.tuples(coords, coords, coords), min_size=4,
                         max_size=4),
           query=st.tuples(coords, coords, coords))
    def test_degenerate_rows_are_nan_and_unhealthy(self, n, base, steps,
                                                   along, good, query):
        """Collinear triangles and coplanar tetrahedra on an integer grid,
        so exactly degenerate, give NaN rows flagged unhealthy; the good
        row batched with them is untouched."""
        base, step = np.array(base, float), np.array(steps, float)
        flat = base + np.outer(along[:n + 1], step)
        if n == 3:   # the fourth vertex in the plane of the first three
            side = np.array([step[1], -step[0], 0.0])
            flat[3] = base + along[3] * step + along[0] * side
            flat[2] = base + along[2] * side
        good = np.array(good)[:n + 1]
        assume(well_shaped(good))
        vertices = np.stack([flat, good])
        queries = np.array([query, query])
        static = np.full((2, n + 1), 1.0 / (n + 1))
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            vertices, queries, static, 0.1, n)
        for row in (w[0], lo[0], hi[0]):
            assert np.all(np.isnan(row))
        assert not healthy[0]
        alone = anomaly.evaluate_followers_batch(
            vertices[1:], queries[1:], static[1:], 0.1, n)
        for got, want in zip((w[1:], lo[1:], hi[1:], healthy[1:]), alone):
            np.testing.assert_array_equal(got, want)


def reference_rows(vertices, queries, static, delta, n):
    """evaluate_followers_batch written as plain expressions, one fresh
    array each: the bit-for-bit reference of the in-place detector."""
    weights, det, norm, scale = geometry._barycentric(vertices, queries, n)
    degenerate = (~geometry._full_rank(det, scale, n)
                  | np.isnan(weights[:, 0]))
    two = 2.0 * delta
    with np.errstate(invalid="ignore", divide="ignore"):
        if n == 2:
            l = np.sqrt(det[:, None] / norm)
        else:
            l = np.abs(det)[:, None] / np.sqrt(norm)
        d = weights * l
        low, high = d - two, d + two
        far = l + two
        near = np.maximum(l - two, 0.0)
        lo = low / np.where(low >= 0.0, far, near)
        hi = high / np.where(high <= 0.0, far, near)
    healthy = ((lo <= static) & (static <= hi)).all(axis=1)
    weights[degenerate] = lo[degenerate] = hi[degenerate] = np.nan
    return weights, lo, hi, healthy & ~degenerate


@st.composite
def detector_rows(draw, n):
    """One detector row for dimension n: vertices (n+1, 3), query (3,) and
    static weights (n+1,).  Its simplex is of any shape, shrunk so that
    its heights l_k are about Delta (bounds infinite where l_k <= 2 Delta),
    or exactly degenerate (collinear on an integer grid); the query has
    weights down to -3 and for n = 2 lies off the simplex's plane."""
    kind = draw(st.sampled_from(["free", "small", "degenerate"]))
    if kind == "degenerate":
        base, step = (np.array(draw(st.tuples(*[st.integers(-20, 20)] * 3)),
                               float) for _ in range(2))
        along = draw(st.lists(st.integers(-4, 4), min_size=n + 1,
                              max_size=n + 1))
        vertices = base + np.outer(along, step)
    else:
        vertices = np.array(draw(st.lists(st.tuples(coords, coords, coords),
                                          min_size=n + 1, max_size=n + 1)))
        if kind == "small":
            vertices = vertices[0] + 0.02 * (vertices - vertices[0])
    rest = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    lam = np.array([1.0 - sum(rest), *rest])
    query = lam @ vertices + draw(st.floats(-5.0, 5.0)) * (n == 2)
    # static weights off the actual ones on some slots only, so that a
    # verdict can hang on any one slot
    offset = draw(st.lists(st.just(0.0) | st.floats(-0.5, 0.5),
                           min_size=n + 1, max_size=n + 1))
    return vertices, query, lam + offset


class TestBitForBit:
    """The in-place detector gives exactly what its plain expressions
    give: weights, bounds and verdict, NaN rows included."""

    @PROPERTY
    @given(data=st.data(), n=st.sampled_from([2, 3]),
           count=st.integers(1, 12),
           delta=st.sampled_from([0.0, 0.1, 0.5]) | st.floats(0.0, 5.0))
    def test_matches_the_plain_expressions(self, data, n, count, delta):
        rows = [data.draw(detector_rows(n)) for _ in range(count)]
        vertices, queries, static = (np.array(col) for col in zip(*rows))
        got = anomaly.evaluate_followers_batch(vertices, queries, static,
                                               delta, n)
        want = reference_rows(vertices, queries, static, delta, n)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype and a.shape == b.shape


def linear_rows(seed, n, count, flatten, blind, near_one, ratio, shift):
    """count detector rows for dimension n at the edge of the linear test:
    vertices (count, n+1, 3), queries (count, 3), static weights
    (count, n+1), Delta, and the test's columns (3, n+1, count) and reach.
    Each simplex is squashed along a random direction, in its plane for
    n = 2, by a factor down to flatten (near degenerate for a small one).
    Delta is blind times the simplexes' size (blind followers,
    l_k <= 2 Delta, for a large one).
    Static weights reach -8 and 10; a share near_one of the rows has one
    within 1e-8 to 1e-1 of +-1.  Each query is off its static point by an
    e of ratio (a range) times the test's limit 2 Delta (1 - QUIET_SLACK):
    on half of the rows in a random direction, on the others along the
    normal of the side or face opposite a neighbor k of static weight 0,
    where the bound is tight.  Every coordinate is shifted by up to shift
    times QUIET_REACH times 2 Delta."""
    rng = np.random.default_rng(seed)
    vertices = rng.normal(size=(count, n + 1, 3)) * 10.0
    u = rng.normal(size=(count, 3)) if n == 3 else np.einsum(
        "mk,mkc->mc", rng.normal(size=(count, 2)),   # in the plane
        vertices[:, 1:] - vertices[:, :1])
    u /= np.linalg.norm(u, axis=1)[:, None]
    along = np.einsum("mkc,mc->mk", vertices, u)
    squash = flatten ** rng.uniform(0.0, 1.0, count) - 1.0
    vertices += (squash[:, None] * along)[..., None] * u[:, None]
    delta = 10.0 * blind
    rest = rng.uniform(-1.0, 1.0, (count, n)) \
        * rng.choice([1.0, 3.0], count)[:, None]
    pick = rng.uniform(size=count) < near_one
    rest[pick, 0] = rng.choice([-1.0, 1.0], pick.sum()) * (
        1.0 - 10.0 ** -rng.uniform(1.0, 8.0, pick.sum()))
    rows = np.arange(count)
    k = rng.integers(1, n + 1, count)
    tight = rng.uniform(size=count) < 0.5
    rest[rows[tight], k[tight] - 1] = 0.0
    static = np.column_stack((1.0 - rest.sum(axis=1), rest))
    e = rng.normal(size=(count, 3))
    # the normal of the side or face opposite k, toward k
    opposite = np.array([[j for j in range(n + 1) if j != i]
                         for i in range(n + 1)])
    o = vertices[rows[:, None], opposite[k]]
    h = vertices[rows, k] - o[:, 0]
    sides = o[:, 1:] - o[:, :1]
    if n == 2:
        t = sides[:, 0] / np.linalg.norm(sides[:, 0], axis=1)[:, None]
        normal = h - np.einsum("mc,mc->m", h, t)[:, None] * t
    else:
        normal = np.cross(sides[:, 0], sides[:, 1])
        normal *= np.sign(np.einsum("mc,mc->m", h, normal))[:, None]
    e[tight] = normal[tight] * rng.choice([-1.0, 1.0], tight.sum())[:, None]
    size = 2.0 * delta * (1.0 - anomaly.QUIET_SLACK) \
        * rng.uniform(*ratio, count)
    e *= (size / np.linalg.norm(e, axis=1))[:, None]
    offset = np.zeros(3)
    offset[rng.integers(3)] = shift * anomaly.QUIET_REACH * 2.0 * delta
    vertices += offset
    queries = np.einsum("mk,mkc->mc", static, vertices) + e
    cols = np.concatenate(
        ((queries - np.einsum("mk,mkc->mc", static, vertices))[:, None],
         vertices[:, 1:] - vertices[:, :1]), axis=1).T
    reach = max(np.abs(vertices).max(), np.abs(queries).max())
    return vertices, queries, static, delta, cols, reach


class TestLinearTest:
    """A row that passes the linear test and its rank certificate
    (anomaly._quiet) is healthy under evaluate_followers_batch, and the
    certificate alone implies geometry._full_rank (see the anomaly module
    docstring)."""

    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]),
           flatten=st.sampled_from([1.0, 1e-2, 1e-4, 1e-9]),
           blind=st.floats(1e-3, 10.0), near_one=st.sampled_from([0.0, 0.5]),
           ratio=st.sampled_from([(0.0, 1.0), (0.999, 1.0), (0.999, 1.001)]),
           shift=st.sampled_from([0.0, 0.25, 0.49]))
    def test_passing_rows_are_healthy_and_full_rank(
            self, seed, n, flatten, blind, near_one, ratio, shift):
        vertices, queries, static, delta, cols, reach = linear_rows(
            seed, n, 500, flatten, blind, near_one, ratio, shift)
        quiet = anomaly._quiet(cols, reach, delta, n)
        healthy = anomaly.evaluate_followers_batch(vertices, queries, static,
                                                   delta, n)[3]
        assert healthy[quiet].all()
        cols[:, 0] = 0.0   # the certificate alone
        certified = anomaly._quiet(cols, 0.0, delta, n)
        _, det, _, scale = geometry._barycentric(vertices, queries, n)
        assert geometry._full_rank(det, scale, n)[certified].all()

    @pytest.mark.parametrize("n", [2, 3])
    def test_it_passes_rows_up_to_its_limit_and_reach(self, n):
        """Well-shaped rows pass up to the limit, near the reach too, and
        fail past it, where a neighbor of weight 0 is flagged soon after;
        no row passes once a coordinate exceeds the reach."""
        def rows(ratio, shift, reach=None):
            vertices, queries, static, delta, cols, largest = linear_rows(
                7, n, 500, 0.5, 0.05, 0.5, ratio, shift)
            reach = largest if reach is None else reach * 2.0 * delta
            healthy = anomaly.evaluate_followers_batch(
                vertices, queries, static, delta, n)[3]
            tight = (static[:, 1:] == 0.0).any(axis=1)
            quiet = anomaly._quiet(cols, reach, delta, n)
            cols[:, 0] = 0.0
            return quiet, healthy, tight, anomaly._quiet(cols, reach, delta, n)

        quiet, *_, certified = rows((0.99, 1.0), 0.49)
        assert certified.mean() > 0.9 and np.array_equal(quiet, certified)
        assert not rows((1.0001, 1.01), 0.0)[0].any()
        far = 1.0001 * anomaly.QUIET_REACH
        assert not rows((0.0, 0.5), 0.0, far)[0].any()
        # (1 - QUIET_SLACK) (1 + 2 QUIET_SLACK) > 1
        _, healthy, tight, _ = rows((1.002, 1.01), 0.0)
        assert tight.mean() > 0.4 and not healthy[tight].any()


def rotation3(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    return q * np.sign(np.diag(r))


def disturbed_team(seed, n, sigmas, reach):
    """A random network moved by a homogeneous deformation Q (singular
    values sigmas, a reflection for odd seeds; for n = 2 it tilts the
    plane too) and every agent pushed reach * Delta in a random direction.
    Returns the detector's verdicts."""
    rng = np.random.default_rng(seed)
    _, net = random_network(rng, 10 if n == 2 else 12, n)
    order = list(net.agent_order)
    idx = {a: k for k, a in enumerate(order)}
    ref = np.stack([net.ref_positions[a] for a in order])
    followers = list(net.followers)
    static = np.array([[net.weights[(f, a)] for a in net.in_neighbors[f]]
                       for f in followers])
    nbr_idx = np.array([[idx[a] for a in net.in_neighbors[f]]
                        for f in followers])
    Q = rotation3(rng) @ np.diag(sigmas) @ rotation3(rng)
    if seed % 2:
        Q[:, 0] *= -1.0
    actual = ref @ Q.T + rng.uniform(-20.0, 20.0, 3)
    push = rng.normal(size=actual.shape)
    actual += reach * DELTA * push / np.linalg.norm(push, axis=1)[:, None]
    fol_idx = np.array([idx[f] for f in followers])
    return anomaly.evaluate_followers_batch(
        actual[nbr_idx], actual[fol_idx], static, DELTA, n)[3]


DELTA = 0.3
team_draws = dict(seed=st.integers(0, 2**32 - 1),
                  sigmas=st.tuples(*[st.floats(0.5, 2.0)] * 3))


class TestNoFalseFlags:
    """No false flags under homogeneous motion with every agent within
    Delta of its desired position (ROADMAP item 5)."""

    @PROPERTY
    @given(**team_draws)
    def test_planar_teams(self, seed, sigmas):
        assert disturbed_team(seed, 2, sigmas, 1.0).all()

    @PROPERTY
    @given(**team_draws)
    @example(seed=1, sigmas=(0.5, 1.0, 2.0))
    @pytest.mark.xfail(strict=True, reason=(
        "unsound for n = 3: a shift of 2 Delta bounds d_k and l_k only "
        "while the point projects inside the opposite face; the pinned "
        "example's boundary follower (weights -0.55, 0.81, 0.11, 0.63) "
        "falls below its lower bound 0.127 on the third neighbor"))
    def test_spatial_teams(self, seed, sigmas):
        assert disturbed_team(seed, 3, sigmas, 1.0).all()
