"""Failure-detector tests.

Every case drives anomaly.evaluate_followers_batch, the one detector.
The equilateral bound values were computed by hand from the signed
point-line distances (d = 2/sqrt(3), l = 2 sqrt(3) for side 4):
lo = (d - 2*0.1) / (l + 2*0.1), hi = (d + 2*0.1) / (l - 2*0.1).
The weights are checked against the bordered solve of
geometry.lambda_nd_batch, an independent route to the same values.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contiform import anomaly, geometry, refnet
from conftest import DECAGON22

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
        lo[k] = (d - 2 * delta) / (l + 2 * delta)
        hi[k] = (d + 2 * delta) / (l - 2 * delta) if l > 2 * delta else np.inf
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
        # side-4 equilateral: l = 2 sqrt(3) < 2 * 2.0
        _, lo, hi, _ = evaluate(EQUILATERAL, EQ_CENTROID, delta=2.0)
        assert np.all(np.isinf(hi))
        assert np.all(np.isfinite(lo))


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
        solved = geometry.lambda_nd_batch(vertices, queries, 2)[:, :3]
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
            solved = geometry.lambda_nd_batch(tet[None], query[None], 3)[0]
            np.testing.assert_allclose(w, solved, atol=1e-9)
            los, his = hand_bounds(tet, solved, 0.05)
            np.testing.assert_allclose(lo, los, atol=1e-9)
            np.testing.assert_allclose(hi, his, atol=1e-9)
            assert healthy

    def test_empty_batch(self):
        w, lo, hi, healthy = anomaly.evaluate_followers_batch(
            np.empty((0, 3, 3)), np.empty((0, 3)), np.empty((0, 3)), 0.1, 2)
        assert w.shape == (0, 3) and healthy.shape == (0,)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
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
        # every weight >= -0.4: the bounds bracket any weight above -1
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
        solved = geometry.lambda_nd_batch(vertices[None], query[None], n)[0]
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
