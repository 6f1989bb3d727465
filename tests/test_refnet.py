"""Reference-network construction tests.

The 22-agent decagon formation (conftest) is the worked example: its
boundary/interior split was cross-checked against scipy's convex hull
and its matrices against hand-solved small cases.
"""
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from contiform import geometry, refnet
from contiform.errors import DegeneracyError, NetworkError, SelectionError
from conftest import random_network, sample_formation

RNG_SEED = 47

# square corners plus one interior agent; (2, 2) would sit on both
# diagonals (zero weight in every corner triple), so keep it off-center
SQUARE5 = {
    1: (0.0, 0.0, 0.0),
    2: (4.0, 0.0, 0.0),
    3: (4.0, 4.0, 0.0),
    4: (0.0, 4.0, 0.0),
    5: (2.0, 1.0, 0.0),
}


def build(pts, n=2, **kwargs):
    return refnet.build_reference_configuration(pts, n=n, **kwargs)


class TestClassify:
    def test_square_with_center(self):
        net = build(SQUARE5)
        assert net.boundary == frozenset({1, 2, 3, 4})
        assert net.interior == frozenset({5})

    def test_too_few_agents(self):
        pts = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0)}
        with pytest.raises(DegeneracyError):
            build(pts)

    def test_decagon22_split(self, decagon22_network):
        assert decagon22_network.boundary == frozenset(range(1, 11))
        assert decagon22_network.interior == frozenset(range(11, 23))

    def test_matches_convex_hull(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(8):
            formation = sample_formation(rng, 14, 2)
            ids = sorted(formation)
            pts = np.stack([formation[i][:2] for i in ids])
            hull_ids = {ids[v] for v in ConvexHull(pts).vertices}
            # hull vertices can never be enclosed
            assert hull_ids <= set(build(formation).boundary)


class TestSelectLeaders:
    def test_max_area_lowest_ids(self):
        # all four corner triples have equal area: lowest id tuple wins
        assert build(SQUARE5).leaders == (1, 2, 3)
        assert refnet.select_leaders(build(SQUARE5).boundary, SQUARE5,
                                     n=2) == (1, 2, 3)

    def test_override_returned_verbatim(self):
        net = build(SQUARE5, leader_override=(2, 4, 1))
        assert net.leaders == (2, 4, 1)
        # the boundary follower feeds on the leaders in override order
        assert net.in_neighbors[3] == (2, 4, 1)

    def test_override_interior_id(self):
        with pytest.raises(SelectionError):
            build(SQUARE5, leader_override=(1, 2, 5))

    def test_override_wrong_count(self):
        with pytest.raises(SelectionError):
            build(SQUARE5, leader_override=(1, 2))


def _per_tuple_leaders(boundary, ref_positions, n):
    """select_leaders' measure as a loop over tuples: the triangle area
    from a cross product, the tetrahedron volume from a determinant."""
    best, best_measure = None, -1.0
    for combo in itertools.combinations(sorted(boundary), n + 1):
        pts = [np.asarray(ref_positions[i], dtype=float) for i in combo]
        if n == 2:
            measure = 0.5 * np.linalg.norm(np.cross(pts[1] - pts[0], pts[2] - pts[0]))
        else:
            edges = np.stack([pts[k] - pts[0] for k in range(1, 4)])
            measure = abs(np.linalg.det(edges)) / 6.0
        if measure > best_measure:
            best, best_measure = combo, measure
    if best is None or best_measure <= 0.0:
        raise SelectionError("boundary simplexes are all degenerate")
    return best


def _box_corners(data, n):
    """The 2^n corners of an integer rectangle (n = 2) or box (n = 3) under
    drawn distinct ids: many simplexes tie on the largest measure."""
    sides = [data.draw(st.integers(1, 40)) for _ in range(n)]
    corner = np.array([data.draw(st.integers(-50, 50)) for _ in range(3)])
    offsets = itertools.product(*[(0, s) for s in sides], *[(0,)] * (3 - n))
    ids = data.draw(st.lists(st.integers(1, 99), min_size=2 ** n,
                             max_size=2 ** n, unique=True))
    return {a: (corner + off).astype(float) for a, off in zip(ids, offsets)}


class TestLeaderMeasure:
    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(n=st.sampled_from([2, 3]), ties=st.booleans(), data=st.data())
    def test_matches_per_tuple_loop(self, n, ties, data):
        """The batched kernel measure picks the loop's leaders, ties
        included; both reject the same all-degenerate boundaries."""
        if ties:
            pts = _box_corners(data, n)
        else:
            seed = data.draw(st.integers(0, 2 ** 32 - 1))
            count = data.draw(st.integers(n + 1, 12))
            pts = sample_formation(np.random.default_rng(seed), count, n)
        try:
            want = _per_tuple_leaders(set(pts), pts, n)
        except SelectionError:
            with pytest.raises(SelectionError):
                refnet.select_leaders(set(pts), pts, n)
            return
        assert refnet.select_leaders(set(pts), pts, n) == want

    def test_cube_corners_tie_to_smallest_ids(self):
        # the two regular tetrahedra inscribed in a cube tie on volume
        pts = {i + 1: np.array(c, dtype=float) for i, c in
               enumerate(itertools.product((0, 2), repeat=3))}
        assert refnet.select_leaders(set(pts), pts, 3) == (1, 4, 6, 7)
        assert _per_tuple_leaders(set(pts), pts, 3) == (1, 4, 6, 7)


class TestFindInNeighbors:
    def test_centroid_of_triangle(self):
        # 5 agents; agent 5 sits at the corner centroid of (1, 2, 4)
        pts = {
            1: (0.0, 0.0, 0.0),
            2: (6.0, 0.0, 0.0),
            3: (7.0, 7.0, 0.0),
            4: (0.0, 6.0, 0.0),
            5: (2.0, 2.0, 0.0),
        }
        assert build(pts).in_neighbors[5] == (1, 2, 4)

    def test_boundary_follower_gets_leaders(self):
        assert build(SQUARE5).in_neighbors[4] == (1, 2, 3)

    def test_nearest_of_two_candidate_triangles(self):
        # agent 7 is enclosed by both (1,2,3) and (4,5,6); the latter is
        # far away, so the near triple must win
        pts = {
            1: (-4.0, -3.0, 0.0),
            2: (4.0, -3.0, 0.0),
            3: (0.0, 5.0, 0.0),
            4: (-40.0, -30.0, 0.0),
            5: (40.0, -30.0, 0.0),
            6: (0.0, 50.0, 0.0),
            7: (0.0, 0.0, 0.0),
        }
        nbrs = build(pts).in_neighbors[7]
        assert nbrs == (1, 2, 3)
        # exhaustive oracle: no admissible triple has a smaller distance sum
        own = np.zeros(3)
        best = _exhaustive_best(pts, 7, own, n=2, rho=0.1)
        assert nbrs == best

    def test_equal_sums_break_to_smallest_ids(self):
        # both (1, 2, 3) and (1, 2, 4) enclose agent 5 with weights
        # {5/12, 1/4, 1/3} and all four candidates are sqrt(5) away
        pts = {1: (-2.0, -1.0, 0.0), 2: (2.0, -1.0, 0.0),
               3: (-1.0, 2.0, 0.0), 4: (1.0, 2.0, 0.0), 5: (0.0, 0.0, 0.0)}
        assert build(pts).in_neighbors[5] == (1, 2, 3)
        assert _exhaustive_best(pts, 5, np.zeros(3), n=2, rho=0.1) == (1, 2, 3)

    def test_pool_grows_past_a_first_admissible_tuple(self):
        # among its 4 nearest, agent 7's best tuple is (1, 4, 5), summing
        # 8.38 m; the stop bound still admits agent 3, the 5th nearest,
        # and (2, 3, 5) sums 7.52 m
        pts = {i + 1: (x, y, 0.0) for i, (x, y) in enumerate(
            [(-0.4, -3.1), (0.3, 1.0), (0.7, -3.4), (1.0, 2.0),
             (-2.9, 0.8), (2.6, -2.5), (0.0, 0.0)])}
        with mock.patch.object(refnet, "SEARCH_K0", 4):
            nbrs = build(pts).in_neighbors[7]
        assert nbrs == (2, 3, 5)
        assert _exhaustive_best(pts, 7, np.zeros(3), n=2, rho=0.1) == nbrs

    @settings(max_examples=40, deadline=None, derandomize=True,
              database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3]),
           k0=st.sampled_from([refnet.SEARCH_K0, 2, 3, 4]), data=st.data())
    def test_search_matches_exhaustive_oracle(self, seed, n, k0, data):
        """Boundary exactly when no admissible tuple exists; interior
        followers get the oracle's best tuple, boundary followers the
        leaders. Smaller initial pools make the search grow and stop
        early on these small teams."""
        count = data.draw(st.integers(5, 12) if n == 2 else st.integers(6, 10))
        pts = sample_formation(np.random.default_rng(seed), count, n)
        try:
            with mock.patch.object(refnet, "SEARCH_K0", k0):
                net = build(pts, n=n)
        except (SelectionError, NetworkError):
            assume(False)
        rho = refnet.DEFAULT_RHO[n]
        for agent in net.ids:
            best = _exhaustive_best(pts, agent, np.asarray(pts[agent], float),
                                    n, rho)
            assert (best is None) == (agent in net.boundary)
            if agent not in net.followers:
                continue
            want = net.leaders if best is None else best
            assert net.in_neighbors[agent] == want


# a collinear planar team and a coplanar spatial one: no agent is
# enclosed, and every boundary simplex is flat
COLLINEAR5 = {i: (2.0 * i, 1.0 * i, 0.0) for i in range(1, 6)}
COPLANAR6 = {i: (float(i % 3), float(i // 3) + 0.1 * i, 0.0)
             for i in range(1, 7)}


class TestDegenerateFormations:
    @pytest.mark.parametrize("pts,n", [(COLLINEAR5, 2), (COPLANAR6, 3)],
                             ids=["collinear-n2", "coplanar-n3"])
    def test_build_raises_selection_error(self, pts, n):
        with pytest.raises(SelectionError,
                           match="boundary simplexes are all degenerate"):
            build(pts, n=n)


def _exhaustive_best(pts, agent_id, own, n, rho):
    import itertools
    others = sorted(i for i in pts if i != agent_id)
    best, best_sum = None, np.inf
    for combo in itertools.combinations(others, n + 1):
        vertices = np.stack([np.asarray(pts[i], dtype=float) for i in combo])
        try:
            lam = geometry.lambda_nd(*vertices[:3],
                                     vertices[3] if n == 3 else None,
                                     own, n)
        except DegeneracyError:
            continue
        if not np.all(lam[: n + 1] > rho):
            continue
        s = sum(np.linalg.norm(np.asarray(pts[i], dtype=float) - own)
                for i in combo)
        if s < best_sum or (s == best_sum and combo < best):
            best, best_sum = combo, s
    return best


class TestCommunicationWeights:
    """Static weights of the one interior follower 9, whose in-neighbors
    are the leaders, as build_reference_configuration solves them."""

    def weights(self, pts, n=2):
        net = refnet.build_reference_configuration(pts, n=n)
        return [net.weights[(9, a)] for a in net.in_neighbors[9]]

    def test_centroid(self):
        pts = {1: (0.0, 0.0, 0.0), 2: (3.0, 0.0, 0.0), 3: (0.0, 3.0, 0.0),
               9: (1.0, 1.0, 0.0)}
        np.testing.assert_allclose(self.weights(pts), 1.0 / 3.0, atol=1e-12)

    def test_asymmetric_point(self):
        pts = {1: (0.0, 0.0, 0.0), 2: (4.0, 0.0, 0.0), 3: (0.0, 4.0, 0.0),
               9: (1.0, 1.0, 0.0)}
        np.testing.assert_allclose(self.weights(pts), [0.5, 0.25, 0.25],
                                   atol=1e-12)

    def test_tetrahedron_centroid(self):
        pts = {1: (0.0, 0.0, 0.0), 2: (1.0, 0.0, 0.0), 3: (0.0, 1.0, 0.0),
               4: (0.0, 0.0, 1.0), 9: (0.25, 0.25, 0.25)}
        np.testing.assert_allclose(self.weights(pts, n=3), 0.25, atol=1e-12)


class TestBuildWeightMatrices:
    def test_single_follower(self):
        weights = {(4, 1): 0.5, (4, 2): 0.3, (4, 3): 0.2}
        W, A, B, D, W_L = refnet.build_weight_matrices(
            (1, 2, 3), (4,), {4: (1, 2, 3)}, weights)
        np.testing.assert_allclose(W, [[0.5, 0.3, 0.2, 0.0]])
        np.testing.assert_allclose(A, [[0.0]])
        np.testing.assert_allclose(D, [[-1.0]])
        np.testing.assert_allclose(B, [[0.5, 0.3, 0.2]])
        np.testing.assert_allclose(W_L, [[0.5, 0.3, 0.2]])

    def test_chain_of_two(self):
        # follower 5 feeds on follower 4; W_L rows still sum to one
        weights = {(4, 1): 0.5, (4, 2): 0.3, (4, 3): 0.2,
                   (5, 1): 0.4, (5, 2): 0.2, (5, 4): 0.4}
        W, A, B, D, W_L = refnet.build_weight_matrices(
            (1, 2, 3), (4, 5), {4: (1, 2, 3), 5: (1, 2, 4)}, weights)
        np.testing.assert_allclose(W_L.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(W_L[1], [0.4 + 0.4 * 0.5,
                                            0.2 + 0.4 * 0.3,
                                            0.4 * 0.2], atol=1e-12)

    def test_disconnected_followers_raise(self):
        # 4 and 5 feed only on each other with full weight
        weights = {(4, 5): 1.0, (5, 4): 1.0}
        with pytest.raises(NetworkError):
            refnet.build_weight_matrices((1, 2, 3), (4, 5),
                                         {4: (5,), 5: (4,)}, weights)


class TestDeviationBound:
    def test_single_follower(self):
        D = np.array([[-1.0]])
        B = np.array([[0.5, 0.3, 0.2]])
        xi_max, delta = refnet.deviation_bound(D, B, 0.0, 0.0, 0.0)
        assert xi_max == pytest.approx(2.0, abs=1e-12)
        assert delta == 0.0

    def test_uniform_tolerances(self):
        D = np.array([[-1.0]])
        B = np.array([[0.5, 0.3, 0.2]])
        _, delta = refnet.deviation_bound(D, B, 0.1, 0.1, 0.1)
        assert delta == pytest.approx(0.2 * np.sqrt(3.0), abs=1e-12)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            refnet.deviation_bound(np.array([[-1.0]]),
                                   np.array([[1.0, 0.0, 0.0]]), -0.1, 0, 0)


class TestBuildReferenceConfiguration:
    def test_decagon22(self, decagon22_network):
        net = decagon22_network
        assert net.leaders == (1, 5, 8)
        assert set(net.followers) == set(range(1, 23)) - {1, 5, 8}
        assert net.boundary == frozenset(range(1, 11))
        assert net.Xi_max == pytest.approx(6.440013455730496, rel=1e-12)
        assert net.d_min == pytest.approx(5.830951894845301, rel=1e-12)

    def test_key_property_alpha_parameters(self, decagon22_network):
        net = decagon22_network
        lpos = [net.ref_positions[a] for a in net.leaders]
        for j, fid in enumerate(net.followers):
            lam = geometry.lambda_nd(lpos[0], lpos[1], lpos[2], None,
                                     net.ref_positions[fid], 2)
            np.testing.assert_allclose(net.W_L[j], lam[:3], atol=1e-9)

    def test_interior_weights_above_rho(self, decagon22_network):
        net = decagon22_network
        for fid in net.followers:
            if fid not in net.interior:
                continue
            for nid in net.in_neighbors[fid]:
                assert net.weights[(fid, nid)] > net.rho

    def test_structural_invariants_random(self):
        rng = np.random.default_rng(RNG_SEED)
        for count, n in ((8, 2), (12, 2), (9, 3)):
            _, net = random_network(rng, count, n)
            np.testing.assert_allclose(net.W.sum(axis=1), 1.0, atol=1e-9)
            np.testing.assert_allclose(net.W_L.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(np.linalg.eigvals(net.D).real < 0.0)
            assert np.all(-np.linalg.inv(net.D) >= -1e-12)
            k = n + 1
            lpos = [net.ref_positions[a] for a in net.leaders]
            for j, fid in enumerate(net.followers):
                lam = geometry.lambda_nd(lpos[0], lpos[1], lpos[2],
                                         lpos[3] if n == 3 else None,
                                         net.ref_positions[fid], n)
                np.testing.assert_allclose(net.W_L[j], lam[:k], atol=1e-9)

    def test_one_inverse_of_d_per_build(self, decagon22, monkeypatch):
        """The -D^-1 >= 0 check and Xi_max share one inverse."""
        shapes = []
        inv = np.linalg.inv

        def spy(a):
            shapes.append(np.shape(a))
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        net = refnet.build_reference_configuration(decagon22, n=2)
        assert shapes == [net.D.shape]
        monkeypatch.undo()
        assert net.Xi_max == refnet.deviation_bound(net.D, net.B, 1.0, 0.0, 0.0)[0]

    def test_coincident_agents_raise(self):
        pts = dict(SQUARE5)
        pts[6] = pts[1]
        with pytest.raises(DegeneracyError):
            refnet.build_reference_configuration(pts, n=2)

    def test_zero_xi_raises(self):
        # a zero virtual-vertex scale makes every planar bordered system
        # singular; it must surface as a library error, not a LinAlgError
        with pytest.raises(DegeneracyError, match="xi must be nonzero"):
            refnet.build_reference_configuration(SQUARE5, n=2, xi=0.0)
