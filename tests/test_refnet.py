"""Reference-network construction tests.

The 22-agent decagon formation (conftest) is the worked example: its
boundary/interior split was cross-checked against scipy's convex hull
and its matrices against hand-solved small cases.
"""
import numpy as np
import pytest
from scipy.spatial import ConvexHull

from contiform import geometry, refnet
from contiform.errors import (ConnectivityError, DegeneracyError,
                              NetworkError, SelectionError)
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


class TestClassify:
    def test_square_with_center(self):
        boundary, interior = refnet.classify_boundary_interior(SQUARE5, n=2)
        assert boundary == frozenset({1, 2, 3, 4})
        assert interior == frozenset({5})

    def test_too_few_agents(self):
        pts = {1: (0, 0, 0), 2: (1, 0, 0), 3: (0, 1, 0)}
        with pytest.raises(DegeneracyError):
            refnet.classify_boundary_interior(pts, n=2)

    def test_decagon22_split(self, decagon22):
        boundary, interior = refnet.classify_boundary_interior(decagon22, n=2)
        assert boundary == frozenset(range(1, 11))
        assert interior == frozenset(range(11, 23))

    def test_matches_convex_hull(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(8):
            formation = sample_formation(rng, 14, 2)
            ids = sorted(formation)
            pts = np.stack([formation[i][:2] for i in ids])
            hull_ids = {ids[v] for v in ConvexHull(pts).vertices}
            boundary, _ = refnet.classify_boundary_interior(formation, n=2)
            # hull vertices can never be enclosed
            assert hull_ids <= set(boundary)


class TestSelectLeaders:
    def test_max_area_lowest_ids(self):
        boundary, _ = refnet.classify_boundary_interior(SQUARE5, n=2)
        # all four corner triples have equal area: lowest id tuple wins
        assert refnet.select_leaders(boundary, SQUARE5, n=2) == (1, 2, 3)

    def test_override_returned_verbatim(self):
        boundary, _ = refnet.classify_boundary_interior(SQUARE5, n=2)
        assert refnet.select_leaders(boundary, SQUARE5, n=2,
                                     override=(2, 4, 1)) == (2, 4, 1)

    def test_override_interior_id(self):
        boundary, _ = refnet.classify_boundary_interior(SQUARE5, n=2)
        with pytest.raises(SelectionError):
            refnet.select_leaders(boundary, SQUARE5, n=2, override=(1, 2, 5))

    def test_override_wrong_count(self):
        boundary, _ = refnet.classify_boundary_interior(SQUARE5, n=2)
        with pytest.raises(SelectionError):
            refnet.select_leaders(boundary, SQUARE5, n=2, override=(1, 2))


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
        nbrs = refnet.find_in_neighbors(5, pts, n=2)
        assert nbrs == (1, 2, 4)

    def test_boundary_follower_gets_leaders(self):
        nbrs = refnet.find_in_neighbors(4, SQUARE5, n=2)
        assert nbrs == (1, 2, 3)

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
        nbrs = refnet.find_in_neighbors(7, pts, n=2)
        assert nbrs == (1, 2, 3)
        # exhaustive oracle: no admissible triple has a smaller distance sum
        own = np.zeros(3)
        best = _exhaustive_best(pts, 7, own, n=2, rho=0.1)
        assert nbrs == best


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
