"""Simplex geometry and weight-operator tests.

Expected values are either exact by construction or were computed with
independent oracles (hand reduction of the bordered system, half-space
containment tests) and frozen here.
"""
import numpy as np
import pytest

from contiform import geometry
from contiform.errors import DegeneracyError

RNG_SEED = 9021


def random_triangle(rng, scale=10.0):
    while True:
        pts = rng.uniform(-scale, scale, size=(3, 3))
        try:
            geometry.plane_normal(*pts)
            return pts
        except DegeneracyError:
            continue


def random_tetrahedron(rng, scale=10.0):
    while True:
        pts = rng.uniform(-scale, scale, size=(4, 3))
        if geometry.rank_simplex(pts, 3) == 3:
            return pts


class TestRankSimplex:
    def test_planar_triangle(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0)]
        assert geometry.rank_simplex(pts, 2) == 2

    def test_collinear_triangle(self):
        pts = [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert geometry.rank_simplex(pts, 2) == 1

    def test_unit_tetrahedron(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert geometry.rank_simplex(pts, 3) == 3

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            geometry.rank_simplex([(0, 0, 0), (1, 0, 0)], 2)


class TestPlaneNormal:
    def test_unit_triangle(self):
        n = geometry.plane_normal((0, 0, 0), (1, 0, 0), (0, 1, 0))
        np.testing.assert_allclose(n, [0.0, 0.0, -1.0], atol=1e-15)

    def test_swapped_orientation(self):
        n = geometry.plane_normal((0, 0, 0), (0, 1, 0), (1, 0, 0))
        np.testing.assert_allclose(n, [0.0, 0.0, 1.0], atol=1e-15)

    def test_translation_invariant(self):
        shift = np.array([5.0, -3.0, 2.0])
        n = geometry.plane_normal(shift, shift + (1, 0, 0), shift + (0, 1, 0))
        np.testing.assert_allclose(n, [0.0, 0.0, -1.0], atol=1e-15)

    def test_collinear_raises(self):
        with pytest.raises(DegeneracyError):
            geometry.plane_normal((0, 0, 0), (1, 0, 0), (2, 0, 0))


class TestVirtualFourthPoint:
    """The virtual vertex p1 + xi (p3 - p1) x (p2 - p1) inside the n = 2
    weight operator."""

    def test_random_triangle_gains_rank(self):
        # any non-collinear triangle gives a solvable bordered system
        rng = np.random.default_rng(RNG_SEED)
        tris = np.stack([random_triangle(rng) for _ in range(20)])
        queries = rng.uniform(-10, 10, size=(20, 3))
        lam = geometry.lambda_nd_batch(tris, queries, 2)
        assert np.all(np.isfinite(lam))

    def test_zero_xi_raises(self):
        with pytest.raises(DegeneracyError, match="xi must be nonzero"):
            geometry.lambda_nd((0, 0, 0), (1, 0, 0), (0, 1, 0), None,
                               (0.2, 0.2, 0), 2, xi=0.0)
        with pytest.raises(DegeneracyError, match="xi must be nonzero"):
            geometry.lambda_nd_batch(np.eye(3)[None], np.zeros((1, 3)), 2,
                                     xi=0.0, on_degenerate="nan")


class TestProjectToPlane:
    """n = 2 queries are projected onto the triangle's own plane: the
    weights rebuild the foot of the perpendicular from the query."""

    TRI = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]

    @staticmethod
    def _foot(c, tri):
        lam = geometry.lambda_nd(*tri, None, c, 2)
        return lam[:3] @ np.asarray(tri, dtype=float)

    def test_drops_z(self):
        out = self._foot((3, 4, 5), self.TRI)
        np.testing.assert_allclose(out, [3.0, 4.0, 0.0], atol=1e-12)

    def test_idempotent(self):
        once = self._foot((3, 4, 5), self.TRI)
        twice = self._foot(once, self.TRI)
        np.testing.assert_allclose(twice, once, atol=1e-14)

    def test_residual_normal_component(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            tri = random_triangle(rng)
            c = rng.uniform(-10, 10, size=3)
            n = geometry.plane_normal(*tri)
            out = self._foot(c, tri)
            tol = 1e-12 * max(1.0, np.linalg.norm(c))
            assert abs(np.dot(out - tri[0], n)) <= tol
            # the dropped part is along the normal
            assert np.linalg.norm(np.cross(c - out, n)) <= 1e-9


class TestBarycentricLambda:
    """lambda_nd with n = 3: the bordered solve on a real tetrahedron."""

    UNIT_TET = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_centroid(self):
        c = np.mean(self.UNIT_TET, axis=0)
        lam = geometry.lambda_nd(*self.UNIT_TET, c, 3)
        np.testing.assert_allclose(lam, 0.25, atol=1e-12)

    def test_vertex(self):
        lam = geometry.lambda_nd(*self.UNIT_TET, self.UNIT_TET[0], 3)
        np.testing.assert_allclose(lam, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            tet = random_tetrahedron(rng)
            c = rng.uniform(-10, 10, size=3)
            lam = geometry.lambda_nd(*tet, c, 3)
            rebuilt = lam @ tet
            assert abs(lam.sum() - 1.0) <= 1e-9
            np.testing.assert_allclose(rebuilt, c,
                                       atol=1e-9 * max(1.0, np.abs(c).max()))

    def test_coplanar_raises(self):
        flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        with pytest.raises(DegeneracyError):
            geometry.lambda_nd(*flat, (0.2, 0.2, 0.0), 3)


class TestLambdaNd:
    TRI = [(0, 0, 0), (4, 0, 0), (0, 4, 0)]

    def test_planar_query(self):
        lam = geometry.lambda_nd(*self.TRI, None, (1, 1, 0), 2)
        np.testing.assert_allclose(lam, [0.5, 0.25, 0.25, 0.0], atol=1e-12)

    def test_planar_centroid(self):
        c = np.mean(self.TRI, axis=0)
        lam = geometry.lambda_nd(*self.TRI, None, c, 2)
        np.testing.assert_allclose(lam[:3], 1.0 / 3.0, atol=1e-12)
        assert abs(lam[3]) <= 1e-12

    def test_out_of_plane_query_projects(self):
        lam_flat = geometry.lambda_nd(*self.TRI, None, (1, 1, 0), 2)
        lam_lift = geometry.lambda_nd(*self.TRI, None, (1, 1, 7.5), 2)
        np.testing.assert_allclose(lam_lift[:3], lam_flat[:3], atol=1e-12)
        assert abs(lam_lift[3]) <= 1e-9

    def test_spatial_requires_fourth_point(self):
        with pytest.raises(ValueError):
            geometry.lambda_nd(*self.TRI, None, (1, 1, 0), 3)

    def test_xi_invariance(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            tri = random_triangle(rng)
            c = rng.uniform(-10, 10, size=3)
            base = geometry.lambda_nd(*tri, None, c, 2, xi=1.0)
            for xi in (0.5, -3.0):
                lam = geometry.lambda_nd(*tri, None, c, 2, xi=xi)
                np.testing.assert_allclose(lam[:3], base[:3], atol=1e-9)
                assert abs(lam[3]) <= 1e-9


def halfspace_inside_triangle(tri, c):
    """Strict 2-D containment via edge cross-product signs."""
    signs = []
    for i in range(3):
        a, b = tri[i][:2], tri[(i + 1) % 3][:2]
        edge = b - a
        rel = c[:2] - a
        signs.append(edge[0] * rel[1] - edge[1] * rel[0])
    signs = np.array(signs)
    return bool(np.all(signs > 0) or np.all(signs < 0))


def halfspace_inside_tetrahedron(tet, c):
    """Strict 3-D containment: c on the inner side of all four faces."""
    faces = [(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 3, 1), (1, 2, 3, 0)]
    for i, j, k, opp in faces:
        normal = np.cross(tet[j] - tet[i], tet[k] - tet[i])
        side_c = np.dot(normal, c - tet[i])
        side_o = np.dot(normal, tet[opp] - tet[i])
        if side_c * side_o <= 0:
            return False
    return True


class TestContainmentAgainstOracle:
    def test_planar(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(300):
            tri = random_triangle(rng)
            # planar queries so the oracle sees the same point
            u, v = rng.uniform(-0.5, 1.5, size=2)
            c = tri[0] + u * (tri[1] - tri[0]) + v * (tri[2] - tri[0])
            lam = geometry.lambda_nd(*tri, None, c, 2)
            lam_inside = bool(np.all(lam[:3] > 1e-12))
            # rotate coordinates so the oracle works in the triangle plane
            basis = _plane_basis(tri)
            flat_tri = np.stack([(p - tri[0]) @ basis.T for p in tri])
            flat_c = (c - tri[0]) @ basis.T
            want = halfspace_inside_triangle(
                np.column_stack([flat_tri, np.zeros(3)]),
                np.append(flat_c, 0.0))
            assert lam_inside == want

    def test_spatial(self):
        rng = np.random.default_rng(RNG_SEED + 1)
        for _ in range(300):
            tet = random_tetrahedron(rng)
            lam_target = rng.uniform(-0.4, 1.2, size=4)
            lam_target /= lam_target.sum() if abs(lam_target.sum()) > 0.1 \
                else 1.0
            c = lam_target @ tet
            lam = geometry.lambda_nd(*tet, c, 3)
            assert bool(np.all(lam > 1e-12)) == \
                halfspace_inside_tetrahedron(tet, c)


def _plane_basis(tri):
    e1 = tri[1] - tri[0]
    e1 = e1 / np.linalg.norm(e1)
    n = geometry.plane_normal(*tri)
    e2 = np.cross(n, e1)
    return np.stack([e1, e2])


class TestLambdaBatch:
    def test_matches_scalar(self):
        """Each batch row against a per-row least-squares oracle: the
        in-plane coordinates (l2, l3) of the query's projection."""
        rng = np.random.default_rng(RNG_SEED)
        tris = np.stack([random_triangle(rng) for _ in range(40)])
        queries = rng.uniform(-10, 10, size=(40, 3))
        batch = geometry.lambda_nd_batch(tris, queries, 2)
        for k in range(40):
            edges = np.column_stack([tris[k, 1] - tris[k, 0],
                                     tris[k, 2] - tris[k, 0]])
            l23 = np.linalg.lstsq(edges, queries[k] - tris[k, 0],
                                  rcond=None)[0]
            want = np.array([1.0 - l23.sum(), l23[0], l23[1], 0.0])
            np.testing.assert_allclose(batch[k], want, atol=1e-9)

    def test_degenerate_nan_rows(self):
        tris = np.array([
            [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
            [[0, 0, 0], [1, 0, 0], [2, 0, 0]],   # collinear
        ], dtype=float)
        queries = np.zeros((2, 3))
        out = geometry.lambda_nd_batch(tris, queries, 2, on_degenerate="nan")
        assert np.all(np.isfinite(out[0]))
        assert np.all(np.isnan(out[1]))
        with pytest.raises(DegeneracyError):
            geometry.lambda_nd_batch(tris, queries, 2)
