"""Simplex geometry and weight-operator tests.

Expected values are either exact by construction or were computed with
independent oracles (hand reduction of the bordered system, half-space
containment tests) and frozen here.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contiform import anomaly, geometry, hdm, refnet
from contiform.errors import DegeneracyError, SelectionError

RNG_SEED = 9021


def full_rank(pts, n):
    """lambda_nd_batch's verdict on one simplex: finite weights or NaN."""
    lam = geometry.lambda_nd_batch(np.asarray(pts, float)[None],
                                   np.asarray(pts, float)[:1], n,
                                   on_degenerate="nan")
    return bool(np.isfinite(lam).all())


def unit_normal(tri):
    raw = np.cross(tri[2] - tri[0], tri[1] - tri[0])
    return raw / np.linalg.norm(raw)


def random_triangle(rng, scale=10.0):
    while True:
        pts = rng.uniform(-scale, scale, size=(3, 3))
        if full_rank(pts, 2):
            return pts


def random_tetrahedron(rng, scale=10.0):
    while True:
        pts = rng.uniform(-scale, scale, size=(4, 3))
        if full_rank(pts, 3):
            return pts


class TestRankSimplex:
    """The one rank test, read through the weight operator's verdict."""

    def test_planar_triangle(self):
        assert full_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0)], 2)

    def test_collinear_triangle(self):
        assert not full_rank([(0, 0, 0), (1, 0, 0), (2, 0, 0)], 2)

    def test_unit_tetrahedron(self):
        assert full_rank([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)

    def test_wrong_point_count(self):
        with pytest.raises(ValueError):
            hdm.fit_homogeneous_transform([(0, 0, 0), (1, 0, 0)],
                                          [(0, 0, 0), (1, 0, 0)], 2)


class TestPlaneNormal:
    """The unit normal (p3 - p1) x (p2 - p1) / ||.|| with which the leader
    fit completes a triangle: the fit maps the reference's onto the
    commanded one's."""

    TRI = np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0)], float)

    def test_unit_triangle(self):
        # turned into the x-z plane, the normal (0, 0, -1) becomes (0, 1, 0)
        turned = self.TRI[:, [0, 2, 1]]
        tf = hdm.fit_homogeneous_transform(self.TRI, turned, 2)
        np.testing.assert_allclose(tf.Q, [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
                                   atol=1e-15)

    def test_swapped_orientation(self):
        swapped = self.TRI[[0, 2, 1]]
        tf = hdm.fit_homogeneous_transform(self.TRI, swapped, 2)
        # the in-plane swap turns the normal (0, 0, -1) over
        np.testing.assert_allclose(tf.Q, [[0, 1, 0], [1, 0, 0], [0, 0, -1]],
                                   atol=1e-15)

    def test_translation_invariant(self):
        shift = np.array([5.0, -3.0, 2.0])
        tf = hdm.fit_homogeneous_transform(self.TRI, self.TRI + shift, 2)
        np.testing.assert_allclose(tf.Q, np.eye(3), atol=1e-15)
        np.testing.assert_allclose(tf.d, shift, atol=1e-15)

    def test_collinear_raises(self):
        with pytest.raises(DegeneracyError):
            hdm.fit_homogeneous_transform(
                self.TRI, [(0, 0, 0), (1, 0, 0), (2, 0, 0)], 2)


class TestVirtualFourthPoint:
    """The virtual vertex p1 + xi (p3 - p1) x (p2 - p1) inside the n = 2
    weight operator."""

    def test_random_triangle_gains_rank(self):
        # any non-collinear triangle gives finite weights
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
            n = unit_normal(tri)
            out = self._foot(c, tri)
            tol = 1e-12 * max(1.0, np.linalg.norm(c))
            assert abs(np.dot(out - tri[0], n)) <= tol
            # the dropped part is along the normal
            assert np.linalg.norm(np.cross(c - out, n)) <= 1e-9


class TestBarycentricLambda:
    """lambda_nd with n = 3: weights in a real tetrahedron."""

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
    e2 = np.cross(unit_normal(tri), e1)
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


def bordered_solve(vertices, queries, n, xi=geometry.DEFAULT_XI,
                   on_degenerate="raise"):
    """Oracle: the weights as the solution of the 4 x 4 bordered system
    [p1 p2 p3 p4; 1 1 1 1] l = [c; 1], with the virtual fourth vertex
    p1 + xi (p3 - p1) x (p2 - p1) and the query projected onto the
    triangle plane for n = 2, and the same degeneracy tests as the
    closed form, taken on the unsquared measures."""
    vertices = np.asarray(vertices, dtype=float)
    queries = np.asarray(queries, dtype=float)
    m = len(vertices)
    mats = np.ones((m, 4, 4))
    if n == 2:
        p1 = vertices[:, 0]
        q2, q3 = vertices[:, 1] - p1, vertices[:, 2] - p1
        raw = np.cross(q3, q2)
        norm = np.linalg.norm(raw, axis=1)
        scale = np.linalg.norm(q3, axis=1) * np.linalg.norm(q2, axis=1)
        good = norm > geometry.RANK_TOLERANCE * np.maximum(scale, 1e-300)
        mats[:, :3, 0] = 0.0
        mats[:, :3, 1], mats[:, :3, 2], mats[:, :3, 3] = q2, q3, xi * raw
        nhat = raw / np.where(norm > 0, norm, 1.0)[:, None]
        cq = queries - p1
        cq = cq - np.sum(cq * nhat, axis=1)[:, None] * nhat
    else:
        mats[:, :3, :] = np.swapaxes(vertices, 1, 2)
        edges = vertices[:, 1:] - vertices[:, :1]
        vol = np.abs(np.linalg.det(edges))
        scale = np.linalg.norm(edges, axis=2).max(axis=1)
        good = vol > geometry.RANK_TOLERANCE * np.maximum(scale, 1e-300) ** 3
        cq = queries
    rhs = np.concatenate([cq, np.ones((m, 1))], axis=1)
    if not good.all() and on_degenerate == "raise":
        raise DegeneracyError(f"{int(np.sum(~good))} degenerate simplexes")
    out = np.full((m, 4), np.nan)
    if good.any():
        out[good] = np.linalg.solve(mats[good], rhs[good][..., None])[..., 0]
    return out


ORACLE = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
offsets = st.tuples(*[st.floats(-100.0, 100.0)] * 3)


def _frame(turns):
    """A rotation of space from three angles: the tilt of the plane."""
    a, b, c = turns
    rz = np.array([[np.cos(a), -np.sin(a), 0], [np.sin(a), np.cos(a), 0],
                   [0, 0, 1]])
    rx = np.array([[1, 0, 0], [0, np.cos(b), -np.sin(b)],
                   [0, np.sin(b), np.cos(b)]])
    ry = np.array([[np.cos(c), 0, np.sin(c)], [0, 1, 0],
                   [-np.sin(c), 0, np.cos(c)]])
    return rz @ rx @ ry


def _simplex(n, shape, frame, offset):
    """n + 1 vertices: a unit-ish simplex with jitter `shape`, turned by
    frame, scaled to 10 m and moved by offset."""
    base = np.vstack([np.zeros(3), 10.0 * np.eye(3)[:n]])
    base[:, :n] += 3.0 * np.reshape(shape[:3 * (n + 1)], (n + 1, 3))[:, :n]
    return base @ frame.T + offset


def _near_rank(n, ratio, frame, offset):
    """A simplex whose degeneracy measure is ratio * RANK_TOLERANCE: the
    sine of the angle at p1 for n = 2, the volume over the cube of the
    longest edge for n = 3."""
    h = ratio * geometry.RANK_TOLERANCE
    if n == 2:
        # |a x b| / (|a| |b|) = h / sqrt(1 + h^2) for a = (10, 0), b = (10, 10 h)
        base = np.array([[0, 0, 0], [10, 0, 0], [10, 10 * h, 0]], float)
    else:
        # |det| / 10^3 = h, all edges 10 m long or shorter
        base = np.array([[0, 0, 0], [10, 0, 0], [0, 10, 0],
                         [3, 3, 10 * h]], float)
    return base @ frame.T + offset


class TestClosedFormAgainstBorderedSolve:
    """The closed form (lambda_nd_batch) against the old 4 x 4 solve."""

    @ORACLE
    @given(n=st.sampled_from([2, 3]), shape=st.lists(unit, min_size=12,
                                                     max_size=12),
           turns=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3),
           offset=offsets, query=st.tuples(*[st.floats(-1.0, 2.0)] * 3),
           lift=st.floats(-20.0, 20.0))
    def test_weights_agree(self, n, shape, turns, offset, query, lift):
        """Tilted triangles with off-plane queries, and tetrahedra: the
        weights agree within 1e-12 of the coordinate scale, and the
        virtual weight is exactly zero."""
        frame = _frame(turns)
        verts = _simplex(n, shape, frame, offset)
        q = (np.array(query) * 10.0) @ frame.T + offset
        if n == 2:
            q = q + lift * frame[:, 2]   # off the triangle plane
        got = geometry.lambda_nd_batch(verts[None], q[None], n)[0]
        want = bordered_solve(verts[None], q[None], n)[0]
        scale = max(1.0, np.abs(verts).max(), np.abs(q).max())
        np.testing.assert_allclose(got[:n + 1], want[:n + 1],
                                   rtol=0, atol=1e-12 * scale)
        if n == 2:
            assert got[3] == 0.0

    @ORACLE
    @given(n=st.sampled_from([2, 3]),
           ratios=st.lists(st.sampled_from([0.0, 1e-3, 0.1, 0.5, 2.0, 10.0,
                                            1e3, 1e6]),
                           min_size=1, max_size=6),
           turns=st.tuples(*[st.floats(0.0, 2.0 * np.pi)] * 3),
           offset=offsets)
    def test_degenerate_rows_agree(self, n, ratios, turns, offset):
        """Rows near RANK_TOLERANCE (within a factor of 2 either side, and
        farther) are NaN for both kernels, or for neither, and a batch
        raises for both or for neither."""
        frame = _frame(turns)
        verts = np.stack([_near_rank(n, r, frame, offset) for r in ratios])
        q = np.broadcast_to(verts.mean(axis=1)[:1], (len(ratios), 3))
        got = geometry.lambda_nd_batch(verts, q, n, on_degenerate="nan")
        want = bordered_solve(verts, q, n, on_degenerate="nan")
        np.testing.assert_array_equal(np.isnan(got).all(axis=1),
                                      np.isnan(want).all(axis=1))
        np.testing.assert_array_equal(np.isnan(got).any(axis=1),
                                      np.isnan(got).all(axis=1))
        raised = []
        for kernel in (geometry.lambda_nd_batch, bordered_solve):
            try:
                kernel(verts, q, n)
                raised.append(False)
            except DegeneracyError:
                raised.append(True)
        assert raised[0] == raised[1] == bool(np.isnan(want).any())


def _accepts(call, error):
    """False when call raises error, True when it returns."""
    try:
        call()
    except error:
        return False
    return True


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("ratio", [0.5, 1.5, 3.0])
def test_one_verdict_per_simplex(n, ratio):
    """Every reader of the rank test gives lambda_nd_batch's verdict on a
    simplex whose degeneracy measure is ratio * RANK_TOLERANCE: the leader
    override check, the leader fit (reference simplex; commanded triangle
    for n = 2), deformation_sigmas' NaN rows and the detector's."""
    frame, offset = _frame((0.3, 1.1, 2.0)), np.array([5.0, -3.0, 2.0])
    simplex = _near_rank(n, ratio, frame, offset)
    good = np.vstack([np.zeros(3), 10.0 * np.eye(3)[:n]]) @ frame.T + offset
    want = full_rank(simplex, n)
    assert want == (ratio > 1.0)
    ids = tuple(range(n + 1))
    static = np.full((1, n + 1), 1.0 / (n + 1))
    weights = anomaly.evaluate_followers_batch(
        simplex[None], simplex.mean(axis=0)[None], static, 0.1, n)[0]
    got = {
        "override": _accepts(lambda: refnet.select_leaders(
            ids, dict(zip(ids, simplex)), n, ids), SelectionError),
        "fit reference": _accepts(lambda: hdm.fit_homogeneous_transform(
            simplex, good, n), DegeneracyError),
        "detector": bool(np.isfinite(weights).all()),
    }
    if n == 2:
        got["fit commanded"] = _accepts(lambda: hdm.fit_homogeneous_transform(
            good, simplex, n), DegeneracyError)
        sigma = hdm.deformation_sigmas(hdm.reference_edge_inverse(good),
                                       simplex[None])
        got["deformation_sigmas"] = bool(np.isfinite(sigma).all())
    assert got == dict.fromkeys(got, want)


CUBE = {i + 1: np.array(p, float) for i, p in enumerate(
    [(0, 0, 0), (10, 0, 0), (0, 10, 0), (0, 0, 10), (10, 10, 10), (3, 3, 3)])}


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("call", [
    lambda n: geometry.lambda_nd(*list(CUBE.values())[:5], n),
    lambda n: geometry.lambda_nd_batch(np.zeros((1, n + 1, 3)),
                                       np.zeros((1, 3)), n),
    lambda n: refnet.select_leaders(CUBE, CUBE, n),
    lambda n: refnet.build_reference_configuration(CUBE, n),
    lambda n: anomaly.evaluate_followers_batch(
        np.zeros((1, n + 1, 3)), np.zeros((1, 3)), np.zeros((1, n + 1)),
        0.1, n),
    lambda n: hdm.fit_homogeneous_transform(
        list(CUBE.values())[:n + 1], list(CUBE.values())[:n + 1], n),
], ids=["lambda_nd", "lambda_nd_batch", "select_leaders",
        "build_reference_configuration", "evaluate_followers_batch",
        "fit_homogeneous_transform"])
def test_n_outside_2_3_is_rejected(call, n):
    with pytest.raises(ValueError, match=f"^n must be 2 or 3, got {n}$"):
        call(n)


@pytest.mark.parametrize("vertices, queries", [
    ((1, 2, 3), (1, 3)), ((1, 3, 3), (2, 3)), ((1, 3, 3), (1, 2))],
    ids=["vertices", "query count", "query length"])
@pytest.mark.parametrize("call", [
    lambda v, q: geometry.lambda_nd_batch(v, q, 2),
    lambda v, q: anomaly.evaluate_followers_batch(
        v, q, np.full((len(v), 3), 1 / 3), 0.1, 2),
], ids=["lambda_nd_batch", "evaluate_followers_batch"])
def test_wrong_shapes_are_rejected(call, vertices, queries):
    """For n = 2 a batch takes vertices (m, 3, 3) and queries (m, 3)."""
    with pytest.raises(ValueError) as err:
        call(np.ones(vertices), np.ones(queries))
    assert str(err.value) == ("expected vertices (m, 3, 3) and queries "
                              f"(m, 3), got {vertices} and {queries}")


def _jittered(shape, seed):
    """A 10 m grid or lattice with +-1.5 m jitter, turned and moved."""
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.arange(k) for k in shape], indexing="ij")
    pts = np.stack([a.ravel() for a in axes], axis=1) * 10.0
    pts = pts + rng.uniform(-1.5, 1.5, pts.shape)
    if len(shape) == 2:
        pts = np.column_stack([pts, np.zeros(len(pts))])
        frame = _frame((rng.uniform(0, 2 * np.pi), 0.0, 0.0))
    else:
        frame = _frame(rng.uniform(0, 2 * np.pi, 3))
    pts = pts @ frame.T + rng.uniform(-100.0, 100.0, 3) * [1, 1, len(shape) - 2]
    return {int(i) + 1: p for i, p in enumerate(pts)}


@pytest.mark.parametrize("shape", [(7, 7), (3, 3, 3)], ids=["grid49",
                                                            "lattice27"])
def test_network_matches_bordered_solve(shape, monkeypatch):
    """refnet builds the same network with the oracle kernel patched in:
    boundary, leaders, in-neighbors, and weights within rounding."""
    formation = _jittered(shape, seed=len(shape))
    n = len(shape)
    new = refnet.build_reference_configuration(formation, n=n)
    monkeypatch.setattr(refnet, "lambda_nd_batch", bordered_solve)
    old = refnet.build_reference_configuration(formation, n=n)
    assert new.boundary == old.boundary
    assert new.leaders == old.leaders
    assert new.in_neighbors == old.in_neighbors
    assert new.weights.keys() == old.weights.keys()
    for key, w in new.weights.items():
        assert abs(w - old.weights[key]) <= 1e-12 * 200.0
