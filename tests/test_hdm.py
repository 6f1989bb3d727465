"""Homogeneous deformation mode tests.

Transform fits are checked against hand-built affine maps; the error
identities are exercised on randomly wired networks; the deviation
bound is validated by Monte-Carlo draws that stay within the per-axis
tolerances.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contiform import hdm, refnet
from contiform.errors import DegeneracyError
from contiform.scenario import load_scenario
from contiform.simulate import MARGIN_OK, MARGIN_VIOLATED, Simulation
from conftest import random_network, tilt

RNG_SEED = 3404

LEADER_REF = [np.array([0.0, 0.0, 0.0]),
              np.array([4.0, 0.0, 0.0]),
              np.array([0.0, 4.0, 0.0])]


# three leaders moving east at 1 m/s and follower 4 at {x}, {y}
LOCAL4_LEADERS = {1: np.array([0.0, 0.0, 0.0]), 2: np.array([4.0, 0.0, 0.0]),
                  3: np.array([0.0, 4.0, 0.0])}
LOCAL4 = """
n: 2
dt: 0.001
duration: 0.01
leader_override: [1, 2, 3]
agents:
  - {{id: 1, position: [0, 0]}}
  - {{id: 2, position: [4, 0]}}
  - {{id: 3, position: [0, 4]}}
  - {{id: 4, position: [{x!r}, {y!r}]}}
leader_trajectories:
  1: [{{time: 0, position: [0, 0]}}, {{time: 1, position: [1, 0]}}]
  2: [{{time: 0, position: [4, 0]}}, {{time: 1, position: [5, 0]}}]
  3: [{{time: 0, position: [0, 4]}}, {{time: 1, position: [1, 4]}}]
"""


def random_planar_map(rng, sigma_lo=0.5, sigma_hi=1.8):
    """Invertible planar affine map acting in the z=0 plane."""
    while True:
        Q2 = rng.uniform(-1.5, 1.5, size=(2, 2))
        sv = np.linalg.svd(Q2, compute_uv=False)
        if sv.min() < sigma_lo or sv.max() > sigma_hi:
            continue
        Q = np.eye(3)
        Q[:2, :2] = Q2
        d = np.append(rng.uniform(-20, 20, size=2), 0.0)
        return Q, d


class TestFitHomogeneousTransform:
    def test_identity(self):
        tf = hdm.fit_homogeneous_transform(LEADER_REF, LEADER_REF, n=2)
        np.testing.assert_allclose(tf.Q, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(tf.d, 0.0, atol=1e-12)
        np.testing.assert_allclose(tf.singular_values, 1.0, atol=1e-12)

    def test_pure_translation(self):
        shift = np.array([1.0, 2.0, 0.0])
        cur = [p + shift for p in LEADER_REF]
        tf = hdm.fit_homogeneous_transform(LEADER_REF, cur, n=2)
        np.testing.assert_allclose(tf.Q, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(tf.d, shift, atol=1e-12)

    def test_isotropic_scale(self):
        cur = [2.0 * p for p in LEADER_REF]
        tf = hdm.fit_homogeneous_transform(LEADER_REF, cur, n=2)
        # singular values sorted descending; the out-of-plane one is 1
        np.testing.assert_allclose(tf.singular_values, [2.0, 2.0, 1.0],
                                   atol=1e-12)

    def test_planar_fits_have_unit_normal_stretch(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(25):
            Q, d = random_planar_map(rng)
            cur = [Q @ p + d for p in LEADER_REF]
            tf = hdm.fit_homogeneous_transform(LEADER_REF, cur, n=2)
            sv = np.sort(tf.singular_values)
            assert np.any(np.abs(sv - 1.0) <= 1e-9)
            assert np.all(np.diff(tf.singular_values) <= 1e-12)

    def test_degenerate_leaders_raise(self):
        flat = [np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0])]
        with pytest.raises(DegeneracyError):
            hdm.fit_homogeneous_transform(flat, flat, n=2)

    def test_spatial_fit(self):
        rng = np.random.default_rng(RNG_SEED)
        ref = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
               np.array([0, 0, 1.0])]
        Q = rng.uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
        d = rng.uniform(-5, 5, size=3)
        cur = [Q @ p + d for p in ref]
        tf = hdm.fit_homogeneous_transform(ref, cur, n=3)
        np.testing.assert_allclose(tf.Q, Q, atol=1e-9)
        np.testing.assert_allclose(tf.d, d, atol=1e-9)


class TestLeaderFitBatch:
    """fit_homogeneous_transform, one commanded leader set at a time."""

    def test_rows_match_hand_built_maps(self):
        rng = np.random.default_rng(RNG_SEED)
        for Q, d in [random_planar_map(rng) for _ in range(8)]:
            tf = hdm.fit_homogeneous_transform(
                LEADER_REF, [Q @ p + d for p in LEADER_REF], n=2)
            # the normal maps onto the commanded normal, which a
            # reflection turns over
            want = Q.copy()
            want[2, 2] = np.sign(np.linalg.det(Q))
            np.testing.assert_allclose(tf.Q, want, atol=1e-12)
            np.testing.assert_allclose(tf.d, d, atol=1e-12)

    def test_spatial_rows(self):
        ref = [np.zeros(3), np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
               np.array([0, 0, 1.0])]
        Q = np.array([[2.0, 0.3, 0], [0.1, 1.5, 0.2], [0, -0.4, 1.2]])
        d = np.array([1.0, -2.0, 3.0])
        tf = hdm.fit_homogeneous_transform(ref, [Q @ p + d for p in ref], n=3)
        np.testing.assert_allclose(tf.Q, Q, atol=1e-12)
        np.testing.assert_allclose(tf.d, d, atol=1e-12)

    def test_degenerate_commanded_set_raises(self):
        flat = [np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0])]
        with pytest.raises(DegeneracyError):
            hdm.fit_homogeneous_transform(LEADER_REF, flat, n=2)
        tf = hdm.fit_homogeneous_transform(LEADER_REF, LEADER_REF, n=2)
        np.testing.assert_allclose(tf.Q, np.eye(3), atol=1e-12)

    def test_degenerate_reference_raises(self):
        flat = [np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0])]
        with pytest.raises(DegeneracyError):
            hdm.fit_homogeneous_transform(flat, LEADER_REF, n=2)
        coplanar = LEADER_REF + [np.array([1.0, 1.0, 0.0])]
        tet = LEADER_REF + [np.array([0.0, 0.0, 4.0])]
        with pytest.raises(DegeneracyError):
            hdm.fit_homogeneous_transform(coplanar, tet, n=3)


class TestGlobalDesired:
    def test_reference_is_fixed_point(self, decagon22_network):
        net = decagon22_network
        leader_ref = np.stack([net.ref_positions[a] for a in net.leaders])
        desired = hdm.global_desired_positions(net.W_L, leader_ref)
        follower_ref = np.stack([net.ref_positions[f] for f in net.followers])
        np.testing.assert_allclose(desired, follower_ref, atol=1e-9)

    def test_uniform_translation(self, decagon22_network):
        net = decagon22_network
        shift = np.array([3.0, -1.0, 0.5])
        leader_ref = np.stack([net.ref_positions[a] for a in net.leaders])
        desired = hdm.global_desired_positions(net.W_L, leader_ref + shift)
        follower_ref = np.stack([net.ref_positions[f] for f in net.followers])
        np.testing.assert_allclose(desired, follower_ref + shift, atol=1e-9)

    def test_matches_transform_image(self, decagon22_network):
        net = decagon22_network
        rng = np.random.default_rng(RNG_SEED)
        leader_ref = np.stack([net.ref_positions[a] for a in net.leaders])
        for _ in range(10):
            Q, d = random_planar_map(rng)
            desired = hdm.global_desired_positions(net.W_L,
                                                   leader_ref @ Q.T + d)
            for j, fid in enumerate(net.followers):
                want = Q @ net.ref_positions[fid] + d
                np.testing.assert_allclose(desired[j], want, atol=1e-9)


class TestLocalDesired:
    """A follower's local desired position is its weighted in-neighbor
    combination of the previous tick's actual positions; a leader's is its
    command.  The simulator computes these for the whole team at once and
    logs them, so they are read from a one-tick run."""

    @staticmethod
    def _one_tick(follower_xy):
        config = load_scenario(LOCAL4.format(x=follower_xy[0],
                                             y=follower_xy[1]))
        sim = Simulation(config)
        before = sim.positions.copy()
        before[sim.idx[4]] += (0.3, -0.2, 0.0)   # off its desired spot
        sim.positions = before.copy()
        sim.step()
        return sim, before

    def _check_follower(self, follower_xy, weights):
        sim, before = self._one_tick(follower_xy)
        net = sim.epoch.network
        nbrs = net.in_neighbors[4]
        np.testing.assert_allclose(
            [net.weights[(4, a)] for a in nbrs], weights, atol=1e-12)
        want = weights @ before[[sim.idx[a] for a in nbrs]]
        np.testing.assert_allclose(sim.log.local_desired[1, sim.idx[4]],
                                   want, atol=1e-12)

    def test_equal_weights(self):
        self._check_follower((4.0 / 3.0, 4.0 / 3.0), np.full(3, 1.0 / 3.0))

    def test_leader_passthrough(self):
        sim, _ = self._one_tick((1.0, 1.0))
        for a in (1, 2, 3):
            j = sim.idx[a]
            np.testing.assert_array_equal(sim.log.local_desired[1, j],
                                          sim.log.global_desired[1, j])
            np.testing.assert_allclose(sim.log.local_desired[1, j],
                                       LOCAL4_LEADERS[a] + (0.001, 0.0, 0.0),
                                       atol=1e-12)

    def test_weighted_combination(self):
        self._check_follower((1.0, 1.0), np.array([0.5, 0.25, 0.25]))


class TestErrorVectors:
    def _stacks(self, net, rng, perturb=0.0):
        order = list(net.agent_order)
        idx = {a: k for k, a in enumerate(order)}
        leader_idx = [idx[a] for a in net.leaders]
        follower_idx = [idx[a] for a in net.followers]
        actual = np.stack([net.ref_positions[a] for a in order])
        if perturb:
            actual = actual + rng.uniform(-perturb, perturb, actual.shape)
        leader_desired = np.stack([net.ref_positions[a] for a in net.leaders])
        local = actual.copy()
        local[follower_idx] = net.W @ actual
        local[leader_idx] = leader_desired
        glob = np.empty_like(actual)
        glob[leader_idx] = leader_desired
        glob[follower_idx] = net.W_L @ leader_desired
        # E_d_F, E_c_F, E_c_L: follower local-desired, follower
        # global-desired and leader global-desired minus actual
        return (local[follower_idx] - actual[follower_idx],
                glob[follower_idx] - actual[follower_idx],
                glob[leader_idx] - actual[leader_idx])

    def test_zero_at_reference(self, decagon22_network):
        rng = np.random.default_rng(RNG_SEED)
        for errs in self._stacks(decagon22_network, rng):
            np.testing.assert_allclose(errs, 0.0, atol=1e-9)

    def test_identity_between_error_families(self, decagon22_network):
        net = decagon22_network
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(20):
            E_d_F, E_c_F, E_c_L = self._stacks(net, rng, perturb=0.4)
            rhs = -np.linalg.inv(net.D) @ (E_d_F + net.B @ E_c_L)
            np.testing.assert_allclose(E_c_F, rhs, atol=1e-9)

    def test_deviation_bound_monte_carlo(self, decagon22_network):
        net = decagon22_network
        rng = np.random.default_rng(RNG_SEED)
        xi_max, delta = refnet.deviation_bound(net.D, net.B, 0.1, 0.1, 0.1)
        Dinv = np.linalg.inv(net.D)
        worst = 0.0
        for _ in range(200):
            E_d_F = rng.uniform(-0.1, 0.1, size=(net.D.shape[0], 3))
            E_c_L = rng.uniform(-0.1, 0.1, size=(3, 3))
            E_c_F = -Dinv @ (E_d_F + net.B @ E_c_L)
            worst = max(worst, np.linalg.norm(E_c_F, axis=1).max(),
                        np.linalg.norm(E_c_L, axis=1).max())
        assert worst <= delta + 1e-12


class TestCollisionSafetyMargin:
    def test_paper_threshold(self):
        tf = hdm.HomogeneousTransform(Q=np.eye(3), d=np.zeros(3),
                                      singular_values=np.ones(3))
        threshold, ok = hdm.collision_safety_margin(tf, 0.0, 0.5, 2.0)
        assert threshold == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ok

    def test_unsafe_when_sigma_small(self):
        threshold, ok = hdm.collision_safety_margin(
            np.array([1.2, 0.9, 0.7]), 0.6, 0.5, 2.0)
        assert threshold == pytest.approx(0.7333333333333333, abs=1e-12)
        assert not ok

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            hdm.collision_safety_margin(np.ones(3), 0.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            hdm.collision_safety_margin(np.ones(3), 0.0, 0.5, 0.0)
        with pytest.raises(ValueError):
            hdm.collision_safety_margin(np.ones(3), -0.1, 0.5, 2.0)


class TestTwoRoutesAgree:
    def test_local_weighted_sum_equals_matrix_route(self):
        rng = np.random.default_rng(RNG_SEED)
        _, net = random_network(rng, 10, 2)
        order = list(net.agent_order)
        idx = {a: k for k, a in enumerate(order)}
        actual = np.stack([net.ref_positions[a] for a in order])
        actual += rng.uniform(-0.5, 0.5, actual.shape)
        matrix_route = net.W @ actual
        for j, fid in enumerate(net.followers):
            nbrs = net.in_neighbors[fid]
            w = np.array([net.weights[(fid, a)] for a in nbrs])
            pts = np.stack([actual[idx[a]] for a in nbrs])
            np.testing.assert_allclose(w @ pts, matrix_route[j],
                                       atol=1e-9)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)
coords = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)
points = st.tuples(coords, coords, coords)
angles = st.floats(0.0, 2.0 * np.pi)


def well_shaped(pts):
    sv = np.linalg.svd(pts[1:] - pts[0], compute_uv=False)
    return sv[-1] >= 0.05 * sv[0] > 0.5


def fitted_sigmas(ref, cmd):
    """np.linalg.svd of the Q that fit_homogeneous_transform fits (its
    Q is solved from the leaders, not taken from deformation_sigmas)."""
    tf = hdm.fit_homogeneous_transform(ref, cmd, n=len(ref) - 1)
    return np.linalg.svd(tf.Q, compute_uv=False)


class TestDeformationSigmas:
    """The closed-form planar singular values and the n = 3 SVD against
    np.linalg.svd of the fitted Q."""

    @PROPERTY
    @given(ref=st.lists(st.tuples(coords, coords), min_size=3, max_size=3),
           cmd=st.lists(st.tuples(coords, coords), min_size=3, max_size=3),
           ref_turn=st.tuples(angles, angles, angles),
           cmd_turn=st.tuples(angles, angles, angles),
           mirror=st.booleans(), shift=points)
    def test_tilted_and_mirrored_triangles(self, ref, cmd, ref_turn,
                                           cmd_turn, mirror, shift):
        flat_ref, flat_cmd = np.zeros((3, 3)), np.zeros((3, 3))
        flat_ref[:, :2], flat_cmd[:, :2] = ref, cmd
        assume(well_shaped(flat_ref) and well_shaped(flat_cmd))
        ref = flat_ref @ tilt(*ref_turn).T
        cmd = flat_cmd @ tilt(*cmd_turn).T + np.array(shift)
        if mirror:
            cmd = cmd[[0, 2, 1]]
        sigma = hdm.deformation_sigmas(hdm.reference_edge_inverse(ref),
                                       cmd[None])[0]
        want = fitted_sigmas(ref, cmd)
        np.testing.assert_allclose(sigma, want, rtol=1e-10,
                                   atol=1e-12 * want[0])
        assert 1.0 in sigma   # the planar completion's exact unit value
        tf = hdm.fit_homogeneous_transform(ref, cmd, n=2)
        np.testing.assert_array_equal(tf.singular_values, sigma)

    @PROPERTY
    @given(ref=st.lists(points, min_size=4, max_size=4),
           cmd=st.lists(points, min_size=4, max_size=4))
    def test_tetrahedra(self, ref, cmd):
        ref, cmd = np.array(ref), np.array(cmd)
        assume(well_shaped(ref) and well_shaped(cmd))
        sigma = hdm.deformation_sigmas(hdm.reference_edge_inverse(ref),
                                       cmd[None])[0]
        want = fitted_sigmas(ref, cmd)
        np.testing.assert_allclose(sigma, want, rtol=1e-10,
                                   atol=1e-12 * want[0])

    @PROPERTY
    @given(base=st.tuples(*[st.integers(-20, 20)] * 3),
           step=st.tuples(*[st.integers(-20, 20)] * 3),
           along=st.lists(st.integers(-4, 4), min_size=3, max_size=3))
    def test_collinear_triangle_is_nan_and_violates_the_margin(
            self, base, step, along):
        """A commanded triangle on one line of the integer grid, so
        exactly collinear, logs NaN and MARGIN_VIOLATED; the reference
        triangle one tick before it in the plan keeps sigma = 1 and
        MARGIN_OK."""
        line = np.array(base, float) + np.outer(along, np.array(step, float))
        doc = LOCAL4.format(x=1.0, y=1.0)
        doc = doc[:doc.index("leader_trajectories:")] + "leader_trajectories:\n"
        for (a, start), end in zip(LOCAL4_LEADERS.items(), line):
            doc += (f"  {a}: [{{time: 0, position: {start.tolist()}}}, "
                    f"{{time: 0.001, position: {end.tolist()}}}]\n")
        epoch = Simulation(load_scenario(doc)).epoch
        _, sigma, ok, _ = epoch.plan(0, 1)   # ticks 0 and 1 (dt = 0.001)
        assert np.all(np.isnan(sigma[1])) and ok[1] == MARGIN_VIOLATED
        np.testing.assert_allclose(sigma[0], 1.0, atol=1e-12)
        assert ok[0] == MARGIN_OK
