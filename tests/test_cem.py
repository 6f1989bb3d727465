"""Containment exclusion mode (potential flow) tests.

Analytic values come from the uniform-plus-doublet closed forms; finite
difference oracles check the gradients and the Laplace property, and the
real per-doublet formulas check the complex evaluator and, through a
test-local Newton solve, the streamline map.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contiform import cem
from contiform.errors import FlowSingularityError, ScenarioError

RNG_SEED = 7117


def uniform_field(u_inf=10.0, theta_inf=0.0):
    return cem.FlowField(u_inf=u_inf, theta_inf=theta_inf)


def cylinder_field(u_inf=10.0, radius=4.0, theta_inf=0.0):
    return cem.build_flow_from_failures(np.array([[0.0, 0.0]]), u_inf,
                                        theta_inf, radius_override=radius)


class TestExclusionRadius:
    def test_paper_values(self):
        assert cem.exclusion_radius(10.0, 160.0) == pytest.approx(4.0,
                                                                  abs=1e-12)
        assert cem.exclusion_radius(1.0, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert cem.exclusion_radius(4.0, 64.0) == pytest.approx(4.0,
                                                                abs=1e-12)

    def test_radius_inverts_strength(self):
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            u = rng.uniform(0.5, 30.0)
            a = rng.uniform(0.5, 10.0)
            delta = u * a * a
            assert cem.exclusion_radius(u, delta) == pytest.approx(a,
                                                                   rel=1e-12)

    def test_nonpositive_raises(self):
        with pytest.raises(ValueError):
            cem.exclusion_radius(0.0, 160.0)
        with pytest.raises(ValueError):
            cem.exclusion_radius(10.0, -1.0)


class TestBuildFlow:
    def test_single_failure(self):
        field = cylinder_field()
        assert len(field.doublets) == 1
        d = field.doublets[0]
        assert (d.a, d.b) == (0.0, 0.0)
        assert d.delta == pytest.approx(160.0, abs=1e-12)
        # doublet axis opposes the stream so the disk is a body streamline
        assert d.gamma == pytest.approx(np.pi, abs=1e-12)
        assert cem.exclusion_radius(field.u_inf, d.delta) == pytest.approx(
            4.0, abs=1e-12)

    @pytest.mark.parametrize("u_inf", [0.0, -10.0, np.nan, np.inf])
    def test_bad_u_inf_is_named(self, u_inf):
        with pytest.raises(ValueError, match="u_inf must be positive"):
            cem.build_flow_from_failures(np.array([[0.0, 0.0]]), u_inf)

    def test_no_failures_uniform(self):
        field = cem.build_flow_from_failures(np.zeros((0, 2)), 10.0)
        assert field.doublets == ()
        sample = cem.eval_flow(field, 3.0, -2.0)
        assert sample.phi == pytest.approx(30.0, abs=1e-12)
        assert sample.psi == pytest.approx(-20.0, abs=1e-12)

    def test_two_failures_superpose(self):
        centers = np.array([[0.0, 0.0], [30.0, 0.0]])
        both = cem.build_flow_from_failures(centers, 10.0,
                                            radius_override=4.0)
        one = cem.build_flow_from_failures(centers[:1], 10.0,
                                           radius_override=4.0)
        other = cem.build_flow_from_failures(centers[1:], 10.0,
                                             radius_override=4.0)
        x, y = 12.0, 5.0
        s_both = cem.eval_flow(both, x, y)
        s_one = cem.eval_flow(one, x, y)
        s_other = cem.eval_flow(other, x, y)
        uni = cem.eval_flow(uniform_field(), x, y)
        assert s_both.psi == pytest.approx(s_one.psi + s_other.psi - uni.psi,
                                           abs=1e-9)
        assert s_both.phi == pytest.approx(s_one.phi + s_other.phi - uni.phi,
                                           abs=1e-9)

    def test_cached_arrays_stay_out_of_eq_and_hash(self):
        a, b = cylinder_field(theta_inf=0.3), cylinder_field(theta_inf=0.3)
        assert a == b and hash(a) == hash(b)
        assert "_coef" not in repr(a)
        assert a != cylinder_field(theta_inf=0.4)

    def test_overlapping_disks_warn(self):
        centers = np.array([[0.0, 0.0], [5.0, 0.0]])
        with pytest.warns(UserWarning, match="overlap"):
            cem.build_flow_from_failures(centers, 10.0, radius_override=4.0)


class TestEvalFlow:
    def test_uniform_values(self):
        sample = cem.eval_flow(uniform_field(), 1.0, 1.0)
        assert sample.phi == pytest.approx(10.0, abs=1e-12)
        assert sample.psi == pytest.approx(10.0, abs=1e-12)
        np.testing.assert_allclose(sample.grad_phi, [10.0, 0.0], atol=1e-12)

    def test_cylinder_surface_streamline(self):
        field = cylinder_field()
        # the circle rho = a is the psi = 0 body streamline
        for theta in np.linspace(0.0, 2 * np.pi, 17):
            x, y = 4.0 * np.cos(theta), 4.0 * np.sin(theta)
            assert cem.eval_flow(field, x, y).psi == pytest.approx(0.0,
                                                                   abs=1e-9)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(RNG_SEED)
        field = cylinder_field()
        h = 1e-5
        for _ in range(40):
            rho = rng.uniform(6.0, 30.0)
            th = rng.uniform(0.0, 2 * np.pi)
            x, y = rho * np.cos(th), rho * np.sin(th)
            s = cem.eval_flow(field, x, y)
            fd_x = (cem.eval_flow(field, x + h, y).phi
                    - cem.eval_flow(field, x - h, y).phi) / (2 * h)
            fd_y = (cem.eval_flow(field, x, y + h).phi
                    - cem.eval_flow(field, x, y - h).phi) / (2 * h)
            scale = max(1.0, abs(fd_x), abs(fd_y))
            assert abs(s.grad_phi[0] - fd_x) <= 1e-6 * scale
            assert abs(s.grad_phi[1] - fd_y) <= 1e-6 * scale

    def test_doublet_center_singularity(self):
        with pytest.raises(FlowSingularityError):
            cem.eval_flow(cylinder_field(), 0.0, 0.0)

    def test_inside_disk_flagged_unsafe(self):
        sample = cem.eval_flow(cylinder_field(), 1.0, 1.0)
        assert sample.unsafe
        assert not cem.eval_flow(cylinder_field(), 5.0, 1.0).unsafe

    def test_cauchy_riemann_exact(self):
        rng = np.random.default_rng(RNG_SEED)
        field = cylinder_field(theta_inf=0.35)
        for _ in range(40):
            x, y = rng.uniform(-30, 30, size=2)
            if np.hypot(x, y) < 5.0:
                continue
            s = cem.eval_flow(field, x, y)
            np.testing.assert_allclose(
                s.grad_psi, [-s.grad_phi[1], s.grad_phi[0]], atol=1e-12)
            assert abs(np.dot(s.grad_phi, s.grad_psi)) <= 1e-12 * s.jac_det


class TestAssignStreamConstants:
    def test_uniform_flow_value(self):
        constants = cem.assign_stream_constants({7: (0.0, 2.0, 0.0)},
                                                uniform_field())
        assert constants[7] == pytest.approx(20.0, abs=1e-12)

    def test_on_circle_gets_body_value(self):
        constants = cem.assign_stream_constants({3: (0.0, 4.0, 0.0)},
                                                cylinder_field())
        assert constants[3] == pytest.approx(0.0, abs=1e-9)

    def test_inside_disk_rejected(self):
        with pytest.raises(ScenarioError, match="agent 9"):
            cem.assign_stream_constants({9: (1.0, 1.0, 0.0)},
                                        cylinder_field())


def oracle_eval(field, x, y):
    """(phi, psi, phi_x, phi_y) from the real per-doublet formulas of the
    cem module docstring, one doublet at a time."""
    ct, st = np.cos(field.theta_inf), np.sin(field.theta_inf)
    u = field.u_inf
    phi, psi = u * (x * ct + y * st), u * (y * ct - x * st)
    phi_x, phi_y = u * ct, u * st
    for d in field.doublets:
        dx, dy = x - d.a, y - d.b
        rho2 = dx * dx + dy * dy
        rho4 = rho2 * rho2
        c, s = np.cos(d.gamma), np.sin(d.gamma)
        phi -= d.delta * (c * dx + s * dy) / rho2
        psi += d.delta * (c * dy - s * dx) / rho2
        phi_x += d.delta * (c * (dx * dx - dy * dy) + 2 * s * dx * dy) / rho4
        phi_y += d.delta * (2 * c * dx * dy - s * (dx * dx - dy * dy)) / rho4
    return phi, psi, phi_x, phi_y


def oracle_newton(field, x, y, phi_target, psi_target, iterations=40):
    """(x, y) with (phi, psi) = the targets, by real Newton steps from (x, y)
    on the per-doublet formulas; the Jacobian of (phi, psi) is
    [[phi_x, phi_y], [-phi_y, phi_x]] (Cauchy-Riemann)."""
    for _ in range(iterations):
        phi, psi, gx, gy = oracle_eval(field, x, y)
        e_phi, e_psi = phi_target - phi, psi_target - psi
        det = gx * gx + gy * gy
        x += (gx * e_phi - gy * e_psi) / det
        y += (gy * e_phi + gx * e_psi) / det
    return x, y


def term_scale(field, x, y):
    """|u_e z| + sum_i |c_i / (z - z_i)|: the magnitude of W's summed
    terms, against which its rounding is measured."""
    rho = np.array([np.hypot(x - d.a, y - d.b) for d in field.doublets])
    delta = np.array([d.delta for d in field.doublets])
    return field.u_inf * np.hypot(x, y) + np.sum(delta / rho)


ORACLE = settings(max_examples=60)
coord = st.floats(-40.0, 40.0, allow_nan=False)


@st.composite
def fields_and_points(draw):
    """A field with 1-3 disjoint disks, theta_inf != 0, and a point well
    outside every disk."""
    theta = draw(st.floats(0.05, 2 * np.pi - 0.05))
    radius = draw(st.floats(0.5, 5.0))
    centers = draw(st.lists(st.tuples(coord, coord), min_size=1,
                            max_size=3))
    centers = np.array(centers)
    gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    assume(np.all(gaps[np.triu_indices(len(centers), 1)] > 2.5 * radius))
    field = cem.build_flow_from_failures(centers, 10.0, theta,
                                         radius_override=radius)
    x, y = draw(coord), draw(coord)
    assume(np.all(np.hypot(x - centers[:, 0], y - centers[:, 1])
                  > 1.5 * radius))
    return field, x, y


def step_velocity(field, x, y, v_phi, dt):
    """Mean velocity (3,) of one batched step from (x, y, 0), and its
    stagnated flag."""
    start = np.array([[x, y, 0.0]])
    out, stag, _ = cem.step_streamline_many(start, field, v_phi, dt)
    return (out[0] - start[0]) / dt, bool(stag[0])


class TestStreamlineVelocity:
    """The streamline velocity v_phi conj(W') / |W'|^2, seen as the mean
    velocity of one step of the inverse of W."""

    def test_uniform_unit_speed(self):
        v, stag = step_velocity(uniform_field(), 5.0, -3.0, 10.0, 0.1)
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0], atol=1e-12)
        assert not stag

    def test_rotated_stream(self):
        th = 0.7
        v, stag = step_velocity(uniform_field(theta_inf=th), 1.0, 1.0, 10.0,
                                0.1)
        np.testing.assert_allclose(v, [np.cos(th), np.sin(th), 0.0],
                                   atol=1e-12)
        assert not stag

    def test_stagnation_raises(self):
        # 1e-6 upstream of the stagnation point (-a, 0) |J| is below the
        # floor: the step raises the stagnated flag and holds the agent
        v, stag = step_velocity(cylinder_field(), -4.0 - 1e-6, 0.0, 10.0,
                                1e-3)
        assert stag
        np.testing.assert_array_equal(v, [0.0, 0.0, 0.0])

    def test_velocity_orthogonal_to_grad_psi(self):
        # d(psi)/dt = 0 and d(phi)/dt = v_phi along the step
        rng = np.random.default_rng(RNG_SEED)
        field = cylinder_field()
        dt = 1e-3
        for _ in range(40):
            rho = rng.uniform(5.0, 30.0)
            th = rng.uniform(0.0, 2 * np.pi)
            x, y = rho * np.cos(th), rho * np.sin(th)
            v, stag = step_velocity(field, x, y, 10.0, dt)
            assert not stag
            s0 = cem.eval_flow(field, x, y)
            s1 = cem.eval_flow(field, x + dt * v[0], y + dt * v[1])
            assert abs(s1.psi - s0.psi) <= 1e-9
            assert abs(s1.phi - s0.phi - 10.0 * dt) <= 1e-9


class TestStepStreamline:
    def test_uniform_advance(self):
        out, stag, proj = cem.step_streamline_many(
            np.array([[0.0, 2.0, 0.7]]), uniform_field(), 10.0, 0.1)
        np.testing.assert_allclose(out, [[0.1, 2.0, 0.7]], atol=1e-12)
        assert not stag.any() and not proj.any()

    def test_zero_dt(self):
        start = np.array([[6.0, 2.0, 0.0]])
        out, _, _ = cem.step_streamline_many(start, cylinder_field(u_inf=5.0),
                                             7.0, 0.0)
        np.testing.assert_array_equal(out, start)

    def test_conservation_past_cylinder(self):
        field = cylinder_field()
        pos = np.array([[-10.0, 0.5, 0.0]])
        psi0 = np.array([cem.eval_flow(field, -10.0, 0.5).psi])
        for _ in range(2000):
            pos, stag, proj = cem.step_streamline_many(pos, field, 10.0,
                                                       1e-3, psi0)
            assert not stag.any() and not proj.any()
        psi = cem.eval_flow(field, pos[0, 0], pos[0, 1]).psi
        assert abs(psi - psi0[0]) <= 1e-6

    @ORACLE
    @given(fields_and_points())
    def test_batch_matches_real_oracle(self, case):
        """The complex evaluator against the real per-doublet formulas.
        The tolerances scale with the magnitude of the summed terms: psi
        vanishes on every disk circle and W' at the stagnation points,
        where a bound relative to the result itself would ask for more
        than rounding allows."""
        field, x, y = case
        phi, psi, phi_x, phi_y = oracle_eval(field, x, y)
        rho = np.array([np.hypot(x - d.a, y - d.b) for d in field.doublets])
        delta = np.array([d.delta for d in field.doublets])
        pot_scale = term_scale(field, x, y)
        grad_scale = field.u_inf + np.sum(delta / rho**2)
        s = cem.eval_flow(field, x, y)
        assert abs(s.phi - phi) <= 1e-12 * pot_scale
        assert abs(s.psi - psi) <= 1e-12 * pot_scale
        np.testing.assert_allclose(s.grad_phi, [phi_x, phi_y], rtol=0,
                                   atol=1e-12 * grad_scale)

    @ORACLE
    @given(fields_and_points(), st.floats(1e-4, 1e-2),
           st.floats(-0.05, 0.05))
    def test_step_inverts_the_potential(self, case, dt, psi_shift):
        """One step lands where phi has advanced by v_phi dt and psi equals
        its target (here the current psi shifted), outside every disk, at
        the root a real Newton solve from the start point finds."""
        field, x, y = case
        phi, psi, phi_x, phi_y = oracle_eval(field, x, y)
        jac = phi_x * phi_x + phi_y * phi_y
        assume(jac > 0.01 * field.u_inf**2)
        out, stag, proj = cem.step_streamline_many(
            np.array([[x, y, 0.3]]), field, 10.0, dt,
            np.array([psi + psi_shift]))
        assert not stag[0] and not proj[0]
        x1, y1 = out[0, 0], out[0, 1]
        assert out[0, 2] == 0.3
        phi1, psi1, _, _ = oracle_eval(field, x1, y1)
        scale = max(term_scale(field, x, y), term_scale(field, x1, y1))
        assert abs(phi1 - phi - 10.0 * dt) <= 1e-12 * scale
        assert abs(psi1 - psi - psi_shift) <= 1e-12 * scale
        for d in field.doublets:
            assert np.hypot(x1 - d.a, y1 - d.b) \
                >= cem.exclusion_radius(field.u_inf, d.delta)
        want = oracle_newton(field, x, y, phi + 10.0 * dt, psi + psi_shift)
        assert np.hypot(x1 - want[0], y1 - want[1]) \
            <= 1e-11 * scale / np.sqrt(jac)

    def test_long_step_past_disk_stays_outside(self):
        """A step of 3 m in phi that grazes the disk: the exact inverse
        keeps psi and never enters it, so nothing is projected."""
        field = cylinder_field()
        start = np.array([[-4.2, 0.3, 0.5], [-12.0, 6.0, 0.5]])
        psi0 = np.array([cem.eval_flow(field, x, y).psi
                         for x, y, _ in start])
        out, stag, proj = cem.step_streamline_many(start, field, 10.0, 0.3,
                                                   psi0)
        assert not stag.any() and not proj.any()
        for (x, y, _), (x1, y1, _), target in zip(start, out, psi0):
            assert np.hypot(x1, y1) >= 4.0
            after = cem.eval_flow(field, x1, y1)
            assert abs(after.psi - target) <= 1e-9
            assert abs(after.phi - cem.eval_flow(field, x, y).phi - 3.0) \
                <= 1e-9
        np.testing.assert_array_equal(out[:, 2], start[:, 2])

    def test_step_into_disk_is_projected(self):
        """With two disks a long step sends the Newton solve to a root
        inside a disk.  That agent holds, flagged both projected and
        stagnated; the agent whose root lies outside moves along its
        streamline."""
        field = cem.build_flow_from_failures(
            np.array([[0.0, 0.0], [10.0, 0.0]]), 10.0, radius_override=4.0)
        start = np.array([[3.941, 1.056, 0.5], [3.533, 2.04, 0.5],
                          [-12.0, 6.0, 0.5]])
        out, stag, proj = cem.step_streamline_many(start, field, 10.0, 0.3)
        np.testing.assert_array_equal(proj, [True, True, False])
        np.testing.assert_array_equal(stag, proj)
        np.testing.assert_array_equal(out[:2], start[:2])
        (x, y, _), (x1, y1, _) = start[2], out[2]
        assert np.all(np.abs(complex(x1, y1) - field._centers) >= 4.0)
        before, after = cem.eval_flow(field, x, y), cem.eval_flow(field, x1, y1)
        assert abs(after.psi - before.psi) <= 1e-9
        assert abs(after.phi - before.phi - 3.0) <= 1e-9
        np.testing.assert_array_equal(out[:, 2], start[:, 2])

    def test_unconverged_solve_holds_as_stagnated(self, monkeypatch):
        """With two disks and no Newton step allowed the solve cannot
        converge: the agent holds and is flagged, never returned as is."""
        monkeypatch.setattr(cem, "_INVERSE_MAX_ITER", 0)
        field = cem.build_flow_from_failures(
            np.array([[0.0, 0.0], [30.0, 0.0]]), 10.0, radius_override=4.0)
        start = np.array([[-12.0, 6.0, 0.5]])
        out, stag, proj = cem.step_streamline_many(start, field, 10.0, 1e-2)
        assert stag[0] and not proj[0]
        np.testing.assert_array_equal(out, start)

    def test_dividing_streamline_keeps_to_one_arc(self):
        """psi_0 = 0 on the upstream axis and on the circle.  Past the
        stagnation point both roots lie on the circle; the agent keeps to
        the arc it is on, just outside the disk, instead of jumping across
        the disk by rounding."""
        field = cylinder_field()
        pos = np.array([[-4.3, 0.0, 0.0], [-4.02, 0.0, 0.0], [0.0, 4.0, 0.0]])
        ys = []
        for _ in range(1200):
            pos, stag, proj = cem.step_streamline_many(pos, field, 10.0, 1e-3,
                                                       np.zeros(3))
            assert not stag.any() and not proj.any()
            assert np.all(np.hypot(pos[:, 0], pos[:, 1]) >= 4.0)
            ys.append(pos[:, 1].copy())
        for y in np.array(ys).T:
            side = np.sign(y[np.abs(y) > 1e-9])
            assert side.size > 1000 and np.all(side == side[0])
        for x, y, _ in pos:
            assert abs(cem.eval_flow(field, x, y).psi) <= 1e-9

    def test_upstream_stagnation_point_holds(self):
        field = cylinder_field()
        start = np.array([[-4.0, 0.0, 0.0], [-12.0, 6.0, 0.0]])
        out, stag, proj = cem.step_streamline_many(start, field, 10.0, 1e-2)
        np.testing.assert_array_equal(stag, [True, False])
        assert not proj.any()
        np.testing.assert_array_equal(out[0], start[0])
        assert out[1, 0] > start[1, 0]

    def test_doublet_center_raises(self):
        with pytest.raises(FlowSingularityError):
            cem.step_streamline_many(np.array([[-9.0, 1.0, 0.0],
                                               [0.0, 0.0, 0.0]]),
                                     cylinder_field(), 10.0, 1e-2)


# -- kernel oracle ------------------------------------------------------------
# The streamline kernel as it stood before the per-tick work was cut:
# _eval zipping the numpy arrays of centers and coefficients, the one-doublet
# root picked with np.where, and the failed and projected masks formed for
# every field.  The kernel must agree with it bit for bit.

def oracle_kernel_eval(field, z):
    w, dw = field._ue * z, field._ue
    for center, coef in zip(field._centers, field._coef):
        zeta = z - center
        if np.count_nonzero(zeta) < len(zeta):
            raise FlowSingularityError("flow evaluated at doublet center")
        term = coef / zeta
        w -= term
        dw = dw + term / zeta
    return w, dw if len(field._centers) else np.full(len(z), dw)


def oracle_kernel_inside(field, z):
    return np.abs(z[:, None] - field._centers) < field._radius


def oracle_kernel_invert(field, target, seed):
    ue = field._ue
    if len(field._centers) == 1:
        center, radius = field._centers[0], field._radius[0]
        s = target - ue * center
        root = np.sqrt(s * s + 4.0 * ue * field._coef[0])
        plus, minus = s + root, s - root
        zeta = np.where(np.abs(plus) >= np.abs(minus), plus, minus) / (2 * ue)
        z = center + zeta
        tie = np.abs(zeta) <= radius * (1.0 + 1e-9)
        if np.count_nonzero(tie):
            near, seed = z[tie] - center, seed[tie] - center
            far = -field._coef[0] / (ue * near)
            arc = np.where(np.abs(far - seed) < np.abs(near - seed), far, near)
            z[tie] = center + arc * (radius * (1.0 + 1e-12) / np.abs(arc))
        return z, np.zeros(0, dtype=int)
    z = np.array(seed, dtype=np.complex128)
    todo = np.arange(len(z))
    for it in range(cem._INVERSE_MAX_ITER + 1):
        w, dw = oracle_kernel_eval(field, z[todo])
        res = w - target[todo]
        scale = np.abs(ue * z[todo]) + np.add.reduce(
            np.abs(field._coef) / np.abs(z[todo, None] - field._centers), 1)
        left = np.abs(res) > cem._INVERSE_RTOL * scale
        todo = todo[left]
        if not todo.size or it == cem._INVERSE_MAX_ITER:
            break
        z[todo] -= res[left] / dw[left]
    return z, todo


def oracle_kernel_step(positions, field, v_phi, dt, psi_targets=None):
    positions = np.asarray(positions, dtype=np.float64)
    m = positions.shape[0]
    z0 = np.ascontiguousarray(positions[:, :2]).view(np.complex128)[:, 0]
    w, dw = oracle_kernel_eval(field, z0)
    target = w + v_phi * dt
    if psi_targets is not None:
        target.imag = psi_targets
    z1, failed = oracle_kernel_invert(field, target, z0)
    projected = (oracle_kernel_inside(field, z1).any(axis=1)
                 if len(field._centers) > 1 else np.zeros(m, dtype=bool))
    floor = cem.STAGNATION_FLOOR_FACTOR * field.u_inf**2
    stagnated = np.abs(dw) < floor ** 0.5
    stagnated[failed] = True
    stagnated |= projected
    if np.count_nonzero(stagnated):
        z1[stagnated] = z0[stagnated]
    out = positions.copy()
    out[:, :2] = z1.view(np.float64).reshape(m, 2)
    return out, stagnated, projected


KERNEL = settings(max_examples=300)
POINT_KINDS = ("free", "circle", "stagnation", "edge")


@st.composite
def kernel_cases(draw):
    """A field of 1-3 disjoint disks and points where the kernel's paths
    part: anywhere outside the disks ("free"), on a disk circle, the
    dividing streamline, where both roots of a long enough step tie
    ("circle"), within 1e-9 to 1e-3 m of a cylinder's stagnation points
    ("stagnation") and just outside a disk ("edge"); with a step length
    and the stream targets None, the points' own psi or 0."""
    theta = draw(st.floats(0.0, 2 * np.pi))
    radius = draw(st.floats(0.5, 5.0))
    centers = np.array(draw(st.lists(st.tuples(coord, coord), min_size=1,
                                     max_size=3)))
    gaps = np.linalg.norm(centers[:, None] - centers[None], axis=-1)
    assume(np.all(gaps[np.triu_indices(len(centers), 1)] > 2.5 * radius))
    field = cem.build_flow_from_failures(centers, 10.0, theta,
                                         radius_override=radius)
    points = []
    for kind, j, angle, exponent, x, y in draw(st.lists(st.tuples(
            st.sampled_from(POINT_KINDS), st.integers(0, 2),
            st.floats(0.0, 2 * np.pi), st.floats(-9.0, -3.0), coord,
            coord), min_size=1, max_size=8)):
        center = complex(*centers[j % len(centers)])
        if kind == "free":
            z = complex(x, y)
            assume(np.all(np.abs(z - field._centers) > radius))
        elif kind == "circle":
            z = center + radius * np.exp(1j * angle)
        elif kind == "stagnation":   # upstream or downstream, by j
            z = center + radius * np.exp(1j * theta) * (-1) ** j \
                + 10.0**exponent * np.exp(1j * angle)
        else:
            z = center + radius * (1.0 + 10.0**exponent) * np.exp(1j * angle)
        points.append((z.real, z.imag, x))
    positions = np.array(points)
    dt = draw(st.sampled_from([1e-3, 0.05, 0.3, 2.0]))
    psi = draw(st.sampled_from(["none", "own", "zero"]))
    if psi == "none":
        targets = None
    elif psi == "own":
        targets = np.array([cem.eval_flow(field, px, py).psi
                            for px, py, _ in positions])
    else:
        targets = np.zeros(len(positions))
    return field, positions, dt, targets


class TestKernelOracle:
    @KERNEL
    @given(kernel_cases())
    def test_step_matches_the_oracle_bit_for_bit(self, case):
        field, positions, dt, targets = case
        got = cem.step_streamline_many(positions, field, 10.0, dt, targets)
        want = oracle_kernel_step(positions, field, 10.0, dt, targets)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_cases_reach_every_path(self):
        """The strategy's points reach the tie on the circle, the
        stagnation floor and the projection out of a Newton solve."""
        hits = {"tie": 0, "stagnated": 0, "projected": 0}

        @KERNEL
        @given(kernel_cases())
        def collect(case):
            field, positions, dt, targets = case
            out, stag, proj = oracle_kernel_step(positions, field, 10.0, dt,
                                                 targets)
            hits["stagnated"] += int(np.count_nonzero(stag & ~proj))
            hits["projected"] += int(np.count_nonzero(proj))
            if len(field.doublets) == 1:
                rho = np.hypot(out[:, 0] - field.doublets[0].a,
                               out[:, 1] - field.doublets[0].b)
                radius = cem.exclusion_radius(field.u_inf,
                                              field.doublets[0].delta)
                hits["tie"] += int(np.count_nonzero(
                    (np.abs(rho / radius - 1.0) < 1e-11) & ~stag))

        collect()
        assert all(hits.values()), hits


class TestLaplace:
    def test_harmonic_residuals(self):
        rng = np.random.default_rng(RNG_SEED)
        field = cylinder_field()
        a = 4.0
        h = 1e-3 * a
        for _ in range(60):
            rho = rng.uniform(1.5 * a, 8 * a)
            th = rng.uniform(0.0, 2 * np.pi)
            x, y = rho * np.cos(th), rho * np.sin(th)
            for attr in ("phi", "psi"):
                c = getattr(cem.eval_flow(field, x, y), attr)
                xp = getattr(cem.eval_flow(field, x + h, y), attr)
                xm = getattr(cem.eval_flow(field, x - h, y), attr)
                yp = getattr(cem.eval_flow(field, x, y + h), attr)
                ym = getattr(cem.eval_flow(field, x, y - h), attr)
                lap = (xp + xm + yp + ym - 4 * c) / (h * h)
                scale = max(abs(c), 1.0) / (h * h) * 1e-12
                assert abs(lap) <= max(1e-4, scale)
