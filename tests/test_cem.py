"""Containment exclusion mode (potential flow) tests.

Analytic values come from the uniform-plus-doublet closed forms; finite
difference oracles check the gradients and the Laplace property, and the
real per-doublet formulas check the complex evaluator and the RK4 step.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from contiform import cem
from contiform.errors import (FlowSingularityError, ScenarioError,
                              StagnationError)

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
        np.testing.assert_allclose(field.exclusion_radii, [4.0], atol=1e-12)

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


class TestStreamlineVelocity:
    def test_uniform_unit_speed(self):
        v = cem.streamline_velocity(uniform_field(), 5.0, -3.0, 10.0)
        np.testing.assert_allclose(v, [1.0, 0.0, 0.0], atol=1e-12)

    def test_rotated_stream(self):
        th = 0.7
        v = cem.streamline_velocity(uniform_field(theta_inf=th), 1.0, 1.0,
                                    10.0)
        np.testing.assert_allclose(v, [np.cos(th), np.sin(th), 0.0],
                                   atol=1e-12)

    def test_stagnation_raises(self):
        field = cylinder_field()
        with pytest.raises(StagnationError):
            cem.streamline_velocity(field, -4.0 - 1e-6, 0.0, 10.0)

    def test_velocity_orthogonal_to_grad_psi(self):
        rng = np.random.default_rng(RNG_SEED)
        field = cylinder_field()
        for _ in range(40):
            rho = rng.uniform(5.0, 30.0)
            th = rng.uniform(0.0, 2 * np.pi)
            x, y = rho * np.cos(th), rho * np.sin(th)
            v = cem.streamline_velocity(field, x, y, 10.0)
            s = cem.eval_flow(field, x, y)
            assert abs(np.dot(v[:2], s.grad_psi)) <= 1e-9


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


def oracle_rk4(field, x, y, v_phi, dt):
    """One real-arithmetic RK4 step along grad_phi / |grad_phi|^2."""
    def rate(px, py):
        _, _, gx, gy = oracle_eval(field, px, py)
        scale = v_phi / (gx * gx + gy * gy)
        return scale * gx, scale * gy

    k1 = rate(x, y)
    k2 = rate(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1])
    k3 = rate(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1])
    k4 = rate(x + dt * k3[0], y + dt * k3[1])
    return (x + dt / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]),
            y + dt / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]))


ORACLE = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
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
    @given(fields_and_points(), st.floats(1e-4, 1e-2))
    def test_batch_matches_real_oracle(self, case, dt):
        """The complex evaluator and one RK4 step against the real
        per-doublet formulas.  The tolerances scale with the magnitude of
        the summed terms: psi vanishes on every disk circle and W' at the
        stagnation points, where a bound relative to the result itself
        would ask for more than rounding allows."""
        field, x, y = case
        phi, psi, phi_x, phi_y = oracle_eval(field, x, y)
        rho = np.array([np.hypot(x - d.a, y - d.b) for d in field.doublets])
        delta = np.array([d.delta for d in field.doublets])
        pot_scale = field.u_inf * np.hypot(x, y) + np.sum(delta / rho)
        grad_scale = field.u_inf + np.sum(delta / rho**2)
        s = cem.eval_flow(field, x, y)
        assert abs(s.phi - phi) <= 1e-12 * pot_scale
        assert abs(s.psi - psi) <= 1e-12 * pot_scale
        np.testing.assert_allclose(s.grad_phi, [phi_x, phi_y], rtol=0,
                                   atol=1e-12 * grad_scale)
        assume(s.jac_det > 0.01 * field.u_inf**2)
        want = oracle_rk4(field, x, y, 10.0, dt)
        out, stag, proj = cem.step_streamline_many(
            np.array([[x, y, 0.3]]), field, 10.0, dt)
        assume(not proj[0])
        assert not stag[0]
        moved = np.hypot(want[0] - x, want[1] - y)
        np.testing.assert_allclose(out[0], [want[0], want[1], 0.3], rtol=0,
                                   atol=1e-12 * (np.hypot(x, y) + moved))

    def test_step_into_disk_is_projected(self):
        field = cylinder_field()
        start = np.array([[-4.2, 0.3, 0.5], [-12.0, 6.0, 0.5]])
        psi0 = np.array([cem.eval_flow(field, x, y).psi
                         for x, y, _ in start])
        out, stag, proj = cem.step_streamline_many(start, field, 10.0, 0.3,
                                                   psi0)
        np.testing.assert_array_equal(proj, [True, False])
        assert not stag.any()
        assert np.hypot(out[0, 0], out[0, 1]) >= 4.0
        assert abs(cem.eval_flow(field, out[0, 0], out[0, 1]).psi
                   - psi0[0]) <= 1e-9
        np.testing.assert_array_equal(out[:, 2], start[:, 2])

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
