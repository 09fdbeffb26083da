import numpy as np
import pytest

from halfspace_bubbles.bubble_family import BubbleParams, bubble_field, evaluate_bubble
from halfspace_bubbles.conformal_ball import (
    ConformalSetup,
    ball_field,
    ball_system_residual,
    recover_mu_alpha,
    setup_from_params,
    transform_v,
    verify_radial,
    verify_T_properties,
)
from halfspace_bubbles.errors import NoRealRoot, SingularPoint, StencilOutOfDomain
from halfspace_bubbles.fd_verifier import convergence_from_sups
from halfspace_bubbles.kelvin_inversion import critical_radius, kelvin_point
from halfspace_bubbles.radial_ode import closed_form_psi
from halfspace_bubbles.sampling import ball_points, halfspace_box_points, sphere_points


def fixture_setup(params):
    return setup_from_params(params)


class TestGeometry:
    def test_setup_invariants(self, params_f2):
        setup = fixture_setup(params_f2)
        assert setup.d == pytest.approx(2.0, rel=1e-15)
        assert setup.P[-1] == -setup.d
        assert setup.Q[-1] == setup.d
        assert np.linalg.norm(setup.Q - setup.P) == pytest.approx(2 * setup.d, rel=1e-15)

    def test_fixed_point_at_Q(self, params_f2):
        setup = fixture_setup(params_f2)
        np.testing.assert_allclose(kelvin_point(setup.T, setup.Q), setup.Q, rtol=1e-15)

    def test_image_of_xbar(self, params_f2):
        # |xbar - P| = d, so the image is P + 4(xbar - P) = xbar + 3 d e_N
        setup = fixture_setup(params_f2)
        expected = setup.xbar + 3 * setup.d * np.eye(3)[-1]
        np.testing.assert_allclose(kelvin_point(setup.T, setup.xbar), expected, rtol=1e-15)

    def test_involution(self, params_f3):
        setup = fixture_setup(params_f3)
        rng = np.random.default_rng(11)
        pts = rng.uniform(-10, 10, size=(2000, 4))
        pts[:, -1] = np.abs(pts[:, -1]) + 1e-6
        back = kelvin_point(setup.T, kelvin_point(setup.T, pts))
        rel = np.linalg.norm(back - pts, axis=1) / (
            np.linalg.norm(pts - setup.P, axis=1) + setup.d
        )
        assert rel.max() <= 1e-13

    def test_singular_at_pole(self, params_f1):
        setup = fixture_setup(params_f1)
        with pytest.raises(SingularPoint):
            kelvin_point(setup.T, setup.P)

    def test_critical_radius_passes_through_poles(self, params_f2):
        setup = fixture_setup(params_f2)
        for tang in ([0.0, 0.0], [1.0, 0.0], [3.0, 4.0]):
            x = np.array([tang[0], tang[1], 0.0])
            lam = critical_radius(setup.d**2, setup.xbar, x)
            assert np.linalg.norm(x - setup.P) == pytest.approx(lam, rel=1e-15)
            assert np.linalg.norm(x - setup.Q) == pytest.approx(lam, rel=1e-15)


class TestMappingProperties:
    def test_all_four_properties(self, fixture_pair):
        spec, params = fixture_pair
        setup = fixture_setup(params)
        d = setup.d
        box = np.tile([-5.0 * d, 5.0 * d], (spec.N, 1))
        box[-1] = [1e-6 * d, 5.0 * d]
        samples = halfspace_box_points(box, 3000, seed=13)
        xs = [np.zeros(spec.N)]
        x2 = np.zeros(spec.N)
        x2[0] = 1.0
        x3 = np.zeros(spec.N)
        x3[:2] = [3.0, 4.0]
        xs += [x2, x3]
        report = verify_T_properties(setup, xs, samples)
        assert report.involution_max_rel <= 1e-13
        assert report.containment_strict
        assert report.boundary_sphere_max_rel <= 1e-12
        assert report.boundary_min_dist_to_P > 0.0
        assert max(report.plane_max_rel.values()) <= 1e-12
        assert max(report.mirror_max_rel.values()) <= 1e-12

    def test_far_sample_lands_near_pole(self, params_f1):
        # images of far points pile up at P, which sits on the sphere itself
        setup = fixture_setup(params_f1)
        y = np.array([0.0, 0.0, 1e6])
        img = kelvin_point(setup.T, y)
        ratio = np.linalg.norm(img - setup.Q) / (2 * setup.d)
        assert ratio < 1.0
        assert 1.0 - ratio < 1e-5


class TestTransportedField:
    def test_value_at_Q(self, params_f2):
        setup = fixture_setup(params_f2)
        u = bubble_field(params_f2)
        np.testing.assert_allclose(
            transform_v(setup, u, setup.Q), evaluate_bubble(params_f2, setup.Q), rtol=1e-14
        )

    def test_extension_limit_at_pole(self, fixture_pair):
        spec, params = fixture_pair
        setup = fixture_setup(params)
        u = bubble_field(params)
        extension = 2.0 ** (2 - spec.N) * evaluate_bubble(params, setup.xbar)
        direction = np.zeros(spec.N)
        direction[0] = 0.6
        direction[-1] = 0.8
        for eps, tol in ((1e-3, 2e-3), (1e-6, 2e-6)):
            z = setup.P + eps * setup.d * direction
            v = transform_v(setup, u, z)
            assert np.max(np.abs(v - extension) / extension) <= tol
        # inside the extension radius the exact limit value is returned
        z = setup.P + 1e-12 * setup.d * direction
        np.testing.assert_array_equal(transform_v(setup, u, z), extension)

    def test_radial_symmetry(self, fixture_pair):
        spec, params = fixture_pair
        setup = fixture_setup(params)
        v = ball_field(setup, bubble_field(params))
        radii = np.linspace(0.05, 0.95, 8) * 2 * setup.d
        variation = verify_radial(setup, v, radii, angular_samples=128)
        assert variation.max() <= 1e-10

    def test_perturbed_center_breaks_radial_symmetry(self, params_f2):
        setup = fixture_setup(params_f2)
        shifted = BubbleParams(
            sigma=params_f2.sigma, betas=params_f2.betas, y0=params_f2.y0 + [0.05, 0.0, 0.0]
        )
        v = ball_field(setup, bubble_field(shifted))
        variation = verify_radial(setup, v, [setup.d], angular_samples=128)
        assert variation.max() > 1e-4

    def test_variation_vanishes_toward_center(self, params_f2):
        setup = fixture_setup(params_f2)
        v = ball_field(setup, bubble_field(params_f2))
        variation = verify_radial(setup, v, [1e-8 * setup.d], angular_samples=64)
        assert variation.max() <= 1e-12

    def test_radii_must_fit_in_ball(self, params_f1):
        setup = fixture_setup(params_f1)
        v = ball_field(setup, bubble_field(params_f1))
        with pytest.raises(ValueError):
            verify_radial(setup, v, [2.5 * setup.d])


class TestBallResiduals:
    def h_study(self, spec, setup, v, h):
        interior = ball_points(setup.Q, 2 * setup.d, 300, seed=17, margin=13 * h)
        boundary = sphere_points(setup.Q, 2 * setup.d, 150, seed=19)
        sups = []
        h_list = [4 * h, 2 * h, h]
        for hh in h_list:
            rep = ball_system_residual(spec, setup, v, interior, boundary, hh)
            sups.append(np.maximum(rep.sup_interior, rep.sup_boundary))
        return h_list, np.asarray(sups)

    def test_transported_fixture_is_second_order(self, fixture_pair):
        spec, params = fixture_pair
        setup = fixture_setup(params)
        v = ball_field(setup, bubble_field(params))
        h_list, sups = self.h_study(spec, setup, v, 1e-3 * setup.d)
        slopes, degenerate = convergence_from_sups(h_list, sups)
        assert not degenerate.any()
        assert np.all(np.abs(slopes - 2.0) < 0.1)

    def test_zero_coefficient_reduces_to_robin_only(self, spec_f1, params_f1):
        # c = 0 removes the flux product; the Robin terms alone must balance
        setup = fixture_setup(params_f1)
        v = ball_field(setup, bubble_field(params_f1))
        h = 1e-3 * setup.d
        boundary = sphere_points(setup.Q, 2 * setup.d, 150, seed=23)
        rep = ball_system_residual(
            spec_f1, setup, v, setup.Q[None, :], boundary, h
        )
        assert rep.sup_boundary[0] <= 10 * h**2

    def test_perturbed_amplitude_gives_order_one_residual(self, spec_f2, params_f2):
        setup = fixture_setup(params_f2)
        bad = BubbleParams(sigma=params_f2.sigma, betas=params_f2.betas * 1.1, y0=params_f2.y0)
        v = ball_field(setup, bubble_field(bad))
        interior = ball_points(setup.Q, 2 * setup.d, 200, seed=29, margin=0.2 * setup.d)
        boundary = sphere_points(setup.Q, 2 * setup.d, 100, seed=31)
        rep = ball_system_residual(spec_f2, setup, v, interior, boundary, 1e-3 * setup.d)
        assert rep.sup_interior[0] > 1e-3

    def test_interior_margin_enforced(self, spec_f1, params_f1):
        setup = fixture_setup(params_f1)
        v = ball_field(setup, bubble_field(params_f1))
        h = 1e-2
        too_close = setup.Q + np.array([0.0, 0.0, 2 * setup.d - 2.5 * h])
        boundary = sphere_points(setup.Q, 2 * setup.d, 10, seed=37)
        with pytest.raises(StencilOutOfDomain):
            ball_system_residual(spec_f1, setup, v, too_close[None, :], boundary, h)


class TestRecovery:
    def test_boundary_center_gives_balanced_root(self, params_f1):
        # y0 on the boundary: d = sigma, double root t = 1/2, mu = 2d
        setup = fixture_setup(params_f1)
        mu, alphas = recover_mu_alpha(setup, params_f1)
        assert mu == pytest.approx(2 * setup.d, rel=1e-12)
        np.testing.assert_allclose(
            alphas, params_f1.betas * 2.0 ** ((params_f1.N - 2) / 2), rtol=1e-12
        )

    def test_submerged_center_branch_selection(self, params_f2):
        # hand value: t = (2 - sqrt(3))/4, mu = 2d sqrt((1-t)/t) = 4 (2 + sqrt(3))
        setup = fixture_setup(params_f2)
        mu, alphas = recover_mu_alpha(setup, params_f2)
        assert mu == pytest.approx(4 * (2 + np.sqrt(3.0)), rel=1e-13)
        t = 4 * setup.d**2 / (mu**2 + 4 * setup.d**2)
        assert setup.d * (2 * t - 1) == pytest.approx(params_f2.y0[-1], rel=1e-12)

    def test_recovered_parameters_satisfy_amplitude_condition(self, fixture_pair):
        # alphas must solve the amplitude system at scale mu (re-solved, not assumed)
        from halfspace_bubbles.bubble_family import solve_betas

        spec, params = fixture_pair
        setup = fixture_setup(params)
        mu, alphas = recover_mu_alpha(setup, params)
        resolved = solve_betas(spec, mu).betas()
        np.testing.assert_allclose(alphas, resolved, rtol=1e-10)
        condition = np.log(alphas) - spec.A @ np.log(alphas) + np.log(mu**2 * spec.N * (spec.N - 2))
        assert np.max(np.abs(condition)) <= 1e-10

    def test_closed_form_matches_transport(self, fixture_pair):
        spec, params = fixture_pair
        setup = fixture_setup(params)
        mu, alphas = recover_mu_alpha(setup, params)
        u = bubble_field(params)
        r = np.linspace(0.0, 2 * setup.d * (1 - 1e-9), 100)
        dirs = np.zeros((100, spec.N))
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((100, spec.N))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        z = setup.Q + r[:, None] * dirs
        v = transform_v(setup, u, z)
        psi = closed_form_psi(spec.N, alphas, mu, r)
        assert np.max(np.abs(v - psi) / psi) <= 1e-10

    def test_no_real_root_when_width_too_small(self, params_f2):
        narrow = ConformalSetup(xbar=np.zeros(3), d=0.5 * params_f2.sigma)
        with pytest.raises(NoRealRoot):
            recover_mu_alpha(narrow, params_f2)
