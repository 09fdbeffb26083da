import tracemalloc

import numpy as np
import pytest
from mpmath import mp

from halfspace_bubbles import fd_verifier
from halfspace_bubbles.bubble_family import (
    BubbleParams,
    bubble_field,
    evaluate_bubble,
    make_bubble_params,
)
from halfspace_bubbles.conformal_ball import (
    ball_field,
    ball_system_residual,
    recover_mu_alpha,
    transform_v,
    verify_radial,
    verify_T_properties,
)
from halfspace_bubbles.errors import SingularPoint, StencilOutOfDomain
from halfspace_bubbles.exponent_system import EllipticSystemSpec
from halfspace_bubbles.kelvin_inversion import critical_radius, kelvin_point
from halfspace_bubbles.radial_ode import closed_form_psi
from halfspace_bubbles.sampling import ball_points, halfspace_box_points, sphere_points

from conftest import spec_m1, spec_m2_asymmetric


def T(params, y):
    """The half-space-to-ball map: inversion about P with radius 2d, at points (k, N)."""
    return kelvin_point(params.P, 2 * params.d, y)


class TestGeometry:
    def test_setup_invariants(self, params_f2):
        assert params_f2.d == pytest.approx(2.0, rel=1e-15)
        assert params_f2.P[-1] == -params_f2.d
        assert params_f2.Q[-1] == params_f2.d
        gap = np.linalg.norm(params_f2.Q - params_f2.P)
        assert gap == pytest.approx(2 * params_f2.d, rel=1e-15)

    def test_fixed_point_at_Q(self, params_f2):
        np.testing.assert_allclose(T(params_f2, params_f2.Q[None]), params_f2.Q[None], rtol=1e-15)

    def test_image_of_xbar(self, params_f2):
        # |xbar - P| = d, so the image is P + 4(xbar - P) = xbar + 3 d e_N
        expected = params_f2.xbar + 3 * params_f2.d * np.eye(3)[-1]
        np.testing.assert_allclose(T(params_f2, params_f2.xbar[None]), expected[None], rtol=1e-15)

    def test_involution(self, params_f3):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-10, 10, size=(2000, 4))
        pts[:, -1] = np.abs(pts[:, -1]) + 1e-6
        back = T(params_f3, T(params_f3, pts))
        rel = np.linalg.norm(back - pts, axis=1) / (
            np.linalg.norm(pts - params_f3.P, axis=1) + params_f3.d
        )
        assert rel.max() <= 1e-13

    def test_singular_at_pole(self, params_f1):
        with pytest.raises(SingularPoint):
            T(params_f1, params_f1.P[None])

    def test_critical_radius_passes_through_poles(self, params_f2):
        for tang in ([0.0, 0.0], [1.0, 0.0], [3.0, 4.0]):
            x = np.array([tang[0], tang[1], 0.0])
            lam = critical_radius(params_f2.d**2, params_f2.xbar, x)
            assert np.linalg.norm(x - params_f2.P) == pytest.approx(lam, rel=1e-15)
            assert np.linalg.norm(x - params_f2.Q) == pytest.approx(lam, rel=1e-15)


class TestMappingProperties:
    def test_all_four_properties(self, fixture_pair):
        spec, params = fixture_pair
        d = params.d
        box = np.tile([-5.0 * d, 5.0 * d], (spec.N, 1))
        box[-1] = [1e-6 * d, 5.0 * d]
        samples = halfspace_box_points(box, 3000, seed=13)
        xs = [np.zeros(spec.N)]
        x2 = np.zeros(spec.N)
        x2[0] = 1.0
        x3 = np.zeros(spec.N)
        x3[:2] = [3.0, 4.0]
        xs += [x2, x3]
        report = verify_T_properties(params, xs, samples, seed=20240901)
        assert report.involution_max_rel <= 1e-13
        assert report.containment_strict
        assert report.boundary_sphere_max_rel <= 1e-12
        assert report.boundary_min_dist_to_P > 0.0
        assert max(report.plane_max_rel.values()) <= 1e-12
        assert max(report.mirror_max_rel.values()) <= 1e-12

    @staticmethod
    def _samples(params, N, n, seed):
        box = np.tile([-5.0 * params.d, 5.0 * params.d], (N, 1))
        box[-1] = [1e-6 * params.d, 5.0 * params.d]
        return halfspace_box_points(box, n, seed=seed)

    def test_block_size_leaves_the_report_unchanged(self, fixture_pair, monkeypatch):
        spec, params = fixture_pair
        samples = self._samples(params, spec.N, 1000, 13)
        xs = [np.zeros(spec.N)]
        monkeypatch.setattr(fd_verifier, "BLOCK_CENTERS", 7)
        blocked = verify_T_properties(params, xs, samples, seed=20240901)
        # a sample at the pole in the last block still raises
        with pytest.raises(ValueError, match="pole"):
            verify_T_properties(params, xs, np.vstack([samples, params.P]), seed=20240901)
        monkeypatch.setattr(fd_verifier, "BLOCK_CENTERS", 10**6)
        assert blocked == verify_T_properties(params, xs, samples, seed=20240901)

    def test_memory_is_bounded_by_the_block(self):
        # 40,000 samples in N = 5: checks (i) and (ii) on the whole set at once traced 9.5 MB
        spec = EllipticSystemSpec(N=5, m=1, A=[[7 / 3]], B=[[5 / 3]], c=[-1.0])
        params = make_bubble_params(spec, 1.0)
        samples = self._samples(params, 5, 40000, 13)
        tracemalloc.start()
        try:
            report = verify_T_properties(params, [np.zeros(5)], samples, seed=20240901)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_samples == 40000 and report.containment_strict
        assert peak < 3 * 2**20

    def test_far_sample_lands_near_pole(self, params_f1):
        # images of far points pile up at P, which sits on the sphere itself
        y = np.array([[0.0, 0.0, 1e6]])
        img = T(params_f1, y)
        ratio = np.linalg.norm(img - params_f1.Q) / (2 * params_f1.d)
        assert ratio < 1.0
        assert 1.0 - ratio < 1e-5


class TestTransportedField:
    def test_value_at_Q(self, params_f2):
        u = bubble_field(params_f2)
        np.testing.assert_allclose(
            transform_v(params_f2, u, params_f2.Q[None]),
            evaluate_bubble(params_f2, params_f2.Q[None]),
            rtol=1e-14,
        )

    def test_extension_limit_at_pole(self, fixture_pair):
        spec, params = fixture_pair
        u = bubble_field(params)
        extension = 2.0 ** (2 - spec.N) * evaluate_bubble(params, params.xbar[None])[0]
        direction = np.zeros(spec.N)
        direction[0] = 0.6
        direction[-1] = 0.8
        for eps, tol in ((1e-3, 2e-3), (1e-6, 2e-6)):
            z = params.P + eps * params.d * direction
            v = transform_v(params, u, z[None])[0]
            assert np.max(np.abs(v - extension) / extension) <= tol
        # inside the extension radius the exact limit value is returned
        z = params.P + 1e-12 * params.d * direction
        np.testing.assert_array_equal(transform_v(params, u, z[None])[0], extension)

    def test_radial_symmetry(self, fixture_pair):
        spec, params = fixture_pair
        v = ball_field(params, bubble_field(params))
        radii = np.linspace(0.05, 0.95, 8) * 2 * params.d
        variation = verify_radial(params, v, radii, seed=20240902)
        assert variation.max() <= 1e-10

    def test_radial_variation_does_not_depend_on_value_layout(self, params_f3):
        # transported values are point-major, and the sphere mean is taken over
        # point-major memory, so the same values in Fortran order give the same bytes
        v = ball_field(params_f3, bubble_field(params_f3))
        radii = np.linspace(0.05, 0.95, 8) * 2 * params_f3.d
        assert v(params_f3.Q + radii[:, None] * np.eye(4)[:1]).flags.c_contiguous
        expected = verify_radial(params_f3, v, radii, seed=20240902)
        fortran = lambda points: np.asfortranarray(v(points))
        layout_free = verify_radial(params_f3, fortran, radii, seed=20240902)
        assert layout_free.tobytes() == expected.tobytes()

    def test_perturbed_center_breaks_radial_symmetry(self, params_f2):
        shifted = BubbleParams(
            sigma=params_f2.sigma, betas=params_f2.betas, y0=params_f2.y0 + [0.05, 0.0, 0.0]
        )
        v = ball_field(params_f2, bubble_field(shifted))
        variation = verify_radial(params_f2, v, [params_f2.d], seed=20240902)
        assert variation.max() > 1e-4

    def test_variation_vanishes_toward_center(self, params_f2):
        v = ball_field(params_f2, bubble_field(params_f2))
        variation = verify_radial(params_f2, v, [1e-8 * params_f2.d], seed=20240902)
        assert variation.max() <= 1e-12

    def test_radii_must_fit_in_ball(self, params_f1):
        v = ball_field(params_f1, bubble_field(params_f1))
        with pytest.raises(ValueError):
            verify_radial(params_f1, v, [2.5 * params_f1.d], seed=20240902)


class TestBallResiduals:
    def test_transported_fixture_is_second_order(self, fixture_pair):
        spec, params = fixture_pair
        v = ball_field(params, bubble_field(params))
        h = 1e-3 * params.d
        interior = ball_points(params.Q, 2 * params.d, 300, seed=17, margin=13 * h)
        boundary = sphere_points(params.Q, 2 * params.d, 150, seed=19)
        study = ball_system_residual(spec, params, v, interior, boundary, h)
        # the combined (interior and boundary) sup of each component
        assert not study.degenerate.any()
        assert np.all(np.abs(study.slope - 2.0) < 0.1)

    def test_zero_coefficient_reduces_to_robin_only(self, spec_f1, params_f1):
        # c = 0 removes the flux product; the Robin terms alone must balance
        v = ball_field(params_f1, bubble_field(params_f1))
        h = 1e-3 * params_f1.d
        boundary = sphere_points(params_f1.Q, 2 * params_f1.d, 150, seed=23)
        study = ball_system_residual(
            spec_f1, params_f1, v, params_f1.Q[None, :], boundary, h
        )
        assert study.finest.sup_boundary[0] <= 10 * h**2

    def test_perturbed_amplitude_gives_order_one_residual(self, spec_f2, params_f2):
        bad = BubbleParams(sigma=params_f2.sigma, betas=params_f2.betas * 1.1, y0=params_f2.y0)
        v = ball_field(params_f2, bubble_field(bad))
        interior = ball_points(params_f2.Q, 2 * params_f2.d, 200, seed=29, margin=0.2 * params_f2.d)
        boundary = sphere_points(params_f2.Q, 2 * params_f2.d, 100, seed=31)
        study = ball_system_residual(
            spec_f2, params_f2, v, interior, boundary, 1e-3 * params_f2.d
        )
        assert study.finest.sup_interior[0] > 1e-3

    def test_interior_margin_enforced(self, spec_f1, params_f1):
        v = ball_field(params_f1, bubble_field(params_f1))
        h = 1e-2
        too_close = params_f1.Q + np.array([0.0, 0.0, 2 * params_f1.d - 2.5 * h])
        boundary = sphere_points(params_f1.Q, 2 * params_f1.d, 10, seed=37)
        with pytest.raises(StencilOutOfDomain):
            ball_system_residual(spec_f1, params_f1, v, too_close[None, :], boundary, h)

    def test_margin_is_taken_at_the_largest_step(self, spec_f1, params_f1):
        # 5h from the sphere: room for a study that ends at h, none for one that starts there
        v = ball_field(params_f1, bubble_field(params_f1))
        h = 1e-2
        point = (params_f1.Q + np.array([0.0, 0.0, 2 * params_f1.d - 5 * h]))[None, :]
        boundary = sphere_points(params_f1.Q, 2 * params_f1.d, 10, seed=37)
        with pytest.raises(StencilOutOfDomain):
            ball_system_residual(spec_f1, params_f1, v, point, boundary, h)
        study = ball_system_residual(spec_f1, params_f1, v, point, boundary, h / 4)
        assert study.finest.h == h / 4


class TestRecovery:
    def test_boundary_center_gives_balanced_root(self, params_f1):
        # y0 on the boundary: d = sigma, double root t = 1/2, mu = 2d
        mu, alphas = recover_mu_alpha(params_f1)
        assert mu == pytest.approx(2 * params_f1.d, rel=1e-12)
        np.testing.assert_allclose(
            alphas, params_f1.betas * 2.0 ** ((params_f1.N - 2) / 2), rtol=1e-12
        )

    def test_submerged_center_branch_selection(self, params_f2):
        # hand value: t = (2 - sqrt(3))/4, mu = 2d sqrt((1-t)/t) = 4 (2 + sqrt(3))
        mu, alphas = recover_mu_alpha(params_f2)
        assert mu == pytest.approx(4 * (2 + np.sqrt(3.0)), rel=1e-13)
        t = 4 * params_f2.d**2 / (mu**2 + 4 * params_f2.d**2)
        assert params_f2.d * (2 * t - 1) == pytest.approx(params_f2.y0[-1], rel=1e-12)

    @pytest.mark.parametrize("sigma", [1e-12, 1.0, 1e9])
    @pytest.mark.parametrize(
        "system, c",
        [("m1", c) for c in (-1e5, -1e3, -1.0, 0.0, 1.0, 1e3, 1e5)]
        + [("f4", c) for c in (-1e5, -1e3, -1.0, 0.0)],
    )
    def test_closed_form_matches_mpmath(self, system, c, sigma):
        # |y0N| / sigma grows with |c| alone: at c = -1e5 the center sits 1.7e5
        # widths below the boundary, and d - |y0N| cancels in floating point
        if system == "m1":
            spec = spec_m1(c)
        else:
            f4 = spec_m2_asymmetric()
            spec = EllipticSystemSpec(N=4, m=2, A=f4.A, B=f4.B, c=[c, c])
        params = make_bubble_params(spec, sigma)
        mu, alphas = recover_mu_alpha(params)
        with mp.workdps(50):
            s, y0N = mp.mpf(params.sigma), mp.mpf(params.y0[-1])
            d = mp.sqrt(s**2 + y0N**2)
            mu_ref = 2 * d * s / (d + y0N)
            t = 1 / (1 + (mu_ref / (2 * d)) ** 2)
            alphas_ref = [mp.mpf(b) * t ** (-mp.mpf(spec.N - 2) / 2) for b in params.betas]
            mu_ref, alphas_ref = float(mu_ref), np.array([float(a) for a in alphas_ref])
        assert abs(mu - mu_ref) <= 1e-13 * mu_ref
        np.testing.assert_allclose(alphas, alphas_ref, rtol=1e-13, atol=0)

    def test_recovered_parameters_satisfy_amplitude_condition(self, fixture_pair):
        # alphas must solve the amplitude system at scale mu (re-solved, not assumed)
        from halfspace_bubbles.bubble_family import solve_betas

        spec, params = fixture_pair
        mu, alphas = recover_mu_alpha(params)
        resolved = solve_betas(spec, mu).betas()
        np.testing.assert_allclose(alphas, resolved, rtol=1e-10)
        condition = np.log(alphas) - spec.A @ np.log(alphas) + np.log(mu**2 * spec.N * (spec.N - 2))
        assert np.max(np.abs(condition)) <= 1e-10

    def test_closed_form_matches_transport(self, fixture_pair):
        spec, params = fixture_pair
        mu, alphas = recover_mu_alpha(params)
        u = bubble_field(params)
        r = np.linspace(0.0, 2 * params.d * (1 - 1e-9), 100)
        dirs = np.zeros((100, spec.N))
        rng = np.random.default_rng(41)
        raw = rng.standard_normal((100, spec.N))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        z = params.Q + r[:, None] * dirs
        v = transform_v(params, u, z)
        psi = closed_form_psi(spec.N, alphas, mu, r)
        assert np.max(np.abs(v - psi) / psi) <= 1e-10

