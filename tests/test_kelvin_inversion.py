import numpy as np
import pytest

from halfspace_bubbles.bubble_family import BubbleParams, bubble_field, evaluate_bubble
from halfspace_bubbles.errors import BadBracket, SingularPoint
from halfspace_bubbles.fd_verifier import convergence_order
from halfspace_bubbles.kelvin_inversion import (
    SphereInversion,
    critical_lambda_exact,
    decay_check,
    difference_w,
    kelvin_point,
    kelvin_transform_u,
    sweep_moving_spheres,
    verify_symmetry_identity,
)
from halfspace_bubbles.sampling import polar_shell, unit_directions


def standard_samples(x, lam, n_radii=24, n_dirs=32, seed=101):
    """Polar shells from 0.05 to 50 critical radii about the center."""
    return polar_shell(x, 0.05 * lam, 50.0 * lam, n_radii, n_dirs, seed=seed, upper=True)


class TestKelvinPoint:
    def test_sphere_is_fixed(self):
        inv = SphereInversion(center=np.array([1.0, 2.0, 0.0]), radius=1.7)
        direction = np.array([3.0, -1.0, 2.0])
        y = inv.center + 1.7 * direction / np.linalg.norm(direction)
        np.testing.assert_allclose(kelvin_point(inv, y), y, rtol=1e-15)

    def test_radial_inversion(self):
        inv = SphereInversion(center=np.zeros(3), radius=1.0)
        np.testing.assert_allclose(
            kelvin_point(inv, np.array([0.0, 0.0, 2.0])), [0.0, 0.0, 0.5], atol=1e-16
        )

    def test_involution_on_random_points(self):
        inv = SphereInversion(center=np.array([0.5, -1.0, 0.0]), radius=2.3)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-20, 20, size=(10_000, 3))
        pts[:, -1] = np.abs(pts[:, -1])
        back = kelvin_point(inv, kelvin_point(inv, pts))
        rel = np.linalg.norm(back - pts, axis=1) / (
            np.linalg.norm(pts - inv.center, axis=1) + inv.radius
        )
        assert rel.max() <= 1e-14

    def test_singular_point(self):
        inv = SphereInversion(center=np.zeros(3), radius=1.0)
        with pytest.raises(SingularPoint):
            kelvin_point(inv, np.zeros(3))

    def test_off_boundary_center_allowed(self):
        # the half-space-to-ball map inverts about a pole below the boundary
        inv = SphereInversion(center=np.array([0.0, 0.0, -0.5]), radius=1.0)
        np.testing.assert_allclose(kelvin_point(inv, np.array([0.0, 0.0, 1.5])), [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            SphereInversion(center=np.zeros(3), radius=0.0)

    def test_center_must_be_on_boundary(self, spec_f1, params_f1):
        # the boundary-center rule belongs to the moving-spheres sweep
        x = np.array([0.0, 0.0, 0.1])
        samples = sweep_samples(x, 0.3, 1.0)
        with pytest.raises(ValueError, match="boundary hyperplane"):
            sweep_moving_spheres(spec_f1, bubble_field(params_f1), x, samples, 0.3, 3.0)


class TestKelvinTransform:
    def test_equals_field_on_sphere(self, params_f2):
        u = bubble_field(params_f2)
        inv = SphereInversion(center=np.zeros(3), radius=1.3)
        y = inv.center + 1.3 * np.array([0.6, 0.0, 0.8])
        np.testing.assert_allclose(kelvin_transform_u(u, inv, y), u(y[None, :])[0], rtol=1e-14)
        np.testing.assert_allclose(difference_w(u, inv, y), 0.0, atol=1e-16)

    def test_scaling_factor_at_double_radius(self, params_f2):
        # |y| = 2 lam: the transform reads the field at y/4 and scales by 1/2.
        u = bubble_field(params_f2)
        inv = SphereInversion(center=np.zeros(3), radius=1.0)
        y = np.array([1.2, 0.0, 1.6])  # |y| = 2
        expected = 0.5 * u((y / 4)[None, :])[0]
        np.testing.assert_allclose(kelvin_transform_u(u, inv, y), expected, rtol=1e-14)

    def test_critical_radius_makes_transform_the_identity(self, fixture_pair):
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        inv = SphereInversion(center=x, radius=lam)
        pts = standard_samples(x, lam)
        w = difference_w(u, inv, pts)
        uv = evaluate_bubble(params, pts)
        assert np.max(np.abs(w) / uv) <= 1e-12

    def test_transformed_field_satisfies_system_to_second_order(self, spec_f2, params_f2):
        # Discrete residuals of the inverted field fall at the stencil order,
        # witnessing that inversions map solutions to solutions.
        inv = SphereInversion(center=np.zeros(3), radius=0.7)
        u = bubble_field(params_f2)
        field = lambda points: kelvin_transform_u(u, inv, points)
        box = np.array([[0.5, 1.5], [0.5, 1.5], [0.0, 1.0]])
        conv = convergence_order(spec_f2, field, box, np.array([4e-3, 2e-3, 1e-3]), n_per_axis=6)
        assert abs(conv.slope[0] - 2.0) < 0.1


class TestCriticalRadius:
    def test_center_on_boundary_gives_width(self, params_f1):
        assert critical_lambda_exact(params_f1, np.zeros(3)) == pytest.approx(1.0, rel=1e-15)

    def test_offset_center(self, params_f1):
        lam = critical_lambda_exact(params_f1, np.array([1.0, 0.0, 0.0]))
        assert lam == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_submerged_center(self, params_f2):
        # d^2 = 1 + 3 = 4
        assert critical_lambda_exact(params_f2, np.zeros(3)) == pytest.approx(2.0, rel=1e-15)


def sweep_samples(x, lam_lo, lam, n_radii=24, n_dirs=32, seed=103):
    """Shells from just outside the sweep start out to the far field."""
    return polar_shell(x, lam_lo * (1 + 1e-9), 50.0 * lam, n_radii, n_dirs, seed=seed, upper=True)


class TestSweep:
    def test_locates_critical_radius(self, spec_f1, params_f1):
        u = bubble_field(params_f1)
        x = np.zeros(3)
        samples = sweep_samples(x, 0.3, 1.0)
        sweep = sweep_moving_spheres(spec_f1, u, x, samples, 0.3, 3.0, n_lambda=33)
        assert sweep.lambda_critical_numeric == pytest.approx(1.0, rel=1e-6)
        lo, hi = sweep.bracket
        assert lo <= sweep.lambda_critical_numeric <= hi

    def test_sign_pattern_around_critical(self, fixture_pair):
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        samples = standard_samples(x, lam)

        def min_w(l):
            mask = np.linalg.norm(samples - x, axis=1) >= l
            return difference_w(u, SphereInversion(x, l), samples[mask]).min()

        assert min_w(0.5 * lam) > 0.0
        assert min_w(1.5 * lam) < 0.0

    def test_monotone_start(self, fixture_pair):
        # strictly positive minimum everywhere below 0.9 of the critical radius
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        samples = sweep_samples(x, 0.2 * lam, lam)
        sweep = sweep_moving_spheres(spec, u, x, samples, 0.2 * lam, 0.9 * lam, n_lambda=17)
        assert sweep.lambda_critical_numeric is None
        assert np.all(sweep.min_w > 0.0)

    def test_bad_bracket(self, spec_f1, params_f1):
        u = bubble_field(params_f1)
        x = np.zeros(3)
        samples = sweep_samples(x, 1.5, 1.0)
        with pytest.raises(BadBracket):
            sweep_moving_spheres(spec_f1, u, x, samples, 1.5, 3.0)

    def test_samples_inside_lambda_lo_rejected(self, spec_f1, params_f1):
        samples = standard_samples(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            sweep_moving_spheres(spec_f1, bubble_field(params_f1), np.zeros(3), samples, 0.5, 3.0)


class TestSymmetryIdentity:
    def test_five_centers_per_fixture(self, fixture_pair):
        spec, params = fixture_pair
        sigma = params.sigma
        centers = []
        for tang in ([0.0], [1.0], [3.0, 4.0], [-5.0], [10.0 * sigma]):
            x = np.zeros(spec.N)
            x[: len(tang)] = tang
            centers.append(x)
        for x in centers:
            lam = critical_lambda_exact(params, x)
            samples = standard_samples(x, lam)
            sup = verify_symmetry_identity(params, x, samples)
            assert sup.max() <= 1e-10

    def test_any_bubble_is_symmetric_about_its_own_radius(self, params_f2):
        # The identity is a property of the profile shape alone: even with the
        # amplitude condition broken, a bubble matches its own inversion.
        off_family = BubbleParams(sigma=1.1, betas=params_f2.betas, y0=params_f2.y0)
        x = np.zeros(3)
        samples = standard_samples(x, critical_lambda_exact(off_family, x))
        assert verify_symmetry_identity(off_family, x, samples).max() <= 1e-12

    def test_mismatched_radius_breaks_identity(self, params_f2):
        # Perturbing sigma moves the critical radius; against the original
        # radius the difference is bounded away from zero.
        perturbed = BubbleParams(sigma=1.1, betas=params_f2.betas, y0=params_f2.y0)
        x = np.zeros(3)
        lam_original = critical_lambda_exact(params_f2, x)
        samples = standard_samples(x, lam_original)
        w = difference_w(bubble_field(perturbed), SphereInversion(x, lam_original), samples)
        rel = np.abs(w) / evaluate_bubble(perturbed, samples)
        assert rel.max() > 1e-3

    def test_samples_too_close_to_center_rejected(self, params_f1):
        samples = np.array([[1e-9, 0.0, 0.0]])
        with pytest.raises(ValueError):
            verify_symmetry_identity(params_f1, np.zeros(3), samples)


class TestDecay:
    def test_thousand_sigma_estimate(self, params_f2):
        dirs = unit_directions(3, 16, seed=7, upper=True)
        report = decay_check(bubble_field(params_f2), params_f2.betas, dirs, [1e3])
        assert report.errors.max() <= 2e-3

    def test_error_halves_with_radius(self, params_f2):
        # first-order remainder along the normal (center offset -sqrt(3))
        e_n = np.array([[0.0, 0.0, 1.0]])
        report = decay_check(bubble_field(params_f2), params_f2.betas, e_n, [1e3, 2e3])
        ratio = report.errors[1, 0, 0] / report.errors[0, 0, 0]
        assert 0.4 <= ratio <= 0.6

    def test_limit_independent_of_direction(self, params_f2):
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        report = decay_check(bubble_field(params_f2), params_f2.betas, dirs, [1e8])
        spread = report.final.max() - report.final.min()
        assert spread / report.final.mean() < 1e-6

    def test_radii_must_increase(self, params_f1):
        with pytest.raises(ValueError):
            decay_check(bubble_field(params_f1), params_f1.betas, np.eye(3)[:1], [2e3, 1e3])
