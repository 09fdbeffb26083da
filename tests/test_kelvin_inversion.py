import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfspace_bubbles.bubble_family import (
    BubbleParams,
    bubble_field,
    evaluate_bubble,
    make_bubble_params,
    squared_distance,
)
from halfspace_bubbles.errors import BadBracket, SingularPoint
from halfspace_bubbles.fd_verifier import convergence_order
from halfspace_bubbles.kelvin_inversion import (
    center_samples,
    critical_lambda_exact,
    difference_w,
    kelvin_point,
    kelvin_transform_u,
    min_w,
    sweep_moving_spheres,
    verify_symmetry_identity,
)
from halfspace_bubbles.sampling import halfspace_box_points, polar_shell, unit_directions

from conftest import FIXTURE_NAMES, fixture_spec, moved_params


def standard_samples(x, lam, n_radii=24, n_dirs=32, seed=101):
    """Polar shells from 0.05 to 50 critical radii about the center."""
    return polar_shell(x, 0.05 * lam, 50.0 * lam, n_radii, n_dirs, seed=seed)


class TestKelvinPoint:
    def test_sphere_is_fixed(self):
        center = np.array([1.0, 2.0, 0.0])
        direction = np.array([[3.0, -1.0, 2.0]])
        y = center + 1.7 * direction / np.linalg.norm(direction)
        np.testing.assert_allclose(kelvin_point(center, 1.7, y), y, rtol=1e-15)

    def test_radial_inversion(self):
        np.testing.assert_allclose(
            kelvin_point(np.zeros(3), 1.0, np.array([[0.0, 0.0, 2.0]])), [[0.0, 0.0, 0.5]],
            atol=1e-16,
        )

    def test_involution_on_random_points(self):
        center, radius = np.array([0.5, -1.0, 0.0]), 2.3
        rng = np.random.default_rng(3)
        pts = rng.uniform(-20, 20, size=(10_000, 3))
        pts[:, -1] = np.abs(pts[:, -1])
        back = kelvin_point(center, radius, kelvin_point(center, radius, pts))
        rel = np.linalg.norm(back - pts, axis=1) / (np.linalg.norm(pts - center, axis=1) + radius)
        assert rel.max() <= 1e-14

    def test_singular_point(self):
        with pytest.raises(SingularPoint):
            kelvin_point(np.zeros(3), 1.0, np.zeros((1, 3)))

    @pytest.mark.parametrize("offset", [1e-160, 1e-155])
    def test_subnormal_squared_distance_is_singular(self, offset):
        # |y|^2 is subnormal: the image would lose digits (1e-160 maps to
        # 1.00001113e+160) or overflow with a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularPoint):
                kelvin_point(np.zeros(3), 1.0, np.array([[offset, 0.0, 0.0]]))

    def test_normal_squared_distance_maps_to_the_exact_image(self):
        (image,) = kelvin_point(np.zeros(3), 1.0, np.array([[1e-150, 0.0, 0.0]]))
        assert abs(image[0] - 1e150) <= 4 * np.spacing(1e150)
        assert image[1] == image[2] == 0.0

    def test_off_boundary_center_allowed(self):
        # the half-space-to-ball map inverts about a pole below the boundary
        pole = np.array([0.0, 0.0, -0.5])
        image = kelvin_point(pole, 1.0, np.array([[0.0, 0.0, 1.5]]))
        np.testing.assert_allclose(image, [[0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan])
    def test_radius_must_be_positive(self, params_f2, radius):
        # one check, in the kernel, for every inversion; a NaN radius fails it too
        c, pts = np.zeros(3), np.array([[0.0, 0.0, 1.5]])
        samples = center_samples(bubble_field(params_f2), c, pts)
        for invert in (
            lambda: kelvin_point(c, radius, pts),
            lambda: difference_w(bubble_field(params_f2), c, radius, pts),
            lambda: min_w(bubble_field(params_f2), samples, radius),
        ):
            with pytest.raises(ValueError, match="inversion radius must be positive"):
                invert()

    def test_center_must_be_on_boundary(self, params_f1):
        # the boundary-center rule belongs to the moving-spheres sweep
        x = np.array([0.0, 0.0, 0.1])
        samples = sweep_samples(x, 0.3, 1.0)
        with pytest.raises(ValueError, match="boundary hyperplane"):
            sweep(bubble_field(params_f1), x, samples, 0.3, 3.0, n_lambda=33)


class TestKelvinTransform:
    def test_equals_field_on_sphere(self, params_f2):
        u = bubble_field(params_f2)
        y = 1.3 * np.array([[0.6, 0.0, 0.8]])
        np.testing.assert_allclose(kelvin_transform_u(u, np.zeros(3), 1.3, y), u(y), rtol=1e-14)
        np.testing.assert_allclose(difference_w(u, np.zeros(3), 1.3, y), 0.0, atol=1e-16)

    def test_scaling_factor_at_double_radius(self, params_f2):
        # |y| = 2 lam: the transform reads the field at y/4 and scales by 1/2.
        u = bubble_field(params_f2)
        y = np.array([[1.2, 0.0, 1.6]])  # |y| = 2
        expected = 0.5 * u(y / 4)
        transformed = kelvin_transform_u(u, np.zeros(3), 1.0, y)
        np.testing.assert_allclose(transformed, expected, rtol=1e-14)

    def test_critical_radius_makes_transform_the_identity(self, fixture_pair):
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        pts = standard_samples(x, lam)
        w = difference_w(u, x, lam, pts)
        uv = evaluate_bubble(params, pts)
        assert np.max(np.abs(w) / uv) <= 1e-12

    def test_scalar_field_is_one_component(self, params_f2):
        # a field returning (k,) values has one component, as the stencils read
        # it, so its transform is the (k, 1) column, not a (k, k) outer product
        column = bubble_field(params_f2)
        scalar = lambda points: column(points)[:, 0]
        x = np.zeros(3)
        pts = standard_samples(x, 1.3, n_radii=4, n_dirs=4)
        for transform in (kelvin_transform_u, difference_w):
            assert transform(scalar, x, 1.3, pts).shape == (16, 1)
            assert np.array_equal(transform(scalar, x, 1.3, pts), transform(column, x, 1.3, pts))
        by_column = min_w(column, center_samples(column, x, pts), 1.3)
        by_scalar = min_w(scalar, center_samples(scalar, x, pts), 1.3)
        assert np.array_equal(by_scalar[0], by_column[0])
        assert np.array_equal(by_scalar[1], by_column[1])

    def test_transformed_field_satisfies_system_to_second_order(self, spec_f2, params_f2):
        # Discrete residuals of the inverted field fall at the stencil order,
        # witnessing that inversions map solutions to solutions.
        u = bubble_field(params_f2)
        field = lambda points: kelvin_transform_u(u, np.zeros(3), 0.7, points)
        box = np.array([[0.5, 1.5], [0.5, 1.5], [0.0, 1.0]])
        conv = convergence_order(spec_f2, field, box, 1e-3, n_per_axis=6)
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
    return polar_shell(x, lam_lo * (1 + 1e-9), 50.0 * lam, n_radii, n_dirs, seed=seed)


def sweep(u, x, points, lambda_lo, lambda_hi, n_lambda):
    """The moving-spheres sweep about x over the points."""
    samples = center_samples(u, x, points)
    return sweep_moving_spheres(u, samples, lambda_lo, lambda_hi, n_lambda)


def symmetry_sup(params, x, points):
    """The symmetry check about x over the points."""
    return verify_symmetry_identity(params, center_samples(bubble_field(params), x, points))


class TestSweep:
    def test_locates_critical_radius(self, params_f1):
        u = bubble_field(params_f1)
        x = np.zeros(3)
        samples = sweep_samples(x, 0.3, 1.0)
        result = sweep(u, x, samples, 0.3, 3.0, n_lambda=33)
        assert result.lambda_critical_numeric == pytest.approx(1.0, rel=1e-6)
        lo, hi = result.bracket
        assert lo <= result.lambda_critical_numeric <= hi

    def test_sign_pattern_around_critical(self, fixture_pair):
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        samples = standard_samples(x, lam)

        def min_w(l):
            mask = np.linalg.norm(samples - x, axis=1) >= l
            return difference_w(u, x, l, samples[mask]).min()

        assert min_w(0.5 * lam) > 0.0
        assert min_w(1.5 * lam) < 0.0

    def test_monotone_start(self, fixture_pair):
        # strictly positive minimum everywhere below 0.9 of the critical radius
        spec, params = fixture_pair
        u = bubble_field(params)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        samples = sweep_samples(x, 0.2 * lam, lam)
        result = sweep(u, x, samples, 0.2 * lam, 0.9 * lam, n_lambda=17)
        assert result.lambda_critical_numeric is None
        assert np.all(result.min_w > 0.0)

    def test_bad_bracket(self, params_f1):
        u = bubble_field(params_f1)
        x = np.zeros(3)
        samples = sweep_samples(x, 1.5, 1.0)
        with pytest.raises(BadBracket):
            sweep(u, x, samples, 1.5, 3.0, n_lambda=33)

    def test_samples_inside_lambda_lo_rejected(self, params_f1):
        samples = standard_samples(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            sweep(bubble_field(params_f1), np.zeros(3), samples, 0.5, 3.0, n_lambda=33)


tangential = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3)


def moved_case(name, log_s, shift, x_tang):
    """Spec, unit-scale params and center x, and their image under scaling and translation."""
    spec = fixture_spec(name)
    params = make_bubble_params(spec, sigma=1.0)
    s, t = 10.0**log_s, np.append(shift[: spec.N - 1], 0.0)
    x = np.append(x_tang[: spec.N - 1], 0.0)
    return spec, params, x, moved_params(params, s, t), s * (x + t), s


@given(name=st.sampled_from(FIXTURE_NAMES), log_s=st.floats(-8.0, 8.0),
       shift=tangential, x_tang=tangential)
def test_critical_radius_is_scale_and_translation_covariant(name, log_s, shift, x_tang):
    # lambda of the moved bubble about s (x + t) is s lambda(x)
    _, params, x, moved, x_moved, s = moved_case(name, log_s, shift, x_tang)
    lam = critical_lambda_exact(params, x)
    assert critical_lambda_exact(moved, x_moved) == pytest.approx(s * lam, rel=1e-12)


@settings(max_examples=25)
@given(name=st.sampled_from(FIXTURE_NAMES), log_s=st.floats(-8.0, 8.0),
       shift=tangential, x_tang=tangential)
def test_sweep_radius_is_scale_and_translation_covariant(name, log_s, shift, x_tang):
    _, params, x, moved, x_moved, s = moved_case(name, log_s, shift, x_tang)
    lam = s * critical_lambda_exact(params, x)
    samples = sweep_samples(x_moved, 0.3 * lam, lam)
    result = sweep(bubble_field(moved), x_moved, samples, 0.3 * lam, 3.0 * lam, n_lambda=33)
    assert result.lambda_critical_numeric == pytest.approx(lam, rel=1e-6)


def reference_min_w(u, samples, lam):
    """min w and its argmin over the samples at |y - x| >= lam, masked in the caller's order."""
    x, points = samples.x, samples.points
    outside = points[np.sqrt(squared_distance(points, x)) >= lam]
    w = difference_w(u, x, lam, outside)
    return w.min(axis=0), outside[np.argmin(w, axis=0)]


@settings(max_examples=40)
@given(name=st.sampled_from(FIXTURE_NAMES), at_origin=st.booleans(), x_tang=tangential,
       ratios=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=4),
       seed=st.integers(0, 2**16))
@example(name="f1", at_origin=True, x_tang=[0.0] * 3,
         ratios=np.geomspace(0.3, 3.0, 33).tolist(), seed=2)
def test_min_w_matches_the_mask_and_gather_reference(name, at_origin, x_tang, ratios, seed):
    # f1 about x = 0 is radial about x, so the samples of a shell tie in w; at
    # the critical radius w is rounding noise and ties everywhere; repeated
    # samples tie exactly.  Each tie reports the first tied sample in the
    # caller's order, whatever order the samples are inverted in.
    spec = fixture_spec(name)
    params = make_bubble_params(spec, sigma=1.0)
    x = np.zeros(spec.N) if at_origin else np.append(x_tang[: spec.N - 1], 0.0)
    lam = critical_lambda_exact(params, x)
    points = sweep_samples(x, 0.3 * lam, lam, n_radii=12, n_dirs=24, seed=seed)
    points = np.random.default_rng(seed).permutation(
        np.concatenate([points, points[: len(points) // 3]])
    )
    u = bubble_field(params)
    samples = center_samples(u, x, points)
    for radius in [lam] + [r * lam for r in ratios]:
        mins, argmins = min_w(u, samples, radius)
        ref_mins, ref_argmins = reference_min_w(u, samples, radius)
        assert np.array_equal(mins, ref_mins)
        assert np.array_equal(argmins, ref_argmins)
    # the symmetry check inverts the sorted samples from index 0: the same
    # w as difference_w over the points in the caller's order
    ref_sup = np.max(np.abs(difference_w(u, x, lam, points)) / u(points), axis=0)
    assert verify_symmetry_identity(params, samples).tobytes() == ref_sup.tobytes()


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
            sup = symmetry_sup(params, x, samples)
            assert sup.max() <= 1e-10

    def test_any_bubble_is_symmetric_about_its_own_radius(self, params_f2):
        # The identity is a property of the profile shape alone: even with the
        # amplitude condition broken, a bubble matches its own inversion.
        off_family = BubbleParams(sigma=1.1, betas=params_f2.betas, y0=params_f2.y0)
        x = np.zeros(3)
        samples = standard_samples(x, critical_lambda_exact(off_family, x))
        assert symmetry_sup(off_family, x, samples).max() <= 1e-12

    def test_mismatched_radius_breaks_identity(self, params_f2):
        # Perturbing sigma moves the critical radius; against the original
        # radius the difference is bounded away from zero.
        perturbed = BubbleParams(sigma=1.1, betas=params_f2.betas, y0=params_f2.y0)
        x = np.zeros(3)
        lam_original = critical_lambda_exact(params_f2, x)
        samples = standard_samples(x, lam_original)
        w = difference_w(bubble_field(perturbed), x, lam_original, samples)
        rel = np.abs(w) / evaluate_bubble(perturbed, samples)
        assert rel.max() > 1e-3

    def test_samples_too_close_to_center_rejected(self, params_f1):
        samples = np.array([[1e-9, 0.0, 0.0]])
        with pytest.raises(ValueError):
            symmetry_sup(params_f1, np.zeros(3), samples)


def far_field_amplitudes(params, dirs, R):
    """R**(N-2) u(R e) along unit directions e; tends to betas as R grows."""
    dirs = np.atleast_2d(dirs)
    return evaluate_bubble(params, R * dirs) * R ** (dirs.shape[1] - 2)


class TestDecay:
    def test_thousand_sigma_estimate(self, params_f2):
        dirs = unit_directions(3, 16, seed=7, upper=True)
        est = far_field_amplitudes(params_f2, dirs, 1e3)
        assert (np.abs(est - params_f2.betas) / params_f2.betas).max() <= 2e-3

    def test_error_halves_with_radius(self, params_f2):
        # first-order remainder along the normal (center offset -sqrt(3))
        e_n = np.array([0.0, 0.0, 1.0])
        errs = [abs(far_field_amplitudes(params_f2, e_n, R)[0, 0] / params_f2.betas[0] - 1)
                for R in (1e3, 2e3)]
        assert 0.4 <= errs[1] / errs[0] <= 0.6

    def test_limit_independent_of_direction(self, params_f2):
        dirs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.8, 0.0]])
        est = far_field_amplitudes(params_f2, dirs, 1e8)
        assert (est.max() - est.min()) / est.mean() < 1e-6


def point_major_w_outside(u, samples, lam):
    """The sweep's w (k', m) about (samples.x, lam), computed in point-major (k', N) memory."""
    first = int(np.searchsorted(samples.dist, lam))
    dy, n2 = np.ascontiguousarray(samples.dy[first:]), samples.n2[first:]
    r2 = lam**2
    inner = samples.x + r2 * dy / n2[:, None]
    factor = (r2 / n2) ** (0.5 * (dy.shape[1] - 2))
    u_inner = np.ascontiguousarray(u(inner).reshape(len(inner), -1))
    return np.ascontiguousarray(samples.values[first:]) - u_inner * factor[:, None], first


def point_major_min_w(u, samples, lam):
    """min w per component and the first tied sample in the caller's order, point-major."""
    w, first = point_major_w_outside(u, samples, lam)
    mins = w.min(axis=0)
    tied = np.where(w == mins, samples.order[first:, None], len(samples.order))
    return mins, samples.points[tied.min(axis=0)]


class TestPointsInnermost:
    """The sweep's kernels run along the samples and round as the point-major ones do."""

    def test_samples_and_images_are_axis_major(self, params_f2):
        x = np.zeros(3)
        points = standard_samples(x, 2.0)
        samples = center_samples(bubble_field(params_f2), x, points)
        assert samples.values.T.flags.c_contiguous and samples.dy.T.flags.c_contiguous
        assert kelvin_point(x, 2.0, points).T.flags.c_contiguous
        box = np.array([[-2.0, 2.0], [-1.0, 3.0], [0.0, 2.0]])
        assert halfspace_box_points(box, 50, seed=3).T.flags.c_contiguous

    @pytest.mark.parametrize("name", FIXTURE_NAMES + ("f4",))
    def test_min_w_and_sweep_equal_the_point_major_kernels(self, name, monkeypatch):
        import halfspace_bubbles.kelvin_inversion as ki

        spec = fixture_spec(name)
        params = make_bubble_params(spec, sigma=1.0)
        x = np.zeros(spec.N)
        lam = critical_lambda_exact(params, x)
        shell = sweep_samples(x, 0.3 * lam, lam, n_radii=12, n_dirs=24)
        # the bubble's center and x lie on the e_N axis, so each sample's mirror
        # image across e_1 has the same w to the bit: every minimum is tied
        mirrored = shell * np.r_[-1.0, np.ones(spec.N - 1)]
        u = bubble_field(params)
        samples = center_samples(u, x, np.concatenate([mirrored, shell]))
        for radius in lam * np.array([0.5, 0.9, 1.0, 1.1, 2.0]):
            mins, argmins = min_w(u, samples, radius)
            ref_mins, ref_argmins = point_major_min_w(u, samples, radius)
            assert mins.tobytes() == ref_mins.tobytes()
            assert argmins.tobytes() == ref_argmins.tobytes()
            # of a tied pair the first in the caller's order: a mirror image
            assert np.all((argmins[:, None, :] == mirrored).all(axis=-1).any(axis=-1))
        result = sweep_moving_spheres(u, samples, 0.3 * lam, 3.0 * lam, n_lambda=33)
        monkeypatch.setattr(ki, "_w_outside", point_major_w_outside)
        monkeypatch.setattr(ki, "min_w", point_major_min_w)
        reference = sweep_moving_spheres(u, samples, 0.3 * lam, 3.0 * lam, n_lambda=33)
        assert result.min_w.tobytes() == reference.min_w.tobytes()
        assert result.argmin_points.tobytes() == reference.argmin_points.tobytes()
        assert (result.lambda_critical_numeric, result.bracket) == (
            reference.lambda_critical_numeric, reference.bracket)
