import numpy as np
import pytest

from halfspace_bubbles.bubble_family import (
    BubbleParams,
    bubble_field,
    evaluate_bubble_derivatives,
)
from halfspace_bubbles.errors import StencilOutOfDomain
from halfspace_bubbles.fd_verifier import (
    central_laplacian,
    convergence_from_sups,
    convergence_order,
    fit_loglog_slope,
    one_sided_derivative,
    residual_sweep,
    residuals_at_points,
)

BOX3 = np.array([[-2.0, 2.0], [-2.0, 2.0], [0.0, 2.0]])
E_N = np.array([0.0, 0.0, 1.0])


def laplacian_at(f, y, h):
    """Central Laplacian of a scalar field at one point, through the batched stencil."""
    return float(central_laplacian(f, np.asarray(y, dtype=float)[None, :], h)[0][0, 0])


def normal_derivative_at(f, yprime, h):
    """One-sided derivative along e_N at one boundary point, through the batched stencil."""
    return float(one_sided_derivative(f, np.asarray(yprime, dtype=float)[None, :], E_N, h)[0][0, 0])


class TestStencils:
    def test_laplacian_exact_on_squared_norm(self):
        f = lambda pts: np.sum(pts**2, axis=1)
        val = laplacian_at(f, np.array([0.3, -0.2, 0.9]), h=0.05)
        assert val == pytest.approx(6.0, abs=1e-10)

    def test_laplacian_exact_on_general_quadratic(self):
        # includes cross terms; the central stencil is exact on degree <= 2
        def f(pts):
            x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
            return 1.0 + 2 * x - y + 3 * z + 0.5 * x * y - 2 * x * z + 4 * y**2 - z**2

        val = laplacian_at(f, np.array([0.7, 0.1, 0.4]), h=0.1)
        assert val == pytest.approx(8.0 - 2.0, abs=1e-10)

    def test_laplacian_zero_on_affine(self):
        f = lambda pts: 3.0 - 2 * pts[:, 0] + pts[:, 2]
        assert laplacian_at(f, np.array([0.0, 0.0, 1.0]), h=0.1) == pytest.approx(0.0, abs=1e-12)

    def test_laplacian_domain_guard(self, spec_f2, params_f2):
        # an interior point closer than h to the boundary would put the
        # lower stencil point outside the half-space
        with pytest.raises(StencilOutOfDomain):
            residuals_at_points(
                spec_f2, bubble_field(params_f2), np.array([[0.0, 0.0, 0.05]]), np.zeros((0, 3)), 0.1
            )

    def test_batched_stencils_exact_on_polynomials(self):
        f = lambda pts: np.stack([np.sum(pts**2, axis=1), pts[:, -1] ** 3], axis=1)
        pts = np.array([[0.3, -0.2, 0.9], [0.7, 0.1, 0.4]])
        lap, center = central_laplacian(f, pts, h=0.05)
        np.testing.assert_allclose(lap, [[6.0, 5.4], [6.0, 2.4]], atol=1e-10)
        np.testing.assert_array_equal(center, f(pts))
        # per-point directions: outward along -e_1 and inward along e_N
        dirs = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        deriv, _ = one_sided_derivative(f, pts, dirs, h=0.05)
        np.testing.assert_allclose(deriv[:, 0], [-0.6, 0.8], atol=1e-12)

    def test_normal_derivative_exact_on_quadratic(self):
        f = lambda pts: pts[:, -1]
        assert normal_derivative_at(f, np.zeros(3), h=0.1) == pytest.approx(1.0, abs=1e-13)
        g = lambda pts: pts[:, -1] ** 2
        assert normal_derivative_at(g, np.zeros(3), h=0.1) == pytest.approx(0.0, abs=1e-13)
        k = lambda pts: 3 * pts[:, -1] ** 2 - 2 * pts[:, -1] + 1
        assert normal_derivative_at(k, np.zeros(3), h=0.1) == pytest.approx(-2.0, abs=1e-12)

    def test_bubble_laplacian_slope(self, params_f2):
        y = np.array([0.5, -0.3, 0.8])
        field0 = lambda pts: np.asarray(bubble_field(params_f2)(pts))[:, 0]
        _, lap = evaluate_bubble_derivatives(params_f2, y)
        hs = np.array([1e-2, 5e-3, 2.5e-3])
        errs = [abs(laplacian_at(field0, y, h) - lap[0]) for h in hs]
        assert abs(fit_loglog_slope(hs, errs) - 2.0) < 0.1

    def test_bubble_normal_derivative_slope(self, params_f2):
        yp = np.array([0.4, 0.6, 0.0])
        field0 = lambda pts: np.asarray(bubble_field(params_f2)(pts))[:, 0]
        grads, _ = evaluate_bubble_derivatives(params_f2, yp)
        hs = np.array([1e-2, 5e-3, 2.5e-3])
        errs = [abs(normal_derivative_at(field0, yp, h) - grads[0, -1]) for h in hs]
        assert abs(fit_loglog_slope(hs, errs) - 2.0) < 0.1


class TestResidualSweep:
    def test_three_level_study_is_second_order(self, spec_f2, params_f2):
        conv = convergence_order(
            spec_f2, bubble_field(params_f2), BOX3, np.array([4e-3, 2e-3, 1e-3]), n_per_axis=8
        )
        assert not conv.degenerate[0]
        assert abs(conv.slope[0] - 2.0) < 0.1
        assert abs(conv.slope_interior[0] - 2.0) < 0.1
        assert abs(conv.slope_boundary[0] - 2.0) < 0.1

    def test_even_profile_boundary_superconverges(self, spec_f1, params_f1):
        # center on the boundary makes the profile even in y_N: the odd
        # third derivative vanishes and the one-sided stencil jumps to
        # third order on the boundary.  The combined slope stays at 2.
        conv = convergence_order(
            spec_f1, params_f1, BOX3, np.array([4e-3, 2e-3, 1e-3]), n_per_axis=8
        )
        assert abs(conv.slope[0] - 2.0) < 0.1
        assert abs(conv.slope_boundary[0] - 3.0) < 0.2
        # absolute boundary level: cubic in h, far below the generic h^2 scale
        assert conv.sup_boundary[-1, 0] < 1e-7

    def test_perturbed_amplitude_gives_order_one_residual(self, spec_f2, params_f2):
        bad = BubbleParams(
            sigma=params_f2.sigma, betas=params_f2.betas * 1.1, y0=params_f2.y0
        )
        report = residual_sweep(spec_f2, bubble_field(bad), BOX3, 8, 1e-3)
        assert report.sup_interior[0] > 1e-2

    def test_report_metadata(self, spec_f2, params_f2):
        report = residual_sweep(spec_f2, bubble_field(params_f2), BOX3, 6, 1e-3)
        assert report.h == 1e-3
        assert report.n_interior == 6**3
        assert report.n_boundary == 6**2
        assert report.argmax_interior.shape == (1, 3)
        assert report.sup_interior.shape == (1,)

    def test_box_must_fit_halfspace(self, spec_f2, params_f2):
        bad_box = np.array([[-2.0, 2.0], [-2.0, 2.0], [-1.0, 2.0]])
        with pytest.raises(StencilOutOfDomain):
            residual_sweep(spec_f2, bubble_field(params_f2), bad_box, 6, 1e-3)

    def test_order_invariant_under_permutation(self, spec_f3, params_f3):
        rng = np.random.default_rng(7)
        interior = rng.uniform(0.5, 2.0, size=(40, 4))
        boundary = interior.copy()
        boundary[:, -1] = 0.0
        res_i, res_b = residuals_at_points(
            spec_f3, bubble_field(params_f3), interior, boundary, 1e-3
        )
        perm = rng.permutation(40)
        res_i2, res_b2 = residuals_at_points(
            spec_f3, bubble_field(params_f3), interior[perm], boundary[perm], 1e-3
        )
        np.testing.assert_array_equal(res_i[perm], res_i2)
        np.testing.assert_array_equal(res_b[perm], res_b2)
        assert np.abs(res_i).max() == np.abs(res_i2).max()


class TestConvergenceBookkeeping:
    def test_first_order_doubles_fit_to_slope_one(self):
        hs = np.array([4e-3, 2e-3, 1e-3])
        sups = (0.37 * hs)[:, None]
        slopes, degenerate = convergence_from_sups(hs, sups)
        assert not degenerate[0]
        assert slopes[0] == pytest.approx(1.0, abs=1e-12)

    def test_rounding_floor_reports_degenerate(self):
        hs = np.array([4e-3, 2e-3, 1e-3])
        sups = np.array([[0.0], [0.0], [0.0]])
        slopes, degenerate = convergence_from_sups(hs, sups)
        assert degenerate[0]
        assert np.isnan(slopes[0])

    def test_h_list_validation(self, spec_f1, params_f1):
        with pytest.raises(ValueError):
            convergence_order(spec_f1, params_f1, BOX3, np.array([1e-3, 2e-3, 4e-3]))
        with pytest.raises(ValueError):
            convergence_order(spec_f1, params_f1, BOX3, np.array([2e-3, 1e-3]))
