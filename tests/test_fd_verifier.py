import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from halfspace_bubbles import fd_verifier
from halfspace_bubbles.bubble_family import (
    BubbleParams,
    bubble_field,
    evaluate_bubble,
    evaluate_bubble_derivatives,
    make_bubble_params,
)
from halfspace_bubbles.errors import StencilOutOfDomain
from halfspace_bubbles.exponent_system import EllipticSystemSpec
from halfspace_bubbles.fd_verifier import (
    central_laplacian,
    convergence_from_sups,
    convergence_order,
    fit_loglog_slope,
    one_sided_derivative,
    residual_study,
    residual_sweep,
    residuals_at_points,
)
from halfspace_bubbles.reporting import jsonable

from conftest import fixture_spec

BOX3 = np.array([[-2.0, 2.0], [-2.0, 2.0], [0.0, 2.0]])
E_N = np.array([0.0, 0.0, 1.0])


def laplacian_at(f, y, h):
    """Central Laplacian of a scalar field at one point, through the batched stencil."""
    pts = np.asarray(y, dtype=float)[None, :]
    return float(central_laplacian(f, pts, h, f(pts)[:, None])[0, 0])


def normal_derivative_at(f, yprime, h):
    """One-sided derivative along e_N at one boundary point, through the batched stencil."""
    pts = np.asarray(yprime, dtype=float)[None, :]
    return float(one_sided_derivative(f, pts, E_N, h, f(pts)[:, None])[0, 0])


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
        lap = central_laplacian(f, pts, 0.05, f(pts))
        np.testing.assert_allclose(lap, [[6.0, 5.4], [6.0, 2.4]], atol=1e-10)
        # per-point directions: outward along -e_1 and inward along e_N
        dirs = np.array([[-1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        deriv = one_sided_derivative(f, pts, dirs, 0.05, f(pts))
        np.testing.assert_allclose(deriv[:, 0], [-0.6, 0.8], atol=1e-12)

    def test_normal_derivative_exact_on_quadratic(self):
        f = lambda pts: pts[:, -1]
        assert normal_derivative_at(f, np.zeros(3), h=0.1) == pytest.approx(1.0, abs=1e-13)
        g = lambda pts: pts[:, -1] ** 2
        assert normal_derivative_at(g, np.zeros(3), h=0.1) == pytest.approx(0.0, abs=1e-13)
        k = lambda pts: 3 * pts[:, -1] ** 2 - 2 * pts[:, -1] + 1
        assert normal_derivative_at(k, np.zeros(3), h=0.1) == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("N", [3, 4, 5])
    def test_component_does_not_depend_on_the_components_beside_it(self, N):
        # the neighbour sum runs in one order for every m: a lone bubble and
        # the same bubble twice over give the same bits
        y0 = np.linspace(-0.5, 0.5, N)
        one = BubbleParams(sigma=0.8, betas=[1.3], y0=y0)
        two = BubbleParams(sigma=0.8, betas=[1.3, 1.3], y0=y0)
        pts = np.random.default_rng(5).uniform(0.1, 2.0, size=(200, N))
        lap_one = central_laplacian(bubble_field(one), pts, 1e-3, evaluate_bubble(one, pts))
        lap_two = central_laplacian(bubble_field(two), pts, 1e-3, evaluate_bubble(two, pts))
        np.testing.assert_array_equal(lap_two[:, 0], lap_one[:, 0])
        np.testing.assert_array_equal(lap_two[:, 1], lap_one[:, 0])

    def test_values_and_residuals_are_component_major(self, spec_f3, params_f3):
        # public shapes are (k, m); the memory behind them is (m, k)
        u = bubble_field(params_f3)
        pts = np.random.default_rng(6).uniform(0.1, 2.0, size=(50, 4))
        center = evaluate_bubble(params_f3, pts)
        assert center.shape == (50, 2) and center.T.flags.c_contiguous
        assert central_laplacian(u, pts, 1e-3, center).T.flags.c_contiguous
        assert one_sided_derivative(u, pts, np.eye(4)[-1], 1e-3, center).T.flags.c_contiguous
        blocks = list(fd_verifier._residual_blocks(
            spec_f3, u, pts, pts * [1, 1, 1, 0], [4e-3, 2e-3, 1e-3]
        ))
        assert [on_boundary for on_boundary, _ in blocks] == [False, True]
        for _, res in blocks:
            assert res.shape == (3, 50, 2)
            assert res.transpose(0, 2, 1).flags.c_contiguous

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
            spec_f2, bubble_field(params_f2), BOX3, 1e-3, n_per_axis=8
        )
        assert not conv.degenerate[0]
        assert abs(conv.slope[0] - 2.0) < 0.1
        assert abs(conv.slope_interior[0] - 2.0) < 0.1
        assert abs(conv.slope_boundary[0] - 2.0) < 0.1

    def test_study_keeps_its_finest_level(self, spec_f3, params_f3):
        box = np.tile([0.0, 2.0], (4, 1))
        u = bubble_field(params_f3)
        conv = convergence_order(spec_f3, u, box, 1e-3, n_per_axis=5)
        direct = residual_sweep(spec_f3, u, box, 5, 1e-3, interior_margin=4e-3)
        assert jsonable(conv.finest) == jsonable(direct)
        assert "finest" not in jsonable(conv)

    def test_even_profile_boundary_superconverges(self, spec_f1, params_f1):
        # center on the boundary makes the profile even in y_N: the odd
        # third derivative vanishes and the one-sided stencil jumps to
        # third order on the boundary.  The combined slope stays at 2.
        conv = convergence_order(
            spec_f1, bubble_field(params_f1), BOX3, 1e-3, n_per_axis=8
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

    def test_step_validation(self, spec_f1, params_f1):
        # the step is read before any lattice is built: linspace warned on h = inf
        u = bubble_field(params_f1)
        for h in (0.0, -1e-3, np.nan, np.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="finest step"):
                    convergence_order(spec_f1, u, BOX3, h, n_per_axis=8)
                with pytest.raises(ValueError, match="finest step"):
                    residual_study(spec_f1, u, E_N[None], np.zeros((1, 3)), h)

    def test_box_below_the_largest_step_is_out_of_domain(self, spec_f1, params_f1):
        # the box tops out at y_N = 0.01 < 4h, so the lattice cannot keep the
        # largest step's stencil above the boundary hyperplane
        flat_box = np.array([[-2.0, 2.0], [-2.0, 2.0], [0.0, 0.01]])
        with pytest.raises(StencilOutOfDomain):
            convergence_order(
                spec_f1, bubble_field(params_f1), flat_box, 0.01,
                n_per_axis=8,
            )


def _study_box(N):
    box = np.tile([-2.0, 2.0], (N, 1))
    box[-1] = [0.0, 2.0]
    return box


# One component with 2N = 8 neighbours: the critical N = 4 system.
SPEC_N4_M1 = EllipticSystemSpec(N=4, m=1, A=[[3.0]], B=[[2.0]], c=[-1.0])
# N = 5, m = 2: rows of A sum to (N+2)/(N-2), rows of B to N/(N-2)
SPEC_N5_M2 = EllipticSystemSpec(N=5, m=2, A=[[1.0, 4 / 3], [4 / 3, 1.0]],
                                B=[[5 / 6, 5 / 6], [5 / 6, 5 / 6]], c=[-1.0, -1.0])


def study_fields(conv):
    """Every field of a ConvergenceReport and of its finest ResidualReport."""
    return [*(v for v in vars(conv).values() if not isinstance(v, fd_verifier.ResidualReport)),
            *vars(conv.finest).values()]


class TestBlockedDriver:
    @pytest.mark.parametrize("name, n_per_axis",
                             [("f2", 9), ("f3", 5), ("n4m1", 5), ("n5m2", 5)])
    def test_block_size_leaves_every_result_unchanged(self, name, n_per_axis, monkeypatch):
        # 9^3 = 729, 5^4 = 625 and 5^5 = 3125 interior centers, 81, 125 and 625
        # boundary ones: none a multiple of 7, so the last block of each is partial
        spec = {"n4m1": SPEC_N4_M1, "n5m2": SPEC_N5_M2}.get(name) or fixture_spec(name)
        u = bubble_field(make_bubble_params(spec, 1.0))
        box = _study_box(spec.N)
        rng = np.random.default_rng(3)
        interior = rng.uniform(0.1, 2.0, size=(50, spec.N))
        boundary = interior.copy()
        boundary[:, -1] = 0.0

        def results():
            conv = convergence_order(spec, u, box, 1e-3, n_per_axis=n_per_axis)
            sweep = residual_sweep(spec, u, box, n_per_axis, 1e-3)
            return (
                *residuals_at_points(spec, u, interior, boundary, 1e-3),
                *vars(sweep).values(),
                *study_fields(conv),
            )

        monkeypatch.setattr(fd_verifier, "BLOCK_CENTERS", 7)
        blocked = results()
        monkeypatch.setattr(fd_verifier, "BLOCK_CENTERS", 10**6)
        whole = results()
        assert len(blocked) == len(whole)
        for a, b in zip(blocked, whole):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("block", [7, 4096, 10**6])
    @pytest.mark.parametrize("N", [3, 4, 5])
    @settings(max_examples=6)
    @given(m=st.integers(1, 3), data=st.data())
    def test_lattice_route_equals_the_point_route(self, N, block, m, data):
        # the lattice read sub-box by sub-box from its axes, and the same points as
        # a (k, N) array through the generic route: every field to the bit.  Blocks
        # of 7 stop at 2,048 centers, which keeps the run to seconds
        n_per_axis = data.draw(st.integers(1, 12 if block > 7 else int(2048 ** (1 / N))))
        spec = EllipticSystemSpec(N=N, m=m, A=np.full((m, m), (N + 2) / (N - 2) / m),
                                  B=np.full((m, m), N / (N - 2) / m), c=-np.ones(m))
        floats = lambda lo, hi, n: data.draw(arrays(float, n, elements=st.floats(lo, hi)))
        params = BubbleParams(data.draw(st.floats(0.1, 10.0)), floats(0.1, 10.0, m),
                              floats(-3.0, 3.0, N))
        lo, width = floats(-3.0, 1.0, N), floats(0.1, 4.0, N)
        lo[-1] = data.draw(st.floats(0.0, 1.0))
        box = np.stack([lo, lo + width], axis=1)
        h = data.draw(st.floats(1e-4, 1e-2))
        u = bubble_field(params)
        interior, boundary = fd_verifier._box_lattices(spec, box, n_per_axis, 4 * h)
        with mock.patch.object(fd_verifier, "BLOCK_CENTERS", block):
            on_lattice = convergence_order(spec, u, box, h, n_per_axis)
            on_points = residual_study(spec, u, interior[:], boundary[:], h)
        for a, b in zip(study_fields(on_lattice), study_fields(on_points), strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    @pytest.mark.parametrize("block", [7, 4096])
    @pytest.mark.parametrize("N", [3, 4, 5])
    @settings(max_examples=6)
    @given(m=st.integers(1, 3), data=st.data())
    def test_zipped_route_equals_the_generic_route(self, N, block, m, data):
        # the bubble's evaluator reads each block's coordinates through lattice_values, a
        # plain function of the same bubble gets the points of _stencil_values: on random
        # points and on a lattice, every value, sup and argmax to the bit
        spec = EllipticSystemSpec(N=N, m=m, A=np.full((m, m), (N + 2) / (N - 2) / m),
                                  B=np.full((m, m), N / (N - 2) / m), c=-np.ones(m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        params = BubbleParams(data.draw(st.floats(0.1, 10.0)), rng.uniform(0.1, 10.0, m),
                              rng.uniform(-3.0, 3.0, N))
        h, k = data.draw(st.floats(1e-4, 1e-2)), data.draw(st.integers(1, 300))
        interior = rng.uniform(-3.0, 3.0, (k, N))
        interior[:, -1] = rng.uniform(4 * h, 3.0, k)
        boundary = rng.uniform(-3.0, 3.0, (k, N))
        boundary[:, -1] = 0.0
        n_per_axis = data.draw(st.integers(1, int(2048 ** (1 / N))))

        def results(u):
            return [*study_fields(residual_study(spec, u, interior, boundary, h)),
                    *study_fields(convergence_order(spec, u, _study_box(N), h, n_per_axis)),
                    *residuals_at_points(spec, u, interior, boundary, h)]

        with mock.patch.object(fd_verifier, "BLOCK_CENTERS", block):
            zipped, generic = results(bubble_field(params)), results(lambda y: evaluate_bubble(params, y))
        for a, b in zip(zipped, generic, strict=True):
            assert np.array_equal(a, b, equal_nan=True)

    def test_study_memory_is_bounded_by_the_block(self):
        # 12^5 = 248,832 centers.  The lattice's axes and one block trace
        # 1.6 MB; the whole lattice and its (3, k, 1) residuals traced 18.5 MB,
        # and every stencil point of a step held at once about 178 MB.
        spec = EllipticSystemSpec(N=5, m=1, A=[[7 / 3]], B=[[5 / 3]], c=[-1.0])
        u = bubble_field(make_bubble_params(spec, 1.0))
        tracemalloc.start()
        try:
            conv = convergence_order(
                spec, u, _study_box(5), 1e-3, n_per_axis=12
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conv.finest.n_interior == 12**5
        assert peak < 6 * 2**20

    @given(
        mags=arrays(float, st.tuples(st.integers(1, 3), st.integers(1, 40), st.integers(1, 3)),
                    elements=st.sampled_from([0.0, 1.0, 2.0, np.nan])),
        cuts=st.sets(st.integers(1, 39)),
    )
    def test_fold_keeps_the_max_and_argmax_rules(self, mags, cuts):
        # few distinct values, so blocks tie; the first index wins a tie, the first NaN wins
        bounds = [0, *sorted(c for c in cuts if c < mags.shape[1]), mags.shape[1]]
        best = None
        for lo, hi in zip(bounds, bounds[1:]):
            best = fd_verifier.fold_sup(best, mags[:, lo:hi], lo)
        np.testing.assert_array_equal(best[0], np.max(mags, axis=1))
        np.testing.assert_array_equal(best[1], np.argmax(mags, axis=1))
