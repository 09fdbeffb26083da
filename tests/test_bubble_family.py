import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from halfspace_bubbles.bubble_family import (
    BubbleParams,
    axis_neighbours,
    boundary_residual_relative,
    bubble_field,
    compute_y0N,
    evaluate_bubble,
    evaluate_bubble_derivatives,
    field_values,
    interior_residual_relative,
    make_bubble_params,
    solve_betas,
    squared_distance,
)
from halfspace_bubbles.errors import IncompatibleBoundaryCoefficients, NoBubbleParameters
from halfspace_bubbles.exponent_system import EllipticSystemSpec

from conftest import (
    FIXTURE_NAMES,
    fixture_spec,
    moved_params,
    random_boundary_points,
    random_halfspace_points,
)


def closed_form_amplitude(N: int, sigma: float) -> float:
    """Single-component oracle: (sigma^2 N (N-2))**((N-2)/4), solved by hand.

    The scalar amplitude condition log b = a log b - log(sigma^2 N (N-2))
    with a = (N+2)/(N-2) gives b**(a-1) = sigma^2 N (N-2) and a-1 = 4/(N-2).
    """
    return (sigma**2 * N * (N - 2)) ** ((N - 2) / 4)


class TestSolveBetas:
    def test_single_component_closed_form(self, spec_f1):
        beta = solve_betas(spec_f1, 1.0).betas()[0]
        assert beta == pytest.approx(3**0.25, rel=1e-13)
        # substitution back into the condition
        assert np.log(beta) - 5 * np.log(beta) + np.log(3.0) == pytest.approx(0.0, abs=1e-13)

    def test_single_component_other_scales(self, spec_f1):
        for sigma in (0.5, 2.0, 7.25):
            beta = solve_betas(spec_f1, sigma).betas()[0]
            assert beta == pytest.approx(closed_form_amplitude(3, sigma), rel=1e-13)

    def test_two_component_full_rank(self, spec_f3):
        # Hand solve: (I - A) = [[0,-2],[-2,0]], rhs = -log 8 ones, so each
        # log beta = log(8)/2 and beta = 2 sqrt(2).
        result = solve_betas(spec_f3, 1.0)
        assert result.nullity == 0
        np.testing.assert_allclose(result.betas(), 2 * np.sqrt(2.0), rtol=1e-13)

    def test_degenerate_rank_family(self):
        spec = EllipticSystemSpec(
            N=4, m=2, A=[[2.0, 1.0], [1.0, 2.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
        )
        for sigma in (1.0, 2.0):
            result = solve_betas(spec, sigma)
            assert result.nullity == 1
            # kernel of (I - A) = -[[1,1],[1,1]] is the (1,-1) direction
            direction = result.null_basis[0]
            np.testing.assert_allclose(np.abs(direction), 1 / np.sqrt(2), rtol=1e-12)
            assert abs(direction @ np.ones(2)) < 1e-12
            target = np.log(8 * sigma**2)
            for t in np.linspace(-1.0, 1.0, 21):
                betas = result.betas([t])
                assert abs(np.log(betas).sum() - target) < 1e-10

    def test_inconsistent_rhs_raises(self):
        # Rank-deficient (I - A) with rows in ratio 1:2 has left kernel (2, -1),
        # not orthogonal to the constant right-hand side.
        spec = EllipticSystemSpec(
            N=4, m=2, A=[[2.0, 1.0], [2.0, 3.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -1.0]
        )
        with pytest.raises(NoBubbleParameters):
            solve_betas(spec, 1.0)

    def test_sigma_must_be_positive(self, spec_f1):
        for sigma in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                solve_betas(spec_f1, sigma)


class TestComputeY0N:
    def test_zero_coefficient_kills_height(self, spec_f1):
        y0N, per_row, spread = compute_y0N(spec_f1, [3**0.25], 1.0)
        assert y0N == 0.0
        assert spread == 0.0

    def test_single_component_negative_c(self, spec_f2):
        # b - a = -2, so the row gives 3 * (-1) * beta**-2 = -3 / sqrt(3) = -sqrt(3)
        y0N, _, _ = compute_y0N(spec_f2, [3**0.25], 1.0)
        assert y0N == pytest.approx(-np.sqrt(3.0), rel=1e-14)

    def test_two_component_rows_agree_by_symmetry(self):
        # Off-sum exponent matrix is fine here: no validity is assumed, and the
        # brute-force product oracle must agree with the log-space evaluation.
        spec = EllipticSystemSpec(
            N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[2.0, 1.0], [1.0, 2.0]], c=[-1.0, -1.0]
        )
        betas = np.array([2 * np.sqrt(2.0), 2 * np.sqrt(2.0)])
        y0N, per_row, spread = compute_y0N(spec, betas, 1.0)

        def brute_row(i):
            prod = 1.0
            for j in range(2):
                prod *= betas[j] ** (spec.B[i, j] - spec.A[i, j])
            return 1.0**2 * 4 * spec.c[i] * prod

        np.testing.assert_allclose(per_row, [brute_row(0), brute_row(1)], rtol=1e-14)
        assert spread < 1e-14
        assert per_row[0] == pytest.approx(per_row[1], rel=1e-14)

    def test_incompatible_rows_raise(self):
        spec = EllipticSystemSpec(
            N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[1.0, 1.0], [1.0, 1.0]], c=[-1.0, -0.5]
        )
        betas = solve_betas(spec, 1.0).betas()
        with pytest.raises(IncompatibleBoundaryCoefficients):
            compute_y0N(spec, betas, 1.0)


class TestEvaluateBubble:
    def test_value_at_center(self, spec_f1):
        params = make_bubble_params(spec_f1, sigma=1.0)  # y0 = 0, on the boundary
        (u,) = evaluate_bubble(params, params.y0[None])
        assert u[0] == pytest.approx(params.betas[0] * params.sigma ** (2 - 3), rel=1e-15)

    def test_value_at_unit_height(self, params_f1):
        (u,) = evaluate_bubble(params_f1, np.array([[0.0, 0.0, 1.0]]))
        assert u[0] == pytest.approx(3**0.25 / np.sqrt(2.0), rel=1e-14)
        assert u[0] == pytest.approx(0.9306048591020996, rel=1e-14)

    def test_batch_shape(self, params_f3):
        pts = random_halfspace_points(4, 17, seed=5)
        u = evaluate_bubble(params_f3, pts)
        assert u.shape == (17, 2)
        assert np.all(u > 0)

    def test_far_field_amplitude(self, params_f2):
        # |y|^(N-2) u -> beta along any ray
        for direction in (np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])):
            R = 1e7
            (u,) = evaluate_bubble(params_f2, R * direction[None])
            assert R * u[0] == pytest.approx(params_f2.betas[0], rel=1e-5)


class TestDerivatives:
    def test_gradient_vanishes_at_center(self, params_f2):
        # center is below the boundary for f2; use a synthetic interior center
        params = BubbleParams(sigma=1.0, betas=[2.0], y0=[0.3, -0.2, 0.7])
        grads, _ = evaluate_bubble_derivatives(params, params.y0)
        np.testing.assert_allclose(grads, 0.0, atol=1e-300)

    def test_laplacian_closed_form_value(self):
        params = BubbleParams(sigma=1.0, betas=[1.0], y0=[0.0, 0.0, 0.0])
        _, lap = evaluate_bubble_derivatives(params, np.array([1.0, 0.0, 0.0]))
        assert lap[0] == pytest.approx(-3.0 * 2.0 ** (-2.5), rel=1e-14)
        assert lap[0] == pytest.approx(-0.5303300858899106, rel=1e-14)

    def test_laplacian_identity_exact(self, fixture_pair):
        spec, params = fixture_pair
        pts = random_halfspace_points(spec.N, 50, seed=11)
        _, lap = evaluate_bubble_derivatives(params, pts)
        N = spec.N
        q = params.sigma**2 + np.sum((pts - params.y0) ** 2, axis=1)
        reference = -N * (N - 2) * params.sigma**2 * params.betas * q[:, None] ** (-(N + 2) / 2)
        np.testing.assert_allclose(lap, reference, rtol=5e-14)

    def test_matches_central_differences_at_order_two(self, params_f2):
        """Slope of the finite-difference mismatch must sit at 2.0 +- 0.1."""
        y = np.array([0.4, -0.7, 0.9])
        grads, lap = evaluate_bubble_derivatives(params_f2, y)

        def fd_errors(h):
            grad_fd = np.zeros(3)
            lap_fd = 0.0
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                up, dn, mid = evaluate_bubble(params_f2, np.array([y + e, y - e, y]))[:, 0]
                grad_fd[a] = (up - dn) / (2 * h)
                lap_fd += (up - 2 * mid + dn) / h**2
            return (
                np.max(np.abs(grad_fd - grads[0])),
                abs(lap_fd - lap[0]),
            )

        hs = np.array([1e-2, 5e-3, 2.5e-3])
        errs = np.array([fd_errors(h) for h in hs])
        for col in range(2):
            slope = np.polyfit(np.log(hs), np.log(errs[:, col]), 1)[0]
            assert abs(slope - 2.0) < 0.1


class TestAnalyticResiduals:
    def test_interior_residual_small_for_valid_params(self, fixture_pair):
        spec, params = fixture_pair
        pts = random_halfspace_points(spec.N, 1000, seed=23)
        rel = interior_residual_relative(spec, params, pts)
        assert rel.max() <= 1e-12

    def test_boundary_residual_small_for_valid_params(self, fixture_pair):
        spec, params = fixture_pair
        pts = random_boundary_points(spec.N, 1000, seed=29)
        rel = boundary_residual_relative(spec, params, pts)
        assert rel.max() <= 1e-12

    def test_scaling_property_resolved_not_assumed(self, fixture_pair):
        spec, _ = fixture_pair
        for sigma in (0.5, 2.0, 7.3):
            params = make_bubble_params(spec, sigma=sigma)
            pts = random_halfspace_points(spec.N, 200, seed=31)
            bpts = random_boundary_points(spec.N, 200, seed=37)
            assert interior_residual_relative(spec, params, pts).max() <= 1e-12
            assert boundary_residual_relative(spec, params, bpts).max() <= 1e-12

    def test_perturbed_amplitude_sign(self, spec_f1):
        # For m=1 the residual is q**(-5/2) (b^5 - 3 b); above the root it is
        # positive, below it negative.
        y = np.array([0.3, 0.1, 0.5])
        for factor, sign in ((1.01, 1.0), (0.99, -1.0)):
            params = BubbleParams(sigma=1.0, betas=[3**0.25 * factor], y0=[0.0, 0.0, 0.0])
            _, lap = evaluate_bubble_derivatives(params, y)
            res = lap + spec_f1.source(np.log(evaluate_bubble(params, y)))
            assert np.sign(res[0]) == sign
            assert abs(res[0]) > 1e-6

    def test_perturbed_center_breaks_boundary(self, spec_f2, params_f2):
        shifted = BubbleParams(
            sigma=params_f2.sigma, betas=params_f2.betas, y0=params_f2.y0 + [0, 0, 0.1]
        )
        rel = boundary_residual_relative(spec_f2, shifted, np.array([0.2, -0.4, 0.0]))
        assert rel[0] > 1e-4

    def test_zero_coefficient_boundary_exact(self, spec_f1, params_f1):
        # c = 0 and center on the boundary: both terms vanish identically.
        pts = random_boundary_points(3, 50, 41)
        grads, _ = evaluate_bubble_derivatives(params_f1, pts)
        assert np.max(np.abs(grads[..., -1])) == 0.0
        assert np.max(boundary_residual_relative(spec_f1, params_f1, pts)) == 0.0

    def test_symmetric_center_interior(self, spec_f3, params_f3):
        y = params_f3.y0 + np.eye(4)[0]
        if y[-1] < 0:
            y = y.copy()
            y[-1] = 0.5
        rel = interior_residual_relative(spec_f3, params_f3, y)
        assert rel.max() <= 1e-12


@given(
    name=st.sampled_from(FIXTURE_NAMES),
    log_s=st.floats(-8.0, 8.0),
    shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
)
def test_residuals_vanish_after_scaling_and_translation(name, log_s, shift):
    # critical scaling and tangential translation map the family onto itself
    spec = fixture_spec(name)
    s, t = 10.0**log_s, np.append(shift[: spec.N - 1], 0.0)
    moved = moved_params(make_bubble_params(spec, sigma=1.0), s, t)
    pts = s * (random_halfspace_points(spec.N, 200, seed=43) + t)
    bpts = s * (random_boundary_points(spec.N, 200, seed=47) + t)
    assert interior_residual_relative(spec, moved, pts).max() <= 1e-12
    assert boundary_residual_relative(spec, moved, bpts).max() <= 1e-12


finite = st.floats(-1e100, 1e100, allow_nan=False)


@given(N=st.integers(1, 7), batch=array_shapes(min_dims=1, max_dims=2, max_side=20), data=st.data())
def test_squared_distance_is_numpy_sum_bit_for_bit(N, batch, data):
    # batches (k, N) and (k, s, N) against one point and against a batch of
    # points; numpy sums an inner axis shorter than 8 in order
    pts = data.draw(arrays(np.float64, batch + (N,), elements=finite))
    for c in (data.draw(arrays(np.float64, (N,), elements=finite)),
              data.draw(arrays(np.float64, batch + (N,), elements=finite))):
        d2 = squared_distance(pts, c)
        assert d2.tobytes() == np.sum((pts - c) ** 2, axis=-1).tobytes()
        assert np.sqrt(d2).tobytes() == np.linalg.norm(pts - c, axis=-1).tobytes()


def test_boundary_restriction_is_centered_profile(fixture_pair):
    # on y_N = 0 a bubble is betas (d^2 + |x - xbar|^2)**(-(N-2)/2), the ball's boundary data
    spec, params = fixture_pair
    pts = random_boundary_points(spec.N, 60, seed=43, lo=-6.0, hi=6.0)
    q = params.d**2 + squared_distance(pts, params.xbar)
    expected = params.betas * q[:, None] ** (-(spec.N - 2) / 2)
    np.testing.assert_allclose(evaluate_bubble(params, pts), expected, rtol=1e-13)


def test_params_reject_nonpositive_values():
    for sigma in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            BubbleParams(sigma=sigma, betas=[1.0], y0=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        BubbleParams(sigma=1.0, betas=[-1.0], y0=[0.0, 0.0, 0.0])


def test_make_bubble_params_tangential_center(spec_f2):
    # the center sits above the origin, at the height the boundary row demands
    params = make_bubble_params(spec_f2, sigma=1.0)
    assert params.y0[:2].tolist() == [0.0, 0.0]
    assert params.y0[-1] == pytest.approx(-np.sqrt(3.0), rel=1e-14)


def stencil_values(params, y, h):
    """The bubble at the 2N points y + h e_a, y - h e_a of each point of y (k, N), as (2N, k, m)."""
    k, N = y.shape
    stencil = np.broadcast_to(y, (2 * N, k, N)).copy()
    for a in range(N):
        stencil[2 * a, :, a] += h
        stencil[2 * a + 1, :, a] -= h
    return field_values(bubble_field(params), stencil.reshape(-1, N)).reshape(2 * N, k, -1)


# N = 5, m = 3: rows of A sum to (N+2)/(N-2), rows of B to N/(N-2)
SPEC_N5_M3 = EllipticSystemSpec(
    N=5, m=3, A=[[1.0, 1.0, 1 / 3], [0.5, 1.5, 1 / 3], [1.0, 0.5, 5 / 6]],
    B=[[1 / 3, 1.0, 1 / 3], [0.5, 5 / 6, 1 / 3], [1.0, 0.5, 1 / 6]], c=[-1.0, -1.0, -1.0],
)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("f4", "n5m3"))
@pytest.mark.parametrize("h", [4e-3, 2e-3, 1e-3])
def test_axis_neighbours_are_the_stencil_values_bit_for_bit(name, h):
    spec = SPEC_N5_M3 if name == "n5m3" else fixture_spec(name)
    shift = np.append([0.3, -0.2, 0.1, 0.4][: spec.N - 1], 0.0)
    params = moved_params(make_bubble_params(spec, sigma=1.0), 0.7, shift)
    y = random_halfspace_points(spec.N, 500, seed=61, lo=-2.0, hi=2.0, hi_last=2.0)
    neighbours = bubble_field(params).axis_neighbours(y, h)
    assert neighbours.shape == (2 * spec.N, len(y), spec.m)
    assert np.array_equal(neighbours, stencil_values(params, y, h))


@given(N=st.integers(3, 5), k=st.integers(1, 30), data=st.data())
def test_axis_neighbours_match_the_stencil_for_any_bubble(N, k, data):
    m = data.draw(st.integers(1, 3))
    params = BubbleParams(
        data.draw(st.floats(1e-3, 1e3)),
        data.draw(arrays(np.float64, m, elements=st.floats(1e-3, 1e3))),
        data.draw(arrays(np.float64, N, elements=st.floats(-1e3, 1e3))),
    )
    y = data.draw(arrays(np.float64, (k, N), elements=st.floats(-1e3, 1e3)))
    h = data.draw(st.floats(1e-8, 1.0))
    assert np.array_equal(axis_neighbours(params, y, h), stencil_values(params, y, h))
