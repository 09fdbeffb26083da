import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from scipy.integrate import quad

from halfspace_bubbles import ode, radial_ode
from halfspace_bubbles.bubble_family import make_bubble_params, solve_betas
from halfspace_bubbles.conformal_ball import recover_mu_alpha
from halfspace_bubbles.errors import HorizonExceeded, PositivityLoss, ShootFailed
from halfspace_bubbles.exponent_system import EllipticSystemSpec
from halfspace_bubbles.radial_ode import (
    closed_form_psi,
    halfline_breakdown,
    integrate_radial,
    shoot_robin,
)

from conftest import (
    breakdown_time_radau,
    degenerate_spec,
    incompatible_rows_spec,
    run_child,
    spec_m1,
    spec_m2_asymmetric,
    spec_m2_symmetric,
)


def breakdown_time_oracle() -> float:
    """Independent quadrature oracle for a=5, c=0, u(0)=1.

    The conserved energy (u')^2/2 + u^6/6 = 1/6 turns the crossing time into
    sqrt(3) * int_0^1 (1 - s^6)^(-1/2) ds.  Substituting s = 1 - v^2 removes
    the endpoint singularity: the integrand becomes 2 / sqrt(sum_k (1-v^2)^k).
    """

    def smooth(v):
        s = 1.0 - v * v
        return 2.0 / np.sqrt(sum(s**k for k in range(6)))

    value, err = quad(smooth, 0.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    assert err < 1e-12
    return float(np.sqrt(3.0) * value)


def breakdown_time_mpmath(c: float, u0: float) -> float:
    """High-precision oracle for a=5, b=3, u(0)=u0, u'(0)=c u0^3 (N=3, m=1).

    The energy (u')^2/2 + u^6/6 fixes the peak u_max = (u0^6 (3c^2 + 1))^(1/6),
    and the time to fall from u to 0 is
    sqrt(3) u_max^-2 int_0^(u/u_max) (1 - x^6)^(-1/2) dx, the formula of
    breakdown_time_oracle.  A rising start (c > 0) climbs to u_max first.
    Evaluated by mpmath's tanh-sinh quadrature at 50 digits.
    """
    with mp.workdps(50):
        ratio = (3 * mp.mpf(c) ** 2 + 1) ** (-mp.mpf(1) / 6)  # u0 / u_max, exactly 1 at c = 0
        u_max = mp.mpf(u0) / ratio

        def fall(x_end):
            return mp.sqrt(3) / u_max**2 * mp.quad(lambda x: 1 / mp.sqrt(1 - x**6), [0, x_end])

        return float(fall(ratio) if c <= 0 else 2 * fall(1) - fall(ratio))


def closed_form_residual(spec, alphas, mu, r):
    """Relative residual of the closed form in the radial equation at r > 0.

    psi' and psi'' are differentiated by hand from
    alphas (mu^2 + r^2)**(-(N-2)/2).
    """
    N, r = spec.N, r[:, None]
    q = mu**2 + r**2
    psi = closed_form_psi(N, alphas, mu, r[:, 0])
    dpsi = -(N - 2) * alphas * r * q ** (-N / 2)
    ddpsi = -(N - 2) * alphas * q ** (-(N + 2) / 2) * (mu**2 - (N - 1) * r**2)
    prod = np.exp(np.log(psi) @ spec.A.T)
    scale = np.abs(ddpsi) + np.abs((N - 1) / r * dpsi) + prod
    return np.abs(ddpsi + (N - 1) / r * dpsi + prod) / scale


def fixture_mu_alpha(spec, params):
    mu, alphas = recover_mu_alpha(params)
    return params.d, mu, alphas


class TestClosedForm:
    def test_value_at_origin(self):
        psi = closed_form_psi(3, [2.0], 1.5, 0.0)
        assert psi[0] == pytest.approx(2.0 * 1.5 ** (2 - 3), rel=1e-15)

    def test_residual_of_consistent_profile(self, fixture_pair):
        spec, params = fixture_pair
        d, mu, alphas = fixture_mu_alpha(spec, params)
        r = np.linspace(1e-3, 2 * d, 57)
        rel = closed_form_residual(spec, alphas, mu, r)
        assert rel.max() <= 1e-12

    def test_residual_at_scale_radius(self, params_f2, spec_f2):
        d, mu, alphas = fixture_mu_alpha(spec_f2, params_f2)
        rel = closed_form_residual(spec_f2, alphas, mu, np.array([mu]))
        assert rel.max() <= 1e-13

    def test_far_field_decay(self):
        alphas, mu = np.array([3.0]), 2.0
        R = 1e6
        psi = closed_form_psi(3, alphas, mu, R)
        assert R * psi[0] == pytest.approx(3.0, rel=1e-9)


class TestIntegrateRadial:
    def test_matches_closed_form_on_ball(self, fixture_pair):
        spec, params = fixture_pair
        d, mu, alphas = fixture_mu_alpha(spec, params)
        psi0 = alphas * mu ** (2 - spec.N)
        r = np.linspace(0.0, 2 * d, 200)
        traj = integrate_radial(spec, psi0, 2 * d, tol=1e-10).at(r)
        exact = closed_form_psi(spec.N, alphas, mu, r)
        assert np.max(np.abs(traj.psi - exact) / exact) <= 1e-8

    def test_initial_curvature_matches_series(self, spec_f2, params_f2):
        # psi''(0) = -prod_j psi_j(0)^A[i,j] / N, the regularized origin limit
        spec = spec_f2
        d, mu, alphas = fixture_mu_alpha(spec, params_f2)
        psi0 = alphas * mu ** (2 - spec.N)
        delta = 1e-3
        traj = integrate_radial(spec, psi0, 2 * d, tol=1e-12).at(delta)
        prod0 = np.exp(spec.A @ np.log(psi0))
        curvature = 2 * (traj.psi[0] - psi0) / delta**2
        np.testing.assert_allclose(curvature, -prod0 / spec.N, rtol=1e-4)

    def test_zero_interval_is_rejected(self, spec_f1):
        for r_end in (0.0, -1.0):
            with pytest.raises(ValueError, match="r_end > 0"):
                integrate_radial(spec_f1, [1.3], r_end, tol=1e-10)

    def test_tolerance_controls_error_with_consistent_order(self, spec_f2, params_f2):
        # An adaptive error-per-step scheme tracks tol roughly linearly, so a
        # 16x tighter tolerance must cut the match error by at least 4x.
        spec = spec_f2
        d, mu, alphas = fixture_mu_alpha(spec, params_f2)
        psi0 = alphas * mu ** (2 - spec.N)
        r = np.linspace(0.0, 2 * d, 100)
        exact = closed_form_psi(spec.N, alphas, mu, r)

        def err(tol):
            traj = integrate_radial(spec, psi0, 2 * d, tol=tol).at(r)
            return np.max(np.abs(traj.psi - exact) / exact)

        assert err(1e-6) / err(1e-6 / 16) >= 4.0

    def test_positivity_loss_for_mismatched_components(self, spec_f3):
        with pytest.raises(PositivityLoss):
            integrate_radial(spec_f3, np.array([1.0, 5.0]), 100.0, tol=1e-10)

    def test_rejects_bad_inputs(self, spec_f1):
        with pytest.raises(ValueError):
            integrate_radial(spec_f1, [-1.0], 1.0, 1e-10)
        with pytest.raises(ValueError):
            integrate_radial(spec_f1, [1.0], 1.0, 0.0)


class TestShooting:
    def test_reproduces_recovered_parameters(self, fixture_pair):
        spec, params = fixture_pair
        d, mu, alphas = fixture_mu_alpha(spec, params)
        alphas_shot, mu_shot, *_ = shoot_robin(spec, d, tol=1e-10)
        assert abs(mu_shot - mu) / mu <= 1e-8
        np.testing.assert_allclose(alphas_shot, alphas, rtol=1e-8)

    def test_terminal_value_matches_transported_boundary_value(self, fixture_pair):
        # psi(2d) must equal 2^(2-N) u(xbar) for the matching half-space bubble
        from halfspace_bubbles.bubble_family import evaluate_bubble

        spec, params = fixture_pair
        d = params.d
        alphas, mu, *_ = shoot_robin(spec, d, tol=1e-10)
        psi_2d = closed_form_psi(spec.N, alphas, mu, 2 * d)
        expected = 2.0 ** (2 - spec.N) * evaluate_bubble(params, params.xbar[None])[0]
        np.testing.assert_allclose(psi_2d, expected, rtol=1e-8)

    def test_shot_profile_is_the_closed_form_of_the_shot(self, fixture_pair):
        # psi_ref rescaled by critical scaling: values and slopes on [0, 2d]
        spec, params = fixture_pair
        d = params.d
        alphas, mu, shot, _ = shoot_robin(spec, d, tol=1e-10)
        assert shot.r[0] == 0.0 and shot.r[-1] == 2 * d
        traj = shot.at(np.linspace(0.0, 2 * d, 57))
        r = traj.r[:, None]
        psi = closed_form_psi(spec.N, alphas, mu, traj.r)
        dpsi = -(spec.N - 2) * alphas * r * (mu**2 + r**2) ** (-spec.N / 2)
        assert np.max(np.abs(traj.psi - psi) / psi) <= 1e-10
        assert np.max(np.abs(traj.dpsi - dpsi)) <= 1e-10 * np.max(np.abs(dpsi))

    def test_incompatible_rows_fail(self):
        with pytest.raises(ShootFailed):
            shoot_robin(incompatible_rows_spec(), np.sqrt(3.0), tol=1e-10)

    def test_reference_failing_the_duality_check_fails_the_shot(self, spec_f2, monkeypatch):
        # amplitudes 1 + delta times psi_ref's make the bubble of width
        # mu**2 = (1 + delta)**(-4/(N-2)), self-dual in the sphere of radius mu,
        # not 1: psi'(1) / psi(1) = -(N-2) / (mu**2 + 1), a residual |mu**2 - 1| / (mu**2 + 1)
        delta, N = 1e-6, spec_f2.N
        real = radial_ode.integrate_radial
        monkeypatch.setattr(radial_ode, "integrate_radial",
                            lambda spec, psi0, *args: real(spec, psi0 * (1 + delta), *args))
        with pytest.raises(ShootFailed, match="Kelvin duality residual") as failed:
            shoot_robin(spec_f2, 2.0, tol=1e-10)
        residual = float(str(failed.value).split("residual ")[1].split()[0])
        mu2 = (1 + delta) ** (-4 / (N - 2))
        assert residual == pytest.approx(abs(mu2 - 1) / (mu2 + 1), rel=1e-3)
        assert residual > radial_ode.DUALITY_TOL

    @pytest.mark.parametrize("c", [-1e5, -1000.0, -50.0, 50.0, 1000.0])
    def test_extreme_coefficients_match_closed_form(self, c):
        # the Robin root s* = 2d/mu runs from 2.9e-6 (c = -1e5) to 3.5e3 (c = 1000)
        spec = spec_m1(c)
        d, mu, alphas = fixture_mu_alpha(spec, make_bubble_params(spec, sigma=1.0))
        alphas_shot, mu_shot, *_ = shoot_robin(spec, d, tol=1e-10)
        assert abs(mu_shot - mu) / mu <= 1e-8
        np.testing.assert_allclose(alphas_shot, alphas, rtol=1e-8)

    @pytest.mark.parametrize("name", ["f3", "degenerate", "incompatible"])
    def test_one_integration_and_one_solve_per_shot(self, name, spec_f3, params_f3, monkeypatch):
        calls = {"solve_ivp": 0, "least_squares": 0}

        def counting(attr):
            inner = getattr(radial_ode, attr)

            def wrapper(*args, **kwargs):
                calls[attr] += 1
                return inner(*args, **kwargs)

            return wrapper

        for attr in calls:
            monkeypatch.setattr(radial_ode, attr, counting(attr))
        if name == "f3":
            shoot_robin(spec_f3, params_f3.d, tol=1e-10)
        elif name == "degenerate":
            shoot_robin(degenerate_spec(), np.sqrt(3.0), tol=1e-10)
        else:
            with pytest.raises(ShootFailed):
                shoot_robin(incompatible_rows_spec(), np.sqrt(3.0), tol=1e-10)
        assert calls == {"solve_ivp": 1, "least_squares": 1}


SPECS = {
    "f1": spec_m1(0.0),
    "f2": spec_m1(-1.0),
    "f3": spec_m2_symmetric(),
    "degenerate": degenerate_spec(),
    "incompatible": incompatible_rows_spec(),
}
SHOOTABLE = ["degenerate", "f1", "f2", "f3"]


def spec_n5() -> EllipticSystemSpec:
    """N = 5, two coupled components: row sums (N+2)/(N-2) = 7/3 and N/(N-2) = 5/3."""
    return EllipticSystemSpec(
        N=5, m=2, A=[[1.0, 4.0 / 3.0], [4.0 / 3.0, 1.0]], B=[[5.0 / 6.0, 5.0 / 6.0]] * 2,
        c=[-1.0, -1.0],
    )


LAUNCH_SPECS = {**{name: SPECS[name] for name in SHOOTABLE}, "n5": spec_n5()}


class TestLaunchSeries:
    # psi_ref = beta (1 + r^2)**(-(N-2)/2) solves the radial system for the
    # mu = 1 amplitudes beta, so its series in r^2 is beta binom(-(N-2)/2, k)
    @pytest.mark.parametrize("name", sorted(LAUNCH_SPECS))
    def test_coefficients_are_binomial(self, name):
        spec = LAUNCH_SPECS[name]
        beta = solve_betas(spec, 1.0).betas()
        a = radial_ode._series_coefficients(spec, beta)
        j, alpha = np.arange(radial_ode.SERIES_TERMS - 1), -(spec.N - 2) / 2
        binom = np.cumprod(np.append(1.0, (alpha - j) / (j + 1)))  # binom(alpha, k)
        exact = beta * binom[:, None]
        assert a.shape == exact.shape
        np.testing.assert_allclose(a, exact, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    @pytest.mark.parametrize("name", sorted(LAUNCH_SPECS))
    def test_launch_state_matches_closed_form(self, name, tol):
        spec = LAUNCH_SPECS[name]
        beta = solve_betas(spec, 1.0).betas()
        traj = integrate_radial(spec, beta, 1e3, tol=tol)
        r_s = traj.r[1]  # the first state after r = 0 is the launch
        psi = closed_form_psi(spec.N, beta, 1.0, r_s)
        dpsi = -(spec.N - 2) * beta * r_s * (1 + r_s**2) ** (-spec.N / 2)
        np.testing.assert_allclose(traj.psi[1], psi, rtol=tol, atol=0)
        np.testing.assert_allclose(traj.dpsi[1], dpsi, rtol=tol, atol=0)

    @pytest.mark.parametrize("name, most", [("f1", 22), ("f2", 31), ("f3", 44)])
    def test_reference_integration_steps(self, name, most, monkeypatch):
        # psi_ref runs on [0, 1] from the series' own radius in 20, 28 and 40
        # steps; a launch held to 1e-3 of that end costs 46, 46 and 70: the
        # (N-1)/r term holds each step to a fixed fraction of r
        spec = LAUNCH_SPECS[name]
        steps = []

        def recording(*args, **kwargs):
            out = ode.solve_ivp(*args, **kwargs)
            steps.append(out.t.size - 1)
            return out

        monkeypatch.setattr(radial_ode, "solve_ivp", recording)
        shoot_robin(spec, make_bubble_params(spec, sigma=1.0).d, tol=1e-10)
        assert len(steps) == 1 and steps[0] <= most


@functools.cache
def unit_shot(name):
    return shoot_robin(SPECS[name], 1.0, tol=1e-10)


@settings(max_examples=40)
@given(name=st.sampled_from(SHOOTABLE), log_s=st.floats(-8.0, 8.0))
def test_shooting_is_scale_covariant(name, log_s):
    # critical scaling: the Robin problem at s d is the one at d, with mu -> s mu
    spec, s = SPECS[name], 10.0**log_s
    alphas, mu, *_ = unit_shot(name)
    alphas_s, mu_s, *_ = shoot_robin(spec, s, tol=1e-10)
    assert abs(mu_s - s * mu) <= 1e-8 * s * mu
    np.testing.assert_allclose(alphas_s, s ** ((spec.N - 2) / 2) * alphas, rtol=1e-8)


@functools.cache
def unit_breakdown_time(name):
    return halfline_breakdown(SPECS[name], np.ones(SPECS[name].m)).t_star


@given(name=st.sampled_from(sorted(SPECS)), log_s=st.floats(-8.0, 8.0))
def test_breakdown_time_scaling_law(name, log_s):
    # t*(s u0) = s^(-2/(N-2)) t*(u0) for the critical half-line system
    spec, s = SPECS[name], 10.0**log_s
    t_star = halfline_breakdown(spec, np.full(spec.m, s)).t_star
    expected = s ** (-2.0 / (spec.N - 2)) * unit_breakdown_time(name)
    assert abs(t_star - expected) <= 1e-10 * expected


class TestHalflineBreakdown:
    def test_breakdown_time_matches_energy_oracle(self, spec_f1):
        oracle = breakdown_time_oracle()
        assert oracle == pytest.approx(2.1032731579881814, abs=1e-12)
        cert = halfline_breakdown(spec_f1, [1.0])
        assert abs(cert.t_star - oracle) / oracle <= 1e-8
        assert cert.failing_component == 0

    def test_negative_coefficient_breaks_down_sooner(self, spec_f1, spec_f2):
        t_free = halfline_breakdown(spec_f1, [1.0]).t_star
        t_pulled = halfline_breakdown(spec_f2, [1.0]).t_star
        assert t_pulled < t_free

    def test_positive_coefficient_rises_then_falls(self):
        spec = EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[3.0]], c=[1.0])
        cert = halfline_breakdown(spec, [1.0])
        slopes = cert.trace[:, 2]
        assert slopes[0] > 0.0  # starts climbing
        assert slopes[-1] < 0.0  # ends falling
        assert cert.t_star > 0.0

    def test_slopes_decrease_monotonically(self, fixture_pair):
        spec, _ = fixture_pair
        cert = halfline_breakdown(spec, np.full(spec.m, 1.0))
        slopes = cert.trace[:, 1 + spec.m :]
        assert np.max(np.diff(slopes, axis=0)) <= 1e-9

    def test_energy_conserved_for_single_component(self, spec_f1):
        cert = halfline_breakdown(spec_f1, [1.0])
        u = cert.trace[:, 1]
        du = cert.trace[:, 2]
        energy = du**2 / 2 + u**6 / 6
        assert np.max(np.abs(energy - 1.0 / 6.0)) * 6 <= 1e-8

    def test_certificate_invariants(self, spec_f2):
        m = spec_f2.m
        cert = halfline_breakdown(spec_f2, [2.0])
        # the trace ends on the crossing: (t*, u(t*)) is its last row
        assert cert.trace[-1, 0] == cert.t_star
        np.testing.assert_array_equal(cert.trace[-1, 1 : 1 + m], cert.u_at_t_star)
        assert cert.failing_component == int(np.argmin(cert.u_at_t_star))
        assert abs(cert.u_at_t_star[cert.failing_component]) <= 1e-10 * 2.0
        # positive all along the recorded trace before the crossing
        before = cert.trace[:-1]
        assert np.all(before[:, 1 : 1 + m] > 0.0)
        assert np.all(np.diff(cert.trace[:, 0]) > 0.0)

    def test_every_coefficient_and_scale_terminates(self):
        for c in (-1.0, 0.0, 1.0):
            spec = EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[3.0]], c=[c])
            for u0 in (0.5, 1.0, 2.0):
                cert = halfline_breakdown(spec, [u0])
                assert np.isfinite(cert.t_star) and cert.t_star > 0.0

    def test_two_component_certificate(self, spec_f3):
        cert = halfline_breakdown(spec_f3, [1.0, 1.0])
        assert cert.t_star > 0.0

    def test_horizon_flags_setup_problem(self, spec_f1, monkeypatch):
        halfline_breakdown(spec_f1, [1.0])  # cached at the default horizon
        monkeypatch.setattr(radial_ode, "HORIZON", 0.1)
        # the horizon is a constant, not part of the cache key: forget the run made under 1e6
        radial_ode.clear_unit_runs()
        with pytest.raises(HorizonExceeded, match="before t = 0.1;"):
            halfline_breakdown(spec_f1, [1.0])

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    @pytest.mark.parametrize("u0", [1e-4, 1.0, 1e8])
    def test_breakdown_time_matches_mpmath_oracle(self, c, u0):
        spec = spec_m1(c)
        oracle = breakdown_time_mpmath(c, u0)
        cert = halfline_breakdown(spec, [u0])
        assert abs(cert.t_star - oracle) <= 1e-7 * oracle

    def test_asymmetric_breakdown_time_matches_pinned_oracle(self, spec_f4):
        # mpmath's Taylor integrator odefun at 25 digits, with a positivity
        # bisection of width 6e-15, took 104 s, so the value is pinned here
        oracle = 0.31337033370467
        cert = halfline_breakdown(spec_f4, [1.0, 2.0])
        assert abs(cert.t_star - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize(
        "spec",
        [spec_m2_symmetric(), spec_m2_asymmetric(), incompatible_rows_spec()],
        ids=["f3", "f4", "x3"],
    )
    def test_breakdown_time_matches_independent_route(self, spec):
        # unequal starts leave the diagonal u_1 = u_2, which equal row sums keep invariant
        oracle = breakdown_time_radau(spec, [1.0, 2.0])
        cert = halfline_breakdown(spec, [1.0, 2.0])
        assert abs(cert.t_star - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("order", [("f3", "f4"), ("f4", "f3")])
    def test_cached_runs_tell_exponent_matrices_apart(self, order):
        # f3 and f4 share every row sum of A and B, and (1, 2) leaves the diagonal
        specs = {"f3": spec_m2_symmetric(), "f4": spec_m2_asymmetric()}
        oracles = {"f3": breakdown_time_radau(specs["f3"], [1.0, 2.0]), "f4": 0.31337033370467}
        for name in order:
            cert = halfline_breakdown(specs[name], [1.0, 2.0])
            assert abs(cert.t_star - oracles[name]) <= 1e-10 * oracles[name]

    def test_certificates_do_not_share_the_cached_run(self, spec_f3):
        first = halfline_breakdown(spec_f3, [1.0, 1.0])
        trace, u_star = first.trace.copy(), first.u_at_t_star.copy()
        first.trace[:] = 0.0
        first.u_at_t_star[:] = 0.0
        second = halfline_breakdown(spec_f3, [1.0, 1.0])
        np.testing.assert_array_equal(second.trace, trace)
        np.testing.assert_array_equal(second.u_at_t_star, u_star)

    def test_rejects_nonpositive_start(self, spec_f1):
        with pytest.raises(ValueError):
            halfline_breakdown(spec_f1, [0.0])


@pytest.mark.parametrize("call", [
    "halfline_breakdown(f1, [nan])",
    "halfline_breakdown(f1, [inf])",
    "halfline_breakdown(f3, [1.0, nan])",
    "integrate_radial(f1, [nan], 1.0, 1e-10)",
    "integrate_radial(f1, [inf], 1.0, 1e-10)",
    "integrate_radial(f1, [1.0], nan, 1e-10)",
])
def test_non_finite_start_rejected(call):
    # a NaN start makes every DOP853 step NaN, and such a solve never
    # returns, so a missing check must fail here by the deadline, not stall
    script = f"""
from math import inf, nan
from halfspace_bubbles.exponent_system import EllipticSystemSpec
from halfspace_bubbles.radial_ode import halfline_breakdown, integrate_radial
f1 = EllipticSystemSpec(N=3, m=1, A=[[5.0]], B=[[3.0]], c=[0.0])
f3 = EllipticSystemSpec(N=4, m=2, A=[[1.0, 2.0], [2.0, 1.0]], B=[[1.0, 1.0], [1.0, 1.0]],
                        c=[-1.0, -1.0])
try:
    {call}
except ValueError:
    print("rejected")
"""
    proc = run_child("-c", script, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_non_critical_spec_rejected():
    # A = 6 > (N+2)/(N-2): critical scaling fails, and with it the Kelvin
    # image the shooting reads psi_ref through
    spec = EllipticSystemSpec(N=3, m=1, A=[[6.0]], B=[[3.0]], c=[0.0])
    with pytest.raises(ValueError):
        shoot_robin(spec, 1.0, tol=1e-10)
    with pytest.raises(ValueError):
        halfline_breakdown(spec, [2.0])


def test_degenerate_family_shoots_with_kernel_direction():
    # rank-deficient amplitude system: shooting carries one kernel coordinate
    spec = degenerate_spec()
    assert solve_betas(spec, 1.0).nullity == 1
    d = np.sqrt(3.0)
    alphas, mu, *_ = shoot_robin(spec, d, tol=1e-10)
    # whatever member the shot lands on must satisfy the amplitude identity
    condition = np.log(alphas) - spec.A @ np.log(alphas) + np.log(mu**2 * 8.0)
    assert np.max(np.abs(condition)) <= 1e-8
