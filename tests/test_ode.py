import numpy as np
import pytest
import scipy.integrate

from halfspace_bubbles import ode, radial_ode
from halfspace_bubbles.bubble_family import make_bubble_params
from halfspace_bubbles.errors import ShootFailed, StepFailure

from conftest import degenerate_spec, incompatible_rows_spec, run_child, spec_m1, spec_m2_symmetric


def oscillator(t, y):
    """y'' = -y as a first-order system; (sin t, cos t) from (0, 1)."""
    return np.array([y[1], -y[0]])


def exact(t):
    return np.array([np.sin(t), np.cos(t)])


def step_once(fun, t, y, h):
    """One DOP853 step from (t, y); returns the step with its interpolant."""
    K = np.empty((16, y.size))
    K[0] = fun(t, y)
    y_new = ode._rk_step(fun, t, y, h, K)
    return ode._Step(fun, t, h, y, y_new, K)


def slope(hs, errs):
    return np.polyfit(np.log(hs), np.log(errs), 1)[0]


class TestOrder:
    HS = 4.0 / np.array([4, 6, 8, 12, 16])

    def test_eighth_order_global_convergence(self):
        errs = []
        for h in self.HS:
            t, y = 0.0, exact(0.0)
            for _ in range(round(4.0 / h)):
                y, t = step_once(oscillator, t, y, h).y, t + h
            errs.append(np.max(np.abs(y - exact(4.0))))
        assert abs(slope(self.HS, errs) - 8.0) < 0.5

    def test_dense_output_is_seventh_order(self):
        # from an exact start, the interpolant's error inside a step is O(h^8)
        errs = []
        for h in self.HS:
            errs.append(max(
                np.max(np.abs(step_once(oscillator, t, exact(t), h)(t + x * h) - exact(t + x * h)))
                for t in np.arange(round(4.0 / h)) * h
                for x in (0.3, 0.5, 0.8)
            ))
        assert abs(slope(self.HS, errs) - 8.0) < 0.5

    def test_adaptive_error_tracks_rtol(self):
        for rtol in (1e-6, 1e-9, 1e-12):
            out = ode.solve_ivp(oscillator, (0.0, 10.0), exact(0.0), rtol=rtol, atol=rtol)
            assert out.status == 0 and out.t[-1] == 10.0
            t = np.linspace(0.0, 10.0, 101)
            assert np.max(np.abs(out.sol(t) - exact(t))) <= 100 * rtol


class TestEvents:
    @pytest.mark.parametrize("y0", [0.3, 2.0, 11.0])
    def test_root_located_to_the_ulp(self, y0):
        # y = y0 - t^3 falls through zero at t = cbrt(y0)
        out = ode.solve_ivp(
            lambda t, y: np.array([-3.0 * t * t]), (0.0, 5.0), np.array([y0]), rtol=1e-12,
            atol=1e-12, event=lambda t, y: y[0],
        )
        assert out.status == ode.EVENT
        # the last accepted state is the event's, read on the step's interpolant
        t_e = out.t[-1]
        assert np.array_equal(out.y[:, -1], out.sol([t_e])[:, 0])
        assert abs(t_e - np.cbrt(y0)) <= 1e-14 * np.cbrt(y0)
        # on the interpolant the sign changes within one ulp of t_e
        below, above = out.sol([np.nextafter(t_e, -np.inf), np.nextafter(t_e, np.inf)])[0]
        assert below >= 0.0 >= above

    def test_rising_crossing_is_not_an_event(self):
        # sin t - 0.5 rises through zero at pi / 6 and falls at 5 pi / 6
        out = ode.solve_ivp(oscillator, (0.0, 10.0), exact(0.0), rtol=1e-12, atol=1e-12,
                            event=lambda t, y: y[0] - 0.5)
        assert out.status == ode.EVENT
        assert out.t[-1] == pytest.approx(np.pi * 5 / 6, rel=1e-11)


def test_step_failure_below_ten_ulp():
    # y' = y^2 from 1 blows up at t = 1: the step shrinks below ten ulp of t
    out = ode.solve_ivp(lambda t, y: y * y, (0.0, 2.0), np.array([1.0]), rtol=1e-10, atol=0.0)
    assert out.status == ode.FAILED
    assert abs(out.t[-1] - 1.0) < 1e-9


def test_nan_step_fails_instead_of_looping():
    # with atol = 0 the zero component of (0, 1) makes the starting step NaN,
    # which compares false against every bound; a child process keeps a
    # regression from hanging the suite
    script = (
        "import numpy as np; from halfspace_bubbles import ode; "
        "out = ode.solve_ivp(lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0), "
        "np.array([0.0, 1.0]), rtol=1e-10, atol=0.0); "
        "print(out.status, out.nfev)"
    )
    proc = run_child("-W", "ignore::RuntimeWarning", "-c", script, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(ode.FAILED), "2"]


@pytest.mark.parametrize("call", ["radial", "halfline"])
def test_min_step_failure_raises_step_failure(call, spec_f1, monkeypatch):
    real = ode.solve_ivp

    def blowing_up(fun, t_span, y0, **kwargs):
        return real(lambda t, y: y * y, (0.0, 2.0), np.ones_like(y0), **kwargs)

    monkeypatch.setattr(radial_ode, "solve_ivp", blowing_up)
    with pytest.raises(StepFailure, match="stalled"):
        if call == "radial":
            radial_ode.integrate_radial(spec_f1, [1.0], 1.0, tol=1e-10)
        else:
            radial_ode.halfline_breakdown(spec_f1, [1.0])


@pytest.mark.parametrize("call", ["radial", "halfline", "oscillator"])
def test_nfev_counts_the_calls_made_before_returning(call, spec_f3, params_f3, monkeypatch):
    # a radial shot's reference runs to r = 1 and a half-line solve ends on its
    # crossing, located on the step's interpolant; the oscillator runs to its
    # end time, rejected steps included
    seen = []

    def counting(fun, *args, **kwargs):
        calls = 0

        def wrapped(t, y):
            nonlocal calls
            calls += 1
            return fun(t, y)

        out = ode.solve_ivp(wrapped, *args, **kwargs)
        seen.append((out, calls))
        return out

    monkeypatch.setattr(radial_ode, "solve_ivp", counting)
    if call == "radial":
        radial_ode.shoot_robin(spec_f3, params_f3.d, tol=1e-10)
    elif call == "halfline":
        radial_ode.halfline_breakdown(spec_f3, np.ones(spec_f3.m))
    else:
        radial_ode.solve_ivp(oscillator, (0.0, 50.0), np.array([0.0, 1.0]), rtol=1e-9, atol=1e-12)
    [(out, calls)] = seen
    assert out.status == {"radial": ode.FINISHED, "halfline": ode.EVENT,
                          "oscillator": ode.FINISHED}[call]
    assert out.nfev == calls


class TestLeastSquares:
    def test_interior_root(self):
        out = ode.least_squares(
            lambda x: np.array([np.exp(x[0]) - 3.0, x[0] + x[1]]), np.zeros(2)
        )
        np.testing.assert_allclose(out.x, [np.log(3.0), -np.log(3.0)], rtol=1e-15)
        assert np.max(np.abs(out.fun)) <= 1e-15

    def test_inconsistent_rows_end_at_the_least_squares_minimum(self):
        out = ode.least_squares(lambda x: np.array([x[0] - 1.0, x[0] + 1.0]), np.array([5.0]))
        # the cost test stops it once the cost stalls to 1e-15 of itself
        assert abs(out.x[0]) <= 1e-12
        np.testing.assert_allclose(out.fun, [-1.0, 1.0], rtol=1e-12)


SPECS = {
    "f1": spec_m1(0.0),
    "f2": spec_m1(-1.0),
    "f3": spec_m2_symmetric(),
    "degenerate": degenerate_spec(),
    "x3": incompatible_rows_spec(),
}


def test_x3_shot_stays_above_tol(monkeypatch):
    # the incompatible rows leave a least-squares minimum far above tol
    results = []
    real = radial_ode.least_squares

    def keep(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(radial_ode, "least_squares", keep)
    with pytest.raises(ShootFailed):
        radial_ode.shoot_robin(SPECS["x3"], np.sqrt(3.0), tol=1e-10)
    assert np.max(np.abs(results[0].fun)) > 1e-3


def recorded_solves(name, monkeypatch):
    """Every solve_ivp call of a unit-scale shot and a half-line run, with its result."""
    calls = []
    real = radial_ode.solve_ivp

    def record(fun, t_span, y0, **kwargs):
        calls.append((fun, t_span, y0, kwargs, real(fun, t_span, y0, **kwargs)))
        return calls[-1][-1]

    monkeypatch.setattr(radial_ode, "solve_ivp", record)
    spec = SPECS[name]
    try:
        radial_ode.shoot_robin(spec, 1.0, tol=1e-10)
    except ShootFailed:
        assert name == "x3"
    if name in ("f1", "f2", "f3"):
        params = make_bubble_params(spec, sigma=1.0)
        radial_ode.integrate_radial(spec, params.betas, 2 * params.d, tol=1e-10)
    radial_ode.halfline_breakdown(spec, np.ones(spec.m))
    return calls


@pytest.mark.parametrize("name", sorted(SPECS))
def test_matches_scipy_dop853(name, monkeypatch):
    for fun, t_span, y0, kwargs, ours in recorded_solves(name, monkeypatch):
        # both callers pass the positivity event
        def terminal(t, y, event=kwargs["event"]):
            return event(t, y)

        terminal.terminal, terminal.direction = True, -1
        ref = scipy.integrate.solve_ivp(
            fun, t_span, y0, method="DOP853", rtol=kwargs["rtol"], atol=kwargs["atol"],
            dense_output=True, events=[terminal],
        )
        assert ours.status == ref.status
        # the accepted steps before the event, and the trajectory between them
        np.testing.assert_allclose(ours.t[:-1], ref.t[:-1], rtol=1e-14, atol=0)
        shared = np.linspace(ours.t[0], min(ours.t[-1], ref.t[-1]), 97)
        scale = np.max(np.abs(ref.y), axis=1, keepdims=True)
        assert np.max(np.abs(ours.sol(shared) - ref.sol(shared)) / scale) <= 1e-13
        # the event fired on both sides or on neither, at the same time
        (te_ref,) = ref.t_events
        assert te_ref.size == (ours.status == ode.EVENT)
        if te_ref.size:
            np.testing.assert_allclose(ours.t[-1], te_ref[0], rtol=1e-12)
