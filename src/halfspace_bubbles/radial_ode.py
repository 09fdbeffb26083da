"""Radial ball profiles and the one-dimensional half-line system.

Two ODE problems live here.  The radial profile system on (0, 2d),

    psi_i'' + (N-1)/r psi_i' + prod_j psi_j**A[i,j] = 0,

integrated from a series launch at the coordinate singularity r = 0 and
matched against the closed form alphas[i] (mu^2 + r^2)**(-(N-2)/2), with a
shooting solve for (alphas, mu) from the Robin condition at r = 2d.  And
the half-line system

    u_i'' = -prod_j u_j**A[i,j],   u_i'(0) = c[i] prod_j u_j(0)**B[i,j],

whose trajectories always leave the positive cone in finite time; the
integrator returns a certificate of that breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bubble_family import exponent_product, log_profile, solve_betas
from .errors import HorizonExceeded, PositivityLoss, ShootFailed, StepFailure
from .exponent_system import EllipticSystemSpec

__all__ = [
    "RadialTrajectory",
    "BreakdownCertificate",
    "integrate_radial",
    "psi_at_origin",
    "closed_form_psi",
    "closed_form_radial_residual",
    "shoot_robin",
    "halfline_breakdown",
]


# scipy's solvers load on the first solve, so the numpy-only subcommands
# never pay their import.
def solve_ivp(*args, **kwargs):
    import scipy.integrate

    return scipy.integrate.solve_ivp(*args, **kwargs)


def least_squares(*args, **kwargs):
    import scipy.optimize

    return scipy.optimize.least_squares(*args, **kwargs)


# Floor for component values inside integrator trial stages; keeps the
# fractional powers defined while an event localizes the actual crossing.
POSITIVITY_FLOOR = 1e-300


@dataclass
class RadialTrajectory:
    """Sampled radial trajectory; psi and dpsi are (n, m)."""

    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray


def _series_launch_radius(spec, psi0, r_end, tol) -> float:
    """Launch radius keeping the dropped fourth-order series term below tol."""
    prod0 = exponent_product(spec.A, np.log(psi0))
    r_s = (tol * 2 * spec.N / float(np.max(prod0))) ** 0.25
    return min(r_s, 1e-3 * r_end)


def _series_eval(spec, psi0, r):
    """Quadratic series about r = 0: psi, dpsi at radii r (k,)."""
    prod0 = exponent_product(spec.A, np.log(psi0))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    psi = psi0[None, :] - (r**2)[:, None] / (2 * spec.N) * prod0[None, :]
    dpsi = -r[:, None] / spec.N * prod0[None, :]
    return psi, dpsi


def integrate_radial(
    spec: EllipticSystemSpec,
    psi0: np.ndarray,
    r_end: float,
    tol: float,
    r_eval: np.ndarray | None = None,
) -> RadialTrajectory:
    """Integrate the radial profile system from r = 0 with local tolerance tol.

    The (N-1)/r term is singular at the origin, so the trajectory starts
    from a quadratic series on [0, r_s] with r_s chosen so the dropped
    fourth-order term stays below ``tol``; an adaptive embedded
    Runge-Kutta scheme (DOP853) carries it to ``r_end`` from there.

    Raises
    ------
    PositivityLoss
        If a component reaches zero before ``r_end``.
    StepFailure
        If the integrator cannot continue.
    """
    psi0 = np.atleast_1d(np.asarray(psi0, dtype=float))
    if np.any(psi0 <= 0):
        raise ValueError("initial values must be positive")
    if r_end < 0 or tol <= 0:
        raise ValueError("need r_end >= 0 and tol > 0")
    m = psi0.shape[0]

    if r_end == 0.0:
        return RadialTrajectory(
            r=np.array([0.0]), psi=psi0[None, :], dpsi=np.zeros((1, m))
        )

    r_s = _series_launch_radius(spec, psi0, r_end, tol)
    psi_s, dpsi_s = _series_eval(spec, psi0, r_s)
    y0 = np.concatenate([psi_s[0], dpsi_s[0]])

    def rhs(r, y):
        psi = np.maximum(y[:m], POSITIVITY_FLOOR)
        dpsi = y[m:]
        prod = exponent_product(spec.A, np.log(psi))
        return np.concatenate([dpsi, -(spec.N - 1) / r * dpsi - prod])

    def positivity(r, y):
        return float(np.min(y[:m]))

    positivity.terminal = True
    positivity.direction = -1

    sol = solve_ivp(
        rhs,
        (r_s, r_end),
        y0,
        method="DOP853",
        rtol=tol,
        atol=0.0,
        dense_output=True,
        events=[positivity],
    )
    if sol.t_events[0].size:
        raise PositivityLoss(f"component reached zero at r = {sol.t_events[0][0]:.6g}")
    if not sol.success:
        raise StepFailure(f"integration stalled: {sol.message}")

    if r_eval is None:
        r_out = np.concatenate([[0.0], sol.t])
        psi = np.vstack([psi0[None, :], sol.y[:m].T])
        dpsi = np.vstack([np.zeros((1, m)), sol.y[m:].T])
        return RadialTrajectory(r=r_out, psi=psi, dpsi=dpsi)

    r_eval = np.atleast_1d(np.asarray(r_eval, dtype=float))
    if np.any(r_eval < 0) or np.any(r_eval > r_end):
        raise ValueError("r_eval must lie inside [0, r_end]")
    psi = np.empty((r_eval.size, m))
    dpsi = np.empty((r_eval.size, m))
    series = r_eval <= r_s
    if np.any(series):
        psi[series], dpsi[series] = _series_eval(spec, psi0, r_eval[series])
    if np.any(~series):
        y = sol.sol(r_eval[~series])
        psi[~series] = y[:m].T
        dpsi[~series] = y[m:].T
    return RadialTrajectory(r=r_eval, psi=psi, dpsi=dpsi)


def psi_at_origin(N: int, alphas: np.ndarray, mu: float) -> np.ndarray:
    """Launch value psi(0) = alphas * mu**(2-N) of the closed-form profile."""
    return np.exp(np.log(alphas) + (2 - N) * np.log(mu))


def closed_form_psi(N: int, alphas: np.ndarray, mu: float, r: np.ndarray) -> np.ndarray:
    """Closed-form radial profile alphas[i] (mu^2 + r^2)**(-(N-2)/2); (..., m)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    r = np.asarray(r, dtype=float)
    return np.exp(log_profile(np.log(alphas), mu**2 + r**2, N))


def closed_form_radial_residual(
    spec: EllipticSystemSpec, alphas: np.ndarray, mu: float, r: np.ndarray
) -> np.ndarray:
    """Relative residual of the closed form in the radial interior equation (r > 0)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r <= 0):
        raise ValueError("r must be positive (the origin term is singular)")
    N = spec.N
    q = mu**2 + r**2
    psi = np.exp(log_profile(np.log(alphas), q, N))
    dpsi = -(N - 2) * alphas * r[..., None] * q[..., None] ** (-N / 2)
    ddpsi = -(N - 2) * alphas * q[..., None] ** (-(N + 2) / 2) * (mu**2 - (N - 1) * r[..., None] ** 2)
    prod = exponent_product(spec.A, np.log(psi))
    res = ddpsi + (N - 1) / r[..., None] * dpsi + prod
    scale = np.abs(ddpsi) + np.abs((N - 1) / r[..., None] * dpsi) + prod
    return np.abs(res) / scale


def _robin_residual(spec, d, psi, dpsi):
    """Normalized Robin mismatch at r = 2d."""
    flux = spec.c * exponent_product(spec.B, np.log(psi))
    res = dpsi + (spec.N - 2) / (4 * d) * psi + flux
    scale = np.abs(dpsi) + (spec.N - 2) / (4 * d) * psi + np.abs(flux)
    return res / scale


def shoot_robin(
    spec: EllipticSystemSpec,
    d: float,
    tol: float = 1e-10,
    mu0: float | None = None,
) -> tuple[np.ndarray, float]:
    """Find (alphas, mu) whose integrated profile meets the Robin condition at 2d.

    The trial profile starts from psi(0) = alphas * mu**(2-N) with alphas
    solving the amplitude system at scale mu (kernel directions, if any,
    become extra shooting unknowns alongside log mu).  The trajectory is
    integrated numerically, never taken from the closed form, so agreement
    with the recovery formulas is a genuine cross-check.

    Raises
    ------
    ShootFailed
        If no parameter choice drives the normalized residuals below
        ``tol`` (inconsistent boundary coefficients across rows).
    """
    if d <= 0:
        raise ValueError("d must be positive")
    m = int(spec.m)
    N = int(spec.N)
    nullity = solve_betas(spec, 2 * d).nullity
    tol_int = max(min(1e-12, tol * 1e-2), 1e-13)

    def residual(theta):
        mu = float(np.exp(theta[0]))
        solve = solve_betas(spec, mu)
        alphas = solve.betas(theta[1:] if nullity else None)
        traj = integrate_radial(spec, psi_at_origin(N, alphas, mu), 2 * d, tol_int, r_eval=[2 * d])
        return _robin_residual(spec, d, traj.psi[-1], traj.dpsi[-1])

    guesses = [mu0] if mu0 is not None else [2 * d, d, 4 * d, 0.5 * d, 10 * d]
    best = None
    for guess in guesses:
        theta0 = np.concatenate([[np.log(guess)], np.zeros(nullity)])
        out = least_squares(residual, theta0, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        worst = float(np.max(np.abs(out.fun)))
        if best is None or worst < best[0]:
            best = (worst, out)
        if worst <= tol:
            break
    worst, out = best
    if worst > tol:
        raise ShootFailed(
            f"terminal residual {worst:.3e} stayed above tol={tol:.1e}; "
            "boundary rows likely demand incompatible profiles"
        )
    mu = float(np.exp(out.x[0]))
    alphas = solve_betas(spec, mu).betas(out.x[1:] if nullity else None)
    return alphas, mu


@dataclass
class BreakdownCertificate:
    """Finite-time positivity breakdown of a half-line trajectory.

    ``trace`` rows are (t, u_1..u_m, u'_1..u'_m) at accepted integrator
    steps; ``bracket`` is the final bisection interval around the crossing.
    """

    t_star: float
    failing_component: int
    trace: np.ndarray
    bracket: tuple[float, float]
    u_at_t_star: np.ndarray

    def to_dict(self, include_trace: bool = False) -> dict:
        out = {
            "t_star": self.t_star,
            "failing_component": int(self.failing_component),
            "bracket": list(self.bracket),
            "u_at_t_star": self.u_at_t_star.tolist(),
            "n_trace": int(self.trace.shape[0]),
        }
        if include_trace:
            out["trace"] = self.trace.tolist()
        return out


def halfline_breakdown(
    spec: EllipticSystemSpec,
    u0: np.ndarray,
    tol: float = 1e-12,
    horizon: float = 1e6,
) -> BreakdownCertificate:
    """Integrate the half-line system until a component leaves the positive cone.

    Initial slopes come from the boundary condition; the second derivative
    is strictly negative while all components are positive, so every slope
    decreases monotonically and some component must reach zero.  The
    crossing is bisected on the dense output until the interval width
    drops below ``tol`` or the component value is below 1e-12 of its
    starting scale.

    Raises
    ------
    HorizonExceeded
        If no crossing occurs before ``horizon``; this flags a tolerance
        or setup problem, never a counterexample.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if np.any(u0 <= 0):
        raise ValueError("u0 must be positive")
    m = u0.shape[0]
    du0 = spec.c * exponent_product(spec.B, np.log(u0))

    def rhs(t, y):
        u = np.maximum(y[:m], POSITIVITY_FLOOR)
        return np.concatenate([y[m:], -exponent_product(spec.A, np.log(u))])

    events = []
    for i in range(m):
        def crossing(t, y, _i=i):
            return y[_i]

        crossing.terminal = True
        crossing.direction = -1
        events.append(crossing)

    sol = solve_ivp(
        rhs,
        (0.0, horizon),
        np.concatenate([u0, du0]),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14 * max(1.0, float(np.max(u0))),
        dense_output=True,
        events=events,
    )
    if sol.status == -1:
        raise StepFailure(f"half-line integration stalled: {sol.message}")
    fired = [(te[0], i) for i, te in enumerate(sol.t_events) if te.size]
    if not fired:
        raise HorizonExceeded(
            f"no positivity breakdown located before t = {horizon:g}; "
            "tighten tolerances or extend the horizon"
        )
    t_event, failing = min(fired)

    value_floor = 1e-12 * float(np.max(u0))
    earlier = sol.t[sol.t < t_event]
    lo = float(earlier[-1]) if earlier.size else 0.0
    hi = float(t_event)
    if sol.sol(hi)[failing] < 0.0:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if abs(sol.sol(mid)[failing]) <= value_floor:
                lo = hi = mid
                break
            if sol.sol(mid)[failing] < 0.0:
                hi = mid
            else:
                lo = mid
    else:
        # Event localization already put the crossing at hi within rounding.
        lo = hi
    t_star = 0.5 * (lo + hi)

    trace = np.column_stack([sol.t, sol.y.T])
    return BreakdownCertificate(
        t_star=float(t_star),
        failing_component=int(failing),
        trace=trace,
        bracket=(lo, hi),
        u_at_t_star=np.asarray(sol.sol(t_star)[:m], dtype=float),
    )
