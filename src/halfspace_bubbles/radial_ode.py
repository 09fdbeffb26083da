"""Radial ball profiles and the one-dimensional half-line system.

Two ODE problems live here.  The radial profile system on (0, 2d),

    psi_i'' + (N-1)/r psi_i' + prod_j psi_j**A[i,j] = 0,

integrated from a series launch at the coordinate singularity r = 0 and
matched against the closed form alphas[i] (mu^2 + r^2)**(-(N-2)/2), with a
shooting solve for (alphas, mu) from the Robin condition at r = 2d on one
profile integrated on [0, 1] and its Kelvin image.  And the half-line system

    u_i'' = -prod_j u_j**A[i,j],   u_i'(0) = c[i] prod_j u_j(0)**B[i,j],

whose trajectories always leave the positive cone in finite time; the
integrator returns a certificate of that breakdown.
"""

from __future__ import annotations

import functools
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .bubble_family import log_profile, solve_betas
from .errors import HorizonExceeded, PositivityLoss, ShootFailed, StepFailure
from .exponent_system import EllipticSystemSpec
# module-level names, looked up at each call, so a caller can wrap them
from .ode import EVENT, FAILED, least_squares, solve_ivp

__all__ = [
    "RadialTrajectory",
    "BreakdownCertificate",
    "integrate_radial",
    "closed_form_psi",
    "shoot_robin",
    "halfline_breakdown",
]


# Floor for component values inside integrator trial stages; keeps the
# fractional powers defined while an event localizes the actual crossing.
POSITIVITY_FLOOR = 1e-300

# Unit-scale time by which a half-line trajectory must leave the positive cone.
HORIZON = 1e6

SERIES_TERMS = 8  # of the launch series in r**2 about the radial origin

# Largest |psi'(1) + (N-2)/2 psi(1)| / ((N-2)/2 psi(1)) of a psi_ref read through its image
DUALITY_TOL = 1e-11  # psi_ref on f1-f4 reads 5e-14 to 1.2e-13

# unit-scale solves of each kind cached per process, each kind in its own LRU order: Robin
# roots on psi_ref keyed on the spec, half-line rays on (spec, direction)
UNIT_RUNS_KEPT = 32


def clear_unit_runs() -> None:
    """Forget every cached unit-scale run, so the next call of each kind integrates afresh."""
    _robin_reference.cache_clear()
    _unit_halfline.cache_clear()


@dataclass
class RadialTrajectory:
    """Radial trajectory from r = 0; psi and dpsi are (n, m) at the radii r.

    ``dense`` evaluates it anywhere on [0, r[-1]]: the launch series below
    the series radius, the integrator's dense output above it, and for a
    shot profile psi_ref's Kelvin image beyond mu.
    """

    r: np.ndarray
    psi: np.ndarray
    dpsi: np.ndarray
    dense: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] = field(repr=False)

    def at(self, r) -> RadialTrajectory:
        """The trajectory sampled at radii r inside [0, r[-1]]."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if np.any(r < 0) or np.any(r > self.r[-1]):
            raise ValueError("r must lie inside [0, r_end]")
        psi, dpsi = self.dense(r)
        return RadialTrajectory(r=r, psi=psi, dpsi=dpsi, dense=self.dense)


def _series_coefficients(spec, psi0) -> np.ndarray:
    """Coefficients a (SERIES_TERMS, m) of the launch series psi = sum_k a[k] r**(2k).

    In rho = r**2 the radial operator is 4 rho psi_rho_rho + 2N psi_rho, so
    a[k+1] = -p[k] / (2 (k+1) (2k+N)), p the series of exp(A log psi), built
    by the power-series log and exp recurrences.
    """
    a, log_psi, p = (np.zeros((SERIES_TERMS, psi0.shape[0])) for _ in range(3))
    a[0], log_psi[0] = psi0, np.log(psi0)
    p[0] = spec.source(log_psi[0])
    for n in range(1, SERIES_TERMS):
        a[n] = -p[n - 1] / (2 * n * (2 * n - 2 + spec.N))
        # n a[n] = sum_{j=1..n} j log_psi[j] a[n-j], and likewise p from A log_psi
        j = np.arange(1, n + 1)[:, None]
        tail = np.sum(j[:-1] * log_psi[1:n] * a[n - 1 : 0 : -1], axis=0)
        log_psi[n] = (n * a[n] - tail) / (n * a[0])
        p[n] = np.sum(j * (log_psi[1 : n + 1] @ spec.AT) * p[n - 1 :: -1], axis=0) / n
    return a


def _series_launch_radius(spec, a, r_end, tol) -> float:
    """Launch radius: the dropped term below tol/2 of psi0, its slope below tol/2 of 2 a[1] r.

    |a[K]| is bounded by the larger of the last two terms, each carried on
    at its own rate |a[k] / psi0|**(1/k), so the bound scales with the
    profile; the half covers its shortfall on coefficients that grow slower
    than geometrically (N = 3).  The radius stays below half of r_end, so
    the integrator takes a step, and below a tenth of every row's Robin
    balance radius, where (N-2)/(2r) psi meets the flux |c| prod_j psi_j**B[i,j].
    """
    K, half = SERIES_TERMS, tol / 2
    k = np.arange(K - 2, K)[:, None]
    a_K = np.max(np.abs(a[-2:] / a[0]) ** (K / k), axis=0)  # bound on |a[K] / psi0|, (m,)
    flux0 = np.abs(spec.flux(np.log(a[0])))
    with np.errstate(divide="ignore", over="ignore"):  # c = 0 or subnormal: no balance radius
        rho = np.minimum(
            (half / a_K) ** (1 / K), (half * np.abs(a[1] / a[0]) / (K * a_K)) ** (1 / (K - 1))
        )
        balance = float(np.min((spec.N - 2) * a[0] / (2 * flux0)))
    return min(float(np.min(rho)) ** 0.5, 0.5 * r_end, 0.1 * balance)


def _series_eval(a, r):
    """psi, dpsi of the launch series with coefficients a at radii r (k,)."""
    k = np.arange(SERIES_TERMS)
    powers = (r**2)[:, None] ** k
    return powers @ a, 2 * r[:, None] * (powers[:, :-1] @ (k[1:, None] * a[1:]))


def _cone_flow(spec, y0, span, rtol, atol, radial):
    """DOP853 run of psi'' = -damping psi' - source(psi), damping (N-1)/r if ``radial`` else 0,
    from y0 = (psi, psi') to the first fall of min(psi) through zero; StepFailure if it stalls.
    """
    m, source = y0.shape[0] // 2, spec.source

    def rhs(r, y):
        out = np.empty(2 * m)
        out[:m] = y[m:]
        out[m:] = -source(np.log(np.maximum(y[:m], POSITIVITY_FLOOR)))
        if radial:
            out[m:] -= (spec.N - 1) / r * y[m:]
        return out

    sol = solve_ivp(rhs, span, y0, rtol=rtol, atol=atol,
                    event=lambda r, y: float(np.min(y[:m])))  # positivity
    if sol.status == FAILED:
        run, var = ("integration", "r") if radial else ("half-line integration", "t")
        raise StepFailure(f"{run} stalled: step below ten ulp of {var} = {sol.t[-1]:.6g}")
    return sol


def integrate_radial(
    spec: EllipticSystemSpec, psi0: np.ndarray, r_end: float, tol: float
) -> RadialTrajectory:
    """Integrate the radial profile system from r = 0 with local tolerance tol.

    The (N-1)/r term is singular at the origin, so the trajectory starts
    from a series in r**2 on [0, r_s], with r_s chosen so the dropped term
    and its slope stay below ``tol / 2``; the package's own DOP853
    (:func:`halfspace_bubbles.ode.solve_ivp`, relative local error ``tol``)
    carries it to ``r_end`` from there.  The result holds the accepted
    steps.  ``r_end`` must be positive.

    Raises
    ------
    PositivityLoss
        If a component reaches zero before ``r_end``.
    StepFailure
        If the integrator cannot continue.
    """
    psi0 = np.atleast_1d(np.asarray(psi0, dtype=float))
    if not np.all((psi0 > 0) & np.isfinite(psi0)):
        raise ValueError("initial values must be positive and finite")
    if not (r_end > 0 and tol > 0):
        raise ValueError("need r_end > 0 and tol > 0")
    m = psi0.shape[0]
    a = _series_coefficients(spec, psi0)
    r_s = _series_launch_radius(spec, a, r_end, tol)
    psi_s, dpsi_s = _series_eval(a, np.array([r_s]))
    sol = _cone_flow(spec, np.concatenate([psi_s[0], dpsi_s[0]]), (r_s, r_end), tol, 0.0,
                     radial=True)
    if sol.status == EVENT:
        raise PositivityLoss(f"component reached zero at r = {sol.t[-1]:.6g}")

    def dense(r):
        psi, dpsi = np.empty((2, r.size, m))
        above = r > r_s
        if not np.all(above):
            psi[~above], dpsi[~above] = _series_eval(a, r[~above])
        if np.any(above):
            y = sol.sol(r[above])
            psi[above], dpsi[above] = y[:m].T, y[m:].T
        return psi, dpsi

    psi, dpsi = np.vstack([psi0, sol.y[:m].T]), np.vstack([np.zeros(m), sol.y[m:].T])
    return RadialTrajectory(np.append(0.0, sol.t), psi, dpsi, dense)


def closed_form_psi(N: int, alphas: np.ndarray, mu: float, r: np.ndarray) -> np.ndarray:
    """Closed-form radial profile alphas[i] (mu^2 + r^2)**(-(N-2)/2); (..., m)."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    r = np.asarray(r, dtype=float)
    return np.exp(log_profile(np.log(alphas), mu**2 + r**2, N))


def _robin_residual(spec, d, psi, dpsi):
    """Normalized Robin mismatch at r = 2d."""
    flux = spec.flux(np.log(psi))
    res = dpsi + (spec.N - 2) / (4 * d) * psi + flux
    scale = np.abs(dpsi) + (spec.N - 2) / (4 * d) * psi + np.abs(flux)
    return res / scale


def _image_slope(N, t, psi, dpsi):
    """s**N phi'(s) of the Kelvin image phi(s) = s**(2-N) psi(1/s), from psi and psi' at t = 1/s."""
    return -(N - 2) * psi / t - dpsi


def _folded(ref, N, s):
    """(t, w, psi, slope) of psi_ref at radii s (k,), from its run on [0, 1] and its Kelvin image.

    t = min(s, 1/s), w = min(1, 1/s) and psi = psi_ref(t): psi_ref(s) = w**(N-2) psi and
    psi_ref'(s) = w**N slope.  Each term of the Robin mismatch at s > 1 is s**-N times a value
    at t, so ``_robin_residual(spec, t / 2, psi, slope)`` is the mismatch at s on either side.
    """
    w = 1 / np.maximum(s, 1.0)
    t = np.minimum(s, w)
    psi, slope = ref.dense(t)
    slope[s > 1] = _image_slope(N, t[s > 1, None], psi[s > 1], slope[s > 1])
    return t, w[:, None], psi, slope


def shoot_robin(
    spec: EllipticSystemSpec, d: float, tol: float = 1e-10
) -> tuple[np.ndarray, float, RadialTrajectory, float]:
    """Find (alphas, mu) whose integrated profile meets the Robin condition at 2d.

    Critical scaling and the kernel directions v = A v of the amplitude
    system are exact symmetries: the trial profile at (mu, theta) is
    mu**(-(N-2)/2) k psi_ref(r / mu), k = exp(theta @ null_basis), where
    psi_ref is integrated once from the amplitudes at mu = 1.  Its Robin
    mismatch at 2d is k-scaled psi_ref's at s = 2d / mu, so the root
    (log s*, theta*) reads the spec alone and is solved once per spec
    (``_robin_reference``); d only rescales mu = 2d / s*.  The profile is
    integrated numerically, never taken from the closed form, so agreement
    with the recovery formulas is a genuine cross-check.  The shot profile,
    psi_ref so rescaled onto [0, 2d], comes third, its duality residual fourth.

    Raises
    ------
    ShootFailed
        If psi_ref's duality residual exceeds ``DUALITY_TOL``, or if no
        parameter choice drives the normalized residuals below ``tol``
        (inconsistent boundary coefficients across rows).
    """
    if not 0 < d < np.inf or not spec.admissible:
        raise ValueError("need finite d > 0 and a spec passing validate_spec (critical scaling)")
    solve, ref, duality, x, worst = _robin_reference(spec)
    if worst > tol:
        raise ShootFailed(
            f"terminal residual {worst:.3e} stayed above tol={tol:.1e}; "
            "boundary rows likely demand incompatible profiles"
        )
    N, mu = spec.N, 2 * d / float(np.exp(x[0]))
    alphas = solve.betas(x[1:]) * mu ** ((N - 2) / 2)
    lift = np.exp(x[1:] @ solve.null_basis) * mu ** (-(N - 2) / 2)

    def dense(r):
        _, w, psi, slope = _folded(ref, N, r / mu)
        return lift * w ** (N - 2) * psi, lift / mu * w**N * slope

    r = np.array([0.0, 2 * d])
    return alphas, mu, RadialTrajectory(r, *dense(r), dense), duality


@functools.lru_cache(maxsize=UNIT_RUNS_KEPT)
def _robin_reference(spec):
    """Amplitude solve at mu = 1, psi_ref, duality residual, root x and its worst residual.

    psi_ref runs on [0, 1] and is read through its Kelvin image above 1
    (``_folded``); it is its own image when psi_ref'(1) = -(N-2)/2 psi_ref(1),
    whose relative miss is the duality residual; a miss above ``DUALITY_TOL``
    raises here, so it is never cached.  Each row's mismatch tends to +1 as
    s -> 0 and to -1/3 as s -> inf; r_s stays below a tenth of every row's
    Robin balance radius, so the accepted steps on [r_s, 1] and their images
    span every root, and the solve for x = (log s, theta) starts from the best.
    """
    solve = solve_betas(spec, 1.0)
    # psi_ref(0) = alphas(1) * 1**(2-N)
    ref = integrate_radial(spec, solve.betas(), 1.0, 1e-12)
    balance = (spec.N - 2) / 2 * ref.psi[-1]
    duality = float(np.max(np.abs(ref.dpsi[-1] + balance) / balance))
    if duality > DUALITY_TOL:  # then its image cannot stand in for r > 1
        raise ShootFailed(f"psi_ref's Kelvin duality residual {duality:.3e} > {DUALITY_TOL:.0e}")
    N, t, psi, dpsi = spec.N, ref.r[1:, None], ref.psi[1:], ref.dpsi[1:]  # steps on [r_s, 1]
    slopes = np.vstack([dpsi, _image_slope(N, t, psi, dpsi)])  # stored, at t and at 1/t
    scan = np.abs(_robin_residual(spec, np.vstack([t, t]) / 2, np.vstack([psi, psi]), slopes))
    s0 = np.append(t, 1 / t)[np.argmin(scan.max(axis=1))]

    def residual(x):
        k = np.exp(x[1:] @ solve.null_basis)
        t, _, psi, slope = _folded(ref, N, np.exp(x[:1]))
        return _robin_residual(spec, t[0] / 2, k * psi[0], k * slope[0])

    out = least_squares(residual, np.append(np.log(s0), np.zeros(solve.nullity)))
    return solve, ref, duality, out.x, float(np.max(np.abs(out.fun)))


@dataclass
class BreakdownCertificate:
    """Finite-time positivity breakdown of a half-line trajectory.

    ``trace`` rows are (t, u_1..u_m, u'_1..u'_m) at accepted integrator
    steps, the last one at the crossing t_star; the serialized report
    leaves it out.
    """

    t_star: float
    failing_component: int
    trace: np.ndarray = field(repr=False)
    u_at_t_star: np.ndarray


def halfline_breakdown(spec: EllipticSystemSpec, u0: np.ndarray) -> BreakdownCertificate:
    """Integrate the half-line system until a component leaves the positive cone.

    Initial slopes come from the boundary condition; the second derivative
    is strictly negative while all components are positive, so every slope
    decreases monotonically and some component must reach zero.  By
    critical scaling, u(t) = M v(M**(2/(N-2)) t) with M = max(u0) and v the
    trajectory from u0 / M: v is integrated once per (spec, direction u0 / M)
    per process, kept among the last ``UNIT_RUNS_KEPT`` runs, and t, u, u'
    are mapped back by M**(-2/(N-2)), M, M**(N/(N-2)) into a fresh certificate
    on each call; M must keep all three finite normal floats.  DOP853
    (:func:`halfspace_bubbles.ode.solve_ivp`) stops at the first fall of
    min(v) through zero, located on the step's interpolant to adjacent
    floats; that event time and state are t* and v(t*).

    Raises
    ------
    HorizonExceeded
        If no crossing occurs before the unit-scale time ``HORIZON``; this
        flags a setup problem, never a counterexample.
    """
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if not np.all((u0 > 0) & np.isfinite(u0)) or not spec.admissible:
        raise ValueError("need finite u0 > 0 and a spec passing validate_spec (critical scaling)")
    m = u0.shape[0]
    scale = float(np.max(u0))
    try:  # the factors that map t, u and u' back
        to_u = [scale ** (-2.0 / (spec.N - 2)), scale, scale ** (spec.N / (spec.N - 2))]
    except OverflowError:
        to_u = [np.inf]
    if not all(np.finfo(float).tiny <= x < np.inf for x in to_u):
        raise ValueError(f"max u0 = {scale:g} puts a rescaling factor outside the normal floats")
    t, y = _unit_halfline(spec, (u0 / scale).tobytes())
    v_star = y[:m, -1]
    trace = np.column_stack([t, y.T]) * np.repeat(to_u, [1, m, m])
    return BreakdownCertificate(
        t_star=float(to_u[0] * t[-1]),
        failing_component=int(np.argmin(v_star)),
        trace=trace,
        u_at_t_star=scale * v_star,
    )


@functools.lru_cache(maxsize=UNIT_RUNS_KEPT)
def _unit_halfline(spec, v0_bytes):
    """(t, y) of the DOP853 run from v0 at unit scale to its crossing; read-only arrays.

    Raises StepFailure or HorizonExceeded here, so a failed run is never cached.
    """
    v0 = np.frombuffer(v0_bytes)
    y0 = np.concatenate([v0, spec.flux(np.log(v0))])
    sol = _cone_flow(spec, y0, (0.0, HORIZON), 1e-12, 1e-14, radial=False)
    if sol.status != EVENT:
        raise HorizonExceeded(
            f"no positivity breakdown located before t = {HORIZON:g}; "
            "at unit scale (max u0 = 1) that flags a setup problem, never a counterexample"
        )
    sol.t.flags.writeable = sol.y.flags.writeable = False
    return sol.t, sol.y
