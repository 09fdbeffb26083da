"""The classified solution family: parameter solve, evaluation, analytic residuals.

Every positive solution of the system is a "bubble"

    u_i(y) = betas[i] / (sigma**2 + |y - y0|**2)**((N-2)/2),

where the amplitudes solve a log-linear system tied to ``sigma`` and the
center height ``y0[N-1]`` is pinned by the boundary coefficients.  This
module solves for those parameters, evaluates the bubbles and their exact
derivatives, and computes interior/boundary residuals analytically.

All exponent products are evaluated as exp(sum e_j log u_j) by
:func:`exponent_product`: the exponents are fractional and the bases span
many decades.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FitDiverged, IncompatibleBoundaryCoefficients, NoBubbleParameters
from .exponent_system import EllipticSystemSpec

__all__ = [
    "BubbleParams",
    "LogLinearSolveResult",
    "BoundaryProfileFit",
    "solve_betas",
    "compute_y0N",
    "make_bubble_params",
    "evaluate_bubble",
    "evaluate_bubble_derivatives",
    "interior_residual_analytic",
    "boundary_residual_analytic",
    "interior_residual_relative",
    "boundary_residual_relative",
    "bubble_field",
    "exponent_product",
    "log_profile",
    "fit_boundary_profile",
    "load_params",
]

# Singular values below RANK_RCOND * (largest singular value) count as zero.
# Exponent matrices are spec-exact but stored as floats.
RANK_RCOND = 1e-10


@dataclass
class BubbleParams:
    """Parameters (sigma, betas, y0) of one member of the classified family."""

    sigma: float
    betas: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        self.sigma = float(self.sigma)
        self.betas = np.atleast_1d(np.asarray(self.betas, dtype=float))
        self.y0 = np.asarray(self.y0, dtype=float)
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if np.any(self.betas <= 0):
            raise ValueError("betas must be positive")

    @property
    def N(self) -> int:
        return self.y0.shape[0]

    @property
    def m(self) -> int:
        return self.betas.shape[0]

    @property
    def width2(self) -> float:
        """Squared width d^2 = sigma^2 + y0N^2 of the boundary restriction."""
        return self.sigma**2 + self.y0[-1] ** 2

    def to_dict(self) -> dict:
        return {"sigma": self.sigma, "betas": self.betas.tolist(), "y0": self.y0.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "BubbleParams":
        return cls(sigma=data["sigma"], betas=data["betas"], y0=data["y0"])


@dataclass
class LogLinearSolveResult:
    """Solution family of the log-linear amplitude system.

    ``log_betas_particular`` is the minimum-norm particular solution;
    ``null_basis`` rows are orthonormal kernel directions in log space.
    The reported family is ``particular + coords @ null_basis``.
    """

    log_betas_particular: np.ndarray
    nullity: int
    null_basis: np.ndarray

    def betas(self, coords: np.ndarray | None = None) -> np.ndarray:
        """Amplitudes of the family member selected by kernel coordinates."""
        logb = self.log_betas_particular
        if coords is not None:
            coords = np.atleast_1d(np.asarray(coords, dtype=float))
            if coords.shape != (self.nullity,):
                raise ValueError(f"expected {self.nullity} kernel coordinates, got {coords.shape}")
            logb = logb + coords @ self.null_basis
        return np.exp(logb)


def exponent_product(exponents: np.ndarray, log_values: np.ndarray) -> np.ndarray:
    """Row-wise products prod_j exp(log_values[j])**exponents[i, j], in log space.

    ``log_values`` may be (..., m); the result has the same leading shape.
    """
    return np.exp(log_values @ np.asarray(exponents).T)


def log_profile(log_amps: np.ndarray, q: np.ndarray, N: int) -> np.ndarray:
    """log of amps[i] * q**(-(N-2)/2), the bubble profile in log space; (..., m)."""
    return log_amps - 0.5 * (N - 2) * np.log(q)[..., None]


def solve_betas(
    spec: EllipticSystemSpec, sigma: float, tol_solve: float = 1e-10
) -> LogLinearSolveResult:
    """Solve the log-linear amplitude system for the given length scale.

    The amplitude condition ``log b_i = sum_j A[i,j] log b_j - log(sigma^2 N (N-2))``
    is rewritten as ``(I - A) x = -log(sigma^2 N (N-2)) * ones`` for
    ``x = log betas`` and solved by a rank-revealing SVD.  When ``I - A``
    is singular the minimum-norm particular solution is returned together
    with an orthonormal kernel basis (the solution family).

    Raises
    ------
    NoBubbleParameters
        If the right-hand side has a left-null-space component exceeding
        ``tol_solve``; no amplitude branch exists in that case.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    m = int(spec.m)
    M = np.eye(m) - spec.A
    rhs = -np.log(sigma**2 * spec.N * (spec.N - 2)) * np.ones(m)

    U, s, Vt = np.linalg.svd(M)
    cutoff = RANK_RCOND * s[0] if s[0] > 0 else 0.0
    rank = int(np.sum(s > cutoff))
    coeffs = U.T @ rhs
    if rank > 0:
        particular = Vt[:rank].T @ (coeffs[:rank] / s[:rank])
    else:
        particular = np.zeros(m)
    null_basis = Vt[rank:].copy()

    misfit = float(np.max(np.abs(coeffs[rank:]))) if rank < m else 0.0
    if misfit > tol_solve * max(1.0, float(np.max(np.abs(rhs)))):
        raise NoBubbleParameters(
            f"amplitude system inconsistent: left-null-space misfit {misfit:.3e} "
            f"exceeds tol_solve={tol_solve:.1e}"
        )
    return LogLinearSolveResult(
        log_betas_particular=particular,
        nullity=m - rank,
        null_basis=null_basis,
    )


def compute_y0N(
    spec: EllipticSystemSpec,
    betas: np.ndarray,
    sigma: float,
    tol_param: float = 1e-9,
) -> tuple[float, np.ndarray, float]:
    """Center height implied by each boundary row, with consistency spread.

    Row ``i`` demands ``y0N = sigma^2 N c[i] prod_j betas[j]**(B[i,j]-A[i,j])``.
    Returns the mean over rows, the per-row values, and the maximum
    deviation from the mean.  The mean is never silently used as "the"
    value: a spread above ``tol_param * (1 + |y0N|)`` raises.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if np.any(betas <= 0) or sigma <= 0:
        raise ValueError("betas and sigma must be positive")
    per_row = sigma**2 * spec.N * spec.c * exponent_product(spec.B - spec.A, np.log(betas))
    y0N = float(np.mean(per_row))
    spread = float(np.max(np.abs(per_row - y0N)))
    if spread > tol_param * (1.0 + abs(y0N)):
        raise IncompatibleBoundaryCoefficients(
            f"boundary rows give center heights {per_row.tolist()}; "
            f"spread {spread:.3e} admits no single bubble center"
        )
    return y0N, per_row, spread


def make_bubble_params(
    spec: EllipticSystemSpec,
    sigma: float,
    y0_prime: np.ndarray | None = None,
    kernel_coords: np.ndarray | None = None,
    tol_param: float = 1e-9,
) -> BubbleParams:
    """Assemble a valid family member for the given scale and tangential center."""
    solve = solve_betas(spec, sigma)
    if kernel_coords is None and solve.nullity > 0:
        kernel_coords = np.zeros(solve.nullity)
    betas = solve.betas(kernel_coords)
    y0N, _, _ = compute_y0N(spec, betas, sigma, tol_param=tol_param)
    y0 = np.zeros(spec.N)
    if y0_prime is not None:
        y0_prime = np.asarray(y0_prime, dtype=float)
        if y0_prime.shape != (spec.N - 1,):
            raise ValueError(f"y0_prime must have shape {(spec.N - 1,)}")
        y0[: spec.N - 1] = y0_prime
    y0[-1] = y0N
    return BubbleParams(sigma=sigma, betas=betas, y0=y0)


def _log_values(params: BubbleParams, pts: np.ndarray) -> np.ndarray:
    """log u_i at pts (k, N)."""
    q = params.sigma**2 + np.sum((pts - params.y0) ** 2, axis=-1)
    return log_profile(np.log(params.betas), q, params.N)


def evaluate_bubble(params: BubbleParams, y: np.ndarray) -> np.ndarray:
    """Component values at one point (N,) or a batch (k, N).

    The denominator ``sigma^2 + |y - y0|^2`` never vanishes, so this is
    defined on all of R^N; callers are responsible for staying in the
    closed half-space where the solution property is claimed.
    """
    return np.exp(_log_values(params, np.asarray(y, dtype=float)))


def evaluate_bubble_derivatives(
    params: BubbleParams, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradients (..., m, N) and Laplacians (..., m).

    grad u_i = -(N-2) betas[i] (y - y0) q**(-N/2)
    lap  u_i = -N (N-2) sigma^2 betas[i] q**(-(N+2)/2),   q = sigma^2 + |y - y0|^2.
    """
    y = np.asarray(y, dtype=float)
    N = params.N
    dy = y - params.y0
    q = params.sigma**2 + np.sum(dy**2, axis=-1)
    logb = np.log(params.betas)
    grad_factor = (N - 2) * np.exp(logb - 0.5 * N * np.log(q)[..., None])
    gradients = -grad_factor[..., :, None] * dy[..., None, :]
    laplacians = -N * (N - 2) * params.sigma**2 * np.exp(
        logb - 0.5 * (N + 2) * np.log(q)[..., None]
    )
    return gradients, laplacians


def _interior_terms(spec: EllipticSystemSpec, params: BubbleParams, y: np.ndarray):
    """The two interior terms: exact lap(u_i) and prod_j u_j**A[i,j]."""
    y = np.asarray(y, dtype=float)
    _, lap = evaluate_bubble_derivatives(params, y)
    return lap, exponent_product(spec.A, _log_values(params, y))


def _boundary_terms(spec: EllipticSystemSpec, params: BubbleParams, yprime: np.ndarray):
    """The two boundary terms: exact d(u_i)/d(y_N) and c[i] prod_j u_j**B[i,j]."""
    yprime = np.asarray(yprime, dtype=float)
    grads, _ = evaluate_bubble_derivatives(params, yprime)
    return grads[..., :, -1], spec.c * exponent_product(spec.B, _log_values(params, yprime))


def interior_residual_analytic(
    spec: EllipticSystemSpec, params: BubbleParams, y: np.ndarray
) -> np.ndarray:
    """lap(u_i) + prod_j u_j**A[i,j] with exact Laplacians; (..., m)."""
    lap, prod = _interior_terms(spec, params, y)
    return lap + prod


def interior_residual_relative(
    spec: EllipticSystemSpec, params: BubbleParams, y: np.ndarray
) -> np.ndarray:
    """Interior residual scaled by |lap(u_i)| (never zero for a bubble)."""
    lap, prod = _interior_terms(spec, params, y)
    return np.abs(lap + prod) / np.abs(lap)


def boundary_residual_analytic(
    spec: EllipticSystemSpec, params: BubbleParams, yprime: np.ndarray
) -> np.ndarray:
    """d(u_i)/d(y_N) - c[i] prod_j u_j**B[i,j] at boundary points (..., m)."""
    dN, flux = _boundary_terms(spec, params, yprime)
    return dN - flux


def boundary_residual_relative(
    spec: EllipticSystemSpec, params: BubbleParams, yprime: np.ndarray
) -> np.ndarray:
    """Boundary residual scaled by the larger of its two terms (0 when both vanish)."""
    dN, flux = _boundary_terms(spec, params, yprime)
    scale = np.maximum(np.abs(dN), np.abs(flux))
    res = np.abs(dN - flux)
    out = np.zeros_like(res)
    np.divide(res, scale, out=out, where=scale > 0)
    return out


def bubble_field(params: BubbleParams):
    """Field evaluator closure: points (k, N) -> values (k, m). Pure."""

    def field(points: np.ndarray) -> np.ndarray:
        return evaluate_bubble(params, points)

    return field


@dataclass
class BoundaryProfileFit:
    """Result of the shared-center boundary profile fit."""

    amplitudes: np.ndarray
    d: float
    xbar: np.ndarray
    rms: float
    iterations: int


def _profile_initial_guess(X, logu, N):
    """Data-driven start: peak-weighted centroid plus a two-point width estimate."""
    u0 = np.exp(logu[:, 0])
    w = u0 ** (2.0 / (N - 2))
    xbar = (w[:, None] * X).sum(axis=0) / w.sum()
    rho2 = np.sum((X - xbar) ** 2, axis=1)
    i_near, i_far = int(np.argmin(rho2)), int(np.argmax(rho2))
    ratio = (u0[i_near] / u0[i_far]) ** (2.0 / (N - 2))
    if ratio > 1 + 1e-12:
        d2 = (rho2[i_far] - ratio * rho2[i_near]) / (ratio - 1.0)
    else:
        d2 = float(np.median(rho2))
    if not np.isfinite(d2) or d2 <= 0:
        d2 = float(np.median(rho2)) + 1e-6
    # amplitudes that put each sample exactly on the profile, averaged
    log_amp = np.mean(logu - log_profile(0.0, d2 + rho2, N), axis=0)
    return log_amp, 0.5 * np.log(d2), xbar


def fit_boundary_profile(
    points: np.ndarray,
    values: np.ndarray,
    initial_guess: tuple[np.ndarray, float, np.ndarray] | None = None,
    max_iter: int = 200,
    step_tol: float = 1e-12,
) -> BoundaryProfileFit:
    """Fit ``u_i(x) = amp_i (d^2 + |x - xbar|^2)**(-(N-2)/2)`` with shared (d, xbar).

    Damped Gauss-Newton on the log-space misfit, which makes ``rms`` a
    root-mean-square *relative* misfit for small residuals.  ``points``
    are boundary points (k, N) with vanishing last coordinate; ``values``
    are positive samples (k, m).  ``initial_guess`` is (amplitudes, d,
    xbar) with ``xbar`` a boundary point.

    Raises
    ------
    FitDiverged
        After ``max_iter`` iterations without the step norm reaching
        ``step_tol``.
    """
    X_full = np.atleast_2d(np.asarray(points, dtype=float))
    U = np.atleast_2d(np.asarray(values, dtype=float))
    N = X_full.shape[1]
    k, m = U.shape
    if k != X_full.shape[0]:
        raise ValueError("points and values must have the same length")
    if np.max(np.abs(X_full[:, -1])) != 0.0:
        raise ValueError("points must lie on the boundary hyperplane")
    if np.any(U <= 0):
        raise ValueError("values must be positive")
    if np.unique(X_full, axis=0).shape[0] < N + 1:
        raise ValueError(f"need at least {N + 1} distinct sample points")

    X = X_full[:, :-1]
    logu = np.log(U)

    if initial_guess is not None:
        amp0, d0, xbar0 = initial_guess
        theta = np.concatenate(
            [np.log(np.atleast_1d(amp0)), [np.log(d0)], np.asarray(xbar0, dtype=float)[: N - 1]]
        )
    else:
        log_amp, log_d, xbar = _profile_initial_guess(X, logu, N)
        theta = np.concatenate([log_amp, [log_d], xbar])

    def residual_jacobian(theta):
        log_amp = theta[:m]
        d2 = np.exp(2.0 * theta[m])
        xbar = theta[m + 1 :]
        diff = X - xbar
        q = d2 + np.sum(diff**2, axis=1)
        model = log_profile(log_amp, q, N)
        r = (model - logu).ravel()
        J = np.zeros((k * m, m + N))
        rows = np.arange(k * m)
        comp = rows % m
        samp = rows // m
        J[rows, comp] = 1.0
        J[rows, m] = -(N - 2) * d2 / q[samp]
        J[rows, m + 1 :] = (N - 2) * diff[samp] / q[samp, None]
        return r, J

    def cost(theta):
        # Hopeless trial steps can overflow; treat them as infinitely bad.
        with np.errstate(over="ignore", invalid="ignore"):
            r, _ = residual_jacobian(theta)
            value = 0.5 * float(r @ r)
        return value if np.isfinite(value) else np.inf

    current = cost(theta)
    for iteration in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            r, J = residual_jacobian(theta)
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        scale = 1.0
        while scale > 1e-12:
            trial = theta + scale * step
            if cost(trial) <= current:
                break
            scale *= 0.5
        theta = theta + scale * step
        current = cost(theta)
        if np.linalg.norm(scale * step) <= step_tol:
            r, _ = residual_jacobian(theta)
            xbar = np.zeros(N)
            xbar[: N - 1] = theta[m + 1 :]
            return BoundaryProfileFit(
                amplitudes=np.exp(theta[:m]),
                d=float(np.exp(theta[m])),
                xbar=xbar,
                rms=float(np.sqrt(np.mean(r**2))),
                iterations=iteration,
            )
    raise FitDiverged(f"no step below {step_tol:.1e} within {max_iter} iterations")


def load_params(path: str | Path) -> BubbleParams:
    """Read parameters from JSON with keys sigma, betas, y0 (extra keys ignored)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return BubbleParams.from_dict(data)
