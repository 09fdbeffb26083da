"""The classified solution family: parameter solve, evaluation, analytic residuals.

Every positive solution of the system is a "bubble"

    u_i(y) = betas[i] / (sigma**2 + |y - y0|**2)**((N-2)/2),

where the amplitudes solve a log-linear system tied to ``sigma`` and the
center height ``y0[N-1]`` is pinned by the boundary coefficients.  This
module solves for those parameters, evaluates the bubbles and their exact
derivatives, and computes interior/boundary residuals analytically from
them and the spec's source and flux.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IncompatibleBoundaryCoefficients, MalformedSpec, NoBubbleParameters
from .exponent_system import EllipticSystemSpec, json_numbers, load_json

__all__ = [
    "BubbleParams",
    "LogLinearSolveResult",
    "solve_betas",
    "compute_y0N",
    "make_bubble_params",
    "evaluate_bubble",
    "evaluate_bubble_derivatives",
    "interior_residual_relative",
    "boundary_residual_relative",
    "lattice_values",
    "bubble_field",
    "field_values",
    "log_profile",
    "squared_distance",
    "load_params",
]

# Singular values below RANK_RCOND * (largest singular value) count as zero.
# Exponent matrices are spec-exact but stored as floats.
RANK_RCOND = 1e-10

# A left-null-space misfit above this times max(1, |rhs|) makes the
# amplitude system inconsistent.
TOL_SOLVE = 1e-10

# A spread of the boundary rows' center heights above this times the largest
# |height| admits no single bubble center.
TOL_HEIGHT = 1e-9


@dataclass
class BubbleParams:
    """Parameters (sigma, betas, y0) of one member of the classified family.

    Its boundary restriction is a bubble of width ``d`` = sqrt(``width2``) > 0 centered
    at ``xbar`` = (y0', 0).  Every critical sphere passes through ``P`` = xbar - d e_N,
    the pole of the half-space-to-ball inversion, and ``Q`` = xbar + d e_N, the ball's center.
    """

    sigma: float
    betas: np.ndarray
    y0: np.ndarray

    def __post_init__(self):
        self.sigma = float(self.sigma)
        self.betas = np.atleast_1d(np.asarray(self.betas, dtype=float))
        self.y0 = np.asarray(self.y0, dtype=float)
        if not 0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")
        finite = np.isfinite(self.betas).all() and np.isfinite(self.y0).all()
        if not (finite and np.all(self.betas > 0)):
            raise ValueError("betas must be positive and finite, y0 finite")
        if self.y0.ndim != 1 or not self.y0.size:
            raise MalformedSpec(f"y0 must be a non-empty 1-d list, got shape {self.y0.shape}")
        self.d = float(np.sqrt(self.width2))
        if not self.d > 0:
            raise ValueError(f"the boundary width d = sqrt(sigma^2 + y0N^2) must be positive; "
                             f"it is 0 at sigma = {self.sigma!r}, y0N = {float(self.y0[-1])!r}")
        if not _sigma_in_range(self.sigma, self.N):
            raise ValueError(f"sigma {self.sigma!r} is out of range: sigma^2 and sigma^2 N (N-2) "
                             "must be finite normal floats")
        self.xbar = np.append(self.y0[:-1], 0.0)
        self.P = np.append(self.y0[:-1], -self.d)
        self.Q = np.append(self.y0[:-1], self.d)

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
        """Build from parsed JSON; sigma is one number, betas and y0 hold numbers only."""
        try:
            sigma, betas, y0 = (json_numbers(data[key], key) for key in ("sigma", "betas", "y0"))
        except (KeyError, TypeError, OverflowError) as exc:  # no such key, no object, a huge int
            raise MalformedSpec(f"cannot build parameters: {exc}") from exc
        if sigma.ndim:
            raise MalformedSpec(f"sigma must be one number, got {data['sigma']!r}")
        return cls(sigma, betas, y0)


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


def log_profile(log_amps: np.ndarray, q: np.ndarray, N: int, out=None) -> np.ndarray:
    """log of amps[i] * q**(-(N-2)/2), the bubble profile in log space; (..., m).

    The result is the (..., m) view of component-major (m, ...) memory, ``out`` if
    given; then the logarithm is taken in place of ``q``.
    """
    log_q = np.log(q, out=None if out is None else q)
    log_q *= 0.5 * (N - 2)
    log_amps = np.reshape(log_amps, (-1,) + (1,) * np.ndim(q))
    return np.moveaxis(np.subtract(log_amps, log_q, out=out), 0, -1)


def squared_distance(pts: np.ndarray, c: np.ndarray) -> np.ndarray:
    """|pts - c|^2 over the last axis, (...,), adding the squares axis by axis in order.

    ``c`` is one point (N,) or a batch that broadcasts against ``pts``.
    For a batch (..., k, N) with N < 8 this is bit for bit
    ``np.sum((pts - c)**2, axis=-1)`` (numpy sums a short inner axis
    sequentially) and its square root is ``np.linalg.norm(pts - c, axis=-1)``,
    at a fraction of their cost.  numpy reduces a lone point (N,) in
    another order, so there the two can differ in the last ulp.
    """
    pts = np.asarray(pts, dtype=float)
    c = np.asarray(c, dtype=float)
    total = (pts[..., 0] - c[..., 0]) ** 2
    for a in range(1, pts.shape[-1]):
        total += (pts[..., a] - c[..., a]) ** 2
    return total


def solve_betas(spec: EllipticSystemSpec, sigma: float) -> LogLinearSolveResult:
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
        ``TOL_SOLVE``; no amplitude branch exists in that case.
    """
    if not 0 < sigma < np.inf:
        raise ValueError("sigma must be positive and finite")
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
    if misfit > TOL_SOLVE * max(1.0, float(np.max(np.abs(rhs)))):
        raise NoBubbleParameters(
            f"amplitude system inconsistent: left-null-space misfit {misfit:.3e} "
            f"exceeds tol_solve={TOL_SOLVE:.1e}"
        )
    return LogLinearSolveResult(
        log_betas_particular=particular,
        nullity=m - rank,
        null_basis=null_basis,
    )


def compute_y0N(
    spec: EllipticSystemSpec, betas: np.ndarray, sigma: float
) -> tuple[float, np.ndarray, float]:
    """Center height implied by each boundary row, with consistency spread.

    Row ``i`` demands ``y0N = sigma^2 N c[i] prod_j betas[j]**(B[i,j]-A[i,j])``.
    Returns the mean over rows, the per-row values, and the maximum
    deviation from the mean.  The mean is never silently used as "the"
    value: a spread above ``TOL_HEIGHT * max_i |y0N_i|`` raises, a bound
    relative to the heights' own scale, so the verdict holds at every sigma.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if np.any(betas <= 0) or not 0 < sigma < np.inf:
        raise ValueError("betas and sigma must be positive")
    per_row = sigma**2 * spec.N * spec.c * np.exp(np.log(betas) @ (spec.B - spec.A).T)
    y0N = float(np.mean(per_row))
    spread = float(np.max(np.abs(per_row - y0N)))
    if spread > TOL_HEIGHT * float(np.max(np.abs(per_row))):
        raise IncompatibleBoundaryCoefficients(
            f"boundary rows give center heights {per_row.tolist()}; "
            f"spread {spread:.3e} admits no single bubble center"
        )
    return y0N, per_row, spread


def _sigma_in_range(sigma: float, N: int) -> bool:
    """sigma^2 and sigma^2 N (N-2) are finite normal floats."""
    return sigma * sigma >= np.finfo(float).tiny and sigma * sigma * N * (N - 2) < np.inf


def make_bubble_params(spec: EllipticSystemSpec, sigma: float) -> BubbleParams:
    """The family member of scale sigma centered above the origin; ValueError if out of range.

    Of a family of amplitudes (nullity > 0) it takes the minimum-norm log amplitudes, and
    its boundary rows must agree on one center height (:func:`compute_y0N`).
    """
    tiny = np.finfo(float).tiny
    with np.errstate(all="ignore"):  # a scale out of range is the error below, not a warning
        if _sigma_in_range(sigma, spec.N):
            betas = solve_betas(spec, sigma).betas()
            if np.all((betas >= tiny) & (betas < np.inf)):
                y0N, rows, _ = compute_y0N(spec, betas, sigma)
                if np.all(np.isfinite(rows) & ((rows != 0) == (spec.c != 0))):
                    return BubbleParams(sigma, betas, np.append(np.zeros(spec.N - 1), y0N))
    raise ValueError(f"sigma {sigma!r} is out of range: sigma^2, sigma^2 N (N-2) and the betas "
                     "must be finite normal floats, the center heights finite, 0 only where c is")


def _log_values(params: BubbleParams, pts: np.ndarray) -> np.ndarray:
    """log u_i at pts (k, N)."""
    q = params.sigma**2 + squared_distance(pts, params.y0)
    return log_profile(np.log(params.betas), q, params.N)


def evaluate_bubble(params: BubbleParams, y: np.ndarray) -> np.ndarray:
    """Component values (k, m) at a batch of points y (k, N).

    The denominator ``sigma^2 + |y - y0|^2`` never vanishes, so this is
    defined on all of R^N; callers are responsible for staying in the
    closed half-space where the solution property is claimed.
    """
    log_u = _log_values(params, np.asarray(y, dtype=float))
    return np.exp(log_u, out=log_u)


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
    q = params.sigma**2 + squared_distance(y, params.y0)
    logb = np.log(params.betas)
    grad_factor = (N - 2) * np.exp(log_profile(logb, q, N + 2))
    gradients = -grad_factor[..., :, None] * dy[..., None, :]
    laplacians = -N * (N - 2) * params.sigma**2 * np.exp(log_profile(logb, q, N + 4))
    return gradients, laplacians


def interior_residual_relative(
    spec: EllipticSystemSpec, params: BubbleParams, y: np.ndarray
) -> np.ndarray:
    """|lap(u_i) + prod_j u_j**A[i,j]| scaled by |lap(u_i)| (never zero for a bubble)."""
    y = np.asarray(y, dtype=float)
    _, lap = evaluate_bubble_derivatives(params, y)
    return np.abs(lap + spec.source(_log_values(params, y))) / np.abs(lap)


def boundary_residual_relative(
    spec: EllipticSystemSpec, params: BubbleParams, yprime: np.ndarray
) -> np.ndarray:
    """|d(u_i)/d(y_N) - c[i] prod_j u_j**B[i,j]| scaled by the larger term (0 when both vanish)."""
    yprime = np.asarray(yprime, dtype=float)
    grads, _ = evaluate_bubble_derivatives(params, yprime)
    dN = grads[..., :, -1]
    flux = spec.flux(_log_values(params, yprime))
    scale = np.maximum(np.abs(dN), np.abs(flux))
    res = np.abs(dN - flux)
    out = np.zeros_like(res)
    np.divide(res, scale, out=out, where=scale > 0)
    return out


def lattice_values(params: BubbleParams, coords, shifts) -> np.ndarray:
    """Values (R, b, m) at b points moved by R ``shifts``, evaluate_bubble's to the bit.

    ``coords`` are N coordinates, a lattice's 1-d axes shaped to broadcast or a point set's (b,)
    columns; shift (a, t) adds t to coordinate a.  q = sigma^2 + |y - y0|^2 adds the squares in
    squared_distance's order, sigma^2 last, and the values are (m, R, b) memory.  Two builders of q
    do the same IEEE operations, each the faster on its shape: a lattice's squares are small, so one
    broadcast reduce adds them for every row at once and its partial sums over the leading axes stay
    small; a point set's are full columns, so each is squared once per distinct shift along it, and
    each row adds its own.
    """
    sub = np.broadcast_shapes(*(x.shape for x in coords))
    R, b = len(shifts), math.prod(sub)
    q, out = np.empty((R, *sub)), np.empty((params.m, R, *sub))
    along = [[t if c == a else 0.0 for c, t in shifts] for a in range(params.N)]  # each row's move
    if len(sub) > 1:
        terms = [(x + np.array(t).reshape((-1,) + (1,) * len(sub)) - y0) ** 2
                 for x, t, y0 in zip(coords, along, params.y0)]
        np.add(functools.reduce(np.add, terms[:-1]), terms[-1], out=q)
    else:
        squares = [{t: (x + t - y0 if t else x - y0) ** 2 for t in set(ts)}
                   for x, ts, y0 in zip(coords, along, params.y0)]
        for row, first, second, *rest in zip(q, *along):
            np.add(squares[0][first], squares[1][second], out=row)
            for square, t in zip(squares[2:], rest):
                row += square[t]
    q += params.sigma**2
    log_profile(np.log(params.betas), q, params.N, out=out)
    return np.exp(out, out=out).reshape(params.m, R, b).transpose(1, 2, 0)


def bubble_field(params: BubbleParams):
    """Field evaluator (k, N) -> (k, m) with ``lattice_values``. Pure."""

    def field(points: np.ndarray) -> np.ndarray:
        return evaluate_bubble(params, points)

    field.lattice_values = lambda *args: lattice_values(params, *args)
    return field


def field_values(u, points: np.ndarray) -> np.ndarray:
    """Values of the field ``u`` at points (k, N) as (k, m); a scalar field's (k,) is m = 1."""
    return np.asarray(u(points), dtype=float).reshape(points.shape[0], -1)


def load_params(path: str | Path) -> BubbleParams:
    """Read parameters from JSON with keys sigma, betas, y0 (extra keys ignored)."""
    return BubbleParams.from_dict(load_json(path))
