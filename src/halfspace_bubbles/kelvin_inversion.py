"""Sphere inversions of half-space fields and the moving-spheres sweep.

For a center ``x`` and a radius ``lam``, the inversion of a field u is

    u_inv(y) = (lam / |y - x|)**(N-2) * u(x + lam^2 (y - x) / |y - x|^2),

which maps solutions of the system to solutions away from ``x`` when
``x`` lies on the boundary hyperplane.  The difference w = u - u_inv
vanishes identically at one critical radius for members of the classified
family; locating that radius numerically and checking the identity is the
core of this module.  The same inversion, about a pole below the boundary,
is the half-space-to-ball map of :mod:`halfspace_bubbles.conformal_ball`.

Sweeps take a caller-supplied field evaluator.  Closed-form fields are
exact; for gridded data the caller must interpolate at inverted points
and owns that error budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bubble_family import BubbleParams, bubble_field, evaluate_bubble
from .errors import BadBracket, SingularPoint
from .exponent_system import EllipticSystemSpec

__all__ = [
    "SphereInversion",
    "SweepResult",
    "DecayReport",
    "kelvin_point",
    "kelvin_transform_u",
    "difference_w",
    "min_w",
    "critical_radius",
    "critical_lambda_exact",
    "sweep_moving_spheres",
    "verify_symmetry_identity",
    "decay_check",
]

# Points closer to the center than this are treated as the center itself.
SINGULAR_DISTANCE = 1e-300

# Relative width at which the critical-radius bisection stops.
BISECT_RELATIVE_WIDTH = 1e-10


@dataclass
class SphereInversion:
    """One inversion sphere: any center and a positive radius."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float)
        self.radius = float(self.radius)
        if self.radius <= 0:
            raise ValueError("inversion radius must be positive")


def _inverted(inv: SphereInversion, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Image of y and |y - center|^2."""
    dy = y - inv.center
    dist = np.linalg.norm(dy, axis=-1)
    if np.any(dist < SINGULAR_DISTANCE):
        raise SingularPoint("evaluation point coincides with the inversion center")
    # the squared norm, not a sum of squares: the transported-field reports,
    # whose finest ball-residual step sits at the rounding floor, rest on it
    n2 = dist**2
    return inv.center + inv.radius**2 * dy / n2[..., None], n2


def kelvin_point(inv: SphereInversion, y: np.ndarray) -> np.ndarray:
    """Image of y under inversion in the sphere; an involution, fixed on the sphere."""
    return _inverted(inv, np.asarray(y, dtype=float))[0]


def kelvin_transform_u(u, inv: SphereInversion, y: np.ndarray) -> np.ndarray:
    """Transformed field values at y (single point (N,) or batch (k, N))."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    pts = np.atleast_2d(y)
    N = pts.shape[1]
    inner, n2 = _inverted(inv, pts)
    factor = (inv.radius**2 / n2) ** (0.5 * (N - 2))
    vals = np.asarray(u(inner), dtype=float) * factor[:, None]
    return vals[0] if single else vals


def difference_w(u, inv: SphereInversion, y: np.ndarray) -> np.ndarray:
    """w = u - (transformed u); zero on the inversion sphere by construction."""
    y = np.asarray(y, dtype=float)
    pts = np.atleast_2d(y)
    w = np.asarray(u(pts), dtype=float) - kelvin_transform_u(u, inv, pts)
    return w[0] if y.ndim == 1 else w


def min_w(u, x: np.ndarray, lam: float, samples: np.ndarray, dist: np.ndarray):
    """Per-component min of w about (x, lam) over the samples with ``dist`` >= lam.

    ``dist`` holds the sample distances from x.  Returns the minima (m,)
    and the samples attaining them (m, N).
    """
    outside = samples[dist >= lam]
    w = difference_w(u, SphereInversion(x, lam), outside)
    return w.min(axis=0), outside[np.argmin(w, axis=0)]


def critical_radius(d2: float, xbar: np.ndarray, x: np.ndarray) -> float:
    """Critical inversion radius sqrt(d^2 + |x - xbar|^2) about boundary center x.

    ``d2`` is the squared width of a boundary profile centered at ``xbar``;
    the critical sphere passes through xbar -+ d e_N.
    """
    return float(np.sqrt(d2 + np.sum((np.asarray(x, dtype=float) - xbar) ** 2)))


def critical_lambda_exact(params: BubbleParams, x: np.ndarray) -> float:
    """Critical inversion radius of a family member about boundary center x.

    The boundary restriction of a bubble has width d with d^2 = sigma^2 +
    y0N^2 and tangential center xbar = (y0', 0).
    """
    x = np.asarray(x, dtype=float)
    if x[-1] != 0.0:
        raise ValueError("center must lie on the boundary hyperplane")
    return critical_radius(params.width2, params.y0[:-1], x[:-1])


@dataclass
class SweepResult:
    """Outcome of a moving-spheres radius sweep."""

    lambda_grid: np.ndarray
    min_w: np.ndarray  # (n_lambda, m)
    argmin_points: np.ndarray  # (n_lambda, m, N)
    lambda_critical_numeric: float | None
    bracket: tuple[float, float] | None


def sweep_moving_spheres(
    spec: EllipticSystemSpec,
    u,
    x: np.ndarray,
    sample_set: np.ndarray,
    lambda_lo: float,
    lambda_hi: float,
    n_lambda: int = 33,
    tol_w: float | None = None,
) -> SweepResult:
    """Track min w over a geometric radius grid and bisect its sign change.

    At each radius only samples with |y - x| >= radius participate.  The
    minimum is positive below the critical radius and negative above it,
    so its first sign change brackets the critical radius; bisection then
    narrows the bracket to relative width 1e-10.  Bisection is used on
    purpose: the minimum can be extremely flat near the root.

    ``tol_w`` defaults to 1e-9 times the largest sampled field value
    (absolute tolerances are meaningless across scales).

    Raises
    ------
    BadBracket
        If min w is already below -tol_w at ``lambda_lo``.
    ValueError
        If ``x`` is off the boundary hyperplane, where inversions do not
        preserve the boundary condition.
    """
    x = np.asarray(x, dtype=float)
    if x[-1] != 0.0:
        raise ValueError("inversion center must lie on the boundary hyperplane exactly")
    samples = np.atleast_2d(np.asarray(sample_set, dtype=float))
    dist = np.linalg.norm(samples - x, axis=1)
    if np.min(dist) < lambda_lo:
        raise ValueError("all samples must lie outside the ball of radius lambda_lo about x")
    if not (0 < lambda_lo < lambda_hi):
        raise ValueError("need 0 < lambda_lo < lambda_hi")

    if tol_w is None:
        tol_w = 1e-9 * float(np.max(np.asarray(u(samples), dtype=float)))

    grid = np.geomspace(lambda_lo, lambda_hi, n_lambda)
    mins = np.empty((n_lambda, spec.m))
    argmins = np.empty((n_lambda, spec.m, samples.shape[1]))
    for k, lam in enumerate(grid):
        mins[k], argmins[k] = min_w(u, x, float(lam), samples, dist)

    overall = mins.min(axis=1)
    if overall[0] < -tol_w:
        raise BadBracket(
            f"min w = {overall[0]:.3e} < -tol_w at lambda_lo={lambda_lo}; start below the "
            "critical radius"
        )

    negative = np.nonzero(overall < 0.0)[0]
    if negative.size == 0:
        return SweepResult(grid, mins, argmins, None, None)
    k = int(negative[0])
    if k == 0:
        raise BadBracket("sign change not bracketed: already negative at lambda_lo")

    lo, hi = float(grid[k - 1]), float(grid[k])
    while (hi - lo) > BISECT_RELATIVE_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if float(min_w(u, x, mid, samples, dist)[0].min()) < 0.0:
            hi = mid
        else:
            lo = mid
    return SweepResult(grid, mins, argmins, 0.5 * (lo + hi), (lo, hi))


def verify_symmetry_identity(
    params: BubbleParams, x: np.ndarray, sample_set: np.ndarray
) -> np.ndarray:
    """Per-component sup of |w| / u at the critical radius over the samples.

    For valid parameters this is rounding noise; the field coincides with
    its own inversion everywhere, not just asymptotically.
    """
    x = np.asarray(x, dtype=float)
    samples = np.atleast_2d(np.asarray(sample_set, dtype=float))
    if np.min(np.linalg.norm(samples - x, axis=1)) < 1e-6:
        raise ValueError("samples must keep distance >= 1e-6 from the center")
    lam = critical_lambda_exact(params, x)
    w = difference_w(bubble_field(params), SphereInversion(x, lam), samples)
    uv = evaluate_bubble(params, samples)
    return np.max(np.abs(w) / uv, axis=0)


@dataclass
class DecayReport:
    """Far-field amplitude estimates |y|^(N-2) u_i(y) along rays."""

    radii: np.ndarray
    directions: np.ndarray
    estimates: np.ndarray  # (n_radii, n_dirs, m)
    errors: np.ndarray  # relative to the expected amplitudes

    @property
    def final(self) -> np.ndarray:
        """Estimates at the largest radius, (n_dirs, m)."""
        return self.estimates[-1]


def decay_check(
    u, betas_expected: np.ndarray, directions: np.ndarray, radii: np.ndarray
) -> DecayReport:
    """Estimate the far-field amplitudes along rays and compare to expectations.

    The first-order remainder makes the estimate error O(1/radius); callers
    should use radii well past the profile width.
    """
    betas_expected = np.atleast_1d(np.asarray(betas_expected, dtype=float))
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    radii = np.asarray(radii, dtype=float)
    if radii.size > 1 and np.any(np.diff(radii) <= 0):
        raise ValueError("radii must be increasing")
    N = directions.shape[1]
    estimates = np.empty((radii.size, directions.shape[0], betas_expected.size))
    for k, R in enumerate(radii):
        pts = R * directions
        estimates[k] = np.asarray(u(pts), dtype=float) * R ** (N - 2)
    errors = np.abs(estimates - betas_expected) / betas_expected
    return DecayReport(radii=radii, directions=directions, estimates=estimates, errors=errors)
