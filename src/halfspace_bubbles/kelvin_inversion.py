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
from functools import partial

import numpy as np

from .bubble_family import BubbleParams, evaluate_bubble, field_values, squared_distance
from .errors import BadBracket, SingularPoint

__all__ = [
    "SweepResult",
    "CenteredSamples",
    "center_samples",
    "kelvin_point",
    "kelvin_transform_u",
    "difference_w",
    "min_w",
    "critical_radius",
    "critical_lambda_exact",
    "sweep_moving_spheres",
    "verify_symmetry_identity",
]

# Relative width at which the critical-radius bisection stops.
BISECT_RELATIVE_WIDTH = 1e-10

# The symmetry check keeps its samples this many critical radii from x.
SYMMETRY_MIN_DISTANCE = 1e-6


def _kelvin(center, radius: float, dy: np.ndarray, n2: np.ndarray):
    """Images center + r^2 dy / n2 and Kelvin factors (r^2 / n2)**((N-2)/2), r = radius.

    ``dy`` (..., N) are offsets from the center, ``n2`` (...) their squared norms, and the
    images (..., N) views of (N, ...) memory.  The radius must be positive; a squared norm
    below the smallest normal float (which would cost the image its digits) is the center.
    """
    if not radius > 0:
        raise ValueError("inversion radius must be positive")
    if np.any(n2 < np.finfo(float).tiny):
        raise SingularPoint("evaluation point coincides with the inversion center")
    r2 = radius**2
    images = np.multiply(r2, dy.T, order="C")
    images /= n2.T
    images += np.reshape(center, (-1,) + (1,) * (images.ndim - 1))
    return images.T, (r2 / n2) ** (0.5 * (dy.shape[-1] - 2))


def _offsets(center: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y - center (a view of axis-major memory), |y - center| and |y - center|^2."""
    dy = np.subtract(y.T, np.reshape(center, (-1,) + (1,) * (y.ndim - 1)), order="C")
    dist = np.sqrt(squared_distance(y, center))
    # the squared norm, not a sum of squares: the transported-field reports,
    # whose finest ball-residual step sits at the rounding floor, rest on it
    return dy.T, dist, dist**2


def kelvin_point(center: np.ndarray, radius: float, y: np.ndarray) -> np.ndarray:
    """Images (k, N) of points y (k, N) in the sphere (center, radius); an involution."""
    dy, _, n2 = _offsets(center, np.asarray(y, dtype=float))
    return _kelvin(center, radius, dy, n2)[0]


def kelvin_transform_u(u, center: np.ndarray, radius: float, y: np.ndarray) -> np.ndarray:
    """Transformed field values (k, m) at points y (k, N)."""
    dy, _, n2 = _offsets(center, np.asarray(y, dtype=float))
    inner, factor = _kelvin(center, radius, dy, n2)
    return field_values(u, inner) * factor[:, None]


def difference_w(u, center: np.ndarray, radius: float, y: np.ndarray) -> np.ndarray:
    """w = u - (transformed u), (k, m) at points y (k, N); zero on the inversion sphere."""
    y = np.asarray(y, dtype=float)
    return field_values(u, y) - kelvin_transform_u(u, center, radius, y)


@dataclass
class CenteredSamples:
    """A sample set about a center x, held in order of distance from x.

    Built once per sample set by :func:`center_samples`, with the offsets
    and squared distances every inversion about x needs.  The samples at
    distance >= a radius are then a suffix of the sorted arrays, and each
    radius of a sweep evaluates the field only at their inverted points.
    """

    x: np.ndarray
    points: np.ndarray  # (k, N), in the caller's order
    order: np.ndarray  # (k,), caller's index of each sample in distance order
    dist: np.ndarray  # (k,), |points - x|, ascending
    values: np.ndarray  # (k, m), u at the samples, in distance order; a view of (m, k) memory
    dy: np.ndarray  # (k, N), samples - x, in distance order; a view of (N, k) memory
    n2: np.ndarray  # (k,), dist**2


def center_samples(u, x: np.ndarray, sample_set: np.ndarray) -> CenteredSamples:
    """Distances from x and values of the field ``u`` at the samples (k, N)."""
    x = np.asarray(x, dtype=float)
    points = np.atleast_2d(np.asarray(sample_set, dtype=float))
    dy, dist, n2 = _offsets(x, points)
    order = np.argsort(dist, kind="stable")
    values, dy = (np.take(a.T, order, axis=1).T for a in (field_values(u, points), dy))
    return CenteredSamples(x, points, order, dist[order], values, dy, n2[order])


def _w_outside(u, samples: CenteredSamples, lam: float) -> tuple[np.ndarray, int]:
    """w about (samples.x, lam) at the samples with |y - x| >= lam, in distance order.

    Returns w (m, k'), a contiguous row per component, and the sorted index of the first
    of those samples.  The arithmetic is :func:`difference_w`'s, so w is the same to the bit.
    """
    first = int(np.searchsorted(samples.dist, lam))
    inner, factor = _kelvin(samples.x, lam, samples.dy[first:], samples.n2[first:])
    return samples.values.T[:, first:] - field_values(u, inner).T * factor, first


def min_w(u, samples: CenteredSamples, lam: float):
    """Per-component min of w about (samples.x, lam) over the samples at distance >= lam.

    Returns the minima (m,) and the samples attaining them (m, N).  Of
    tied samples the first in the caller's order is reported.
    """
    w, first = _w_outside(u, samples, lam)
    mins = w.min(axis=1)
    tied = np.where(w == mins[:, None], samples.order[first:], len(samples.order))
    return mins, samples.points[tied.min(axis=1)]


def critical_radius(d2: float, xbar: np.ndarray, x: np.ndarray) -> float:
    """Critical inversion radius sqrt(d^2 + |x - xbar|^2) about boundary center x.

    ``d2`` is the squared width of a boundary profile centered at ``xbar``;
    the critical sphere passes through xbar -+ d e_N.
    """
    return float(np.sqrt(d2 + squared_distance(x, xbar)))


def critical_lambda_exact(params: BubbleParams, x: np.ndarray) -> float:
    """Critical inversion radius of a family member about boundary center x.

    The boundary restriction of a bubble has width d with d^2 = sigma^2 +
    y0N^2 and center xbar = (y0', 0).
    """
    x = np.asarray(x, dtype=float)
    if x[-1] != 0.0:
        raise ValueError("center must lie on the boundary hyperplane")
    return critical_radius(params.width2, params.xbar, x)


@dataclass
class SweepResult:
    """Outcome of a moving-spheres radius sweep."""

    lambda_grid: np.ndarray
    min_w: np.ndarray  # (n_lambda, m)
    argmin_points: np.ndarray  # (n_lambda, m, N)
    lambda_critical_numeric: float | None
    bracket: tuple[float, float] | None


def sweep_moving_spheres(
    u,
    samples: CenteredSamples,
    lambda_lo: float,
    lambda_hi: float,
    n_lambda: int,
) -> SweepResult:
    """Track min w about ``samples.x`` over a geometric radius grid and bisect its sign change.

    ``samples`` holds the field ``u`` at the sample points, from
    :func:`center_samples`.  At each radius only samples with
    |y - x| >= radius participate.  The minimum is positive below the
    critical radius and negative above it, so its first sign change
    brackets the critical radius; bisection then narrows the bracket to
    relative width 1e-10.  Bisection is used on purpose: the minimum can
    be extremely flat near the root.

    Raises
    ------
    BadBracket
        If min w at ``lambda_lo`` is already negative: the sweep starts past
        the critical radius.
    ValueError
        If ``samples.x`` is off the boundary hyperplane, where inversions
        do not preserve the boundary condition, or the radii reach past the
        samples: a radius beyond the farthest sample inverts none.
    """
    x = samples.x
    if x[-1] != 0.0:
        raise ValueError("inversion center must lie on the boundary hyperplane exactly")
    if np.min(samples.dist) < lambda_lo:
        raise ValueError("all samples must lie outside the ball of radius lambda_lo about x")
    if not (0 < lambda_lo < lambda_hi):
        raise ValueError("need 0 < lambda_lo < lambda_hi")
    if lambda_hi > samples.dist[-1]:
        raise ValueError(f"lambda_hi {float(lambda_hi)} exceeds the farthest sample's "
                         f"distance {float(samples.dist[-1])} from x")

    grid = np.geomspace(lambda_lo, lambda_hi, n_lambda)
    mins = np.empty((n_lambda, samples.values.shape[1]))
    argmins = np.empty(mins.shape + samples.points.shape[1:])
    for k, lam in enumerate(grid):
        mins[k], argmins[k] = min_w(u, samples, float(lam))

    overall = mins.min(axis=1)
    if overall[0] < 0.0:
        raise BadBracket(
            f"min w = {overall[0]:.3e} < 0 at lambda_lo={lambda_lo}; start below the "
            "critical radius"
        )

    negative = np.nonzero(overall < 0.0)[0]
    if negative.size == 0:
        return SweepResult(grid, mins, argmins, None, None)
    k = int(negative[0])

    lo, hi = float(grid[k - 1]), float(grid[k])
    while (hi - lo) > BISECT_RELATIVE_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        if _w_outside(u, samples, mid)[0].min() < 0.0:
            hi = mid
        else:
            lo = mid
    return SweepResult(grid, mins, argmins, 0.5 * (lo + hi), (lo, hi))


def verify_symmetry_identity(params: BubbleParams, samples: CenteredSamples) -> np.ndarray:
    """Per-component sup of |w| / u at the critical radius about ``samples.x``.

    For valid parameters this is rounding noise; the field coincides with
    its own inversion everywhere, not just asymptotically.  ``samples``
    holds the bubble's values, from :func:`center_samples`, and must keep
    1e-6 critical radii from x.
    """
    x = samples.x
    lam = critical_lambda_exact(params, x)
    if np.min(samples.dist) < SYMMETRY_MIN_DISTANCE * lam:
        raise ValueError("samples must keep distance >= 1e-6 critical radii from the center")
    u = partial(evaluate_bubble, params)
    inner, factor = _kelvin(x, lam, samples.dy, samples.n2)
    values = samples.values.T
    return np.max(np.abs(values - field_values(u, inner).T * factor) / values, axis=1)
