"""Finite-difference residual engine for arbitrary field evaluators.

Verifies that a given field actually satisfies the half-space system by
measuring discrete residuals: a second-order central Laplacian for the
interior equations and a second-order one-sided stencil for the boundary
flux.  The boundary stencil runs along given inward normals with an
optional Robin term, so the same study checks the ball system too.
Nothing here solves a PDE; fields are only checked.

Field evaluators map point batches (k, N) to component values (k, m) and
must be pure; residual collection is a plain max-reduction, so reports do
not depend on evaluation order.

Layout: points innermost.  Component values (k, m) are views of (m, k) memory
(bubble values come so from ``log_profile``), the bubble's neighbour values
(2N, k, m) of (m, 2N, k), and the sweep's samples, offsets and Kelvin images and
the box samples of (m, k) and (N, k); stencils are neighbour-major, (2N, k, N)
and (2, k, N), and residuals (n_h, m, k).  So kernels and reductions run over
contiguous points, not over the N <= 5 axes or m <= 3 components.  The 2N
neighbour values are added explicitly, left to right: numpy's reduce picks its
order from the array's size and layout, and this one keeps a component's result
independent of the block size and of the other components evaluated with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bubble_family import field_values
from .errors import StencilOutOfDomain
from .exponent_system import EllipticSystemSpec

__all__ = [
    "ResidualReport",
    "ConvergenceReport",
    "central_laplacian",
    "one_sided_derivative",
    "residuals_at_points",
    "residual_sweep",
    "residual_study",
    "convergence_order",
    "fit_loglog_slope",
]

# Residual supremum below this floor (relative to the largest level) is
# rounding noise, not a convergence signal.
DEGENERATE_FLOOR = 1e-13

# Centers per block of the residual driver: each block evaluates at most
# BLOCK_CENTERS * 2N stencil points at once, whatever the size of the lattice.
BLOCK_CENTERS = 4096


@dataclass
class ResidualReport:
    """Sup-norm residuals over a sample set, with locations and grid metadata."""

    sup_interior: np.ndarray
    sup_boundary: np.ndarray
    argmax_interior: np.ndarray
    argmax_boundary: np.ndarray
    h: float
    n_interior: int
    n_boundary: int

    @classmethod
    def from_residuals(cls, res_int, res_bdy, interior, boundary, h: float) -> "ResidualReport":
        """Sup-norm summary of per-point residuals at the given points."""
        abs_int = np.abs(res_int)
        abs_bdy = np.abs(res_bdy)
        return cls(
            sup_interior=abs_int.max(axis=0),
            sup_boundary=abs_bdy.max(axis=0),
            argmax_interior=interior[np.argmax(abs_int, axis=0)],
            argmax_boundary=boundary[np.argmax(abs_bdy, axis=0)],
            h=float(h),
            n_interior=interior.shape[0],
            n_boundary=boundary.shape[0],
        )


@dataclass
class ConvergenceReport:
    """Log-log slopes of sup residuals versus step size.

    ``slope`` is the per-component order of the combined (interior and
    boundary) sup; that is the contract value.  Separate interior and
    boundary slopes are kept as diagnostics: one-sided boundary stencils
    superconverge on profiles even in the normal coordinate, which shows
    up there and only there.  ``finest`` is the full report of the last
    (smallest) step; it is left out of the serialized report.
    """

    h_list: np.ndarray
    sup_interior: np.ndarray  # (len(h_list), m)
    sup_boundary: np.ndarray
    slope: np.ndarray  # (m,), nan where degenerate
    degenerate: np.ndarray  # (m,) bool
    slope_interior: np.ndarray
    slope_boundary: np.ndarray
    degenerate_interior: np.ndarray
    degenerate_boundary: np.ndarray
    finest: ResidualReport = field(repr=False)


def central_laplacian(u, points: np.ndarray, h: float, center: np.ndarray) -> np.ndarray:
    """Second-order central Laplacian of all components at points (k, N).

    ``u`` maps (n, N) to (n, m) or (n,); ``center`` holds its values at the
    points, (k, m), so only the 2N neighbours are evaluated.  Returns the
    Laplacians, (k, m).  The caller keeps the stencil in the domain.  An evaluator's
    ``axis_neighbours(points, h)``, if it has one, gives the 2N neighbours' values.
    """
    k, N = points.shape
    if hasattr(u, "axis_neighbours"):
        vals = u.axis_neighbours(points, h)
    else:
        stencil = np.broadcast_to(points, (2 * N, k, N)).copy()
        for a in range(N):
            stencil[2 * a, :, a] += h
            stencil[2 * a + 1, :, a] -= h
        vals = field_values(u, stencil.reshape(-1, N)).reshape(2 * N, k, -1)
    total = vals[0] + vals[1]
    for neighbour in vals[2:]:
        total += neighbour
    return (total - 2 * N * center) / h**2


def one_sided_derivative(
    u, points: np.ndarray, directions: np.ndarray, h: float, center: np.ndarray
) -> np.ndarray:
    """Second-order one-sided derivative along unit ``directions`` (k, N) or (N,).

    Uses u at p, p + h n and p + 2h n, so ``directions`` point into the
    domain; ``center`` holds the values at p, (k, m).  Returns the
    derivatives, (k, m).
    """
    k, N = points.shape
    stencil = np.stack([points + h * directions, points + 2 * h * directions])
    vals = field_values(u, stencil.reshape(-1, N)).reshape(2, k, -1)
    return (-3 * center + 4 * vals[0] - vals[1]) / (2 * h)


def _residual_levels(
    spec: EllipticSystemSpec, u, interior, boundary, h_list, normals=None, kappa: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point residuals at every step of a study: (n_h, k, m) and (n_h, kb, m).

    The boundary residual is (d_in u - kappa u) - c prod u^B along the
    inward unit ``normals``, (kb, N) or (N,); e_N and kappa = 0 are the
    half-space.  Walks the centers in blocks of ``BLOCK_CENTERS``.  Each
    block's values and source term are evaluated once and shared by every
    step, so only the neighbours are evaluated per step, and the stencil
    temporaries are bounded by the block, not the point set.
    """
    h_list = [float(h) for h in h_list]
    if normals is None:
        normals = np.eye(boundary.shape[1])[-1]
    normals = np.broadcast_to(normals, boundary.shape)
    res_int = np.empty((len(h_list), spec.m, len(interior))).transpose(0, 2, 1)
    res_bdy = np.empty((len(h_list), spec.m, len(boundary))).transpose(0, 2, 1)
    for start in range(0, len(interior), BLOCK_CENTERS):
        block = slice(start, start + BLOCK_CENTERS)
        pts = interior[block]
        center = field_values(u, pts)
        source = spec.source(np.log(center))
        for i, h in enumerate(h_list):
            res_int[i, block] = central_laplacian(u, pts, h, center) + source
    for start in range(0, len(boundary), BLOCK_CENTERS):
        block = slice(start, start + BLOCK_CENTERS)
        pts = boundary[block]
        center = field_values(u, pts)
        flux = spec.flux(np.log(center))
        robin = kappa * center
        for i, h in enumerate(h_list):
            d_in = one_sided_derivative(u, pts, normals[block], h, center)
            res_bdy[i, block] = (d_in - robin) - flux
    return res_int, res_bdy


def _check_halfspace_headroom(interior: np.ndarray, h: float) -> None:
    """Central stencils of step ``h`` stay in the half-space: every y_N >= h."""
    if len(interior) and np.min(interior[:, -1]) - h < 0:
        raise StencilOutOfDomain(
            f"interior points need last coordinate >= h={h}; "
            f"got minimum {np.min(interior[:, -1])}"
        )


def residuals_at_points(
    spec: EllipticSystemSpec,
    u,
    interior_points: np.ndarray,
    boundary_points: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point half-space residuals at one step (interior (k, m), boundary (kb, m))."""
    interior_points = np.atleast_2d(np.asarray(interior_points, dtype=float))
    boundary_points = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    _check_halfspace_headroom(interior_points, h)
    res_int, res_bdy = _residual_levels(spec, u, interior_points, boundary_points, [h])
    return res_int[0], res_bdy[0]


def _lattice(box: np.ndarray, n_per_axis: int, last_min: float) -> np.ndarray:
    axes = []
    for a in range(box.shape[0]):
        lo, hi = box[a]
        if a == box.shape[0] - 1:
            lo = max(lo, last_min)
        axes.append(np.linspace(lo, hi, n_per_axis))
    # filled axis by axis from the sparse grids: one (n**N, N) array, no full-size temporaries
    lattice = np.empty((n_per_axis,) * len(axes) + (len(axes),))
    for a, g in enumerate(np.meshgrid(*axes, indexing="ij", sparse=True)):
        lattice[..., a] = g
    return lattice.reshape(-1, len(axes))


def _box_lattices(
    spec: EllipticSystemSpec, box: np.ndarray, n_per_axis: int, margin: float
) -> tuple[np.ndarray, np.ndarray]:
    """Interior lattice of a box (last coordinate >= margin) and the lattice of its y_N = 0 face."""
    box = np.asarray(box, dtype=float)
    N = int(spec.N)
    if box.shape != (N, 2):
        raise ValueError(f"box must have shape {(N, 2)}")
    if box[-1, 0] < 0:
        raise StencilOutOfDomain("box extends below the boundary hyperplane")
    interior = _lattice(box, n_per_axis, last_min=max(box[-1, 0], margin))
    tangential = _lattice(box[:-1], n_per_axis, last_min=-np.inf)
    boundary = np.hstack([tangential, np.zeros((tangential.shape[0], 1))])
    return interior, boundary


def residual_sweep(
    spec: EllipticSystemSpec,
    u,
    box: np.ndarray,
    n_per_axis: int,
    h: float,
    interior_margin: float | None = None,
) -> ResidualReport:
    """Sup residuals of a field over interior and boundary lattices of a box.

    ``box`` is (N, 2) rows of (lo, hi) inside the closed half-space.  The
    interior lattice keeps its last coordinate at least ``interior_margin``
    (default ``h``) so central stencils stay in the domain; a margin of a
    study's largest step gives that study's lattice.  Boundary residuals
    are evaluated on the lattice of the ``y_N = 0`` face.
    """
    margin = h if interior_margin is None else interior_margin
    interior, boundary = _box_lattices(spec, box, n_per_axis, margin)
    res_int, res_bdy = residuals_at_points(spec, u, interior, boundary, h)
    return ResidualReport.from_residuals(res_int, res_bdy, interior, boundary, h)


def fit_loglog_slope(h_list: np.ndarray, sups: np.ndarray) -> float:
    """Least-squares slope of log(sup) against log(h)."""
    return float(np.polyfit(np.log(np.asarray(h_list, float)), np.log(np.asarray(sups, float)), 1)[0])


def convergence_from_sups(h_list: np.ndarray, sups: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-component slopes with degeneracy flags; sups is (len(h_list), m)."""
    h_list = np.asarray(h_list, dtype=float)
    sups = np.asarray(sups, dtype=float)
    m = sups.shape[1]
    slopes = np.full(m, np.nan)
    degenerate = np.zeros(m, dtype=bool)
    for i in range(m):
        col = sups[:, i]
        floor = DEGENERATE_FLOOR * max(1.0, float(col.max()))
        if np.any(col <= floor):
            degenerate[i] = True
            continue
        slopes[i] = fit_loglog_slope(h_list, col)
    return slopes, degenerate


def residual_study(
    spec: EllipticSystemSpec,
    u,
    interior: np.ndarray,
    boundary: np.ndarray,
    h_list,
    normals=None,
    kappa: float = 0.0,
) -> ConvergenceReport:
    """Fitted order of the discrete residuals of a field over a shrinking-h study.

    Every step runs in one pass over the points, so each center and its
    source term are evaluated once.  ``normals`` and ``kappa`` set the
    boundary law.  On the default, the half-space, every interior point
    must keep y_N >= the largest step; with other normals the caller
    keeps every stencil in its domain.  Components whose residuals sit at
    the rounding floor are flagged degenerate instead of fitted.
    """
    h_list = np.asarray(h_list, dtype=float)
    if h_list.size < 3 or np.any(np.diff(h_list) >= 0):
        raise ValueError("h_list must be strictly decreasing with at least 3 entries")
    if normals is None:
        _check_halfspace_headroom(interior, float(h_list[0]))
    levels = _residual_levels(spec, u, interior, boundary, h_list, normals, kappa)
    reports = [
        ResidualReport.from_residuals(res_int, res_bdy, interior, boundary, h)
        for res_int, res_bdy, h in zip(*levels, h_list)
    ]
    sups_i = np.asarray([r.sup_interior for r in reports])
    sups_b = np.asarray([r.sup_boundary for r in reports])
    slope_c, degen_c = convergence_from_sups(h_list, np.maximum(sups_i, sups_b))
    slope_i, degen_i = convergence_from_sups(h_list, sups_i)
    slope_b, degen_b = convergence_from_sups(h_list, sups_b)
    return ConvergenceReport(
        h_list=h_list,
        sup_interior=sups_i,
        sup_boundary=sups_b,
        slope=slope_c,
        degenerate=degen_c,
        slope_interior=slope_i,
        slope_boundary=slope_b,
        degenerate_interior=degen_i,
        degenerate_boundary=degen_b,
        finest=reports[-1],
    )


def convergence_order(
    spec: EllipticSystemSpec,
    u,
    box: np.ndarray,
    h_list: np.ndarray,
    n_per_axis: int = 8,
) -> ConvergenceReport:
    """:func:`residual_study` of a field over the lattices of a half-space box.

    The lattice is held fixed across ``h`` (margin pinned to the largest
    step) so only the stencil changes.
    """
    interior, boundary = _box_lattices(spec, box, n_per_axis, float(max(h_list)))
    return residual_study(spec, u, interior, boundary, h_list)
