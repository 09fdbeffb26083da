"""Finite-difference residual engine for arbitrary field evaluators.

Verifies that a given field actually satisfies the half-space system by
measuring discrete residuals: a second-order central Laplacian for the
interior equations and a second-order one-sided stencil for the boundary
flux.  Nothing here solves a PDE; fields are only checked.

Field evaluators map point batches (k, N) to component values (k, m) and
must be pure; residual collection is a plain max-reduction, so reports do
not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bubble_family import bubble_field, exponent_product
from .errors import StencilOutOfDomain
from .exponent_system import EllipticSystemSpec

__all__ = [
    "ResidualReport",
    "ConvergenceReport",
    "central_laplacian",
    "one_sided_derivative",
    "residuals_at_points",
    "residual_sweep",
    "convergence_order",
    "fit_loglog_slope",
]

# Residual supremum below this floor (relative to the largest level) is
# rounding noise, not a convergence signal.
DEGENERATE_FLOOR = 1e-13


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

    def to_dict(self) -> dict:
        return {
            "sup_interior": self.sup_interior.tolist(),
            "sup_boundary": self.sup_boundary.tolist(),
            "argmax_interior": self.argmax_interior.tolist(),
            "argmax_boundary": self.argmax_boundary.tolist(),
            "h": self.h,
            "n_interior": self.n_interior,
            "n_boundary": self.n_boundary,
        }

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
    (smallest) step; it is not part of :meth:`to_dict`.
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
    finest: ResidualReport

    def to_dict(self) -> dict:
        return {
            "h_list": self.h_list.tolist(),
            "sup_interior": self.sup_interior.tolist(),
            "sup_boundary": self.sup_boundary.tolist(),
            "slope": self.slope.tolist(),
            "degenerate": self.degenerate.tolist(),
            "slope_interior": self.slope_interior.tolist(),
            "slope_boundary": self.slope_boundary.tolist(),
            "degenerate_interior": self.degenerate_interior.tolist(),
            "degenerate_boundary": self.degenerate_boundary.tolist(),
        }


def central_laplacian(u, points: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Second-order central Laplacian of all components at points (k, N).

    ``u`` maps (n, N) to (n, m) or (n,).  Returns the Laplacians and the
    center values, both (k, m).  The caller keeps the stencil in the domain.
    """
    k, N = points.shape
    stencil = np.tile(points[:, None, :], (1, 2 * N + 1, 1))
    for a in range(N):
        stencil[:, 1 + 2 * a, a] += h
        stencil[:, 2 + 2 * a, a] -= h
    vals = np.asarray(u(stencil.reshape(-1, N)), dtype=float).reshape(k, 2 * N + 1, -1)
    lap = (vals[:, 1:, :].sum(axis=1) - 2 * N * vals[:, 0, :]) / h**2
    return lap, vals[:, 0, :]


def one_sided_derivative(
    u, points: np.ndarray, directions: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Second-order one-sided derivative along unit ``directions`` (k, N) or (N,).

    Uses u at p, p + h n and p + 2h n, so ``directions`` point into the
    domain.  Returns the derivatives and the values at the points, (k, m).
    """
    k, N = points.shape
    stencil = np.stack([points, points + h * directions, points + 2 * h * directions], axis=1)
    vals = np.asarray(u(stencil.reshape(-1, N)), dtype=float).reshape(k, 3, -1)
    deriv = (-3 * vals[:, 0, :] + 4 * vals[:, 1, :] - vals[:, 2, :]) / (2 * h)
    return deriv, vals[:, 0, :]


def residuals_at_points(
    spec: EllipticSystemSpec,
    u,
    interior_points: np.ndarray,
    boundary_points: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point discrete residuals (interior (k, m), boundary (kb, m))."""
    interior_points = np.atleast_2d(np.asarray(interior_points, dtype=float))
    boundary_points = np.atleast_2d(np.asarray(boundary_points, dtype=float))
    if interior_points.size and np.min(interior_points[:, -1]) - h < 0:
        raise StencilOutOfDomain(
            f"interior points need last coordinate >= h={h}; "
            f"got minimum {np.min(interior_points[:, -1])}"
        )

    if interior_points.size:
        lap, center = central_laplacian(u, interior_points, h)
        res_int = lap + exponent_product(spec.A, np.log(center))
    else:
        res_int = np.zeros((0, spec.m))

    if boundary_points.size:
        e_N = np.eye(boundary_points.shape[1])[-1]
        dN, center = one_sided_derivative(u, boundary_points, e_N, h)
        res_bdy = dN - spec.c * exponent_product(spec.B, np.log(center))
    else:
        res_bdy = np.zeros((0, spec.m))
    return res_int, res_bdy


def _lattice(box: np.ndarray, n_per_axis: int, last_min: float) -> np.ndarray:
    axes = []
    for a in range(box.shape[0]):
        lo, hi = box[a]
        if a == box.shape[0] - 1:
            lo = max(lo, last_min)
        axes.append(np.linspace(lo, hi, n_per_axis))
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


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
    (default ``h``) so central stencils stay in the domain; pinning the
    margin across several ``h`` values keeps the lattice identical for
    convergence studies.  Boundary residuals are evaluated on the lattice
    of the ``y_N = 0`` face.
    """
    box = np.asarray(box, dtype=float)
    N = int(spec.N)
    if box.shape != (N, 2):
        raise ValueError(f"box must have shape {(N, 2)}")
    if box[-1, 0] < 0:
        raise StencilOutOfDomain("box extends below the boundary hyperplane")
    margin = h if interior_margin is None else interior_margin
    interior = _lattice(box, n_per_axis, last_min=max(box[-1, 0], margin))
    tangential = _lattice(box[:-1], n_per_axis, last_min=-np.inf)
    boundary = np.hstack([tangential, np.zeros((tangential.shape[0], 1))])

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


def convergence_order(
    spec: EllipticSystemSpec,
    u,
    box: np.ndarray,
    h_list: np.ndarray,
    n_per_axis: int = 8,
) -> ConvergenceReport:
    """Fitted order of the discrete residuals of a field over a shrinking-h study.

    The lattice is held fixed across ``h`` (margin pinned to the largest
    step) so only the stencil changes.  Components whose residuals sit at
    the rounding floor are flagged degenerate instead of fitted.  ``u``
    may be a field evaluator or :class:`~halfspace_bubbles.bubble_family.BubbleParams`.
    """
    if not callable(u):
        u = bubble_field(u)
    h_list = np.asarray(h_list, dtype=float)
    if h_list.size < 3 or np.any(np.diff(h_list) >= 0):
        raise ValueError("h_list must be strictly decreasing with at least 3 entries")
    margin = float(h_list[0])
    sups_i, sups_b = [], []
    for h in h_list:
        report = residual_sweep(spec, u, box, n_per_axis, float(h), interior_margin=margin)
        sups_i.append(report.sup_interior)
        sups_b.append(report.sup_boundary)
    sups_i = np.asarray(sups_i)
    sups_b = np.asarray(sups_b)
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
        finest=report,
    )
