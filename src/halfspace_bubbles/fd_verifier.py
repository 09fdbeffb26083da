"""Finite-difference residual engine for arbitrary field evaluators.

Verifies that a given field actually satisfies the half-space system by
measuring discrete residuals: a second-order central Laplacian for the
interior equations and a second-order one-sided stencil for the boundary
flux.  The boundary stencil runs along given inward normals with an
optional Robin term, so the same study checks the ball system too.
Nothing here solves a PDE; fields are only checked.

Field evaluators map point batches (k, N) to component values (k, m) and
must be pure; residual collection is a plain max-reduction, so reports do
not depend on evaluation order.  Points are walked in blocks of at most
``BLOCK_CENTERS``, box lattices in sub-boxes read from their 1-d axes, so no
array of a study grows with its point set.

Layout: points innermost.  Component values (k, m) are views of (m, k) memory
(bubble values come so from ``log_profile``), the bubble's shifted values
(R, b, m) of (m, R, b), and the sweep's samples, offsets and Kelvin images and
the box samples of (m, k) and (N, k); the bubble reads a block's N columns or
axes; other fields' stencils are neighbour-major, (2N, k, N) and (2, k, N), and
a block's residuals (n_h, b, m) of (n_h, m, b).  So kernels and reductions run
over contiguous points, not over the N <= 5 axes or m <= 3 components.  The 2N
neighbour values are added explicitly, left to right: numpy's reduce picks its
order from the array's size and layout, and this one keeps a component's result
independent of the block size and of the other components evaluated with it.
"""

from __future__ import annotations

import functools
import math
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

# A slope's NaN means "not fitted"; reports write it as null (see reporting.jsonable).
NO_VALUE = {"nan_as_null": True}


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
    slope: np.ndarray = field(metadata=NO_VALUE)  # (m,), nan where degenerate
    degenerate: np.ndarray  # (m,) bool
    slope_interior: np.ndarray = field(metadata=NO_VALUE)
    slope_boundary: np.ndarray = field(metadata=NO_VALUE)
    degenerate_interior: np.ndarray
    degenerate_boundary: np.ndarray
    finest: ResidualReport = field(repr=False)


def _stencil_values(u, points: np.ndarray, h: float, directions=None) -> np.ndarray:
    """Values (2N, k, m) at points ± h e_a, or (2, k, m) at p + h n and p + 2h n along ``directions``."""
    k, N = points.shape
    if directions is not None:
        stencil = np.stack([points + h * directions, points + 2 * h * directions])
    else:
        stencil = np.broadcast_to(points, (2 * N, k, N)).copy()
        for a in range(N):
            stencil[2 * a, :, a] += h
            stencil[2 * a + 1, :, a] -= h
    return field_values(u, stencil.reshape(-1, N)).reshape(len(stencil), k, -1)


def _laplacian(vals: np.ndarray, center: np.ndarray, h: float, out=None) -> np.ndarray:
    """(the 2N neighbour values (2N, k, m) added left to right - 2N center) / h^2, into ``out``."""
    total = np.add(vals[0], vals[1], out=out)
    for neighbour in vals[2:]:
        total += neighbour
    total -= len(vals) * center
    total /= h**2
    return total


def _one_sided(vals: np.ndarray, center: np.ndarray, h: float) -> np.ndarray:
    return (-3 * center + 4 * vals[0] - vals[1]) / (2 * h)


def central_laplacian(u, points: np.ndarray, h: float, center: np.ndarray) -> np.ndarray:
    """Second-order central Laplacian of all components at points (k, N).

    ``u`` maps (n, N) to (n, m) or (n,); ``center`` holds its values at the
    points, (k, m), so only the 2N neighbours are evaluated.  Returns the
    Laplacians, (k, m).  The caller keeps the stencil in the domain.
    """
    return _laplacian(_stencil_values(u, points, h), center, h)


def one_sided_derivative(
    u, points: np.ndarray, directions: np.ndarray, h: float, center: np.ndarray
) -> np.ndarray:
    """Second-order one-sided derivative along unit ``directions`` (k, N) or (N,).

    Uses u at p, p + h n and p + 2h n, so ``directions`` point into the
    domain; ``center`` holds the values at p, (k, m).  Returns the
    derivatives, (k, m).
    """
    return _one_sided(_stencil_values(u, points, h, directions), center, h)


def point_blocks(n: int):
    """Slices of ``BLOCK_CENTERS`` consecutive points that cover ``range(n)``, in order."""
    return (slice(start, start + BLOCK_CENTERS) for start in range(0, n, BLOCK_CENTERS))


def _block_values(u, points, N: int, face: bool, normals):
    """Each block's center values (b, m) and neighbours(h), in point order.

    On the half-space an evaluator with ``lattice_values`` gets a block as its N coordinates (a
    sub-box's axes, an array's columns) with the shifts of the centers and of the 2N axis or 2 face
    neighbours; any other evaluator gets the block's points through :func:`_stencil_values`.
    """
    if not hasattr(u, "lattice_values") or normals is not None:
        inward = np.eye(N)[-1] if normals is None else normals
        for block in point_blocks(len(points)):
            pts = points[block]
            directions = np.broadcast_to(inward, (len(points), N))[block] if face else None
            neighbours = functools.partial(_stencil_values, u, pts, directions=directions)
            yield field_values(u, pts), neighbours
        return
    steps = [(N - 1, 1), (N - 1, 2)] if face else [(a, s) for a in range(N) for s in (1, -1)]
    blocks = (points.sub_boxes() if isinstance(points, _Lattice)
              else (list(points[block].T) for block in point_blocks(len(points))))
    for coords in blocks:
        yield (u.lattice_values(coords, [(0, 0.0)])[0],
               lambda h: u.lattice_values(coords, [(a, s * h) for a, s in steps]))


def _residual_blocks(
    spec: EllipticSystemSpec, u, interior, boundary, h_list, normals=None, kappa: float = 0.0
):
    """Per-point residuals of a study, one block at a time: yields (on_boundary, (n_h, b, m)).

    Interior blocks come first, then boundary blocks, each in point order.
    The boundary residual is (d_in u - kappa u) - c prod u^B along the
    inward unit ``normals``, (kb, N) or (N,); e_N and kappa = 0 are the
    half-space.  Each block's values and source term are evaluated once and
    shared by every step, so only the neighbours are evaluated per step.
    Point sets are (k, N) arrays or :class:`_Lattice`.
    """
    h_list, m = [float(h) for h in h_list], spec.m
    for face, points in ((False, interior), (True, boundary)):
        for center, neighbours in _block_values(u, points, spec.N, face, normals):
            res = np.empty((len(h_list), m, len(center))).transpose(0, 2, 1)
            # the source and flux in the residuals' (m, b) memory, so each step adds them fast
            if face:
                flux, robin = np.asfortranarray(spec.flux(np.log(center))), kappa * center
                for i, h in enumerate(h_list):
                    d_in = _one_sided(neighbours(h), center, h)
                    res[i] = (d_in - robin) - flux
            else:
                source = np.asfortranarray(spec.source(np.log(center)))
                for i, h in enumerate(h_list):
                    _laplacian(neighbours(h), center, h, out=res[i])
                    res[i] += source
            yield face, res


def fold_sup(best, mags: np.ndarray, offset: int):
    """Fold one block's magnitudes (n_h, b, m), points from ``offset``, into a running (sup, argmax).

    Both are (n_h, m), ``best`` None before the first block.  It holds earlier points, so
    np.argmax keeps its rules over the whole set: the first index wins a tie, the first NaN wins.
    """
    sups, args = mags.max(axis=1), mags.argmax(axis=1) + offset
    if best is None:
        return sups, args
    pick = np.argmax(np.stack([best[0], sups]), axis=0).astype(bool)
    return np.where(pick, sups, best[0]), np.where(pick, args, best[1])


def _study_reports(spec, u, interior, boundary, h_list, normals=None, kappa=0.0):
    """One :class:`ResidualReport` per step, folded block by block."""
    if not (len(interior) and len(boundary)):
        raise ValueError("a residual study needs interior and boundary points")
    best, seen = [None, None], [0, 0]
    for on_boundary, res in _residual_blocks(spec, u, interior, boundary, h_list, normals, kappa):
        best[on_boundary] = fold_sup(best[on_boundary], np.abs(res), seen[on_boundary])
        seen[on_boundary] += res.shape[1]
    (sup_int, arg_int), (sup_bdy, arg_bdy) = best
    return [ResidualReport(sup_int[i], sup_bdy[i], interior[arg_int[i]], boundary[arg_bdy[i]],
                           float(h), len(interior), len(boundary)) for i, h in enumerate(h_list)]


def _check_halfspace_headroom(interior, h: float, largest: float | None = None) -> None:
    """Central stencils stay in the half-space: every y_N >= ``largest`` (a study's 4h), else h."""
    heights = interior.axes[-1] if isinstance(interior, _Lattice) else interior[:, -1]
    if len(heights) and np.min(heights) - (h if largest is None else largest) < 0:
        need = f"h={h}" if largest is None else f"4h={largest} at h={h}"
        raise StencilOutOfDomain(
            f"interior points need last coordinate >= {need}; got minimum {np.min(heights)}"
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
    # component-major (m, k) memory, as the blocks hold it
    parts = ([np.empty((spec.m, 0))], [np.empty((spec.m, 0))])
    for on_boundary, res in _residual_blocks(spec, u, interior_points, boundary_points, [h]):
        parts[on_boundary].append(res[0].T)
    return tuple(np.concatenate(p, axis=1).T for p in parts)


class _Lattice:
    """The points of a lattice in C order, read by flat index: (k, N) blocks, never all n**N.

    ``axes`` are its 1-d coordinate axes; a one-entry axis pins a coordinate.
    """

    def __init__(self, axes: list[np.ndarray]):
        self.axes, self.shape = axes, tuple(len(axis) for axis in axes)

    def __len__(self) -> int:
        return math.prod(self.shape)

    def __getitem__(self, index) -> np.ndarray:
        """Points (k, N) at a slice or an array of flat indices, points innermost."""
        if isinstance(index, slice):
            index = np.arange(*index.indices(len(self)))
        return np.stack([axis[i] for axis, i in zip(self.axes, np.unravel_index(index, self.shape))]).T

    def sub_boxes(self):
        """Sub-boxes of at most BLOCK_CENTERS points in C order, as N coordinate arrays that
        broadcast: leading axes fixed, one axis chunked, trailing axes whole."""
        N = len(self.shape)  # axes j.. are whole, axis j - 1 is chunked, the axes before it fixed
        j = max(1, next(j for j in range(N + 1) if math.prod(self.shape[j:]) <= BLOCK_CENTERS))
        chunk = BLOCK_CENTERS // math.prod(self.shape[j:])
        for lead in np.ndindex(self.shape[: j - 1]):
            for start in range(0, self.shape[j - 1], chunk):
                box = [*(slice(i, i + 1) for i in lead), slice(start, start + chunk)]
                yield [axis[s].reshape((-1,) + (1,) * (N - 1 - a))
                       for a, (axis, s) in enumerate(zip(self.axes, box + [slice(None)] * (N - j)))]


def _box_lattices(
    spec: EllipticSystemSpec, box: np.ndarray, n_per_axis: int, margin: float
) -> tuple[_Lattice, _Lattice]:
    """Interior lattice of a box (last coordinate >= margin) and the lattice of its y_N = 0 face."""
    box = np.asarray(box, dtype=float)
    N = int(spec.N)
    if box.shape != (N, 2):
        raise ValueError(f"box must have shape {(N, 2)}")
    if box[-1, 0] < 0:
        raise StencilOutOfDomain("box extends below the boundary hyperplane")
    axes = [np.linspace(lo, hi, n_per_axis) for lo, hi in box[:-1]]
    last = np.linspace(max(box[-1, 0], margin), box[-1, 1], n_per_axis)
    return _Lattice([*axes, last]), _Lattice([*axes, np.zeros(1)])


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
    _check_halfspace_headroom(interior, h)
    return _study_reports(spec, u, interior, boundary, [h])[0]


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


def _study_steps(h: float) -> np.ndarray:
    """The steps 4h, 2h and h of every study; ValueError unless h is positive and finite."""
    if not 0 < h < np.inf:
        raise ValueError(f"the finest step h must be positive and finite, got {h!r}")
    return np.array([4 * h, 2 * h, h])


def residual_study(
    spec: EllipticSystemSpec,
    u,
    interior: np.ndarray,
    boundary: np.ndarray,
    h: float,
    normals=None,
    kappa: float = 0.0,
) -> ConvergenceReport:
    """Fitted order of the discrete residuals of a field at steps 4h, 2h and h.

    Every step runs in one pass over the points, so each center and its
    source term are evaluated once, and each block's residuals are folded
    into the sups as they come.  ``interior`` and ``boundary`` are (k, N)
    arrays or box lattices.  ``normals`` and ``kappa`` set the
    boundary law.  On the default, the half-space, every interior point
    must keep y_N >= 4h, the largest step; with other normals the caller
    keeps every stencil in its domain.  Components whose residuals sit at
    the rounding floor are flagged degenerate instead of fitted.
    """
    h_list = _study_steps(h)
    if normals is None:
        _check_halfspace_headroom(interior, h, largest=h_list[0])
    reports = _study_reports(spec, u, interior, boundary, h_list, normals, kappa)
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
    h: float,
    n_per_axis: int,
) -> ConvergenceReport:
    """:func:`residual_study` of a field over the lattices of a half-space box.

    The lattice is held fixed across the steps (margin pinned to the largest,
    4h) so only the stencil changes.
    """
    interior, boundary = _box_lattices(spec, box, n_per_axis, _study_steps(h)[0])
    return residual_study(spec, u, interior, boundary, h)
