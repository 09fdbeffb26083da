"""Deterministic sample-set generators.

Every generator takes an explicit seed so that identical inputs always
produce identical point sets (and therefore byte-identical reports).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "unit_directions",
    "polar_shell",
    "sphere_points",
    "ball_points",
    "halfspace_box_points",
    "boundary_box_points",
]


def unit_directions(N: int, n: int, seed: int, upper: bool = False) -> np.ndarray:
    """n uniform random unit vectors in R^N; ``upper`` reflects into last-coord >= 0."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, N))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    if upper:
        v[:, -1] = np.abs(v[:, -1])
    return v


def polar_shell(
    center: np.ndarray,
    r_lo: float,
    r_hi: float,
    n_radii: int,
    n_dirs: int,
    seed: int,
) -> np.ndarray:
    """Polar grid around ``center``: geometric radii crossed with uniform directions.

    The directions have last coordinate >= 0, so the grid of a boundary
    center lies in the closed half-space.  Geometric spacing matches
    fields that decay algebraically; a uniform grid would waste almost all
    points in the far field.
    """
    center = np.asarray(center, dtype=float)
    radii = np.geomspace(r_lo, r_hi, n_radii)
    dirs = unit_directions(center.shape[0], n_dirs, seed, upper=True)
    pts = center[None, None, :] + radii[:, None, None] * dirs[None, :, :]
    return pts.reshape(-1, center.shape[0])


def sphere_points(center: np.ndarray, radius: float, n: int, seed: int) -> np.ndarray:
    """n points exactly on the sphere of given center and radius."""
    center = np.asarray(center, dtype=float)
    dirs = unit_directions(center.shape[0], n, seed)
    return center + radius * dirs


def ball_points(center: np.ndarray, radius: float, n: int, seed: int, margin: float = 0.0) -> np.ndarray:
    """n points uniformly inside the ball, keeping ``margin`` away from the sphere."""
    center = np.asarray(center, dtype=float)
    N = center.shape[0]
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, N))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    r = (radius - margin) * rng.random(n) ** (1.0 / N)
    return center + r[:, None] * dirs


def halfspace_box_points(box: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n uniform points (n, N), a view of (N, n) memory, in a box [lo_k, hi_k] with lo_N >= 0."""
    box = np.asarray(box, dtype=float)
    if box[-1, 0] < 0:
        raise ValueError("box extends below the boundary hyperplane")
    rng = np.random.default_rng(seed)
    u = rng.random((n, box.shape[0]))
    return (np.multiply(u.T, (box[:, 1] - box[:, 0])[:, None], order="C") + box[:, :1]).T


def boundary_box_points(box: np.ndarray, n: int, seed: int) -> np.ndarray:
    """n uniform points on the boundary face of the box (last coordinate exactly 0)."""
    pts = halfspace_box_points(np.asarray(box, dtype=float), n, seed)
    pts[:, -1] = 0.0
    return pts
