"""Inversion of the half-space onto a ball and the transported fields.

With boundary center xbar and width d, set Q = xbar + d e_N and
P = xbar - d e_N.  Inversion about the sphere of radius 2d centered at P,

    T y = P + 4 d^2 (y - P) / |y - P|^2,

maps the open half-space onto the ball B(Q, 2d) and is its own inverse.
A half-space field u transports to its Kelvin transform about that sphere,

    v(z) = (2d / |z - P|)**(N-2) * u(T z),

which for a family member with matching (xbar, d) is radially symmetric
about Q and satisfies the ball system with a Robin boundary term.  T and
v are the inversion of :mod:`halfspace_bubbles.kelvin_inversion` with
center P and radius 2d; this module checks the four mapping properties of
T, evaluates v, and gives the radial profile's parameters (mu, alphas) of
a family member in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .bubble_family import BubbleParams, field_values, log_profile, squared_distance
from .errors import StencilOutOfDomain
from .exponent_system import EllipticSystemSpec
from .fd_verifier import ConvergenceReport, residual_study
from .kelvin_inversion import _kelvin, _offsets, critical_radius, kelvin_point
from .sampling import ball_points, unit_directions

__all__ = [
    "ConformalSetup",
    "TPropertyReport",
    "setup_from_params",
    "verify_T_properties",
    "transform_v",
    "ball_field",
    "verify_radial",
    "ball_system_residual",
    "recover_mu_alpha",
]

# Inside this radius around P the transported field takes its extension
# value; the limit is exact, no detection needed.
EXTENSION_RADIUS_FACTOR = 1e-9

# Samples of the mapping checks keep this many widths d away from P.
POLE_MIN_DISTANCE = 1e-8

# Points per critical sphere and mirror pairs per boundary center in the mapping checks.
N_SPHERE = 512

# Directions at which the radial-symmetry check reads each sphere about Q.
N_ANGULAR = 256


@dataclass
class ConformalSetup:
    """Inversion geometry: boundary center xbar, width d, poles P and Q."""

    xbar: np.ndarray
    d: float

    def __post_init__(self):
        self.xbar = np.asarray(self.xbar, dtype=float)
        self.d = float(self.d)
        if self.xbar[-1] != 0.0:
            raise ValueError("xbar must lie on the boundary hyperplane")
        if self.d <= 0:
            raise ValueError("d must be positive")

    @property
    def N(self) -> int:
        return self.xbar.shape[0]

    @property
    def P(self) -> np.ndarray:
        """Inversion pole below the boundary, last coordinate -d."""
        out = self.xbar.copy()
        out[-1] = -self.d
        return out

    @property
    def Q(self) -> np.ndarray:
        """Ball center above the boundary, last coordinate +d."""
        out = self.xbar.copy()
        out[-1] = self.d
        return out


def setup_from_params(params: BubbleParams) -> ConformalSetup:
    """Geometry matching a family member: d^2 = sigma^2 + y0N^2, xbar = (y0', 0)."""
    xbar = params.y0.copy()
    xbar[-1] = 0.0
    return ConformalSetup(xbar=xbar, d=float(np.sqrt(params.width2)))


@dataclass
class TPropertyReport:
    """Measured violations of the four mapping properties of T."""

    involution_max_rel: float
    containment_max_ratio: float
    containment_strict: bool
    boundary_sphere_max_rel: float
    boundary_min_dist_to_P: float
    plane_max_rel: dict
    mirror_max_rel: dict
    n_samples: int


def verify_T_properties(
    setup: ConformalSetup,
    boundary_xs: list[np.ndarray],
    samples: np.ndarray,
    seed: int = 20240901,
) -> TPropertyReport:
    """Measure all four mapping properties of T on the given samples.

    (i)   double application returns the input;
    (ii)  half-space samples map strictly inside the ball, boundary samples
          map onto its sphere away from P;
    (iii) for each boundary x, the critical sphere about x maps into the
          hyperplane through Q orthogonal to x - P;
    (iv)  mirror-symmetric pairs across that hyperplane map to inversion-
          symmetric pairs about the critical sphere.

    The samples must keep 1e-8 d from P; beyond that nothing raises, and
    the report carries the measured violations.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    d, P, Q = setup.d, setup.P, setup.Q
    dist_P = np.sqrt(squared_distance(samples, P))
    if np.min(dist_P) < POLE_MIN_DISTANCE * d:
        raise ValueError("samples must keep distance >= 1e-8 d from the pole P")

    # (i) involution
    img = kelvin_point(P, 2 * d, samples)
    back = kelvin_point(P, 2 * d, img)
    involution_max = float(np.max(np.sqrt(squared_distance(back, samples)) / (dist_P + d)))

    # (ii) containment and boundary pushforward
    ratio = np.sqrt(squared_distance(img, Q)) / (2 * d)
    bpts = samples.copy()
    bpts[:, -1] = 0.0
    bimg = kelvin_point(P, 2 * d, bpts)
    sphere_rel = np.abs(np.sqrt(squared_distance(bimg, Q)) - 2 * d) / (2 * d)
    min_dist_P = float(np.min(np.sqrt(squared_distance(bimg, P))))

    # (iii) critical spheres map into hyperplanes through Q
    plane_max: dict = {}
    mirror_max: dict = {}
    dirs = unit_directions(setup.N, N_SPHERE, seed, upper=True)
    inside = ball_points(Q, 2 * d, N_SPHERE, seed + 1, margin=1e-3 * d)
    for x in boundary_xs:
        x = np.asarray(x, dtype=float)
        lam = critical_radius(d**2, setup.xbar, x)
        normal = (x - P) / np.linalg.norm(x - P)
        z = x + lam * dirs
        tz = kelvin_point(P, 2 * d, z)
        plane_dist = np.abs(np.subtract(tz, Q, order="C") @ normal)  # @ rounds by layout
        key = ",".join(repr(float(v)) for v in x)
        plane_max[key] = float(np.max(plane_dist) / d)

        # (iv) mirror pairs across the hyperplane
        zmir = inside - 2 * ((inside - Q) @ normal)[:, None] * normal
        keep = np.sqrt(squared_distance(zmir, P)) > 1e-9 * d
        zin, zmir = inside[keep], zmir[keep]
        lhs = kelvin_point(P, 2 * d, zmir)
        rhs = kelvin_point(x, lam, kelvin_point(P, 2 * d, zin))
        rel = np.sqrt(squared_distance(lhs, rhs)) / (np.sqrt(squared_distance(lhs, x)) + lam)
        mirror_max[key] = float(np.max(rel))

    return TPropertyReport(
        involution_max_rel=involution_max,
        containment_max_ratio=float(np.max(ratio)),
        containment_strict=bool(np.all(ratio < 1.0)),
        boundary_sphere_max_rel=float(np.max(sphere_rel)),
        boundary_min_dist_to_P=min_dist_P,
        plane_max_rel=plane_max,
        mirror_max_rel=mirror_max,
        n_samples=samples.shape[0],
    )


def transform_v(setup: ConformalSetup, u, z: np.ndarray) -> np.ndarray:
    """Transported field on the closed ball, extended continuously at P.

    Within 1e-9 * d of P the value is the exact limit 2**(2-N) * u(xbar), read
    in the same batch.  Points are (k, N); values are point-major, (k, m) in C order.
    """
    z = np.asarray(z, dtype=float)
    dy, dist, n2 = _offsets(setup.P, z)
    near = dist <= EXTENSION_RADIUS_FACTOR * setup.d
    n2[near] = 1.0  # keeps the kernel off the pole; the extension replaces these values
    images, factors = _kelvin(setup.P, 2 * setup.d, dy, n2)
    images[near], factors[near] = setup.xbar, 2.0 ** (2 - setup.N)
    return np.multiply(field_values(u, images), factors[:, None], order="C")


def ball_field(setup: ConformalSetup, u):
    """Evaluator for the transported field on the closed ball."""
    return partial(transform_v, setup, u)


def verify_radial(
    setup: ConformalSetup,
    v,
    radii: np.ndarray,
    seed: int = 20240902,
) -> np.ndarray:
    """Per-radius max of |v - sphere mean| / mean over component spheres about Q.

    Each sphere is read at the same ``N_ANGULAR`` seeded directions.
    Radial symmetry about Q holds exactly for transported family members;
    any center mismatch shows up as an O(1) variation here.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii >= 2 * setup.d):
        raise ValueError("radii must be below the ball radius 2d")
    dirs = unit_directions(setup.N, N_ANGULAR, seed)
    out = np.empty(radii.size)
    for k, r in enumerate(radii):
        vals = field_values(v, setup.Q + r * dirs)
        # the mean's summation order follows the memory layout; fix it to point-major
        mean = np.ascontiguousarray(vals).mean(axis=0)
        out[k] = float(np.max(np.abs(vals - mean) / mean))
    return out


def ball_system_residual(
    spec: EllipticSystemSpec,
    setup: ConformalSetup,
    v,
    interior_samples: np.ndarray,
    boundary_samples: np.ndarray,
    h_list,
) -> ConvergenceReport:
    """Residual study of the ball system for a transported field.

    The same PDE as the half-space inside; on the sphere the boundary law
    is the Robin condition d_in v = c prod v^B + (N-2)/(4d) v, with d_in
    along the inward normal -(z - Q)/(2d).  Interior samples must keep
    3h of headroom from the sphere at the largest step.
    """
    interior = np.atleast_2d(np.asarray(interior_samples, dtype=float))
    boundary = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    d, Q = setup.d, setup.Q
    h = float(max(h_list))

    if np.any(np.sqrt(squared_distance(interior, Q)) > 2 * d - 3 * h):
        raise StencilOutOfDomain("interior samples must stay 3h away from the sphere")
    if np.any(np.abs(np.sqrt(squared_distance(boundary, Q)) - 2 * d) > 1e-9 * d):
        raise StencilOutOfDomain("boundary samples must lie on the sphere")

    normals = -(boundary - Q) / (2 * d)
    return residual_study(
        spec, v, interior, boundary, h_list, normals, kappa=(setup.N - 2) / (4 * d)
    )


def recover_mu_alpha(params: BubbleParams) -> tuple[float, np.ndarray]:
    """Radial closed-form parameters (mu, alphas) of the transported field.

    The profile's center height d(2t - 1), t = 4d^2/(mu^2 + 4d^2), is y0N, so
    mu/(2d) = sqrt((d - y0N)/(d + y0N)).  With e = d + |y0N| the smaller of
    d - y0N, d + y0N is sigma^2/e, free of cancellation: mu/(2d) is sigma/e
    for y0N >= 0, e/sigma below the boundary; alphas = betas * t**(-(N-2)/2).
    """
    sigma, y0N = params.sigma, params.y0[-1]
    d = np.sqrt(params.width2)
    e = d + abs(y0N)
    half_mu = sigma / e if y0N >= 0 else e / sigma
    t = 1.0 / (1.0 + half_mu**2)
    alphas = np.exp(log_profile(np.log(params.betas), t, params.N))
    return float(2.0 * d * half_mu), alphas
