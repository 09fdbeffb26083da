"""Inversion of the half-space onto a ball and the transported fields.

With boundary center xbar and width d, set Q = xbar + d e_N and
P = xbar - d e_N.  Inversion about the sphere of radius 2d centered at P,

    T y = P + 4 d^2 (y - P) / |y - P|^2,

maps the open half-space onto the ball B(Q, 2d) and is its own inverse.
A half-space field u transports to its Kelvin transform about that sphere,

    v(z) = (2d / |z - P|)**(N-2) * u(T z),

which for a family member with matching (xbar, d) is radially symmetric
about Q and satisfies the ball system with a Robin boundary term.  T is
the :class:`~halfspace_bubbles.kelvin_inversion.SphereInversion` about P
with radius 2d; this module checks its four mapping properties, evaluates
v, and recovers the radial closed-form parameters (mu, alphas).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bubble_family import BubbleParams, exponent_product, log_profile
from .errors import NoRealRoot, StencilOutOfDomain
from .exponent_system import EllipticSystemSpec
from .fd_verifier import ResidualReport, central_laplacian, one_sided_derivative
from .kelvin_inversion import SphereInversion, critical_radius, kelvin_point, kelvin_transform_u
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

    @property
    def T(self) -> SphereInversion:
        """The half-space-to-ball map: inversion about P with radius 2d."""
        return SphereInversion(self.P, 2 * self.d)


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

    def to_dict(self) -> dict:
        return {
            "involution_max_rel": self.involution_max_rel,
            "containment_max_ratio": self.containment_max_ratio,
            "containment_strict": self.containment_strict,
            "boundary_sphere_max_rel": self.boundary_sphere_max_rel,
            "boundary_min_dist_to_P": self.boundary_min_dist_to_P,
            "plane_max_rel": self.plane_max_rel,
            "mirror_max_rel": self.mirror_max_rel,
            "n_samples": self.n_samples,
        }


def verify_T_properties(
    setup: ConformalSetup,
    boundary_xs: list[np.ndarray],
    samples: np.ndarray,
    n_sphere: int = 512,
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

    Nothing raises here; the report carries the measured violations.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    d, P, Q, T = setup.d, setup.P, setup.Q, setup.T
    if np.min(np.linalg.norm(samples - P, axis=1)) < 1e-8:
        raise ValueError("samples must keep distance >= 1e-8 from the pole P")

    # (i) involution
    img = kelvin_point(T, samples)
    back = kelvin_point(T, img)
    inv_rel = np.linalg.norm(back - samples, axis=1) / (np.linalg.norm(samples - P, axis=1) + d)
    involution_max = float(np.max(inv_rel))

    # (ii) containment and boundary pushforward
    ratio = np.linalg.norm(img - Q, axis=1) / (2 * d)
    bpts = samples.copy()
    bpts[:, -1] = 0.0
    bimg = kelvin_point(T, bpts)
    sphere_rel = np.abs(np.linalg.norm(bimg - Q, axis=1) - 2 * d) / (2 * d)
    min_dist_P = float(np.min(np.linalg.norm(bimg - P, axis=1)))

    # (iii) critical spheres map into hyperplanes through Q
    plane_max: dict = {}
    mirror_max: dict = {}
    for x in boundary_xs:
        x = np.asarray(x, dtype=float)
        lam = critical_radius(d**2, setup.xbar, x)
        normal = (x - P) / np.linalg.norm(x - P)
        dirs = unit_directions(setup.N, n_sphere, seed, upper=True)
        z = x + lam * dirs
        tz = kelvin_point(T, z)
        plane_dist = np.abs((tz - Q) @ normal)
        key = ",".join(repr(float(v)) for v in x)
        plane_max[key] = float(np.max(plane_dist) / d)

        # (iv) mirror pairs across the hyperplane
        zin = ball_points(Q, 2 * d, n_sphere, seed + 1, margin=1e-3 * d)
        zmir = zin - 2 * ((zin - Q) @ normal)[:, None] * normal
        keep = np.linalg.norm(zmir - P, axis=1) > 1e-9 * d
        zin, zmir = zin[keep], zmir[keep]
        lhs = kelvin_point(T, zmir)
        rhs = kelvin_point(SphereInversion(x, lam), kelvin_point(T, zin))
        rel = np.linalg.norm(lhs - rhs, axis=1) / (np.linalg.norm(lhs - x, axis=1) + lam)
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

    Within 1e-9 * d of P the value is the exact limit 2**(2-N) * u(xbar).
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    pts = np.atleast_2d(z)
    near = np.linalg.norm(pts - setup.P, axis=1) <= EXTENSION_RADIUS_FACTOR * setup.d
    far = ~near

    out = None
    if np.any(far):
        vals_far = kelvin_transform_u(u, setup.T, pts[far])
        out = np.empty((pts.shape[0], vals_far.shape[1]))
        out[far] = vals_far
    if np.any(near):
        ext = 2.0 ** (2 - setup.N) * np.asarray(u(setup.xbar[None, :]), dtype=float)[0]
        if out is None:
            out = np.tile(ext, (pts.shape[0], 1))
        else:
            out[near] = ext
    return out[0] if single else out


def ball_field(setup: ConformalSetup, u):
    """Evaluator closure for the transported field on the closed ball."""

    def field(points: np.ndarray) -> np.ndarray:
        return transform_v(setup, u, points)

    return field


def verify_radial(
    setup: ConformalSetup,
    v,
    radii: np.ndarray,
    angular_samples: int | np.ndarray = 256,
    seed: int = 20240902,
) -> np.ndarray:
    """Per-radius max of |v - sphere mean| / mean over component spheres about Q.

    Radial symmetry about Q holds exactly for transported family members;
    any center mismatch shows up as an O(1) variation here.
    """
    radii = np.atleast_1d(np.asarray(radii, dtype=float))
    if np.any(radii >= 2 * setup.d):
        raise ValueError("radii must be below the ball radius 2d")
    if isinstance(angular_samples, (int, np.integer)):
        dirs = unit_directions(setup.N, int(angular_samples), seed)
    else:
        dirs = np.atleast_2d(np.asarray(angular_samples, dtype=float))
    out = np.empty(radii.size)
    for k, r in enumerate(radii):
        vals = np.asarray(v(setup.Q + r * dirs), dtype=float)
        mean = vals.mean(axis=0)
        out[k] = float(np.max(np.abs(vals - mean) / mean))
    return out


def ball_system_residual(
    spec: EllipticSystemSpec,
    setup: ConformalSetup,
    v,
    interior_samples: np.ndarray,
    boundary_samples: np.ndarray,
    h: float,
) -> ResidualReport:
    """Discrete residuals of the ball system for a transported field.

    Interior residual: central-stencil Laplacian plus the exponent product.
    Boundary residual at points on the sphere: outward radial derivative by
    a one-sided interior stencil, plus (N-2)/(4d) v, plus the boundary
    product (the transported flux term enters with opposite sign).
    """
    interior = np.atleast_2d(np.asarray(interior_samples, dtype=float))
    boundary = np.atleast_2d(np.asarray(boundary_samples, dtype=float))
    d, Q = setup.d, setup.Q
    N = setup.N

    if np.any(np.linalg.norm(interior - Q, axis=1) > 2 * d - 3 * h):
        raise StencilOutOfDomain("interior samples must stay 3h away from the sphere")
    if np.any(np.abs(np.linalg.norm(boundary - Q, axis=1) - 2 * d) > 1e-9 * d):
        raise StencilOutOfDomain("boundary samples must lie on the sphere")

    lap, center = central_laplacian(v, interior, h)
    res_int = lap + exponent_product(spec.A, np.log(center))

    # outward derivative = minus the one-sided derivative along -nu
    d_inward, v0 = one_sided_derivative(v, boundary, -(boundary - Q) / (2 * d), h)
    res_bdy = -d_inward + (N - 2) / (4 * d) * v0 + spec.c * exponent_product(spec.B, np.log(v0))
    return ResidualReport.from_residuals(res_int, res_bdy, interior, boundary, h)


def recover_mu_alpha(
    setup: ConformalSetup, params: BubbleParams
) -> tuple[float, np.ndarray]:
    """Radial closed-form parameters (mu, alphas) of the transported field.

    Solves t^2 - t + sigma^2/(4 d^2) = 0 for t = 4d^2/(mu^2 + 4d^2) and
    picks the root whose implied center height d(2t - 1) matches the sign
    of y0N (both roots are positive; only the center display separates
    them).  Then mu = 2d sqrt((1-t)/t) and alphas = betas * t**(-(N-2)/2).

    Raises
    ------
    NoRealRoot
        If sigma^2 exceeds d^2 beyond rounding; cannot happen for a setup
        derived from valid parameters, where d^2 = sigma^2 + y0N^2.
    """
    d = setup.d
    sigma = params.sigma
    y0N = params.y0[-1]
    N = params.N

    disc = 1.0 - sigma**2 / d**2
    if disc < -1e-12:
        raise NoRealRoot(f"sigma^2 = {sigma**2} exceeds d^2 = {d**2}")
    root = np.sqrt(max(disc, 0.0))
    candidates = np.array([(1.0 + root) / 2.0, (1.0 - root) / 2.0])
    displays = d * (2.0 * candidates - 1.0)
    t = float(candidates[np.argmin(np.abs(displays - y0N))])

    mu = 2.0 * d * np.sqrt((1.0 - t) / t)
    alphas = np.exp(log_profile(np.log(params.betas), t, N))
    return float(mu), alphas
