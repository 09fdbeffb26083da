"""Bubble solution families of a semilinear elliptic half-space system.

Construction of the classified solution parameters, evaluation of the
explicit solutions, and numerical verification of the structure around
them: sphere-inversion symmetry at the critical radius, conformal
transport to a ball, the radial profile system, and the one-dimensional
nonexistence certificate.
"""

from .bubble_family import (
    BoundaryProfileFit,
    BubbleParams,
    LogLinearSolveResult,
    boundary_residual_analytic,
    bubble_field,
    compute_y0N,
    evaluate_bubble,
    evaluate_bubble_derivatives,
    fit_boundary_profile,
    interior_residual_analytic,
    load_params,
    make_bubble_params,
    solve_betas,
)
from .conformal_ball import (
    ConformalSetup,
    ball_system_residual,
    recover_mu_alpha,
    setup_from_params,
    transform_v,
    verify_radial,
    verify_T_properties,
)
from .exponent_system import (
    EllipticSystemSpec,
    ValidationReport,
    is_irreducible,
    load_spec,
    save_spec,
    validate_spec,
)
from .fd_verifier import (
    ConvergenceReport,
    ResidualReport,
    central_laplacian,
    convergence_order,
    one_sided_derivative,
    residual_sweep,
)
from .kelvin_inversion import (
    SphereInversion,
    SweepResult,
    critical_lambda_exact,
    decay_check,
    difference_w,
    kelvin_point,
    kelvin_transform_u,
    sweep_moving_spheres,
    verify_symmetry_identity,
)
from .radial_ode import (
    BreakdownCertificate,
    RadialTrajectory,
    closed_form_psi,
    halfline_breakdown,
    integrate_radial,
    shoot_robin,
)

__version__ = "0.1.0"
