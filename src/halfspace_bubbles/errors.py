"""Exception types raised by the library.

Every exception carries a stable ``code`` used by the CLI for its
machine-readable error output.
"""


class HalfspaceBubblesError(Exception):
    """Base class for all library errors."""

    code = "error"


class MalformedSpec(HalfspaceBubblesError):
    """System data is structurally broken (shapes, non-finite entries)."""

    code = "malformed_spec"


class NoBubbleParameters(HalfspaceBubblesError):
    """The amplitude equations are inconsistent; no parameter branch exists."""

    code = "no_bubble_parameters"


class IncompatibleBoundaryCoefficients(HalfspaceBubblesError):
    """The per-row center heights disagree; no single bubble center exists."""

    code = "incompatible_boundary_coefficients"


class SingularPoint(HalfspaceBubblesError):
    """Evaluation requested at (or numerically on top of) an inversion center."""

    code = "singular_point"


class BadBracket(HalfspaceBubblesError):
    """Sweep started past the critical radius; lower endpoint already negative."""

    code = "bad_bracket"


class StepFailure(HalfspaceBubblesError):
    """Adaptive integrator could not proceed (step size underflow)."""

    code = "step_failure"


class PositivityLoss(HalfspaceBubblesError):
    """A component left the positive cone before the requested endpoint."""

    code = "positivity_loss"


class ShootFailed(HalfspaceBubblesError):
    """Shooting missed the Robin condition, or its reference failed the Kelvin duality check."""

    code = "shoot_failed"


class HorizonExceeded(HalfspaceBubblesError):
    """No positivity breakdown located before the unit-scale time horizon.

    Flags a setup problem, never a counterexample.
    """

    code = "horizon_exceeded"


class StencilOutOfDomain(HalfspaceBubblesError):
    """A finite-difference stencil point falls outside the field's domain."""

    code = "stencil_out_of_domain"


class NonFiniteReport(HalfspaceBubblesError):
    """A report value is NaN or infinite, which strict JSON cannot hold."""

    code = "non_finite_report"
