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


class FitDiverged(HalfspaceBubblesError):
    """Boundary profile fit failed to reach the step tolerance."""

    code = "fit_diverged"


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
    """Shooting could not drive the terminal residuals below tolerance."""

    code = "shoot_failed"


class HorizonExceeded(HalfspaceBubblesError):
    """No positivity breakdown located before the time horizon.

    Flags a tolerance or setup problem, never a counterexample.
    """

    code = "horizon_exceeded"


class StencilOutOfDomain(HalfspaceBubblesError):
    """A finite-difference stencil point falls outside the field's domain."""

    code = "stencil_out_of_domain"


class NoRealRoot(HalfspaceBubblesError):
    """Scale-recovery quadratic has no real root (length scale exceeds profile width)."""

    code = "no_real_root"
