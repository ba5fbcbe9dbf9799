"""Exception types shared across the package."""


class SpinCatError(Exception):
    """Base class for all spincat errors."""


class DomainError(SpinCatError, ValueError):
    """A parameter lies outside the domain an operation is defined on."""


class ResolutionError(SpinCatError):
    """A quadrature grid is too coarse (or too narrow) for the requested state."""


class CapacityError(SpinCatError):
    """The required basis truncation exceeds the configured cap."""


class DegenerateStateError(SpinCatError):
    """A wavefunction with zero norm was encountered."""


class ImprobableOutcomeError(SpinCatError):
    """The conditional state weight underflowed: the outcome p_R is
    essentially impossible for the given state, as opposed to a mere
    numerical accident.  log_norm is the log of that weight's norm."""

    def __init__(self, p_R, log_norm):
        super().__init__(p_R, log_norm)
        self.p_R, self.log_norm = p_R, log_norm

    def __str__(self):
        return (f"outcome p_R={self.p_R} has conditional weight below 1e-300 "
                f"(log norm {self.log_norm:.1f})")


class NoFringeError(SpinCatError):
    """Too few zero crossings inside the envelope to estimate a fringe period."""
