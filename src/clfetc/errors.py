"""Exception types shared across the toolkit."""


class ClfetcError(Exception):
    """Base of every toolkit error; the CLI reports these as ``error: ...``."""


class DimensionMismatchError(ClfetcError, ValueError):
    """A state or control vector has the wrong length for its system."""


class DomainError(ClfetcError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigurationError(ClfetcError, ValueError):
    """Inconsistent or incomplete configuration of a policy or estimator."""


class PropernessError(ClfetcError, RuntimeError):
    """A ray search failed to exit a sublevel set, so the Lyapunov function
    could not be certified proper along that direction."""


class NonDegeneracyError(ClfetcError, RuntimeError):
    """The velocity-to-decrease ratio of the closed loop diverged, so the
    non-degeneracy assumption fails and no finite dwell-time constant exists."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class BlowupError(ClfetcError, RuntimeError):
    """A frozen-input solution escaped the blow-up norm cap before any event."""

    def __init__(self, t, state):
        super().__init__(f"state norm exceeded the blow-up cap at t={t}")
        self.t = t
        self.state = state


class IntegrationError(ClfetcError, RuntimeError):
    """The adaptive stepper could not meet its tolerances."""
