"""Exception types shared across the package."""


class CogrelayError(Exception):
    """Base class for all package-specific errors."""


class NumericalInstability(CogrelayError):
    """A closed-form evaluation left its admissible range by more than the
    floating-point clamp tolerance, which signals an assembly bug rather
    than benign roundoff."""


class NearDegeneratePoles(CogrelayError):
    """Pole locations are too close for a stable partial-fraction
    expansion; callers must fall back to the quadrature path."""


class Infeasible(CogrelayError):
    """The power constraint cannot be met even with vanishing transmit
    power."""


class ConfigError(CogrelayError):
    """Malformed configuration file.  Carries the offending line number
    when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
