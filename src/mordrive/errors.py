"""Exception types shared across the package.

Two families matter for the CLI exit-code contract: ``ValidationError``
(bad input or violated precondition, exit code 2) and ``NumericError``
(numeric failure or method inapplicability, exit code 3).
"""


class MorDriveError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(MorDriveError):
    """Input or precondition problem; maps to CLI exit code 2."""


class NumericError(MorDriveError):
    """Numeric failure or method not applicable; maps to CLI exit code 3."""


class NonConvergence(NumericError):
    """Root iteration did not reach its residual target within budget."""


class NotFactorable(NumericError):
    """Denominator cannot be split into interlaced even/odd factors.

    Signals a non-Hurwitz or degenerate polynomial: complex or
    non-negative squared root magnitudes, or broken interlacing.
    """


class ZeroConstantTerm(NumericError):
    """Constant coefficient is zero where the method needs it nonzero."""


class NotNormalized(ValidationError):
    """Polynomial was expected to have unit constant term."""


class PoleAtOrigin(NumericError):
    """DC gain requested for a system with a pole at s = 0."""


class BadOrder(ValidationError):
    """Requested order is outside the valid range."""


class MatchInfeasible(NumericError):
    """Magnitude-matching conditions admit no real numerator: the matched
    series has a negative root u = b^2, which ``discriminant`` holds."""

    def __init__(self, message: str, discriminant: float):
        super().__init__(message)
        self.discriminant = discriminant


class ComplexMotorPoles(ValidationError):
    """Motor quadratic has complex roots; the two-time-constant model fails."""


class TimeConstantOrdering(ValidationError):
    """Derived time constants violate the required Tr < T2 < T1 ordering."""


class NoPositiveGain(NumericError):
    """Damping-ratio matching yields no strictly positive loop gain."""


class NoRealGain(NumericError):
    """Damping-ratio condition has no real solution for the loop gain."""

    def __init__(self, message: str, discriminant: float,
                 quadratic: tuple[float, float, float]):
        super().__init__(message)
        self.discriminant = discriminant
        self.quadratic = quadratic


class SimulationDiverged(NumericError):
    """Step simulation produced non-finite samples (an unstable system
    over a long horizon)."""


class GridMismatch(ValidationError):
    """Two traces do not share the same time grid."""


class NotSettled(NumericError):
    """Trace has not settled; response metrics are undefined."""
