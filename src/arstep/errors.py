"""Exception types shared across the package.

Every error raised by arstep on bad input or numerical failure derives from
ArstepError, so callers can catch one base class. The CLI maps input-shaped
errors to exit code 2 and linear-algebra failures to exit code 3.
"""


class ArstepError(Exception):
    """Base class for all arstep errors."""


class NotUnitRoot(ArstepError):
    """The levels polynomial does not vanish at z = 1 within tolerance."""


class UnstableStationaryPart(ArstepError):
    """The deflated polynomial has a root on or inside the unit circle."""


class SingularGamma(ArstepError):
    """An autocovariance (Toeplitz) matrix failed positive-definiteness,
    or the Yule-Walker equations have no stationary solution."""


class SingularDesign(ArstepError):
    """A least-squares Gram matrix is numerically singular."""


class WindowTooShort(ArstepError):
    """A residual or criterion window contains no usable terms."""


class SeriesTooShort(ArstepError):
    """The series cannot support the requested estimation or selection."""


class InsufficientHistory(ArstepError):
    """Not enough trailing observations to form a regressor vector."""


class NonFiniteSeries(ArstepError):
    """The series holds a NaN or infinite value."""


class NonFiniteCriterion(ArstepError):
    """Every candidate of a selection stage has a NaN or infinite
    criterion, so none can be picked."""


#: Errors that indicate the *input* was unusable (CLI exit code 2).
INPUT_ERRORS = (NotUnitRoot, UnstableStationaryPart, WindowTooShort,
                SeriesTooShort, InsufficientHistory, NonFiniteSeries)

#: Errors that indicate a numerical failure during computation (exit code 3).
NUMERICAL_ERRORS = (SingularDesign, SingularGamma, NonFiniteCriterion)
