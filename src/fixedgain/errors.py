"""Exception types raised by the fixedgain package.

Everything derives from :class:`FixedGainError`, which itself derives from
``ValueError`` so callers that don't care about the distinction can catch the
usual thing.
"""


class FixedGainError(ValueError):
    """Base class for all errors raised by this package."""


# --- polynomial / matrix primitives ---------------------------------------

class NonRealCoefficients(FixedGainError):
    """A root set was not closed under conjugation, so the expanded
    polynomial has imaginary residue above tolerance."""


class DimensionMismatch(FixedGainError):
    """Matrix/vector operands have incompatible shapes."""


class SingularMatrix(FixedGainError):
    """Elimination hit a pivot too small to trust; the matrix has no
    usable inverse."""


class NotMonic(FixedGainError):
    """A characteristic polynomial was expected (leading coefficient
    exactly 1) but something else was supplied."""


class OrderOutOfRange(FixedGainError):
    """Requested filter order is outside the supported range."""


# --- model construction ----------------------------------------------------

class NonPositiveSamplingPeriod(FixedGainError):
    """Sampling period must be strictly positive."""


class NonFiniteValue(FixedGainError):
    """A parameter is nan or infinite, or a quantity built from finite
    parameters overflows the range of a double."""


class DerivativeIndexOutOfRange(FixedGainError):
    """Requested derivative output does not exist for this order."""


class UnstablePoles(FixedGainError):
    """One or more requested poles lie on or outside the unit circle."""


class Unobservable(FixedGainError):
    """The observability matrix is numerically singular; no similarity
    transform to the observable canonical coordinates exists."""


class Uncontrollable(FixedGainError):
    """The controllability matrix is numerically singular; no similarity
    transform to the controllable canonical coordinates exists."""


class FormMismatch(FixedGainError):
    """A filter state was advanced through a realization in different
    coordinates than the state was initialized in."""


# --- response analysis ------------------------------------------------------

class NotNormalized(FixedGainError):
    """Recursion denominator must have leading coefficient exactly 1."""


class NonConvergent(FixedGainError):
    """A response does not decay, so its sum cannot converge: the
    denominator has a pole on or outside the unit circle (decided exactly,
    for the white-noise gain and the impulse response alike), or an impulse
    response is still above its tolerance after a million samples."""


class PoleOnUnitCircle(FixedGainError):
    """Frequency response is singular at the requested frequency."""


class PoleAtOne(FixedGainError):
    """Steady-state (dc) evaluation is singular: the denominator at z = 1
    vanishes, or is not resolved from zero by its coefficients."""
