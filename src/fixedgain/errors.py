"""Exception types raised by the fixedgain package.

Everything derives from :class:`FixedGainError`, which itself derives from
``ValueError`` so callers that don't care about the distinction can catch the
usual thing.  :func:`number` and :func:`numbers` convert every numeric
parameter the package's entry points take, so a number past the double range,
or a value that is not a number, raises one of them too; :func:`shown` prints
one in a message.
"""


class FixedGainError(ValueError):
    """Base class for all errors raised by this package."""


def numbers(values, what: str, convert=float,
            error: type[FixedGainError] = FixedGainError) -> tuple:
    """``tuple(map(convert, values))``, ``convert`` ``float`` or ``complex``:
    the package's one gate for numbers from outside.  A number past the double
    range (an int such as 10**400) raises ``error``; what ``convert`` refuses
    (a str, None, a ``values`` that is not iterable) raises FixedGainError, as
    does any complex where a real is needed, numpy's too, before ``float`` would
    take its real part with a warning.  Each message names ``what``."""
    try:
        if convert is float:  # one type() a float: a sweep operation passes here about 20 times
            for v in (values := tuple(values)):
                if type(v) is not float and isinstance(v, complex):
                    raise TypeError("a complex is not a real number")
        return tuple(map(convert, values))
    except OverflowError:
        raise error(f"{what} is past the double range") from None
    except (TypeError, ValueError) as exc:
        raise FixedGainError(f"{what} must be a number: {exc}") from None


def number(value, what: str, convert=float, error: type[FixedGainError] = FixedGainError):
    """The one ``value`` through :func:`numbers`."""
    return numbers((value,), what, convert, error)[0]


def shown(value) -> str:
    """``repr(value)`` for a message; an int too long for the interpreter to
    print in decimal (past 4,300 digits by default) is given by its sign and
    bit length, so building the message cannot raise."""
    try:
        return repr(value)
    except ValueError:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


# --- polynomial / matrix primitives ---------------------------------------

class NonRealCoefficients(FixedGainError):
    """A root set was not closed under conjugation, so the expanded
    polynomial has imaginary residue above tolerance."""


class DimensionMismatch(FixedGainError):
    """Matrix/vector operands have incompatible shapes."""


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


# --- command-line input -----------------------------------------------------

class InputDataError(FixedGainError):
    """Input CSV could not be parsed as sample data, or a design document
    could not be read back."""
