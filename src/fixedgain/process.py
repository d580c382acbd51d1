"""Discrete integrator-chain process model in kinematic coordinates.

The tracked signal is modeled as a chain of K perfect integrators sampled
every ``ts`` seconds: the state holds position and its first K-1 time
derivatives, the transition matrix is the upper-triangular Toeplitz matrix
with ``ts**k / k!`` on the k-th superdiagonal, and the measurement picks off
position.  All K process poles sit at z = 1.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import (
    DerivativeIndexOutOfRange,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    OrderOutOfRange,
    number,
    shown,
)
from .linalg import ORDER_CAP


def check_deriv(deriv: int, order: int) -> None:
    """Refuse a read-out derivative that is not an int in 0..order-1; a bool is not one."""
    if not (isinstance(deriv, int) and not isinstance(deriv, bool) and 0 <= deriv < order):
        raise DerivativeIndexOutOfRange(
            f"derivative index must be in 0..{order - 1}, got {shown(deriv)}")


def _taylor_row(order: int, t: float, i: int) -> tuple[float, ...]:
    """Row i of the closed-form transition over any (signed) time t: t**(j-i) / (j-i)!.
    A row with an entry past the double range (t itself may be infinite, and
    the last row (0, .., 0, 1) is finite at any t) raises NonFiniteValue."""
    try:
        row = (0.0,) * i + tuple(t ** m / math.factorial(m) for m in range(order - i))
        if all(map(math.isfinite, row)):
            return row
    except OverflowError:
        pass
    raise NonFiniteValue(f"transition over t = {t!r} overflows")


class ProcessModel(namedtuple("ProcessModel", "order ts")):
    """Kinematic model of an order-K integrator chain.

    Attributes (validated by every construction, ``_replace`` too):
        order: number of states K (1 = position only, 2 = +velocity, ...).
        ts: sampling period in seconds, > 0, with ts**(K-1) and ts**(1-K)
            inside the double range.  The rest is built from these on request.
    """

    __slots__ = ()

    def __new__(cls, order: int, ts: float):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1 or order > ORDER_CAP:
            raise OrderOutOfRange(f"order must be an integer in 1..{ORDER_CAP}, got {shown(order)}")
        ts = number(ts, "sampling period", error=NonFiniteValue)
        if not math.isfinite(ts):
            raise NonFiniteValue(f"sampling period must be finite, got {ts!r}")
        if not ts > 0.0:
            raise NonPositiveSamplingPeriod(f"sampling period must be > 0, got {ts!r}")
        try:
            ts ** (order - 1), ts ** (1 - order)
        except OverflowError:
            raise NonFiniteValue(f"ts = {ts!r} overflows the design's scaling") from None
        return super().__new__(cls, order, ts)

    @classmethod
    def _make(cls, fields) -> ProcessModel:  # _replace builds its copy here
        return cls(*fields)

    @property
    def transition_matrix(self) -> tuple[tuple[float, ...], ...]:
        """Rows of the K x K one-step transition (upper-triangular Toeplitz)."""
        return self.transition(self.ts)

    @property
    def char_poly(self) -> tuple[float, ...]:
        """Characteristic polynomial (z - 1)**K: binomial coefficients, as floats."""
        return tuple([float((-1) ** j * math.comb(self.order, j)) for j in range(self.order + 1)])

    def transition(self, t: float) -> tuple[tuple[float, ...], ...]:
        """Rows of the transition over a signed time ``t`` (``transition(ts)`` is one
        step): the closed form ``t**k / k!`` is exact, as the chain is nilpotent."""
        t = number(t, "transition time", error=NonFiniteValue)
        return tuple([_taylor_row(self.order, t, i) for i in range(self.order)])

    def output_row(self, lag: float, deriv: int = 0) -> tuple[float, ...]:
        """Read-out row for the ``deriv``-th derivative at ``lag`` samples back.

        Row ``deriv`` of the transition over ``-lag * ts`` seconds.  ``lag``
        may be fractional or negative (negative means prediction ahead);
        ``output_row(0.0)`` picks off position.
        """
        check_deriv(deriv, self.order)
        lag = number(lag, "lag", error=NonFiniteValue)
        return _taylor_row(self.order, -lag * self.ts, deriv)
