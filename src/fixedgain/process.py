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
)
from .linalg import ORDER_CAP, Matrix
from .poly import Polynomial


def check_deriv(deriv: int, order: int) -> None:
    """Refuse a read-out derivative that is not an int in 0..order-1."""
    if not (isinstance(deriv, int) and 0 <= deriv < order):
        raise DerivativeIndexOutOfRange(f"derivative index must be in 0..{order - 1}, got {deriv}")


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
        if not isinstance(order, int) or order < 1 or order > ORDER_CAP:
            raise OrderOutOfRange(f"order must be an integer in 1..{ORDER_CAP}, got {order!r}")
        ts = float(ts)
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
    def transition_matrix(self) -> Matrix:
        """K x K one-step transition (upper-triangular Toeplitz)."""
        return self.transition(self.ts)

    @property
    def char_poly(self) -> Polynomial:
        """Characteristic polynomial (z - 1)**K: binomial coefficients."""
        return Polynomial([(-1) ** j * math.comb(self.order, j) for j in range(self.order + 1)])

    def transition(self, t: float) -> Matrix:
        """State transition over a signed time ``t`` (``transition(ts)`` is one
        step): the closed form ``t**k / k!`` is exact, as the chain is nilpotent."""
        return Matrix._of(tuple([_taylor_row(self.order, float(t), i) for i in range(self.order)]))

    def predictor_row(self) -> Matrix:
        """Row 0 of the one-step transition: the position implied for the next sample."""
        return Matrix._of((_taylor_row(self.order, self.ts, 0),))

    def output_row(self, lag: float, deriv: int = 0) -> Matrix:
        """Read-out row for the ``deriv``-th derivative at ``lag`` samples back.

        Row ``deriv`` of the transition over ``-lag * ts`` seconds.  ``lag``
        may be fractional or negative (negative means prediction ahead);
        ``output_row(0.0)`` picks off position.
        """
        check_deriv(deriv, self.order)
        return Matrix._of((_taylor_row(self.order, -float(lag) * self.ts, deriv),))
