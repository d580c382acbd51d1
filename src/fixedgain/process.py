"""Discrete integrator-chain process model in kinematic coordinates.

The tracked signal is modeled as a chain of K perfect integrators sampled
every ``ts`` seconds: the state holds position and its first K-1 time
derivatives, the transition matrix is the upper-triangular Toeplitz matrix
with ``ts**k / k!`` on the k-th superdiagonal, and the measurement picks off
position.  All K process poles sit at z = 1.
"""

from __future__ import annotations

import math

from .errors import (
    DerivativeIndexOutOfRange,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    OrderOutOfRange,
)
from .linalg import ORDER_CAP, Matrix
from .poly import from_roots


def _taylor_transition(order: int, t: float) -> Matrix:
    """Closed-form transition over an arbitrary (possibly negative) time t."""
    try:
        rows = [[t ** (j - i) / math.factorial(j - i) if j >= i else 0.0 for j in range(order)]
                for i in range(order)]
    except OverflowError:
        raise NonFiniteValue(f"transition over t = {t!r} overflows") from None
    return Matrix(rows)


class ProcessModel:
    """Kinematic model of an order-K integrator chain.

    Attributes:
        order: number of states K (1 = position only, 2 = +velocity, ...).
        ts: sampling period in seconds, strictly positive.
        transition_matrix: K x K one-step transition (upper-triangular Toeplitz).
        measurement_row: 1 x K row selecting position.
        char_poly: characteristic polynomial (z - 1)**K.
    """

    __slots__ = ("order", "ts", "transition_matrix", "measurement_row", "char_poly")

    def __init__(self, order: int, ts: float):
        if not isinstance(order, int) or order < 1 or order > ORDER_CAP:
            raise OrderOutOfRange(f"order must be an integer in 1..{ORDER_CAP}, got {order!r}")
        ts = float(ts)
        if not math.isfinite(ts):
            raise NonFiniteValue(f"sampling period must be finite, got {ts!r}")
        if not ts > 0.0:
            raise NonPositiveSamplingPeriod(f"sampling period must be > 0, got {ts!r}")
        self.order = order
        self.ts = ts
        self.transition_matrix = _taylor_transition(order, ts)
        self.measurement_row = Matrix.row_vector([1.0] + [0.0] * (order - 1))
        self.char_poly = from_roots([1.0] * order)

    def __repr__(self) -> str:
        return f"ProcessModel(order={self.order}, ts={self.ts!r})"

    def transition(self, t: float) -> Matrix:
        """State transition over a signed time interval ``t``.

        ``transition(ts)`` is the one-step matrix; fractional and negative
        intervals are fine because the closed form ``t**k / k!`` is exact for
        any real ``t`` (the chain is nilpotent, so the series terminates).
        """
        return _taylor_transition(self.order, float(t))

    def predictor_row(self) -> Matrix:
        """Measurement row composed with one step ahead: picks off the
        position the current state implies for the *next* sample."""
        return self.measurement_row @ self.transition_matrix

    def output_row(self, lag: float, deriv: int = 0) -> Matrix:
        """Read-out row for the ``deriv``-th derivative at ``lag`` samples back.

        Row ``deriv`` of the transition over ``-lag * ts`` seconds.  ``lag``
        may be fractional or negative (negative means prediction ahead).
        """
        if not 0 <= deriv < self.order:
            raise DerivativeIndexOutOfRange(
                f"derivative index must be in 0..{self.order - 1}, got {deriv}"
            )
        back = self.transition(-float(lag) * self.ts)
        return Matrix.row_vector(back.row(deriv))
