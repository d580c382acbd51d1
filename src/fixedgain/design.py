"""Fixed-gain observer design by pole placement.

Given an integrator-chain process and a set of desired closed-loop poles,
this module computes the correction-gain vector that places the observer's
poles exactly there, then assembles the closed-loop filter in kinematic
coordinates.  The gains come in closed form, from the observer polynomial in
powers of u = z - 1 and a per-order table of Stirling numbers; nothing is
inverted, so every stable pole set designs at every sampling period.  The
canonical forms are other views of the same loop, built on request by
:mod:`fixedgain.realize`.

The poles are the whole design surface: a single repeated pole ``p`` trades
bandwidth against noise through one number, with ``p = 0`` giving a deadbeat
(finite-memory) filter and ``p -> 1`` an ever-longer memory.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    FixedGainError,
    NonFiniteValue,
    UnstablePoles,
    number,
    numbers,
)
from .linalg import Matrix, identity_rows
from .poly import from_roots
from .process import ProcessModel, check_deriv
from .realize import Form, StateSpaceModel


class ObserverSpec(namedtuple("ObserverSpec", "process poles lag deriv")):
    """What to design: a process, the desired poles, and the read-out.

    Attributes (coerced and validated by every construction, ``_replace`` too):
        process: the integrator-chain model being tracked.
        poles: desired closed-loop poles, one per state, closed under
            conjugation.  Stability is enforced at design time.
        lag: read-out point in samples behind the newest measurement.
            Fractional and negative (prediction) values are allowed.
        deriv: which kinematic derivative the scalar output taps
            (0 = position, 1 = velocity, ...), an int in 0..K-1.
    """

    __slots__ = ()

    def __new__(cls, process: ProcessModel, poles: Sequence[complex], lag: float = 0.0,
                deriv: int = 0):
        poles = numbers(poles, "pole", complex)
        lag = number(lag, "lag")
        if not all(map(cmath.isfinite, poles + (lag,))):
            raise NonFiniteValue(f"poles and lag must be finite, got {poles}, {lag!r}")
        if len(poles) != process.order:
            raise DimensionMismatch(f"need {process.order} poles, got {len(poles)}")
        check_deriv(deriv, process.order)
        return super().__new__(cls, process, poles, lag, deriv)

    @classmethod
    def _make(cls, fields) -> ObserverSpec:  # _replace builds its copy here
        return cls(*fields)

    @classmethod
    def repeated(cls, process: ProcessModel, pole: float, lag: float = 0.0,
                 deriv: int = 0) -> ObserverSpec:
        """Spec with one real pole repeated across all states -- the common
        single-knob design.  Requires 0 <= pole < 1."""
        pole = number(pole, "pole")
        if not 0.0 <= pole < 1.0:
            raise UnstablePoles(f"repeated pole must satisfy 0 <= p < 1, got {pole!r}")
        return cls(process=process, poles=(pole,) * process.order, lag=lag, deriv=deriv)


class GainVectors(namedtuple("GainVectors", "kin pcf")):
    """Correction gain in both coordinate systems (K x 1 columns)."""

    __slots__ = ()


class DesignResult(namedtuple("DesignResult", "spec gains char_poly ss_kin")):
    """Everything the placement decides: the gains, the observer polynomial
    ``char_poly`` and the kinematic loop ``ss_kin``.  Its canonical forms,
    their transforms and the transfer function are built on request by
    :mod:`fixedgain.realize`."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return self.spec.process.order


@lru_cache(maxsize=None)
def _stirling(order: int) -> tuple[tuple[int, ...], ...]:
    """Signed Stirling numbers of the first kind, s(n, m) for n, m = 0..order."""
    table = [(1,) + (0,) * order]
    for n in range(1, order + 1):
        prev = table[-1]
        table.append(tuple((prev[m - 1] if m else 0) - (n - 1) * prev[m]
                           for m in range(order + 1)))
    return tuple(table)


def _scaled_gains(poles: Sequence[complex]) -> list[float]:
    """The ts-free part of the kinematic gains (:func:`_kinematic_gains`):
    the gains g_j = k_j ts^j / j! of the loop in scaled coordinates
    z_j = x_j ts^j / j!, alpha, beta and gamma / 2 for K <= 3.  With a_m
    the u^m coefficient of D(1+u), u = z - 1,

        g_j = sum_{n=j+1..K} s(n, j+1) a_{K-n} / (n-1)!

    For stable poles every factor of D(1+u) has positive coefficients, so
    the a_m carry no cancellation."""
    order = len(poles)
    a = from_roots([p - 1.0 for p in poles]).coeffs  # a[n] is the u^(K-n) coefficient
    s = _stirling(order)
    return [sum(s[n][j + 1] * a[n] / math.factorial(n - 1) for n in range(j + 1, order + 1))
            for j in range(order)]


def _kinematic_gains(poles: Sequence[complex], ts: float) -> list[float]:
    """Kinematic gain column placing ``poles``: Ackermann's formula with the
    observer polynomial in powers of u = z - 1, k_j = (j! / ts^j) g_j."""
    return [math.factorial(j) * ts ** -j * g for j, g in enumerate(_scaled_gains(poles))]


def design(spec: ObserverSpec) -> DesignResult:
    """Place the observer poles and assemble the kinematic-form filter.

    The kinematic gains come in closed form (:func:`_kinematic_gains`) and
    the companion gain is the coefficient gap between the observer and
    process polynomials.  The loop is closed against the predictor row and
    read out by the requested row.  A pole on or outside the unit circle
    raises :class:`UnstablePoles`; gains past the double range raise
    :class:`NonFiniteValue`.
    """
    model = spec.process
    for p in spec.poles:
        if abs(p) >= 1.0:
            raise UnstablePoles(f"pole {p} is not strictly inside the unit circle")
    char, proc, k = from_roots(spec.poles), model.char_poly, model.order
    gains = _kinematic_gains(spec.poles, model.ts)
    if not all(map(math.isfinite, gains)):
        raise NonFiniteValue(f"the gains overflow at ts = {model.ts!r}")
    gain_kin_vec = Matrix._of(tuple([(g,) for g in gains]))
    gain_pcf_vec = Matrix._of(tuple([(char[k - i] - proc[k - i],) for i in range(k)]))
    ss_kin = StateSpaceModel(
        form=Form.KIN,
        transition=model.transition_matrix - gain_kin_vec @ model.predictor_row(),
        input_gain=gain_kin_vec,
        output_row=model.output_row(spec.lag, spec.deriv),
        kin_from_form=Matrix._of(identity_rows(k)),
        form_from_kin=Matrix._of(identity_rows(k)),
    )
    return DesignResult(spec=spec, gains=GainVectors(kin=gain_kin_vec, pcf=gain_pcf_vec),
                        char_poly=char, ss_kin=ss_kin)


def memory_to_pole(memory: float) -> float:
    """Pole with the given memory length in samples: p = exp(-1/memory)."""
    memory = number(memory, "memory length")
    if not memory > 0.0:
        raise FixedGainError(f"memory length must be > 0, got {memory!r}")
    return math.exp(-1.0 / memory)


def pole_to_memory(pole: float) -> float:
    """Memory length in samples of a real pole in (0, 1): -1/ln(p)."""
    pole = number(pole, "pole")
    if not 0.0 < pole < 1.0:
        raise FixedGainError(f"memory is defined for 0 < p < 1, got {pole!r}")
    return -1.0 / math.log(pole)
