"""State-space realizations of a designed tracking filter.

A design comes out of :func:`fixedgain.design.design` in kinematic (KIN)
coordinates, where the state is physically meaningful (position, velocity,
...).  This module rebases it into three canonical coordinate systems:

* PCF - the process is in companion form; the gain there is the coefficient
  gap between the process and observer characteristic polynomials.
* OCF - observable canonical form; the input gain column holds the
  transfer-function numerator.
* CCF - controllable canonical form; the output row holds the numerator.
  Built as the dual observable form, by the builder PCF and OCF share.

All four realizations produce identical input/output behavior; only the
internal state coordinates differ.  Each carries the similarity transform to
and from kinematic coordinates so state estimates remain interpretable.  Each
builder rebases the design afresh on every call (OCF and CCF by one solve
each, PCF from a per-order table) and certifies the transform, raising
:class:`Unobservable` or :class:`Uncontrollable` when it cannot.

The transfer function needs no canonical form: :func:`transfer_coefficients`
rounds the exact pair of the loop the design runs, computed in integers.

The ``filter`` command runs a fifth view of the loop, not a realization:
:class:`_ScaledLoop`, the alpha-beta-gamma recursion in scaled coordinates
z_j = x_j ts^j / j!, built in :mod:`fixedgain.design` beside the gains it
scales.  It predicts by a Taylor shift and corrects by the gains, about a
third of the arithmetic of the dense kinematic transition, as straight-line
Python compiled once per order here.
"""

from __future__ import annotations

import enum
import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from operator import mul, or_, sub
from types import CodeType, FunctionType

from .errors import (
    DimensionMismatch,
    FixedGainError,
    FormMismatch,
    NonFiniteValue,
    NotMonic,
    Uncontrollable,
    Unobservable,
    number,
    numbers,
)
from .linalg import ORDER_CAP, Matrix, _check_shape, _dot, identity_rows
from .process import ProcessModel, _taylor_row


class Form(str, enum.Enum):
    """Coordinate system a realization (or a filter state) lives in."""

    KIN = "kin"
    PCF = "pcf"
    OCF = "ocf"
    CCF = "ccf"
    SCALED = "scaled"


# Every constructed transform pair must reproduce the canonical matrices when
# it conjugates the kinematic ones.  Residuals above this bound mean the
# coordinates are too close to degenerate to certify in double precision.
_CERTIFY_TOL = 1e-8


class StateSpaceModel(namedtuple("StateSpaceModel", "form transition input_gain output_row"
                                 " kin_from_form form_from_kin")):
    """One realization: w[n] = transition @ w[n-1] + input_gain * x[n],
    y[n] = output_row @ w[n] (the output uses the *updated* state).  The K x K
    transition, K x 1 input gain and 1 x K output row are in ``form``
    coordinates; ``kin_from_form`` maps its state into kinematic ones.  Every
    construction, ``_replace`` too, refuses a field that is not a Matrix, other
    shapes or K > ORDER_CAP."""

    __slots__ = ()

    def __new__(cls, form, transition, input_gain, output_row, kin_from_form, form_from_kin):
        try:  # a field that is not a Matrix fails here: no .data, or an ndarray's memoryview
            rows = a, b, c, s, t = (transition.data, input_gain.data, output_row.data,
                                    kin_from_form.data, form_from_kin.data)
            k = len(a)  # the order: one compare of every other side against it
            fits = (len(a[0]), len(b), len(b[0]), len(c), len(c[0]), len(s), len(s[0]), len(t),
                    len(t[0])) == (k, k, 1, 1, k, k, k, k, k) and k <= ORDER_CAP
        except (AttributeError, TypeError, NotImplementedError):
            fits = False
        if not fits:
            for name, m in zip(cls._fields[1:], (transition, input_gain, output_row,
                                                 kin_from_form, form_from_kin)):
                if not isinstance(m, Matrix):
                    raise DimensionMismatch(f"{name} must be a Matrix, not {type(m).__name__}")
            _check_shape(k, k, "transition")
            for name, m, want in zip(cls._fields[1:], rows,
                                     [(k, k), (k, 1), (1, k), (k, k), (k, k)]):
                if (len(m), len(m[0])) != want:
                    raise DimensionMismatch(f"{name} is {len(m)}x{len(m[0])}, not %dx%d" % want)
        return tuple.__new__(cls, (form, transition, input_gain, output_row, kin_from_form,
                                   form_from_kin))

    @classmethod
    def _make(cls, fields) -> StateSpaceModel:  # _replace builds its copy here
        return cls(*fields)

    @property
    def order(self) -> int:
        return len(self.transition.data)

    def _advance(self, w: list, x: float) -> float:
        """Step ``w`` in place and read the output from it.  ``float(x - 0.0)`` is x's double;
        a complex or str x or entry of w raises TypeError, a w of another length ValueError,
        before w moves.  Every product runs over the whole state, so one complex entry
        makes each result complex, and the output's type shows it."""
        x, dot = float(x - 0.0), _dot(self.order)
        new = [dot(row, w) + h * x
               for row, (h,) in zip(self.transition.data, self.input_gain.data)]
        y = dot(self.output_row.data[0], new)
        if type(y) is not float and isinstance(y, complex):  # a float costs one type()
            raise TypeError("complex state vector")
        w[:] = new
        return y

    def _kinematic(self, w: Sequence[float]) -> tuple[float, ...]:
        kin = tuple(map(_dot(self.order), self.kin_from_form.data, repeat(w)))
        if isinstance(kin[0], complex):  # as in _advance
            raise TypeError("complex state vector")
        return kin

    def _from_kin(self, kin: Sequence[float]) -> list[float]:
        return list(map(_dot(self.order), self.form_from_kin.data, repeat(kin)))

    def _output(self, w: Sequence[float]) -> float:
        y = _dot(self.order)(self.output_row.data[0], w)
        if isinstance(y, complex):  # as in _advance
            raise TypeError("complex state vector")
        return y


class _ScaledLoop(namedtuple("_ScaledLoop", "gain output to_kin from_kin")):
    """The design's loop in scaled coordinates z_j = x_j ts^j / j!
    (:attr:`Form.SCALED`), where the integrator chain over one step is the
    Pascal matrix, a Taylor shift.  It holds the gains g_j = k_j ts^j / j!,
    the read-out row o_j = c_j j! / ts^j and the diagonals j! / ts^j and
    ts^j / j! of the maps to and from kinematic coordinates.  Its
    ``_advance`` and ``_kinematic`` are the compiled functions of
    :func:`_scaled_code`, its coefficients bound in, built on first use."""

    form = Form.SCALED

    def __getstate__(self) -> None:
        return None  # the compiled functions cannot be pickled; a copy rebuilds them

    @property
    def order(self) -> int:
        return len(self.gain)

    @cached_property
    def _advance(self) -> FunctionType:
        return FunctionType(_scaled_code(self.order)[0], _KERNEL_GLOBALS, None,
                            self.gain + self.output)

    @cached_property
    def _kinematic(self) -> FunctionType:
        return FunctionType(_scaled_code(self.order)[1], _KERNEL_GLOBALS, None, self.to_kin)

    def _from_kin(self, kin: Sequence[float]) -> list[float]:
        return list(map(mul, self.from_kin, kin))

    def _output(self, z: Sequence[float]) -> float:
        return _dot(self.order)(self.output, z)


# Globals of the compiled scaled kernel: its source calls float.
_KERNEL_GLOBALS = {"float": float}


@lru_cache(maxsize=None)
def _scaled_code(k: int) -> tuple[CodeType, CodeType]:
    """Code objects of the order-``k`` scaled kernel, ``advance(z, x, *gain,
    *output)`` and ``kinematic(z, *to_kin)``.  The source holds only names;
    the coefficients are the parameters, bound as defaults by
    :class:`_ScaledLoop`, so any float (nan, inf, -0.0) enters as a value.
    ``advance`` predicts by a Taylor shift (K(K-1)/2 additions), sets
    e = float(x - z0) (a complex or str x raises TypeError before ``z`` is
    written) and z_j += g_j e, and returns 0.0 + o0 z0 + o1 z1 + ... summed
    left to right; ``kinematic`` is K products."""
    z, g, o = ([f"{v}{j}" for j in range(k)] for v in "zgo")
    state = ", ".join(z) + ","
    shift = "".join(f"    z{j} += z{j + 1}\n"
                    for i in range(k - 1) for j in range(k - 2, i - 1, -1))
    namespace: dict = {}
    exec(f"def advance(z, x, {', '.join(g + o)}):\n"
         f"    {state} = z\n{shift}"
         f"    e = float(x - z0)\n"
         f"    z[:] = {state} = ({', '.join(f'{v} + {h} * e' for v, h in zip(z, g))},)\n"
         f"    return {' + '.join(['0.0', *(f'{c} * {v}' for c, v in zip(o, z))])}\n"
         f"def kinematic(z, {', '.join(f'd{j}' for j in range(k))}):\n"
         f"    {state} = z\n"
         f"    return ({', '.join(f'z{j} * d{j}' for j in range(k))},)\n", namespace)
    return namespace["advance"].__code__, namespace["kinematic"].__code__


class FilterState:
    """Mutable running state of one filter instance: its form and vector."""

    __slots__ = ("form", "vector")

    def __init__(self, form: Form, vector: list[float]):
        self.form, self.vector = form, vector

    def __repr__(self) -> str:
        return f"FilterState(form={self.form!r}, vector={self.vector!r})"


def companion_matrix(column: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """Rows of the companion matrix with the given last column over a shifted identity.

    For column (g0, .., g_{K-1}) this is the K x K matrix whose last column is
    the given one and whose first K-1 columns are the identity shifted down
    one row -- the transition-matrix shape shared by the PCF and OCF forms.
    """
    column = numbers(column, "companion column entry")
    rows = identity_rows(len(column))  # rotated down one row, last column dropped
    return tuple([row[:-1] + (g,) for row, g in zip(rows[-1:] + rows[:-1], column)])


def _observable_form(
    c: tuple, rows_a: tuple, column: Sequence[float], error: FixedGainError
) -> tuple[tuple, tuple]:
    """Rows of the similarity pair ``(kin_from_form, form_from_kin)`` from the
    rows (c, A) to the companion transition with last column ``column`` =
    (g_0, .., g_{K-1}) read by the last unit row.

    ``form_from_kin`` has Horner's rows: t_{K-1} = c, t_{i-1} = t_i A - g_i c.
    ``kin_from_form`` is the Krylov matrix [x, Ax, .., A^{K-1} x] of the x
    that the observability stack (rows c A^i) maps to the last unit vector
    (:func:`_last_unit_solve`).  A singular stack raises ``error``.
    """
    k = len(column)
    dot, columns = _dot(k), tuple(zip(*rows_a))
    stack = [c]
    for _ in range(k - 1):
        stack.append(tuple([dot(stack[-1], a) for a in columns]))
    krylov = [_last_unit_solve(stack, error)]
    for _ in range(k - 1):
        krylov.append([dot(a, krylov[-1]) for a in rows_a])
    horner = [c]
    for g in column[:0:-1]:
        horner.append(tuple([dot(horner[-1], a) - g * v for a, v in zip(columns, c)]))
    return tuple(zip(*krylov)), tuple(horner[::-1])


def _last_unit_solve(stack: list, error: FixedGainError) -> list[float]:
    """The x with ``stack`` x = e_K, the last unit vector, by Gauss-Jordan
    elimination of the rows of ``stack`` (K float tuples of length K)
    extended by e_K, with partial pivoting on the largest magnitude.

    Raises ``error`` only at a pivot of exactly 0.0, a test that a
    power-of-two scaling of the columns leaves alone; :func:`_certified`
    refuses a stack singular within roundoff.  Each step multiplies by the
    reciprocal pivot and updates only the columns right of its pivot, and
    the right side.
    """
    k = len(stack)
    rows = [row + (e,) for row, e in zip(stack, identity_rows(k)[-1])]
    for col in range(k):
        # rows[r] holds row r from column col on: no step reads an earlier column.
        p = max(range(col, k), key=lambda r: abs(rows[r][0]))
        pivot = rows[p][0]
        if pivot == 0.0:
            raise error
        rows[col], rows[p] = rows[p], rows[col]
        inv_p = 1.0 / pivot
        pivot_vals = [v * inv_p for v in rows[col][1:]]
        for r, row in enumerate(rows):
            f = row[0]
            rows[r] = (pivot_vals if r == col else row[1:] if f == 0.0
                       else [v - f * w for v, w in zip(row[1:], pivot_vals)])
    return [x for x, in rows]


def companion_column(char) -> tuple[float, ...]:
    """Last column of the companion matrix whose characteristic polynomial
    has the coefficients ``char`` (descending powers): entry k is
    ``-char[K-k]``.  ``char`` must be monic, of degree >= 1."""
    char = numbers(char, "polynomial coefficient")
    if char and char[0] != 1.0:
        raise NotMonic(f"expected leading coefficient 1, got {char[0]!r}")
    k = len(char) - 1
    if k < 1:
        raise NotMonic("characteristic polynomial must have degree >= 1")
    return tuple(-char[k - i] for i in range(k))


def pcf_transform(model: ProcessModel) -> tuple[tuple, tuple]:
    """Rows of the similarity pair ``(kin_from_pcf, pcf_from_kin)`` between
    kinematic and process-companion coordinates.

    F(ts) = S^-1 F(1) S with S = diag(ts^j), and the predictor row scales
    alike, so the pair (T1^-1, T1) of ts = 1 is built once per order, by
    :func:`_observable_form`, and scaled: ``kin_from_pcf`` = S^-1 T1^-1 and
    ``pcf_from_kin`` = T1 S.
    """
    unit_kin_from_pcf, unit_pcf_from_kin = _unit_pcf_transform(model.order)
    down = [model.ts ** -j for j in range(model.order)]  # finite: ProcessModel checks both
    up = [model.ts ** j for j in range(model.order)]
    return (tuple([tuple([v * d for v in row]) for row, d in zip(unit_kin_from_pcf, down)]),
            tuple([tuple(map(mul, row, up)) for row in unit_pcf_from_kin]))


@lru_cache(maxsize=None)
def _unit_pcf_transform(order: int) -> tuple[tuple, tuple]:
    """The rows of the ts = 1 pair, built once per order."""
    model = ProcessModel(order, 1.0)  # row 0 of its transition predicts
    return _observable_form(model.transition_matrix[0], model.transition_matrix,
                            companion_column(model.char_poly),
                            Unobservable("process/predictor pair is not observable at this order"))


def _certified(result: "DesignResult", form: Form, error, transition: tuple, pair: tuple,
               gain: tuple = (), row: tuple = ()) -> StateSpaceModel:
    """The certified realization of ``result`` in ``form`` from its
    ``transition`` rows, the rows of ``pair`` = (kin_from_form,
    form_from_kin) = (S, T), and whichever of its input column ``gain`` and
    output ``row`` the form fixes.  The other is mapped across from ``ss_kin``
    = (A, b, c) as T b or c S, each entry a left-to-right product.
    One pass takes the worst residual of T b = gain, c S = row and
    (T A) S = transition, a nan read as inf; above the bound it raises
    ``error``, the one test of a numerically degenerate OCF or CCF.  Each
    field is wrapped once."""
    kin = result.ss_kin
    kin_from_form, form_from_kin = pair
    dot, columns_a = _dot(kin.order), tuple(zip(*kin.transition.data))
    columns_s = tuple(zip(*kin_from_form))
    tb = list(map(dot, form_from_kin, repeat(kin.input_gain.col(0))))
    cs = [dot(kin.output_row.data[0], s) for s in columns_s]
    gain = gain or tuple(tb)  # a field mapped across gaps 0 from itself, nan if not finite
    row = row or tuple(cs)
    gaps = [*map(sub, tb, gain), *map(sub, cs, row)]
    for t, want_a in zip(form_from_kin, transition):
        ta = [dot(t, a) for a in columns_a]
        gaps += [dot(ta, s) - want for s, want in zip(columns_s, want_a)]
    residual = max([abs(v) if v == v else math.inf for v in gaps])
    if residual > _CERTIFY_TOL:
        raise error(
            f"cannot certify the {form.value} transform: identity "
            f"residual {residual:.3e} exceeds {_CERTIFY_TOL:g} (the design's "
            "coordinates are numerically degenerate, e.g. a read-out that "
            "nearly cancels a pole)"
        )
    return StateSpaceModel(form, *map(Matrix._of, (transition, tuple(zip(gain)), (row,),
                                                   kin_from_form, form_from_kin)))


def _as_design(result, what: str) -> "DesignResult":
    """``result``, or FixedGainError if it lacks a DesignResult's fields (no isinstance:
    design imports this module)."""
    if getattr(result, "_fields", None) != ("spec", "gains", "char_poly", "ss_kin"):
        raise FixedGainError(f"{what} needs a DesignResult, not {type(result).__name__}")
    return result


def pcf_realization(result: "DesignResult") -> StateSpaceModel:
    """Rebase a design into process-companion coordinates (:func:`pcf_transform`)."""
    pair = pcf_transform(_as_design(result, "pcf_realization").spec.process)
    return _certified(result, Form.PCF, Unobservable,
                      companion_matrix(companion_column(result.char_poly)), pair,
                      gain=result.gains.pcf)


def ocf_realization(result: "DesignResult") -> StateSpaceModel:
    """Observable canonical form of a design.

    The transform is built by :func:`_observable_form` from the read-out row
    and the closed-loop transition, as :func:`pcf_transform` builds the PCF
    one from the predictor row and the process transition.
    The finished pair is certified against the transform identities; designs
    whose read-out row leaves the state unobservable (exactly or within
    roundoff of it) raise :class:`Unobservable` rather than returning a
    corrupt transform.
    """
    kin, col = _as_design(result, "ocf_realization").ss_kin, companion_column(result.char_poly)
    pair = _observable_form(kin.output_row.row(0), kin.transition.data, col,
                            Unobservable("closed-loop pair is not observable; cannot reach OCF"))
    return _certified(result, Form.OCF, Unobservable, companion_matrix(col), pair,
                      row=identity_rows(kin.order)[-1])


def ccf_realization(result: "DesignResult") -> StateSpaceModel:
    """Controllable canonical form of a design.

    The canonical transition carries the negated characteristic coefficients
    across its first row and the input gain is the first unit vector; the
    output row then equals the transfer-function numerator coefficients.
    The form is the dual of the observable one: :func:`_observable_form` of
    the input column read as a row against the transposed closed-loop
    transition gives a pair ``(P^-1, P)``, and with J the order reversal the
    CCF transforms are ``ccf_from_kin = J P^-T`` and ``kin_from_ccf = P^T J``.
    As with the observable form, the finished pair is certified against the
    transform identities and :class:`Uncontrollable` is raised when the
    construction or certification fails.
    """
    kin, col = _as_design(result, "ccf_realization").ss_kin, companion_column(result.char_poly)
    p_inv, p = _observable_form(
        kin.input_gain.col(0), tuple(zip(*kin.transition.data)), col,
        Uncontrollable("closed-loop pair is not controllable; cannot reach CCF"))
    pair = tuple(zip(*p[::-1])), tuple(zip(*p_inv))[::-1]
    rows = identity_rows(kin.order)
    return _certified(result, Form.CCF, Uncontrollable, (col[::-1],) + rows[:-1], pair,
                      gain=rows[0])


def _ints(values) -> tuple[list[int], int]:
    """The floats ``values`` as integers over one 2**e, e >= 0."""
    ratios = list(map(float.as_integer_ratio, values))
    exps = [d.bit_length() - 1 for _, d in ratios]
    e = max(exps, default=0)
    return [n << e - x for (n, _), x in zip(ratios, exps)], e


def _loop_pair(model, gains: Sequence[float], output: Sequence[float]) -> tuple[list, list]:
    """D(u) and P(u), u = z - 1, of the loop F - k p read by c, exactly, for
    ``model``'s F = I + N (Toeplitz) and p (F's first row), ``gains`` k and
    ``output`` c.  By Sherman-Morrison, H(z) = (1 + u) P(u) / D(u) with
    D(u) = u^K + sum_j (p N^j k) u^(K-1-j), P(u) = sum_j (c N^j k) u^(K-1-j)
    and p N^j k = (N^j k)_0 + (N^(j+1) k)_0.  The entries are floats, so the
    coefficients (descending powers) are integers over one power of two, D's
    lead; divided by their common power of two, they are canonical, the same
    for every exact similarity of the loop."""
    k = model.order
    ints, x = _ints([*_taylor_row(k, model.ts, 0)[1:], *gains, *output])  # F's row 0
    g, v, c = ints[:k - 1], ints[k - 1:2 * k - 1], ints[2 * k - 1:]
    heads, nums = [], []  # (N^j k)_0 over 2**((j + 1) x), c N^j k over 2**((j + 2) x)
    for _ in range(k):
        heads.append(v[0])
        nums.append(sum(map(mul, c, v)))
        v = [sum(map(mul, g, v[i:])) for i in range(1, len(v))]  # N^j k ends in j zeros
    heads.append(0)
    den = [1 << (k + 1) * x] + [(heads[j] << x) + heads[j + 1] << (k - 1 - j) * x
                                for j in range(k)]
    num = [n << (k - 1 - j) * x for j, n in enumerate(nums)]
    low = reduce(or_, den + num)  # lowest set bit: the common power of two, up to D's lead
    z = (low & -low).bit_length() - 1
    return [d >> z for d in den], [n >> z for n in num]


def _transfer_ints(result: "DesignResult") -> tuple[list[int], list[int]]:
    """z P(z - 1) and D(z - 1) of the design's loop (:func:`_loop_pair`) over
    descending powers of z, as integers over D's lead, a power of two."""
    den, num = _loop_pair(result.spec.process, result.gains.kin,
                          result.ss_kin.output_row.row(0))
    for poly in (den, num):  # Taylor shift by -1: u = z - 1
        for i in range(len(poly) - 1):
            for j in range(1, len(poly) - i):
                poly[j] -= poly[j - 1]
    return num + [0], den


def transfer_coefficients(result: "DesignResult") -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Numerator/denominator of the filter's transfer function over descending
    powers of z, float tuples of K+1 entries each: z P(z - 1) and D(z - 1) of
    the loop the design runs (:func:`_loop_pair`), exact and rounded once; a
    coefficient beyond the double range raises NonFiniteValue."""
    num, den = _transfer_ints(_as_design(result, "transfer_coefficients"))
    try:
        return tuple([v / den[0] for v in num]), tuple([v / den[0] for v in den])
    except OverflowError:
        raise NonFiniteValue("transfer coefficients overflow") from None


def initialize_state(ss: StateSpaceModel, x0: float) -> FilterState:
    """State holding the first sample: position x0, all derivatives zero,
    expressed in the realization's own coordinates.  A first sample that
    ``float`` refuses, or past the double range, raises FixedGainError."""
    x0 = number(x0, "first sample")
    return FilterState(form=ss.form, vector=ss._from_kin((x0,) + (0.0,) * (ss.order - 1)))


def read_output(ss: StateSpaceModel, state: FilterState) -> float:
    """Filter output implied by the current state, without advancing it."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    try:
        return ss._output(state.vector)
    except ValueError:  # a vector of another length fails to unpack, as in step
        raise DimensionMismatch(f"state vector length is not the order {ss.order}") from None
    except (OverflowError, TypeError):  # an entry that is not a double, as in step
        raise FixedGainError("state vector is not a list of numbers in the double range") from None


def step(ss: StateSpaceModel, state: FilterState, x: float) -> float:
    """Advance one sample: w <- transition @ w + input_gain * x, then return
    the output read from the updated state.  Mutates ``state`` in place.

    Each dot product, here and in extract_kinematic, is the summation rule compiled
    for the realization's order (``linalg._dot``), then a state entry adds ``h * x``.
    The scaled loop runs the same loop by predict and correct (:func:`_scaled_code`).

    A sample that is not a real number in the double range (a str, None, a complex,
    an int past it) raises FixedGainError, as does a state vector that is not a list
    of them; a vector of another length raises DimensionMismatch.  None moves the state."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    try:
        return ss._advance(state.vector, x)
    except (OverflowError, TypeError):  # raised before the state is written
        try:  # a sample that converts alone leaves the vector at fault
            float(x - 0.0)
        except (OverflowError, TypeError):
            raise FixedGainError(f"a sample of type {type(x).__name__} is not a number"
                                 " in the double range") from None
        raise FixedGainError("state vector is not a list of numbers in the double range") from None
    except ValueError:  # the vector fails to unpack before it is written
        raise DimensionMismatch(f"state vector length is not the order {ss.order}") from None


def run(ss: StateSpaceModel, state: FilterState, xs: Sequence[float]) -> list[float]:
    """Step through a whole input sequence, returning the outputs."""
    try:  # step types a bad sample; only iterating ``xs`` can raise TypeError
        return [step(ss, state, x) for x in xs]
    except TypeError:
        raise FixedGainError(f"run needs iterable samples, not {type(xs).__name__}") from None


def extract_kinematic(ss: StateSpaceModel, state: FilterState) -> tuple[float, ...]:
    """Current state mapped back to kinematic coordinates (position, velocity,
    ... in any form): each row of ``kin_from_form`` summed as in :func:`step`."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    try:
        return ss._kinematic(state.vector)
    except ValueError:  # a vector of another length fails to unpack, as in step
        raise DimensionMismatch(f"state vector length is not the order {ss.order}") from None
    except (OverflowError, TypeError):  # an entry that is not a double, as in step
        raise FixedGainError("state vector is not a list of numbers in the double range") from None
