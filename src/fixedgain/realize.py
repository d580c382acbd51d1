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

A realization's per-sample arithmetic (:func:`step`,
:func:`extract_kinematic`) runs as straight-line Python compiled once per
realization, on first use, with every dot product unrolled.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from functools import cached_property, lru_cache, reduce
from itertools import repeat
from operator import mul, or_, sub
from types import CodeType, FunctionType, SimpleNamespace

from .errors import (
    FixedGainError,
    FormMismatch,
    NonFiniteValue,
    NotMonic,
    SingularMatrix,
    Uncontrollable,
    Unobservable,
)
from .linalg import Matrix, identity_rows
from .poly import Polynomial
from .process import ProcessModel


class Form(str, enum.Enum):
    """Coordinate system a realization (or a filter state) lives in."""

    KIN = "kin"
    PCF = "pcf"
    OCF = "ocf"
    CCF = "ccf"


# Every constructed transform pair must reproduce the canonical matrices when
# it conjugates the kinematic ones.  Residuals above this bound mean the
# coordinates are too close to degenerate to certify in double precision.
_CERTIFY_TOL = 1e-8


class StateSpaceModel(namedtuple("StateSpaceModel", "form transition input_gain output_row"
                                 " kin_from_form form_from_kin")):
    """One realization: w[n] = transition @ w[n-1] + input_gain * x[n],
    y[n] = output_row @ w[n] (the output uses the *updated* state).  The K x K
    transition, K x 1 input gain and 1 x K output row are in ``form``
    coordinates; ``kin_from_form`` maps its state into kinematic ones."""

    # No __slots__ = (): the instance dict holds the cached kernel.
    @property
    def order(self) -> int:
        return self.transition.rows

    @cached_property
    def _kernel(self) -> SimpleNamespace:
        """This realization's compiled per-sample functions, built on first
        use, with its coefficients bound in."""
        advance, kinematic = _kernel_code(self.order)
        coefficients = self.transition.flat() + self.input_gain.flat() + self.output_row.flat()
        return SimpleNamespace(
            advance=FunctionType(advance, _KERNEL_GLOBALS, None, coefficients),
            kinematic=FunctionType(kinematic, _KERNEL_GLOBALS, None, self.kin_from_form.flat()),
        )

    def __getstate__(self) -> dict:
        # The compiled kernel cannot be pickled; an unpickled copy rebuilds it.
        state = self.__dict__.copy()
        state.pop("_kernel", None)
        return state


# Globals of the compiled kernels: from Python 3.12 their source calls sum.
_KERNEL_GLOBALS = {"sum": sum}


def _dot(coefficients: Sequence[str], names: Sequence[str]) -> str:
    """Source of the dot product ``c0 * w0 + c1 * w1 + ...``, summed exactly
    as ``sum(map(mul, ...))`` and ``Matrix @`` sum it on this interpreter.
    Up to Python 3.11 that sum is ``0.0 + p0 + p1 + ...`` left to right,
    written out here; from 3.12 ``sum`` compensates rounding, so the products
    are handed to ``sum`` as a tuple."""
    products = [f"{c} * {w}" for c, w in zip(coefficients, names)]
    if sys.version_info >= (3, 12):
        return f"sum(({', '.join(products)},))"
    return " + ".join(["0.0", *products])


@lru_cache(maxsize=None)
def _kernel_code(k: int) -> tuple[CodeType, CodeType]:
    """Code objects of the order-``k`` kernel: ``advance(w, x, *coefficients)``
    and ``kinematic(w, *kin_from_form)``.

    The source holds only names; the coefficients are the parameters, bound
    as defaults by :attr:`StateSpaceModel._kernel`, so any float (nan, inf,
    -0.0) enters as a value.  ``advance`` updates ``w`` in place and returns
    the output read from the updated state.
    """
    w = [f"w{j}" for j in range(k)]
    a = [[f"a{i}_{j}" for j in range(k)] for i in range(k)]
    h = [f"h{i}" for i in range(k)]
    c = [f"c{j}" for j in range(k)]
    t = [[f"t{i}_{j}" for j in range(k)] for i in range(k)]
    state = ", ".join(w) + ","
    updates = ", ".join(f"{_dot(row, w)} + {g} * x" for row, g in zip(a, h))
    source = (
        f"def advance(w, x, {', '.join([*sum(a, []), *h, *c])}):\n"
        f"    {state} = w\n"
        f"    w[:] = {state} = ({updates},)\n"
        f"    return {_dot(c, w)}\n"
        f"def kinematic(w, {', '.join(sum(t, []))}):\n"
        f"    {state} = w\n"
        f"    return ({', '.join(_dot(row, w) for row in t)},)\n"
    )
    namespace: dict = {}
    exec(source, namespace)
    return tuple(namespace[name].__code__ for name in ("advance", "kinematic"))


class FilterState:
    """Mutable running state of one filter instance: its form and vector."""

    __slots__ = ("form", "vector")

    def __init__(self, form: Form, vector: list[float]):
        self.form, self.vector = form, vector

    def __repr__(self) -> str:
        return f"FilterState(form={self.form!r}, vector={self.vector!r})"


def companion_matrix(column: Sequence[float]) -> Matrix:
    """Companion matrix with the given last column over a shifted identity.

    For column (g0, .., g_{K-1}) this is the K x K matrix whose last column is
    the given one and whose first K-1 columns are the identity shifted down
    one row -- the transition-matrix shape shared by the PCF and OCF forms.
    """
    return Matrix._of(_companion_rows(tuple(map(float, column))))


def _companion_rows(column: tuple) -> tuple:
    """The rows of :func:`companion_matrix` of a float ``column``."""
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
    (the one solve).  A singular stack raises ``error``.
    """
    k = len(column)
    columns = tuple(zip(*rows_a))
    stack = [c]
    for _ in range(k - 1):
        stack.append(tuple([sum(map(mul, stack[-1], a)) for a in columns]))
    try:
        x = Matrix._of(tuple(stack)).solve(Matrix.column(identity_rows(k)[-1]))
    except SingularMatrix as exc:
        raise error from exc
    krylov = [x.col(0)]
    for _ in range(k - 1):
        krylov.append([sum(map(mul, a, krylov[-1])) for a in rows_a])
    horner = [c]
    for g in column[:0:-1]:
        horner.append(tuple([sum(map(mul, horner[-1], a)) - g * v for a, v in zip(columns, c)]))
    return tuple(zip(*krylov)), tuple(horner[::-1])


def companion_column(char: Polynomial) -> tuple[float, ...]:
    """Last column of the companion matrix whose characteristic polynomial
    is ``char``: entry k is ``-char[K-k]``.  ``char`` must be monic."""
    if not char.is_monic():
        raise NotMonic(f"expected leading coefficient 1, got {char[0]!r}")
    k = char.degree
    if k < 1:
        raise NotMonic("characteristic polynomial must have degree >= 1")
    return tuple(-char[k - i] for i in range(k))


def pcf_transform(model: ProcessModel) -> tuple[Matrix, Matrix]:
    """Similarity pair ``(kin_from_pcf, pcf_from_kin)`` between kinematic and
    process-companion coordinates.

    F(ts) = S^-1 F(1) S with S = diag(ts^j), and the predictor row scales
    alike, so the pair (T1^-1, T1) of ts = 1 is built once per order, by
    :func:`_observable_form`, and scaled: ``kin_from_pcf`` = S^-1 T1^-1 and
    ``pcf_from_kin`` = T1 S.
    """
    unit_kin_from_pcf, unit_pcf_from_kin = _unit_pcf_transform(model.order)
    down = [model.ts ** -j for j in range(model.order)]  # finite: ProcessModel checks both
    up = [model.ts ** j for j in range(model.order)]
    return (Matrix._of(tuple([tuple([v * d for v in row])
                              for row, d in zip(unit_kin_from_pcf, down)])),
            Matrix._of(tuple([tuple(map(mul, row, up)) for row in unit_pcf_from_kin])))


@lru_cache(maxsize=None)
def _unit_pcf_transform(order: int) -> tuple[tuple, tuple]:
    """The rows of the ts = 1 pair, built once per order."""
    model = ProcessModel(order, 1.0)
    return _observable_form(model.predictor_row().row(0), model.transition_matrix.data,
                            companion_column(model.char_poly),
                            Unobservable("process/predictor pair is not observable at this order"))


def _certified(result: "DesignResult", form: Form, error, transition: tuple, pair: tuple,
               gain: tuple = (), row: tuple = ()) -> StateSpaceModel:
    """The certified realization of ``result`` in ``form`` from its
    ``transition`` rows, the rows of ``pair`` = (kin_from_form,
    form_from_kin) = (S, T), and whichever of its input column ``gain`` and
    output ``row`` the form fixes.  The other is mapped across from ``ss_kin``
    = (A, b, c) as T b or c S, each entry summed as ``Matrix @`` sums it.
    One pass takes the worst residual of T b = gain, c S = row and
    (T A) S = transition, a nan read as inf; above the bound it raises
    ``error``, since the pivot test alone can miss degeneracy hidden by row
    scaling.  Each field is wrapped once."""
    kin = result.ss_kin
    kin_from_form, form_from_kin = pair
    columns_a = tuple(zip(*kin.transition.data))
    columns_s = tuple(zip(*kin_from_form))
    b = kin.input_gain.col(0)
    tb = [sum(map(mul, t, b)) for t in form_from_kin]
    cs = [sum(map(mul, kin.output_row.data[0], s)) for s in columns_s]
    gain = gain or tuple(tb)  # a field mapped across gaps 0 from itself, nan if not finite
    row = row or tuple(cs)
    gaps = [*map(sub, tb, gain), *map(sub, cs, row)]
    for t, want_a in zip(form_from_kin, transition):
        ta = [sum(map(mul, t, a)) for a in columns_a]
        gaps += [sum(map(mul, ta, s)) - want for s, want in zip(columns_s, want_a)]
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


def pcf_realization(result: "DesignResult") -> StateSpaceModel:
    """Rebase a design into process-companion coordinates (:func:`pcf_transform`)."""
    pair = [m.data for m in pcf_transform(result.spec.process)]
    return _certified(result, Form.PCF, Unobservable,
                      _companion_rows(companion_column(result.char_poly)), pair,
                      gain=result.gains.pcf.col(0))


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
    kin, col = result.ss_kin, companion_column(result.char_poly)
    pair = _observable_form(kin.output_row.row(0), kin.transition.data, col,
                            Unobservable("closed-loop pair is not observable; cannot reach OCF"))
    return _certified(result, Form.OCF, Unobservable, _companion_rows(col), pair,
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
    kin = result.ss_kin
    col = companion_column(result.char_poly)
    p_inv, p = _observable_form(
        kin.input_gain.col(0), tuple(zip(*kin.transition.data)), col,
        Uncontrollable("closed-loop pair is not controllable; cannot reach CCF"),
    )
    pair = tuple(zip(*p[::-1])), tuple(zip(*p_inv))[::-1]
    rows = identity_rows(kin.order)
    return _certified(result, Form.CCF, Uncontrollable, (col[::-1],) + rows[:-1], pair,
                      gain=rows[0])


def _ints(values, shifts=repeat(0)) -> tuple[list[int], int]:
    """The floats ``values`` times 2**shift each, as integers over one 2**e, e >= 0."""
    ratios = list(map(float.as_integer_ratio, values))
    exps = [d.bit_length() - 1 - s if n else 0 for (n, d), s in zip(ratios, shifts)]
    e = max(0, *exps)
    return [n << e - x for (n, _), x in zip(ratios, exps)], e


def _loop_pair(model, gains: Sequence[float], output: Sequence[float]) -> tuple[list, list]:
    """D(u) and P(u), u = z - 1, of the loop F - k p read by c, exactly, for
    ``model``'s F = I + N (Toeplitz) and p (F's first row), ``gains`` k and
    ``output`` c.  By Sherman-Morrison, H(z) = (1 + u) P(u) / D(u) with
    D(u) = u^K + sum_j (p N^j k) u^(K-1-j), P(u) = sum_j (c N^j k) u^(K-1-j)
    and p N^j k = (N^j k)_0 + (N^(j+1) k)_0.  The entries are floats, so the
    coefficients (descending powers) are integers over one power of two, D's
    lead.  State i is scaled by 2**(i e), e the binary exponent of ts, in the
    integers' exponents: an exact similarity that keeps them short at any ts."""
    k, e = model.order, math.frexp(model.ts)[1]
    ints, x = _ints([*model.predictor_row().row(0)[1:], *gains, *output],
                    [-i * e for i in range(1, k)] + [i * e for i in range(k)]
                    + [-i * e for i in range(k)])
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
    den, num = _loop_pair(result.spec.process, result.gains.kin.col(0),
                          result.ss_kin.output_row.row(0))
    for poly in (den, num):  # Taylor shift by -1: u = z - 1
        for i in range(len(poly) - 1):
            for j in range(1, len(poly) - i):
                poly[j] -= poly[j - 1]
    return num + [0], den


def transfer_coefficients(result: "DesignResult") -> tuple[Polynomial, Polynomial]:
    """Numerator/denominator of the filter's transfer function over descending
    powers of z, K+1 entries each: z P(z - 1) and D(z - 1) of the loop the
    design runs (:func:`_loop_pair`), exact and rounded once; a coefficient
    beyond the double range raises NonFiniteValue."""
    num, den = _transfer_ints(result)
    try:
        return Polynomial([v / den[0] for v in num]), Polynomial([v / den[0] for v in den])
    except OverflowError:
        raise NonFiniteValue("transfer coefficients overflow") from None


def initialize_state(ss: StateSpaceModel, x0: float) -> FilterState:
    """State holding the first sample: position x0, all derivatives zero,
    expressed in the realization's own coordinates."""
    kin0 = (float(x0),) + (0.0,) * (ss.order - 1)
    return FilterState(form=ss.form,
                       vector=[sum(map(mul, row, kin0)) for row in ss.form_from_kin.data])


def read_output(ss: StateSpaceModel, state: FilterState) -> float:
    """Filter output implied by the current state, without advancing it."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    return sum(map(mul, ss.output_row.data[0], state.vector))


def step(ss: StateSpaceModel, state: FilterState, x: float) -> float:
    """Advance one sample: w <- transition @ w + input_gain * x, then return
    the output read from the updated state.  Mutates ``state`` in place.

    Runs the realization's compiled kernel, built on its first call.  Each
    dot product, here and in extract_kinematic, sums its products as
    ``Matrix @`` does (``0.0 + p0 + p1 + ...`` left to right up to Python
    3.11, ``sum`` of the products from 3.12), then adds ``h * x`` for a state
    entry: bit-identical to ``Matrix @`` on every version."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    return ss._kernel.advance(state.vector, x)


def run(ss: StateSpaceModel, state: FilterState, xs: Sequence[float]) -> list[float]:
    """Step through a whole input sequence, returning the outputs."""
    return [step(ss, state, x) for x in xs]


def extract_kinematic(ss: StateSpaceModel, state: FilterState) -> tuple[float, ...]:
    """Current state mapped back to kinematic coordinates
    (position, velocity, ... regardless of the realization's form), by the
    realization's compiled kernel: the rows of ``kin_from_form`` unrolled,
    each summed as in :func:`step`."""
    if state.form is not ss.form:
        raise FormMismatch(f"state is {state.form}, realization is {ss.form}")
    return ss._kernel.kinematic(state.vector)
