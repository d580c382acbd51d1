"""Response analysis for designed tracking filters.

Works on the transfer-coefficient view of a filter: a numerator/denominator
pair over descending powers of z.  Every analysis of a pair refuses a nan or
infinite coefficient (NonFiniteValue); white_noise_gain, impulse_response,
lde_filter and ramp_error need a monic denominator.  A count (grid points,
dc orders, ramp horizon, step samples) that is not an int, or is below its
minimum or above a million, raises DimensionMismatch.  Covers what one asks of a
smoother: how much measurement noise gets through (white-noise gain), what the
frequency response looks like, how fast the step response settles, whether
ramps are tracked without bias, and how flat the passband is at dc
(moment-matching derivatives).

The white-noise gain of a coefficient pair is exact, from an integer step-down
with exact divisions, rounded once; the impulse response is cut where the same
step-down puts the energy still to come below a fraction of the total.  The
command line runs the step-down on the exact integer pair of the loop the
design runs, not on its rounded coefficients: rounding a K-fold pole into
direct-form coefficients moves the exact value away from that filter's.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from collections.abc import Sequence
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from operator import add, mul

from .errors import (
    DimensionMismatch,
    FixedGainError,
    NonConvergent,
    NonFiniteValue,
    NotNormalized,
    PoleAtOne,
    PoleOnUnitCircle,
    UnstablePoles,
    number,
    numbers,
    shown,
)
from .linalg import ORDER_CAP
from .process import ProcessModel, check_deriv
from . import realize
from .realize import _ints

# Longest impulse response: a stable denominator whose tail energy is still
# above the tolerance here decays too slowly to sum in reasonable time.
_SAMPLE_CAP = 1_000_000


def _finite_pair(num, den) -> tuple[tuple, tuple]:
    """The coefficients of ``(num, den)`` as float tuples, refusing an empty
    list and a nan or infinite coefficient."""
    b, a = (numbers(p, "transfer coefficient", error=NonFiniteValue) for p in (num, den))
    if not (b and a):
        raise DimensionMismatch("polynomial needs at least one coefficient")
    if not all(map(math.isfinite, b + a)):
        raise NonFiniteValue("transfer coefficients must be finite")
    return b, a


def _read_out(deriv: int, lag, ts) -> tuple[float, float]:
    """``(lag, ts)`` as floats, refused with ``deriv`` as ObserverSpec and
    ProcessModel refuse them (any order up to ORDER_CAP, ts**deriv in range)."""
    check_deriv(deriv, ORDER_CAP)
    ts = ProcessModel(deriv + 1, ts).ts
    lag = number(lag, "lag", error=NonFiniteValue)
    if not math.isfinite(lag):
        raise NonFiniteValue(f"lag must be finite, got {lag!r}")
    return lag, ts


def _check_count(count, least: int, need: str) -> None:
    """Refuse a count that is not an int (tested as check_deriv tests an
    index) from ``least`` to _SAMPLE_CAP, with the message ``need``."""
    if not (isinstance(count, int) and not isinstance(count, bool) and count >= least):
        raise DimensionMismatch(f"{need}, got {shown(count)}")
    if count > _SAMPLE_CAP:
        raise DimensionMismatch(f"{need} and at most {_SAMPLE_CAP}, got {shown(count)}")


def _check_normalized(den: tuple) -> None:
    if den[0] != 1.0:
        raise NotNormalized(f"denominator must be monic, leading {den[0]!r}")


def _recursion(b: tuple, a: tuple, xs):
    """Yield y[n] = sum b[k] x[n-k] - sum a[k] y[n-k] for each x in ``xs``, from
    rest (zero past inputs and outputs), the terms added from b[0] x on;
    lde_filter and impulse_response share this one loop, so a unit pulse
    gives the same bits through either."""
    b0, b_tail = b[0], b[1:]
    neg_a_tail = [-c for c in a[1:]]
    px, py = (deque([0.0] * len(tail), len(tail)) for tail in (b_tail, neg_a_tail))
    for x in xs:
        y = reduce(add, map(mul, neg_a_tail, py), reduce(add, map(mul, b_tail, px), b0 * x))
        px.appendleft(x)
        py.appendleft(y)
        yield y


def lde_filter(num, den, xs: Sequence[float]) -> list[float]:
    """Run the direct recursion y[n] = sum b[k] x[n-k] - sum a[k] y[n-k] from
    rest: every past input and output is zero.  A sample that ``float``
    refuses raises FixedGainError."""
    b, a = _finite_pair(num, den)
    _check_normalized(a)
    return list(_recursion(b, a, numbers(xs, "sample")))


def impulse_response(num, den, tol: float = 1e-12) -> list[float]:
    """Unit-pulse response h[:n], cut where the energy still to come,
    tail(n) = sum of h[m]**2 over m >= n, is at most ``tol`` times the total,
    white_noise_gain(num, den).  From n >= len(num) on, the rest is the free
    response from h[n-K:n], R(z)/A(z) with r_i = -sum_{j=i+1..K} a_j h[n+i-j]:
    tail(n) is its white-noise gain, exact and rounded once.  n is n0 =
    max(len(num), 2K, 8), or else the n > n0 with tail(n) <= tol * total <
    tail(n-1) found by doubling from n0 and bisecting.  Raises FixedGainError
    for a tol that is not a number >= 0, what white_noise_gain raises, and
    NonConvergent after a million samples."""
    tol = number(tol, "impulse tolerance")
    if not tol >= 0.0:
        raise FixedGainError(f"impulse tolerance must be >= 0, got {tol!r}")
    b, a = _finite_pair(num, den)
    _check_normalized(a)
    k = len(a) - 1
    if k == 0:
        return list(b)
    ints, _ = _ints(b + a)
    dens = ints[len(b):]
    bound = tol * _step_down(ints[:len(b)], dens)
    pulse = chain((1.0,), repeat(0.0))
    samples = _recursion(b, a, pulse)
    h: list[float] = []

    def below(n: int) -> bool:  # tail(n) <= tol * total; a nan bound (inf * 0) holds it
        h.extend(islice(samples, max(n - len(h), 0)))
        window, e = _ints(h[n - 1:n - k - 1:-1])
        r = [-sum(map(mul, dens[i + 1:], window)) for i in range(k)]
        return not _step_down(r, dens, 2 * e) > bound

    lo = hi = max(len(b), 2 * k, 8)
    while not below(hi):
        if hi >= _SAMPLE_CAP:
            raise NonConvergent(f"impulse tail still above tolerance after {_SAMPLE_CAP} samples")
        lo, hi = hi, min(2 * hi, _SAMPLE_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if below(mid) else (mid, hi)
    return h[:hi]


@lru_cache(maxsize=None)
def _horner_block(steps: int, first: bool, divide: bool, monic: bool):
    """``block(zs, dvs, acc, c0, ..)``: ``steps`` steps ``acc * z + c`` at each z of ``zs``
    from the previous pass's values ``acc``, or if ``first`` the leading coefficient
    ``acc``; with ``divide``, each over its ``dvs``.  The first step is c0 * z + c1, as in
    Horner's rule from the leading coefficient; only a constant is promoted to z's type.
    With ``monic`` (a leading 1.0) it is z + c1: every z is exp(i omega) for a real omega,
    where 1.0 * z is z bit for bit (see _responses)."""
    value = ("acc" if steps else "acc * (z * 0 + 1)") if first else "a"
    for j in range(steps):
        value = f"z + c{j}" if monic and not j else f"({value}) * z + c{j}"
    names = (["z"] if first else ["a", "z"]) + ["d"] * divide
    columns = ", ".join({"a": "acc", "z": "zs", "d": "dvs"}[name] for name in names)
    namespace: dict = {}
    exec(f"def block(zs, dvs, acc, {''.join(f'c{j}, ' for j in range(steps))}):\n"
         f"    return [{f'({value}) / d' if divide else value}"
         f" for {', '.join(names)} in {f'zip({columns})' if len(names) > 1 else 'zs'}]\n",
         namespace)
    return namespace["block"]


def _horner(p: tuple, zs, dvs=None) -> list[complex]:
    """Coefficients ``p`` at each z of ``zs``, over ``dvs`` when given, 8 steps a pass."""
    acc, tail = p[0], p[1:]
    for i in range(0, len(tail), 8) or (0,):
        block = tail[i:i + 8]
        acc = _horner_block(len(block), i == 0, dvs is not None and i + 8 >= len(tail),
                            i == 0 < len(tail) and acc == 1.0)(zs, dvs, acc, *block)
    return acc


def _responses(num, den, omegas, zs) -> list[complex]:
    """N(z) / D(z) at each z of ``zs``, bit-identical to Horner's rule from the leading
    coefficient (signed zeros included) for any number of coefficients: each runs over all
    points in passes of up to 8 Horner steps, N's last dividing by D.  Only a |D| under
    1e-12, or one abs() overflows on, has D searched in order: its first zero names omega.
    A leading 1.0 starts at z + c1: up to CPython 3.13, 1.0 * z = (Re z - 0.0 Im z,
    Im z + 0.0 Re z) is a finite z unless Re z or Im z is -0.0.  Re exp(i omega) = cos omega
    is never a zero, and Im is -0.0 only from omega = -0.0, whose 1j * -0.0 is already +0.0
    (3.14 multiplies real by complex part-wise, so 1.0 * z is z)."""
    b, a = _finite_pair(num, den)
    dvs = _horner(a, zs)
    try:
        clear = min(map(abs, dvs)) >= 1e-12
    except OverflowError:
        clear = False
    try:
        for omega, dv in zip(omegas, () if clear else dvs):
            if abs(dv) < 1e-12:
                raise PoleOnUnitCircle(f"denominator vanishes at omega = {omega!r}")
    except OverflowError:  # abs() of a complex D whose finite parts overflow
        raise NonFiniteValue("frequency response denominator overflows") from None
    hs = _horner(b, zs, dvs)
    if not all(map(cmath.isfinite, hs)):
        raise NonFiniteValue("frequency response overflows")
    return hs


def frequency_response(num, den, omega) -> complex:
    """H evaluated at z = exp(i*omega), ``omega`` a real number of radians per
    sample; an omega that ``float`` refuses raises FixedGainError, a non-finite
    response NonFiniteValue."""
    w = number(omega, "omega", error=NonFiniteValue)
    return _responses(num, den, (w,), (cmath.exp(1j * w),))[0]


def white_noise_gain(num, den) -> float:
    """Output variance per unit white measurement-noise variance, sum h[n]**2,
    exact for the coefficients given and rounded once.

    The Astrom-Jury-Agniel step-down (IEEE TAC 15(4), 1970), fraction-free in
    integers: every coefficient is a dyadic rational, so all of them scaled by
    2**E are integers.  The shorter polynomial is padded on the right (in
    powers of z^-1), which only adds poles at the origin.  Step k = K..1 adds
    B_k**2 / (A_0 S) to the sum, then maps A_i <- A_0 A_i - A_k A_(k-i),
    B_i <- A_0 B_i - B_k A_(k-i) and S <- A_0 S, S carrying the common scale;
    the sum's denominators nest, so it is one integer T <- A_0 T + B_k**2 over S.
    From step 3 on, each new A_i, B_i, T and S is exactly divisible by the lead
    A_0 of the step before and is divided by it (Bareiss, Math. Comp. 22(103),
    1968): the integers grow linearly, not doubling in width each step.  |A_k| <
    A_0 at every step is Schur's test: a pole on or outside the unit circle
    raises NonConvergent exactly; a sum beyond the double range, NonFiniteValue.
    """
    b, a = _finite_pair(num, den)
    _check_normalized(a)
    ints, _ = _ints(b + a)
    return _step_down(ints[:len(b)], ints[len(b):])


def _step_down(nums: list[int], dens: list[int], shift: int = 0) -> float:
    """white_noise_gain's step-down on integers ``nums`` over ``dens`` (the shorter
    zero-padded), over 2**shift; g divides each step exactly, so the scale is lead**2 g."""
    width = max(len(nums), len(dens))
    nums, dens = nums + [0] * (width - len(nums)), dens + [0] * (width - len(dens))
    top, lead, g = 0, dens[0], 1
    for k in range(width - 1, 0, -1):
        a0, ak, bk = dens[0], dens[k], nums[k]
        if not abs(ak) < a0:
            raise NonConvergent(f"denominator has a pole on or outside the unit circle (step {k})")
        top = (top * a0 + bk * bk) // g
        nums = [(a0 * nums[i] - bk * dens[k - i]) // g for i in range(k)]
        dens = [(a0 * dens[i] - ak * dens[k - i]) // g for i in range(k)]
        g = 1 if k == width - 1 else a0
    scale = lead * lead * g if width > 1 else lead
    try:
        return (top * dens[0] + nums[0] * nums[0]) / (scale * dens[0] << shift)
    except OverflowError:
        raise NonFiniteValue("white-noise gain overflows") from None


def optimal_lag_k2(pole: float) -> float:
    """Lag minimizing the order-2 white-noise gain: (1 + 3p) / (2 (1 - p)).

    At this lag the numerator gains a zero at z = -1, nulling the response at
    the Nyquist frequency.
    """
    p = number(pole, "pole")
    if not 0.0 <= p < 1.0:
        raise UnstablePoles(f"repeated pole must satisfy 0 <= p < 1, got {p!r}")
    return 0.5 * (1.0 + 3.0 * p) / (1.0 - p)


def steady_state_step(num, den) -> float:
    """Final value of the unit-step response: H at z = 1, order 0 of the dc series."""
    return _dc_derivatives(num, den, 1)[0].real


def ramp_error(num, den, lag: float, ts: float, horizon: int) -> float:
    """Tracking error on the unit-slope ramp at sample ``horizon``.

    Feeds x[n] = n*ts through the recursion from a cold start and returns
    (horizon - lag)*ts - y[horizon]: what the lag-matched read-out should
    have produced minus what it did.  For an unbiased design this decays to
    roundoff once the start-up transient dies.  A lag or ts the records refuse
    raises as there (:func:`_read_out`), an error past the double range
    NonFiniteValue.
    """
    _check_count(horizon, 0, "ramp error needs horizon >= 0")
    lag, ts = _read_out(0, lag, ts)
    xs = [n * ts for n in range(horizon + 1)]
    ys = lde_filter(num, den, xs)
    error = (horizon - lag) * ts - ys[horizon]
    if not math.isfinite(error):
        raise NonFiniteValue(f"ramp error overflows at lag = {lag!r}, ts = {ts!r}")
    return error


def flatness_targets(deriv: int, lag: float, ts: float, count: int) -> list[complex]:
    """dc derivatives (in omega) a perfectly-matched read-out would have.

    A filter that reproduces the ``deriv``-th derivative of the signal,
    evaluated ``lag`` samples back, has frequency response locally equal to
    (i*omega/ts)**deriv * exp(-i*lag*omega) around omega = 0; these are that
    function's derivatives: zero below order ``deriv``, then
    i**k * (-lag)**(k-deriv) * ts**(-deriv) * k!/(k-deriv)!.  A deriv, lag
    or ts the records refuse raises as there (:func:`_read_out`), a target
    past the double range NonFiniteValue.
    """
    q, t = _read_out(deriv, lag, ts)
    _check_count(count, 0, "flatness needs a count of orders >= 0")
    try:
        out = [(1j) ** k * (-q) ** (k - deriv) * t ** (-deriv) * math.perm(k, deriv)
               if k >= deriv else 0j for k in range(count)]
        if all(map(cmath.isfinite, out)):
            return out
    except OverflowError:
        pass
    raise NonFiniteValue(f"flatness targets overflow at lag = {q!r}, ts = {t!r}")


def _dc_derivatives(num, den, orders: int) -> list[complex]:
    """First ``orders`` derivatives of H(omega) at omega = 0.

    Coefficient m of the Taylor series of a degree-n polynomial P(e^s) at
    s = 0 is sum c_k (n-k)**m / m!.  Dividing the numerator series by the
    denominator series gives the series of H(e^s) exactly, and since
    s = i*omega the m-th derivative in omega is i**m * m! times its
    coefficient m.  A derivative past the double range raises NonFiniteValue."""
    b, a = _finite_pair(num, den)
    d0 = reduce(add, a, 0.0)  # D(1) under 1e-12 max(1, |a_k|) is inside the a_k's rounding
    if abs(d0) < 1e-12 * max(1.0, max(abs(c) for c in a)):
        raise PoleAtOne(
            "denominator at z = 1 vanishes, or is not resolved from zero by its"
            " coefficients; no dc steady state"
        )

    def series(p: tuple) -> list[float]:
        n = len(p) - 1
        return [reduce(add, [c * (n - k) ** m for k, c in enumerate(p)], 0.0)
                / math.factorial(m) for m in range(orders)]

    try:
        ns, ds = series(b), series(a)
    except OverflowError:  # m! is past the double range from m = 171 on
        raise NonFiniteValue(f"dc derivatives of {orders} orders overflow") from None
    hs: list[float] = []
    for m in range(orders):
        hs.append((ns[m] - reduce(add, [ds[j] * hs[m - j] for j in range(1, m + 1)], 0.0)) / d0)
    out = [(1j) ** m * math.factorial(m) * h for m, h in enumerate(hs)]
    if all(map(cmath.isfinite, out)):
        return out
    raise NonFiniteValue(f"dc derivatives of {orders} orders overflow")


def flatness_profile(
    num, den, deriv: int, lag: float, ts: float, orders: int
) -> list[tuple[complex, complex]]:
    """(target, measured) dc derivative pairs for orders 0 .. orders-1."""
    targets = flatness_targets(deriv, lag, ts, orders)
    measured = _dc_derivatives(num, den, orders)
    return list(zip(targets, measured))


def flatness_check(num, den, deriv: int, lag: float, ts: float, orders: int) -> float:
    """Largest deviation between measured and ideal dc derivatives over the
    first ``orders`` orders.  Small (roundoff-level) through order K-1 for a
    proper design; the order-K deviation is the price of finite memory."""
    return max(
        (abs(measured - target) for target, measured in
         flatness_profile(num, den, deriv, lag, ts, orders)),
        default=0.0,
    )


def step_response(result, n_max: int) -> list[float]:
    """The unit step from a matched start, y[0..n_max], n_max >= 0: the kinematic
    realization started from the first sample, 1.0, so its state holds at
    (1, 0, .., 0) up to rounding and each y reads that out.  The response from
    rest is ``lde_filter(num, den, [1.0] * (n_max + 1))``."""
    _check_count(n_max, 0, "step response needs n_max >= 0")
    ss = realize._as_design(result, "step_response").ss_kin
    state = realize.initialize_state(ss, 1.0)
    return [realize.read_output(ss, state), *realize.run(ss, state, repeat(1.0, n_max))]


@lru_cache(maxsize=4, typed=True)
def _grid(points: int) -> tuple[tuple, tuple, tuple]:
    """(f, omega, z) columns of frequency_grid's ``points``."""
    fs = tuple(0.5 * j / (points - 1) for j in range(points))
    omegas = tuple(2.0 * math.pi * f for f in fs)
    return fs, omegas, tuple(cmath.exp(1j * omega) for omega in omegas)


def frequency_grid(num, den, points: int = 1024) -> list[tuple[float, complex]]:
    """(cycles-per-sample, response) pairs on a uniform grid of points >= 2 over [0, 0.5]."""
    _check_count(points, 2, "frequency grid needs at least 2 points")
    fs, omegas, zs = _grid(points)
    return list(zip(fs, _responses(num, den, omegas, zs)))
