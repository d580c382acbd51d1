"""Response analysis: recursions, impulse/step/frequency responses, noise
gain, lag optimization, dc flatness.

Two independent measurement routes are exercised against each other wherever
possible: recursion vs convolution for filtering, the exact step-down vs a
Fraction solve of the autocorrelation equations vs closed form vs spectral
integration for the noise gain, and dc derivatives by Taylor-series
division vs impulse-response moments for flatness.
"""

import cmath
import math
import random
import re
import time
from fractions import Fraction
from functools import partial
from operator import mul

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    BENCH_MEMORIES,
    BENCH_OPTIMAL_WNG,
    BENCH_POLES_4DP,
    BENCH_WNG,
    _realization_noise_gain,
    horner,
    impulse_moments_fraction,
    lyapunov_noise_gain_fraction,
    max_abs_diff,
    noise_gain_fraction,
    step_down_unreduced,
    white_noise_gain_k2,
)
from fixedgain import (
    Matrix,
    ObserverSpec,
    ProcessModel,
    design,
    flatness_check,
    flatness_profile,
    flatness_targets,
    frequency_grid,
    frequency_response,
    from_roots,
    impulse_response,
    lde_filter,
    memory_to_pole,
    optimal_lag_k2,
    ramp_error,
    steady_state_step,
    step_response,
    transfer_coefficients,
    white_noise_gain,
)
from fixedgain.analyze import _SAMPLE_CAP, _ints, _step_down
from fixedgain.errors import (
    DerivativeIndexOutOfRange,
    DimensionMismatch,
    FixedGainError,
    NonConvergent,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    NotNormalized,
    PoleAtOne,
    PoleOnUnitCircle,
    UnstablePoles,
)
from fixedgain.linalg import ORDER_CAP

DELAY_NUM = (0.0, 0.0, 1.0, 0.0)
DELAY_DEN = (1.0, 0.0, 0.0, 0.0)


def _transfer(order, ts, pole, lag, deriv=0):
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), pole, lag=lag, deriv=deriv))
    return transfer_coefficients(result)


# --- the direct recursion ----------------------------------------------------

def test_lde_pure_delay_impulse():
    ys = lde_filter(DELAY_NUM, DELAY_DEN, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert ys == [0.0, 0.0, 1.0, 0.0, 0.0]


def test_lde_requires_monic_denominator():
    with pytest.raises(NotNormalized):
        lde_filter([1.0], [2.0, 1.0], [1.0])


def test_lde_zero_input_zero_output():
    num, den = _transfer(2, 1.0, 0.7, 0.5)
    assert lde_filter(num, den, [0.0] * 16) == [0.0] * 16


def test_lde_matches_impulse_convolution():
    # Recursion against convolution with its own truncated impulse response.
    rng = random.Random(21)
    num, den = _transfer(3, 0.1, 0.6, 1.0)
    xs = [rng.gauss(0.0, 1.0) for _ in range(64)]
    got = lde_filter(num, den, xs)
    h = impulse_response(num, den, tol=1e-24)
    want = np.convolve(np.array(h), np.array(xs))[: len(xs)]
    assert float(np.max(np.abs(np.array(got) - want))) < 1e-10


@pytest.mark.parametrize("num, den, want", [
    # FIR: y[n] = x[n] + 2 x[n-1] + 3 x[n-2]
    ([1.0, 2.0, 3.0], [1.0], [1.0, 2.0, 3.0, 0.0]),
    # gain only, recursive: y[n] = 2.5 x[n] + 0.5 y[n-1]
    ([2.5], [1.0, -0.5], [2.5, 1.25, 0.625, 0.3125]),
    # gain only, no memory at all
    ([3.0], [1.0], [3.0, 0.0, 0.0, 0.0]),
])
def test_lde_fir_and_gain_only(num, den, want):
    assert lde_filter(num, den, [1.0, 0.0, 0.0, 0.0]) == want


def test_lde_filter_runs_from_rest_and_omega_is_real():
    # Neither a past to resume from nor a complex omega is taken: the first is
    # an unknown keyword, the second refused by the number gate, naming omega.
    with pytest.raises(TypeError, match="prehistory"):
        lde_filter([1.0, 0.5], [1.0, -0.5], [1.0], prehistory=((0.0,), (0.0,)))
    with pytest.raises(FixedGainError, match="^omega must be a number"):
        frequency_response([1.0], [1.0, -0.5], 0.3 + 0.1j)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.floats(0.0, 0.95), st.floats(-1.0, 3.0), st.integers(0, k - 1),
    st.sampled_from([1e-12, 1e-20]))))
def test_impulse_response_is_lde_filter_over_a_unit_pulse(draw):
    order, pole, lag, deriv, tol = draw
    num, den = _transfer(order, 1.0, pole, lag, deriv)
    h = impulse_response(num, den, tol=tol)
    assert lde_filter(num, den, [1.0] + [0.0] * (len(h) - 1)) == h


def _loop_recursion(b, a, xs):
    # The recursion as a plain loop: b[0] x first, then the input terms and
    # the output terms, most recent first, each added in turn.
    px, py, out = [0.0] * (len(b) - 1), [0.0] * (len(a) - 1), []
    for x in xs:
        acc = b[0] * x
        for k in range(1, len(b)):
            acc += b[k] * px[k - 1]
        for k in range(1, len(a)):
            acc -= a[k] * py[k - 1]
        out.append(acc)
        px, py = ([x] + px)[:len(px)], ([acc] + py)[:len(py)]
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.floats(0.0, 0.95), st.floats(-1.0, 3.0), st.integers(0, k - 1),
    st.integers(0, 2**32))))
def test_lde_is_bit_identical_to_the_plain_loop(draw):
    order, pole, lag, deriv, seed = draw
    num, den = _transfer(order, 0.5, pole, lag, deriv)
    rng = random.Random(seed)
    xs = [rng.gauss(0.0, 1.0) for _ in range(64)]
    assert lde_filter(num, den, xs) == _loop_recursion(num, den, xs)


def test_lde_cold_step_converges():
    num, den = _transfer(2, 1.0, 0.6065, 0.0)
    ys = lde_filter(num, den, [1.0] * 60)
    assert all(abs(y - 1.0) < 1e-3 for y in ys[40:])


def test_lde_cold_step_overshoot_grows_with_lead():
    # Cold-start step responses overshoot more as the read-out moves from lag
    # toward prediction.
    peaks = []
    for lag in (1.0, 0.0, -1.0):
        num, den = _transfer(2, 1.0, 0.6065, lag)
        peaks.append(max(lde_filter(num, den, [1.0] * 60)))
    assert peaks[0] < peaks[1] < peaks[2]
    assert peaks[2] > 1.1


# --- impulse response ----------------------------------------------------------

def test_impulse_head_is_leading_numerator_coefficient():
    num, den = _transfer(2, 1.0, 0.75, 0.5)
    h = impulse_response(num, den)
    assert h[0] == num[0]


def test_impulse_of_pure_delay():
    h = impulse_response(DELAY_NUM, DELAY_DEN)
    assert h[:4] == [0.0, 0.0, 1.0, 0.0]
    assert all(v == 0.0 for v in h[4:])


def test_impulse_first_order_geometric():
    p = 0.85
    num, den = _transfer(1, 1.0, p, 0.0)
    h = impulse_response(num, den, tol=1e-18)
    want = [(1.0 - p) * p**n for n in range(len(h))]
    assert max_abs_diff(h, want) < 1e-12
    assert sum(v * v for v in h) == pytest.approx((1.0 - p) / (1.0 + p), abs=1e-12)


def test_impulse_decay_envelope():
    # Fit the envelope constant on the first half of the window, then demand
    # the rest stays under it: a slower-than-(n+1)*p**n decay would escape.
    p = 0.9
    num, den = _transfer(2, 1.0, p, 1.0)
    h = impulse_response(num, den)
    n_check = min(int(10.0 / (1.0 - p)), len(h) - 1)
    c = max(abs(v) / ((n + 1) * p**n) for n, v in enumerate(h[: n_check // 2]))
    for n, v in enumerate(h[: n_check + 1]):
        assert abs(v) <= 1.5 * c * (n + 1) * p**n + 1e-15


def test_impulse_second_order_closed_form_tail():
    # Past the numerator memory the response of a double pole is exactly
    # (A + B*n) * p**n; solve A, B from two samples and check the rest.
    p = 0.8
    num, den = _transfer(2, 1.0, p, 1.5)
    h = impulse_response(num, den, tol=1e-16)
    n1, n2 = 3, 4
    b_coef = (h[n2] / p**n2 - h[n1] / p**n1) / (n2 - n1)
    a_coef = h[n1] / p**n1 - b_coef * n1
    for n in range(3, min(len(h), 120)):
        want = (a_coef + b_coef * n) * p**n
        assert abs(h[n] - want) < 1e-10


def test_impulse_rejects_marginal_and_unstable_poles():
    # The noise gain's step-down refuses the same inputs, exactly.
    for analysis in (impulse_response, white_noise_gain):
        with pytest.raises(NonConvergent):
            analysis([1.0, 0.0], [1.0, -1.0])
        with pytest.raises(NonConvergent):
            analysis([1.0, 0.0], [1.0, -1.2])
        with pytest.raises(NonConvergent):
            analysis([1.0, 0.0, 0.0, 0.0], from_roots([1.0] * 3))
        with pytest.raises(NonConvergent):  # Fujiwara's bound overflows to inf
            analysis([1.0, 0.0, 0.0], [1.0, 1e308, 1e308])


def test_impulse_refuses_a_nan_or_negative_tolerance_at_once():
    # No tail energy is <= nan or a negative bound: such a tol would run the
    # whole sample cap before failing as NonConvergent.  A tol that is not a
    # number is refused the same way, not with an untyped TypeError.
    num, den = _transfer(2, 1.0, 0.75, 0.5)
    for tol in (math.nan, -1e-12, -math.inf, None, "abc"):
        start = time.perf_counter()
        with pytest.raises(FixedGainError, match="tolerance") as info:
            impulse_response(num, den, tol=tol)
        assert not isinstance(info.value, NonConvergent)
        assert time.perf_counter() - start < 0.1
    # The edges of the accepted range still answer: all of the energy is
    # left at tol = inf, none at tol = 0.
    assert impulse_response(num, den, tol=math.inf) == impulse_response(num, den, tol=1.0)
    assert len(impulse_response(num, den, tol=0.0)) > len(impulse_response(num, den))


@pytest.mark.parametrize("bad", ["a", None])
@pytest.mark.parametrize("call", [
    partial(frequency_response, [1.0], [1.0, -0.5]),
    partial(lde_filter, [1.0], [1.0, -0.5]),
    lambda bad: lde_filter([1.0], [1.0, -0.5], [1.0, bad]),
], ids=["omega", "samples", "one-sample"])
def test_omega_and_samples_are_converted_as_the_impulse_tolerance_is(call, bad):
    # Used as numbers unconverted, they raised an untyped TypeError; what
    # float() accepts still answers as the number would.
    with pytest.raises(FixedGainError, match="must be (a number|numbers)"):
        call(bad)
    num, den = _transfer(2, 1.0, 0.75, 0.5)
    assert frequency_response(num, den, "0.3") == frequency_response(num, den, 0.3)
    assert lde_filter(num, den, ["0.5", 2]) == lde_filter(num, den, [0.5, 2.0])


def test_impulse_of_a_zero_energy_pair_at_infinite_tolerance_ends_at_once():
    # tol * total is inf * 0.0 = nan: every tail is "left" at once, so the
    # cut is n0, not a million-sample spin ending in NonConvergent.
    start = time.perf_counter()
    assert impulse_response([0.0] * 3, [1.0, -1.6, 0.64], tol=math.inf) == [0.0] * 8
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("num, den", [
    ([1.0, 0.0], [1.0, math.nan]),
    ([1.0, 0.0], [1.0, -math.inf]),
    ([math.inf, 0.0], [1.0, -0.5]),
    ([1.0, math.nan, 0.0], [1.0, -1.0, 0.25]),
])
def test_non_finite_coefficients_fail_at_once(num, den):
    # Every analysis of a pair passes the same gate, so none returns a nan
    # (or, like a flatness deviation of a pair with an infinite pole, a number).
    for analysis in (
        impulse_response,
        white_noise_gain,
        steady_state_step,
        partial(flatness_profile, deriv=0, lag=0.0, ts=1.0, orders=2),
        partial(flatness_check, deriv=0, lag=0.0, ts=1.0, orders=2),
        partial(lde_filter, xs=[1.0, 0.0, 0.0]),
        partial(ramp_error, lag=1.0, ts=1.0, horizon=3),
    ):
        start = time.perf_counter()
        with pytest.raises(NonFiniteValue):
            analysis(num, den)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("analysis, num, den", [
    (frequency_grid, [1.0], [1.0, math.nan]),
    (frequency_grid, [math.inf], [1.0, -0.5]),
    (frequency_grid, [1e308, 1e308], [1.0, -0.5]),
    (partial(frequency_response, omega=0.0), [1e308, 1e308], [1.0, -0.5]),
    (white_noise_gain, [1e200], [1.0]),
    (frequency_grid, [1.0], [1.0, 1e308, 1e308]),
])
def test_non_finite_responses_and_noise_gains_are_refused(analysis, num, den):
    with pytest.raises(NonFiniteValue):
        analysis(num, den)


def _tail(den, h, n):
    # Energy of the exact free response from h[n-K:n], sum h[m]**2 over m >= n,
    # rounded once: r_i = -sum_{j>i} a_j h[n+i-j] over A(z), solved in Fractions.
    a = [Fraction(c) for c in den]
    k = len(a) - 1
    r = [-sum(a[j] * Fraction(h[n + i - j]) for j in range(i + 1, k + 1)) for i in range(k)]
    return noise_gain_fraction(r, a)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.sampled_from([0.04, 1.0]), st.floats(0.0, 0.99), st.floats(-1.0, 3.0),
    st.integers(0, k - 1), st.sampled_from([1e-12, 1e-20]))))
def test_impulse_response_stops_at_its_exact_tail_energy(draw):
    order, ts, pole, lag, deriv, tol = draw
    num, den = _transfer(order, ts, pole, lag, deriv)
    try:
        h = impulse_response(num, den, tol=tol)
    except NonConvergent:
        # Only where rounding a K-fold pole near 1 pushed a root onto or out of
        # the unit circle, as for the noise gain.
        assert max(abs(np.roots(den))) > 0.99
        return
    n0 = max(len(num), 2 * order, 8)
    bound = tol * white_noise_gain(num, den)
    assert len(h) >= n0
    assert _tail(den, h, len(h)) <= bound
    if len(h) > n0:
        assert _tail(den, h, len(h) - 1) > bound


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.floats(0.0, 0.95), st.floats(-1.0, 3.0), st.integers(0, k - 1),
    st.integers(-200, 200))))
def test_impulse_response_scales_with_its_numerator(draw):
    # tol is relative to the total energy, so a power-of-two numerator scales
    # every sample exactly and leaves the cut where it was.
    order, pole, lag, deriv, s = draw
    num, den = _transfer(order, 1.0, pole, lag, deriv)
    h = impulse_response(num, den)
    scaled = impulse_response([math.ldexp(c, s) for c in num], den)
    assert scaled == [math.ldexp(v, s) for v in h]


def test_impulse_response_of_no_energy_is_its_first_samples():
    # The zero response has no tail to wait for: n0 samples, not the sample cap.
    start = time.perf_counter()
    assert impulse_response([0.0, 0.0, 0.0], [1.0, -1.6, 0.64]) == [0.0] * 8
    assert time.perf_counter() - start < 0.1


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.just(k), st.sampled_from([0.04, 1.0]), st.floats(0.0, 0.99), st.floats(-1.0, 3.0),
    st.integers(0, k - 1))))
def test_noise_gain_is_the_exact_value_rounded_once(draw):
    order, ts, pole, lag, deriv = draw
    num, den = _transfer(order, ts, pole, lag, deriv)
    try:
        got = white_noise_gain(num, den)
    except NonConvergent:
        # Rounding the coefficients of a K-fold pole near 1 can push a root
        # out of the unit circle; that, and only that, is refused.
        assert max(abs(np.roots(den))) > 0.99
        return
    assert got == noise_gain_fraction(num, den)
    if order == 1 and deriv == 0:
        assert got == pytest.approx((1.0 - pole) / (1.0 + pole), rel=1e-13)


def test_noise_gain_of_a_numerator_longer_than_its_denominator():
    # The shorter polynomial is padded in powers of z^-1: the value stays the
    # impulse sum, exactly so for a finite response.
    assert white_noise_gain([1.0, 2.0, 3.0], [1.0]) == 14.0
    num, den = [1.0, 0.5, 0.25, 0.0, 2.0], [1.0, -0.5]
    assert white_noise_gain(num, den) == pytest.approx(
        sum(v * v for v in impulse_response(num, den, tol=1e-20)), rel=1e-15)
    assert white_noise_gain(num, den) == noise_gain_fraction(num, den)


def test_noise_gain_of_subnormal_coefficients_is_quick():
    # Integer widths grow with the exponent range, here the full 2**1074.
    start = time.perf_counter()
    assert white_noise_gain([1.0] + [5e-324] * 8, [1.0, -0.5] + [5e-324] * 7) == 4.0 / 3.0
    assert white_noise_gain([5e-324] * 9, [1.0] + [5e-324] * 8) == 0.0
    assert time.perf_counter() - start < 0.5


@st.composite
def _step_down_pairs(draw):
    """Integer step-down input: a numerator 1..K+2 long over a denominator of
    order K = 0..8 whose roots, real or complex pairs, have magnitude up to
    1.05 (so some are unstable).  Either each polynomial is scaled by
    2**-500..2**500 and the pair made integer by _ints (up to ~1,100 bits),
    or the pair is rounded to a few bits, where a division that was not
    exact would move the rounded gain."""
    order = draw(st.integers(0, 8))
    roots = []
    while len(roots) < order:
        radius = draw(st.floats(0.0, 1.05))
        if len(roots) < order - 1 and draw(st.booleans()):
            angle = draw(st.floats(0.0, math.pi))
            roots += [cmath.rect(radius, angle), cmath.rect(radius, -angle)]
        else:
            roots.append(draw(st.sampled_from([radius, -radius])))
    den = list(from_roots(roots))
    num = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=order + 2))
    if draw(st.booleans()):
        bits = draw(st.integers(2, 12))
        ints = [round(c * 2 ** bits) for c in num + den]
    else:
        scales = [2.0 ** draw(st.integers(-500, 500)) for _ in range(2)]
        ints, _ = _ints([c * scales[0] for c in num] + [c * scales[1] for c in den])
    return ints[:len(num)], ints[len(num):]


def _step_down_outcome(step_down, nums, dens, shift):
    try:
        return step_down(nums, dens, shift).hex()
    except (NonConvergent, NonFiniteValue) as exc:
        return type(exc).__name__, str(exc)


@settings(max_examples=300, deadline=None)
@given(_step_down_pairs(), st.integers(0, 3))
def test_step_down_is_the_unreduced_recursion_bit_for_bit(pair, shift):
    # Every exact division leaves the rational unchanged, and every divisor is
    # a lead that passed Schur's test, so the float and the refusing step agree.
    nums, dens = pair
    assert (_step_down_outcome(_step_down, nums, dens, shift)
            == _step_down_outcome(step_down_unreduced, nums, dens, shift))


def test_noise_gain_of_coefficients_spanning_a_thousand_bits_is_quick():
    # Both pairs are order 8 with integers of about 1,050 bits; the
    # unreduced recursion doubles that width at each of the eight steps.
    ramp = [2.0 ** (-62 * k) for k in range(9)]
    mixed = from_roots([0.95, 0.9, 0.8 + 0.3j, 0.8 - 0.3j, -0.5, 0.7j, -0.7j, 0.2])
    pairs = [
        ([2.0 ** 500 * math.pi, -2.0 ** 499 / 3, 0.1 / 7],
         list(map(mul, from_roots([0.9] * 8), ramp))),
        ([2.0 ** 500 / 3] + [(-1) ** k * math.e * r for k, r in enumerate(ramp[1:])],
         list(map(mul, mixed, ramp))),
    ]
    start = time.perf_counter()
    gains = [white_noise_gain(num, den) for num, den in pairs]
    assert time.perf_counter() - start < 0.1
    for (num, den), gain in zip(pairs, gains):
        ints, _ = _ints(num + den)
        assert gain == step_down_unreduced(ints[:len(num)], ints[len(num):])


def test_impulse_truncation_reaches_requested_tolerance():
    num, den = _transfer(2, 1.0, 0.9394, 1.0)
    coarse = sum(v * v for v in impulse_response(num, den, tol=1e-8))
    fine = sum(v * v for v in impulse_response(num, den, tol=1e-16))
    assert abs(coarse - fine) < 1e-7


# --- frequency response ---------------------------------------------------------

def test_unity_dc_gain_for_position_readout():
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    assert frequency_response(num, den, 0.0) == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_pure_delay_frequency_response():
    for omega in (0.0, 0.3, 1.0, math.pi / 2, 3.0):
        got = frequency_response(DELAY_NUM, DELAY_DEN, omega)
        assert abs(got - cmath.exp(-2j * omega)) < 1e-14


def test_pole_on_unit_circle_detected():
    with pytest.raises(PoleOnUnitCircle):
        frequency_response([1.0, 0.0], [1.0, -1.0], 0.0)


def test_low_frequency_phase_slope_equals_negative_lag():
    for lag in (2.0, 0.5, -1.0):
        num, den = _transfer(2, 1.0, 0.7788, lag)
        omega = 1e-3
        h = frequency_response(num, den, omega)
        assert math.atan2(h.imag, h.real) / omega == pytest.approx(-lag, abs=1e-3)


def test_frequency_grid_shape_and_endpoints():
    num, den = _transfer(2, 1.0, 0.5, 0.0)
    grid = frequency_grid(num, den, points=256)
    assert len(grid) == 256
    assert grid[0][0] == 0.0
    assert grid[-1][0] == 0.5
    assert grid[0][1] == pytest.approx(1.0 + 0.0j, abs=1e-12)
    nyquist = frequency_response(num, den, math.pi)
    assert abs(grid[-1][1] - nyquist) < 1e-12


@pytest.mark.parametrize("points", [1, 0, -4])
def test_frequency_grid_needs_two_points(points):
    with pytest.raises(DimensionMismatch):
        frequency_grid([1.0], [1.0, -0.5], points)


@st.composite
def _stable_transfers(draw):
    """K = 0-20 denominators with real roots and conjugate pairs of magnitude
    at most 1 - 0.05**(8 / max(K, 8)), so that |D| stays above 0.75 * 0.05**8 on
    the unit circle, and numerators of 1 to K + 2 coefficients: the evaluator's
    passes of 8 Horner steps end at 9 and 17 coefficients.  A denominator is
    monic or scaled by -1, 0.75 or 3, and a numerator may lead with exactly
    1.0: a leading 1.0 starts the grid's evaluation at z + c1."""
    order = draw(st.integers(0, 20))
    top = 1.0 - 0.05 ** (8 / max(order, 8))
    roots: list[complex] = []
    while len(roots) < order:
        size = draw(st.floats(0.0, top))
        if order - len(roots) >= 2 and draw(st.booleans()):
            z = cmath.rect(size, draw(st.floats(0.0, math.pi)))
            roots += [z, z.conjugate()]
        else:
            roots.append(draw(st.sampled_from([size, -size])))
    num = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=order + 2))
    if draw(st.booleans()):
        num[0] = 1.0
    scale = draw(st.sampled_from([1.0, 1.0, -1.0, 0.75, 3.0]))
    return tuple(num), tuple([scale * c for c in from_roots(roots)])


@settings(max_examples=100, deadline=None)
@given(_stable_transfers(), st.sampled_from([2, 3, 17, 1024]))
def test_frequency_grid_is_the_per_point_evaluation(transfer, points):
    num, den = transfer
    want = []
    for j in range(points):
        f = 0.5 * j / (points - 1)
        z = cmath.exp(1j * (2.0 * math.pi * f))
        want.append((f, horner(num, z) / horner(den, z)))
    assert repr(frequency_grid(num, den, points)) == repr(want)  # == cannot tell 0.0 from -0.0


def test_frequency_response_at_real_omega():
    # The oracle takes exp(i * complex(omega)): a real omega gives the same bits, signed zeros
    # too.  At a zero omega it takes exp(1j * omega), as the function does: CPython 3.14 keeps
    # the sign of 1j * -0.0's imaginary zero, 3.10-3.13 do not.  -0.0 is the signed-zero edge
    # of the first Horner step: a leading 1.0 (the monic denominator, the last numerator)
    # starts at z + c1, which is 1.0 * z + c1 at every real omega, this one included.
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    assert den[0] == 1.0
    for omega in (0.0, -0.0, 0.3, -0.3, 2.5, -2.5, math.pi, -math.pi):
        z = cmath.exp(1j * (omega if omega == 0.0 else complex(omega)))
        for b in (num, (-0.0,), (-0.0, 0.0), (-0.0, -0.0), (1.0, -0.0)):
            assert repr(frequency_response(b, den, omega)) == repr(horner(b, z) / horner(den, z))


_LONG = 200_000


@pytest.mark.parametrize("num, den", [
    ([1 / _LONG] * _LONG, [1.0]),
    ([1.0], [1.0] + [0.5 / _LONG] * _LONG),  # |D| >= 1/2 on the unit circle
], ids=["numerator", "denominator"])
def test_frequency_response_of_long_coefficient_lists(num, den):
    # An evaluator nested one call deep per coefficient overflows the C stack here.
    start = time.perf_counter()
    h = frequency_response(num, den, 0.3)
    assert time.perf_counter() - start < 1.0
    z = cmath.exp(0.3j)
    assert h == horner(num, z) / horner(den, z)


def test_pole_on_unit_circle_names_the_first_frequency():
    for omega in (math.pi, "3.141592653589793"):  # named as the float it converts to
        with pytest.raises(PoleOnUnitCircle) as info:
            frequency_response([1.0], [1.0, 1.0], omega)
        assert str(info.value) == "denominator vanishes at omega = 3.141592653589793"
    with pytest.raises(PoleOnUnitCircle) as info:
        frequency_grid([1.0], [1.0, 1.0], 3)
    assert str(info.value) == "denominator vanishes at omega = 3.141592653589793"
    with pytest.raises(PoleOnUnitCircle) as info:  # zeros at omega = 0 and pi
        frequency_grid([1.0], [1.0, 0.0, -1.0], 5)
    assert str(info.value) == "denominator vanishes at omega = 0.0"


# --- white-noise gain -------------------------------------------------------------

def test_noise_gain_of_pure_delay_is_one():
    assert white_noise_gain(DELAY_NUM, DELAY_DEN) == 1.0


@pytest.mark.parametrize("order", range(1, 9))
def test_realization_noise_gain_is_the_kronecker_lyapunov_solve(order):
    # numpy's solve of (I - A kron A) vec P = vec(b b') loses digits with the
    # conditioning of I - A kron A, so the designs stay where it holds 1e-10.
    for pole, lag, deriv in [(0.3, 0.0, 0), (0.6, 1.5, 0), (0.8, -1.0, order - 1)]:
        ss = design(ObserverSpec.repeated(ProcessModel(order, 1.0), pole,
                                          lag=lag, deriv=deriv)).ss_kin
        a = np.array(ss.transition.data)
        b = np.array(ss.input_gain.col(0))
        c = np.array(ss.output_row.row(0))
        p = np.linalg.solve(np.eye(order * order) - np.kron(a, a), np.outer(b, b).ravel())
        want = c @ p.reshape(order, order) @ c
        assert _realization_noise_gain(ss) == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("order", range(1, 5))
def test_realization_noise_gain_of_long_memories_is_exact_to_roundoff(order):
    # Pole 0.999 needs about 2**14 samples of A^n: the doubling must not stop
    # before its tail is below roundoff.
    for pole in (0.5, 0.99, 0.999):
        ss = design(ObserverSpec.repeated(ProcessModel(order, 1.0), pole, lag=1.0)).ss_kin
        assert _realization_noise_gain(ss) == pytest.approx(
            lyapunov_noise_gain_fraction(ss), rel=1e-13)


@pytest.mark.parametrize("transition", [
    [[1.0, 0.0], [0.0, 0.5]],      # a pole at one
    [[0.0, -1.0], [1.0, 0.0]],     # a rotation: poles at +-i
    [[1.0, 1.0], [0.0, 1.0]],      # a double pole at one: grows linearly
    [[1.5, 0.0], [0.0, 0.2]],      # unstable: overflows before 64 doublings
])
def test_realization_noise_gain_refuses_a_non_contracting_transition(transition):
    ss = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5)).ss_kin
    ss = ss._replace(transition=Matrix(transition))
    start = time.perf_counter()
    with pytest.raises(NonConvergent):
        _realization_noise_gain(ss)
    assert time.perf_counter() - start < 0.5


def test_closed_form_noise_gain_reference_cells():
    assert white_noise_gain_k2(0.0, 0.0) == 1.0
    assert white_noise_gain_k2(0.7788, 1.0) == pytest.approx(0.2268, abs=5e-4)
    assert white_noise_gain_k2(0.6065, 3.58) == pytest.approx(0.1225, abs=5e-4)


def test_closed_form_noise_gain_validation():
    with pytest.raises(UnstablePoles):
        white_noise_gain_k2(1.0, 0.0)


def test_noise_gain_closed_form_matches_impulse_sum():
    for p in (0.0, 0.25, 0.6065, 0.9):
        for q in (-2.0, -0.5, 0.0, 1.5, 6.0):
            num, den = _transfer(2, 1.0, p, q)
            assert white_noise_gain(num, den) == pytest.approx(
                white_noise_gain_k2(p, q), abs=1e-9
            )


def test_noise_gain_matches_spectral_energy():
    # Parseval route: mean of |H|^2 over the unit circle.
    thetas = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    z = np.exp(1j * thetas)
    for memory in BENCH_MEMORIES:
        p = memory_to_pole(memory)
        num, den = _transfer(2, 1.0, p, 1.0)
        spectral = float(np.mean(np.abs(np.polyval(num, z) / np.polyval(den, z)) ** 2))
        assert white_noise_gain(num, den) == pytest.approx(spectral, abs=1e-6)


def test_noise_gain_decreases_with_memory():
    for lag in (1.0, 0.0, -1.0):
        row = [white_noise_gain_k2(memory_to_pole(l), lag) for l in BENCH_MEMORIES]
        assert all(a > b for a, b in zip(row, row[1:]))


def test_strong_lead_amplifies_noise():
    assert white_noise_gain_k2(0.6065, -5.0) > 1.0


def test_benchmark_grid_spot_checks():
    got = white_noise_gain_k2(memory_to_pole(8.0), 0.0)
    assert got == pytest.approx(BENCH_WNG[0.0][2], abs=5e-4)
    got = white_noise_gain_k2(memory_to_pole(16.0), -1.0)
    assert got == pytest.approx(BENCH_WNG[-1.0][4], abs=5e-4)


# --- optimal lag -------------------------------------------------------------------

def test_optimal_lag_reference_points():
    assert optimal_lag_k2(0.0) == 0.5
    assert optimal_lag_k2(0.6065) == pytest.approx(3.58, abs=0.01)
    assert optimal_lag_k2(0.9394) == pytest.approx(31.51, abs=0.01)


def test_optimal_lag_minimizes_closed_form():
    # Ternary search over the closed-form gain as the independent minimizer.
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        lo, hi = -5.0, 80.0
        for _ in range(200):
            m1 = lo + (hi - lo) / 3.0
            m2 = hi - (hi - lo) / 3.0
            if white_noise_gain_k2(p, m1) < white_noise_gain_k2(p, m2):
                hi = m2
            else:
                lo = m1
        assert optimal_lag_k2(p) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


def test_optimal_lag_achieves_benchmark_minimum():
    for memory, want in zip(BENCH_MEMORIES, BENCH_OPTIMAL_WNG):
        p = memory_to_pole(memory)
        assert white_noise_gain_k2(p, optimal_lag_k2(p)) == pytest.approx(want, abs=5e-4)


def test_optimal_lag_nulls_nyquist():
    p = 0.6065
    num, den = _transfer(2, 1.0, p, optimal_lag_k2(p))
    assert abs(frequency_response(num, den, math.pi)) < 1e-6


def test_optimal_lag_validation():
    with pytest.raises(UnstablePoles):
        optimal_lag_k2(-0.2)


# --- steady state ------------------------------------------------------------------

def test_step_final_value_is_one_for_smoothers():
    for p, q in ((0.5, 0.0), (0.8825, 1.0), (0.92, -1.0)):
        num, den = _transfer(2, 1.0, p, q)
        assert steady_state_step(num, den) == pytest.approx(1.0, abs=1e-12)
    assert steady_state_step(DELAY_NUM, DELAY_DEN) == 1.0


def test_step_final_value_is_zero_for_differentiator():
    # A velocity read-out sees no steady motion in a constant signal.
    num, den = _transfer(2, 0.1, 0.7, 0.0, deriv=1)
    assert abs(steady_state_step(num, den)) < 1e-10


def test_steady_state_rejects_pole_at_one():
    with pytest.raises(PoleAtOne):
        steady_state_step([1.0, 0.0], [1.0, -2.0, 1.0])


def test_ramp_error_vanishes_for_matched_designs():
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    assert abs(ramp_error(num, den, 2.0, 0.04, 500)) < 1e-6
    num, den = _transfer(2, 1.0, 0.8, 0.0)
    assert abs(ramp_error(num, den, 0.0, 1.0, 500)) < 1e-6


def test_ramp_error_exact_for_pure_delay():
    assert abs(ramp_error(DELAY_NUM, DELAY_DEN, 2.0, 0.04, 50)) < 1e-12


def test_ramp_error_fractional_lag():
    num, den = _transfer(2, 0.5, 0.6, 0.75)
    assert abs(ramp_error(num, den, 0.75, 0.5, 400)) < 1e-6


def test_ramp_error_refuses_negative_horizon():
    # The same mistake as a negative n_max in step_response, the same error.
    with pytest.raises(DimensionMismatch):
        ramp_error(DELAY_NUM, DELAY_DEN, 2.0, 0.04, -1)


@pytest.mark.parametrize("analysis", [white_noise_gain, impulse_response, steady_state_step])
def test_empty_coefficient_list_is_a_dimension_mismatch(analysis):
    with pytest.raises(DimensionMismatch):
        analysis([], [1.0])


@pytest.mark.parametrize("num, den", [([], [1.0]), ([1.0], []), ((), ())])
def test_empty_coefficient_list_keeps_the_polynomial_message(num, den):
    # Every analysis refuses an empty coefficient list at the one gate, in one wording.
    for analysis in (white_noise_gain, steady_state_step, partial(frequency_response, omega=0.1)):
        with pytest.raises(DimensionMismatch, match="^polynomial needs at least one coefficient$"):
            analysis(num, den)


# --- dc flatness --------------------------------------------------------------------

def test_flatness_targets_position_readout():
    targets = flatness_targets(0, 2.0, 0.04, 4)
    want = [(-2j) ** k for k in range(4)]
    assert max_abs_diff(targets, want) < 1e-12


def test_flatness_targets_below_derivative_are_zero():
    targets = flatness_targets(2, 1.0, 0.1, 4)
    assert targets[0] == 0j and targets[1] == 0j


def test_flatness_targets_velocity_readout():
    targets = flatness_targets(1, 0.0, 0.25, 2)
    assert targets[1] == pytest.approx(1j / 0.25, abs=1e-12)


# Lag, ts and deriv that ObserverSpec and ProcessModel refuse, with the error
# each raises there, and a lag of 1e308, whose targets overflow.
BAD_READ_OUTS = [
    (0, math.nan, 0.1, NonFiniteValue),
    (1, math.inf, 0.1, NonFiniteValue),
    (1, -math.inf, 0.1, NonFiniteValue),
    (3, 1e308, 0.1, NonFiniteValue),
    (0, 1.0, math.nan, NonFiniteValue),
    (1, 1.0, math.inf, NonFiniteValue),
    (0, 1.0, -math.inf, NonFiniteValue),
    (1, 1.0, 0.0, NonPositiveSamplingPeriod),
    (0, 1.0, -0.04, NonPositiveSamplingPeriod),
    (2, 1.0, 1e-300, NonFiniteValue),
    (2, 1.0, 1e200, NonFiniteValue),
    (-1, 1.0, 0.1, DerivativeIndexOutOfRange),
    (ORDER_CAP, 1.0, 0.1, DerivativeIndexOutOfRange),
    (1.5, 1.0, 0.1, DerivativeIndexOutOfRange),
    (1.0, 1.0, 0.1, DerivativeIndexOutOfRange),
]


@pytest.mark.parametrize("deriv, lag, ts, error", BAD_READ_OUTS)
@pytest.mark.parametrize("analysis", [
    lambda deriv, lag, ts: flatness_targets(deriv, lag, ts, 5),
    lambda deriv, lag, ts: flatness_profile([0.5, 0.0], [1.0, -0.5], deriv, lag, ts, 5),
    lambda deriv, lag, ts: flatness_check([0.5, 0.0], [1.0, -0.5], deriv, lag, ts, 5),
])
def test_flatness_refuses_what_the_records_refuse(analysis, deriv, lag, ts, error):
    with pytest.raises(error):
        analysis(deriv, lag, ts)


@pytest.mark.parametrize("lag, ts, error", [
    (math.nan, 0.1, NonFiniteValue),
    (math.inf, 0.1, NonFiniteValue),
    (-math.inf, 0.1, NonFiniteValue),
    (1.0, math.nan, NonFiniteValue),
    (1.0, math.inf, NonFiniteValue),
    (1.0, -math.inf, NonFiniteValue),
    (1.0, 0.0, NonPositiveSamplingPeriod),
    (1.0, -0.04, NonPositiveSamplingPeriod),
    (1.0, 1e308, NonFiniteValue),
])
def test_ramp_error_refuses_what_the_records_refuse(lag, ts, error):
    # A ts of 1e308 is a valid period, but the ramp n * ts overflows, and the
    # error would be nan.
    with pytest.raises(error):
        ramp_error([0.5, 0.0], [1.0, -0.5], lag, ts, 50)


def _unguarded_targets(deriv, lag, ts, count):
    # flatness_targets' closed form with no checks, term by term.
    return [(1j) ** k * (-lag) ** (k - deriv) * ts ** (-deriv) * math.perm(k, deriv)
            if k >= deriv else 0j for k in range(count)]


_READ_OUT_REFUSALS = (NonFiniteValue, NonPositiveSamplingPeriod, DerivativeIndexOutOfRange)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(-2, ORDER_CAP + 1), st.floats(-1.0, 9.0)), st.floats(),
       st.one_of(st.floats(), st.floats(1e-320, 1e-280), st.floats(1e150, 1e308)),
       st.integers(0, 10))
def test_flatness_targets_are_the_closed_form_or_a_typed_refusal(deriv, lag, ts, count):
    # Accepted inputs give the unguarded closed form's bits; a refusal is
    # typed and holds a deriv, lag or ts the records refuse, or a target
    # past the double range.
    try:
        got = flatness_targets(deriv, lag, ts, count)
    except _READ_OUT_REFUSALS:
        if isinstance(deriv, int) and 0 <= deriv < ORDER_CAP and math.isfinite(lag):
            try:
                ProcessModel(deriv + 1, ts)
                want = _unguarded_targets(deriv, lag, ts, count)
            except (OverflowError, *_READ_OUT_REFUSALS):
                return
            assert not all(map(cmath.isfinite, want))
        return
    assert isinstance(deriv, int) and 0 <= deriv < ORDER_CAP and math.isfinite(lag)
    assert repr(got) == repr(_unguarded_targets(deriv, lag, ProcessModel(deriv + 1, ts).ts, count))


def test_reference_design_is_flat_through_order_two():
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    assert flatness_check(num, den, 0, 2.0, 0.04, 3) < 1e-8


def test_flatness_breaks_at_filter_order():
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    profile = flatness_profile(num, den, 0, 2.0, 0.04, 4)
    assert abs(profile[3][1] - profile[3][0]) > 1e-3


def test_pure_delay_is_flat_to_high_order():
    num, den = _transfer(3, 0.04, 0.0, 2.0)
    assert flatness_check(num, den, 0, 2.0, 0.04, 6) < 1e-8


def test_dc_derivatives_match_impulse_moments():
    # Independent route: the k-th dc derivative equals sum h[n] * (-i n)**k.
    num, den = _transfer(3, 0.04, 0.8, 2.0)
    h = impulse_response(num, den, tol=1e-30)
    profile = flatness_profile(num, den, 0, 2.0, 0.04, 4)
    for k, (_, measured) in enumerate(profile):
        moment = sum(v * (-1j * n) ** k for n, v in enumerate(h))
        assert abs(measured - moment) < 1e-6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda k: st.tuples(
    st.lists(st.floats(0.0, 0.8), min_size=k, max_size=k),
    st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k),
)))
@example(([0.0] * 7 + [0.796875], [0.0, 0.0, -0.46875, 0.875, -0.578125, 0.8125, -0.53125, 0.0]))
def test_dc_derivatives_match_impulse_moments_property(draw):
    # The k-th dc derivative is sum h[n] (-i n)**k, with the moments taken
    # exactly: a float sum over a cut impulse response is no reference at
    # high k, since the energy cut does not bound the n**k-weighted tail (at
    # the example, order 8 of a 135-sample response was 1.4e-6 off).
    poles, head = draw
    order = len(poles)
    num, den = head + [0.0], from_roots(poles)
    profile = flatness_profile(num, den, 0, 0.0, 1.0, order + 1)
    moments = impulse_moments_fraction(num, den, order + 1)
    for k, ((_, measured), exact) in enumerate(zip(profile, moments)):
        moment = (-1j) ** k * float(exact)
        assert abs(measured - moment) <= 1e-6 * max(1.0, abs(moment))


def test_flatness_rejects_pole_at_one():
    with pytest.raises(PoleAtOne):
        flatness_profile([1, 0], [1, -1], 0, 0.0, 1.0, 2)


def test_flatness_of_velocity_readout():
    num, den = _transfer(2, 0.1, 0.7, 0.0, deriv=1)
    assert flatness_check(num, den, 1, 0.0, 0.1, 2) < 1e-7


# --- step response and spectra -------------------------------------------------------

def test_step_response_is_flat_with_matched_initialization():
    # Initializing from the first step sample lands exactly on the constant
    # -input fixed point, so there is nothing left to converge.
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.6065, lag=0.0))
    ys = step_response(result, 50)
    assert len(ys) == 51
    assert max(abs(y - 1.0) for y in ys) < 1e-12


_COUNTS = {  # each count argument: its analysis, its least value, its refusal
    "frequency_grid.points": (partial(frequency_grid, DELAY_NUM, DELAY_DEN), 2,
                              "frequency grid needs at least 2 points"),
    "step_response.n_max": (
        lambda n: step_response(design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5)), n), 0,
        "step response needs n_max >= 0"),
    "ramp_error.horizon": (partial(ramp_error, DELAY_NUM, DELAY_DEN, 2.0, 0.04), 0,
                           "ramp error needs horizon >= 0"),
    "flatness_targets.count": (partial(flatness_targets, 0, 2.0, 0.04), 0,
                               "flatness needs a count of orders >= 0"),
    "flatness_profile.orders": (partial(flatness_profile, DELAY_NUM, DELAY_DEN, 0, 2.0, 0.04),
                                0, "flatness needs a count of orders >= 0"),
    "flatness_check.orders": (partial(flatness_check, DELAY_NUM, DELAY_DEN, 0, 2.0, 0.04), 0,
                              "flatness needs a count of orders >= 0"),
}


@pytest.mark.parametrize("bad", [2.0, 3.0, "3", -1, -5, True], ids=repr)
@pytest.mark.parametrize("argument", sorted(_COUNTS))
def test_a_count_must_be_an_int_of_at_least_its_least_value(argument, bad):
    # A float or a string count raised an untyped TypeError from range() or a
    # comparison, a negative flatness count returned an empty list, and a bool
    # counted as its int.
    analysis, least, need = _COUNTS[argument]
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(need)}, got {re.escape(repr(bad))}$"):
        analysis(bad)
    analysis(least)


@pytest.mark.parametrize("argument", sorted(_COUNTS))
def test_a_count_past_the_sample_cap_is_refused(argument):
    # A count past the million samples impulse_response stops at ran for
    # seconds; far past it, without end or into an untyped OverflowError.
    analysis, _, need = _COUNTS[argument]
    with pytest.raises(DimensionMismatch,
                       match=f"^{re.escape(need)} and at most 1000000, got 1000001$"):
        analysis(_SAMPLE_CAP + 1)
    analysis(2)


def test_step_response_past_ssize_t_is_a_typed_refusal():
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5))
    with pytest.raises(DimensionMismatch, match="at most 1000000, got 10000000000000000000000$"):
        step_response(result, 10**22)


@pytest.mark.parametrize("order", [2, 8])
def test_flatness_past_171_orders_raises_non_finite_value(order):
    # 171! is past the double range: the dc series raised an untyped OverflowError.
    # At 171 orders the series holds, but 170! times its last term is past it,
    # and the profile ended in inf - inf j, the check in inf.
    num, den = transfer_coefficients(design(ObserverSpec.repeated(ProcessModel(order, 1.0), 0.5)))
    for orders in (171, 172):
        for analysis in (flatness_profile, flatness_check):
            with pytest.raises(NonFiniteValue, match=f"dc derivatives of {orders} orders overflow"):
                analysis(num, den, 0, 0.0, 1.0, orders)


@pytest.mark.parametrize("n_max", [-1, -3])
def test_step_response_refuses_a_negative_horizon(n_max):
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5))
    with pytest.raises(DimensionMismatch):
        step_response(result, n_max)
    assert step_response(result, 0) == [1.0]


def test_step_response_identity_filter():
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.0, lag=0.0))
    ys = step_response(result, 10)
    assert ys == pytest.approx([1.0] * 11, abs=1e-12)


def test_step_response_lagged_readout_stays_converged():
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.7788, lag=1.0))
    ys = step_response(result, 40)
    assert ys[-1] == pytest.approx(1.0, abs=1e-9)
