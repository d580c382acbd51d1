"""Pole placement: gains, similarity transforms, closed forms, pole bookkeeping.

The independent reference here is numpy's eigensolver: whatever the
similarity-based pipeline produces, the assembled closed-loop transition must
have exactly the requested eigenvalues.
"""

import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (
    REF_CHAR,
    REF_CLOSED_LOOP,
    REF_GAIN_KIN,
    REF_GAIN_PCF,
    REF_KIN_FROM_PCF,
    REF_PCF_FROM_KIN,
    _realization_noise_gain,
    ackermann_gains_fraction,
    closed_form_gains,
    matmul,
    max_abs_diff,
    placed_specs,
    placement_residual,
    realized_char_poly,
)
from fixedgain import (
    DesignResult,
    GainVectors,
    ObserverSpec,
    ProcessModel,
    companion_matrix,
    design,
    from_roots,
    initialize_state,
    memory_to_pole,
    pcf_realization,
    pole_to_memory,
    run,
    transfer_coefficients,
)
from fixedgain.design import _scaled_gains, _stirling
from fixedgain.errors import (
    DerivativeIndexOutOfRange,
    DimensionMismatch,
    FixedGainError,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    NotMonic,
    UnstablePoles,
)
from fixedgain.realize import companion_column, pcf_transform


# --- companion-column / gain helpers ---------------------------------------

def test_companion_column_of_integrator_chain():
    char = ProcessModel(3, 1.0).char_poly  # (z-1)**3
    assert companion_column(char) == (1.0, -3.0, 3.0)


def test_companion_column_takes_any_coefficient_sequence(reference_design):
    for char in (ProcessModel(3, 1.0).char_poly, reference_design.char_poly):
        want = companion_column(char)
        assert companion_column(list(char)) == companion_column(iter(char)) == want
    assert companion_column([1, -3, 3, -1]) == (1.0, -3.0, 3.0)


def test_companion_column_requires_monic():
    with pytest.raises(NotMonic, match=r"^expected leading coefficient 1, got 2\.0$"):
        companion_column([2.0, 1.0])
    for char in ([1.0], []):
        with pytest.raises(NotMonic, match="^characteristic polynomial must have degree >= 1$"):
            companion_column(char)


def test_polynomials_are_float_tuples(reference_design):
    # The design document prints these lists: an int coefficient would print as 1, not 1.0.
    num, den = transfer_coefficients(reference_design)
    for poly in (ProcessModel(3, 1.0).char_poly, reference_design.char_poly, num, den):
        assert type(poly) is tuple and len(poly) == 4
        assert all(type(c) is float for c in poly), poly


def test_pcf_gain_is_columnwise_gap(reference_design):
    r = reference_design
    col_prc, col_obs = companion_column(r.spec.process.char_poly), companion_column(r.char_poly)
    assert col_prc == (1.0, -3.0, 3.0)
    assert col_obs == pytest.approx((0.512, -1.92, 2.4), abs=1e-15)
    gap = tuple(gp - go for gp, go in zip(col_prc, col_obs))
    assert r.gains.pcf == gap
    assert gap == pytest.approx((0.488, -1.08, 0.6), abs=1e-15)


# --- companion similarity ----------------------------------------------------

def test_pcf_transform_reference_values():
    kin_from_pcf, pcf_from_kin = pcf_transform(ProcessModel(3, 0.04))
    assert max(max_abs_diff(r, w) for r, w in zip(kin_from_pcf, REF_KIN_FROM_PCF)) < 1e-9
    assert max(max_abs_diff(r, w) for r, w in zip(pcf_from_kin, REF_PCF_FROM_KIN)) < 1e-12


def test_pcf_transform_directions_invert_each_other():
    kin_from_pcf, pcf_from_kin = pcf_transform(ProcessModel(4, 0.3))
    prod = np.array(matmul(kin_from_pcf, pcf_from_kin))
    assert float(np.max(np.abs(prod - np.eye(4)))) < 1e-9


def test_pcf_transform_first_order_is_identity():
    kin_from_pcf, pcf_from_kin = pcf_transform(ProcessModel(1, 0.7))
    assert kin_from_pcf == ((1.0,),)
    assert pcf_from_kin == ((1.0,),)


def test_pcf_transform_carries_the_similarity():
    # Rotating the process transition into companion coordinates must give the
    # companion matrix of its characteristic polynomial, and the predictor row
    # must become the last unit row.
    model = ProcessModel(3, 0.04)
    kin_from_pcf, pcf_from_kin = pcf_transform(model)
    rotated = matmul(matmul(pcf_from_kin, model.transition_matrix), kin_from_pcf)
    want = companion_matrix(companion_column(model.char_poly))
    assert float(np.max(np.abs(np.array(rotated) - np.array(want)))) < 1e-8
    row = matmul(model.transition_matrix[:1], kin_from_pcf)[0]
    assert row == pytest.approx((0.0, 0.0, 1.0), abs=1e-9)


def test_pcf_transform_is_the_unit_pair_scaled():
    # F(ts) = S^-1 F(1) S with S = diag(ts^j), so kin_from_pcf = S^-1 T1^-1
    # and pcf_from_kin = T1 S, where (T1^-1, T1) is the ts = 1 pair.
    for order in range(1, 9):
        unit_kin_from_pcf, unit_pcf_from_kin = pcf_transform(ProcessModel(order, 1.0))
        for ts in (1e-4, 0.04, 3.0, 1e3):
            kin_from_pcf, pcf_from_kin = pcf_transform(ProcessModel(order, ts))
            assert kin_from_pcf == tuple(
                tuple(v * ts ** -i for v in row)
                for i, row in enumerate(unit_kin_from_pcf))
            assert pcf_from_kin == tuple(
                tuple(v * ts ** j for j, v in enumerate(row))
                for row in unit_pcf_from_kin)


# --- the design pipeline -----------------------------------------------------

def test_reference_design_gains(reference_design):
    assert max_abs_diff(reference_design.gains.pcf, REF_GAIN_PCF) < 1e-12
    assert max_abs_diff(reference_design.gains.kin, REF_GAIN_KIN) < 1e-12


def test_reference_design_char_poly(reference_design):
    assert max_abs_diff(reference_design.char_poly, REF_CHAR) < 1e-13


def test_reference_design_closed_loop(reference_design):
    got = reference_design.ss_kin.transition
    assert max(max_abs_diff(r, w) for r, w in zip(got.data, REF_CLOSED_LOOP)) < 1e-12


def test_reference_design_output_row(reference_design):
    assert reference_design.ss_kin.output_row.row(0) == pytest.approx(
        (1.0, -0.08, 0.0032), abs=1e-15
    )


def test_closed_loop_eigenvalues_match_requested_poles():
    rng = random.Random(77)
    for _ in range(25):
        order = rng.randint(1, 5)
        ts = 10.0 ** rng.uniform(-2, 1)
        p = rng.uniform(0.0, 0.95)
        spec = ObserverSpec.repeated(ProcessModel(order, ts), p, lag=rng.uniform(-2, 3))
        result = design(spec)
        eig = np.linalg.eigvals(np.array(result.ss_kin.transition.data))
        got = np.sort_complex(eig)
        want = np.sort_complex(np.array([complex(v) for v in spec.poles]))
        # repeated eigenvalues smear by roughly the m-th root of roundoff
        tol = 1e-10 ** (1.0 / max(order, 1)) if order > 1 else 1e-10
        assert float(np.max(np.abs(got - want))) < max(tol, 1e-8)


def test_complex_pole_design_places_eigenvalues():
    poles = (0.5, 0.4 + 0.3j, 0.4 - 0.3j)
    result = design(ObserverSpec(ProcessModel(3, 0.5), poles, lag=1.0))
    eig = np.sort_complex(np.linalg.eigvals(np.array(result.ss_kin.transition.data)))
    want = np.sort_complex(np.array(poles, dtype=complex))
    assert float(np.max(np.abs(eig - want))) < 1e-9
    assert placement_residual(realized_char_poly(result), poles) < 1e-10


def test_placing_poles_on_process_poles_needs_no_correction():
    # With the observer poles equal to the process poles D(1+u) = u^K, so
    # every a_m below the leading one vanishes and the closed form gives an
    # exactly zero gain.  design() itself refuses these marginal poles.
    assert _scaled_gains((1.0, 1.0, 1.0)) == [0.0, 0.0, 0.0]


def test_unstable_poles_rejected():
    for poles in ((1.0, 0.5), (0.6 + 0.8j, 0.6 - 0.8j), (-1.5, 0.5)):
        with pytest.raises(UnstablePoles):
            design(ObserverSpec(ProcessModel(2, 1.0), poles))


def test_placement_residual_small_over_random_designs():
    rng = random.Random(88)
    worst = 0.0
    for _ in range(30):
        order = rng.randint(1, 5)
        p = rng.uniform(0.0, 0.95)
        result = design(ObserverSpec.repeated(ProcessModel(order, 0.5), p))
        worst = max(worst, placement_residual(realized_char_poly(result), result.spec.poles))
    assert worst < 1e-8


def test_realized_char_poly_recovers_design_polynomial(reference_design):
    got = realized_char_poly(reference_design)
    assert max_abs_diff(got, reference_design.char_poly) < 1e-10


def test_placement_residual_counts_multiplicity():
    # (z - 0.5)**2 has residual zero at the double pole, but a simple shift of
    # one root must show up through the derivative term.
    exact = (1.0, -1.0, 0.25)
    assert placement_residual(exact, [0.5, 0.5]) < 1e-15
    shifted = (1.0, -1.001, 0.2505)
    assert placement_residual(shifted, [0.5, 0.5]) > 1e-5


@settings(max_examples=200, deadline=None)
@given(placed_specs())
def test_gains_are_the_exact_ackermann_gains_rounded(spec):
    # Against Ackermann's formula run exactly on the same float poles and ts.
    # Each component may err by a few ulps times K of the magnitudes summed
    # into it: (j!/ts^j) sum |s(n, j+1) a_(K-n)| / (n-1)!.
    model = spec.process
    order = model.order
    got = design(spec).gains.kin
    want = ackermann_gains_fraction(spec.poles, model.ts)
    a = from_roots([p - 1.0 for p in spec.poles])
    s = _stirling(order)
    for j, (g, w) in enumerate(zip(got, want)):
        scale = math.factorial(j) / Fraction(model.ts) ** j * sum(
            abs(s[n][j + 1] * Fraction(a[n])) / math.factorial(n - 1)
            for n in range(j + 1, order + 1))
        assert abs(Fraction(g) - w) <= 2 * order * 2.0 ** -52 * scale


@pytest.mark.parametrize("order", range(1, 9))
def test_repeated_pole_gains_are_exact_to_a_few_ulps(order):
    eps = 2.0 ** -52
    for p in (0.0, 0.3, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999):
        for ts in (1e-4, 1.0, 100.0):
            got = design(ObserverSpec.repeated(ProcessModel(order, ts), p)).gains.kin
            want = ackermann_gains_fraction((p,) * order, ts)
            for g, w in zip(got, want):
                assert abs(Fraction(g) - w) <= 4 * order * eps * abs(w)


@pytest.mark.parametrize("order", range(1, 9))
def test_design_and_pcf_cover_every_sampling_period(order):
    # The 64-point probe K = 1..8 x ts = 1e-4..1e3 at p = 0.8: nothing is
    # inverted per design, so every point designs and its PCF certifies.
    for ts in (1e-4, 1e-3, 3e-3, 0.01, 0.04, 1.0, 100.0, 1e3):
        result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.8))
        pcf_realization(result)


def test_long_memory_eighth_order_design_contracts():
    # K = 8, pole 0.9726 (memory 36), ts 0.04: the gains of the earlier
    # similarity route were wrong enough for this loop to diverge.
    spec = ObserverSpec.repeated(ProcessModel(8, 0.04), 0.9725635108332211,
                                 lag=2.2621128731781504)
    ss = design(spec).ss_kin
    assert max(abs(np.linalg.eigvals(np.array(ss.transition.data)))) < 1.0
    ys = run(ss, initialize_state(ss, 0.0), [1.0] + [0.0] * 19_999)
    assert abs(ys[-1]) < 1e-200
    assert _realization_noise_gain(ss) == pytest.approx(0.1122, abs=1e-4)


@pytest.mark.parametrize("order, ts", [(8, 1e-44), (8, 1e-300), (2, 5e-324)])
def test_design_overflowing_its_ts_scaling_is_typed(order, ts):
    # ts^-j or a gain k_j ~ ts^-j past the double range: a typed error, not
    # an untyped OverflowError or an inf/nan loop.
    with pytest.raises(NonFiniteValue):
        design(ObserverSpec.repeated(ProcessModel(order, ts), 0.8))


def test_first_order_design_is_exponential_smoother():
    # Order 1: output y[n] = p*y[n-1] + (1-p)*x[n].
    p = 0.65
    result = design(ObserverSpec.repeated(ProcessModel(1, 1.0), p))
    num, den = transfer_coefficients(result)
    assert num == pytest.approx((1.0 - p, 0.0), abs=1e-12)
    assert den == pytest.approx((1.0, -p), abs=1e-12)


# --- closed-form gains -------------------------------------------------------

def test_closed_form_gains_second_order_values():
    assert closed_form_gains(2, 0.0, 1.0) == pytest.approx((1.0, 1.0))
    assert closed_form_gains(2, 0.0, 0.1) == pytest.approx((1.0, 10.0))
    assert closed_form_gains(2, 0.8, 1.0) == pytest.approx((0.36, 0.04))


def test_closed_form_gains_third_order_reference():
    got = closed_form_gains(3, 0.8, 0.04)
    assert max_abs_diff(got, REF_GAIN_KIN) < 1e-12


def test_closed_form_gains_first_order():
    assert closed_form_gains(1, 0.25, 1.0) == (0.75,)


def test_closed_form_gains_match_pipeline():
    rng = random.Random(99)
    for _ in range(40):
        order = rng.choice((2, 3))
        p = rng.uniform(0.0, 0.99)
        ts = 10.0 ** rng.uniform(-3, 1)
        closed = closed_form_gains(order, p, ts)
        piped = design(ObserverSpec.repeated(ProcessModel(order, ts), p)).gains.kin
        for c, g in zip(closed, piped):
            assert abs(c - g) <= 1e-8 * max(abs(c), abs(g), 1e-30)


def test_closed_form_gains_validation():
    with pytest.raises(ValueError):
        closed_form_gains(4, 0.5, 1.0)
    with pytest.raises(UnstablePoles):
        closed_form_gains(2, 1.0, 1.0)
    with pytest.raises(NonPositiveSamplingPeriod):
        closed_form_gains(2, 0.5, 0.0)


def test_gain_scale_covariance():
    # Element k of the kinematic gain scales as ts**(-k); the first element
    # is independent of the sampling period.
    p = 0.7
    a = design(ObserverSpec.repeated(ProcessModel(3, 1.0), p)).gains.kin
    b = design(ObserverSpec.repeated(ProcessModel(3, 0.2), p)).gains.kin
    for k in range(3):
        assert b[k] == pytest.approx(a[k] / 0.2 ** k, rel=1e-9)


# --- memory <-> pole ---------------------------------------------------------

def test_memory_to_pole_reference_points():
    assert memory_to_pole(4.4814) == pytest.approx(0.8, abs=1e-4)
    assert memory_to_pole(4.0) == pytest.approx(0.7788, abs=5e-5)


def test_memory_pole_roundtrip():
    for memory in (0.5, 2.0, 16.0):
        assert pole_to_memory(memory_to_pole(memory)) == pytest.approx(memory, rel=1e-12)


def test_short_memory_limit():
    assert memory_to_pole(1e-3) < 1e-6


def test_memory_domain_errors():
    with pytest.raises(FixedGainError):
        memory_to_pole(0.0)
    with pytest.raises(FixedGainError):
        pole_to_memory(0.0)
    with pytest.raises(FixedGainError):
        pole_to_memory(1.0)


# --- spec validation ---------------------------------------------------------

def test_spec_pole_count_checked():
    with pytest.raises(DimensionMismatch):
        ObserverSpec(ProcessModel(3, 1.0), (0.5, 0.5))


def test_spec_derivative_index_checked():
    with pytest.raises(DerivativeIndexOutOfRange):
        ObserverSpec(ProcessModel(2, 1.0), (0.5, 0.5), deriv=2)


@pytest.mark.parametrize("deriv", [1.0, 1.5, 0.0, -1, 3, math.nan, math.inf, "1", None, True])
@pytest.mark.parametrize("build", [
    lambda deriv: ObserverSpec(ProcessModel(3, 0.5), (0.5,) * 3, 1.0, deriv),
    lambda deriv: ObserverSpec.repeated(ProcessModel(3, 0.5), 0.5, lag=1.0, deriv=deriv),
    lambda deriv: ObserverSpec(ProcessModel(3, 0.5), (0.5,) * 3)._replace(deriv=deriv),
])
def test_spec_refuses_a_deriv_that_is_not_an_index(build, deriv):
    # A float deriv, even 1.0, was accepted and then failed inside design()
    # with an untyped TypeError; True was read as deriv 1.
    with pytest.raises(DerivativeIndexOutOfRange, match=r"^derivative index must be in 0\.\.2, "):
        build(deriv)


@pytest.mark.parametrize("poles, lag", [
    ((math.nan, 0.5), 0.0),
    ((complex(0.5, math.inf), 0.5), 0.0),
    ((0.5, 0.5), math.nan),
    ((0.5, 0.5), -math.inf),
    ((0.5, 0.5), math.inf),
])
def test_spec_rejects_non_finite_poles_and_lag(poles, lag):
    with pytest.raises(NonFiniteValue):
        ObserverSpec(ProcessModel(2, 1.0), poles, lag=lag)


def test_repeated_spec_rejects_out_of_range_pole():
    with pytest.raises(UnstablePoles):
        ObserverSpec.repeated(ProcessModel(2, 1.0), 1.0)
    with pytest.raises(UnstablePoles):
        ObserverSpec.repeated(ProcessModel(2, 1.0), -0.1)


def test_replaced_spec_is_validated_again():
    spec = ObserverSpec(ProcessModel(2, 1.0), (0.5, 0.5))
    assert spec._replace(lag=2) == ObserverSpec(spec.process, (0.5, 0.5), 2.0)
    assert type(spec._replace(lag=2).lag) is float
    assert spec._replace(poles=[0.25, 0.5]).poles == (0.25 + 0j, 0.5 + 0j)
    with pytest.raises(NonFiniteValue):
        spec._replace(lag=math.nan)
    with pytest.raises(DimensionMismatch):
        spec._replace(poles=(0.5,))
    with pytest.raises(DerivativeIndexOutOfRange):
        spec._replace(deriv=2)


# --- records -----------------------------------------------------------------

def test_spec_record_contract():
    model = ProcessModel(2, 1.0)
    spec = ObserverSpec(model, (0.5, 0.5), lag=1)
    assert repr(spec) == ("ObserverSpec(process=ProcessModel(order=2, ts=1.0), "
                          "poles=((0.5+0j), (0.5+0j)), lag=1.0, deriv=0)")
    assert spec == ObserverSpec(process=model, poles=[0.5, 0.5], lag=1.0, deriv=0)
    assert spec == ObserverSpec.repeated(model, 0.5, lag=1.0)
    assert spec != ObserverSpec(model, (0.5, 0.5))
    assert spec == ObserverSpec(ProcessModel(2, 1.0), (0.5, 0.5), lag=1.0)  # process by value
    assert hash(spec) == hash(ObserverSpec(model, (0.5, 0.5), 1.0))
    assert {spec: 1}[ObserverSpec(model, (0.5, 0.5), 1.0)] == 1
    for field in ("process", "poles", "lag", "deriv"):
        with pytest.raises(AttributeError):
            setattr(spec, field, getattr(spec, field))
    copy = pickle.loads(pickle.dumps(spec))
    assert type(copy) is ObserverSpec and repr(copy) == repr(spec)


def test_gain_vectors_and_design_result_records():
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5))
    gains = result.gains
    assert repr(gains) == f"GainVectors(kin={gains.kin!r}, pcf={gains.pcf!r})"
    assert type(gains.kin) is type(gains.pcf) is tuple
    assert {type(v) for v in gains.kin + gains.pcf} == {float}
    assert gains == GainVectors(tuple([*gains.kin]), pcf=tuple([*gains.pcf]))
    assert hash(gains) == hash(GainVectors(gains.kin, gains.pcf))
    for field in ("kin", "pcf"):
        with pytest.raises(AttributeError):
            setattr(gains, field, gains.kin)
    assert pickle.loads(pickle.dumps(gains)) == gains
    assert type(result) is DesignResult
    for field in DesignResult._fields:
        with pytest.raises(AttributeError):
            setattr(result, field, getattr(result, field))
    assert result == design(result.spec)
    assert result != design(result.spec._replace(lag=1.0))
    assert repr(result).startswith(f"DesignResult(spec={result.spec!r}, gains={gains!r}, ")
    assert DesignResult._fields == ("spec", "gains", "char_poly", "ss_kin")
    assert repr(result).endswith(f", ss_kin={result.ss_kin!r})")
    copy = pickle.loads(pickle.dumps(result))
    assert copy == result
    assert type(copy) is DesignResult and repr(copy) == repr(result)
    assert copy._replace(spec=result.spec) == result
    assert transfer_coefficients(copy) == transfer_coefficients(result)
