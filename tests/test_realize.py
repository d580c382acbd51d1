"""Canonical realizations, similarity bookkeeping, stepping semantics."""

import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    REF_GAIN_OCF,
    REF_NUMERATOR,
    REF_OCF_FROM_KIN_COL0,
    SingularMatrix,
    column_gap,
    companion_pair_fraction,
    gauss_jordan_full,
    loop_transfer_fraction,
    matmul,
    matrix_recursion_columns,
    max_abs_diff,
    noisy_polynomial,
    placed_specs,
    second_order_transfer,
    stepped_columns,
    transfer_numerator_fraction,
    transfer_pair_fraction,
)
from fixedgain import (
    FilterState,
    Form,
    Matrix,
    StateSpaceModel,
    ObserverSpec,
    ProcessModel,
    ccf_realization,
    companion_matrix,
    design,
    extract_kinematic,
    initialize_state,
    ocf_realization,
    pcf_realization,
    read_output,
    run,
    step,
    transfer_coefficients,
)
from fixedgain.errors import (
    DimensionMismatch,
    FixedGainError,
    FormMismatch,
    NonFiniteValue,
    NotMonic,
    Uncontrollable,
    Unobservable,
    UnstablePoles,
)
from fixedgain.cli import design_document
from fixedgain.design import _scaled_loop
from fixedgain.linalg import _dot
from fixedgain.realize import _last_unit_solve, _scaled_code, companion_column


def _reference_design():
    return design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0))


def _pure_delay_design():
    return design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.0, lag=2.0))


# --- structural helpers ------------------------------------------------------

def test_companion_matrix_layout():
    m = companion_matrix((1.0, -3.0, 3.0))
    assert m == ((0.0, 0.0, 1.0), (1.0, 0.0, -3.0), (0.0, 1.0, 3.0))


def test_companion_matrix_converts_its_column_to_float():
    m = companion_matrix([1, 2, 3])
    assert m == ((0.0, 0.0, 1.0), (1.0, 0.0, 2.0), (0.0, 1.0, 3.0))
    assert {type(v) for row in m for v in row} == {float}


@pytest.mark.parametrize("column, message", [
    ([], "matrix must have at least one row and column"),
    ([0.5] * 9, "matrix 9x9 exceeds the 8x8 cap"),
])
def test_companion_matrix_refuses_an_empty_or_oversized_column(column, message):
    # The shifted identity is checked once per order, as a Matrix's shape is.
    with pytest.raises(DimensionMismatch, match=f"^{message}$"):
        companion_matrix(column)


def _matrices(ss: StateSpaceModel) -> list[Matrix]:
    return [ss.transition, ss.input_gain, ss.output_row, ss.kin_from_form, ss.form_from_kin]


def _realizations(result) -> list:
    """ss_kin, every canonical form of ``result`` that certifies, and last
    the scaled loop the filter command runs."""
    built = [result.ss_kin]
    for build in (pcf_realization, ocf_realization, ccf_realization):
        try:
            built.append(build(result))
        except (Unobservable, Uncontrollable):
            pass
    return built + [_scaled_loop(result)]


@pytest.mark.parametrize("order", range(1, 9))
def test_realization_matrices_hold_only_float_row_tuples(order):
    # The realizations wrap rows they built from floats without converting
    # them again: an int-valued ts and lag must still give float entries.
    forms = set()
    for ts, lag, deriv in ((1, 2, 0), (2, 0, order - 1), (3, -1, order // 2)):
        result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.5, lag=lag, deriv=deriv))
        built = _realizations(result)
        forms.update(ss.form for ss in built)
        for m in [m for ss in built[:-1] for m in _matrices(ss)]:
            assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
            assert {type(v) for row in m.data for v in row} == {float}, m
        for field in [*built[-1], *result.gains]:  # the scaled loop and gains: float tuples
            assert type(field) is tuple and {type(v) for v in field} == {float}, field
    assert forms == set(Form)


@pytest.mark.parametrize("order", range(1, 9))
def test_companion_forms_fix_two_fields_and_map_the_third_across(order):
    # Each form fixes its transition and one of its input column and output
    # row exactly; the other is T b or c S, bit for bit as a left-to-right
    # product gives it.
    forms = set()
    for ts, lag, deriv in ((1, 2, 0), (2, 0, order - 1), (3, -1, order // 2)):
        result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.5, lag=lag, deriv=deriv))
        kin, col = result.ss_kin, companion_column(result.char_poly)
        companion = companion_matrix(col)
        unit = tuple(tuple(float(i == j) for j in range(order)) for i in range(order))
        for ss in _realizations(result)[1:-1]:
            forms.add(ss.form)
            mapped_row = matmul(kin.output_row, ss.kin_from_form)
            mapped_gain = matmul(ss.form_from_kin, kin.input_gain)
            if ss.form is Form.PCF:
                fixed = (companion, tuple(zip(result.gains.pcf)), mapped_row)
            elif ss.form is Form.OCF:
                fixed = (companion, mapped_gain, unit[-1:])
            else:  # the transposed companion matrix, reversed in both orders
                fixed = (tuple(row[::-1] for row in zip(*companion))[::-1],
                         tuple(zip(unit[0])), mapped_row)
            got = (ss.transition.data, ss.input_gain.data, ss.output_row.data)
            assert repr(got) == repr(fixed)  # == cannot tell 0.0 from -0.0
    assert forms == {Form.PCF, Form.OCF, Form.CCF}


def test_designs_of_one_order_share_no_matrix():
    # Matrix.data can be reassigned, so each realization owns its matrices;
    # only the immutable row tuples are shared.
    spec = ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0)
    first, second = design(spec), design(spec)
    owned = [[m for ss in _realizations(result)[:-1] for m in _matrices(ss)]
             for result in (first, second)]
    assert len(owned[0]) == len(owned[1]) == 20
    assert not {id(m) for m in owned[0]} & {id(m) for m in owned[1]}
    assert first.ss_kin.kin_from_form is not first.ss_kin.form_from_kin
    want = [m.data for m in owned[1]]
    for m in owned[0]:
        m.data = ((math.nan,),)
    assert [m.data for m in owned[1]] == want
    identity = Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert second.ss_kin.kin_from_form == identity == design(spec).ss_kin.form_from_kin


# --- canonical realizations --------------------------------------------------

def test_pcf_transition_is_companion_of_observer_polynomial():
    result = _reference_design()
    pcf = pcf_realization(result)
    assert pcf.transition.data == companion_matrix(companion_column(result.char_poly))
    assert pcf.input_gain.col(0) == result.gains.pcf


def test_pcf_similarity_identities():
    result = _reference_design()
    pcf = pcf_realization(result)
    kin = result.ss_kin
    rotated = np.array(matmul(matmul(pcf.form_from_kin, kin.transition), pcf.kin_from_form))
    assert float(np.max(np.abs(rotated - np.array(pcf.transition.data)))) < 1e-8
    # The predictor row becomes the last unit row in companion coordinates.
    model = result.spec.process
    row = matmul(model.transition_matrix[:1], pcf.kin_from_form)[0]
    assert row == pytest.approx((0.0, 0.0, 1.0), abs=1e-8)


def test_ocf_structure_and_reference_gain():
    result = _reference_design()
    ocf = ocf_realization(result)
    assert ocf.output_row.row(0) == (0.0, 0.0, 1.0)
    assert ocf.transition.data == companion_matrix(companion_column(result.char_poly))
    assert max_abs_diff(ocf.input_gain.col(0), REF_GAIN_OCF) < 1e-9


def test_ocf_transform_first_column():
    ocf = ocf_realization(_reference_design())
    assert max_abs_diff(ocf.form_from_kin.col(0), REF_OCF_FROM_KIN_COL0) < 1e-9


def test_ocf_gain_closed_form_second_order():
    # For an order-2 smoother with zero lag the canonical input gain is
    # [2p(p-1), 1-p**2] -- the numerator coefficients bottom-up.
    for p in (0.0, 0.3, 0.8):
        result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), p, lag=0.0))
        try:
            ocf = ocf_realization(result)
        except Unobservable:
            assert p == 0.0  # perfect cancellation; covered below
            continue
        want = (2.0 * p * (p - 1.0), 1.0 - p * p)
        assert ocf.input_gain.col(0) == pytest.approx(want, abs=1e-10)


def test_ocf_gain_closed_form_third_order():
    p = 0.8
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), p, lag=0.0))
    ocf = ocf_realization(result)
    want = (-3.0 * p**2 * (p - 1.0), 3.0 * p * (p**2 - 1.0), 1.0 - p**3)
    assert ocf.input_gain.col(0) == pytest.approx(want, abs=1e-9)


def test_ocf_second_order_transition_structure():
    p = 0.6
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), p, lag=1.0))
    ocf = ocf_realization(result)
    assert np.allclose(
        np.array(ocf.transition.data), [[0.0, -p * p], [1.0, 2.0 * p]], atol=1e-12
    )


def test_ccf_structure():
    result = _reference_design()
    ccf = ccf_realization(result)
    assert ccf.input_gain.col(0) == (1.0, 0.0, 0.0)
    col = companion_column(result.char_poly)
    assert ccf.transition.row(0) == (col[2], col[1], col[0])
    assert ccf.transition.row(1) == (1.0, 0.0, 0.0)
    assert ccf.transition.row(2) == (0.0, 1.0, 0.0)


def test_ccf_output_row_is_numerator():
    result = _reference_design()
    ccf = ccf_realization(result)
    num, _ = transfer_coefficients(result)
    assert max_abs_diff(ccf.output_row.row(0), num[:3]) < 1e-9


def test_ccf_first_order():
    p = 0.4
    result = design(ObserverSpec.repeated(ProcessModel(1, 1.0), p))
    ccf = ccf_realization(result)
    assert ccf.output_row.row(0) == pytest.approx((1.0 - p,), abs=1e-12)
    assert ccf.transition.data == ((p,),)


def test_unobservable_readout_raises():
    # Zero pole with zero lag cancels the dynamics entirely; the read-out row
    # cannot see the state and the observable form does not exist.
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.0, lag=0.0))
    with pytest.raises(Unobservable,
                       match="^closed-loop pair is not observable; cannot reach OCF$"):
        ocf_realization(result)


def test_uncontrollable_zero_gain_raises():
    # Placing the observer poles on the process poles needs no correction at
    # all, so the input column is zero and the controllable form does not
    # exist.  design() refuses those marginal poles, so the zero column is
    # put in by hand.
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5))
    kin = result.ss_kin
    result = result._replace(ss_kin=kin._replace(
        transition=Matrix(ProcessModel(2, 1.0).transition_matrix),
        input_gain=Matrix([[0.0], [0.0]])))
    with pytest.raises(Uncontrollable,
                       match="^closed-loop pair is not controllable; cannot reach CCF$"):
        ccf_realization(result)


@st.composite
def _stacks(draw):
    """The rows of a K x K matrix, K = 1..8: random entries (zeros among them), rows and
    columns scaled across 1e+-150, or one row a combination of two others
    plus a perturbation of 0 to 1e-8."""
    n = draw(st.integers(1, 8))
    entries = st.floats(-2.0, 2.0, allow_subnormal=False)
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    kind = draw(st.sampled_from(["random", "badly scaled", "near singular"]))
    if kind == "badly scaled":
        rows, cols = (draw(st.lists(st.integers(-150, 150), min_size=n, max_size=n))
                      for _ in range(2))
        a = [[v * 10.0 ** (r + c) for v, c in zip(row, cols)] for row, r in zip(a, rows)]
    elif kind == "near singular":
        i, j, target = (draw(st.integers(0, n - 1)) for _ in range(3))
        eps = draw(st.sampled_from([0.0, 1e-16, 1e-13, 1e-11, 1e-8]))
        x, y = draw(entries), draw(entries)
        a[target] = [x * u + y * v + eps * w for u, v, w in zip(a[i], a[j], a[target])]
    return tuple(map(tuple, a))


@settings(max_examples=400, deadline=None)
@given(_stacks())
def test_last_unit_solve_is_the_full_width_elimination_bit_for_bit(a):
    # Columns left of a pivot are never read again, so updating only those
    # right of it, for the one right side e_K, leaves every pivot, factor and
    # result unchanged; repr tells -0.0 from 0.0 and shows nan.  Where the
    # reference's relative pivot test refuses, the one-vector solve, which
    # refuses only an exactly zero pivot and leaves roundoff to the
    # certification, either raises the caller's own error or returns K floats.
    unit = [[0.0]] * (len(a) - 1) + [[1.0]]
    error = Unobservable("stack is singular")
    try:
        want = gauss_jordan_full(a, unit)
    except SingularMatrix:
        try:
            got = _last_unit_solve(list(a), error)
        except Unobservable as refused:
            assert refused is error
        else:
            assert len(got) == len(a) and all(type(v) is float for v in got)
    else:
        assert repr(_last_unit_solve(list(a), error)) == repr([v for v, in want])


@pytest.mark.parametrize("zero", range(3))
def test_last_unit_solve_refuses_an_all_zero_column(zero):
    # A zero column leaves no nonzero pivot in that column at any step.
    full = [(2.0, -1.0, 3.0), (0.5, 4.0, -2.0), (1.0, 1.0, 8.0)]
    stack = [tuple(0.0 if j == zero else v for j, v in enumerate(row)) for row in full]
    error = Uncontrollable("stack is singular")
    with pytest.raises(Uncontrollable) as refused:
        _last_unit_solve(stack, error)
    assert refused.value is error


@pytest.mark.parametrize("lag", [-1.0, 0.5, 2.0])
@pytest.mark.parametrize("ts", [0.04, 1.0])
@pytest.mark.parametrize("order", range(1, 9))
def test_dual_ccf_matches_numpy_controllability_reference(order, ts, lag):
    # The CCF transforms come from the dual observable form; the reference
    # equates controllability matrices in numpy: kin_from_ccf is
    # ctrb_kin @ inv(ctrb_can) and ccf_from_kin its inverse.
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.8, lag=lag))
    try:
        ccf = ccf_realization(result)
    except Uncontrollable:
        assert order >= 7  # every lower order certifies at pole 0.8
        return
    a = np.array(result.ss_kin.transition.data)
    b = np.array(result.ss_kin.input_gain.data)
    t = np.eye(order, k=-1)
    t[0] = [-c for c in result.char_poly[1:]]
    e1 = np.eye(order)[:, :1]
    ctrb_kin = np.hstack([np.linalg.matrix_power(a, k) @ b for k in range(order)])
    ctrb_can = np.hstack([np.linalg.matrix_power(t, k) @ e1 for k in range(order)])
    for got, want in (
        (ccf.kin_from_form, ctrb_kin @ np.linalg.inv(ctrb_can)),
        (ccf.form_from_kin, ctrb_can @ np.linalg.inv(ctrb_kin)),
    ):
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(np.array(got.data) - want))) <= 1e-8 * scale


def _dev(got: Matrix, want) -> float:
    """Largest entry error of ``got`` against the exact ``want``, over the
    largest entry of ``want``."""
    scale = max(abs(v) for row in want for v in row)
    return float(max(abs(Fraction(g) - w) for gr, wr in zip(got.data, want)
                     for g, w in zip(gr, wr)) / scale)


@pytest.mark.parametrize("lag", [-1.0, 0.0, 2.0])
@pytest.mark.parametrize("ts", [0.04, 1.0])
@pytest.mark.parametrize("order", range(1, 9))
def test_companion_transforms_match_the_exact_builder(order, ts, lag):
    # The companion builder run exactly on the same float inputs.  Horner's
    # rows (OCF form_from_kin, CCF kin_from_form) involve no solve and stay
    # within a few ulps times K of their largest entry; the Krylov side rests
    # on the one inversion and is held to the certification bound.
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.8, lag=lag))
    kin, col = result.ss_kin, companion_column(result.char_poly)
    horner_tol = 4 * order * 2.0 ** -52
    ocf = ocf_realization(result)
    kin_from_ocf, ocf_from_kin = companion_pair_fraction(
        kin.output_row.row(0), kin.transition.data, col)
    assert _dev(ocf.form_from_kin, ocf_from_kin) <= horner_tol
    assert _dev(ocf.kin_from_form, kin_from_ocf) <= 1e-8
    try:
        ccf = ccf_realization(result)
    except Uncontrollable:
        assert order >= 7  # every lower order certifies at pole 0.8
        return
    p_inv, p = companion_pair_fraction(
        kin.input_gain.col(0), tuple(zip(*kin.transition.data)), col)
    assert _dev(ccf.kin_from_form, [list(r) for r in zip(*p[::-1])]) <= horner_tol
    assert _dev(ccf.form_from_kin, [list(r) for r in zip(*p_inv)][::-1]) <= 1e-8


@pytest.mark.parametrize("ts", [0.04, 0.5, 1.0])
@pytest.mark.parametrize("order", range(1, 9))
def test_ocf_is_pcf_when_the_read_out_is_the_predictor_row(order, ts):
    # At lag -1 the position read-out is the predictor row, and output
    # injection keeps the companion shape, so the observable form of the
    # closed loop and the companion form of the process are one coordinate
    # system: every matrix agrees to roundoff.
    model = ProcessModel(order, ts)
    result = design(ObserverSpec.repeated(model, 0.8, lag=-1.0))
    assert result.ss_kin.output_row.row(0) == model.transition_matrix[0]
    ocf, pcf = ocf_realization(result), pcf_realization(result)
    for name in ("transition", "input_gain", "output_row", "kin_from_form", "form_from_kin"):
        want = [v for row in getattr(pcf, name).data for v in row]
        tol = 1e-8 * max(map(abs, want))
        got = [v for row in getattr(ocf, name).data for v in row]
        assert max_abs_diff(got, want) <= tol, name


@pytest.mark.parametrize("order, ts", [(3, 0.04), (4, 10.0)])
def test_certification_rejects_graded_degenerate_readout(order, ts):
    # Deadbeat designs with a one-sample lag make the read-out row exactly
    # orthogonal to part of the state space, but roundoff leaves the
    # observability stack's pivots nonzero, so the elimination finishes.  The
    # identity check on the finished transform catches it, so the observable
    # form is refused rather than returned with silently corrupt coordinates.
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.0, lag=1.0))
    with pytest.raises(Unobservable):
        ocf_realization(result)


def test_certification_refuses_a_transform_holding_nan():
    # At a lag of 2.2e-308 the observable form's transform holds entries near
    # the underflow threshold, and its inverse comes out all nan.  A nan
    # residual compares false against any bound, so the certificate has to
    # read it as inf, not pass it.
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.0, lag=2.2e-308))
    with pytest.raises(Unobservable):
        ocf_realization(result)
    assert all(math.isfinite(v) for row in ccf_realization(result).kin_from_form.data for v in row)


@pytest.mark.parametrize("order, ts", [(3, 0.04), (4, 10.0)])
def test_certified_fallback_keeps_transfer_exact(order, ts):
    # At the same refused designs the controllable form certifies fine, and
    # the transfer read through it is the exact one-sample delay.
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), 0.0, lag=1.0))
    ccf_realization(result)  # must not raise
    num, den = transfer_coefficients(result)
    want_num = [0.0] * (order + 1)
    want_num[1] = 1.0
    want_den = [0.0] * (order + 1)
    want_den[0] = 1.0
    assert max_abs_diff(num, want_num) < 1e-12
    assert max_abs_diff(den, want_den) < 1e-12


def _certifies(build, result) -> bool:
    try:
        build(result)
    except (Unobservable, Uncontrollable):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(placed_specs(), st.floats(-3.0, 3.0), st.integers(-20, 20))
def test_refusals_ignore_a_power_of_two_change_of_ts(spec, log_ts, m):
    # A power-of-two change of ts scales the columns of the observability
    # stacks by powers of two, which changes neither partial pivoting, nor an
    # exactly zero pivot, nor the rounding of the finished pair's identities:
    # each companion form certifies at ts * 2**m exactly when it does at ts.
    ts = 10.0 ** log_ts
    decisions = []
    for t in (ts, math.ldexp(ts, m)):
        result = design(ObserverSpec(ProcessModel(spec.process.order, t), spec.poles,
                                     lag=spec.lag, deriv=spec.deriv))
        decisions.append([_certifies(build, result)
                          for build in (pcf_realization, ocf_realization, ccf_realization)])
    assert decisions[0] == decisions[1]


@pytest.mark.parametrize("ts", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3])
def test_six_state_lag_one_companion_forms_certify_at_every_time_unit(ts):
    # Whether a companion form exists is a property of the loop, not of the
    # unit ts is given in: both forms certify, each side of each pair within
    # 1e-8 of the builder run exactly, relative to its largest entry.
    result = design(ObserverSpec.repeated(ProcessModel(6, ts), 0.8, lag=1.0))
    kin, col = result.ss_kin, companion_column(result.char_poly)
    ocf, ccf = ocf_realization(result), ccf_realization(result)
    kin_from_ocf, ocf_from_kin = companion_pair_fraction(
        kin.output_row.row(0), kin.transition.data, col)
    p_inv, p = companion_pair_fraction(
        kin.input_gain.col(0), tuple(zip(*kin.transition.data)), col)
    for got, want in ((ocf.kin_from_form, kin_from_ocf), (ocf.form_from_kin, ocf_from_kin),
                      (ccf.kin_from_form, [list(r) for r in zip(*p[::-1])]),
                      (ccf.form_from_kin, [list(r) for r in zip(*p_inv)][::-1])):
        assert _dev(got, want) <= 1e-8


# --- transfer coefficients ---------------------------------------------------

def test_reference_transfer_coefficients():
    num, den = transfer_coefficients(_reference_design())
    assert max_abs_diff(num, REF_NUMERATOR) < 1e-12
    assert num[3] == 0.0
    assert den[0] == 1.0


def test_transfer_structural_invariants():
    rng = random.Random(12)
    for _ in range(10):
        order = rng.randint(1, 4)
        p = rng.uniform(0.0, 0.9)
        q = rng.uniform(-1.5, 3.0)
        num, den = transfer_coefficients(
            design(ObserverSpec.repeated(ProcessModel(order, 0.5), p, lag=q))
        )
        assert len(num) == order + 1 and len(den) == order + 1
        assert num[order] == 0.0
        assert den[0] == 1.0


def test_deadbeat_transfer_at_lag_0_passes_the_input_through():
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.0, lag=0.0))
    num, den = transfer_coefficients(result)
    assert num == pytest.approx((1.0, 0.0, 0.0), abs=1e-13)
    assert den == pytest.approx((1.0, 0.0, 0.0), abs=1e-13)


def test_ocf_and_ccf_routes_agree():
    rng = random.Random(13)
    for _ in range(10):
        order = rng.randint(1, 4)
        p = rng.uniform(0.05, 0.9)
        result = design(
            ObserverSpec.repeated(ProcessModel(order, 0.3), p, lag=rng.uniform(-1, 2))
        )
        via_ocf = ocf_realization(result).input_gain.col(0)[::-1]
        via_ccf = ccf_realization(result).output_row.row(0)
        assert max_abs_diff(via_ocf, via_ccf) < 1e-9


@settings(max_examples=300, deadline=None)
@given(placed_specs())
# The draw spans ts 1e-3 to 10; these reach the ends of the exact pair's scale.
@example(ObserverSpec.repeated(ProcessModel(8, 1e-30), 0.9, lag=1.5, deriv=2))
@example(ObserverSpec.repeated(ProcessModel(8, 1e30), 0.9, lag=1.5, deriv=2))
@example(ObserverSpec(ProcessModel(3, 1e-30), (0.6 + 0.3j, 0.6 - 0.3j, 0.5), lag=-0.5, deriv=1))
@example(ObserverSpec(ProcessModel(3, 1e30), (0.6 + 0.3j, 0.6 - 0.3j, 0.5), lag=-0.5, deriv=1))
def test_transfer_numerator_is_the_exact_recursion_rounded(spec):
    result = design(spec)
    num, den = transfer_coefficients(result)
    # Bit for bit the exact pair of the loop F - k p, rounded once.
    exact_num, exact_den = transfer_pair_fraction(result)
    assert num == tuple(map(float, exact_num))
    assert den == tuple(map(float, exact_den))
    # And bit for bit the Cayley-Hamilton recursion on that exact loop, with
    # its characteristic polynomial from traces: no Sherman-Morrison step.
    want, want_den = loop_transfer_fraction(result)
    assert num[-1] == 0.0 and len(num) == spec.process.order + 1
    assert num == want and den == want_den


@pytest.mark.parametrize("lag", [-1.0, 0.0, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("order", range(5, 9))
def test_transfer_at_high_order_and_lag(order, lag):
    # Here the companion forms often fail to certify; the transfer function,
    # read off the kinematic realization, does not depend on them.
    result = design(ObserverSpec.repeated(ProcessModel(order, 1.0), 0.8, lag=lag))
    num, _ = transfer_coefficients(result)
    assert all(map(math.isfinite, num))
    scale = max(map(abs, num))
    want = transfer_numerator_fraction(result.ss_kin, result.char_poly)
    assert max_abs_diff(num, want) <= 1e-12 * scale
    try:
        via_ocf = ocf_realization(result).input_gain.col(0)[::-1]
    except Unobservable:
        return
    assert max_abs_diff(num[:-1], via_ocf) <= 1e-12 * scale


def test_second_order_transfer_examples():
    num, den = second_order_transfer(0.0, 0.0)
    assert num == (1.0, 0.0, 0.0)
    assert den == (1.0, 0.0, 0.0)
    num, den = second_order_transfer(0.5, 1.0)
    assert den == (1.0, -1.0, 0.25)
    assert num == pytest.approx((0.5, -0.25, 0.0), abs=1e-15)
    # unity dc gain: coefficient sums match
    assert sum(num) == pytest.approx(sum(den), abs=1e-15)


def test_second_order_transfer_matches_pipeline_fractional_lag():
    for p, q in ((0.3, 0.25), (0.7788, -0.5), (0.9, 1.75)):
        result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), p, lag=q))
        num, den = transfer_coefficients(result)
        cnum, cden = second_order_transfer(p, q)
        assert max_abs_diff(num, cnum) < 1e-10
        assert max_abs_diff(den, cden) < 1e-10


def test_second_order_transfer_rejects_bad_pole():
    with pytest.raises(UnstablePoles):
        second_order_transfer(1.0, 0.0)


def test_transfer_is_continuous_in_pole():
    base, _ = transfer_coefficients(
        design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5, lag=1.0))
    )
    bumped, _ = transfer_coefficients(
        design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5 + 1e-6, lag=1.0))
    )
    assert max_abs_diff(base, bumped) < 1e-4


# --- state handling ----------------------------------------------------------

def test_initialize_state_kinematic():
    result = _reference_design()
    state = initialize_state(result.ss_kin, 5.0)
    assert state.vector == [5.0, 0.0, 0.0]
    assert initialize_state(result.ss_kin, 0.0).vector == [0.0, 0.0, 0.0]


def test_initialize_state_ocf_reference_column():
    ocf = ocf_realization(_reference_design())
    state = initialize_state(ocf, 1.0)
    assert max_abs_diff(state.vector, REF_OCF_FROM_KIN_COL0) < 1e-9


def test_step_rejects_mismatched_state():
    result = _reference_design()
    pcf = pcf_realization(result)
    state = initialize_state(result.ss_kin, 1.0)
    with pytest.raises(FormMismatch):
        step(pcf, state, 0.0)
    with pytest.raises(FormMismatch):
        read_output(pcf, state)
    with pytest.raises(FormMismatch):
        extract_kinematic(pcf, state)


def _wrong_length_calls(ss, state):
    return {"step": lambda: step(ss, state, 1.0), "read_output": lambda: read_output(ss, state),
            "extract_kinematic": lambda: extract_kinematic(ss, state)}


@pytest.mark.parametrize("length", [0, 2, 4, 100_000])
def test_a_state_vector_of_another_length_is_refused_and_kept(length):
    # Every form unpacks its state in its first product, so a vector that is
    # not of the realization's order is refused before anything is written.
    result = _reference_design()
    for ss in _realizations(result):
        assert ss.order == 3
        state = initialize_state(ss, 1.0)
        for call in _wrong_length_calls(ss, state).values():
            call()  # every product and kernel of this order is built now
        built = [(c.misses, c.currsize) for c in (_dot.cache_info(), _scaled_code.cache_info())]
        vector = [0.5] * length
        state.vector = vector
        for name, call in _wrong_length_calls(ss, state).items():
            with pytest.raises(DimensionMismatch,
                               match="^state vector length is not the order 3$"):
                call()
            assert state.vector is vector and vector == [0.5] * length, (ss.form, name)
        assert [(c.misses, c.currsize) for c in (_dot.cache_info(),
                                                 _scaled_code.cache_info())] == built
        # A vector of the right length still steps, in place.
        state.vector = [0.5] * 3
        step(ss, state, 1.0)
        assert len(state.vector) == 3 and state.vector != [0.5] * 3


_NOT_NUMBERS = "^state vector is not a list of numbers in the double range$"


@pytest.mark.parametrize("vector", [["a", 0.5, 0.5], [0.5, None, 0.5], [10 ** 400, 0.5, 0.5],
                                    (1.0, 0.5, 0.5), None],
                         ids=["str", "none-entry", "huge-int", "tuple", "none"])
def test_a_state_vector_that_is_not_a_list_of_doubles_is_blamed_and_kept(vector):
    # The sample is converted again on the error path only: a sample that
    # converts leaves the vector at fault.  Nothing is written, and a sample
    # that does not convert is still blamed first.
    result = _reference_design()
    realizations = _realizations(result)
    assert {ss.form for ss in realizations} == set(Form)
    for ss in realizations:
        state, before = FilterState(ss.form, vector), repr(vector)
        calls = {"step": lambda: step(ss, state, 1.0), "run": lambda: run(ss, state, [1.0])}
        if type(vector) is not tuple:  # a tuple reads; only step cannot write it
            calls.update(_wrong_length_calls(ss, state))
        for name, call in calls.items():
            with pytest.raises(FixedGainError, match=_NOT_NUMBERS) as caught:
                call()
            assert type(caught.value) is FixedGainError, (ss.form, name)
            assert state.vector is vector and repr(vector) == before, (ss.form, name)
        with pytest.raises(FixedGainError,
                           match="^a sample of type str is not a number in the double range$"):
            step(ss, state, "x")
        good = initialize_state(ss, 1.0)
        with pytest.raises(FixedGainError,
                           match="^a sample of type NoneType is not a number in the double range$"):
            step(ss, good, None)


@pytest.mark.parametrize("vector", [[1j, 0.0, 0.0], [0.5, 0.5, complex(0.5, 0.0)],
                                    [0j, 0j, 0j], [0.5, np.complex128(1j), 0.5]],
                         ids=["imaginary", "complex-real", "complex-zeros", "numpy-complex"])
def test_a_complex_state_vector_is_refused_on_the_dense_forms_and_kept(vector):
    # Every product of a dense form runs over the whole state, so a complex entry
    # makes each result complex and one test of a result refuses it; read_output
    # sums every entry and extract_kinematic tests its tuple whole, on every view.
    # The scaled loop's step refuses a Python complex by float(), which takes a numpy
    # complex's real part with a warning; testing every sample there would cost each
    # one, so its step and run are left out for numpy's.
    result = _reference_design()
    realizations = _realizations(result)
    assert {ss.form for ss in realizations} == set(Form)
    numpy_complex = any(isinstance(v, np.complex128) for v in vector)
    for ss in realizations:
        state, before = FilterState(ss.form, vector), repr(vector)
        calls = {"run": lambda: run(ss, state, [1.0]), **_wrong_length_calls(ss, state)}
        if numpy_complex and ss.form is Form.SCALED:
            del calls["step"], calls["run"]
        for name, call in calls.items():
            with pytest.raises(FixedGainError, match=_NOT_NUMBERS) as caught:
                call()
            assert type(caught.value) is FixedGainError, (ss.form, name)
            assert state.vector is vector and repr(vector) == before, (ss.form, name)


def test_int_and_float_subclass_state_entries_step_as_before():
    # A vector of ints, or of numpy float64s, steps and reads out through the same
    # products as its doubles.
    result = _reference_design()
    for ss in _realizations(result)[:-1]:
        for entries in ([1, 0, 2], [np.float64(0.5), 2, np.float64(-1.25)]):
            state = FilterState(ss.form, list(entries))
            twin = FilterState(ss.form, [float(v) for v in entries])
            assert read_output(ss, state) == read_output(ss, twin)
            assert step(ss, state, 0.75) == step(ss, twin, 0.75)
            assert state.vector == twin.vector
            assert extract_kinematic(ss, state) == extract_kinematic(ss, twin)


@pytest.mark.parametrize("ts", [1e-3, 1.0, 1e3])
def test_every_record_the_package_builds_passes_the_validating_constructor(ts):
    # The package builds its records by StateSpaceModel._of, unchecked; each must be
    # one the validating constructor takes unchanged.
    designs = [ObserverSpec.repeated(ProcessModel(k, ts), 0.5, lag=1.0) for k in range(1, 9)]
    designs += [ObserverSpec(ProcessModel(2, ts), (0.6 + 0.3j, 0.6 - 0.3j), lag=0.5, deriv=1),
                ObserverSpec(ProcessModel(3, ts), (-0.5, -0.25, 0.1), lag=-1.0)]
    for spec in designs:
        for ss in _realizations(design(spec))[:-1]:
            assert type(ss) is StateSpaceModel
            assert StateSpaceModel(*ss) == ss, (spec, ss.form)


def _tampered(r) -> dict:
    """Copies of the design ``r`` by ``_replace`` (never checked) whose parts disagree in order."""
    return {
        "pcf-gains-short": r._replace(gains=r.gains._replace(pcf=r.gains.pcf[:2])),
        "kin-gains-short": r._replace(gains=r.gains._replace(kin=r.gains.kin[:2])),
        "char-poly-short": r._replace(char_poly=r.char_poly[:3]),
        "char-poly-none": r._replace(char_poly=None),
        "ss-kin-none": r._replace(ss_kin=None),
        "spec-none": r._replace(spec=None),
        "gains-none": r._replace(gains=None),
    }


@pytest.mark.parametrize("name", list(_tampered(_reference_design())))
@pytest.mark.parametrize("build", [pcf_realization, ocf_realization, ccf_realization,
                                   transfer_coefficients, design_document])
def test_a_design_copy_whose_parts_disagree_is_refused_where_it_enters(build, name):
    # The realizations build their records unchecked, so a DesignResult is checked
    # where it enters; a record that does not fit its order must never be returned.
    with pytest.raises(DimensionMismatch, match="needs a DesignResult whose char_poly, "
                                                "gains, ss_kin and process are of one order"):
        build(_tampered(_reference_design())[name])


@pytest.mark.parametrize("build", [pcf_realization, ocf_realization, ccf_realization])
def test_a_design_copy_with_a_char_poly_that_is_not_monic_numbers_is_refused(build):
    r = _reference_design()
    with pytest.raises(NotMonic, match="^expected leading coefficient 1, got 2.0$"):
        build(r._replace(char_poly=(2.0,) + r.char_poly[1:]))
    with pytest.raises(FixedGainError, match="^polynomial coefficient must be a number"):
        build(r._replace(char_poly=("a",) * len(r.char_poly)))


def _misshapen_fields(k: int) -> list:
    """(field, Matrix) pairs that do not fit an order-``k`` realization: each
    has one side of another length, ``n``, within the cap."""
    n = k + 1 if k < 8 else k - 1
    return [(name, Matrix([[1.0] * cols] * rows)) for name, rows, cols in (
        ("transition", k, n), ("transition", n, k), ("input_gain", n, 1), ("input_gain", k, n),
        ("output_row", 1, n), ("output_row", n, k), ("kin_from_form", k, n),
        ("kin_from_form", n, n), ("form_from_kin", n, k))]


@pytest.mark.parametrize("order", [1, 2, 3, 8])
def test_a_realization_refuses_fields_whose_shapes_disagree(order):
    # The record checks its five shapes when it is built, _replace included,
    # and names the first field that does not fit K, the transition's height.
    result = design(ObserverSpec.repeated(ProcessModel(order, 1.0), 0.5))
    for ss in _realizations(result)[:-1]:
        for name, m in _misshapen_fields(order):
            rows, cols = len(m.data), len(m.data[0])
            want = {"transition": (rows, rows), "input_gain": (order, 1),
                    "output_row": (1, order)}.get(name, (order, order))
            message = f"^{name} is {rows}x{cols}, not {want[0]}x{want[1]}$"
            fields = ss._asdict()
            fields[name] = m
            for build in (lambda: ss._replace(**{name: m}), lambda: StateSpaceModel(**fields),
                          lambda: StateSpaceModel(*fields.values())):
                with pytest.raises(DimensionMismatch, match=message):
                    build()
    big = Matrix._of(((1.0,) * 9,) * 9)
    with pytest.raises(DimensionMismatch, match="^transition 9x9 exceeds the 8x8 cap$"):
        result.ss_kin._replace(transition=big)


@pytest.mark.parametrize("value", [((1.0, 0.0, 0.0),) * 3, None, [[1.0]], np.eye(3)],
                         ids=["tuple", "none", "list", "ndarray"])
def test_a_realization_refuses_a_field_that_is_not_a_matrix(value):
    # Each of the five fields, by _replace, by keyword and by position, is refused
    # with a typed error that names it, not an AttributeError from the shape check.
    ss = _reference_design().ss_kin
    for name in ss._fields[1:]:
        fields = ss._asdict()
        fields[name] = value
        for build in (lambda: ss._replace(**{name: value}), lambda: StateSpaceModel(**fields),
                      lambda: StateSpaceModel(*fields.values())):
            with pytest.raises(DimensionMismatch,
                               match=f"^{name} must be a Matrix, not {type(value).__name__}$"):
                build()


def test_a_misshapen_realization_is_refused_before_it_steps():
    # A K = 2 record with a 1 x 1 gain, a 1 x 3 read-out or a 1 x 1 map to
    # kinematic coordinates is refused where it is built, naming the field,
    # not where a step or read-out first trips over it.
    ss = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5)).ss_kin
    for name, m in (("input_gain", Matrix([[1.0]])), ("output_row", Matrix([[1.0, 2.0, 3.0]])),
                    ("kin_from_form", Matrix([[1.0]]))):
        with pytest.raises(DimensionMismatch, match=f"^{name} is "):
            ss._replace(**{name: m})
    assert ss.order == 2 and ss == design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.5)).ss_kin


def test_pure_delay_impulse_from_rest():
    result = _pure_delay_design()
    state = initialize_state(result.ss_kin, 0.0)
    ys = run(result.ss_kin, state, [1.0, 0.0, 0.0, 0.0, 0.0])
    assert ys == pytest.approx([0.0, 0.0, 1.0, 0.0, 0.0], abs=1e-12)


def test_first_order_step_from_rest_is_geometric():
    p = 0.7
    result = design(ObserverSpec.repeated(ProcessModel(1, 1.0), p))
    state = FilterState(Form.KIN, [0.0])
    ys = run(result.ss_kin, state, [1.0] * 20)
    want = [1.0 - p ** (n + 1) for n in range(20)]
    assert max_abs_diff(ys, want) < 1e-12


def test_matched_initialization_has_no_step_transient():
    # Initializing from the first sample puts the filter at its steady state
    # for a constant input, so the output stays pinned there.
    p = 0.7
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), p, lag=0.0))
    state = initialize_state(result.ss_kin, 1.0)
    assert read_output(result.ss_kin, state) == pytest.approx(1.0, abs=1e-12)
    ys = run(result.ss_kin, state, [1.0] * 30)
    assert max(abs(y - 1.0) for y in ys) < 1e-12


def test_zero_input_zero_state_stays_zero():
    result = _reference_design()
    state = initialize_state(result.ss_kin, 0.0)
    assert run(result.ss_kin, state, [0.0] * 10) == [0.0] * 10


def test_step_mutates_state_in_place():
    result = _reference_design()
    state = initialize_state(result.ss_kin, 0.0)
    before = list(state.vector)
    step(result.ss_kin, state, 1.0)
    assert state.vector != before


# --- cross-form equivalence ---------------------------------------------------

def _all_forms(result):
    return (
        result.ss_kin,
        pcf_realization(result),
        ocf_realization(result),
        ccf_realization(result),
    )


def test_four_forms_produce_identical_outputs():
    rng = random.Random(14)
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.2), 0.6, lag=1.0))
    xs = [rng.gauss(0.0, 1.0) for _ in range(100)]
    outputs = []
    for ss in _all_forms(result):
        state = initialize_state(ss, xs[0])
        ys = [read_output(ss, state)]
        ys += run(ss, state, xs[1:])
        outputs.append(ys)
    for other in outputs[1:]:
        assert max_abs_diff(outputs[0], other) < 1e-9


def test_extracted_kinematic_states_agree_across_forms():
    rng = random.Random(15)
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.2), 0.6, lag=1.0))
    xs = [rng.gauss(0.0, 1.0) for _ in range(100)]
    extracted = []
    for ss in _all_forms(result):
        state = initialize_state(ss, xs[0])
        run(ss, state, xs[1:])
        extracted.append(extract_kinematic(ss, state))
    for other in extracted[1:]:
        assert max_abs_diff(extracted[0], other) < 1e-9


def test_extract_kinematic_is_identity_in_kin_form():
    result = _reference_design()
    state = initialize_state(result.ss_kin, 3.0)
    assert extract_kinematic(result.ss_kin, state) == (3.0, 0.0, 0.0)


# --- kernel bit-identity ------------------------------------------------------

def _column(values) -> list[list[float]]:
    return [[v] for v in values]


def reference_step(ss, w, x):
    """One step of the recursion written with :func:`matmul`: the updated
    state and the output read from it."""
    moved = [m for m, in matmul(ss.transition, _column(w))]
    new = [m + h * x for m, h in zip(moved, ss.input_gain.col(0))]
    return new, matmul(ss.output_row, _column(new))[0][0]


def assert_steps_as_matrix_products(ss, x0, xs):
    """step, read_output, extract_kinematic and run agree with the recursion
    written with :func:`matmul`, compared by repr so signed zeros and nan
    count."""
    state = initialize_state(ss, x0)
    w = list(state.vector)
    assert repr(read_output(ss, state)) == repr(matmul(ss.output_row, _column(w))[0][0])
    ys = []
    for x in xs:
        w, y = reference_step(ss, w, x)
        assert repr(step(ss, state, x)) == repr(y)
        assert repr(state.vector) == repr(w)
        assert repr(read_output(ss, state)) == repr(y)
        assert repr(extract_kinematic(ss, state)) == repr(
            tuple([v for v, in matmul(ss.kin_from_form, _column(w))]))
        ys.append(y)
    again = initialize_state(ss, x0)
    assert repr(run(ss, again, xs)) == repr(ys)
    assert repr(again.vector) == repr(state.vector)


# Signed zeros, subnormals and magnitudes that overflow to inf and nan.
EDGE_SAMPLES = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300,
                1e300, -1e308, 1.7976931348623157e308)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
    st.floats(0.0, 0.95),
    st.floats(-1.0, 3.0),
    st.sampled_from([0.04, 1.0]),
    st.lists(st.one_of(st.sampled_from(EDGE_SAMPLES), st.floats(-10.0, 10.0)),
             min_size=2, max_size=12),
)
def test_kernel_is_bit_identical_to_matrix_products(order_deriv, pole, lag, ts, xs):
    order, deriv = order_deriv
    try:
        result = design(ObserverSpec.repeated(ProcessModel(order, ts), pole, lag=lag, deriv=deriv))
    except FixedGainError:
        return
    builders = (lambda: result.ss_kin, lambda: pcf_realization(result),
                lambda: ocf_realization(result), lambda: ccf_realization(result))
    for build in builders:
        try:
            ss = build()
        except (Unobservable, Uncontrollable):
            continue
        assert_steps_as_matrix_products(ss, xs[0], xs[1:])


def _model(transition, input_gain, output_row, kin_from_form):
    k = len(transition)
    return StateSpaceModel(
        form=Form.KIN, transition=Matrix(transition), input_gain=Matrix(_column(input_gain)),
        output_row=Matrix([output_row]), kin_from_form=Matrix(kin_from_form),
        form_from_kin=Matrix([[float(i == j) for j in range(k)] for i in range(k)]),
    )


@pytest.mark.parametrize("ss", [
    _model([[0.5]], [0.5], [1.0], [[1.0]]),
    _model([[-0.0]], [-0.0], [-0.0], [[-0.0]]),
    _model([[math.inf, -0.0], [math.nan, 1.0]], [-math.inf, 0.0],
           [-0.0, math.nan], [[1.0, -0.0], [math.inf, 0.0]]),
    _model([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [5e-324, -0.0, 0.5]], [1e308, -5e-324, 0.0],
           [1e-300, 0.0, -1.0], [[-0.0, 0.0, 1.0]] * 3),
], ids=["K1", "K1-negative-zeros", "K2-inf-nan", "K3-subnormal"])
def test_hand_built_models_step_as_matrix_products(ss):
    assert_steps_as_matrix_products(ss, 1.0, [-0.0, 0.0, 2.5, -1e300, 5e-324, 3.0])


def test_stepped_realization_pickles_and_steps_to_the_same_bits():
    result = _reference_design()
    xs = [math.sin(0.2 * n) for n in range(40)]
    states = {}
    for ss in _all_forms(result):
        states[ss.form] = initialize_state(ss, xs[0])
        run(ss, states[ss.form], xs[1:20])
    copy = pickle.loads(pickle.dumps(result))
    for ss, twin in zip(_all_forms(result), _all_forms(copy)):
        assert twin == ss
        twin = pickle.loads(pickle.dumps(twin))
        state = states[ss.form]
        twin_state = FilterState(state.form, list(state.vector))
        assert repr(run(twin, twin_state, xs[20:])) == repr(run(ss, state, xs[20:]))
        assert repr(twin_state.vector) == repr(state.vector)


def test_replaced_realization_steps_by_its_own_matrices():
    ss = _reference_design().ss_kin
    step(ss, initialize_state(ss, 1.0), 2.0)
    other = ss._replace(output_row=Matrix([[0.0, 1.0, 0.0]]),
                        transition=Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert_steps_as_matrix_products(other, 1.0, [2.0, 3.0])
    # Identity transition: the state moves by the gain column alone, and the
    # output is the velocity entry.
    h = ss.input_gain.col(0)
    state = initialize_state(other, 1.0)
    assert step(other, state, 2.0) == 2.0 * h[1]
    assert state.vector == [1.0 + 2.0 * h[0], 2.0 * h[1], 2.0 * h[2]]


def test_state_space_model_record_contract():
    ss = _model([[0.5]], [0.25], [1.0], [[1.0]])
    assert repr(ss) == (
        "StateSpaceModel(form=<Form.KIN: 'kin'>, transition=Matrix([[0.5]]), "
        "input_gain=Matrix([[0.25]]), output_row=Matrix([[1.0]]), "
        "kin_from_form=Matrix([[1.0]]), form_from_kin=Matrix([[1.0]]))")
    same = StateSpaceModel(Form.KIN, Matrix([[0.5]]), Matrix([[0.25]]), Matrix([[1.0]]),
                           Matrix([[1.0]]), Matrix([[1.0]]))
    assert ss == same and hash(ss) == hash(same)
    assert ss != ss._replace(form=Form.PCF)
    step(ss, initialize_state(ss, 1.0), 2.0)  # stepping leaves the record as it was
    assert ss == same and hash(ss) == hash(same) and repr(ss).endswith("Matrix([[1.0]]))")
    for field in ("form", "transition", "input_gain", "output_row", "kin_from_form",
                  "form_from_kin"):
        with pytest.raises(AttributeError):
            setattr(ss, field, getattr(ss, field))
    copy = pickle.loads(pickle.dumps(ss))
    assert copy == ss and not hasattr(ss, "__dict__") and not hasattr(copy, "__dict__")


def test_filter_state_record():
    state = FilterState(Form.OCF, [1.0, -0.0])
    assert repr(state) == "FilterState(form=<Form.OCF: 'ocf'>, vector=[1.0, -0.0])"
    state.vector = [2.0, 3.0]
    copy = pickle.loads(pickle.dumps(state))
    assert (copy.form, copy.vector) == (Form.OCF, [2.0, 3.0])


# --- the scaled loop ----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 8).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k - 1))),
    st.floats(-3.0, 1.0).map(lambda e: 10.0 ** e),
    st.floats(0.0, math.log10(500.0)).map(lambda e: 10.0 ** e),
    st.floats(-1.0, 3.0),
    st.integers(0, 2 ** 32),
)
def test_scaled_loop_runs_the_kinematic_loop(order_deriv, ts, memory, lag, seed):
    # The predict/correct recursion in scaled coordinates is the loop of the
    # ss_kin Matrix recursion: every column within 1e-11 of its largest value.
    order, deriv = order_deriv
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), math.exp(-1.0 / memory),
                                          lag=lag, deriv=deriv))
    xs = noisy_polynomial(random.Random(seed), order, 2000)
    gap = column_gap(stepped_columns(_scaled_loop(result), xs),
                     matrix_recursion_columns(result.ss_kin, xs))
    assert gap < 1e-11


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("ts", [1e-3, 0.04, 1.0, 7.0])
@pytest.mark.parametrize("pole", [0.0, 0.5, 0.98])
def test_scaled_gains_are_alpha_beta_and_a_quarter_gamma(order, ts, pole):
    # The document prints the loop's own gains: gamma = 2 ts^2 k_2 = 4 g_2.
    result = design(ObserverSpec.repeated(ProcessModel(order, ts), pole, lag=0.5))
    loop, gains = _scaled_loop(result), design_document(result, forms=("kin",))["gains"]
    want = [gains["alpha"], gains.get("beta"), gains.get("gamma", 0.0) / 4.0][:order]
    assert list(loop.gain) == want
    # The kinematic gains are the scaled ones mapped back, bit for bit.
    assert result.gains.kin == tuple(g * d for g, d in zip(loop.gain, loop.to_kin))


def test_scaled_state_and_kinematic_state_refuse_each_other():
    result = _reference_design()
    loop, kin = _scaled_loop(result), result.ss_kin
    for ss, state in ((kin, initialize_state(loop, 1.0)), (loop, initialize_state(kin, 1.0))):
        for call in (lambda: step(ss, state, 0.0), lambda: read_output(ss, state),
                     lambda: extract_kinematic(ss, state)):
            with pytest.raises(FormMismatch):
                call()


def test_stepped_scaled_loop_pickles_and_steps_to_the_same_bits():
    loop = _scaled_loop(_reference_design())
    xs = [math.sin(0.2 * n) for n in range(40)]
    state = initialize_state(loop, xs[0])
    run(loop, state, xs[1:20])
    twin = pickle.loads(pickle.dumps(loop))
    assert twin == loop and vars(twin) == {}  # the compiled functions are not pickled
    twin_state = FilterState(state.form, list(state.vector))
    assert repr(run(twin, twin_state, xs[20:])) == repr(run(loop, state, xs[20:]))
    assert repr(twin_state.vector) == repr(state.vector)


def test_scaled_read_out_past_the_double_range_is_refused():
    # Read 1e50 samples back at ts = 1e-30: the kinematic read-out row is
    # finite, but c_7 * 7! / ts^7 is not.
    result = design(ObserverSpec.repeated(ProcessModel(8, 1e-30), 0.5, lag=1e50))
    assert all(map(math.isfinite, result.ss_kin.output_row.row(0)))
    with pytest.raises(NonFiniteValue, match="overflow"):
        _scaled_loop(result)


@pytest.mark.parametrize("sample", [10 ** 400, -10 ** 5000, "a", None, [1.0], 1 + 2j,
                                    complex(1.0, 0.0)],
                         ids=["big-int", "huge-int", "str", "none", "list", "complex",
                              "complex-real"])
def test_a_sample_that_is_not_a_double_raises_a_typed_error_and_keeps_the_state(sample):
    result = _reference_design()
    for ss in (result.ss_kin, pcf_realization(result), _scaled_loop(result)):
        with pytest.raises(FixedGainError, match="sample") as caught:
            initialize_state(ss, sample)
        assert type(caught.value) is FixedGainError
        state = initialize_state(ss, 1.0)
        step(ss, state, 2.0)
        before = list(state.vector)
        for call in (lambda: step(ss, state, sample), lambda: run(ss, state, [sample])):
            with pytest.raises(FixedGainError, match="is not a number") as caught:
                call()
            assert type(caught.value) is FixedGainError
            assert repr(state.vector) == repr(before)


def test_int_bool_and_fraction_samples_step_as_their_doubles():
    result = _reference_design()
    for ss in (result.ss_kin, pcf_realization(result), _scaled_loop(result)):
        for sample in (3, True, Fraction(1, 3)):
            state, twin = initialize_state(ss, sample), initialize_state(ss, float(sample))
            assert repr(step(ss, state, sample)) == repr(step(ss, twin, float(sample)))
            assert repr(state.vector) == repr(twin.vector)
