"""Integrator-chain process model."""

import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    matmul,
    output_row_of_transition,
    predictor_row_product,
    process_char_poly_product,
    taylor_transition,
)
from fixedgain import ObserverSpec, ProcessModel, design
from fixedgain.errors import (
    DerivativeIndexOutOfRange,
    NonFiniteValue,
    NonPositiveSamplingPeriod,
    OrderOutOfRange,
)


def test_transition_is_scaled_taylor_triangle():
    model = ProcessModel(4, 0.5)
    for i in range(4):
        for j in range(4):
            want = 0.5 ** (j - i) / math.factorial(j - i) if j >= i else 0.0
            assert model.transition_matrix[i, j] == pytest.approx(want, abs=1e-15)


def test_measurement_row_picks_position():
    model = ProcessModel(3, 1.0)
    assert model.output_row(0.0).row(0) == (1.0, 0.0, 0.0)


def test_char_poly_is_binomial_expansion():
    # All process poles at z = 1, so the coefficients alternate binomially.
    for order in range(1, 6):
        got = ProcessModel(order, 0.1).char_poly.coeffs
        want = [(-1.0) ** j * math.comb(order, j) for j in range(order + 1)]
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12


def test_transition_group_property():
    model = ProcessModel(4, 0.25)
    lhs = matmul(model.transition(0.7), model.transition(-0.3))
    rhs = model.transition(0.4)
    assert float(np.max(np.abs(np.array(lhs.data) - np.array(rhs.data)))) < 1e-13


def test_backward_transition_is_matrix_inverse():
    model = ProcessModel(3, 0.04)
    inv = np.linalg.inv(np.array(model.transition_matrix.data))
    got = np.array(model.transition(-0.04).data)
    assert float(np.max(np.abs(got - inv))) < 1e-13


def test_two_steps_back_matches_negative_matrix_power():
    # Closed-form transition over -2*ts against the repeated-inverse route.
    model = ProcessModel(3, 0.04)
    closed = np.array(model.transition(-0.08).data)
    powered = np.linalg.matrix_power(np.linalg.inv(np.array(model.transition_matrix.data)), 2)
    assert float(np.max(np.abs(closed - powered))) < 1e-12
    assert closed[0, 0] == pytest.approx(1.0, abs=1e-15)
    assert closed[0, 1] == pytest.approx(-0.08, abs=1e-15)
    assert closed[0, 2] == pytest.approx(0.0032, abs=1e-15)


def test_predictor_row_is_first_transition_row():
    model = ProcessModel(3, 0.1)
    assert model.predictor_row().row(0) == model.transition_matrix.row(0)


def test_output_row_zero_lag_is_measurement():
    model = ProcessModel(3, 0.1)
    assert model.output_row(0.0).row(0) == (1.0, 0.0, 0.0)


def test_output_row_lagged_position():
    model = ProcessModel(3, 0.04)
    row = model.output_row(2.0).row(0)
    assert row == pytest.approx((1.0, -0.08, 0.0032), abs=1e-15)


def test_output_row_fractional_lag_and_derivative():
    model = ProcessModel(3, 0.04)
    # velocity read-out half a sample back: row 1 of the backward transition
    row = model.output_row(0.5, deriv=1).row(0)
    assert row == pytest.approx((0.0, 1.0, -0.02), abs=1e-15)


def test_output_row_prediction_uses_negative_lag():
    model = ProcessModel(2, 1.0)
    assert model.output_row(-1.0).row(0) == (1.0, 1.0)


def test_derivative_index_validated():
    model = ProcessModel(2, 1.0)
    with pytest.raises(DerivativeIndexOutOfRange):
        model.output_row(0.0, deriv=2)
    with pytest.raises(DerivativeIndexOutOfRange):
        model.output_row(0.0, deriv=-1)


@pytest.mark.parametrize("deriv", [1.0, 0.5, -1, 3, math.nan, "1", None])
def test_output_row_refuses_a_deriv_that_is_not_an_index(deriv):
    # The rule ObserverSpec shares: an int in 0..K-1, not a float of one.
    with pytest.raises(DerivativeIndexOutOfRange, match=r"^derivative index must be in 0\.\.2, "):
        ProcessModel(3, 0.1).output_row(0.0, deriv)


def test_order_validated():
    with pytest.raises(OrderOutOfRange):
        ProcessModel(0, 1.0)
    with pytest.raises(OrderOutOfRange):
        ProcessModel(9, 1.0)


def test_sampling_period_validated():
    with pytest.raises(NonPositiveSamplingPeriod):
        ProcessModel(2, 0.0)
    with pytest.raises(NonPositiveSamplingPeriod):
        ProcessModel(2, -0.1)


@pytest.mark.parametrize("ts", [math.nan, math.inf, -math.inf])
def test_non_finite_sampling_period_rejected(ts):
    with pytest.raises(NonFiniteValue):
        ProcessModel(2, ts)


def test_overflowing_transition_is_typed():
    model = ProcessModel(3, 1.0)
    with pytest.raises(NonFiniteValue):
        model.output_row(1e300)
    with pytest.raises(NonFiniteValue):
        ProcessModel(3, 1e200)


def test_read_out_time_past_the_double_range_is_refused():
    # -lag * ts overflows to -inf, and (-inf) ** m raises no OverflowError:
    # the row built is checked instead.  Its last row is (0, 0, 1) at any t.
    model = ProcessModel(3, 1e10)
    for deriv in (0, 1):
        with pytest.raises(NonFiniteValue, match=re.escape("transition over t = -inf overflows")):
            model.output_row(1e300, deriv)
    assert model.output_row(1e300, 2).row(0) == (0.0, 0.0, 1.0)
    for t in (math.inf, -math.inf, math.nan):
        with pytest.raises(NonFiniteValue):
            model.transition(t)
    with pytest.raises(NonFiniteValue):
        design(ObserverSpec.repeated(model, 0.5, lag=1e300))
    last = design(ObserverSpec.repeated(model, 0.5, lag=1e300, deriv=2))
    assert last.ss_kin.output_row.row(0) == (0.0, 0.0, 1.0)


def test_repr_mentions_order_and_period():
    assert repr(ProcessModel(2, 0.5)) == "ProcessModel(order=2, ts=0.5)"


def test_process_model_record_contract():
    model = ProcessModel(2, 0.5)
    assert ProcessModel._fields == ("order", "ts")
    assert repr(model) == "ProcessModel(order=2, ts=0.5)"
    assert model == ProcessModel(order=2, ts=0.5) and hash(model) == hash(ProcessModel(2, 0.5))
    assert model != ProcessModel(2, 0.25)
    copy = pickle.loads(pickle.dumps(model))
    assert type(copy) is ProcessModel and copy == model
    with pytest.raises(NonPositiveSamplingPeriod):
        model._replace(ts=-1.0)
    with pytest.raises(OrderOutOfRange):
        model._replace(order=9)
    for field in ProcessModel._fields:
        with pytest.raises(AttributeError):
            setattr(model, field, getattr(model, field))
    spec = ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0)
    assert design(spec) == design(pickle.loads(pickle.dumps(spec)))


@pytest.mark.parametrize("order, ts", [(8, 1e-300), (3, 1e200), (2, 5e-324), (8, 1e-45)])
def test_ts_whose_powers_overflow_is_refused_at_construction(order, ts):
    # ts**(K-1) or ts**(1-K) past the double range: the transition or the
    # design's scaling ts^-j would overflow, so the model itself is refused.
    message = re.escape(f"ts = {ts!r} overflows the design's scaling")
    with pytest.raises(NonFiniteValue, match=message):
        ProcessModel(order, ts)


def test_ts_at_the_edge_of_the_scaling_is_accepted():
    # 1e-44**-7 = 1e308 is still a double; order 1 takes any positive ts.
    assert ProcessModel(8, 1e-44).ts == 1e-44
    assert ProcessModel(1, 5e-324).ts == 5e-324 and ProcessModel(1, 1e308).ts == 1e308


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 8), st.floats(math.log(1e-3), math.log(1e3)).map(math.exp),
       st.floats(-1.0, 3.0))
def test_rows_on_request_match_the_stored_routes_bit_for_bit(order, ts, lag):
    # repr tells -0.0 from 0.0, which == does not.
    model = ProcessModel(order, ts)
    assert repr(model.char_poly) == repr(process_char_poly_product(order))
    assert repr(model.transition_matrix) == repr(taylor_transition(order, ts))
    assert repr(model.predictor_row()) == repr(predictor_row_product(model))
    for deriv in range(order):
        assert repr(model.output_row(lag, deriv)) == repr(output_row_of_transition(model, lag, deriv))
