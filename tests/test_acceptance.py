"""End-to-end acceptance suite.

Ten checks, one per frozen behavioral guarantee of the package: the
third-order reference design's constants, the second-order noise-gain
benchmark grid, the optimal-lag row, closed-form/pipeline gain agreement,
the pure-delay limit, realization equivalence, steady-state tracking,
dc flatness order, the Nyquist null, and the second-order transfer closed
form.  Each test measures its worst-case deviations first, prints a single
PASS/FAIL line with the measured numbers (kept visible under output
capture), then asserts at the frozen tolerances.
"""

import math
import random
from operator import sub

from conftest import (
    BENCH_MEMORIES,
    BENCH_OPTIMAL_LAG,
    BENCH_OPTIMAL_WNG,
    BENCH_WNG,
    REF_CHAR,
    REF_CLOSED_LOOP_4DP,
    REF_GAIN_KIN,
    REF_GAIN_OCF,
    REF_GAIN_PCF,
    REF_KIN_FROM_PCF,
    REF_NUMERATOR,
    REF_POLE,
    REF_TS,
    closed_form_gains,
    matmul,
    max_abs_diff,
    realized_char_poly,
    second_order_transfer,
    white_noise_gain_k2,
)
from fixedgain import (
    ObserverSpec,
    ProcessModel,
    ccf_realization,
    design,
    errors,
    flatness_profile,
    frequency_grid,
    frequency_response,
    initialize_state,
    ocf_realization,
    optimal_lag_k2,
    pcf_realization,
    ramp_error,
    read_output,
    run,
    transfer_coefficients,
    white_noise_gain,
)
from fixedgain.realize import pcf_transform


def _report(capsys, index, label, ok, detail):
    with capsys.disabled():
        print(f"\n[{index:2d}/10] {'PASS' if ok else 'FAIL'}  {label}  ({detail})")


def _mat_dev(matrix, rows):
    """Largest entrywise |difference| between a Matrix and nested rows."""
    return max(
        abs(matrix[i, j] - rows[i][j])
        for i in range(matrix.rows)
        for j in range(len(matrix.row(i)))
    )


def _repeated(order, ts, pole, lag):
    return design(ObserverSpec.repeated(ProcessModel(order, ts), pole, lag=lag))


def _benchmark_designs():
    """The fifteen second-order smoothers of the benchmark grid:
    lags 1, 0, -1 across memory lengths 2, 4, 8, 12, 16 samples."""
    return [
        _repeated(2, 1.0, math.exp(-1.0 / memory), lag)
        for lag in (1.0, 0.0, -1.0)
        for memory in BENCH_MEMORIES
    ]


def test_reference_third_order_design_constants(reference_design, capsys):
    r = reference_design
    model = r.spec.process
    order = model.order

    ocf = ocf_realization(r)
    ccf = ccf_realization(r)
    num, den = transfer_coefficients(r)
    kin_from_pcf, pcf_from_kin = pcf_transform(model)

    printed = max(
        max_abs_diff(r.gains.pcf.col(0), REF_GAIN_PCF),
        max_abs_diff(r.gains.kin.col(0), REF_GAIN_KIN),
        max_abs_diff(r.char_poly.coeffs, REF_CHAR),
        _mat_dev(r.ss_kin.transition, REF_CLOSED_LOOP_4DP),
        _mat_dev(kin_from_pcf, REF_KIN_FROM_PCF),
        max_abs_diff(ocf.input_gain.col(0), REF_GAIN_OCF),
        max_abs_diff(num.coeffs, REF_NUMERATOR),
    )

    # Independent routes to the same quantities must agree far tighter than
    # the printed four-decimal values do.
    kin_via_transform = matmul(kin_from_pcf, r.gains.pcf)
    identity = [[1.0 if i == j else 0.0 for j in range(order)] for i in range(order)]
    ocf_gain = ocf.input_gain.col(0)
    num_via_ocf = [ocf_gain[order - 1 - j] for j in range(order)] + [0.0]
    num_via_ccf = list(ccf.output_row.row(0)) + [0.0]
    correction = matmul(r.gains.kin, model.predictor_row()).data
    rebuilt_loop = [list(map(sub, f, kp)) for f, kp in zip(model.transition_matrix.data, correction)]
    closed = closed_form_gains(order, REF_POLE, REF_TS).col(0)
    consistency = max(
        _mat_dev(kin_via_transform, [[v] for v in r.gains.kin.col(0)]),
        max_abs_diff(realized_char_poly(r).coeffs, r.char_poly.coeffs),
        _mat_dev(matmul(kin_from_pcf, pcf_from_kin), identity),
        max_abs_diff(num_via_ocf, num_via_ccf),
        _mat_dev(r.ss_kin.transition, rebuilt_loop),
        max(abs(c - g) / abs(g) for c, g in zip(closed, r.gains.kin.col(0))),
    )

    ok = printed <= 1e-3 and consistency <= 1e-9
    _report(capsys, 1,
            "reference third-order design reproduces its frozen constants",
            ok, f"printed dev {printed:.2e} <= 1e-3, consistency {consistency:.2e} <= 1e-9")
    assert printed <= 1e-3
    assert consistency <= 1e-9


def test_noise_gain_benchmark_grid(capsys):
    worst_cell = 0.0
    worst_pair = 0.0
    for lag in (1.0, 0.0, -1.0):
        for memory, printed in zip(BENCH_MEMORIES, BENCH_WNG[lag]):
            pole = math.exp(-1.0 / memory)
            num, den = transfer_coefficients(_repeated(2, 1.0, pole, lag))
            numeric = white_noise_gain(num, den)
            closed = white_noise_gain_k2(pole, lag)
            worst_cell = max(worst_cell, abs(numeric - printed))
            worst_pair = max(worst_pair, abs(numeric - closed))

    ok = worst_cell <= 5e-4 and worst_pair <= 1e-9
    _report(capsys, 2,
            "noise-gain benchmark grid (15 cells) matches frozen values",
            ok, f"cell dev {worst_cell:.2e} <= 5e-4, closed-vs-numeric {worst_pair:.2e} <= 1e-9")
    assert worst_cell <= 5e-4
    assert worst_pair <= 1e-9


def test_optimal_lag_row(capsys):
    worst_lag = 0.0
    worst_wng = 0.0
    for memory, want_lag, want_wng in zip(
        BENCH_MEMORIES, BENCH_OPTIMAL_LAG, BENCH_OPTIMAL_WNG
    ):
        pole = math.exp(-1.0 / memory)
        lag = optimal_lag_k2(pole)
        worst_lag = max(worst_lag, abs(lag - want_lag))
        worst_wng = max(worst_wng, abs(white_noise_gain_k2(pole, lag) - want_wng))

    ok = worst_lag <= 0.01 and worst_wng <= 5e-4
    _report(capsys, 3,
            "noise-minimizing lags and their gains match frozen values",
            ok, f"lag dev {worst_lag:.2e} <= 1e-2, gain dev {worst_wng:.2e} <= 5e-4")
    assert worst_lag <= 0.01
    assert worst_wng <= 5e-4


def test_closed_form_gains_match_placement(reference_design, capsys):
    rng = random.Random(8151)
    worst_rel = 0.0
    for _ in range(200):
        order = rng.choice((2, 3))
        pole = rng.uniform(0.0, 0.99)
        ts = 10.0 ** rng.uniform(-3.0, 1.0)
        closed = closed_form_gains(order, pole, ts).col(0)
        placed = design(
            ObserverSpec.repeated(ProcessModel(order, ts), pole)
        ).gains.kin.col(0)
        worst_rel = max(
            worst_rel,
            max(abs(c - g) / max(abs(c), abs(g)) for c, g in zip(closed, placed)),
        )

    ref_closed = closed_form_gains(3, REF_POLE, REF_TS).col(0)
    ref_placed = reference_design.gains.kin.col(0)
    ref_rel = max(
        abs(c - g) / max(abs(c), abs(g)) for c, g in zip(ref_closed, ref_placed)
    )

    ok = worst_rel <= 1e-8 and ref_rel <= 1e-12
    _report(capsys, 4,
            "closed-form gains match the placement pipeline (200 random designs)",
            ok, f"random rel dev {worst_rel:.2e} <= 1e-8, reference rel dev {ref_rel:.2e} <= 1e-12")
    assert worst_rel <= 1e-8
    assert ref_rel <= 1e-12


def test_two_sample_delay_limit(capsys):
    worst = 0.0
    for ts in (1.0, 0.04):
        num, den = transfer_coefficients(_repeated(3, ts, 0.0, 2.0))
        worst = max(
            worst,
            max_abs_diff(num.coeffs, (0.0, 0.0, 1.0, 0.0)),
            max_abs_diff(den.coeffs, (1.0, 0.0, 0.0, 0.0)),
            abs(white_noise_gain(num, den) - 1.0),
            max(abs(abs(h) - 1.0) for _, h in frequency_grid(num, den, 1024)),
        )

    ok = worst <= 1e-12
    _report(capsys, 5,
            "zero-pole third-order design with lag 2 is a pure two-sample delay",
            ok, f"coefficient/gain/magnitude dev {worst:.2e} <= 1e-12")
    assert worst <= 1e-12


def test_all_realizations_equivalent(capsys):
    # Designs whose read-out sits on (or within roundoff of) a degenerate
    # observability/controllability configuration refuse to construct the
    # canonical forms by contract; such draws are redrawn, since the
    # property quantifies over realizations that exist.
    rng = random.Random(62001)
    worst_out = 0.0
    worst_sim = 0.0
    built = 0
    attempts = 0
    while built < 50:
        attempts += 1
        assert attempts <= 200
        order = rng.randint(1, 4)
        pole = rng.uniform(0.0, 0.95)
        memory = -1.0 / math.log(pole) if pole > 0.0 else 0.5
        lag = rng.uniform(-2.0, 2.0 * max(memory, 0.5))
        result = _repeated(order, 1.0, pole, lag)
        kin = result.ss_kin
        xs = [rng.uniform(-1.0, 1.0) for _ in range(200)]
        try:
            forms = (kin, pcf_realization(result), ocf_realization(result),
                     ccf_realization(result))
        except (errors.Unobservable, errors.Uncontrollable):
            continue
        built += 1

        outputs = []
        for ss in forms:
            state = initialize_state(ss, xs[0])
            outputs.append([read_output(ss, state)] + run(ss, state, xs[1:]))
            worst_sim = max(
                worst_sim,
                _mat_dev(matmul(matmul(ss.form_from_kin, kin.transition), ss.kin_from_form),
                         ss.transition.data),
                _mat_dev(matmul(kin.output_row, ss.kin_from_form), ss.output_row.data),
                _mat_dev(matmul(ss.form_from_kin, kin.input_gain), ss.input_gain.data),
            )
        for other in outputs[1:]:
            worst_out = max(
                worst_out, max(abs(y - z) for y, z in zip(outputs[0], other))
            )

    ok = worst_out <= 1e-9 and worst_sim <= 1e-8
    _report(capsys, 6,
            "all four realizations agree on 50 random designs over 200 samples",
            ok, f"output dev {worst_out:.2e} <= 1e-9, similarity dev {worst_sim:.2e} <= 1e-8")
    assert worst_out <= 1e-9
    assert worst_sim <= 1e-8


def test_unity_dc_gain_and_ramp_tracking(reference_design, capsys):
    worst_dc = 0.0
    worst_ramp = 0.0
    for result in _benchmark_designs() + [reference_design]:
        spec = result.spec
        num, den = transfer_coefficients(result)
        worst_dc = max(worst_dc, abs(frequency_response(num, den, 0.0) - 1.0))
        worst_ramp = max(
            worst_ramp,
            abs(ramp_error(num, den, spec.lag, spec.process.ts, 500)),
        )

    ok = worst_dc <= 1e-10 and worst_ramp <= 1e-6
    _report(capsys, 7,
            "smoothers track steps and ramps exactly at steady state",
            ok, f"dc-gain dev {worst_dc:.2e} <= 1e-10, ramp error {worst_ramp:.2e} <= 1e-6")
    assert worst_dc <= 1e-10
    assert worst_ramp <= 1e-6


def test_dc_flatness_order(reference_design, capsys):
    worst_flat = 0.0
    weakest_break = math.inf
    for result in _benchmark_designs() + [reference_design]:
        spec = result.spec
        order = spec.process.order
        num, den = transfer_coefficients(result)
        profile = flatness_profile(
            num, den, spec.deriv, spec.lag, spec.process.ts, order + 1
        )
        worst_flat = max(
            worst_flat, max(abs(m - t) for t, m in profile[:order])
        )
        target, measured = profile[order]
        weakest_break = min(weakest_break, abs(measured - target))

    ok = worst_flat <= 1e-6 and weakest_break > 1e-3
    _report(capsys, 8,
            "dc derivatives are flat through order K-1 and only through K-1",
            ok, f"flat dev {worst_flat:.2e} <= 1e-6, order-K dev {weakest_break:.2e} > 1e-3")
    assert worst_flat <= 1e-6
    assert weakest_break > 1e-3


def test_nyquist_null_at_optimal_lag(capsys):
    worst = 0.0
    for memory in BENCH_MEMORIES:
        pole = math.exp(-1.0 / memory)
        num, den = transfer_coefficients(
            _repeated(2, 1.0, pole, optimal_lag_k2(pole))
        )
        worst = max(worst, abs(frequency_response(num, den, math.pi)))

    ok = worst < 1e-6
    _report(capsys, 9,
            "noise-minimizing lag nulls the response at the Nyquist frequency",
            ok, f"|H| at Nyquist {worst:.2e} < 1e-6")
    assert worst < 1e-6


def test_second_order_transfer_closed_form_grid(capsys):
    worst = 0.0
    for pole in (0.0, 0.25, 0.5, 0.7788, 0.9, 0.95):
        for lag in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.7, 10.0):
            num, den = transfer_coefficients(_repeated(2, 1.0, pole, lag))
            cnum, cden = second_order_transfer(pole, lag)
            worst = max(
                worst,
                max_abs_diff(num.coeffs, cnum.coeffs),
                max_abs_diff(den.coeffs, cden.coeffs),
            )

    ok = worst <= 1e-9
    _report(capsys, 10,
            "second-order transfer closed form matches the pipeline on a pole/lag grid",
            ok, f"coefficient dev {worst:.2e} <= 1e-9")
    assert worst <= 1e-9
