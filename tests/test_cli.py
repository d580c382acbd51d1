"""Command-line surface: documents, CSV schemas, exit codes, determinism."""

import cmath
import contextlib
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from conftest import (
    BENCH_OPTIMAL_LAG,
    BENCH_OPTIMAL_WNG,
    BENCH_WNG,
    REF_GAIN_KIN,
    REF_NUMERATOR,
    _realization_noise_gain,
    exact_design_noise_gain,
    loop_noise_gain_fraction,
    max_abs_diff,
    placed_specs,
)
import fixedgain
from fixedgain import (
    Matrix,
    ObserverSpec,
    ProcessModel,
    design,
    impulse_response,
    realize,
    step_response,
    transfer_coefficients,
)
from fixedgain import _samples, cli
from fixedgain._samples import _CHUNK
from fixedgain.cli import _BLOCK, _noise_gain, design_document, main, verify_document
from fixedgain.design import memory_to_pole

REF_ARGS = ["--order", "3", "--pole", "0.8", "--lag", "2", "--ts", "0.04"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# --- design document ---------------------------------------------------------

def test_design_document_reference_values(capsys):
    code, out = run_cli(capsys, ["design", *REF_ARGS])
    assert code == 0
    doc = json.loads(out)
    assert max_abs_diff(doc["gains"]["kin"], REF_GAIN_KIN) < 1e-12
    assert max_abs_diff(doc["transfer"]["numerator"], REF_NUMERATOR) < 1e-12
    assert doc["design"]["order"] == 3
    assert doc["design"]["pole"] == 0.8
    assert doc["gains"]["alpha"] == pytest.approx(0.488, abs=1e-12)
    assert doc["gains"]["beta"] == pytest.approx(2.7 * 0.04, abs=1e-12)
    assert doc["gains"]["gamma"] == pytest.approx(2.0 * 0.04**2 * 5.0, abs=1e-12)
    assert set(doc["realizations"]) == {"kin", "pcf", "ocf", "ccf"}
    assert doc["verification"]["placement_residual"] < 1e-12


def test_design_document_round_trips_and_verifies(capsys):
    _, out = run_cli(capsys, ["design", *REF_ARGS])
    doc = json.loads(out)
    # Emitted floats re-parse to the exact in-memory doubles.
    assert json.loads(json.dumps(doc)) == doc
    assert verify_document(doc) < 1e-10


def test_design_document_is_deterministic(capsys):
    _, first = run_cli(capsys, ["design", *REF_ARGS])
    _, second = run_cli(capsys, ["design", *REF_ARGS])
    assert first == second


def test_design_pure_delay_document(capsys):
    _, out = run_cli(capsys, ["design", "--order", "3", "--pole", "0",
                              "--lag", "2", "--ts", "0.04"])
    doc = json.loads(out)
    assert max_abs_diff(doc["transfer"]["numerator"], (0, 0, 1, 0)) < 1e-12
    assert max_abs_diff(doc["transfer"]["denominator"], (1, 0, 0, 0)) < 1e-15
    assert doc["analysis"]["white_noise_gain"] == pytest.approx(1.0, abs=1e-12)


def test_design_memory_flag_echoes_pole(capsys):
    _, out = run_cli(capsys, ["design", "--order", "2", "--memory", "4",
                              "--lag", "0", "--ts", "1"])
    doc = json.loads(out)
    assert doc["design"]["pole"] == pytest.approx(0.7788, abs=5e-5)
    assert doc["design"]["memory"] == pytest.approx(4.0, rel=1e-12)
    assert doc["analysis"]["optimal_lag"] == pytest.approx(7.54, abs=0.01)


def test_design_document_of_a_repeated_negative_pole(capsys):
    # A repeated pole outside [0, 1) has no optimal lag; the document still prints.
    code, out = run_cli(capsys, ["design", "--order", "2", "--poles=-0.5,-0.5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["design"]["pole"] == -0.5 and "optimal_lag" not in doc["analysis"]


def test_design_explicit_pole_list(capsys):
    _, out = run_cli(capsys, ["design", "--order", "2",
                              "--poles", "0.4+0.2j,0.4-0.2j", "--lag", "1"])
    doc = json.loads(out)
    assert doc["design"]["poles"] == [[0.4, 0.2], [0.4, -0.2]]
    assert "pole" not in doc["design"]
    assert doc["verification"]["placement_residual"] < 1e-10


def test_design_single_form_selection(capsys):
    _, out = run_cli(capsys, ["design", *REF_ARGS, "--form", "ocf"])
    doc = json.loads(out)
    assert set(doc["realizations"]) == {"ocf"}


@pytest.mark.parametrize("form", ["kin", "pcf", "ocf", "ccf", "all"])
def test_every_document_form_verifies_to_its_stated_gap(capsys, form):
    # The gap is rebuilt from the design and gains blocks alone, so a
    # document holding any one realization verifies.
    code, out = run_cli(capsys, ["design", *REF_ARGS, "--form", form])
    assert code == 0
    doc = json.loads(out)
    assert verify_document(doc) == doc["verification"]["placement_residual"]


@settings(max_examples=150, deadline=None)
@given(placed_specs())
def test_document_gap_catches_a_gain_error(spec):
    # The exact D(u) of the loop against the requested poles' a_m.  Pole sets
    # that are all negative read higher: the closed-form gains' alternating
    # Stirling sums cancel there, and the gap reports that rounding (up to
    # 4.7e-14 measured).  The last gain alone sets D(0) = a_K, so a 1e-9
    # error in it moves that coefficient by 1e-9 relative.  Only the blocks
    # the gap reads are built: a clustered negative pole set can design an
    # unstable loop, whose document stops at its noise gain.
    model = spec.process
    doc = {"design": {"order": model.order, "sampling_period": model.ts, "lag": spec.lag,
                      "poles": [[p.real, p.imag] for p in spec.poles], "derivative": spec.deriv},
           "gains": {"kin": list(design(spec).gains.kin.col(0))}}
    bound = 1e-13 if all(p.real < 0.0 for p in spec.poles) else 1e-14
    assert verify_document(doc) <= bound
    doc["gains"]["kin"][-1] *= 1.0 + 1e-9
    assert verify_document(doc) > 1e-10


@st.composite
def negative_or_complex_specs(draw):
    """Specs over every order, a log-uniform sampling period, lag and
    derivative, whose poles are all negative or hold a complex pair."""
    order = draw(st.integers(1, 8))
    if order >= 2 and draw(st.booleans()):
        z = cmath.rect(draw(st.floats(0.0, 0.999)), draw(st.floats(0.01, 3.13)))
        poles = [z, z.conjugate(), *draw(st.lists(st.floats(-0.999, 0.999),
                                                  min_size=order - 2, max_size=order - 2))]
    else:
        poles = draw(st.lists(st.floats(-0.999, -0.001), min_size=order, max_size=order))
    return ObserverSpec(ProcessModel(order, 10.0 ** draw(st.floats(-3.0, 3.0))), poles,
                        lag=draw(st.floats(-1.0, 3.0)), deriv=draw(st.integers(0, order - 1)))


@settings(max_examples=60, deadline=None)
@given(negative_or_complex_specs())
def test_document_transforms_and_companion_columns_are_the_realize_builders(spec):
    # The blocks are built on request from the design's process and
    # polynomials; the PCF entry, when it certifies, carries the same pair,
    # and gains.pcf is the gap of the two columns.
    result = design(spec)
    try:
        doc = json.loads(json.dumps(design_document(result, ("kin", "pcf"))))
    except fixedgain.errors.NonConvergent:  # a clustered negative set can design an unstable loop
        assume(False)
    kin_from_pcf, pcf_from_kin = (
        [list(row) for row in m.data] for m in realize.pcf_transform(spec.process))
    assert doc["transforms"] == {"kin_from_pcf": kin_from_pcf, "pcf_from_kin": pcf_from_kin}
    if "pcf" in doc["realizations"]:
        entry = doc["realizations"]["pcf"]
        assert (entry["kin_from_form"], entry["form_from_kin"]) == (kin_from_pcf, pcf_from_kin)
    observer = list(realize.companion_column(result.char_poly))
    process = list(realize.companion_column(spec.process.char_poly))
    assert doc["companion_columns"] == {"observer": observer, "process": process}
    assert doc["gains"]["pcf"] == [p - o for p, o in zip(process, observer)]


@pytest.mark.parametrize("forms", [("kin", "pcf", "ocf", "ccf"), ("pcf",), ("ocf",), ("kin",)])
def test_document_builds_the_pcf_pair_once(monkeypatch, forms):
    # A certified PCF realization lends its pair to the transforms block.
    built = []
    pcf_transform = realize.pcf_transform
    monkeypatch.setattr(realize, "pcf_transform", lambda model: built.append(model)
                        or pcf_transform(model))
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0))
    doc = design_document(result, forms)
    assert built == [result.spec.process]
    assert doc["transforms"]["kin_from_pcf"] == [list(row) for row in
                                                 pcf_transform(result.spec.process)[0].data]


def test_verify_document_refuses_unfit_gains_and_poles():
    # json.loads reads Infinity and NaN, so a parsed document can hold them.
    doc = design_document(design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0)))
    for edit in (lambda d: d["gains"]["kin"].pop(), lambda d: d["design"]["poles"].pop(),
                 lambda d: d["design"].update(poles=[[1.5, 0.0]] * 3),
                 lambda d: d["design"].update(poles=[[-1e155, 0.0]] * 3),  # from_roots overflows
                 lambda d: d["design"].update(poles=[[math.nan, 0.0]] * 3),
                 lambda d: d["gains"].pop("kin"),
                 lambda d: d["gains"]["kin"].__setitem__(1, math.inf),
                 lambda d: d["gains"]["kin"].__setitem__(2, math.nan),
                 lambda d: d["gains"]["kin"].__setitem__(0, "a"),
                 lambda d: d["design"].update(lag=math.inf),
                 lambda d: d["design"].update(lag=math.nan),
                 lambda d: d["design"].update(sampling_period=1e200),
                 lambda d: d["design"].update(order=9)):
        broken = json.loads(json.dumps(doc))
        edit(broken)
        with pytest.raises(fixedgain.cli.InputDataError):
            verify_document(broken)


def test_design_omits_uncertifiable_form(capsys):
    # With the default --form all, a form whose transform fails certification
    # is dropped from the document (with a note) instead of failing the run;
    # asking for that form explicitly is still an error.  A deadbeat design
    # with a one-sample lag leaves part of the state unseen by the read-out;
    # at ts = 10 the pivot test misses it and the identity check refuses it.
    argv = ["design", "--order", "7", "--pole", "0", "--lag", "1", "--ts", "10"]
    code, out = run_cli(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["realizations"]) == {"kin", "pcf", "ccf"}
    assert set(doc["realizations_omitted"]) == {"ocf"}
    assert "certify" in doc["realizations_omitted"]["ocf"]
    assert max_abs_diff(doc["transfer"]["numerator"], (0, 1, 0, 0, 0, 0, 0, 0)) < 1e-12

    code, _ = run_cli(capsys, [*argv, "--form", "ocf"])
    assert code == 3


def test_design_keeps_its_transfer_where_the_companion_forms_fail(capsys):
    # Neither companion form certifies here, but the transfer function is read
    # off the kinematic realization, so the document and --freq still come out.
    argv = ["--order", "6", "--pole", "0.9", "--lag", "2"]
    code, out = run_cli(capsys, ["design", *argv])
    assert code == 0
    doc = json.loads(out)
    assert set(doc["realizations"]) == {"kin", "pcf"}
    assert set(doc["realizations_omitted"]) == {"ocf", "ccf"}
    num, den = transfer_coefficients(
        design(ObserverSpec.repeated(ProcessModel(6, 1.0), 0.9, lag=2.0)))
    assert doc["transfer"] == {"numerator": list(num.coeffs), "denominator": list(den.coeffs)}
    assert all(map(math.isfinite, num.coeffs))

    code, out = run_cli(capsys, ["analyze", *argv, "--freq"])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 1024


def test_design_document_noise_gain_is_exact_for_the_requested_poles(capsys):
    # K = 5, memory 84.3, deriv 4: the long-memory high-derivative corner
    # where the earlier similarity-built gains were 1.1e-5 off.
    flags = ["--order", "5", "--ts", "0.15982675678270414", "--memory", "84.29224780673994",
             "--lag", "1.3980735618868758", "--deriv", "4"]
    code, out = run_cli(capsys, ["design", *flags])
    assert code == 0
    spec = ObserverSpec.repeated(ProcessModel(5, 0.15982675678270414),
                                 memory_to_pole(84.29224780673994),
                                 lag=1.3980735618868758, deriv=4)
    want = exact_design_noise_gain(spec)
    assert abs(json.loads(out)["analysis"]["white_noise_gain"] - want) <= 1e-14 * want


def test_design_document_matches_library_call(capsys):
    _, out = run_cli(capsys, ["design", *REF_ARGS])
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0))
    want = design_document(result)
    assert json.loads(out) == json.loads(json.dumps(want))


# --- analyze -------------------------------------------------------------------

def test_analyze_wng(capsys):
    code, out = run_cli(capsys, ["analyze", "--order", "2", "--pole", "0.6065",
                                 "--lag", "0", "--wng"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["quantity", "value"]
    assert rows[0][0] == "wng"
    assert float(rows[0][1]) == pytest.approx(BENCH_WNG[0.0][0], abs=5e-4)


@settings(max_examples=40, deadline=None)
@given(placed_specs())
def test_cli_noise_gain_is_the_exact_loop_gain_rounded_once(spec):
    assume(spec.process.order <= 4)
    result = design(spec)
    assert _noise_gain(result) == loop_noise_gain_fraction(result)


@pytest.mark.parametrize("ts", [1e-26, 1e-40, 1e25, 1e30])
def test_noise_gain_and_document_hold_at_extreme_sampling_periods(capsys, ts):
    # The gain scales as ts^(-2 deriv): the ts = 1 value, exact, times that.
    args = ["--order", "8", "--pole", "0.8", "--ts", repr(ts), "--lag", "2", "--deriv", "3"]
    code, out = run_cli(capsys, ["analyze", *args, "--wng"])
    assert code == 0
    got = float(read_csv(out)[1][0][1])
    unit = design(ObserverSpec.repeated(ProcessModel(8, 1.0), 0.8, lag=2.0, deriv=3))
    want = Fraction(_noise_gain(unit)) / Fraction(ts) ** 6
    assert abs(Fraction(got) - want) <= 1e-12 * want
    code, out = run_cli(capsys, ["design", "--order", "8", "--pole", "0.8", "--ts", repr(ts)])
    assert code == 0
    doc = json.loads(out)
    assert verify_document(doc) == doc["verification"]["placement_residual"] <= 1e-14


def test_analyze_wng_value_reparses_exactly(capsys):
    _, out = run_cli(capsys, ["analyze", *REF_ARGS, "--wng"])
    _, rows = read_csv(out)
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0))
    assert float(rows[0][1]) == loop_noise_gain_fraction(result)


@pytest.mark.parametrize("args", [
    REF_ARGS,
    ["--order", "5", "--memory", "84.29", "--ts", "0.160", "--lag", "1.40", "--deriv", "4"],
    ["--order", "8", "--pole", "0.6", "--lag", "0.5", "--deriv", "7"],
])
def test_design_document_and_analyze_print_the_same_noise_gain(capsys, args):
    _, doc_text = run_cli(capsys, ["design", *args])
    _, rows = read_csv(run_cli(capsys, ["analyze", *args, "--wng"])[1])
    match = re.search(r'"white_noise_gain": ([^,\n]+)', doc_text)
    assert match.group(1) == rows[0][1]


def test_analyze_freq_pure_delay_is_allpass(capsys):
    _, out = run_cli(capsys, ["analyze", "--order", "3", "--pole", "0",
                              "--lag", "2", "--ts", "0.04", "--freq"])
    header, rows = read_csv(out)
    assert header == ["f", "re", "im", "magnitude_db", "phase_deg"]
    assert len(rows) == 1024
    assert float(rows[0][0]) == 0.0
    assert float(rows[-1][0]) == 0.5
    assert max(abs(float(r[3])) for r in rows) < 1e-9


def test_analyze_step_matches_library(capsys):
    _, out = run_cli(capsys, ["analyze", "--order", "2", "--pole", "0.7788",
                              "--lag", "1", "--step", "25"])
    header, rows = read_csv(out)
    assert header == ["n", "y"]
    assert len(rows) == 26
    result = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.7788, lag=1.0))
    want = step_response(result, 25)
    assert max_abs_diff([float(r[1]) for r in rows], want) == 0.0


def test_analyze_negative_step_horizon_exits_2(capsys):
    code, out = run_cli(capsys, ["analyze", "--order", "2", "--pole", "0.5", "--step", "-3"])
    assert code == 2
    assert out == ""


# Designs of the benchmark's cli deck at high order and long memory.  The noise
# gain and the step response need only the kinematic realization, and must not
# ask for the transfer coefficients.
NO_TRANSFER_ARGS = {
    "K7": ["--order", "7", "--ts", "0.9815290483172961", "--memory", "17.162851075460505",
           "--lag", "2.235025464956479", "--deriv", "1"],
    "K6": ["--order", "6", "--ts", "0.0067699185514661425", "--memory", "219.10500061845127",
           "--lag", "-0.8680826017682026", "--deriv", "3"],
    "K7-deriv4": ["--order", "7", "--ts", "0.16880186170713576", "--memory",
                  "364.31062962023304", "--lag", "1.6997105776220955", "--deriv", "4"],
}


def _no_transfer_design(args):
    order, ts, memory, lag, deriv = (float(v) for v in args[1::2])
    result = design(ObserverSpec.repeated(ProcessModel(int(order), ts), memory_to_pole(memory),
                                          lag=lag, deriv=int(deriv)))
    ss = result.ss_kin
    return (result, np.array(ss.transition.data), np.array(ss.input_gain.col(0)),
            np.array(ss.output_row.row(0)))


@pytest.mark.parametrize("name,option", [("K7", ["--wng"]), ("K6", ["--wng"]),
                                         ("K7-deriv4", ["--step", "332"])],
                         ids=["wng-K7", "wng-K6", "step-K7"])
def test_analyze_wng_and_step_need_no_transfer_coefficients(capsys, monkeypatch, name, option):
    def refuse(result):
        raise AssertionError("the transfer coefficients were asked for")

    # The CLI imports the name, so it is replaced in both modules.
    monkeypatch.setattr(realize, "transfer_coefficients", refuse)
    monkeypatch.setattr(fixedgain.cli, "transfer_coefficients", refuse)
    args = NO_TRANSFER_ARGS[name]
    code, out = run_cli(capsys, ["analyze", *args, *option])
    assert code == 0
    _, rows = read_csv(out)
    result, a, b, c = _no_transfer_design(args)
    if option == ["--wng"]:
        got = float(rows[0][1])
        # Bit for bit the exact gain of the loop F - k p (a Lyapunov solve in
        # Fractions), and near the doubling on the rounded transition the
        # filter steps.
        assert got == loop_noise_gain_fraction(result)
        assert got == pytest.approx(_realization_noise_gain(result.ss_kin), rel=1e-12)
        # The Lyapunov series by doubling in numpy, to the benchmark's 1e-8.
        p, am = np.outer(b, b), a
        for _ in range(64):
            p, am = p + am @ p @ am.T, am @ am
        assert got == pytest.approx(float(c @ p @ c), rel=1e-8)
    else:
        got = [float(r[1]) for r in rows]
        assert got == step_response(result, 332)
        w, want = np.eye(len(b))[0], []
        for n in range(333):
            if n:
                w = a @ w + b
            want.append(float(c @ w))
        assert max_abs_diff(got, want) <= 1e-9 * max(1.0, max(map(abs, want)))


def test_analyze_impulse_matches_library(capsys):
    _, out = run_cli(capsys, ["analyze", *REF_ARGS, "--impulse"])
    header, rows = read_csv(out)
    assert header == ["n", "h"]
    result = design(ObserverSpec.repeated(ProcessModel(3, 0.04), 0.8, lag=2.0))
    want = impulse_response(*transfer_coefficients(result))
    assert len(rows) == len(want)
    assert max_abs_diff([float(r[1]) for r in rows], want) == 0.0


def test_analyze_flatness_schema_and_values(capsys):
    _, out = run_cli(capsys, ["analyze", *REF_ARGS, "--flatness"])
    header, rows = read_csv(out)
    assert header == ["order", "target_re", "target_im", "measured_re",
                      "measured_im", "deviation"]
    assert len(rows) == 3
    assert all(float(r[5]) < 1e-8 for r in rows)
    # order-1 target for a two-sample lag is -2i
    assert float(rows[1][1]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[1][2]) == pytest.approx(-2.0, abs=1e-12)


# --- filter ----------------------------------------------------------------------

def test_filter_single_column_csv(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{v}\n" for v in (2.0, 2.0, 2.0, 2.0)))
    code, out = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.5",
                                 "--lag", "0", "--input", str(path)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "y"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    # constant input with matched initialization stays put
    assert all(float(r[1]) == pytest.approx(2.0, abs=1e-12) for r in rows)


def test_filter_two_column_csv_with_header(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("n,value\n10,1.0\n11,2.0\n12,3.0\n")
    _, out = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.4",
                              "--lag", "0", "--input", str(path)])
    _, rows = read_csv(out)
    assert [r[0] for r in rows] == ["10", "11", "12"]
    assert float(rows[0][1]) == 1.0  # first sample initializes the state


def test_filter_emit_state_columns(tmp_path, capsys):
    path = tmp_path / "ramp.csv"
    path.write_text("".join(f"{0.5 * n}\n" for n in range(200)))
    _, out = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.6",
                              "--lag", "0", "--input", str(path),
                              "--emit", "state"])
    header, rows = read_csv(out)
    assert header == ["n", "y", "state0", "state1"]
    # at steady state on a slope-0.5 ramp the velocity estimate is 0.5
    assert float(rows[-1][2]) == pytest.approx(0.5 * 199, abs=1e-6)
    assert float(rows[-1][3]) == pytest.approx(0.5, abs=1e-6)


def test_filter_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"1.0\n1.0\n1.0\n")))
    code, out = run_cli(capsys, ["filter", "--order", "1", "--pole", "0.5",
                                 "--lag", "0", "--input", "-"])
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 3
    assert not sys.stdin.buffer.closed


def test_filter_closed_stdin_is_input_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", None)  # as Python sets it when fd 0 is closed
    code = main(["filter", "--order", "1", "--pole", "0.5", "--input", "-"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: cannot read '-': standard input is closed\n"


def test_filter_empty_input(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("")
    code, out = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.5",
                                 "--lag", "0", "--input", str(path)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "y"]
    assert rows == []


def test_filter_ragged_row_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\n2.0,3.0,4.0\n")
    code, _ = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.5",
                               "--lag", "0", "--input", str(path)])
    assert code == 4


def test_filter_non_numeric_cell_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1.0\nxyz\n")
    code, _ = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.5",
                               "--lag", "0", "--input", str(path)])
    assert code == 4


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_filter_non_finite_sample_is_input_error(tmp_path, capsys, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"n,x\n0,1.0\n1,{cell}\n2,3.0\n")
    code = main(["filter", "--order", "2", "--pole", "0.5", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "row 3" in captured.err


def test_filter_error_rows_are_file_lines(tmp_path, capsys):
    # Blank lines count: the error names the physical line of the bad row.
    # ``late`` runs far past the first chunk, so the inputs built on it go
    # wrong, or leave the bulk path, only in a later chunk.
    late = "n,value\n" + "".join(f"{n},{n / 8}\n" for n in range(40_000))
    # A blank line, or a record that spans two lines, at the end of the first
    # chunk: the row count goes on past it into the next chunk.
    first = "n,value\n" + "".join(f"{n},1.0\n" for n in range(2, _CHUNK))
    rest = "".join(f"{n},1.0\n" for n in range(_CHUNK + 1, 3 * _CHUNK))
    for text, line in (("1.0\n\n2.0\nxyz\n", 4),
                       (first + "\n" + rest + "x,abc\n", 3 * _CHUNK),
                       (first + '"a\nb",1.0\n' + rest + "x,abc\n", 3 * _CHUNK + 1),
                       ("n,value\n\n\n1,2.0,3\n", 4),
                       ("\n\nn,value\n0,1.0\n\n1,inf\n", 6),
                       (late + "40000,1.0,2.0\n", 40_002),
                       (late + "40000,abc\n", 40_002),
                       (late + "40000,-inf\n", 40_002),
                       (late + '"4,0",1.0\nx,abc\n', 40_003),
                       (late + "40000,1.0\r\nx,abc\n", 40_003),
                       (late + "\nx,abc\n", 40_003),
                       (late + "x" * 140_000 + ",1.0\n", 40_002)):
        path = tmp_path / "bad.csv"
        path.write_text(text, newline="")
        code = main(["filter", "--order", "2", "--pole", "0.5", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith(f"error: row {line}:")


@pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_filter_lines_end_only_at_line_feed_or_return(tmp_path, capsys, sep):
    # str.splitlines would split here and filter two samples.
    path = tmp_path / "samples.csv"
    path.write_text(f"n,value\n0,1.0{sep}1,2.0\n", encoding="utf-8")
    code = main(["filter", "--order", "1", "--pole", "0.5", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: row 2: expected 1 or 2 columns, got 3\n"


def test_filter_header_after_blank_lines(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text("\n\nn,value\n\n7,1.0\n8,2.0\n")
    code, out = run_cli(capsys, ["filter", "--order", "1", "--pole", "0.5",
                                 "--input", str(path)])
    assert code == 0
    assert out == "n,y\n7,1.0\n8,1.5\n"


@pytest.mark.parametrize("last,line", [
    pytest.param("4999,1.0,2.0", 5001, id="4999,1.0,2.0"),
    pytest.param("4999,abc", 5001, id="4999,abc"),
    pytest.param("4999,nan", 5001, id="4999,nan"),
    # A row the bulk reader leaves to the csv module, in a late chunk, then a bad one.
    pytest.param('"49,99",1.0\n5000,abc', 5002, id="quoted-label-then-abc"),
    pytest.param("4999,1.0\r\n5000,abc", 5002, id="crlf-line-then-abc"),
    pytest.param("\n5000,abc", 5002, id="blank-line-then-abc"),
])
def test_filter_validates_whole_input_before_output(tmp_path, capsys, last, line):
    # Output streams block by block, but a bad last row must still leave stdout
    # empty: the whole file is validated before the first row is written.
    path = tmp_path / "long.csv"
    path.write_text("n,value\n" + "".join(f"{n},{0.001 * n}\n" for n in range(4999))
                    + last + "\n", newline="")
    code = main(["filter", "--order", "3", "--pole", "0.7", "--input", str(path),
                 "--emit", "state"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"error: row {line}:")


def _row_loop_samples(path):
    """``_samples._read_samples`` as one row loop over the whole input, its
    labels in one list and its values in another: every row through
    ``csv.reader``, nothing read in bulk.  The reference the chunked reader
    must match, expanded by ``_expanded_samples``, result and error message
    alike."""
    labels, values = [], []
    encoding, errors = sys.stdout.encoding, sys.stdout.errors
    try:
        with (_samples._stdin_text() if path == "-"
              else open(path, "r", encoding="utf-8", newline="")) as fh:
            lines = iter(fh)
            reader = csv.reader(itertools.chain([next(lines, "").removeprefix("\ufeff")], lines))
            for i, row in enumerate(filter(None, reader)):
                if len(row) not in (1, 2):
                    raise cli.InputDataError(
                        f"row {reader.line_num}: expected 1 or 2 columns, got {len(row)}")
                try:
                    value = float(row[-1])
                except ValueError:
                    if i == 0:
                        continue  # header row
                    raise cli.InputDataError(
                        f"row {reader.line_num}: non-numeric value {row[-1]!r}") from None
                if not math.isfinite(value):
                    raise cli.InputDataError(
                        f"row {reader.line_num}: non-finite value {row[-1]!r}")
                if len(row) == 1:
                    label = str(len(values))
                else:
                    label = row[0]
                    if not label.isascii() and encoding is not None:
                        try:
                            label.encode(encoding, errors)
                        except UnicodeEncodeError:
                            raise cli.InputDataError(
                                f"row {reader.line_num}: label {label!r} cannot be written"
                                f" to standard output ({encoding})") from None
                    if not _samples._QUOTED_CHARS.isdisjoint(label):
                        label = _samples._csv_field(label)
                labels.append(label)
                values.append(value)
    except (OSError, UnicodeDecodeError) as exc:
        raise cli.InputDataError(f"cannot read {path!r}: {exc}") from exc
    except csv.Error as exc:
        raise cli.InputDataError(f"row {reader.line_num}: {exc}") from None
    return labels, values


def _expanded_samples(path):
    """``_samples._read_samples(path)`` with every label and value listed."""
    chunks, values = _samples._read_samples(path)
    return list(_samples._labels(chunks)), values.tolist()


def _samples_outcome(read, path, data):
    """``read(path)``, or its error message, with ``data`` on stdin for ``-``."""
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(data))
    try:
        return read(path)
    except cli.InputDataError as exc:
        return str(exc)
    finally:
        sys.stdin = stdin


# Fields that the bulk reader must leave to the csv module, or that parse in
# surprising ways, and the line ends the csv module reads.
_ODD_FIELDS = st.sampled_from(['"a,b"', '"q""q"', '"two\nlines"', '"open', "a\rb", "x\x00",
                               "\f", "1\x85", "é", "1_0", "nan", "inf", "-inf", " 2.5 ",
                               "\t3", "1e308", "abc", "", "\ufeff1"])
_NUMBERS = st.floats(allow_nan=False).map(repr)
_ODD_LINES = (st.lists(_ODD_FIELDS | _NUMBERS, max_size=3).map(",".join)
              | st.tuples(_ODD_FIELDS, _NUMBERS).map(",".join))
_LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", ""])
# Where odd lines go: anywhere, and often at the first line of a chunk or the last.
_PLACES = st.integers(0, 3 * _CHUNK) | st.sampled_from(
    [k * _CHUNK + d for k in (1, 2) for d in (-2, -1, 0, 1)])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(rows=st.sampled_from([0, 3, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 7]),
       two=st.booleans(), header=st.booleans(), bom=st.booleans(),
       odd=st.lists(st.tuples(_PLACES, _ODD_LINES, _LINE_ENDS), max_size=4),
       bad_byte=st.none() | st.integers(0, 60_000), source=st.sampled_from(["file", "stdin"]))
def test_read_samples_is_the_row_loop(tmp_path, rows, two, header, bom, odd, bad_byte, source):
    # Plain rows spanning several chunks, with odd rows spliced in anywhere,
    # chunk boundaries included, and now and then a byte that is not UTF-8.
    lines = [f"{n},{n / 7!r}\n" if two else f"{n / 7!r}\n" for n in range(rows)]
    for at, text, end in odd:
        lines.insert(min(at, len(lines)), text + end)
    data = ("\ufeff" * bom + ("n,value\n" if two else "value\n") * header
            + "".join(lines)).encode()
    if bad_byte is not None:
        data = data[:bad_byte] + b"\xfe" + data[bad_byte:]
    path = tmp_path / "samples.csv"
    path.write_bytes(data)
    name = str(path) if source == "file" else "-"
    assert (_samples_outcome(_expanded_samples, name, data)
            == _samples_outcome(_row_loop_samples, name, data))


def test_read_samples_takes_plain_chunks_in_bulk(tmp_path, monkeypatch):
    # Only the chunk holding the header goes through the csv module.
    taken = []

    def recorded(*args, bulk=_samples._take_plain):
        taken.append(bulk(*args))
        return taken[-1]

    monkeypatch.setattr(_samples, "_take_plain", recorded)
    path = tmp_path / "samples.csv"
    path.write_text("n,value\n" + "".join(f"{n},{n / 3}\n" for n in range(4 * _CHUNK)))
    assert _expanded_samples(str(path)) == _row_loop_samples(str(path))
    assert taken == [True] * 4
    # Each bulk chunk is held as one joined string of labels.
    chunks, values = _samples._read_samples(str(path))
    assert [type(chunk) for chunk in chunks] == [list, str, str, str, str, list]
    assert values.typecode == "d"


@pytest.mark.parametrize("kind", ["two-column", "one-column", "quoted-label"])
def test_read_samples_holds_a_few_bytes_a_row(tmp_path, kind):
    # The values go in one array of doubles and a bulk chunk's labels in one
    # joined string, so about 16 bytes a row stay held; a str label and a
    # float object a row would hold about 94.  The quoted label sends its
    # chunk through the csv module, and that chunk keeps a list of labels.
    rows = 24_000
    lines = [f"{n / 7!r}\n" if kind == "one-column" else f"{n},{n / 7!r}\n" for n in range(rows)]
    if kind == "quoted-label":
        lines[3 * _CHUNK + 5] = '"a\nb",0.5\n'
    path = tmp_path / "samples.csv"
    path.write_text("n,value\n" * (kind != "one-column") + "".join(lines))
    _samples._read_samples(str(path))  # lazy module set-up is not counted
    tracemalloc.start()
    try:
        chunks, values = _samples._read_samples(str(path))
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(values) == rows
    assert any('"a\nb"' in chunk for chunk in chunks if isinstance(chunk, list)) == (
        kind == "quoted-label")
    assert held < 24 * rows, held / rows


@pytest.mark.parametrize("bad_byte,message", [
    (20_000, "row 701: non-numeric value 'abc'"),
    (9_000, "cannot read"),
], ids=["row-error-first", "decode-error-first"])
def test_filter_reports_a_bad_row_and_an_undecodable_byte_in_file_order(tmp_path, capsys,
                                                                        bad_byte, message):
    # The row error wins when the bytes that do not decode come after it in the
    # file, even if they fall in the same chunk of lines: the input is decoded
    # as a row-by-row read decodes it.
    text = "".join("x,abc\n" if n == 700 else f"{n},{n / 7!r}\n" for n in range(3000)).encode()
    path = tmp_path / "samples.csv"
    path.write_bytes(text[:bad_byte] + b"\xfe" + text[bad_byte:])
    code = main(["filter", "--order", "1", "--pole", "0.5", "--input", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (4, "")
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("late", ['"ab",{x!r}\n', "40000,{x!r}\r\n", "\n"],
                         ids=["quoted", "crlf", "blank"])
def test_filter_output_is_the_same_when_a_late_chunk_needs_the_csv_module(tmp_path, capsys,
                                                                          late):
    # One line far past the first chunk is quoted, ends in CRLF or is blank;
    # every row is still printed as csv.writer prints it.
    labels = [str(n) for n in range(40_001)]
    xs = [math.sin(0.001 * n) + 1e-5 * n for n in range(len(labels))]
    lines = [f"{label},{x!r}\n" for label, x in zip(labels, xs)]
    lines[40_000] = late.format(x=xs[40_000])
    if late == "\n":
        del labels[40_000], xs[40_000]
    elif late.startswith('"'):
        labels[40_000] = "ab"  # one comma on the line: only its quotes keep it from the bulk path
    path = tmp_path / "samples.csv"
    path.write_text("n,value\n" + "".join(lines), newline="")
    code, out = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.6", "--input", str(path),
                                 "--emit", "state"])
    assert code == 0
    ss = design(ObserverSpec.repeated(ProcessModel(2, 1.0), 0.6)).ss_kin
    assert out == _csv_writer_reference(ss, labels, xs, "state")


@pytest.mark.parametrize("order", range(1, 9))
def test_filter_state_output_is_the_matrix_recursion(tmp_path, capsys, order):
    # Every printed number is the repr of the recursion written with Matrix
    # products: w <- G w + h x, y = c w, kinematic state = T w.
    xs = [math.sin(0.3 * n) + 0.01 * n * n for n in range(60)]
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{x!r}\n" for x in xs))
    code, out = run_cli(capsys, ["filter", "--order", str(order), "--pole", "0.6",
                                 "--ts", "0.5", "--lag", "0.7", "--input", str(path),
                                 "--emit", "state"])
    assert code == 0
    ss = design(ObserverSpec.repeated(ProcessModel(order, 0.5), 0.6, lag=0.7)).ss_kin
    w = Matrix.column([xs[0]] + [0.0] * (order - 1))
    lines = ["n,y," + ",".join(f"state{i}" for i in range(order))]
    for n, x in enumerate(xs):
        if n:
            moved = (ss.transition @ w).col(0)
            w = Matrix.column([m + h * x for m, h in zip(moved, ss.input_gain.col(0))])
        y = (ss.output_row @ w)[0, 0]
        lines.append(",".join([str(n), repr(y)] + [repr(v) for v in (ss.kin_from_form @ w).col(0)]))
    assert out == "\n".join(lines) + "\n"


def _write_labelled_samples(path, labels, xs):
    # Every field quoted, so that any label, a bare carriage return included,
    # reads back as written.
    source = io.StringIO()
    csv.writer(source, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(zip(labels, xs))
    path.write_text("n,value\n" + source.getvalue(), encoding="utf-8", newline="")


def _csv_writer_reference(ss, labels, xs, emit):
    """The filter's stdout as a row-by-row ``csv.writer`` prints it."""
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(["n", "y"] + ([f"state{i}" for i in range(ss.order)] if emit == "state" else []))
    state = realize.initialize_state(ss, xs[0])
    for n, (label, x) in enumerate(zip(labels, xs)):
        y = realize.step(ss, state, x) if n else realize.read_output(ss, state)
        extra = realize.extract_kinematic(ss, state) if emit == "state" else []
        writer.writerow([label, y, *extra])
    return reference.getvalue()


@pytest.mark.parametrize("emit", ["position", "state"])
def test_filter_output_is_byte_identical_across_block_boundaries(tmp_path, capsys, emit):
    # The header is the first line of the first block, so sample i is output
    # line i + 1; quoted labels sit on both sides of each block boundary.
    quoted = 'a,"b"'
    labels = [str(n) for n in range(2 * _BLOCK + 1)]
    for n in (_BLOCK - 2, _BLOCK - 1, 2 * _BLOCK - 1, 2 * _BLOCK):
        labels[n] = f"{quoted}{n}"
    xs = [math.cos(0.05 * n) + 0.002 * n for n in range(len(labels))]
    path = tmp_path / "samples.csv"
    _write_labelled_samples(path, labels, xs)
    code, out = run_cli(capsys, ["filter", "--order", "3", "--pole", "0.7", "--lag", "1",
                                 "--input", str(path), "--emit", emit])
    assert code == 0
    ss = design(ObserverSpec.repeated(ProcessModel(3, 1.0), 0.7, lag=1.0)).ss_kin
    assert out == _csv_writer_reference(ss, labels, xs, emit)
    assert out.count(f'"a,""b""{_BLOCK - 1}"') == 1


# Labels that csv quotes, or that are easy to mangle, drawn often; NUL is left
# out because the csv reader before Python 3.11 rejects it as input.
_LABELS = st.text(st.sampled_from(',"\r\n \t\x85é€\u2028') | st.characters(
    exclude_categories=("Cs",), exclude_characters="\x00"), max_size=6)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=st.lists(_LABELS, min_size=1, max_size=8), start=st.integers(_BLOCK - 8, _BLOCK),
       order=st.sampled_from([1, 3, 8]), emit=st.sampled_from(["position", "state"]))
def test_filter_prints_any_label_as_csv_writer_does(tmp_path, drawn, start, order, emit):
    # The drawn labels straddle the end of the first block (the header and
    # _BLOCK - 1 samples) or sit just before or after it.
    labels = [str(n) for n in range(_BLOCK + 8)]
    labels[start:start + len(drawn)] = drawn
    xs = [math.sin(0.1 * n) + 0.001 * n for n in range(len(labels))]
    path = tmp_path / "samples.csv"
    _write_labelled_samples(path, labels, xs)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["filter", "--order", str(order), "--pole", "0.6", "--lag", "0.5",
                     "--input", str(path), "--emit", emit])
    assert code == 0
    ss = design(ObserverSpec.repeated(ProcessModel(order, 1.0), 0.6, lag=0.5)).ss_kin
    assert out.getvalue() == _csv_writer_reference(ss, labels, xs, emit)


@pytest.mark.parametrize("emit", ["position", "state"])
def test_filter_calls_the_realize_module_once_per_sample(tmp_path, capsys, monkeypatch, emit):
    # A wrapper installed on the realize module before the command runs, as a
    # per-layer tracer installs one, must see every per-sample call.
    calls = dict.fromkeys(["initialize_state", "read_output", "step", "extract_kinematic"], 0)
    for name in calls:
        def counted(*args, name=name, original=getattr(realize, name)):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(realize, name, counted)
    n = _BLOCK + 5
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{0.5 * k}\n" for k in range(n)))
    code, out = run_cli(capsys, ["filter", "--order", "3", "--pole", "0.7",
                                 "--input", str(path), "--emit", emit])
    assert code == 0
    assert len(out.splitlines()) == n + 1
    assert calls == {"initialize_state": 1, "read_output": 1, "step": n - 1,
                     "extract_kinematic": n if emit == "state" else 0}


class _CountingStdout(io.StringIO):
    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_filter_writes_stdout_a_block_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{0.25 * n}\n" for n in range(3 * _BLOCK)))
    stdout = _CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["filter", "--order", "2", "--pole", "0.5", "--input", str(path)])
    assert code == 0
    assert len(stdout.getvalue().splitlines()) == 3 * _BLOCK + 1
    assert stdout.writes <= 4  # the header and 3 * _BLOCK rows, in 1,024-row blocks


@pytest.mark.parametrize("row", ["1," + "1" * 140_000, "x" * 140_000 + ",1.0"],
                         ids=["value", "label"])
def test_filter_oversized_field_is_input_error(tmp_path, capsys, row):
    # The csv module refuses a field over 131,072 characters.
    path = tmp_path / "big.csv"
    path.write_text(f"n,value\n0,1.0\n{row}\n")
    code = main(["filter", "--order", "1", "--pole", "0.5", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "error: row 3: field larger than field limit (131072)\n"


def test_filter_missing_file_is_input_error(tmp_path, capsys):
    code, _ = run_cli(capsys, ["filter", "--order", "2", "--pole", "0.5",
                               "--lag", "0", "--input", str(tmp_path / "nope.csv")])
    assert code == 4


@pytest.mark.parametrize("data", [b"\xff\n1.0\n", b"n,value\n0,1.0\n1,2\xfe\n"])
def test_filter_non_utf8_file_is_input_error(tmp_path, capsys, data):
    path = tmp_path / "bytes.csv"
    path.write_bytes(data)
    code = main(["filter", "--order", "1", "--pole", "0.5", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {str(path)!r}: 'utf-8' codec")


# --- tables ------------------------------------------------------------------------

def test_table_one_grid(capsys):
    code, out = run_cli(capsys, ["tables", "--table", "1"])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["q", "l=2", "l=4", "l=8", "l=12", "l=16"]
    assert len(rows) == 3
    for row, lag in zip(rows, (1.0, 0.0, -1.0)):
        assert float(row[0]) == lag
        for got, want in zip(row[1:], BENCH_WNG[lag]):
            assert float(got) == pytest.approx(want, abs=5e-4)


def test_table_two_grid(capsys):
    _, out = run_cli(capsys, ["tables", "--table", "2"])
    header, rows = read_csv(out)
    assert header[0] == "quantity"
    assert [r[0] for r in rows] == ["optimal_lag", "wng"]
    for got, want in zip(rows[0][1:], BENCH_OPTIMAL_LAG):
        assert float(got) == pytest.approx(want, abs=0.01)
    for got, want in zip(rows[1][1:], BENCH_OPTIMAL_WNG):
        assert float(got) == pytest.approx(want, abs=5e-4)


# --- exit codes ----------------------------------------------------------------------

def test_unstable_pole_exits_3(capsys):
    code, _ = run_cli(capsys, ["design", "--order", "2", "--pole", "1.2", "--lag", "0"])
    assert code == 3


def test_unobservable_form_request_exits_3(capsys):
    code, _ = run_cli(capsys, ["design", "--order", "2", "--pole", "0",
                               "--lag", "0", "--form", "ocf"])
    assert code == 3


def test_degenerate_design_still_emits_transfer(capsys):
    code, out = run_cli(capsys, ["design", "--order", "2", "--pole", "0",
                                 "--lag", "0", "--form", "kin"])
    assert code == 0
    doc = json.loads(out)
    assert max_abs_diff(doc["transfer"]["numerator"], (1, 0, 0)) < 1e-12


def test_bad_order_exits_2(capsys):
    code, _ = run_cli(capsys, ["design", "--order", "9", "--pole", "0.5", "--lag", "0"])
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _ = run_cli(capsys, ["design", "--order", "2", "--pole", "0.5",
                               "--bogus", "1"])
    assert code == 2


def test_malformed_pole_list_exits_2(capsys):
    code, _ = run_cli(capsys, ["design", "--order", "2", "--poles", "a,b"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["design", "--order", "2", "--pole", "0.5", "--lag", "nan"],
    ["analyze", "--order", "2", "--pole", "0.5", "--lag", "nan", "--flatness"],
    ["design", "--order", "3", "--pole", "0.5", "--lag", "1e300"],
    ["design", "--order", "3", "--pole", "0.5", "--lag", "1e100"],
    ["design", "--order", "2", "--pole", "0.5", "--lag", "inf"],
    ["analyze", "--order", "2", "--poles", "nan,nan", "--wng"],
    ["design", "--order", "2", "--pole", "0.5", "--ts", "inf"],
    # -lag * ts is -inf although lag and ts are each finite
    ["design", "--order", "3", "--pole", "0.5", "--lag", "1e300", "--ts", "1e10"],
    ["analyze", "--order", "3", "--pole", "0.5", "--lag", "1e300", "--ts", "1e10", "--freq"],
])
def test_non_finite_parameters_exit_2_at_once(capsys, argv):
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert elapsed < 1.0


def test_ts_whose_powers_overflow_exits_2_with_the_ts_message(capsys):
    code = main(["design", "--order", "3", "--pole", "0.5", "--ts", "1e200"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "ts = 1e+200 overflows the design's scaling" in captured.err


def test_lagged_read_out_of_the_last_derivative_is_finite_at_any_lag(capsys):
    # Row K-1 of the transition over any t is (0, .., 0, 1): only that row is
    # built, so the huge lag that overflows the position row does not matter.
    code, out = run_cli(capsys, ["design", "--order", "3", "--pole", "0.5",
                                 "--lag", "1e300", "--deriv", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["realizations"]["kin"]["output_row"] == [0.0, 0.0, 1.0]
    assert verify_document(doc) == doc["verification"]["placement_residual"]


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


# --- module entry point ---------------------------------------------------------------

def _module_env(env=None):
    # The child imports the same package as this process, also when pytest
    # put it on the path through pyproject's `pythonpath` setting.
    package_root = os.path.dirname(os.path.dirname(fixedgain.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **(env or {})}


def _run_module(argv, stdin=b"", env=None):
    """Run ``python -m fixedgain``, with ``env`` overriding entries of this
    process's environment."""
    return subprocess.run(
        [sys.executable, "-m", "fixedgain", *argv], input=stdin,
        capture_output=True, timeout=60, env=_module_env(env),
    )


def test_module_invocation_subprocess():
    proc = _run_module(["design", *REF_ARGS])
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert max_abs_diff(doc["gains"]["kin"], REF_GAIN_KIN) < 1e-12


@pytest.mark.parametrize("argv", [
    ["design", "--order", "2", "--pole", "0.5"],
    ["filter", "--order", "1", "--pole", "0.5", "--input", "-"],
], ids=["design", "filter"])
def test_closed_stdout_is_a_usage_error(argv):
    # Started with file descriptor 1 closed, Python sets sys.stdout to None.
    proc = subprocess.run(
        [sys.executable, "-m", "fixedgain", *argv], input=b"1.0\n2.0\n",
        stderr=subprocess.PIPE, timeout=60, env=_module_env(None),
        preexec_fn=lambda: os.close(1),
    )
    assert (proc.returncode, proc.stderr) == (2, b"error: standard output is closed\n")


def test_filter_stdin_lines_end_only_at_line_feed_or_return():
    proc = _run_module(["filter", "--order", "1", "--pole", "0.5", "--input", "-"],
                       stdin=b"n,value\n0,1.0\x0c1,2.0\n")
    assert proc.returncode == 4
    assert proc.stdout == b""
    assert proc.stderr == b"error: row 2: expected 1 or 2 columns, got 3\n"


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("text", [b"1.0\n2.0\n3.0\n", b"n,value\n0,1.0\n1,2.0\n2,3.0\n"],
                         ids=["headerless", "header-first"])
def test_filter_drops_a_leading_byte_order_mark(tmp_path, source, text):
    def run(data):
        argv = ["filter", "--order", "1", "--pole", "0.5", "--input"]
        if source == "stdin":
            return _run_module([*argv, "-"], stdin=data)
        path = tmp_path / "samples.csv"
        path.write_bytes(data)
        return _run_module([*argv, str(path)])

    plain, marked = run(text), run(b"\xef\xbb\xbf" + text)
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert len(plain.stdout.splitlines()) == 4  # the header and all three samples
    assert (marked.returncode, marked.stdout, marked.stderr) == (0, plain.stdout, b"")
    # Only a mark that opens the input is dropped; one further on is data.
    inner = run(text + b"\xef\xbb\xbf4.0\n")
    assert inner.returncode == 4 and inner.stdout == b""


def test_filter_stdin_is_strict_utf8_whatever_the_locale():
    argv = ["filter", "--order", "1", "--pole", "0.5", "--input", "-"]
    proc = _run_module(argv, stdin=b"\xff\n1.0\n2.0\n", env={"LC_ALL": "C"})
    assert proc.returncode == 4
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: cannot read '-': 'utf-8' codec can't decode byte 0xff")
    # A stdin decoding named by the environment does not apply to the input.
    plain = _run_module(argv, stdin=b"1.0\n2.0\n3.0\n")
    marked = _run_module(argv, stdin=b"\xef\xbb\xbf1.0\n2.0\n3.0\n",
                         env={"PYTHONIOENCODING": "latin-1"})
    assert (plain.returncode, plain.stderr) == (0, b"")
    assert plain.stdout.splitlines()[1] == b"0,1.0"
    assert (marked.returncode, marked.stdout, marked.stderr) == (0, plain.stdout, b"")


def test_filter_label_stdout_cannot_encode_is_input_error(tmp_path):
    path = tmp_path / "samples.csv"
    path.write_bytes("n,value\n0,1.0\né,2.0\n".encode())
    argv = ["filter", "--order", "1", "--pole", "0.5", "--input", str(path)]
    proc = _run_module(argv, env={"PYTHONIOENCODING": "ascii"})
    assert (proc.returncode, proc.stdout) == (4, b"")
    assert proc.stderr == b"error: row 3: label '\\xe9' cannot be written to standard output (ascii)\n"
    # The same label is printed as read where stdout can encode it.
    proc = _run_module(argv, env={"PYTHONIOENCODING": "utf-8"})
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout.decode() == "n,y\n0,1.0\né,1.5\n"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_filter_into_a_closed_pipe_exits_141_quietly(tmp_path, unbuffered):
    # Far more output than a pipe holds, so the child is still writing when
    # the reader goes away after the first line.
    path = tmp_path / "samples.csv"
    path.write_text("".join(f"{0.5 * n}\n" for n in range(16 * _BLOCK)))
    env = _module_env({"PYTHONUNBUFFERED": unbuffered})
    with subprocess.Popen(
        [sys.executable, "-m", "fixedgain", "filter", "--order", "3", "--pole", "0.7",
         "--input", str(path), "--emit", "state"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert proc.stdout.readline() == b"n,y,state0,state1,state2\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert (code, err) == (141, b"")
