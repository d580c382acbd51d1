"""Package surface: the exported names, the docstring example, the
stdlib-only import rule, the modules the CLI leaves out at start-up, the
size of each module's token stream, the typed refusal of a number past
the double range, of a value that is not a number and of a record or list
that is not one at every entry point, realize's independence of design, and
the printed sums added left to right on every interpreter."""

import ast
import contextlib
import doctest
import glob
import io
import json
import math
import os
import subprocess
import sys
import tokenize

import pytest

import fixedgain
import fixedgain._samples
import fixedgain.cli
import fixedgain.realize
from fixedgain.design import _scaled_gains, _stirling
from fixedgain.errors import (
    DerivativeIndexOutOfRange,
    DimensionMismatch,
    FixedGainError,
    NonFiniteValue,
    OrderOutOfRange,
)
from fixedgain.poly import from_roots

PUBLIC_NAMES = (
    "DesignResult", "FilterState", "Form", "GainVectors", "Matrix", "ObserverSpec",
    "Polynomial", "ProcessModel", "StateSpaceModel", "ccf_realization",
    "companion_matrix", "design", "errors", "extract_kinematic", "flatness_check",
    "flatness_profile", "flatness_targets", "frequency_grid", "frequency_response",
    "from_roots", "impulse_response", "initialize_state", "lde_filter",
    "memory_to_pole", "ocf_realization", "optimal_lag_k2", "pcf_realization",
    "pole_to_memory", "ramp_error", "read_output", "run", "steady_state_step",
    "step", "step_response", "transfer_coefficients", "white_noise_gain",
)

# Closed forms and float routes that are test oracles in conftest (the last
# two, which the design document's placement gap replaced), a deleted stack
# builder and names used only inside the package (companion_column and
# pcf_transform live in fixedgain.realize, where the realizations and the
# design document build them on request): none of them is package surface.
REMOVED_NAMES = (
    "closed_form_gains", "controllability_matrix", "observability_matrix",
    "pcf_gain", "second_order_transfer", "white_noise_gain_k2",
    "companion_column", "pcf_transform", "placement_residual", "realized_char_poly",
)


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(fixedgain.__all__) == sorted(PUBLIC_NAMES)
    assert len(set(fixedgain.__all__)) == len(fixedgain.__all__)
    for name in fixedgain.__all__:
        assert getattr(fixedgain, name) is not None, name
    for name in REMOVED_NAMES:
        assert not hasattr(fixedgain, name), name


def test_package_docstring_example_runs():
    result = doctest.testmod(fixedgain, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0


def _modules_loaded_by(statement):
    # A fresh interpreter, so modules pytest already loaded do not hide any.
    package_root = os.path.dirname(os.path.dirname(fixedgain.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = (f"import sys; before = set(sys.modules); {statement}; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path}, check=True)
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def test_cli_imports_only_the_standard_library():
    loaded = _modules_loaded_by("import fixedgain.cli")
    assert "fixedgain.cli" in loaded
    outside = [name for name in loaded if name.partition(".")[0] != "fixedgain"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_cli_start_up_leaves_out_the_heavy_modules():
    # Modules the bare interpreter already had (some site hooks load typing,
    # for one) are not counted: only what importing the CLI adds.
    heavy = {"dataclasses", "inspect", "typing", "json", "csv", "array", "fixedgain._samples",
             "argparse", "gettext"}
    assert heavy.isdisjoint(_modules_loaded_by("import fixedgain.cli"))
    # Nor does a command, run or refused as a usage error, load argparse or the
    # translation machinery argparse would look its messages up in.
    for argv in (["analyze", "--order", "2", "--pole", "0.5", "--wng"],
                 ["analyze", "--order", "2", "--pole", "0.5"]):
        loaded = _modules_loaded_by(f"import fixedgain.cli; fixedgain.cli.main({argv!r})")
        assert {"argparse", "gettext", "locale"}.isdisjoint(loaded), argv
    # The design command imports json itself and still prints a valid document;
    # the filter command imports the sample reader, whose error the CLI names.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert fixedgain.cli.main(["design", "--order", "2", "--pole", "0.5"]) == 0
    assert json.loads(out.getvalue())["design"]["pole"] == 0.5
    assert fixedgain.cli.InputDataError is fixedgain.errors.InputDataError
    assert fixedgain._samples.InputDataError is fixedgain.errors.InputDataError


# CPython 3.11's parser doubles its token array, and allocates a record for
# every new slot, once a module passes 4,096 tokens: compiling such a module
# from source (as a start with PYTHONDONTWRITEBYTECODE does) peaks about
# 0.23 MB higher.  Counted as that parser sees the source: tokenize's stream
# without comments and non-logical newlines.  Other versions tokenize
# differently (f-strings from 3.12 on), so the bound is checked on 3.11 only.
PARSER_TOKEN_STEP = 4096


def _parser_tokens(path):
    with open(path, encoding="utf-8") as fh:
        return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
                   for tok in tokenize.generate_tokens(fh.readline))


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the token step was measured on CPython 3.11's parser")
def test_every_module_stays_under_the_parser_token_step():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(fixedgain.__file__), "*.py")))
    counts = {os.path.basename(path): _parser_tokens(path) for path in paths}
    assert "cli.py" in counts
    assert max(counts.values()) < PARSER_TOKEN_STEP, counts


# An int past the double range: float() and complex() raise OverflowError on
# it, which every entry point turns into a typed error, NonFiniteValue where
# its docstring speaks of the double range.
BIG = 10**400
_MODEL = fixedgain.ProcessModel(2, 1.0)
_RESULT = fixedgain.design(fixedgain.ObserverSpec.repeated(_MODEL, 0.5))
_NUM, _DEN = fixedgain.transfer_coefficients(_RESULT)


@pytest.mark.parametrize("call, error", [
    (lambda: fixedgain.impulse_response(_NUM, _DEN, tol=BIG), FixedGainError),
    (lambda: fixedgain.ProcessModel(2, BIG), NonFiniteValue),
    (lambda: fixedgain.ProcessModel(2, -BIG), NonFiniteValue),
    (lambda: fixedgain.ObserverSpec(_MODEL, (0.5, 0.5), lag=BIG), FixedGainError),
    (lambda: fixedgain.ObserverSpec(_MODEL, (BIG, 0.5)), FixedGainError),
    (lambda: fixedgain.ObserverSpec.repeated(_MODEL, BIG), FixedGainError),
    (lambda: fixedgain.memory_to_pole(BIG), FixedGainError),
    (lambda: fixedgain.pole_to_memory(BIG), FixedGainError),
    (lambda: fixedgain.optimal_lag_k2(BIG), FixedGainError),
    (lambda: fixedgain.flatness_targets(0, BIG, 1.0, 3), NonFiniteValue),
    (lambda: fixedgain.ramp_error(_NUM, _DEN, BIG, 1.0, 3), NonFiniteValue),
    (lambda: _MODEL.transition(BIG), NonFiniteValue),
    (lambda: _MODEL.output_row(BIG), NonFiniteValue),
    (lambda: fixedgain.initialize_state(_RESULT.ss_kin, BIG), FixedGainError),
    (lambda: fixedgain.Polynomial([1.0, BIG]), FixedGainError),
    (lambda: fixedgain.Matrix([[1.0, BIG]]), FixedGainError),
    (lambda: fixedgain.companion_matrix([BIG, 0.5]), FixedGainError),
    (lambda: fixedgain.from_roots([BIG]), NonFiniteValue),
    (lambda: fixedgain.white_noise_gain([BIG], _DEN), NonFiniteValue),
    (lambda: fixedgain.frequency_grid([1.0], [1.0, BIG]), NonFiniteValue),
    (lambda: fixedgain.frequency_response(_NUM, _DEN, 10**5000), NonFiniteValue),
], ids=["impulse-tol", "ts", "negative-ts", "lag", "pole", "repeated-pole", "memory",
        "pole-to-memory", "optimal-lag", "flatness-lag", "ramp-lag", "transition",
        "output-row", "first-sample", "polynomial", "matrix", "companion", "roots",
        "noise-gain-coefficient", "grid-coefficient", "omega-past-int-str-limit"])
def test_a_number_past_the_double_range_raises_a_typed_error(call, error):
    with pytest.raises(FixedGainError, match="past the double range") as caught:
        call()
    assert type(caught.value) is error


# The same entry points given what float() or complex() refuses: a str, None,
# or a complex where a real is needed.  Each raises FixedGainError naming the
# parameter, as does a list of numbers that is None.
_NUMBER_SITES = [
    ("impulse-tol", lambda v: fixedgain.impulse_response(_NUM, _DEN, tol=v), float),
    ("ts", lambda v: fixedgain.ProcessModel(2, v), float),
    ("lag", lambda v: fixedgain.ObserverSpec(_MODEL, (0.5, 0.5), lag=v), float),
    ("pole", lambda v: fixedgain.ObserverSpec(_MODEL, (v, 0.5)), complex),
    ("repeated-pole", lambda v: fixedgain.ObserverSpec.repeated(_MODEL, v), float),
    ("memory", fixedgain.memory_to_pole, float),
    ("pole-to-memory", fixedgain.pole_to_memory, float),
    ("optimal-lag", fixedgain.optimal_lag_k2, float),
    ("flatness-lag", lambda v: fixedgain.flatness_targets(0, v, 1.0, 3), float),
    ("ramp-lag", lambda v: fixedgain.ramp_error(_NUM, _DEN, v, 1.0, 3), float),
    ("transition", _MODEL.transition, float),
    ("output-row", _MODEL.output_row, float),
    ("first-sample", lambda v: fixedgain.initialize_state(_RESULT.ss_kin, v), float),
    ("polynomial", lambda v: fixedgain.Polynomial([1.0, v]), float),
    ("matrix", lambda v: fixedgain.Matrix([[1.0, v]]), float),
    ("companion", lambda v: fixedgain.companion_matrix([v, 0.5]), float),
    ("roots", lambda v: fixedgain.from_roots([v]), complex),
    ("noise-gain-coefficient", lambda v: fixedgain.white_noise_gain([v], _DEN), float),
    ("grid-coefficient", lambda v: fixedgain.frequency_grid([1.0], [1.0, v]), float),
    ("omega", lambda v: fixedgain.frequency_response(_NUM, _DEN, v), complex),
]
_LIST_SITES = [
    ("polynomial-list-none", fixedgain.Polynomial),
    ("noise-gain-list-none", lambda v: fixedgain.white_noise_gain(v, _DEN)),
    ("poles-list-none", lambda v: fixedgain.ObserverSpec(_MODEL, v)),
    ("roots-list-none", fixedgain.from_roots),
]


@pytest.mark.parametrize("call, value", [
    pytest.param(call, value, id=f"{name}-{label}")
    for name, call, kind in _NUMBER_SITES
    for label, value in (("str", "a"), ("none", None), ("complex", 1j))
    if kind is float or label != "complex"
] + [pytest.param(call, None, id=name) for name, call in _LIST_SITES])
def test_a_value_that_is_not_a_number_raises_a_typed_error(call, value):
    with pytest.raises(FixedGainError, match="must be a number"):
        call(value)


def _state():
    return fixedgain.initialize_state(_RESULT.ss_kin, 1.0)


# A call given something that is not the record or the list it iterates:
# each raises FixedGainError naming what it needed.
@pytest.mark.parametrize("call, needed", [
    (lambda: fixedgain.Matrix(None), "Matrix needs iterable rows"),
    (lambda: fixedgain.run(_RESULT.ss_kin, _state(), None), "run needs iterable samples"),
    (lambda: fixedgain.design(None), "design needs an ObserverSpec"),
    (lambda: fixedgain.design(_MODEL), "design needs an ObserverSpec"),
    (lambda: fixedgain.transfer_coefficients(None), "transfer_coefficients needs a DesignResult"),
    (lambda: fixedgain.pcf_realization(None), "pcf_realization needs a DesignResult"),
    (lambda: fixedgain.ocf_realization(None), "ocf_realization needs a DesignResult"),
    (lambda: fixedgain.ccf_realization(_MODEL), "ccf_realization needs a DesignResult"),
], ids=["matrix-rows", "run-samples", "design", "design-of-a-model", "transfer", "pcf", "ocf",
        "ccf-of-a-model"])
def test_a_value_that_is_not_a_record_or_list_raises_a_typed_error(call, needed):
    with pytest.raises(FixedGainError, match=needed) as caught:
        call()
    assert type(caught.value) is FixedGainError


def test_run_stops_at_a_bad_sample_with_the_state_of_the_last_good_one():
    ss, state, twin = _RESULT.ss_kin, _state(), _state()
    fixedgain.run(ss, twin, [2.0, 3.0])
    with pytest.raises(FixedGainError, match="is not a number") as caught:
        fixedgain.run(ss, state, iter([2.0, 3.0, "a", 4.0]))
    assert type(caught.value) is FixedGainError
    assert repr(state.vector) == repr(twin.vector)


def test_realize_imports_nothing_from_design():
    # design builds on realize; an import back, even one inside a function
    # body, would make the modules a cycle.
    with open(fixedgain.realize.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            imported.add(module)
            imported.update(f"{module.rstrip('.')}.{alias.name}" for alias in node.names)
    assert ".errors" in imported  # the walk sees the module's imports
    assert not {name for name in imported if name.rpartition(".")[2] == "design"}, imported


# Designs whose sums CPython 3.12's compensated sum() rounds apart from
# adding left to right: the gains, the direct-form recursion, the dc series
# and the dense realizations' steps.  The package adds them left to
# right on every interpreter; this module imports no numpy, so every
# installed one runs it.
def _left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _dot(u, v):
    return _left_to_right([x * y for x, y in zip(u, v)])


@pytest.mark.parametrize("order, pole, lag", [(8, 0.8, 1.0), (7, 0.7, 0.5), (8, 0.3, 2.0)])
def test_the_printed_sums_add_left_to_right(order, pole, lag):
    poles = (pole,) * order
    a, s = from_roots([p - 1.0 for p in poles]).coeffs, _stirling(order)
    assert _scaled_gains(poles) == [
        _left_to_right([s[n][j + 1] * a[n] / math.factorial(n - 1)
                        for n in range(j + 1, order + 1)]) for j in range(order)]
    spec = fixedgain.ObserverSpec.repeated(fixedgain.ProcessModel(order, 1.0), pole, lag=lag)
    num, den = fixedgain.transfer_coefficients(fixedgain.design(spec))
    b, a = num.coeffs, den.coeffs
    assert fixedgain.steady_state_step(num, den) == _left_to_right(b) / _left_to_right(a)
    xs = [math.sin(0.3 * n) + 0.01 * n for n in range(40)]
    want, px, py = [], [0.0] * order, [0.0] * order  # most recent first
    for x in xs:
        y = b[0] * x
        for c, v in zip(b[1:], px):
            y += c * v
        for c, v in zip(a[1:], py):
            y -= c * v
        want.append(y)
        px, py = [x, *px[:-1]], [y, *py[:-1]]
    assert fixedgain.lde_filter(num, den, xs) == want
    result = fixedgain.design(spec)
    for ss in (result.ss_kin, fixedgain.pcf_realization(result)):
        state = fixedgain.initialize_state(ss, xs[0])
        w = [_dot(row, [xs[0]] + [0.0] * (order - 1)) for row in ss.form_from_kin.data]
        assert state.vector == w
        want = []
        for x in xs[1:]:
            w = [_dot(row, w) + h * x for row, (h,) in zip(ss.transition.data, ss.input_gain.data)]
            want.append(_dot(ss.output_row.data[0], w))
        assert fixedgain.run(ss, state, xs[1:]) == want
        assert fixedgain.extract_kinematic(ss, state) == tuple(
            _dot(row, w) for row in ss.kin_from_form.data)


# An int past the 4,300 digits the interpreter prints in decimal by default:
# a message that names it gives its sign and bit length instead.
HUGE = 10**5000


@pytest.mark.parametrize("call, error, shown", [
    (lambda: fixedgain.ProcessModel(HUGE, 1.0), OrderOutOfRange, "an int of 16610 bits"),
    (lambda: fixedgain.frequency_grid(_NUM, _DEN, points=-HUGE), DimensionMismatch,
     "a negative int of 16610 bits"),
    (lambda: fixedgain.ObserverSpec(_MODEL, (0.5, 0.5), deriv=HUGE), DerivativeIndexOutOfRange,
     "an int of 16610 bits"),
], ids=["order", "grid-points", "deriv"])
def test_an_int_too_long_to_print_raises_its_own_typed_error(call, error, shown):
    with pytest.raises(FixedGainError) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value).endswith(f"got {shown}")
