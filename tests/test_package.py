"""Package surface: the exported names, the docstring example, the
stdlib-only import rule, the modules the CLI leaves out at start-up and the
size of each module's token stream."""

import ast
import contextlib
import doctest
import glob
import io
import json
import os
import subprocess
import sys
import tokenize

import pytest

import fixedgain
import fixedgain.cli

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
    heavy = {"dataclasses", "inspect", "typing", "json"}
    assert heavy.isdisjoint(_modules_loaded_by("import fixedgain.cli"))
    # The design command imports json itself and still prints a valid document.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert fixedgain.cli.main(["design", "--order", "2", "--pole", "0.5"]) == 0
    assert json.loads(out.getvalue())["design"]["pole"] == 0.5


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
