"""Package surface: the exported names, the docstring example, the
stdlib-only import rule and the modules the CLI leaves out at start-up."""

import ast
import contextlib
import doctest
import io
import json
import os
import subprocess
import sys

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
