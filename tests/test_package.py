"""Package surface: the docstring example and the stdlib-only import rule."""

import ast
import doctest
import os
import subprocess
import sys

import fixedgain


def test_package_docstring_example_runs():
    result = doctest.testmod(fixedgain, optionflags=doctest.ELLIPSIS)
    assert result.attempted > 0
    assert result.failed == 0


def test_cli_imports_only_the_standard_library():
    # A fresh interpreter, so modules pytest already loaded do not hide any.
    package_root = os.path.dirname(os.path.dirname(fixedgain.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    code = ("import sys; before = set(sys.modules); import fixedgain.cli; "
            "print(sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": path}, check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert "fixedgain.cli" in loaded
    outside = [name for name in loaded if name.partition(".")[0] != "fixedgain"
               and name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []
