"""Check that ``python -m fixedgain`` prints the same bytes under several interpreters,
or under one interpreter from two source trees.

Builds the cli deck and the first four stream files of each seed with
``perfbench/workloads.py`` (the benchmark's own inputs), runs every command
once under each interpreter given, and lists the commands whose exit code,
stdout or stderr differ between them.  An interpreter given as ``PYTHON``
runs with this checkout's ``src`` on ``PYTHONPATH``; one given as
``PYTHON=SRC`` runs with the tree ``SRC`` there instead, so a change can be
compared with another revision's bytes (a ``git archive`` copy of it, say).
Exits 1 when any command differs.  Standard library only.

    python tests/interpreter_digests.py --seed 1000 --seed 1004 \\
        python3.10 python3.11 python3.12 python3.13
    python3.11 tests/interpreter_digests.py --seed 4301 python3.11 python3.11=../parent/src
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

STREAM_FILES = 4


def commands(seed: int, scratch: Path) -> list[tuple[str, list[str]]]:
    """(kind, fixedgain arguments) of the seed's cli deck and first stream files,
    their sample files written under ``scratch``."""
    out = []
    ops = workloads.cli_deck(seed) + workloads.stream_deck(seed)[:STREAM_FILES]
    for i, op in enumerate(ops):
        path = None
        if "values" in op:
            path = str(scratch / f"{seed}-{i}.csv")
            workloads.write_samples(path, op["values"])
        out.append((op["kind"], workloads.argv_for(op, path)))
    return out


def digest(interpreter: str, argv: list[str]) -> str:
    """sha256 of the exit code, stdout and stderr of ``python -m fixedgain argv``,
    ``interpreter`` being ``python`` or ``python=SRC`` (see the module docstring)."""
    python, _, src = interpreter.partition("=")
    env = {**os.environ, "PYTHONPATH": src or str(ROOT / "src")}
    proc = subprocess.run([python, "-m", "fixedgain", *argv], capture_output=True, env=env,
                          timeout=600)
    parts = (str(proc.returncode).encode(), proc.stdout, proc.stderr)
    return hashlib.sha256(b"\0".join(parts)).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("interpreters", nargs="+", metavar="PYTHON",
                        help="interpreters to compare, the first one the reference; "
                             "PYTHON=SRC runs PYTHON on the source tree SRC")
    parser.add_argument("--seed", type=int, action="append", metavar="N",
                        help="workload seed (repeatable; default 1000)")
    args = parser.parse_args()
    failed = False
    with tempfile.TemporaryDirectory() as scratch:
        for seed in args.seed or [1000]:
            deck = commands(seed, Path(scratch))
            differ: Counter = Counter()
            for kind, argv in deck:
                digests = [digest(python, argv) for python in args.interpreters]
                if len(set(digests)) > 1:
                    differ[kind] += 1
                    failed = True
                    groups = [python for python, d in zip(args.interpreters, digests)
                              if d != digests[0]]
                    print(f"seed {seed}: {kind} differs under {', '.join(groups)}:"
                          f" {' '.join(argv)}")
            kinds = ", ".join(f"{kind} {n}" for kind, n in sorted(differ.items())) or "none"
            print(f"seed {seed}: {sum(differ.values())} of {len(deck)} commands differ"
                  f" ({kinds})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
