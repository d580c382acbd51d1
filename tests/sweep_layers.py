"""Time the sweep workload's library calls one layer at a time, on one or more source trees.

Replays the sweep specs of ``perfbench/workloads.py`` for a seed's rounds through
``perfbench/chain.py``'s ``sweep_op``, the benchmark's own call chain, with its eight
calls wrapped in ``time.perf_counter``: ``chain.design_spec`` (process model, observer
spec and ``design()``), then ``transfer_coefficients``, ``white_noise_gain``,
``flatness_profile``, the 1,024-point ``frequency_grid`` and the pcf, ocf and ccf
realizations, which the chain looks up on the package at call time (one that does not
certify is timed to its refusal, as the chain records it omitted).  Each operation
runs the whole chain ``--repeat`` times, and each call keeps its best time.  Only the
operations whose ``chain.outputs`` record ``perfbench/oracle.py`` passes (the sweep's
ok operations) are kept.  Prints, for each tree, the median microseconds per
operation of each layer and of their sum, over all ok operations and per order K, then
for each further tree its change from the first in percent.

An interpreter given as ``PYTHON`` runs with this checkout's ``src`` on ``PYTHONPATH``;
one given as ``PYTHON=SRC`` runs with the tree ``SRC`` there instead (a ``git archive``
copy of another revision, say).  Each tree runs in its own child process, ``--runs``
times, the trees taking turns; an operation keeps its best time over the runs.  The
oracle needs numpy and scipy under every interpreter given.  Otherwise standard library
only; ``perfbench/`` is imported, never written.

    python3.11 tests/sweep_layers.py --seed 1301 --rounds 8 python3.11=../parent/src python3.11
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench/ is not a package)

LAYERS = ("design", "transfer", "wng", "flatness", "grid", "pcf", "ocf", "ccf")
CALLS = ("transfer_coefficients", "white_noise_gain", "flatness_profile", "frequency_grid",
         "pcf_realization", "ocf_realization", "ccf_realization")


def _timed(best: list, i: int, call):
    """``call`` wrapped to keep its time in ``best[i]`` when it beats what is there."""
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            best[i] = min(best[i], time.perf_counter() - start)
    return wrapper


def child(seed: int, rounds: int, repeat: int) -> None:
    """Print {op key: [order, best seconds per layer]} for the ok operations, as JSON."""
    import fixedgain as fg
    from fixedgain import errors

    import chain
    import oracle

    best = [math.inf] * len(LAYERS)
    chain.design_spec = _timed(best, 0, chain.design_spec)
    for i, name in enumerate(CALLS, 1):
        setattr(fg, name, _timed(best, i, getattr(fg, name)))
    ops = {}
    for index in range(rounds):
        for j, spec in enumerate(workloads.sweep_round(seed, index)):
            best[:] = [math.inf] * len(LAYERS)
            try:
                for _ in range(repeat):
                    op_result = chain.sweep_op(spec)
            except errors.FixedGainError:
                continue
            if oracle.check_sweep({"spec": spec, **chain.outputs(op_result)}) is None:
                ops[f"{index}-{j}"] = [spec["order"], list(best)]
    json.dump(ops, sys.stdout)


def run_tree(interpreter: str, seed: int, rounds: int, repeat: int) -> dict:
    """The child's operations under ``interpreter``, ``python`` or ``python=SRC``."""
    python, _, src = interpreter.partition("=")
    env = {**os.environ, "PYTHONPATH": src or str(ROOT / "src")}
    proc = subprocess.run([python, __file__, "--child", str(seed), str(rounds), str(repeat)],
                          capture_output=True, env=env, check=True, timeout=3600)
    return json.loads(proc.stdout)


def medians(ops: dict) -> dict:
    """{row label: [median microseconds of each layer, of their sum]} over ``ops``, for
    all of them and for each order K."""
    groups = {"all": list(ops.values())}
    for order, best in groups["all"]:
        groups.setdefault(f"K={order}", []).append([order, best])
    table = {}
    for label in ["all"] + sorted(k for k in groups if k != "all"):
        columns = list(zip(*[best + [sum(best)] for _, best in groups[label]]))
        table[label] = [1e6 * statistics.median(c) for c in columns]
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("interpreters", nargs="+", metavar="PYTHON",
                        help="trees to time, the first the reference; "
                             "PYTHON=SRC runs PYTHON on the source tree SRC")
    parser.add_argument("--seed", type=int, default=1000, help="sweep seed (default 1000)")
    parser.add_argument("--rounds", type=int, default=8,
                        help="rounds 0..N-1 of 64 specs each (default 8)")
    parser.add_argument("--repeat", type=int, default=5,
                        help="chain runs per operation, best kept (default 5)")
    parser.add_argument("--runs", type=int, default=1,
                        help="child runs per tree, taking turns, best kept (default 1)")
    args = parser.parse_args()
    trees: dict = {python: {} for python in args.interpreters}
    for _ in range(args.runs):
        for python, ops in trees.items():
            for key, (order, best) in run_tree(python, args.seed, args.rounds,
                                               args.repeat).items():
                kept = ops.setdefault(key, [order, best])[1]
                kept[:] = map(min, kept, best)
    header = f"{'us per op':>9}" + "".join(f"{name:>10}" for name in LAYERS + ("sum",))
    reference = None
    for python, ops in trees.items():
        table = medians(ops)
        print(f"{python}: seed {args.seed}, {len(ops)} ok operations of"
              f" {args.rounds * workloads.ROUND}, best of {args.repeat * args.runs}")
        print(header)
        for label, row in table.items():
            print(f"{label:>9}" + "".join(f"{v:10.1f}" for v in row))
        if reference is None:
            reference = table
            continue
        print(f"{python} against {args.interpreters[0]}, percent")
        for label, row in table.items():
            if label in reference:
                print(f"{label:>9}" + "".join(f"{100.0 * (v / r - 1.0):+10.1f}"
                                              for v, r in zip(row, reference[label])))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*map(int, sys.argv[2:5]))
    else:
        sys.exit(main())
