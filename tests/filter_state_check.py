"""Check ``fixedgain filter --emit state`` against the kinematic realization.

Runs ``python -m fixedgain filter`` over 50,000 samples of a noisy
polynomial (degree K - 1, amplitude about 1) at each sampling period given,
and checks every printed column against ``ss_kin`` stepped by
``initialize_state``/``step``/``extract_kinematic``: within 1e-11 of the
column's largest value.

    python tests/filter_state_check.py --order 8 --memory 500 --ts 1e-3 10
"""

import argparse
import os
import random
import subprocess
import sys
import tempfile

from conftest import column_gap, noisy_polynomial, stepped_columns
from fixedgain import ObserverSpec, ProcessModel, design, memory_to_pole

BOUND = 1e-11


def worst_gap(order: int, memory: float, ts: float, xs: list[float], path: str) -> float:
    argv = [sys.executable, "-m", "fixedgain", "filter", "--order", str(order),
            "--memory", repr(memory), "--ts", repr(ts), "--input", path, "--emit", "state"]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    got = [[float(v) for v in line.split(",")[1:]] for line in out.splitlines()[1:]]
    if len(got) != len(xs):
        sys.exit(f"ts = {ts!r}: {len(got)} rows printed, {len(xs)} expected")
    ss = design(ObserverSpec.repeated(ProcessModel(order, ts), memory_to_pole(memory))).ss_kin
    return column_gap(zip(*got), stepped_columns(ss, xs))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--order", type=int, default=8)
    parser.add_argument("--memory", type=float, default=500.0)
    parser.add_argument("--rows", type=int, default=50_000)
    parser.add_argument("--ts", type=float, nargs="+", default=[1e-3, 10.0])
    args = parser.parse_args()
    xs = noisy_polynomial(random.Random(args.order), args.order, args.rows)
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "samples.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{x!r}\n" for x in xs)
        gaps = {ts: worst_gap(args.order, args.memory, ts, xs, path) for ts in args.ts}
    for ts, gap in gaps.items():
        print(f"K = {args.order}, memory {args.memory:g}, ts = {ts:g}: worst column gap {gap:.2e}")
    if max(gaps.values()) > BOUND:
        sys.exit(f"a column is further than {BOUND:g} of its largest value from ss_kin's")


if __name__ == "__main__":
    main()
