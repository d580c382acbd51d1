"""Child process of the ``sweep`` workload.

Usage: python3 sweep_worker.py SEED ROUND OUT

Runs one round of sweep specs (see ``workloads.sweep_round``) and writes one
marshal record per operation to OUT.  The reference kernel (speed.py) is
timed before and after every GROUP operations; each record carries the two
timings around its group.  The process imports the package and
nothing else of weight, so its timings and peak RSS are the library's own;
the benchmark checks the records against its oracle after this process exits.
"""

from __future__ import annotations

import marshal
import sys
import time
import traceback

import chain
import speed
import workloads
from fixedgain.errors import FixedGainError

GROUP = 4


def main(argv: list[str]) -> int:
    seed, index, out_path = int(argv[1]), int(argv[2]), argv[3]
    group: list[dict] = []
    with open(out_path, "wb") as out:
        before = speed.kernel_seconds()
        for spec in workloads.sweep_round(seed, index):
            record = {"spec": spec}
            start = time.perf_counter()
            try:
                try:
                    op_result = chain.sweep_op(spec)
                finally:
                    record["dt"] = time.perf_counter() - start
            except FixedGainError as exc:
                record.update(status="typed", error=type(exc).__name__)
            except Exception as exc:  # an untyped error is a crash: record it, go on
                record.update(status="crash", error=type(exc).__name__,
                              detail=traceback.format_exc(limit=-3))
            else:
                record.update(status="ok", **chain.outputs(op_result))
            group.append(record)
            if len(group) == GROUP:
                after = speed.kernel_seconds()
                for rec in group:
                    rec["ref"] = [before, after]
                    marshal.dump(rec, out)
                group, before = [], after
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
