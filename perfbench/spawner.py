"""Starts the benchmark's children one at a time and reports how each ended.

Reads one JSON request per line on stdin -- [argv, stdout path, stderr path,
sample] -- and answers one JSON line: exit code, wall seconds from spawn to
reap, peak RSS in KiB from the child's own rusage, and the reference kernel
timings taken while the child ran.  Linux counts the resident set of the
process a child was forked from in the child's ru_maxrss, so children are
forked from this small process rather than from the benchmark, which holds
numpy and the results.

With ``sample`` true, this process times the reference kernel (speed.py)
every SAMPLE_EVERY seconds until the child exits.  It shares the child's CPU,
so each timing shows the machine's speed at that moment of the child's run;
the seconds the timings take are left out of the wall time.  A child that
ends before the first timing gets one timing just after it ends.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import sys
import time

import speed

SAMPLE_EVERY = 0.05


def wait(proc: subprocess.Popen, start: float, sample: bool):
    """Reap ``proc``: wait status, rusage, wall seconds and kernel timings."""
    kernels: list[float] = []
    stolen = 0.0
    if sample:
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY)[0]:
                begin = time.perf_counter()
                kernels.append(speed.kernel_short())
                stolen += time.perf_counter() - begin
        finally:
            os.close(pidfd)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start - stolen
    if sample and not kernels:
        kernels.append(speed.kernel_short())
    return status, usage, wall, kernels


def main() -> int:
    for line in sys.stdin:
        argv, out_path, err_path, sample = json.loads(line)
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            status, usage, wall, kernels = wait(proc, start, sample)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps([proc.returncode, wall, usage.ru_maxrss, kernels]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
