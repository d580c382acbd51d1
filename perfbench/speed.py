"""Reference speed: how fast this machine runs Python right now.

On a shared VM the same code can run at two speeds about a factor two apart,
switching on its own every second or so or staying slow for minutes.  CPU
time slows just as wall time does, so no clock avoids it.  The benchmark
therefore times a reference next to every measurement, on the same CPU, and
rescales the measurement to the speed at which the reference takes its time
at reference speed:

    time at reference speed = measured time * (reference_s / reference time now) ** elasticity

A change to the program cannot move the reference, so the ratio is still the
program's own; only the machine's state cancels.

Two references: a fixed pure-Python kernel -- small dense matrix-vector
products, the kind of work ``realize.step`` does -- for computation, and
START_ARGV, a fresh interpreter importing the standard-library modules the
package's command line uses, for measurements that are mostly interpreter
start-up.  The two speeds do not scale all code alike (start-up slows by
about 1.5x where the kernel slows by 2x); the elasticity says how the
measured code scales with its reference.
"""

from __future__ import annotations

import time

REFERENCE_S = 2.0e-3    # the kernel's time on the 2-core VM at its fast speed
START_REFERENCE_S = 0.080   # START_ARGV's time on the 2-core VM at its fast speed
START_ARGV = ("-c", "import argparse, cmath, csv, dataclasses, enum, json, typing")


ROUNDS = 400
SHORT_ROUNDS = 100      # short enough that the child sharing the CPU seldom cuts in


def _kernel(rounds: int = ROUNDS) -> list[float]:
    a = [[0.1 * (i + j) for j in range(6)] for i in range(6)]
    v = [1.0] * 6
    for _ in range(rounds):
        v = [sum(row[j] * v[j] for j in range(6)) * 0.1 for row in a]
    return v


def kernel_once(rounds: int = ROUNDS) -> float:
    """One timing of the kernel, scaled to ROUNDS rounds."""
    start = time.perf_counter()
    _kernel(rounds)
    return (time.perf_counter() - start) * ROUNDS / rounds


def kernel_short() -> float:
    """Lesser of two back-to-back timings of a SHORT_ROUNDS kernel, scaled
    to ROUNDS rounds; the first warms the caches another process cooled."""
    return min(kernel_once(SHORT_ROUNDS) for _ in range(2))


def kernel_seconds() -> float:
    """Least of three back-to-back timings of the kernel."""
    return min(kernel_once() for _ in range(3))


def scale(reference: float, reference_s: float = REFERENCE_S,
          elasticity: float = 1.0) -> float:
    """Factor that rescales a time measured next to ``reference``, a timing
    of a reference that takes ``reference_s`` at reference speed, for code
    whose time varies as the reference's time to the power ``elasticity``."""
    return (reference_s / reference) ** elasticity
