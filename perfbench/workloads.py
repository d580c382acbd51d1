"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the workload seed, so the same seed gives
the same specs, files and commands on every machine.  Sweep specs are drawn
per order K from a randomly shifted Kronecker sequence (u_n = frac(shift +
n * step) with a different irrational step per coordinate): every coordinate
still has the distribution the workloads name -- memory and ts log-uniform,
lag uniform, deriv uniform -- and only the shift depends on the seed, so the
mix of cheap and expensive designs, and of failing corners, is nearly the same
for every seed.  That keeps seed-to-seed spread out of the figures.
"""

from __future__ import annotations

import math
import random

ORDERS = range(1, 9)
PER_ORDER = 8                       # specs per K in one sweep round
ROUND = len(ORDERS) * PER_ORDER     # 64 specs
MEMORY = (1.0, 500.0)               # samples, log-uniform
TS = (1e-3, 10.0)                   # seconds, log-uniform
LAG = (-1.0, 3.0)                   # samples, uniform

STREAM_TS = 0.04                    # the README reference rate
# Files per deck by emit mode and order.  Row counts make a state file take
# about as long as a position file.  The median file falls among K = 2, 3
# and 5, which cost about the same per row, and the 95th percentile among the
# three K=8 files, never on the boundary between two groups.
STREAM_FILES = {"position": (2,) * 2 + (3,) * 5 + (5,) * 3 + (8,) * 2,
                "state": (2, 3, 5, 8)}
STREAM_ORDERS = sorted(set(STREAM_FILES["position"]))
STREAM_ROWS = {"position": 24_000, "state": 8_500}
STREAM_MEMORY = (2.0, 50.0)         # samples, log-uniform quantiles
STREAM_LAG = (-0.9, 2.9)

# Commands per deck by kind, each a multiple of 8 so that every kind meets
# every order K equally often.  The specs are the same for every seed: with
# eight per kind, a seeded draw would move the share of failing commands by
# several percent from seed to seed.  The seed moves order, signals and steps.
CLI_KINDS = {"design": 8, "wng": 8, "freq": 8, "flatness": 8, "impulse": 8,
             "step": 8, "filter": 8, "table1": 1, "table2": 1}
CLI_STATE_FILTERS = 3               # of the 8 filter commands, --emit state
CLI_SPEC_SEED = 0
CLI_FILTER_ROWS = 1_000


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# Fractional parts of sqrt(2), sqrt(3), sqrt(5), sqrt(7): one step per coordinate.
STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7))


def sweep_round(seed: int, index: int, namespace: str = "sweep") -> list[dict]:
    """Round ``index`` of the sweep specs: 64 distinct designs, eight per K."""
    shifts = random.Random(f"{namespace}-{seed}")
    specs = []
    for order in ORDERS:
        shift = [shifts.random() for _ in STEPS]
        for j in range(PER_ORDER):
            n = index * PER_ORDER + j
            u_mem, u_ts, u_lag, u_deriv = ((a + n * b) % 1.0 for a, b in zip(shift, STEPS))
            specs.append({
                "order": order,
                "memory": _log_uniform(*MEMORY, u_mem),
                "ts": _log_uniform(*TS, u_ts),
                "lag": LAG[0] + u_lag * (LAG[1] - LAG[0]),
                "deriv": int(u_deriv * order),
            })
    random.Random(f"{namespace}-{seed}-{index}").shuffle(specs)
    return specs


def design_flags(spec: dict) -> list[str]:
    """``fixedgain`` design flags for a spec, every number at full precision."""
    return [
        "--order", str(spec["order"]), "--ts", repr(spec["ts"]),
        "--memory", repr(spec["memory"]), "--lag", repr(spec["lag"]),
        "--deriv", str(spec["deriv"]),
    ]


def signal(rng: random.Random, order: int, rows: int) -> list[float]:
    """Noisy polynomial of degree order-1 over the file, amplitude about 1."""
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(order)]
    out = []
    for n in range(rows):
        t = n / rows
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * t + c
        out.append(acc + 0.05 * rng.gauss(0.0, 1.0))
    return out


def write_samples(path: str, values: list[float]) -> None:
    """Two-column ``n,value`` CSV with a header row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n,value\n")
        fh.writelines(f"{n},{v!r}\n" for n, v in enumerate(values))


def stream_deck(seed: int) -> list[dict]:
    """One deck of ``filter`` runs.  The files of one emit mode and order take
    memories at the fixed quantiles (j + 1/2) / n of the log-uniform range, so
    every seed files the same designs; the seed moves the fractional lag, the
    signal and the order of the files."""
    rng = random.Random(f"stream-{seed}")
    deck = []
    for emit, orders in STREAM_FILES.items():
        for order in sorted(set(orders)):
            count = orders.count(order)
            lags = rng.sample(range(count), count)
            for j in range(count):
                spec = {
                    "order": order,
                    "memory": _log_uniform(*STREAM_MEMORY, (j + 0.5) / count),
                    "ts": STREAM_TS,
                    "lag": STREAM_LAG[0] + (lags[j] + rng.random()) / count
                    * (STREAM_LAG[1] - STREAM_LAG[0]),
                    "deriv": 0,
                }
                deck.append({"kind": "filter", "spec": spec, "emit": emit,
                             "values": signal(rng, order, STREAM_ROWS[emit])})
    rng.shuffle(deck)
    return deck


def cli_deck(seed: int) -> list[dict]:
    """One deck of short ``fixedgain`` commands; specs follow the sweep
    distribution, with every order K equally often within each kind."""
    rng = random.Random(f"cli-{seed}")
    deck = []
    for kind, count in CLI_KINDS.items():
        if kind.startswith("table"):
            deck.append({"kind": kind})
            continue
        per_order = count // len(ORDERS)
        specs = sorted(sweep_round(CLI_SPEC_SEED, 0, f"cli-{kind}"),
                       key=lambda spec: spec["order"])
        for n, spec in enumerate(specs[j] for j in range(len(specs))
                                 if j % PER_ORDER < per_order):
            op = {"kind": kind, "spec": spec}
            if kind == "filter":
                op["emit"] = "state" if n % 3 == 0 and n < 3 * CLI_STATE_FILTERS else "position"
                op["values"] = signal(rng, spec["order"], CLI_FILTER_ROWS)
            elif kind == "step":
                op["steps"] = rng.randint(50, 500)
            deck.append(op)
    rng.shuffle(deck)
    return deck


def argv_for(op: dict, input_path: str | None = None) -> list[str]:
    """The ``fixedgain`` arguments of a stream or cli operation."""
    kind = op["kind"]
    if kind in ("table1", "table2"):
        return ["tables", "--table", kind[-1]]
    flags = design_flags(op["spec"])
    if kind == "design":
        return ["design", *flags]
    if kind.startswith("filter"):
        return ["filter", *flags, "--input", input_path, "--emit", op["emit"]]
    if kind == "step":
        return ["analyze", *flags, "--step", str(op["steps"])]
    return ["analyze", *flags, f"--{kind}"]


def properties(op: dict) -> dict[str, bool]:
    """Input properties a later optimization may target."""
    spec = op.get("spec")
    if spec is None or op["kind"] in ("table1", "table2"):
        return {"memory>100": False, "K>=5": False, "ts<=1e-2": False,
                "emit=state": False}
    return {
        "memory>100": spec["memory"] > 100.0,
        "K>=5": spec["order"] >= 5,
        "ts<=1e-2": spec["ts"] <= 1e-2,
        "emit=state": op.get("emit") == "state",
    }
