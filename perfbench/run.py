"""fixedgain benchmark: one command for every workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Builds nothing: the program is the pure-Python package under ``src/``, run
with ``PYTHONPATH=src``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it (``report {...}``) breaks operations down by outcome and by input
property.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs
the traced pass (see tracing.py) and reports the per-layer metrics instead.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import oracle
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOADS = ("sweep", "stream", "cli")
ENTRY = {"sweep": "fixedgain", "stream": "fixedgain.cli", "cli": "fixedgain.cli"}
PASSES = 2
# Whole units in one pass per second of --seconds: a sweep round, or one whole
# stream or cli deck, takes about 1/UNITS_PER_S seconds on the 2-core VM in its
# fast state.  The
# count is fixed by --seconds alone, so that every run of one seed attempts the
# same operations however fast the machine runs.
UNITS_PER_S = {"sweep": 0.8, "stream": 0.2, "cli": 0.08}
SETUP_IMPORTS = 4       # fresh-interpreter imports before each pass
# Reference timed next to each workload's operations (see speed.py): its time
# at reference speed, and the elasticity of the operations' time to it.  cli
# commands are mostly interpreter start-up and slow as the reference start
# does.  The sweep chain and the stream filter slow by the kernel's slowdown
# to the power 0.82 and 0.76: on the 2-core VM, 1.79x and 1.69x where the
# kernel slows 2.0x (medians of 30 and 12 fast-state and 29 and 47 slow-state
# timings).
START_REFERENCED = ("cli",)
ELASTICITY = {"sweep": 0.82, "stream": 0.76}
# Outcomes that make a run incorrect rather than merely counted: output that
# differs between two runs of one operation.
FATAL = ("wrong:nondeterministic", "wrong:traced-output-differs")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs children through spawner.py, one at a time (see there for why)."""

    def __init__(self, env: dict, scratch: Path):
        self.scratch = scratch
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], sample: bool = False):
        """Exit code, wall seconds (spawn to reap), peak RSS in MiB, stdout,
        stderr, and the reference kernel timings taken while the child ran
        (none unless ``sample``)."""
        out_path, err_path = self.scratch / "child.out", self.scratch / "child.err"
        self.proc.stdin.write(json.dumps([argv, str(out_path), str(err_path), sample]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner exited")
        code, wall, rss_kib, kernels = json.loads(reply)
        return (code, wall, rss_kib / 1024.0, out_path.read_bytes(), err_path.read_bytes(),
                kernels)

    def start_reference(self) -> float:
        """Wall seconds of one start of the reference interpreter (speed.py)."""
        code, wall, *_ = self.run([sys.executable, *speed.START_ARGV])
        if code != 0:
            raise RuntimeError(f"reference start exited {code}")
        return wall

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def import_seconds(module: str, spawner: Spawner, count: int) -> list[dict]:
    """``count`` fresh interpreters importing ``module``, after one unmeasured
    import that fills the bytecode cache: one ``samples`` list of (seconds,
    [reference start just before, reference start just after]) for each."""
    argv = [sys.executable, "-c", f"import {module}"]

    def one() -> float:
        code, wall, *_ = spawner.run(argv)
        if code != 0:
            raise RuntimeError(f"import {module} exited {code}")
        return wall

    one()
    times = []
    before = spawner.start_reference()
    for _ in range(count):
        wall = one()
        after = spawner.start_reference()
        times.append({"samples": [(wall, [before, after])]})
        before = after
    return times


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile; NaN for an empty list."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# workloads (untraced)

def sweep_units(seed: int, spawner: Spawner, scratch: Path):
    """Unit ``index``: one child running sweep round ``index`` (64 specs)."""
    results = scratch / "sweep.marshal"

    def run_unit(index: int, check: bool) -> list[dict]:
        argv = [sys.executable, str(HERE / "sweep_worker.py"), str(seed), str(index),
                str(results)]
        code, _, rss, _, err, _ = spawner.run(argv)
        if code != 0:
            raise RuntimeError(f"sweep worker exited {code}:\n{err.decode(errors='replace')}")
        ops = []
        with open(results, "rb") as fh:
            for _ in range(workloads.ROUND):
                rec = marshal.load(fh)
                sample = (rec.pop("dt"), rec.pop("ref"))
                outcome = None
                if check and rec["status"] == "ok":
                    miss = oracle.check_sweep(rec)
                    outcome = "ok" if miss is None else f"wrong:{miss}"
                elif check:
                    outcome = f"{rec['status']}:{rec['error']}"
                ops.append({"kind": "sweep", "spec": rec["spec"], "unit": index,
                            "samples": [sample], "rss": [rss], "outcome": outcome,
                            "digest": hashlib.sha256(marshal.dumps(rec)).hexdigest()})
        return ops
    return run_unit


def error_class(argv: list[str]) -> str:
    """Class of the typed error a failed command raised, reproduced in-process."""
    args = cli.build_parser().parse_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args.func(args)
    except FixedGainError as exc:
        return type(exc).__name__
    return "unreproduced"


def check_output(op: dict, text: str, frozen: dict) -> str | None:
    kind = op["kind"]
    if kind == "design":
        return oracle.check_design(text, cli.verify_document)
    if kind in ("table1", "table2"):
        return oracle.check_table(int(kind[-1]), text, frozen)
    ss = chain.design_spec(op["spec"]).ss_kin
    A, B, C = oracle.realization(ss.transition.data, ss.input_gain.col(0),
                                 ss.output_row.row(0))
    if kind.startswith("filter"):
        return oracle.check_filter(text, op["values"], A, B, C, op["emit"])
    return oracle.check_analyze(kind, text, op["spec"], A, B, C)


def judge(op: dict, argv: list[str], code: int, out: bytes, err: bytes,
          frozen: dict) -> str:
    """ok, typed:<class>:exit<code>, wrong:<check> or crash:<what>."""
    if code == 0:
        try:
            text = out.decode("utf-8")
        except UnicodeDecodeError:
            return "wrong:encoding"
        miss = check_output(op, text, frozen)
        return "ok" if miss is None else f"wrong:{miss}"
    if code in (2, 3, 4) and b"Traceback" not in err:
        return f"typed:{error_class(argv[3:])}:exit{code}"
    return f"crash:exit{code}"


def command_units(deck: list[dict], spawner: Spawner, scratch: Path, frozen: dict,
                  start_referenced: bool):
    """Every unit is one pass over the whole deck, one child per command.
    Each command is timed against the reference kernel timed while it runs
    or, when ``start_referenced``, between two reference starts; the outputs
    are checked after the whole deck has run."""
    paths = []
    for i, op in enumerate(deck):
        path = None
        if "values" in op:
            path = str(scratch / f"input{i}.csv")
            workloads.write_samples(path, op["values"])
        paths.append(path)

    def run_unit(unit: int, check: bool) -> list[dict]:
        runs = []
        before = spawner.start_reference() if start_referenced else None
        for op, path in zip(deck, paths):
            argv = [sys.executable, "-m", "fixedgain", *workloads.argv_for(op, path)]
            if start_referenced:
                result = spawner.run(argv)
                after = spawner.start_reference()
                runs.append((argv, result[:5], [before, after]))
                before = after
            else:
                result = spawner.run(argv, sample=True)
                runs.append((argv, result[:5], result[5]))
        ops = []
        for op, (argv, (code, wall, rss, out, err), reference) in zip(deck, runs):
            ops.append({"kind": op["kind"], "spec": op.get("spec"), "emit": op.get("emit"),
                        "rows": len(op.get("values", ())), "unit": unit,
                        "samples": [(wall, reference)], "rss": [rss],
                        "outcome": judge(op, argv, code, out, err, frozen) if check else None,
                        "digest": hashlib.sha256(out + b"\0" + str(code).encode()).hexdigest()})
        return ops
    return run_unit


def in_passes(run_unit, units: int, entry: str, spawner: Spawner,
              workload: str) -> tuple[list, list]:
    """Closed loop, one operation at a time, in PASSES passes over the same
    ``units`` units.  The first pass checks every output; each later pass
    reruns the units, and must print the same bytes.  Fresh-interpreter
    imports of ``entry`` run before every pass.  The times come from
    ``at_reference_speed``."""
    setup: list[dict] = []
    ops: list[dict] = []
    for number in range(PASSES):
        setup += import_seconds(entry, spawner, SETUP_IMPORTS)
        if number == 0:
            ops = [op for unit in range(units) for op in run_unit(unit, True)]
            continue
        again = [op for unit in range(units) for op in run_unit(unit, False)]
        for op, rerun in zip(ops, again, strict=True):
            op["samples"] += rerun["samples"]
            op["rss"] += rerun["rss"]
            if rerun["digest"] != op["digest"]:
                op["outcome"] = "wrong:nondeterministic"
    if workload in START_REFERENCED:
        at_reference_speed(ops, speed.START_REFERENCE_S)
    else:
        at_reference_speed(ops, speed.REFERENCE_S, ELASTICITY[workload])
    at_reference_speed(setup, speed.START_REFERENCE_S)
    return ops, setup


def at_reference_speed(items: list[dict], reference_s: float,
                       elasticity: float = 1.0) -> None:
    """Set ``raw``, the least measured time of each item, and ``dt``, the
    median of its measured times, each rescaled by the mean factor
    ``speed.scale`` gives for the reference timings taken around or during
    it."""
    for item in items:
        samples = item["samples"]
        item["raw"] = min(wall for wall, _ in samples)
        item["dt"] = statistics.median(
            wall * statistics.fmean(speed.scale(r, reference_s, elasticity) for r in refs)
            for wall, refs in samples)


def deck_for(workload: str, seed: int) -> list[dict]:
    return workloads.cli_deck(seed) if workload == "cli" else workloads.stream_deck(seed)


# ---------------------------------------------------------------------------
# reporting

def end_to_end(ops: list[dict], setup: list[dict], key: str = "dt") -> dict:
    """The end-to-end metrics, from times at reference speed (``key="raw"``
    gives the same figures from the measured times)."""
    ok = [op for op in ops if op["outcome"] == "ok"]
    latencies = [op[key] for op in ok]
    units = {}
    for op in ops:
        count, busy = units.get(op["unit"], (0, 0.0))
        units[op["unit"]] = (count + (op["outcome"] == "ok"), busy + op[key])
    return {
        "setup_s": statistics.median(t[key] for t in setup),
        "ok_frac": len(ok) / len(ops),
        "ops_per_s": statistics.median(count / busy for count, busy in units.values()),
        "op_p50_ms": 1e3 * percentile(latencies, 50),
        "op_p95_ms": 1e3 * percentile(latencies, 95),
        "peak_rss_mib": statistics.median(rss for op in ops for rss in op["rss"]),
    }


def report(workload: str, seed: int, ops: list[dict]) -> dict:
    """Outcome counts by cause, input-property shares, and the derived figures
    the metrics do not carry."""
    outcomes = Counter(op["outcome"] for op in ops)
    props = Counter()
    for op in ops:
        props.update(k for k, v in workloads.properties(op).items() if v)
    out = {
        "workload": workload, "seed": seed, "ops": len(ops),
        "fail_frac": 1.0 - outcomes["ok"] / len(ops),
        "outcomes": dict(sorted(outcomes.items())),
        "property_share": {k: props[k] / len(ops) for k in
                           ("memory>100", "K>=5", "ts<=1e-2", "emit=state")},
    }
    if workload == "sweep":
        by_order = Counter(op["spec"]["order"] for op in ops if op["outcome"] == "ok")
        out["ok_by_order"] = {str(k): by_order[k] for k in workloads.ORDERS}
    if workload == "stream":
        for emit, name in (("position", "rows_per_s"), ("state", "state_rows_per_s")):
            mode = [op for op in ops if op["emit"] == emit]
            rows = sum(op["rows"] for op in mode if op["outcome"] == "ok")
            out[name] = rows / sum(op["dt"] for op in mode)
    return out


def declared(section: str) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares in ``section``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def emit(attempted: int, failed: int, metrics: dict, section: str, detail: dict) -> int:
    """Print the report line and the result line with every metric
    BENCHMARK.json declares in ``section``; exit code 1, with no result line,
    when one is missing or not finite.  Typed errors and wrong answers are
    counted in ``failed``; ``correct`` is false only for the outcomes in
    FATAL."""
    units = declared(section)
    bad = [name for name in units
           if not isinstance(metrics.get(name), (int, float)) or not math.isfinite(metrics[name])]
    print("report " + json.dumps(detail, sort_keys=True))
    if bad:
        print(f"error: metrics missing or not finite: {bad}", file=sys.stderr)
        return 1
    result = {
        "correct": not any(k.startswith(FATAL) for k in detail["outcomes"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fixedgain" / "__init__.py").is_file():
        print(f"error: no fixedgain package under {SRC}; run from the root of a "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global cli, chain, FixedGainError   # the package under test, importable only now
    import chain
    from fixedgain import cli
    from fixedgain.errors import FixedGainError

    # One CPU for the benchmark, its reference kernel and every child, so that
    # the kernel is timed on the CPU the operation runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = child_env()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=SCRATCH))
    units = max(1, round(args.seconds / PASSES * UNITS_PER_S[args.workload]))
    try:
        if args.trace:
            import tracing
            imports = PASSES * SETUP_IMPORTS
            spawner = Spawner(env, scratch)
            try:
                cli_import = import_seconds("fixedgain.cli", spawner, imports)
                bare = import_seconds("sys", spawner, imports)
            finally:
                spawner.close()
            at_reference_speed(cli_import + bare, speed.START_REFERENCE_S)
            import_ms = 1e3 * (statistics.median(t["dt"] for t in cli_import)
                               - statistics.median(t["dt"] for t in bare))
            deck = None if args.workload == "sweep" else deck_for(args.workload, args.seed)
            count = units * (workloads.ROUND if deck is None else len(deck))
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
            return emit(*tracing.run(args.workload, args.seed, count, deck,
                                     import_ms, spans, scratch))
        spawner = Spawner(env, scratch)
        try:
            if args.workload == "sweep":
                run_unit = sweep_units(args.seed, spawner, scratch)
            else:
                frozen = oracle.frozen_tables(ROOT / "tests" / "conftest.py")
                run_unit = command_units(deck_for(args.workload, args.seed), spawner,
                                         scratch, frozen, args.workload in START_REFERENCED)
            ops, setup = in_passes(run_unit, units, ENTRY[args.workload], spawner,
                                   args.workload)
        finally:
            spawner.close()
        detail = report(args.workload, args.seed, ops)
        detail["measured"] = end_to_end(ops, setup, key="raw")
        failed = sum(op["outcome"] != "ok" for op in ops)
        return emit(len(ops), failed, end_to_end(ops, setup), "end_to_end", detail)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()


if __name__ == "__main__":
    sys.exit(main())
