"""Traced pass: per-layer time and counts, measured from outside the package.

The pass wraps the public functions of ``process``, ``design``, ``realize``,
``analyze`` and ``cli`` in every package module that looks them up, then
replays operations in-process.  Sweep operations run the library chain;
``stream`` and ``cli`` operations run ``cli.main`` with the command's
arguments, so the layer functions are called in the order ``cmd_filter`` and
``cmd_design`` call them.  Each wrapped call leaves one span in memory --
name, operation id, parent span, start, end, error class, and a work count
where there is one -- and the spans are written out when the pass ends.
Per-sample calls (``step``, ``extract_kinematic``, ...) run tens of thousands
of times per operation, so they are summed per operation instead.

Every operation is replayed twice, alternately: once with the wrappers
removed, once with them installed.  The outputs must be identical, and the
time ratio is the tracing overhead.  After the workload's own operations a
fixed probe set from the same seed -- one sweep round, one short file per
stream order plus one ``--emit state`` file, and the whole cli deck -- is
traced too, so that every layer is timed on every workload.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import fixedgain
from fixedgain.errors import FixedGainError

import chain
import oracle
import workloads

# attribute -> (defining module, span name)
LAYERS = {
    "ProcessModel": ("process", "process.model"),
    "design": ("design", "design.design"),
    "transfer_coefficients": ("realize", "realize.transfer"),
    "pcf_realization": ("realize", "realize.pcf"),
    "ocf_realization": ("realize", "realize.ocf"),
    "ccf_realization": ("realize", "realize.ccf"),
    "white_noise_gain": ("analyze", "analyze.wng"),
    "impulse_response": ("analyze", "analyze.impulse"),
    "flatness_profile": ("analyze", "analyze.flatness"),
    "frequency_grid": ("analyze", "analyze.freq"),
    "step_response": ("analyze", "analyze.step_response"),
    "lde_filter": ("analyze", "analyze.lde_filter"),
    "main": ("cli", "cli.main"),
    "cmd_design": ("cli", "cli.cmd_design"),
    "cmd_analyze": ("cli", "cli.cmd_analyze"),
    "cmd_filter": ("cli", "cli.cmd_filter"),
    "cmd_tables": ("cli", "cli.cmd_tables"),
    "design_document": ("cli", "cli.design_document"),
}
PER_SAMPLE = {
    "step": "realize.step",
    "extract_kinematic": "realize.extract_kinematic",
    "initialize_state": "realize.initialize_state",
    "read_output": "realize.read_output",
}
COUNTED = {"impulse_response": len, "lde_filter": len}
MODULES = ("fixedgain", "fixedgain.process", "fixedgain.design", "fixedgain.realize",
           "fixedgain.analyze", "fixedgain.cli")
PROBE_ROWS = {"position": 3_000, "state": 1_000}

NAME, OP, PARENT, START, END, ERROR, COUNT = range(7)


class Tracer:
    """Spans of the current pass; ``op`` is the id of the operation running."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        # (op, name, inside a library span) -> [calls, seconds]
        self.per_sample: dict[tuple, list] = defaultdict(lambda: [0, 0.0])

    def span(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            span = [name, self.op, self.stack[-1] if self.stack else None, 0.0, 0.0,
                    None, None]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                span[COUNT] = count(out)
            return out
        return traced

    def summed(self, name: str, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                nested = bool(self.stack) and not self.spans[self.stack[-1]][NAME].startswith("cli.")
                acc = self.per_sample[(self.op, name, nested)]
                acc[0] += 1
                acc[1] += time.perf_counter() - start
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace each traced function wherever a package module binds it."""
    modules = [importlib.import_module(name) for name in MODULES]
    wrappers = {}
    for attr, (origin, name) in LAYERS.items():
        original = getattr(importlib.import_module(f"fixedgain.{origin}"), attr)
        wrappers[attr] = original, tracer.span(name, original, COUNTED.get(attr))
    for attr, name in PER_SAMPLE.items():
        original = getattr(fixedgain.realize, attr)
        wrappers[attr] = original, tracer.summed(name, original)
    patched = []
    try:
        for module in modules:
            for attr, (original, wrapper) in wrappers.items():
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapper)
                    patched.append((module, attr, original))
        yield
    finally:
        for module, attr, original in patched:
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# replay

def prepare(op: dict, scratch: Path, slot: str) -> dict:
    """Write the op's input file and, for ``filter``, the transfer function
    ``lde_filter`` is timed with.  That transfer is the oracle's, read off
    ``ss_kin``, so a transfer failure cannot hide the direct-form kernel."""
    if op["kind"] == "sweep":
        return op
    op = dict(op)
    path = None
    if "values" in op:
        path = str(scratch / f"trace-{slot}.csv")
        workloads.write_samples(path, op["values"])
    op["argv"] = workloads.argv_for(op, path)
    if op["kind"].startswith("filter"):
        with contextlib.suppress(FixedGainError):
            ss = chain.design_spec(op["spec"]).ss_kin
            op["lde"] = oracle.transfer(*oracle.realization(
                ss.transition.data, ss.input_gain.col(0), ss.output_row.row(0)))
    return op


def replay(op: dict) -> tuple[str, object]:
    """Run one operation in-process: its outcome and its raw output."""
    if op["kind"] == "sweep":
        try:
            result, *out = chain.sweep_op(op["spec"], fresh_realizations=True)
        except FixedGainError as exc:
            return f"typed:{type(exc).__name__}", None
        except Exception as exc:  # a crash of the program is an outcome, not a harness error
            return f"crash:{type(exc).__name__}", None
        return "ok", out
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = fixedgain.cli.main(op["argv"])
    except Exception as exc:  # as above
        return f"crash:{type(exc).__name__}", None
    if "lde" in op:
        fixedgain.lde_filter(*op["lde"], op["values"])
    return ("ok" if code == 0 else f"typed:exit{code}"), out.getvalue()


def workload_ops(workload: str, seed: int, deck: list[dict] | None):
    if workload == "sweep":
        for index in itertools.count():
            for spec in workloads.sweep_round(seed, index):
                yield {"kind": "sweep", "spec": spec}
    else:
        yield from itertools.cycle(deck)


def probe_ops(seed: int) -> list[dict]:
    ops = [{"kind": "sweep", "spec": spec} for spec in workloads.sweep_round(seed, 0)]
    deck = workloads.stream_deck(seed)
    for order in workloads.STREAM_ORDERS:
        op = next(op for op in deck if op["spec"]["order"] == order and op["emit"] == "position")
        ops.append(dict(op, values=op["values"][:PROBE_ROWS["position"]]))
    state = next(op for op in deck if op["emit"] == "state")
    ops.append(dict(state, values=state["values"][:PROBE_ROWS["state"]]))
    return ops + workloads.cli_deck(seed)


def run(workload: str, seed: int, count: int, deck: list[dict] | None,
        import_ms: float, spans_path: Path, scratch: Path):
    """The traced pass over the workload's first ``count`` operations;
    returns what ``run.emit`` prints."""
    tracer = Tracer()
    meta: list[dict] = []
    outcomes = Counter()
    plain = traced = 0.0
    prepared: dict[int, dict] = {}
    for position, op in enumerate(itertools.islice(workload_ops(workload, seed, deck), count)):
        if deck:
            slot = position % len(deck)
            if slot not in prepared:
                prepared[slot] = prepare(op, scratch, str(slot))
            op = prepared[slot]
        start = time.perf_counter()
        _, want = replay(op)
        plain += time.perf_counter() - start
        tracer.op = len(meta)
        meta.append({"kind": op["kind"], "spec": op.get("spec"), "probe": False})
        with installed(tracer):
            start = time.perf_counter()
            outcome, got = replay(op)
            traced += time.perf_counter() - start
        if repr(got) != repr(want):
            outcome = "wrong:traced-output-differs"
        outcomes[outcome] += 1
    with installed(tracer):
        for i, op in enumerate(probe_ops(seed)):
            tracer.op = len(meta)
            meta.append({"kind": op["kind"], "spec": op.get("spec"), "probe": True})
            replay(prepare(op, scratch, f"probe{i}"))

    metrics = layer_metrics(tracer, meta)
    metrics["cli.import_ms"] = import_ms
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    write_spans(tracer, spans_path)
    attempted = sum(outcomes.values())
    detail = {"workload": workload, "seed": seed, "ops": attempted,
              "probe_ops": len(meta) - attempted, "outcomes": dict(sorted(outcomes.items())),
              "untraced_s": plain, "traced_s": traced, "spans": len(tracer.spans),
              "spans_file": spans_path.name}
    return attempted, attempted - outcomes["ok"], metrics, "per_layer", detail


# ---------------------------------------------------------------------------
# per-layer figures

def _ms(values) -> float:
    values = list(values)
    return 1e3 * statistics.median(values) if values else float("nan")


def _p95_ms(values) -> float:
    values = list(values)
    if len(values) < 2:
        return float("nan")
    return 1e3 * statistics.quantiles(values, n=20, method="inclusive")[18]


def layer_metrics(tracer: Tracer, meta: list[dict]) -> dict:
    """Per-layer figures.  Each is taken over the workload's own operations
    when they reach that layer, and over the probe operations otherwise."""
    spans = tracer.spans
    own = {op for op, m in enumerate(meta) if not m["probe"]}
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(i)

    def scoped(items, op_of):
        items = list(items)
        mine = [x for x in items if op_of(x) in own]
        return mine or items

    def duration(i):
        return spans[i][END] - spans[i][START]

    def named(name, sweep_only=False):
        return scoped((i for i, s in enumerate(spans) if s[NAME] == name
                       and (not sweep_only or meta[s[OP]]["kind"] == "sweep")),
                      lambda i: spans[i][OP])

    def failures(prefix, classes):
        top = scoped((s for s in spans if s[NAME].startswith(prefix) and (
            s[PARENT] is None or not spans[s[PARENT]][NAME].startswith(prefix))),
            lambda s: s[OP])
        counts = Counter(s[ERROR] if s[ERROR] in classes else "other"
                         for s in top if s[ERROR])
        return {f"{prefix}fail.{c}": counts[c] for c in (*classes, "other")}

    out = {
        "process.model_ms": _ms(map(duration, named("process.model"))),
        "design.design_ms": _ms(map(duration, named("design.design"))),
        **failures("design.", ("Unobservable",)),
        **failures("analyze.", ("PoleOnUnitCircle", "NonConvergent")),
    }

    # Transfer on a fresh design, realizations on a second fresh one: only the
    # sweep chain calls them that way (design_document hits the caches).
    transfer = named("realize.transfer", sweep_only=True)
    out["realize.transfer_ms"] = _ms(duration(i) for i in transfer if not spans[i][ERROR])
    out["realize.transfer.ccf_fallbacks"] = sum(
        any(spans[c][NAME] == "realize.ccf" for c in children[i]) for i in transfer)
    out["realize.transfer.fail"] = sum(bool(spans[i][ERROR]) for i in transfer)
    for form in chain.FORMS:
        calls = [i for i in named(f"realize.{form}", sweep_only=True)
                 if spans[i][PARENT] is None]
        out[f"realize.{form}_ms"] = _ms(map(duration, calls))
        out[f"realize.{form}.certified_frac"] = (
            sum(not spans[i][ERROR] for i in calls) / len(calls) if calls else float("nan"))

    wng = [i for i in named("analyze.wng") if not spans[i][ERROR]]
    out["analyze.wng_ms"] = _ms(map(duration, wng))
    out["analyze.wng_p95_ms"] = _p95_ms(map(duration, wng))
    samples = Counter()
    for i in wng:
        samples[spans[i][OP]] += sum(spans[c][COUNT] or 0 for c in children[i])
    out["analyze.wng.impulse_samples"] = (
        statistics.fmean(samples.values()) if samples else float("nan"))
    out["analyze.flatness_ms"] = _ms(duration(i) for i in named("analyze.flatness")
                                     if not spans[i][ERROR])
    out["analyze.freq_ms"] = _ms(duration(i) for i in named("analyze.freq")
                                 if not spans[i][ERROR])

    order_of = {op: m["spec"]["order"] for op, m in enumerate(meta)
                if m["kind"].startswith("filter")}
    per_sample = tracer.per_sample.items()
    for k in workloads.STREAM_ORDERS:
        steps = scoped(((key, acc) for key, acc in per_sample
                        if key[1] == "realize.step" and order_of.get(key[0]) == k),
                       lambda item: item[0][0])
        out[f"realize.run_samples_per_s.K{k}"] = _rate(acc for _, acc in steps)
        lde = scoped((i for i, span in enumerate(spans) if span[NAME] == "analyze.lde_filter"
                      and order_of.get(span[OP]) == k), lambda i: spans[i][OP])
        out[f"analyze.lde_filter_samples_per_s.K{k}"] = _rate(
            (spans[i][COUNT], duration(i)) for i in lde)
    extract = scoped(((key, acc) for key, acc in per_sample
                      if key[1] == "realize.extract_kinematic"), lambda item: item[0][0])
    out["realize.extract_kinematic_per_s"] = _rate(acc for _, acc in extract)

    # cli.main minus the library spans and per-sample calls directly under it.
    outside = Counter()
    for (op, _, nested), (_, secs) in per_sample:
        if not nested:
            outside[op] += secs
    cli_self = []
    for i in named("cli.main"):
        library = 0.0
        stack = list(children[i])
        while stack:
            c = stack.pop()
            if spans[c][NAME].startswith("cli."):
                stack.extend(children[c])
            else:
                library += duration(c)
        cli_self.append(duration(i) - library - outside[spans[i][OP]])
    out["cli.self_ms"] = _ms(cli_self)
    out["cli.design_document_ms"] = _ms(
        duration(i) - sum(duration(c) for c in children[i])
        for i in named("cli.design_document"))
    return out


def _rate(pairs) -> float:
    """Work per second summed over (work, seconds) pairs."""
    work = secs = 0.0
    for count, seconds in pairs:
        work += count
        secs += seconds
    return work / secs if secs > 0 else float("nan")


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(
                ("name", "op", "parent", "start", "end", "error", "count"), span))) + "\n")
        for (op, name, nested), (calls, secs) in sorted(
                tracer.per_sample.items(), key=lambda item: (item[0][0], item[0][1])):
            fh.write(json.dumps({"name": name, "op": op, "nested": nested,
                                 "calls": calls, "seconds": secs}) + "\n")
