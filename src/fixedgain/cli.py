"""Command-line interface.

Four subcommands:

* ``design``  - run the pole placement and print the full design document
  (gains, realizations, transforms, transfer coefficients) as JSON.
* ``analyze`` - CSV response analyses of a design: white-noise gain,
  frequency response, step/impulse response, dc flatness.
* ``filter``  - run a design over a CSV of samples.
* ``tables``  - regenerate the two benchmark tables (second-order white-noise
  gain over memory length and lag; optimal lag and its gain).

CSV lines are formatted without ``csv.writer``: every number is printed with
``repr`` (``str`` of a float is its ``repr``), as ``csv.writer`` prints it, so
every value re-parses to the exact in-memory double, and runs are
byte-for-byte deterministic.  The only field that can need quoting, a
``filter`` input label, is encoded by ``csv.writer`` once, when it is read.

Exit codes: 0 success, 2 usage or parameter error (a standard output closed
at start included), 3 design infeasibility (unstable poles, unobservable or
uncontrollable pair), 4 malformed input data.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from collections.abc import Iterable, Sequence
from itertools import chain, islice

from . import analyze
from .design import DesignResult, ObserverSpec, design, memory_to_pole, pole_to_memory
from .errors import (
    FixedGainError,
    InputDataError,
    NonFiniteValue,
    Uncontrollable,
    Unobservable,
    UnstablePoles,
)
from .poly import from_roots
from .process import ProcessModel
from .realize import ccf_realization, ocf_realization, pcf_realization, transfer_coefficients
from . import realize


# ---------------------------------------------------------------------------
# argument parsing

def _pole_list(text: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok.strip()) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse pole list {text!r}") from exc


def _add_design_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, required=True, metavar="K",
                        help="filter order (number of tracked states)")
    parser.add_argument("--ts", type=float, default=1.0, metavar="SEC",
                        help="sampling period in seconds (default 1.0)")
    where = parser.add_mutually_exclusive_group(required=True)
    where.add_argument("--pole", type=float, metavar="P",
                       help="repeated real pole in [0, 1)")
    where.add_argument("--memory", type=float, metavar="L",
                       help="memory length in samples; sets the pole to exp(-1/L)")
    where.add_argument("--poles", type=_pole_list, metavar="LIST",
                       help="comma-separated pole list (complex ok, e.g. '0.5,0.4+0.2j,0.4-0.2j');"
                       " write a list that starts with '-' as --poles=-0.5,-0.5")
    parser.add_argument("--lag", type=float, default=0.0, metavar="Q",
                        help="read-out lag in samples (fractional/negative ok, default 0)")
    parser.add_argument("--deriv", type=int, default=0, metavar="D",
                        help="derivative order of the output (0 = position)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixedgain",
        description="Design and analyze fixed-gain tracking filters by pole placement.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="run a design, print the JSON document")
    _add_design_args(p_design)
    p_design.add_argument("--form", choices=["kin", "pcf", "ocf", "ccf", "all"],
                          default="all", help="which realizations to include (default all)")
    p_design.set_defaults(func=cmd_design)

    p_analyze = sub.add_parser("analyze", help="CSV response analyses of a design")
    _add_design_args(p_analyze)
    what = p_analyze.add_mutually_exclusive_group(required=True)
    what.add_argument("--wng", action="store_true", help="white-noise gain")
    what.add_argument("--freq", action="store_true",
                      help="frequency response on 1024 points over [0, 0.5] cycles/sample")
    what.add_argument("--step", type=int, metavar="N",
                      help="unit step from a matched start through sample N: the state"
                           " holds at (1, 0, ...), each row its read-out")
    what.add_argument("--impulse", action="store_true", help="impulse response until truncation")
    what.add_argument("--flatness", action="store_true",
                      help="dc derivative targets vs. measurements")
    p_analyze.set_defaults(func=cmd_analyze)

    p_filter = sub.add_parser("filter", help="run a design over CSV samples")
    _add_design_args(p_filter)
    p_filter.add_argument("--input", required=True, metavar="PATH",
                          help="CSV of samples: one column (value) or two (n,value); '-' for stdin")
    p_filter.add_argument("--emit", choices=["position", "state"], default="position",
                          help="emit the scalar output or the full kinematic state")
    p_filter.set_defaults(func=cmd_filter)

    p_tables = sub.add_parser("tables", help="regenerate the benchmark tables")
    p_tables.add_argument("--table", type=int, choices=[1, 2], required=True)
    p_tables.set_defaults(func=cmd_tables)

    return parser


def _design_from_args(args) -> DesignResult:
    model = ProcessModel(args.order, args.ts)
    if args.poles is not None:
        spec = ObserverSpec(model, args.poles, lag=args.lag, deriv=args.deriv)
    else:
        pole = args.pole if args.pole is not None else memory_to_pole(args.memory)
        spec = ObserverSpec.repeated(model, pole, lag=args.lag, deriv=args.deriv)
    return design(spec)


# ---------------------------------------------------------------------------
# document assembly

def _matrix_rows(m) -> list[list[float]]:
    return [list(row) for row in m.data]


def _realization_entry(ss) -> dict:
    return {
        "transition": _matrix_rows(ss.transition),
        "input_gain": list(ss.input_gain.col(0)),
        "output_row": list(ss.output_row.row(0)),
        "kin_from_form": _matrix_rows(ss.kin_from_form),
        "form_from_kin": _matrix_rows(ss.form_from_kin),
    }


def design_document(
    result: DesignResult,
    forms: Sequence[str] = ("kin", "pcf", "ocf", "ccf"),
) -> dict:
    """Serializable dictionary describing one design end to end.

    When more than one form is asked for, a realization whose transform fails
    certification is dropped from the document (its error message recorded
    under ``realizations_omitted``) instead of aborting the whole document.
    """
    spec = result.spec
    model = spec.process
    order = model.order
    ts = model.ts

    doc: dict = {
        "design": {
            "order": order,
            "sampling_period": ts,
            "poles": [[p.real, p.imag] for p in spec.poles],
            "lag": spec.lag,
            "derivative": spec.deriv,
        }
    }
    first = spec.poles[0]
    if first.imag == 0.0 and all(p == first for p in spec.poles):
        doc["design"]["pole"] = first.real
        if 0.0 < first.real < 1.0:
            doc["design"]["memory"] = pole_to_memory(first.real)

    kin = list(result.gains.kin.col(0))
    gains = {"kin": kin, "pcf": list(result.gains.pcf.col(0))}
    if order <= 3:
        gains["alpha"] = kin[0]
        if order >= 2:
            gains["beta"] = kin[1] * ts
        if order >= 3:
            gains["gamma"] = 2.0 * ts * ts * kin[2]
    doc["gains"] = gains

    doc["char_poly"] = list(result.char_poly.coeffs)
    doc["process_char_poly"] = list(model.char_poly.coeffs)
    doc["companion_columns"] = {
        "observer": list(realize.companion_column(result.char_poly)),
        "process": list(realize.companion_column(model.char_poly)),
    }

    builders = {
        "kin": lambda: result.ss_kin,
        "pcf": lambda: pcf_realization(result),
        "ocf": lambda: ocf_realization(result),
        "ccf": lambda: ccf_realization(result),
    }
    realizations = {}
    omitted = {}
    for form in forms:
        try:
            realizations[form] = builders[form]()
        except (Unobservable, Uncontrollable) as exc:
            if len(forms) == 1:
                raise
            omitted[form] = str(exc)
    pcf = realizations.get("pcf")  # its transform pair is the PCF pair
    kin_from_pcf, pcf_from_kin = ((pcf.kin_from_form, pcf.form_from_kin) if pcf is not None
                                  else realize.pcf_transform(model))
    doc["transforms"] = {
        "kin_from_pcf": _matrix_rows(kin_from_pcf),
        "pcf_from_kin": _matrix_rows(pcf_from_kin),
    }
    doc["realizations"] = {form: _realization_entry(ss) for form, ss in realizations.items()}
    if omitted:
        doc["realizations_omitted"] = omitted

    num, den = transfer_coefficients(result)
    doc["transfer"] = {"numerator": list(num.coeffs), "denominator": list(den.coeffs)}

    analysis = {"white_noise_gain": _noise_gain(result)}
    if order == 2 and doc["design"].get("pole", -1.0) >= 0.0:
        analysis["optimal_lag"] = analyze.optimal_lag_k2(doc["design"]["pole"])
    doc["analysis"] = analysis

    doc["verification"] = {"placement_residual": verify_document(doc)}
    return doc


def verify_document(doc: dict) -> float:
    """The placement gap of a parsed document, max |D_m - a_m| / a_m over the
    u^(K-m) coefficients, u = z - 1, of the exact denominator D(u) of the loop
    its ``design`` and ``gains.kin`` blocks describe and of ``from_roots([p - 1
    for p in poles])`` (positive for stable poles), exact and rounded once.
    :func:`design_document` states it by this function, so a document printed
    at full precision verifies to exactly the value it states."""
    try:
        spec = doc["design"]
        model = ProcessModel(spec["order"], spec["sampling_period"])
        output = model.output_row(spec["lag"], spec["derivative"]).row(0)
        poles = [complex(re, im) for re, im in spec["poles"]]
        gains = [float(g) for g in doc["gains"]["kin"]]
        want = from_roots([p - 1.0 for p in poles]).coeffs
    except (KeyError, TypeError, ValueError) as exc:  # a FixedGainError is a ValueError
        raise InputDataError(f"document design or gains are missing or unusable: {exc}") from exc
    fits = len(gains) == len(poles) == model.order and all(a > 0.0 for a in want[1:])
    if not fits or not all(map(math.isfinite, gains)):  # output_row refuses a non-finite row
        raise InputDataError("document gains or poles are not finite, or unfit for a stable design")
    (lead, *den), _ = realize._loop_pair(model, gains, output)
    return max(abs(d * m - n * lead) / (n * lead)
               for d, (n, m) in zip(den, map(float.as_integer_ratio, want[1:])))


def _noise_gain(result: DesignResult) -> float:
    """Exact noise gain of the loop the design runs (its pair's step-down), rounded once."""
    return analyze._step_down(*realize._transfer_ints(result))


# ---------------------------------------------------------------------------
# output helpers

_BLOCK = 1024  # CSV lines per write to stdout


def _csv_line(fields) -> str:
    """One CSV line of fields printed as they are: words, ints, floats, read labels."""
    return ",".join(map(str, fields)) + "\n"


def _write_lines(header: Sequence[str], lines: Iterable[str]) -> None:
    """Print the header and the CSV lines, ``_BLOCK`` lines per write, so an
    unbuffered stdout (``PYTHONUNBUFFERED``) sees one write call per block, not
    one per line; ``lines`` is consumed lazily, a block at a time."""
    lines = chain((_csv_line(header),), lines)
    while block := "".join(islice(lines, _BLOCK)):
        sys.stdout.write(block)


# ---------------------------------------------------------------------------
# subcommands

def cmd_design(args) -> int:
    import json  # only this command prints JSON; the others start without it

    result = _design_from_args(args)
    forms = ("kin", "pcf", "ocf", "ccf") if args.form == "all" else (args.form,)
    doc = design_document(result, forms=forms)
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError:
        raise NonFiniteValue("design document holds a non-finite value") from None
    sys.stdout.write(text + "\n")
    return 0


def cmd_analyze(args) -> int:
    result = _design_from_args(args)
    # The noise gain runs on the exact pair and the step response on the
    # kinematic realization; only the other analyses need the rounded pair.
    if args.wng:
        _write_lines(["quantity", "value"], [_csv_line(["wng", _noise_gain(result)])])
        return 0
    if args.step is not None:
        ys = analyze.step_response(result, args.step)
        _write_lines(["n", "y"], map(_csv_line, enumerate(ys)))
        return 0

    num, den = transfer_coefficients(result)
    if args.freq:
        rows = []
        for f, h in analyze.frequency_grid(num, den):
            mag = abs(h)
            db = 20.0 * math.log10(mag) if mag > 0.0 else -math.inf
            rows.append([f, h.real, h.imag, db, math.degrees(math.atan2(h.imag, h.real))])
        _write_lines(["f", "re", "im", "magnitude_db", "phase_deg"], map(_csv_line, rows))
    elif args.impulse:
        hs = analyze.impulse_response(num, den)
        _write_lines(["n", "h"], map(_csv_line, enumerate(hs)))
    elif args.flatness:
        spec = result.spec
        profile = analyze.flatness_profile(
            num, den, spec.deriv, spec.lag, spec.process.ts, spec.process.order
        )
        rows = [[k, t.real, t.imag, m.real, m.imag, abs(m - t)]
                for k, (t, m) in enumerate(profile)]
        _write_lines(["order", "target_re", "target_im", "measured_re",
                      "measured_im", "deviation"], map(_csv_line, rows))
    return 0


def cmd_filter(args) -> int:
    from . import _samples  # only this command reads samples; the others start without it

    result = _design_from_args(args)
    # The whole input is validated before the first output line is written.
    chunks, values = _samples._read_samples(args.input)
    labels = _samples._labels(chunks)  # expanded a chunk at a time, as the rows go out
    emit_state = args.emit == "state"
    text = _csv_line(["n", "y", *(f"state{i}" for i in range(result.order) if emit_state)])
    if values:
        # The loop runs in scaled coordinates, predict then correct
        # (realize._scaled_loop).  Every call goes through the realize module,
        # once per sample, so a wrapper installed on it before the command
        # runs sees each one.
        ss, step, kinematic = realize._scaled_loop(result), realize.step, realize.extract_kinematic
        state = realize.initialize_state(ss, values[0])
        y = realize.read_output(ss, state)
        text += _csv_line((next(labels), y, *(kinematic(ss, state) if emit_state else ())))
    sys.stdout.write(text)
    for start in range(1, len(values), _BLOCK):
        rows = zip(islice(labels, _BLOCK), values[start:start + _BLOCK])
        # One block's lines are alive at a time; y is stepped before its state is read.
        sys.stdout.write("".join(
            [label + "," + ",".join(map(repr, (step(ss, state, x), *kinematic(ss, state)))) + "\n"
             for label, x in rows] if emit_state
            else [f"{label},{step(ss, state, x)!r}\n" for label, x in rows]))
    return 0


_TABLE_MEMORIES = (2.0, 4.0, 8.0, 12.0, 16.0)
_TABLE_LAGS = (1.0, 0.0, -1.0)


def _second_order_wng(pole: float, lag: float) -> float:
    """White-noise gain of the order-2 design at the given pole and lag,
    computed through the full pipeline (design, then the exact noise gain of
    its loop) rather than the closed form."""
    return _noise_gain(design(ObserverSpec.repeated(ProcessModel(2, 1.0), pole, lag=lag)))


def cmd_tables(args) -> int:
    header = ["q" if args.table == 1 else "quantity"] + [
        f"l={int(l)}" for l in _TABLE_MEMORIES
    ]
    poles = [memory_to_pole(memory) for memory in _TABLE_MEMORIES]
    if args.table == 1:
        rows = [[lag, *(_second_order_wng(pole, lag) for pole in poles)] for lag in _TABLE_LAGS]
    else:
        lags = [analyze.optimal_lag_k2(pole) for pole in poles]
        rows = [["optimal_lag", *lags], ["wng", *map(_second_order_wng, poles, lags)]]
    _write_lines(header, map(_csv_line, rows))
    return 0


# ---------------------------------------------------------------------------

def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if sys.stdout is None:  # started with file descriptor 1 closed
        print("error: standard output is closed", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except FixedGainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (3 if isinstance(exc, (UnstablePoles, Unobservable, Uncontrollable))
                else 4 if isinstance(exc, InputDataError) else 2)


def console_main() -> None:
    # What start-up built (site's modules, this package) lives until exit:
    # frozen, neither the command's full collections nor the interpreter's
    # teardown walk it again.  The exit still goes through sys.exit, so atexit
    # hooks and the final flush of stdout run as before.
    gc.freeze()
    try:
        code = main()
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (e.g. piped into `head`); behave like any
        # well-mannered filter instead of dumping a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    console_main()
