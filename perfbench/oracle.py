"""Independent checks of the program's outputs, in numpy.

Every check takes what the program printed or returned and answers ``None``
when it is right, or the name of the first check it misses.  The reference
values never come from the program's own transfer function: noise gain and
frequency response are computed from the kinematic realization ``ss_kin``
(the matrices the filter actually runs), and state-space outputs from a
recursion over the same matrices.

Tolerances are the ones the acceptance tests use (tests/test_acceptance.py):
1e-8 relative for quantities read off the transfer function, 1e-9 for
realization outputs, 1e-6 for dc flatness through order K-1.
"""

from __future__ import annotations

import ast
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.signal

REL = 1e-8
OUT = 1e-9
FLAT = 1e-6
TABLE_CELL = 5e-4   # frozen four-decimal table values
TABLE_LAG = 1e-2    # frozen two-decimal optimal lags
BLOCK = 64          # samples per step of the blocked state recursion


def realization(A, B, C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (np.array(A, dtype=float), np.array(B, dtype=float),
            np.array(C, dtype=float))


def noise_gain(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> float:
    """sum_n (C A^n B)^2 from the Lyapunov series P = sum_n A^n B B' A'^n,
    summed by doubling: P <- P + A^m P A'^m, A^m <- A^2m."""
    P = np.outer(B, B)
    Am = A.copy()
    top = np.max(np.abs(A))
    for _ in range(64):
        step = Am @ P @ Am.T
        P = P + step
        Am = Am @ Am
        if (abs(C @ step @ C) <= 1e-17 * abs(C @ P @ C)
                and np.max(np.abs(Am)) <= 1e-12 * top):
            break
    return float(C @ P @ C)


def response(A: np.ndarray, B: np.ndarray, C: np.ndarray, fs) -> np.ndarray:
    """H(z) = C z (zI - A)^-1 B at z = exp(2 pi i f), solved point by point."""
    k = len(B)
    z = np.exp(2j * np.pi * np.asarray(fs, dtype=float))
    lhs = z[:, None, None] * np.eye(k) - A
    rhs = np.broadcast_to(B.astype(complex)[:, None], (len(z), k, 1))
    return z * (np.linalg.solve(lhs, rhs)[:, :, 0] @ C)


def transfer(A: np.ndarray, B: np.ndarray, C: np.ndarray) -> tuple[list, list]:
    """Numerator and denominator, in descending powers of z, of
    C z (zI - A)^-1 B: the realization read as y[n] = C A w[n-1] + C B x[n]."""
    num, den = scipy.signal.ss2tf(A, B[:, None], (C @ A)[None, :], np.array([[C @ B]]))
    return list(num[0]), list(den)


def flatness_targets(deriv: int, lag: float, ts: float, count: int) -> np.ndarray:
    """k-th derivative at w = 0 of (i w / ts)^deriv exp(-i lag w), the
    response of an exact read-out of derivative ``deriv`` ``lag`` samples back."""
    out = np.zeros(count, dtype=complex)
    for k in range(deriv, count):
        out[k] = ((1j / ts) ** deriv * math.factorial(k) / math.factorial(k - deriv)
                  * (-1j * lag) ** (k - deriv))
    return out


def _powers(A: np.ndarray) -> np.ndarray:
    """A^0 .. A^BLOCK stacked."""
    out = [np.eye(len(A))]
    for _ in range(BLOCK):
        out.append(A @ out[-1])
    return np.array(out)


def states(A: np.ndarray, B: np.ndarray, xs) -> np.ndarray:
    """Matched-start run: w[0] = (x0, 0, ..), w[n] = A w[n-1] + B x[n].

    Blocked: inside a block of BLOCK samples every state is A^j times the
    block's first state plus a convolution with A^(j-i) B, all in one product.
    """
    xs = np.asarray(xs, dtype=float)
    k = len(B)
    P = _powers(A)
    taps = P[:BLOCK] @ B                                     # A^j B
    idx = np.arange(BLOCK)
    lower = idx[:, None] - idx[None, :]
    conv = np.where((lower >= 0)[:, :, None], taps[np.clip(lower, 0, None)], 0.0)
    w = np.zeros(k)
    w[0] = xs[0]
    out = [w[None, :]]
    for s in range(1, len(xs), BLOCK):
        chunk = xs[s:s + BLOCK]
        n = len(chunk)
        block = P[1:n + 1] @ w + np.einsum("jik,i->jk", conv[:n, :n], chunk)
        out.append(block)
        w = block[-1]
    return np.concatenate(out)


def impulse(A: np.ndarray, B: np.ndarray, C: np.ndarray, count: int) -> np.ndarray:
    """C A^n B for n < count."""
    P = _powers(A)
    v = B
    out = []
    for _ in range(0, count, BLOCK):
        out.append(P[:BLOCK] @ v)
        v = P[BLOCK] @ v
    return np.concatenate(out)[:count] @ C


def _far(got, want, tol: float) -> bool:
    got = np.asarray(got)
    want = np.asarray(want)
    return got.shape != want.shape or not (
        np.max(np.abs(got - want), initial=0.0)
        <= tol * max(1.0, np.max(np.abs(want), initial=0.0)))


def _rel_far(got, want, tol: float) -> bool:
    want = np.asarray(want)
    return np.max(np.abs(np.asarray(got) - want)) > tol * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# library outputs (sweep)

def grid(points: int) -> np.ndarray:
    return 0.5 * np.arange(points) / (points - 1)


def check_sweep(rec: dict) -> str | None:
    spec = rec["spec"]
    A, B, C = realization(rec["A"], rec["B"], rec["C"])
    want = noise_gain(A, B, C)
    if not abs(rec["wng"] - want) <= REL * abs(want):
        return "wng"
    fs = np.array(rec["f"])
    if _far(fs, grid(len(fs)), 1e-15) or _rel_far(rec["H"], response(A, B, C, fs), REL):
        return "freq"
    targets = flatness_targets(spec["deriv"], spec["lag"], spec["ts"], spec["order"])
    if _far(rec["flat"], targets, FLAT):
        return "flatness"
    return None


# ---------------------------------------------------------------------------
# command output (stream, cli)

def strict_json(text: str):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def strict_csv(text: str, header: list[str], allow_inf=()) -> np.ndarray:
    """Rows after the header as floats; raises ValueError on any deviation
    from a rectangular, finite, '\\n'-terminated CSV with this header."""
    if not text.endswith("\n") or "\r" in text:
        raise ValueError("CSV must use '\\n' line endings")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[:1]} != {header}")
    body = rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged CSV")
    values = np.array([[float(v) for v in row] for row in body], dtype=float)
    values = values.reshape(len(body), len(header))
    finite = np.isfinite(values)
    for col in allow_inf:
        finite[:, header.index(col)] |= np.isneginf(values[:, header.index(col)])
    if not finite.all():
        raise ValueError("non-finite value")
    return values


def check_filter(text: str, values, A, B, C, emit: str) -> str | None:
    k = len(B)
    header = ["n", "y"] + ([f"state{i}" for i in range(k)] if emit == "state" else [])
    try:
        table = strict_csv(text, header)
    except ValueError:
        return "csv"
    if len(table) != len(values) or np.any(table[:, 0] != np.arange(len(values))):
        return "rows"
    w = states(A, B, values)
    if _far(table[:, 1], w @ C, OUT):
        return "output"
    if emit == "state" and any(_far(table[:, 2 + i], w[:, i], OUT) for i in range(k)):
        return "state"
    return None


def check_analyze(kind: str, text: str, spec: dict, A, B, C) -> str | None:
    try:
        if kind == "wng":
            # The row label is text; a number in its place lets strict_csv parse the row.
            table = strict_csv(text.replace("wng,", "0,", 1), ["quantity", "value"])
            want = noise_gain(A, B, C)
            return None if abs(table[0, 1] - want) <= REL * abs(want) else "wng"
        if kind == "freq":
            table = strict_csv(text, ["f", "re", "im", "magnitude_db", "phase_deg"],
                               allow_inf=("magnitude_db",))
            h = table[:, 1] + 1j * table[:, 2]
            if _far(table[:, 0], grid(len(table)), 1e-15) or _rel_far(
                    h, response(A, B, C, table[:, 0]), REL):
                return "freq"
            with np.errstate(divide="ignore"):
                db = 20.0 * np.log10(np.abs(h))
            phase = np.degrees(np.arctan2(h.imag, h.real))
            same_db = np.allclose(table[:, 3], db, rtol=1e-12, atol=1e-9)
            return None if same_db and not _far(table[:, 4], phase, 1e-12) else "freq_columns"
        if kind == "flatness":
            table = strict_csv(text, ["order", "target_re", "target_im", "measured_re",
                                      "measured_im", "deviation"])
            targets = flatness_targets(spec["deriv"], spec["lag"], spec["ts"], spec["order"])
            got_t = table[:, 1] + 1j * table[:, 2]
            got_m = table[:, 3] + 1j * table[:, 4]
            if _far(got_t, targets, 1e-12) or np.any(table[:, 0] != np.arange(len(targets))):
                return "flatness_targets"
            if _far(table[:, 5], np.abs(got_m - got_t), 1e-12):
                return "flatness_columns"
            return "flatness" if _far(got_m, targets, FLAT) else None
        if kind == "impulse":
            table = strict_csv(text, ["n", "h"])
            if np.any(table[:, 0] != np.arange(len(table))):
                return "rows"
            want = impulse(A, B, C, len(table))
            return "impulse" if _rel_far(table[:, 1], want, REL) else None
        if kind == "step":
            table = strict_csv(text, ["n", "y"])
            if np.any(table[:, 0] != np.arange(len(table))):
                return "rows"
            w = states(A, B, np.ones(len(table)))
            return "step" if _far(table[:, 1], w @ C, OUT) else None
    except ValueError:
        return "csv"
    raise KeyError(kind)


def check_design(text: str, verify_document) -> str | None:
    try:
        doc = strict_json(text)
    except ValueError:
        return "json"
    if verify_document(doc) != doc["verification"]["placement_residual"]:
        return "verify"
    kin = doc["realizations"]["kin"]
    A, B, C = realization(kin["transition"], kin["input_gain"], kin["output_row"])
    want = noise_gain(A, B, C)
    got = doc["analysis"]["white_noise_gain"]
    return None if abs(got - want) <= REL * abs(want) else "wng"


def frozen_tables(conftest: Path) -> dict:
    """The frozen benchmark-table constants of the test suite, read without
    importing it."""
    wanted = {"BENCH_MEMORIES", "BENCH_WNG", "BENCH_OPTIMAL_LAG", "BENCH_OPTIMAL_WNG"}
    found = {}
    for node in ast.parse(conftest.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in wanted:
                found[name] = ast.literal_eval(node.value)
    missing = wanted - found.keys()
    if missing:
        raise KeyError(f"{conftest} lacks {sorted(missing)}")
    return found


def check_table(table_no: int, text: str, frozen: dict) -> str | None:
    memories = frozen["BENCH_MEMORIES"]
    first = "q" if table_no == 1 else "quantity"
    header = [first] + [f"l={int(m)}" for m in memories]
    try:
        if table_no == 1:
            table = strict_csv(text, header)
            want = np.array([[lag, *frozen["BENCH_WNG"][lag]] for lag in (1.0, 0.0, -1.0)])
            return None if np.max(np.abs(table - want)) <= TABLE_CELL else "table"
        lines = text.split("\n")
        if lines[1].split(",")[0] != "optimal_lag" or lines[2].split(",")[0] != "wng":
            return "table"
        # Row labels, checked above, give way to numbers so strict_csv parses the rows.
        table = strict_csv(text.replace("optimal_lag,", "0,").replace("wng,", "0,"), header)
        lag_dev = np.max(np.abs(table[0, 1:] - np.array(frozen["BENCH_OPTIMAL_LAG"])))
        wng_dev = np.max(np.abs(table[1, 1:] - np.array(frozen["BENCH_OPTIMAL_WNG"])))
        return None if lag_dev <= TABLE_LAG and wng_dev <= TABLE_CELL else "table"
    except (ValueError, IndexError):
        return "csv"
