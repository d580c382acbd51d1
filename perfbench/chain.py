"""One ``sweep`` operation: the library call chain of a design-and-analysis user.

Library names are looked up on the package at call time, so a traced pass that
wraps them sees every call.
"""

from __future__ import annotations

import math

import fixedgain as fg
from fixedgain import errors

FORMS = ("pcf", "ocf", "ccf")
GRID_POINTS = 1024


def design_spec(spec: dict):
    """Process model and design for a generated spec."""
    model = fg.ProcessModel(spec["order"], spec["ts"])
    pole = math.exp(-1.0 / spec["memory"])
    return fg.design(fg.ObserverSpec.repeated(model, pole, lag=spec["lag"],
                                              deriv=spec["deriv"]))


def sweep_op(spec: dict, fresh_realizations: bool = False) -> tuple:
    """Design, transfer, noise gain, flatness, frequency grid, realizations.

    A realization that fails to certify is recorded as omitted, as
    ``fixedgain design --form all`` does; every other error propagates.
    ``DesignResult`` caches realizations and the transfer numerator, so with
    ``fresh_realizations`` the realizations are built on a second, fresh
    design and neither layer's cost hides inside the other's cache.
    """
    result = design_spec(spec)
    num, den = fg.transfer_coefficients(result)
    wng = fg.white_noise_gain(num, den)
    flat = fg.flatness_profile(num, den, spec["deriv"], spec["lag"], spec["ts"],
                               spec["order"])
    grid = fg.frequency_grid(num, den, GRID_POINTS)
    target = design_spec(spec) if fresh_realizations else result
    omitted = {}
    for form in FORMS:
        try:
            getattr(fg, f"{form}_realization")(target)
        except (errors.Unobservable, errors.Uncontrollable) as exc:
            omitted[form] = type(exc).__name__
    return result, wng, flat, grid, omitted


def outputs(op_result: tuple) -> dict:
    """Plain-data view of a ``sweep_op`` result, for the oracle."""
    result, wng, flat, grid, omitted = op_result
    ss = result.ss_kin
    return {
        "A": [list(row) for row in ss.transition.data],
        "B": list(ss.input_gain.col(0)),
        "C": list(ss.output_row.row(0)),
        "wng": wng,
        "flat": [measured for _, measured in flat],
        "f": [f for f, _ in grid],
        "H": [h for _, h in grid],
        "omitted": omitted,
    }
