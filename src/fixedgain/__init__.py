"""fixedgain: design and analysis of fixed-gain tracking filters.

The package designs constant-gain observers for integrator-chain signal
models by pole placement, rebases them across four state-space coordinate
systems, extracts the equivalent transfer function, and analyzes the
response (noise gain, frequency response, dc flatness, tracking error).

Typical use:

    >>> from fixedgain import ProcessModel, ObserverSpec, design
    >>> model = ProcessModel(order=2, ts=0.1)
    >>> result = design(ObserverSpec.repeated(model, pole=0.8, lag=1.0))
    >>> result.gains.kin.col(0)
    (0.35999999999999993, 0.3999999999999998)
"""

from . import errors
from .analyze import (
    flatness_check,
    flatness_profile,
    flatness_targets,
    frequency_grid,
    frequency_response,
    impulse_response,
    lde_filter,
    optimal_lag_k2,
    ramp_error,
    steady_state_step,
    step_response,
    white_noise_gain,
)
from .design import (
    DesignResult,
    GainVectors,
    ObserverSpec,
    design,
    memory_to_pole,
    pole_to_memory,
)
from .linalg import Matrix
from .poly import Polynomial, from_roots
from .process import ProcessModel
from .realize import (
    FilterState,
    Form,
    StateSpaceModel,
    ccf_realization,
    companion_matrix,
    extract_kinematic,
    initialize_state,
    ocf_realization,
    pcf_realization,
    read_output,
    run,
    step,
    transfer_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "DesignResult",
    "FilterState",
    "Form",
    "GainVectors",
    "Matrix",
    "ObserverSpec",
    "Polynomial",
    "ProcessModel",
    "StateSpaceModel",
    "ccf_realization",
    "companion_matrix",
    "design",
    "errors",
    "extract_kinematic",
    "flatness_check",
    "flatness_profile",
    "flatness_targets",
    "frequency_grid",
    "frequency_response",
    "from_roots",
    "impulse_response",
    "initialize_state",
    "lde_filter",
    "memory_to_pole",
    "ocf_realization",
    "optimal_lag_k2",
    "pcf_realization",
    "pole_to_memory",
    "ramp_error",
    "read_output",
    "run",
    "steady_state_step",
    "step",
    "step_response",
    "transfer_coefficients",
    "white_noise_gain",
]
