"""spacerq: spacer-encoded registers under always-on state-dependent coupling.

A 1D register whose sites shift each other's frequency whenever their
bits differ accumulates entangling phase on every idle step.  This
package rewrites logical circuits onto a diluted register (one data
qubit per block of m sites, spacers pinned to |0>), simulates the
resulting dynamics exactly, and measures how dilution buys back state
quality.
"""

from .analysis import (
    SweepConfig,
    critical_register_size,
    curve_to_csv,
    curve_to_dict,
    dual_rail_points,
    fit_axis,
    fit_dual_rail_exponent,
    idle_wait_steps,
    measure_effective_coupling,
    quality_decay_r2,
    resource_table,
    run_sweep,
    sandwich_quality,
    sigma_from_quality,
)
from .circuits import (
    GATES_1Q,
    GATES_2Q,
    Gate1Q,
    Gate2Q,
    LogicalCircuit,
    PhysicalCircuit,
    SwapGate,
    WaitGate,
    dumps_circuit,
    loads_circuit,
)
from .encoder import EncodingParams, check_dual_rail, compile_circuit, compile_two_qubit, dual_rail_encode
from .errors import CapacityError, CircuitFormatError, UnsupportedGateError
from .interactions import CouplingLaw, RegisterLayout
from .simulator import (
    ErrorModel,
    StateVector,
    apply_gate,
    encode_logical_state,
    extract_logical_state,
    quality,
    run,
    run_compressed,
    states_close,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CircuitFormatError",
    "CouplingLaw",
    "EncodingParams",
    "ErrorModel",
    "GATES_1Q",
    "GATES_2Q",
    "Gate1Q",
    "Gate2Q",
    "LogicalCircuit",
    "PhysicalCircuit",
    "RegisterLayout",
    "StateVector",
    "SwapGate",
    "SweepConfig",
    "UnsupportedGateError",
    "WaitGate",
    "apply_gate",
    "check_dual_rail",
    "compile_circuit",
    "compile_two_qubit",
    "critical_register_size",
    "curve_to_csv",
    "curve_to_dict",
    "dual_rail_encode",
    "dual_rail_points",
    "dumps_circuit",
    "encode_logical_state",
    "extract_logical_state",
    "fit_axis",
    "fit_dual_rail_exponent",
    "idle_wait_steps",
    "loads_circuit",
    "measure_effective_coupling",
    "quality",
    "quality_decay_r2",
    "resource_table",
    "run",
    "run_compressed",
    "run_sweep",
    "sandwich_quality",
    "sigma_from_quality",
    "states_close",
]
