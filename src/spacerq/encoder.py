"""Spacer encoding: rewrite logical circuits onto a diluted register.

Every logical qubit k keeps its state on data site (k-1)*m + 1 and owns
m - 1 trailing spacer sites pinned to |0>.  One-qubit gates just move to
the data site.  A two-qubit gate on neighbours (k, k+1) becomes a chain
of m - 1 adjacent swaps that walks data qubit k up to site k*m, the gate
on sites (k*m, k*m + 1), and the same chain inverted (reversed order) to
walk the data qubit home.  That is 2m - 1 basic gates per logical
two-qubit gate; waits pass through unchanged.

The inverted second chain matters: for m >= 3 replaying the forward
chain does not undo the cyclic shift and would strand the data qubit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .circuits import Gate, Gate1Q, Gate2Q, LogicalCircuit, PhysicalCircuit, SwapGate, WaitGate, _index
from .errors import UnsupportedGateError


@dataclass(frozen=True)
class EncodingParams:
    """Spacer multiplicity m (register dilution factor)."""

    m: int = 1

    def __post_init__(self) -> None:
        m = _index(self.m, "m must be a positive integer")
        if m < 1:
            raise ValueError("m must be a positive integer")
        object.__setattr__(self, "m", m)


@dataclass(frozen=True)
class ResourceReport:
    """Exact encoded-circuit resources plus the analytic scaling ratios.

    ``delta_ratio`` and ``sigma_ratio`` are the dimensionless factors
    m**-3 (nearest data-data coupling reduction) and m**-1.5 (error
    dispersion bound); multiply by the bare delta / sigma to get bounds.
    """

    l_prime: int
    p_prime: int
    p_prime_bound: int
    delta_ratio: float
    sigma_ratio: float


def data_position(k: int, m: int, n_logical: int | None = None) -> int:
    """Physical site of logical qubit k: (k-1)*m + 1 (both 1-indexed)."""
    if k < 1:
        raise ValueError("logical index must be >= 1")
    if n_logical is not None and k > n_logical:
        raise ValueError(f"logical index {k} out of range for {n_logical} qubits")
    if m < 1:
        raise ValueError("m must be >= 1")
    return (k - 1) * m + 1


def swap_chain(k: int, m: int) -> list[SwapGate]:
    """Adjacent swaps walking data qubit k from its home site up to site k*m."""
    start = data_position(k, m)
    return [SwapGate(s) for s in range(start, k * m)]


@functools.lru_cache(maxsize=1024, typed=True)
def _walk(k: int, m: int, n_logical: int | None) -> tuple[tuple[SwapGate, ...], tuple[SwapGate, ...]]:
    """The swap chain out for the pair (k, k + 1) and the inverted chain back, built once per pair."""
    data_position(k + 1, m, n_logical)  # bounds check for the pair
    chain = tuple(swap_chain(k, m))
    return chain, chain[::-1]


def compile_two_qubit(gate: Gate2Q, m: int, n_logical: int | None = None) -> list[Gate]:
    """Expand a logical neighbour gate into chain + gate + inverted chain (2m - 1 gates)."""
    out, back = _walk(gate.qubit, m, n_logical)
    return [*out, Gate2Q(gate.qubit * m, gate.matrix, gate.name), *back]


def compile_circuit(circuit: LogicalCircuit, params: EncodingParams) -> tuple[PhysicalCircuit, ResourceReport]:
    """Rewrite a logical circuit onto the spacer-encoded register.

    Returns the physical circuit over m*L sites and an exact resource
    report.  The step bound p_prime_bound = (2m - 1) * P is tight exactly
    when the circuit consists of two-qubit gates only.
    """
    m = params.m
    n = circuit.n_qubits
    gates: list[Gate] = []
    for g in circuit.gates:
        if isinstance(g, Gate1Q):
            gates.append(Gate1Q(data_position(g.qubit, m, n), g.matrix, g.name))
        elif isinstance(g, Gate2Q):
            gates.extend(compile_two_qubit(g, m, n))
        elif isinstance(g, WaitGate):
            gates.append(g)
        else:
            raise UnsupportedGateError(f"cannot compile gate {g!r}")
    physical = PhysicalCircuit(m * n, tuple(gates))
    report = ResourceReport(
        l_prime=m * n,
        p_prime=physical.step_count,
        p_prime_bound=(2 * m - 1) * circuit.step_count,
        delta_ratio=float(m) ** -3,
        sigma_ratio=float(m) ** -1.5,
    )
    return physical, report


def dual_rail_encode(bits: str) -> str:
    """Map each bit to a rail pair: 0 -> 01, 1 -> 10 (one charge per pair)."""
    if any(c not in "01" for c in bits):
        raise ValueError("bits must contain only '0' and '1'")
    return "".join("10" if c == "1" else "01" for c in bits)


def check_dual_rail(bits: str) -> bool:
    """True iff every rail pair holds exactly one charge (odd lengths never do)."""
    if any(c not in "01" for c in bits):
        raise ValueError("bits must contain only '0' and '1'")
    if len(bits) % 2 != 0:
        return False
    return all(bits[i] != bits[i + 1] for i in range(0, len(bits), 2))
