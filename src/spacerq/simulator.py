"""Exact statevector simulation under the diagonal crosstalk model.

Gates follow a serial schedule: one basic gate per step, and after every
step each basis state picks up phase exp(-i * error_phase) from the
always-on interaction.  The model is diagonal, so the error step is an
exact diagonal unitary, not a perturbative approximation.

One engine covers both entry points.  It evolves the amplitudes of the
register's tracked contents and follows which site holds each of them,
so a swap only relabels sites.  An untracked content is a spacer held
in |0>.  The error phase of a step is then the quadratic form

    phi(x) = sum_k a_k x_k + sum_{k<l} b_kl x_k x_l

over the tracked bits x, with b_kl = -2 J_kl for the coupling J_kl at
the contents' current distance and a_k the coupling of content k's site
to every other site: a spacer adds a known single-qubit phase, and
spacer-spacer pairs never differ.  ``run`` tracks all n contents (dense,
capped at MAX_QUBITS) and returns the state in site order;
``run_compressed`` tracks only the L data qubits of a spacer-encoded
register, i.e. its 2^L logical amplitudes.

Error steps and swaps are diagonal, so the engine does not apply them one
by one.  It keeps one pending sum of the steps' coefficients (a, b): a
swap or an error step adds one step's worth, a wait of T steps adds T
times it, in O(n^2) work whatever T is.  The pending phase is applied,
as one 2^n fill, one exp and one multiply, just before the next one- or
two-qubit gate and at the end of the circuit.  A run therefore costs
O(2^n) per non-diagonal gate, not per step.

Site 1 maps to the most significant bit of the amplitude index, so
``int(bits, 2)`` is the index of basis state ``bits``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .circuits import Gate, Gate1Q, Gate2Q, LogicalCircuit, PhysicalCircuit, SwapGate, WaitGate
from .encoder import EncodingParams, data_position
from .errors import CapacityError, UnsupportedGateError
from .interactions import CouplingLaw, RegisterLayout, coupling_strength

MAX_QUBITS = 24
SPACER_TOL = 1e-12
_NORM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense amplitudes over n qubits, unit norm."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n > MAX_QUBITS:
            raise CapacityError(f"{self.n} qubits exceeds the dense cap of {MAX_QUBITS}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def zero(cls, n: int) -> StateVector:
        if n > MAX_QUBITS:  # refuse before building an n-character string
            raise CapacityError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        return cls.from_bits("0" * n)

    @classmethod
    def from_bits(cls, bits: str) -> StateVector:
        if len(bits) > MAX_QUBITS:  # refuse before scanning the bits or allocating 2^n amplitudes
            raise CapacityError(f"{len(bits)} qubits exceeds the dense cap of {MAX_QUBITS}")
        if not bits or any(c not in "01" for c in bits):
            raise ValueError("bits must be a non-empty string over '0'/'1'")
        amps = np.zeros(1 << len(bits), dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(len(bits), amps)

    @classmethod
    def uniform(cls, n: int) -> StateVector:
        """Equal-weight superposition of all basis states (all |+>)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > MAX_QUBITS:
            raise CapacityError(f"{n} qubits exceeds the dense cap of {MAX_QUBITS}")
        return cls(n, np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex))

    def amplitude(self, bits: str) -> complex:
        if len(bits) != self.n or any(c not in "01" for c in bits):
            raise ValueError(f"need {self.n} bits over '0'/'1'")
        return complex(self.amplitudes[int(bits, 2)])

    def probability(self, bits: str) -> float:
        return abs(self.amplitude(bits)) ** 2

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True)
class ErrorModel:
    """Coupling law + register geometry, with optional active-pair compensation.

    With ``compensate_active_pair`` on, the phase contribution of the site
    pair addressed by a two-qubit gate (swap included) is omitted for that
    step: entanglement picked up during an active gate is known in advance
    and absorbed into the gate itself.
    """

    law: CouplingLaw
    layout: RegisterLayout
    compensate_active_pair: bool = False


@dataclass(frozen=True)
class RunResult:
    final: StateVector
    steps_executed: int
    spacer_check: tuple[bool, ...] | None = None


# --- engine ---------------------------------------------------------------


def _apply_1q(amps: np.ndarray, n: int, axis: int, u: np.ndarray) -> np.ndarray:
    # row r of u applied to the two slices of a (2^(axis-1), 2, 2^(n-axis)) view, one slice at a time
    t = amps.reshape(1 << (axis - 1), 2, -1)
    out = np.empty_like(t)
    for r in range(2):
        np.multiply(t[:, 0], u[r, 0], out=out[:, r])
        out[:, r] += u[r, 1] * t[:, 1]
    return out.reshape(-1)


def _apply_pair(amps: np.ndarray, n: int, qa: int, qb: int, u: np.ndarray) -> np.ndarray:
    # u acts on axes (qa, qb) in that slot order; qa need not be < qb
    t = np.moveaxis(amps.reshape((2,) * n), (qa - 1, qb - 1), (-2, -1))
    shape = t.shape
    t = (t.reshape(-1, 4) @ u.T).reshape(shape)
    return np.moveaxis(t, (-2, -1), (qa - 1, qb - 1)).reshape(-1)


def _coefficients(
    by_distance: np.ndarray, contents: list[int], n: int, exclude: tuple[int, int] | None
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of one error step over the n tracked contents: ``(pair, spacer_rate)``.

    ``by_distance[d]`` is the coupling of two sites d apart.  ``contents[s]``
    is the amplitude axis (1..n) of the content on site s, or 0 for an
    untracked spacer held in |0>; entry 0 is unused.  The coupling of the
    site pair ``exclude`` is left out.  ``pair[k, l]`` is J_kl between
    contents k + 1 and l + 1, and ``spacer_rate[k]`` is r_k, the coupling
    of content k + 1 to the untracked sites.  Costs O(n_sites * n); the
    phase is linear in both parts, so the coefficients of several steps add.
    """
    n_sites = len(contents) - 1
    sites = np.zeros(n, dtype=np.int64)
    for s in range(1, n_sites + 1):
        if contents[s]:
            sites[contents[s] - 1] = s
    # coupling[t - 1, k]: between site t and the site of content k (0 on its own site)
    coupling = by_distance[np.abs(np.arange(1, n_sites + 1)[:, None] - sites)]
    if exclude is not None:
        i, j = exclude
        if contents[j]:
            coupling[i - 1, contents[j] - 1] = 0.0
        if contents[i]:
            coupling[j - 1, contents[i] - 1] = 0.0
    untracked = [s - 1 for s in range(1, n_sites + 1) if not contents[s]]
    spacer_rate = np.cumsum(coupling[untracked], axis=0)[-1] if untracked else np.zeros(n)  # in site order
    return coupling[sites - 1], spacer_rate


def _phases(pair: np.ndarray, spacer_rate: np.ndarray, n: int) -> np.ndarray:
    """Phase of the ``_coefficients`` pair for every basis index of the n tracked contents.

    The phase is the quadratic form sum_k a_k x_k + sum_{k<l} b_kl x_k x_l
    with b_kl = -2 J_kl and a_k = sum_l J_kl + r_k.  It is summed as
    sum_{k<l} J_kl [x_k != x_l], filled in by doubling in O(2^n), and then
    r_k x_k for k = 1..n in turn: pairs first, spacer rates last.  The
    order matters because near Q = 1 the dispersion sqrt(-ln Q) turns the
    last bits of Q into printed digits.
    """
    phi = np.zeros(1 << n)
    size = 1
    for k in range(n - 1, -1, -1):  # axis k + 1, from the least significant bit up
        differ0 = np.zeros(size)  # sum of J_kl over the placed axes l with x_l = 1
        width = 1
        for l in range(n - 1, k, -1):
            np.add(differ0[:width], pair[k, l], out=differ0[width : 2 * width])
            width *= 2
        # with x_k = 1 the differing axes are the complement, i.e. the reversed index
        np.add(phi[:size], differ0[::-1], out=phi[size : 2 * size])
        phi[:size] += differ0
        size *= 2
    for k in range(n):
        if spacer_rate[k] != 0.0:
            phi.reshape(1 << k, 2, -1)[:, 1, :] += spacer_rate[k]
    return phi


def _evolve(
    circuit: PhysicalCircuit | LogicalCircuit,
    model: ErrorModel,
    contents: list[int],
    amps: np.ndarray,
    n: int,
    on_gate: Callable[[np.ndarray, int], None] | None,
) -> np.ndarray:
    """Serial schedule on the amplitudes of the tracked contents; ``contents`` is updated in place.

    A swap only exchanges two entries of ``contents``.  Every gate, and every
    step of a wait, is followed by one error step.  Error steps are diagonal,
    so they are summed as coefficients and applied together just before the
    next one- or two-qubit gate and at the end.  After each gate ``on_gate``
    sees the amplitudes and the gate's step count; pending phases do not
    change any probability.
    """
    law, spacing = model.law, model.layout.spacing
    by_distance = np.array([0.0] + [coupling_strength(law, d * spacing) for d in range(1, len(contents) - 1)])
    coef_key, coef = None, None  # (layout, excluded pair) of the last step, and its coefficients
    pending = None  # (pair, spacer_rate) summed over the error steps not yet applied
    for gate in circuit.gates:
        pair, steps = None, 1
        if isinstance(gate, (Gate1Q, Gate2Q)) and pending is not None:
            amps, pending = amps * np.exp(-1j * _phases(*pending, n)), None
        if isinstance(gate, Gate1Q):
            k = contents[gate.qubit]
            if not k:
                raise UnsupportedGateError(f"one-qubit gate on site {gate.qubit} addresses a spacer")
            amps = _apply_1q(amps, n, k, gate.matrix)
        elif isinstance(gate, Gate2Q):
            pair = (gate.qubit, gate.qubit + 1)
            ka, kb = contents[gate.qubit], contents[gate.qubit + 1]
            if not (ka and kb):
                raise UnsupportedGateError(f"two-qubit gate on sites {pair} addresses a spacer")
            amps = _apply_pair(amps, n, ka, kb, gate.matrix)
        elif isinstance(gate, SwapGate):
            s = gate.site
            pair = (s, s + 1)
            contents[s], contents[s + 1] = contents[s + 1], contents[s]
        elif isinstance(gate, WaitGate):
            steps = gate.steps
        else:
            raise UnsupportedGateError(f"cannot run {gate!r}")
        if steps:
            key = (tuple(contents), pair if model.compensate_active_pair else None)
            if key != coef_key:
                coef_key, coef = key, _coefficients(by_distance, contents, n, key[1])
            step = coef if steps == 1 else (steps * coef[0], steps * coef[1])
            pending = step if pending is None else (pending[0] + step[0], pending[1] + step[1])
        if on_gate is not None:
            on_gate(amps, steps)
    if pending is not None:
        amps = amps * np.exp(-1j * _phases(*pending, n))
    return amps


def _n_logical(n_sites: int, m: int) -> int:
    if n_sites % m != 0:
        raise ValueError(f"register of {n_sites} sites is not a multiple of m={m}")
    return n_sites // m


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one basic gate (unitarity is enforced at gate construction)."""
    n = state.n
    if isinstance(gate, Gate1Q):
        if gate.qubit > n:
            raise ValueError(f"site {gate.qubit} out of range for {n} qubits")
        return StateVector(n, _apply_1q(state.amplitudes, n, gate.qubit, gate.matrix))
    if isinstance(gate, Gate2Q):
        if gate.qubit + 1 > n:
            raise ValueError(f"pair ({gate.qubit}, {gate.qubit + 1}) out of range for {n} qubits")
        return StateVector(n, _apply_pair(state.amplitudes, n, gate.qubit, gate.qubit + 1, gate.matrix))
    if isinstance(gate, SwapGate):
        if gate.site + 1 > n:
            raise ValueError(f"swap at {gate.site} out of range for {n} qubits")
        # pure axis exchange: exact, no arithmetic on the amplitudes
        t = np.swapaxes(state.amplitudes.reshape((2,) * n), gate.site - 1, gate.site)
        return StateVector(n, np.ascontiguousarray(t).reshape(-1))
    if isinstance(gate, WaitGate):
        return state
    raise UnsupportedGateError(f"cannot apply {gate!r}")


def run(
    circuit: PhysicalCircuit | LogicalCircuit,
    model: ErrorModel,
    initial: StateVector | None = None,
    encoding: EncodingParams | None = None,
) -> RunResult:
    """Serial full-register run: each gate, then one error step (waits: one per step).

    With ``encoding`` supplied, the run also records a per-step verdict that
    every site currently holding a spacer measures |0> with probability 1
    (within SPACER_TOL); swaps carry spacers along.
    """
    n = circuit.n_sites if isinstance(circuit, PhysicalCircuit) else circuit.n_qubits
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} sites exceeds the dense cap of {MAX_QUBITS}")
    if model.layout.n_sites != n:
        raise ValueError("layout size does not match the circuit")
    if initial is None:
        initial = StateVector.zero(n)
    if initial.n != n:
        raise ValueError("initial state size does not match the circuit")

    verdicts: list[bool] = []
    on_gate = None
    if encoding is not None:
        m = encoding.m
        # content c starts on site c, so the spacer contents are all 0 exactly on the home-layout data indices
        clean = _encoded_indices(_n_logical(n, m), m) if m > 1 else None

        def on_gate(amps: np.ndarray, steps: int) -> None:
            # a diagonal step moves no probability and a swap only relabels, so one verdict holds for all steps
            if steps:
                ok = clean is None or 1.0 - float(np.sum(np.abs(amps[clean]) ** 2)) <= SPACER_TOL
                verdicts.extend([ok] * steps)

    contents = list(range(n + 1))
    amps = _evolve(circuit, model, contents, initial.amplitudes.copy(), n, on_gate)
    final = np.transpose(amps.reshape((2,) * n), [c - 1 for c in contents[1:]]).reshape(-1)
    return RunResult(StateVector(n, final), circuit.step_count, tuple(verdicts) if encoding is not None else None)


def run_compressed(
    circuit: PhysicalCircuit,
    model: ErrorModel,
    encoding: EncodingParams,
    logical_initial: StateVector,
) -> StateVector:
    """Evolve only the 2^L logical amplitudes of a spacer-encoded circuit.

    Accepts circuits produced by ``compile_circuit``: every non-swap gate
    must address sites currently holding data qubits.  Agrees with the
    full-register run restricted to the data qubits.
    """
    n = circuit.n_sites
    if model.layout.n_sites != n:
        raise ValueError("layout size does not match the circuit")
    nl = _n_logical(n, encoding.m)
    if logical_initial.n != nl:
        raise ValueError(f"logical state has {logical_initial.n} qubits, expected {nl}")
    contents = [0] * (n + 1)
    for k in range(1, nl + 1):
        contents[data_position(k, encoding.m)] = k
    return StateVector(nl, _evolve(circuit, model, contents, logical_initial.amplitudes.copy(), nl, None))


# --- state maps and measures ----------------------------------------------


def _encoded_indices(n_logical: int, m: int) -> np.ndarray:
    """Physical amplitude index of every logical basis state (home positions)."""
    n_phys = m * n_logical
    lidx = np.arange(1 << n_logical, dtype=np.int64)
    pidx = np.zeros(1 << n_logical, dtype=np.int64)
    for k in range(1, n_logical + 1):
        bit = (lidx >> (n_logical - k)) & 1
        pidx |= bit << (n_phys - data_position(k, m))
    return pidx


def encode_logical_state(logical: StateVector, m: int) -> StateVector:
    """Place logical amplitudes on data sites, spacers in |0> (home layout)."""
    n_phys = m * logical.n
    if n_phys > MAX_QUBITS:
        raise CapacityError(f"{n_phys} sites exceeds the dense cap of {MAX_QUBITS}")
    amps = np.zeros(1 << n_phys, dtype=complex)
    amps[_encoded_indices(logical.n, m)] = logical.amplitudes
    return StateVector(n_phys, amps)


def extract_logical_state(state: StateVector, m: int) -> StateVector:
    """Read the logical amplitudes back off the data sites (home layout)."""
    nl = _n_logical(state.n, m)
    return StateVector(nl, state.amplitudes[_encoded_indices(nl, m)].copy())


def quality(state: StateVector, solutions: Iterable[str]) -> float:
    """Probability mass on the solution basis states: Q = sum |<s|psi>|^2."""
    seen = set()
    q = 0.0
    for s in solutions:
        if len(s) != state.n or any(c not in "01" for c in s):
            raise ValueError(f"solution {s!r} is not a {state.n}-bit string")
        if s in seen:
            continue
        seen.add(s)
        q += abs(state.amplitudes[int(s, 2)]) ** 2
    if not seen:
        raise ValueError("solution set must be non-empty")
    return min(max(q, 0.0), 1.0)


def align_global_phase(amplitudes: np.ndarray) -> np.ndarray:
    """Rotate so the largest-magnitude amplitude is real positive."""
    amps = np.asarray(amplitudes, dtype=complex)
    k = int(np.argmax(np.abs(amps)))
    a = amps[k]
    if abs(a) == 0.0:
        return amps.copy()
    return amps * (a.conjugate() / abs(a))


def states_close(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Amplitude-wise agreement after global-phase alignment."""
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(align_global_phase(a) - align_global_phase(b))) <= tol)
