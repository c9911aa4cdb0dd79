"""Exact statevector simulation under the diagonal crosstalk model.

Gates follow a serial schedule: one basic gate per step, and after every
step each basis state picks up phase exp(-i phi) from the always-on
interaction, phi summing the couplings of the site pairs whose bits
differ.  The model is diagonal, so the error step is an exact diagonal
unitary, not a perturbative approximation.

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
times it, in O(n^2) work whatever T is.  The pending phase is applied
just before the next one- or two-qubit gate and at the end of the
circuit: the quadratic form's exponential factorises, so its 2^n phasors
are filled by multiplicative doubling from O(n^2) scalar exps, about
2 * 2^n complex multiplies with no per-amplitude exp, and multiplied into
the state in place.  A run therefore costs O(2^n) per non-diagonal gate,
not per step.

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


def _apply_1q(amps: np.ndarray, n: int, axis: int, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    # row r of u applied to the two slices of a (2^(axis-1), 2, 2^(n-axis)) view, one slice at a time, into out
    t = amps.reshape(1 << (axis - 1), 2, -1)
    o = out.reshape(t.shape)
    for r in range(2):
        np.multiply(t[:, 0], u[r, 0], out=o[:, r])
        o[:, r] += u[r, 1] * t[:, 1]
    return out


def _apply_pair(amps: np.ndarray, n: int, qa: int, qb: int, u: np.ndarray, scratch: np.ndarray) -> None:
    # u acts on axes (qa, qb) in that slot order; qa need not be < qb.  The matmul needs those axes
    # last, so it writes into scratch and the result is moved back into amps in place.
    t = np.moveaxis(amps.reshape((2,) * n), (qa - 1, qb - 1), (-2, -1))
    t[...] = np.matmul(t.reshape(-1, 4), u.T, out=scratch.reshape(-1, 4)).reshape(t.shape)


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


def _phasor(pair: np.ndarray, spacer_rate: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """exp(-i phi) of the ``_coefficients`` pair for every basis index of the n tracked contents.

    phi is the quadratic form sum_k a_k x_k + sum_{k<l} b_kl x_k x_l with
    a_k = sum_l J_kl + r_k and b_kl = -2 J_kl, so its exponential factorises.
    The table is filled by doubling from the least significant axis up: the
    x_k = 1 half is the x_k = 0 half times exp(-i a_k) exp(2i J_kl) for every
    placed axis l with x_l = 1, and that factor is itself doubled in place
    in the upper half.  That is O(n^2) scalar exps and about 2 * 2^n complex
    multiplies, with no transcendental per amplitude.  ``out`` (2^n complex)
    is filled and returned.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a = pair.sum(axis=1) + spacer_rate
        twice = 2.0 * pair
    if not (np.isfinite(a).all() and np.isfinite(twice).all()):
        raise ValueError("the accumulated error phase overflowed a float (delta or the step count is too large)")
    first, pairwise = np.exp(-1j * a), np.exp(1j * twice)
    out[0] = 1.0
    size = 1
    for k in range(n - 1, -1, -1):  # axis k + 1, from the least significant bit up
        factor = out[size : 2 * size]
        factor[0] = first[k]
        width = 1
        for l in range(n - 1, k, -1):
            np.multiply(factor[:width], pairwise[k, l], out=factor[width : 2 * width])
            width *= 2
        factor *= out[:size]
        size *= 2
    return out


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
    so they are summed as coefficients and applied together, as one
    ``_phasor`` multiplied into the state, just before the next one- or
    two-qubit gate and at the end.  The run owns ``amps`` (the caller's own
    copy) and one scratch buffer of the same size: the phasor and the pair
    kernel work in the scratch, and a one-qubit gate writes its result
    there and swaps the two.  A pending sum that is no longer finite raises
    ``ValueError`` at that flush.  After each gate ``on_gate`` sees the
    amplitudes and the gate's step count; pending phases do not change any
    probability.
    """
    by_distance = _by_distance(model, len(contents) - 1)
    coef_key, coef = None, None  # (layout, excluded pair) of the last step, and its coefficients
    pending = None  # (pair, spacer_rate) summed over the error steps not yet applied
    scratch = np.empty_like(amps)  # the flush's phasor and the kernels' work space, for the whole run
    for gate in circuit.gates:
        pair, steps = None, 1
        if isinstance(gate, (Gate1Q, Gate2Q)) and pending is not None:
            amps *= _phasor(*pending, n, scratch)
            pending = None
        if isinstance(gate, Gate1Q):
            k = contents[gate.qubit]
            if not k:
                raise UnsupportedGateError(f"one-qubit gate on site {gate.qubit} addresses a spacer")
            amps, scratch = _apply_1q(amps, n, k, gate.matrix, scratch), amps
        elif isinstance(gate, Gate2Q):
            pair = (gate.qubit, gate.qubit + 1)
            ka, kb = contents[gate.qubit], contents[gate.qubit + 1]
            if not (ka and kb):
                raise UnsupportedGateError(f"two-qubit gate on sites {pair} addresses a spacer")
            _apply_pair(amps, n, ka, kb, gate.matrix, scratch)
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
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by the flush's check
                if key != coef_key:
                    coef_key, coef = key, _coefficients(by_distance, contents, n, key[1])
                step = coef if steps == 1 else (steps * coef[0], steps * coef[1])
                pending = step if pending is None else (pending[0] + step[0], pending[1] + step[1])
        if on_gate is not None:
            on_gate(amps, steps)
    if pending is not None:
        amps *= _phasor(*pending, n, scratch)
    return amps


def _n_logical(n_sites: int, m: int) -> int:
    if n_sites % m != 0:
        raise ValueError(f"register of {n_sites} sites is not a multiple of m={m}")
    return n_sites // m


def _by_distance(model: ErrorModel, n_sites: int) -> np.ndarray:
    """Coupling of two sites d apart for d = 0..n_sites - 1 (entry 0 unused), as ``_coefficients`` reads it."""
    law, spacing = model.law, model.layout.spacing
    return np.array([0.0] + [coupling_strength(law, d * spacing) for d in range(1, n_sites)])


def _home_contents(n_sites: int, m: int) -> list[int]:
    """``contents`` of a spacer-encoded register at home: data qubit k on its data site, spacers untracked."""
    contents = [0] * (n_sites + 1)
    for k in range(1, _n_logical(n_sites, m) + 1):
        contents[data_position(k, m)] = k
    return contents


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply one basic gate (unitarity is enforced at gate construction)."""
    n = state.n
    if isinstance(gate, Gate1Q):
        if gate.qubit > n:
            raise ValueError(f"site {gate.qubit} out of range for {n} qubits")
        amps = state.amplitudes
        return StateVector(n, _apply_1q(amps, n, gate.qubit, gate.matrix, np.empty_like(amps)))
    if isinstance(gate, Gate2Q):
        if gate.qubit + 1 > n:
            raise ValueError(f"pair ({gate.qubit}, {gate.qubit + 1}) out of range for {n} qubits")
        amps = state.amplitudes.copy()
        _apply_pair(amps, n, gate.qubit, gate.qubit + 1, gate.matrix, np.empty_like(amps))
        return StateVector(n, amps)
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
    amps = logical_initial.amplitudes.copy()
    return StateVector(nl, _evolve(circuit, model, _home_contents(n, encoding.m), amps, nl, None))


def spacer_phase_rates(model: ErrorModel, encoding: EncodingParams) -> np.ndarray:
    """Per-step phase r_k that a |1> on data qubit k picks up from the |0> spacers, at the home layout.

    The ``spacer_rate`` half of one error step's ``_coefficients``, indexed by k - 1.
    """
    n = model.layout.n_sites
    return _coefficients(_by_distance(model, n), _home_contents(n, encoding.m), _n_logical(n, encoding.m), None)[1]


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
