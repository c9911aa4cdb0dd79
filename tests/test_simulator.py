"""Simulator tests against an independent Kronecker-product oracle.

The oracle below builds full 2^n x 2^n matrices and evaluates the error
phases with explicit per-basis-state loops, sharing no kernel code with
the package.  Fuzz comparisons pin both entry points of the engine, `run`
and `run_compressed`, to it.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_logical_circuit, random_state, random_unitary
from spacerq.circuits import GATES_1Q, GATES_2Q, Gate1Q, Gate2Q, PhysicalCircuit, SwapGate, WaitGate, LogicalCircuit
from spacerq.encoder import EncodingParams, compile_circuit
from spacerq.errors import CapacityError, UnsupportedGateError
from spacerq.interactions import CouplingLaw, RegisterLayout
from spacerq.simulator import (
    MAX_QUBITS,
    ErrorModel,
    StateVector,
    align_global_phase,
    apply_gate,
    encode_logical_state,
    extract_logical_state,
    quality,
    run,
    run_compressed,
    states_close,
)

# --- oracle -----------------------------------------------------------------


def kron_embed(u: np.ndarray, first_site: int, n: int) -> np.ndarray:
    """Embed a 2^k-dim unitary acting on contiguous sites starting at first_site."""
    k = int(round(math.log2(u.shape[0])))
    full = np.eye(1, dtype=complex)
    site = 1
    while site <= n:
        if site == first_site:
            full = np.kron(full, u)
            site += k
        else:
            full = np.kron(full, np.eye(2, dtype=complex))
            site += 1
    return full


def oracle_phase(bits: str, spacing: float, law: CouplingLaw, skip: tuple[int, int] | None) -> float:
    phi = 0.0
    n = len(bits)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if skip is not None and (i, j) == skip:
                continue
            if bits[i - 1] == bits[j - 1]:
                continue
            d = (j - i) * spacing
            if law.cutoff is not None and d > law.cutoff:
                continue
            phi += law.delta1 / d**law.exponent
    return phi


def oracle_error_step(amps: np.ndarray, n: int, model: ErrorModel, skip=None) -> np.ndarray:
    out = amps.copy()
    for idx in range(1 << n):
        bits = format(idx, f"0{n}b")
        out[idx] *= np.exp(-1j * oracle_phase(bits, model.layout.spacing, model.law, skip))
    return out


def oracle_run(
    circuit: PhysicalCircuit, model: ErrorModel, amps: np.ndarray, m: int = 1, verdicts: list | None = None
) -> np.ndarray:
    """Site-order evolution with one explicit error step after every gate and every wait step.

    With a list ``verdicts``, appends after every error step whether all
    sites holding a spacer of the m-fold encoding read |0> (within 1e-12);
    the spacers start on every site but (k - 1) m + 1 and move with swaps.
    """
    n = circuit.n_sites
    amps = amps.copy()
    phasors = {}  # by excluded pair: in site order the error step depends on nothing else
    masks = {}  # by spacer sites: basis states with every spacer in |0>
    spacers = [(s - 1) % m != 0 for s in range(1, n + 1)]

    def error_step(amps: np.ndarray, skip) -> np.ndarray:
        if skip not in phasors:
            phasors[skip] = oracle_error_step(np.ones(1 << n, dtype=complex), n, model, skip)
        amps = amps * phasors[skip]
        if verdicts is not None:
            key = tuple(spacers)
            if key not in masks:
                bits = [format(i, f"0{n}b") for i in range(1 << n)]
                masks[key] = np.array([all(b == "0" for b, sp in zip(bs, key) if sp) for bs in bits])
            verdicts.append(1.0 - float(np.sum(np.abs(amps[masks[key]]) ** 2)) <= 1e-12)
        return amps

    for gate in circuit.gates:
        if isinstance(gate, WaitGate):
            for _ in range(gate.steps):
                amps = error_step(amps, None)
            continue
        if isinstance(gate, Gate1Q):
            amps = kron_embed(gate.matrix, gate.qubit, n) @ amps
            skip = None
        elif isinstance(gate, Gate2Q):
            amps = kron_embed(gate.matrix, gate.qubit, n) @ amps
            skip = (gate.qubit, gate.qubit + 1)
        else:
            amps = kron_embed(GATES_2Q["swap"], gate.site, n) @ amps
            skip = (gate.site, gate.site + 1)
            spacers[gate.site - 1], spacers[gate.site] = spacers[gate.site], spacers[gate.site - 1]
        amps = error_step(amps, skip if model.compensate_active_pair else None)
    return amps


# --- state construction -----------------------------------------------------


def test_statevector_constructors():
    z = StateVector.zero(3)
    assert z.amplitude("000") == 1.0
    b = StateVector.from_bits("101")
    assert b.amplitude("101") == 1.0
    assert b.probability("100") == 0.0
    u = StateVector.uniform(2)
    assert np.allclose(u.amplitudes, 0.5)
    assert abs(u.norm() - 1.0) < 1e-14


def test_statevector_validation():
    with pytest.raises(ValueError):
        StateVector(2, np.ones(4, dtype=complex))  # norm 2
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0 + 1e-8, 0.0]))  # off by more than the 1e-9 norm tolerance
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0 + 0j]))
    with pytest.raises(ValueError):
        StateVector.from_bits("02")
    with pytest.raises(CapacityError):
        StateVector.from_bits("0" * (MAX_QUBITS + 1))
    with pytest.raises(CapacityError):
        StateVector.zero(10**9)  # refused before a billion-character string is built
    with pytest.raises(CapacityError):
        StateVector.uniform(MAX_QUBITS + 1)


# --- gate kernels vs oracle --------------------------------------------------


def test_single_qubit_kernel_matches_kron():
    rng = np.random.default_rng(11)
    amps = random_state(rng, 4)
    for site in (1, 2, 4):
        u = random_unitary(rng, 2)
        got = apply_gate(StateVector(4, amps), Gate1Q(site, u)).amplitudes
        want = kron_embed(u, site, 4) @ amps
        assert np.max(np.abs(got - want)) < 1e-12


def test_pair_kernel_matches_kron():
    rng = np.random.default_rng(12)
    amps = random_state(rng, 4)
    for site in (1, 2, 3):
        u = random_unitary(rng, 4)
        got = apply_gate(StateVector(4, amps), Gate2Q(site, u)).amplitudes
        want = kron_embed(u, site, 4) @ amps
        assert np.max(np.abs(got - want)) < 1e-12


def test_swap_kernel_matches_kron_exactly():
    rng = np.random.default_rng(13)
    amps = random_state(rng, 5)
    for site in (1, 3, 4):
        got = apply_gate(StateVector(5, amps), SwapGate(site)).amplitudes
        want = kron_embed(GATES_2Q["swap"], site, 5) @ amps
        assert np.array_equal(got, want)  # pure permutation, no rounding allowed


def test_apply_gate_bounds_checks():
    s = StateVector.zero(2)
    with pytest.raises(ValueError):
        apply_gate(s, Gate1Q(3, GATES_1Q["h"]))
    with pytest.raises(ValueError):
        apply_gate(s, Gate2Q(2, GATES_2Q["cz"]))
    with pytest.raises(ValueError):
        apply_gate(s, SwapGate(2))


def test_wait_gate_is_identity_under_apply_gate():
    s = StateVector.uniform(2)
    assert apply_gate(s, WaitGate(5)) is s


# --- error step ---------------------------------------------------------------


def _one_step(n: int) -> PhysicalCircuit:
    return PhysicalCircuit(n, (WaitGate(1),))


def _identity_pair(site: int) -> Gate2Q:
    # with compensation on, the only effect of this gate is to leave out the pair's coupling
    return Gate2Q(site, np.eye(4))


def test_error_step_matches_bruteforce():
    rng = np.random.default_rng(21)
    n = 4
    model = ErrorModel(CouplingLaw(0.3), RegisterLayout(n, spacing=1.5))
    amps = random_state(rng, n)
    got = run(_one_step(n), model, StateVector(n, amps)).final.amplitudes
    want = oracle_error_step(amps, n, model)
    assert np.max(np.abs(got - want)) < 1e-14


def test_error_step_with_cutoff_matches_bruteforce():
    rng = np.random.default_rng(22)
    n = 5
    model = ErrorModel(CouplingLaw(0.2, exponent=2, cutoff=2.0), RegisterLayout(n))
    amps = random_state(rng, n)
    got = run(_one_step(n), model, StateVector(n, amps)).final.amplitudes
    assert np.max(np.abs(got - oracle_error_step(amps, n, model))) < 1e-14


def test_error_step_zero_coupling_is_bit_exact():
    rng = np.random.default_rng(23)
    amps = random_state(rng, 3)
    model = ErrorModel(CouplingLaw(0.0), RegisterLayout(3))
    got = run(_one_step(3), model, StateVector(3, amps)).final.amplitudes
    assert np.array_equal(got, amps)


def test_error_step_pair_exclusion():
    # two sites, pair excluded: nothing left to dephase
    rng = np.random.default_rng(24)
    amps = random_state(rng, 2)
    model = ErrorModel(CouplingLaw(0.7), RegisterLayout(2), compensate_active_pair=True)
    got = run(PhysicalCircuit(2, (_identity_pair(1),)), model, StateVector(2, amps)).final.amplitudes
    assert np.max(np.abs(got - amps)) < 1e-15
    # three sites: excluding (1,2) must still keep (1,3) and (2,3)
    amps3 = random_state(rng, 3)
    model3 = ErrorModel(CouplingLaw(0.7), RegisterLayout(3), compensate_active_pair=True)
    got3 = run(PhysicalCircuit(3, (_identity_pair(1),)), model3, StateVector(3, amps3)).final.amplitudes
    assert np.max(np.abs(got3 - oracle_error_step(amps3, 3, model3, skip=(1, 2)))) < 1e-14


def test_phase_additivity():
    # k single steps equal one step with the coupling scaled by k
    rng = np.random.default_rng(25)
    amps = random_state(rng, 3)
    layout = RegisterLayout(3)
    stepped = run(PhysicalCircuit(3, (WaitGate(7),)), ErrorModel(CouplingLaw(0.11), layout), StateVector(3, amps))
    once = run(_one_step(3), ErrorModel(CouplingLaw(7 * 0.11), layout), StateVector(3, amps))
    assert np.max(np.abs(stepped.final.amplitudes - once.final.amplitudes)) < 1e-12


def test_error_step_layout_mismatch():
    with pytest.raises(ValueError):
        run(_one_step(2), ErrorModel(CouplingLaw(0.1), RegisterLayout(3)), StateVector.zero(2))


# --- serial schedule ----------------------------------------------------------


def test_run_applies_error_after_every_gate_and_wait_step():
    rng = np.random.default_rng(31)
    n = 4
    circuit = PhysicalCircuit(
        n,
        (
            Gate1Q(1, GATES_1Q["h"], "h"),
            SwapGate(2),
            WaitGate(3),
            Gate2Q(3, GATES_2Q["cnot"], "cnot"),
        ),
    )
    for compensate in (False, True):
        model = ErrorModel(CouplingLaw(0.09), RegisterLayout(n), compensate_active_pair=compensate)
        init = random_state(rng, n)
        result = run(circuit, model, StateVector(n, init))
        assert result.steps_executed == 6
        want = oracle_run(circuit, model, init)
        assert np.max(np.abs(result.final.amplitudes - want)) < 1e-12


def test_run_fuzz_against_oracle():
    rng = np.random.default_rng(32)
    for trial in range(10):
        n_logical = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        logical = random_logical_circuit(rng, n_logical, int(rng.integers(1, 7)))
        physical, _ = compile_circuit(logical, EncodingParams(m))
        model = ErrorModel(
            CouplingLaw(float(rng.choice([0.0, 0.05, 0.2]))),
            RegisterLayout(physical.n_sites),
            compensate_active_pair=bool(rng.integers(0, 2)),
        )
        init = random_state(rng, physical.n_sites)
        result = run(physical, model, StateVector(physical.n_sites, init))
        want = oracle_run(physical, model, init)
        assert np.max(np.abs(result.final.amplitudes - want)) < 1e-12, f"trial {trial}"


def test_compressed_matches_full_on_compiled_circuits():
    rng = np.random.default_rng(33)
    for trial in range(15):
        n_logical = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        logical = random_logical_circuit(rng, n_logical, int(rng.integers(0, 8)))
        physical, _ = compile_circuit(logical, EncodingParams(m))
        model = ErrorModel(
            CouplingLaw(float(rng.choice([0.0, 0.01, 0.1]))),
            RegisterLayout(physical.n_sites),
            compensate_active_pair=bool(rng.integers(0, 2)),
        )
        init_logical = StateVector(n_logical, random_state(rng, n_logical))
        full = run(physical, model, encode_logical_state(init_logical, m), EncodingParams(m))
        compressed = run_compressed(physical, model, EncodingParams(m), init_logical)
        extracted = extract_logical_state(full.final, m)
        assert states_close(extracted.amplitudes, compressed.amplitudes, 1e-12), f"trial {trial}"
        assert full.spacer_check is not None and all(full.spacer_check)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("compensate", [False, True])
def test_compressed_fuzz_against_oracle(m, compensate):
    # the Kronecker oracle evolves the whole encoded register; the compressed engine never builds it
    rng = np.random.default_rng([34, m, int(compensate)])
    for trial in range(8):
        n_logical = int(rng.integers(1, 4))
        logical = random_logical_circuit(rng, n_logical, int(rng.integers(0, 7)))
        logical = LogicalCircuit(n_logical, (WaitGate(0), *logical.gates, WaitGate(0)))
        physical, _ = compile_circuit(logical, EncodingParams(m))
        model = ErrorModel(
            CouplingLaw(float(rng.choice([0.0, 0.05, 0.2]))),
            RegisterLayout(physical.n_sites),
            compensate_active_pair=compensate,
        )
        init_logical = StateVector(n_logical, random_state(rng, n_logical))
        want = oracle_run(physical, model, encode_logical_state(init_logical, m).amplitudes)
        want = extract_logical_state(StateVector(physical.n_sites, want), m).amplitudes
        got = run_compressed(physical, model, EncodingParams(m), init_logical).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12, f"trial {trial}"


_MATRIX = st.none() | st.integers(0, 2**16)  # h or cnot, or the seed of a random unitary


def _matrix(seed: int | None, dim: int) -> np.ndarray:
    if seed is None:
        return GATES_1Q["h"] if dim == 2 else GATES_2Q["cnot"]
    return random_unitary(np.random.default_rng(seed), dim)


@st.composite
def _encoded_runs(draw):
    """A compiled random circuit with waits of 0..300 steps, sometimes kicked by a one-qubit gate at the physical level."""
    m = draw(st.integers(1, 4))
    n_logical = draw(st.integers(1, min(3, 9 // m)))
    kinds = ["wait", "1q", "2q"] if n_logical > 1 else ["wait", "1q"]
    gates = []
    for kind, target, seed, steps in draw(
        st.lists(st.tuples(st.sampled_from(kinds), st.integers(1, 3), _MATRIX, st.integers(0, 300)), max_size=6)
    ):
        if kind == "wait":
            gates.append(WaitGate(steps))
        elif kind == "1q":
            gates.append(Gate1Q(min(target, n_logical), _matrix(seed, 2)))
        else:
            gates.append(Gate2Q(min(target, n_logical - 1), _matrix(seed, 4)))
    physical, _ = compile_circuit(LogicalCircuit(n_logical, tuple(gates)), EncodingParams(m))
    kick = draw(st.none() | st.tuples(st.integers(0, len(physical.gates)), st.integers(1, physical.n_sites), _MATRIX))
    if kick is not None:
        at, site, seed = kick
        gates = (*physical.gates[:at], Gate1Q(site, _matrix(seed, 2)), *physical.gates[at:])
        physical = PhysicalCircuit(physical.n_sites, gates)
    model = ErrorModel(
        CouplingLaw(draw(st.sampled_from([0.0, 0.01, 0.05, 0.2]))),
        RegisterLayout(physical.n_sites),
        compensate_active_pair=draw(st.booleans()),
    )
    init = StateVector(n_logical, random_state(np.random.default_rng(draw(st.integers(0, 2**16))), n_logical))
    return m, physical, model, init, kick is not None


@settings(max_examples=60, deadline=None)
@given(_encoded_runs())
def test_fused_engine_matches_the_stepwise_oracle(case):
    # the oracle applies every error step on its own; the engine sums diagonal steps and applies them at once
    m, physical, model, init, kicked = case
    encoded = encode_logical_state(init, m)
    verdicts = []
    want = oracle_run(physical, model, encoded.amplitudes, m, verdicts)
    result = run(physical, model, encoded, EncodingParams(m))
    assert np.max(np.abs(result.final.amplitudes - want)) < 1e-12
    assert result.spacer_check == tuple(verdicts)
    if not kicked:
        want_logical = extract_logical_state(StateVector(physical.n_sites, want), m).amplitudes
        got = run_compressed(physical, model, EncodingParams(m), init).amplitudes
        assert np.max(np.abs(got - want_logical)) < 1e-12


def test_a_billion_step_wait_runs_in_constant_time():
    # h, wait, h on a data qubit with its spacer in |0>, no encoding given: |1> gains delta per step
    # over the 10^9 + 1 steps between the Hadamards, so Q(00) = cos^2((10^9 + 1) delta / 2)
    logical = LogicalCircuit(1, (Gate1Q(1, GATES_1Q["h"], "h"), WaitGate(10**9), Gate1Q(1, GATES_1Q["h"], "h")))
    physical, _ = compile_circuit(logical, EncodingParams(2))
    model = ErrorModel(CouplingLaw(0.0123), RegisterLayout(2))
    start = time.perf_counter()
    result = run(physical, model)
    elapsed = time.perf_counter() - start
    assert result.steps_executed == 10**9 + 2 and result.spacer_check is None
    assert abs(result.final.probability("00") - math.cos((10**9 + 1) * 0.0123 / 2) ** 2) < 1e-6
    assert elapsed < 1.0


def test_spacer_verdict_follows_a_swapped_spacer():
    # the swap moves data qubit 1 onto site 2 and its spacer onto site 1
    model = ErrorModel(CouplingLaw(0.1), RegisterLayout(4))
    x = GATES_1Q["x"]
    on_data = run(PhysicalCircuit(4, (SwapGate(1), Gate1Q(2, x, "x"))), model, StateVector.zero(4), EncodingParams(2))
    assert on_data.spacer_check == (True, True)
    on_spacer = run(PhysicalCircuit(4, (SwapGate(1), Gate1Q(1, x, "x"))), model, StateVector.zero(4), EncodingParams(2))
    assert on_spacer.spacer_check == (True, False)


def test_spacer_verdict_fails_when_a_spacer_is_excited():
    circuit = PhysicalCircuit(4, (Gate1Q(2, GATES_1Q["x"], "x"), WaitGate(1)))
    model = ErrorModel(CouplingLaw(0.1), RegisterLayout(4))
    result = run(circuit, model, StateVector.zero(4), EncodingParams(2))
    assert result.spacer_check is not None
    assert not all(result.spacer_check)


def test_spacer_verdict_tolerance_is_tight():
    # a spacer leak of 1e-10 is far above SPACER_TOL = 1e-12; one of 1e-14 is below it
    model = ErrorModel(CouplingLaw(0.1), RegisterLayout(2))
    for leak, verdict in ((1e-10, (False,)), (1e-14, (True,))):
        initial = StateVector(2, np.array([math.sqrt(1.0 - leak), math.sqrt(leak), 0.0, 0.0]))
        result = run(PhysicalCircuit(2, (WaitGate(1),)), model, initial, EncodingParams(2))
        assert result.spacer_check == verdict


def test_compressed_rejects_gates_addressing_spacers():
    model = ErrorModel(CouplingLaw(0.1), RegisterLayout(4))
    bad_1q = PhysicalCircuit(4, (Gate1Q(2, GATES_1Q["h"], "h"),))
    with pytest.raises(UnsupportedGateError):
        run_compressed(bad_1q, model, EncodingParams(2), StateVector.zero(2))
    bad_2q = PhysicalCircuit(4, (Gate2Q(2, GATES_2Q["cz"], "cz"),))
    with pytest.raises(UnsupportedGateError):
        run_compressed(bad_2q, model, EncodingParams(2), StateVector.zero(2))
    # after a swap the neighbouring block edge holds data, so (2,3) works
    ok = PhysicalCircuit(4, (SwapGate(1), Gate2Q(2, GATES_2Q["cz"], "cz"), SwapGate(1)))
    run_compressed(ok, model, EncodingParams(2), StateVector.uniform(2))


def test_run_size_checks():
    circuit = PhysicalCircuit(2, (WaitGate(1),))
    with pytest.raises(ValueError):
        run(circuit, ErrorModel(CouplingLaw(0.1), RegisterLayout(3)))
    with pytest.raises(ValueError):
        run(circuit, ErrorModel(CouplingLaw(0.1), RegisterLayout(2)), StateVector.zero(3))
    big = PhysicalCircuit(MAX_QUBITS + 1, (WaitGate(1),))
    with pytest.raises(CapacityError):
        run(big, ErrorModel(CouplingLaw(0.1), RegisterLayout(MAX_QUBITS + 1)))


def test_compensation_makes_a_lone_pair_gate_ideal():
    # on two sites the only interaction is the gated pair itself; start from
    # |++> so the post-gate state has weight on differing-bit strings
    circuit = PhysicalCircuit(2, (Gate2Q(1, GATES_2Q["cnot"], "cnot"),))
    init = StateVector.uniform(2)
    ideal = apply_gate(init, Gate2Q(1, GATES_2Q["cnot"], "cnot"))
    on = run(circuit, ErrorModel(CouplingLaw(0.4), RegisterLayout(2), compensate_active_pair=True), init)
    off = run(circuit, ErrorModel(CouplingLaw(0.4), RegisterLayout(2)), init)
    assert np.max(np.abs(on.final.amplitudes - ideal.amplitudes)) < 1e-15
    assert np.max(np.abs(off.final.amplitudes - ideal.amplitudes)) > 0.1


# --- encode / extract / quality ----------------------------------------------


def test_encode_places_data_on_home_sites():
    encoded = encode_logical_state(StateVector.from_bits("10"), 2)
    assert encoded.amplitude("1000") == 1.0


def test_encode_extract_round_trip():
    rng = np.random.default_rng(41)
    logical = StateVector(2, random_state(rng, 2))
    for m in (1, 2, 3):
        back = extract_logical_state(encode_logical_state(logical, m), m)
        assert np.array_equal(back.amplitudes, logical.amplitudes)


def test_encode_capacity_and_extract_validation():
    with pytest.raises(CapacityError):
        encode_logical_state(StateVector.uniform(13), 2)
    with pytest.raises(ValueError):
        extract_logical_state(StateVector.zero(5), 2)


def test_quality_sums_solution_mass():
    s = StateVector.uniform(2)
    assert quality(s, ["00"]) == pytest.approx(0.25, abs=1e-15)
    assert quality(s, ["00", "11"]) == pytest.approx(0.5, abs=1e-15)
    # duplicates in the solution set cannot double-count
    assert quality(s, ["00", "00", "11"]) == pytest.approx(0.5, abs=1e-15)
    assert quality(StateVector.from_bits("10"), ["10"]) == 1.0


def test_quality_validation_and_clamping():
    s = StateVector.uniform(2)
    with pytest.raises(ValueError):
        quality(s, [])
    with pytest.raises(ValueError):
        quality(s, ["0"])
    with pytest.raises(ValueError):
        quality(s, ["0x"])
    # numerically slightly-over-unit mass clamps to 1
    t = StateVector(1, np.array([1.0 + 5e-13, 0.0], dtype=complex))
    assert quality(t, ["0", "1"]) == 1.0


def test_global_phase_alignment():
    rng = np.random.default_rng(42)
    a = random_state(rng, 3)
    rotated = a * np.exp(1j * 1.234)
    assert states_close(a, rotated, 1e-12)
    assert not states_close(a, random_state(rng, 3), 1e-6)
    aligned = align_global_phase(rotated)
    k = int(np.argmax(np.abs(aligned)))
    assert abs(aligned[k].imag) < 1e-12 and aligned[k].real > 0
