"""The flush's phasor and a fused dense run at 18-20 qubits, against a bit-matrix oracle.

The oracle evaluates the error phase

    phi(x) = x @ a + sum_{k<l} b_kl x_k x_l

from an explicit (2^n, n) matrix of basis-state bits, chunk by chunk, and
replays a circuit one step at a time with np.tensordot kernels.  It
shares no code with the engine and reaches sizes the Kronecker oracle in
test_simulator.py cannot.
"""

import numpy as np
import pytest

from conftest import random_state, random_unitary
from spacerq.circuits import Gate1Q, Gate2Q, PhysicalCircuit, SwapGate, WaitGate
from spacerq.interactions import CouplingLaw, RegisterLayout
from spacerq.simulator import ErrorModel, StateVector, _phasor, run

CHUNK = 1 << 16
SWAP = np.eye(4)[[0, 2, 1, 3]]


def bit_matrix_phase(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """phi for every basis index; site 1 is the most significant bit."""
    upper = np.triu(b, 1)
    shifts = np.arange(n - 1, -1, -1)
    phi = np.empty(1 << n)
    for start in range(0, 1 << n, CHUNK):
        idx = np.arange(start, min(start + CHUNK, 1 << n))
        x = ((idx[:, None] >> shifts) & 1).astype(float)
        phi[idx] = x @ a + np.sum((x @ upper) * x, axis=1)
    return phi


def tensordot_gate(amps: np.ndarray, u: np.ndarray, sites: tuple[int, ...], n: int) -> np.ndarray:
    k = len(sites)
    axes = [s - 1 for s in sites]
    t = np.tensordot(u.reshape((2,) * (2 * k)), amps.reshape((2,) * n), axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(t, list(range(k)), axes).reshape(-1)


@pytest.mark.parametrize("n", [18, 20])
def test_phasor_matches_the_bit_matrix_phase(n):
    rng = np.random.default_rng(n)
    upper = np.triu(rng.uniform(-1.0, 1.0, (n, n)), 1)
    coupling = upper + upper.T  # J_kl, zero on the diagonal
    spacer_rate = rng.uniform(0.0, 3.0, n)
    phi = bit_matrix_phase(coupling.sum(axis=1) + spacer_rate, -2.0 * coupling, n)
    phasor = _phasor(coupling, spacer_rate, n, np.empty(1 << n, dtype=complex))
    assert np.max(np.abs(phasor - np.exp(-1j * phi))) <= 1e-12


@pytest.mark.parametrize("compensate", [False, True])
def test_fused_run_matches_a_stepwise_replay_at_18_sites(compensate):
    n = 18
    rng = np.random.default_rng(180 + compensate)
    law = CouplingLaw(0.3)
    sites = np.arange(1, n + 1)
    gap = np.abs(sites[:, None] - sites[None, :]).astype(float)
    np.fill_diagonal(gap, 1.0)
    coupling = law.delta1 / gap**law.exponent
    np.fill_diagonal(coupling, 0.0)
    gates = (
        Gate1Q(3, random_unitary(rng, 2)),
        SwapGate(7),
        WaitGate(5),
        Gate2Q(10, random_unitary(rng, 4)),
        SwapGate(1),
        Gate1Q(18, random_unitary(rng, 2)),
        Gate2Q(17, random_unitary(rng, 4)),
        WaitGate(2),
    )
    circuit = PhysicalCircuit(n, gates)
    model = ErrorModel(law, RegisterLayout(n), compensate_active_pair=compensate)
    init = random_state(rng, n)

    phases = {}  # by the site pair left out of the step, in site order

    def step_phase(skip):
        if skip not in phases:
            j = coupling.copy()
            if skip is not None:
                j[skip[0] - 1, skip[1] - 1] = j[skip[1] - 1, skip[0] - 1] = 0.0
            phases[skip] = bit_matrix_phase(j.sum(axis=1), -2.0 * j, n)
        return phases[skip]

    want = init.copy()
    for gate in gates:
        skip, steps = None, 1
        if isinstance(gate, Gate1Q):
            want = tensordot_gate(want, gate.matrix, (gate.qubit,), n)
        elif isinstance(gate, Gate2Q):
            want = tensordot_gate(want, gate.matrix, (gate.qubit, gate.qubit + 1), n)
            skip = (gate.qubit, gate.qubit + 1)
        elif isinstance(gate, SwapGate):
            want = tensordot_gate(want, SWAP, (gate.site, gate.site + 1), n)
            skip = (gate.site, gate.site + 1)
        else:
            steps = gate.steps
        for _ in range(steps):
            want = want * np.exp(-1j * step_phase(skip if compensate else None))

    got = run(circuit, model, StateVector(n, init)).final.amplitudes
    assert np.max(np.abs(got - want)) <= 1e-12
