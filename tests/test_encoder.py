"""Rewrite-pass tests: placement, swap chains, resource counts, dual rail."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacerq.circuits import GATES_1Q, GATES_2Q, Gate1Q, Gate2Q, SwapGate, WaitGate, LogicalCircuit
from spacerq.encoder import (
    EncodingParams,
    check_dual_rail,
    compile_circuit,
    compile_two_qubit,
    data_position,
    dual_rail_encode,
    swap_chain,
)


def test_data_positions_are_block_leaders():
    assert [data_position(k, 3) for k in (1, 2, 3)] == [1, 4, 7]
    assert [data_position(k, 1) for k in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        data_position(0, 2)
    with pytest.raises(ValueError):
        data_position(4, 2, n_logical=3)


def test_swap_chain_walks_to_block_edge():
    # data qubit 1 at site 1 must reach site m to touch the next block
    assert swap_chain(1, 3) == [SwapGate(1), SwapGate(2)]
    assert swap_chain(2, 3) == [SwapGate(4), SwapGate(5)]
    assert swap_chain(1, 1) == []


@pytest.mark.parametrize("m", range(1, 17))
def test_compiled_pair_gate_count_is_2m_minus_1(m):
    expanded = compile_two_qubit(Gate2Q(1, GATES_2Q["cz"], "cz"), m)
    assert len(expanded) == 2 * m - 1
    # chain out, gate at the block boundary, chain back in reverse
    centre = expanded[m - 1]
    assert isinstance(centre, Gate2Q)
    assert centre.qubit == m
    assert expanded[: m - 1] == [SwapGate(s) for s in range(1, m)]
    assert expanded[m:] == [SwapGate(s) for s in range(m - 1, 0, -1)]


def test_compile_circuit_site_count_and_report():
    logical = LogicalCircuit(
        3,
        (
            Gate1Q(2, GATES_1Q["h"], "h"),
            Gate2Q(1, GATES_2Q["cnot"], "cnot"),
            Gate2Q(2, GATES_2Q["cz"], "cz"),
            WaitGate(4),
        ),
    )
    physical, report = compile_circuit(logical, EncodingParams(3))
    assert physical.n_sites == 9
    assert report.l_prime == 9
    # P = 1 + 1 + 1 + 4 = 7 logical steps; bound (2m-1)P = 35
    assert report.p_prime_bound == 35
    # actual: 1q -> 1, each 2q -> 5, wait -> 4
    assert report.p_prime == 1 + 5 + 5 + 4
    assert report.p_prime < report.p_prime_bound
    assert report.delta_ratio == pytest.approx(1.0 / 27.0, abs=1e-18)
    assert report.sigma_ratio == pytest.approx(3.0 ** -1.5, abs=1e-18)


def test_compile_circuit_exact_gate_sequence_small_case():
    # L=3, m=2: 1q on qubit 2 lands at site 3; the pair gate on (1,2)
    # becomes swap out, gate at the block boundary, swap back
    logical = LogicalCircuit(3, (Gate1Q(2, GATES_1Q["h"], "h"), Gate2Q(1, GATES_2Q["cz"], "cz")))
    physical, report = compile_circuit(logical, EncodingParams(2))
    assert report.l_prime == 6
    assert report.p_prime == 4
    assert report.p_prime_bound == 6
    assert list(physical.gates) == [
        Gate1Q(3, GATES_1Q["h"], "h"),
        SwapGate(1),
        Gate2Q(2, GATES_2Q["cz"], "cz"),
        SwapGate(1),
    ]


def test_step_bound_is_tight_on_two_qubit_only_circuits():
    logical = LogicalCircuit(3, (Gate2Q(1, GATES_2Q["cz"], "cz"), Gate2Q(2, GATES_2Q["cnot"], "cnot")))
    for m in (1, 2, 5):
        physical, report = compile_circuit(logical, EncodingParams(m))
        assert report.p_prime == report.p_prime_bound == (2 * m - 1) * 2


def test_one_qubit_gates_land_on_home_sites():
    logical = LogicalCircuit(2, (Gate1Q(2, GATES_1Q["x"], "x"),))
    physical, _ = compile_circuit(logical, EncodingParams(4))
    assert physical.gates[0] == Gate1Q(5, GATES_1Q["x"], "x")


def test_waits_pass_through_unscaled():
    logical = LogicalCircuit(2, (WaitGate(7),))
    physical, report = compile_circuit(logical, EncodingParams(3))
    assert physical.gates == (WaitGate(7),)
    assert report.p_prime == 7


def test_m1_compile_is_identity_on_gates():
    logical = LogicalCircuit(2, (Gate1Q(1, GATES_1Q["h"], "h"), Gate2Q(1, GATES_2Q["cz"], "cz")))
    physical, report = compile_circuit(logical, EncodingParams(1))
    assert physical.n_sites == 2
    assert list(physical.gates) == list(logical.gates)
    assert report.p_prime == report.p_prime_bound == 2


@given(st.integers(1, 5), st.integers(1, 4), st.data())
def test_compile_respects_step_bound(n_qubits, m, data):
    ops = st.sampled_from(["1q", "2q", "wait"])
    gates = []
    for _ in range(data.draw(st.integers(0, 8))):
        op = data.draw(ops)
        if op == "1q":
            gates.append(Gate1Q(data.draw(st.integers(1, n_qubits)), GATES_1Q["h"], "h"))
        elif op == "2q" and n_qubits >= 2:
            gates.append(Gate2Q(data.draw(st.integers(1, n_qubits - 1)), GATES_2Q["cz"], "cz"))
        else:
            gates.append(WaitGate(data.draw(st.integers(0, 5))))
    logical = LogicalCircuit(n_qubits, tuple(gates))
    physical, report = compile_circuit(logical, EncodingParams(m))
    assert physical.n_sites == m * n_qubits
    assert report.p_prime == physical.step_count
    assert report.p_prime <= (2 * m - 1) * logical.step_count


def test_dual_rail_words():
    assert dual_rail_encode("10") == "1001"
    assert dual_rail_encode("0") == "01"
    assert check_dual_rail("1001")
    assert not check_dual_rail("1101")
    assert not check_dual_rail("100")  # odd length
    with pytest.raises(ValueError):
        dual_rail_encode("12")


def test_dual_rail_compile_is_not_offered():
    # dual-rail covers state encoding and idle analysis; the encoder takes no dual-rail option
    with pytest.raises(TypeError):
        EncodingParams(1, dual_rail=True)


def test_encoding_params_validation():
    with pytest.raises(ValueError):
        EncodingParams(0)
    with pytest.raises(ValueError):
        EncodingParams(-2)


@pytest.mark.parametrize("m", [2.0, 2.5, True, False, "2", None, 2 + 0j])
def test_encoding_params_reject_booleans_and_non_integers(m):
    # the circuit constructors' rule: what operator.index takes, booleans excepted
    with pytest.raises(ValueError, match="m must be a positive integer"):
        EncodingParams(m)


def test_encoding_params_store_a_plain_int():
    import numpy as np

    params = EncodingParams(np.int64(3))
    assert type(params.m) is int and params.m == 3
    assert params == EncodingParams(3)
    bell = LogicalCircuit(2, (Gate1Q(1, GATES_1Q["h"], "h"), Gate2Q(1, GATES_2Q["cnot"], "cnot")))
    physical, report = compile_circuit(bell, params)
    assert physical.n_sites == 6 and report.p_prime == 6
