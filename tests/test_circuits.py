"""Circuit IR and JSON format tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_logical_circuit, random_unitary

from spacerq.circuits import (
    GATES_1Q,
    GATES_2Q,
    Gate1Q,
    Gate2Q,
    LogicalCircuit,
    PhysicalCircuit,
    SwapGate,
    WaitGate,
    circuit_from_dict,
    circuit_to_dict,
    dumps_circuit,
    loads_circuit,
)
from spacerq.encoder import EncodingParams, compile_circuit
from spacerq.errors import CircuitFormatError, UnsupportedGateError

BELL_TEXT = json.dumps(
    {
        "qubits": 2,
        "gates": [
            {"op": "1q", "target": 1, "name": "h"},
            {"op": "2q", "target": [1, 2], "name": "cnot"},
        ],
    }
)


def test_named_gates_resolve_to_matrices():
    c = loads_circuit(BELL_TEXT)
    assert isinstance(c, LogicalCircuit)
    assert c.n_qubits == 2
    assert np.array_equal(c.gates[0].matrix, GATES_1Q["h"])
    assert np.array_equal(c.gates[1].matrix, GATES_2Q["cnot"])


def test_matrix_entry_overrides_name():
    doc = {
        "qubits": 1,
        "gates": [
            {
                "op": "1q",
                "target": 1,
                "name": "h",
                "matrix": [[0, 0], [1, 0], [1, 0], [0, 0]],  # actually X
            }
        ],
    }
    c = circuit_from_dict(doc)
    assert np.array_equal(c.gates[0].matrix, GATES_1Q["x"])


def test_json_round_trip_preserves_circuit():
    original = LogicalCircuit(
        3,
        (
            Gate1Q(2, GATES_1Q["x"], "x"),
            Gate2Q(2, GATES_2Q["cz"], "cz"),
            WaitGate(4),
            Gate1Q(1, np.array([[1, 0], [0, 1j]]), None),
        ),
    )
    again = loads_circuit(dumps_circuit(original))
    assert again == original


def test_round_trip_keeps_names_but_not_fake_names():
    # a gate whose name disagrees with its matrix must serialise the matrix
    g = Gate1Q(1, GATES_1Q["x"], "h")
    doc = circuit_to_dict(LogicalCircuit(1, (g,)))
    assert "matrix" in doc["gates"][0]
    assert "name" not in doc["gates"][0]


def test_physical_round_trip_with_swaps():
    original = PhysicalCircuit(4, (SwapGate(2), Gate2Q(2, GATES_2Q["cnot"], "cnot"), SwapGate(2)))
    again = loads_circuit(dumps_circuit(original), physical=True)
    assert again == original
    assert isinstance(loads_circuit(dumps_circuit(original), physical=None), PhysicalCircuit)
    assert isinstance(loads_circuit(BELL_TEXT, physical=None), LogicalCircuit)


def test_twin_classes_compare_only_within_their_own_type():
    def twins():
        return (Gate1Q(1, np.eye(2)), Gate2Q(1, np.eye(4))), (LogicalCircuit(2, ()), PhysicalCircuit(2, ()))

    for (a, b), (a2, b2) in zip(twins(), twins()):
        assert a != b and b != a
        assert a == a2 and b == b2
        for x in (a, b):
            assert repr(x).startswith(type(x).__name__ + "(")
            with pytest.raises(TypeError):
                hash(x)
    assert LogicalCircuit(2, (WaitGate(1),)) != LogicalCircuit(2, ())
    assert Gate1Q(1, np.eye(2)) != Gate1Q(1, np.eye(2), "i")


def test_bad_json_reports_line_and_column():
    with pytest.raises(CircuitFormatError) as err:
        loads_circuit('{"qubits": 2,\n "gates": [}]}')
    assert err.value.line == 2
    assert err.value.column is not None
    assert "line 2" in str(err.value)


def test_swap_rejected_in_logical_document():
    text = json.dumps({"qubits": 2, "gates": [{"op": "swap", "target": [1, 2]}]})
    with pytest.raises(UnsupportedGateError):
        loads_circuit(text)
    # but fine when parsed as a physical circuit
    assert loads_circuit(text, physical=True).gates[0] == SwapGate(1)


@pytest.mark.parametrize(
    "doc",
    [
        {"qubits": 2},
        {"gates": []},
        {"qubits": 0, "gates": []},
        {"qubits": 2, "gates": [{"target": 1}]},
        {"qubits": 2, "gates": [{"op": "teleport", "target": 1}]},
        {"qubits": 2, "gates": [{"op": "1q", "target": 1}]},  # no name, no matrix
        {"qubits": 2, "gates": [{"op": "2q", "target": [1, 3], "name": "cz"}]},  # not adjacent
        {"qubits": 2, "gates": [{"op": "2q", "target": "12", "name": "cz"}]},
        {"qubits": 2, "gates": [{"op": "wait"}]},
        {"qubits": 2, "gates": [{"op": "wait", "steps": -1}]},
        {"qubits": 2, "gates": [{"op": "1q", "target": 1, "matrix": [[1, 0]]}]},
        {"qubits": 2, "gates": [{"op": "1q", "target": 1, "matrix": [[1, 0], [0, 0], [0, 0], [2, 0]]}]},
        {"qubits": 2, "gates": "h"},
        # JSON booleans are Python ints, but never an index or a count
        {"qubits": True, "gates": []},
        {"qubits": 2, "gates": [{"op": "1q", "target": True, "name": "h"}]},
        {"qubits": 2, "gates": [{"op": "2q", "target": True, "name": "cz"}]},
        {"qubits": 2, "gates": [{"op": "2q", "target": [True, 2], "name": "cz"}]},
        {"qubits": 2, "gates": [{"op": "wait", "steps": True}]},
        {"qubits": 2, "gates": [{"op": "wait", "steps": False}]},
    ],
)
def test_malformed_documents_raise_format_errors(doc):
    with pytest.raises(CircuitFormatError):
        circuit_from_dict(doc)


def test_swap_targets_reject_booleans():
    doc = {"qubits": 2, "gates": [{"op": "swap", "target": [True, 2]}]}
    with pytest.raises(CircuitFormatError, match="gate 0: target must be"):
        circuit_from_dict(doc, physical=True)


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([["1", "0"], [0, 0], [0, 0], [1, 0]], "gate 0: complex"),  # strings are not numbers
        ([[1, 0], [0, 0], [0, 0], [[1], 0]], "gate 0: complex"),
        ([[1, 0], [0, 0], [0, 0], [1, 0, 0]], "gate 0: matrix must be a flat row-major list of 4"),
        ([[1, 0], [0, 0], [0, 0], [None, 0]], "gate 0: complex"),
        ([[1, 0], [0, 0], [0, 0]], "gate 0: matrix must be a flat row-major list of 4"),
        ([[1, 0], [0, 0], [0, 0], [0.5, 0]], "gate 0: matrix is not unitary"),
        ([[1, 0], [0, 0], [0, 0], [10**400, 0]], "gate 0: int too large"),
    ],
)
def test_matrix_entries_must_be_number_pairs(matrix, message):
    doc = {"qubits": 1, "gates": [{"op": "1q", "target": 1, "matrix": matrix}]}
    with pytest.raises(CircuitFormatError, match=message):
        circuit_from_dict(doc)


def test_matrix_entries_accept_ints_floats_and_booleans():
    doc = {"qubits": 1, "gates": [{"op": "1q", "target": 1, "matrix": [[0, 0], [True, False], [1.0, 0], [0, -0.0]]}]}
    assert np.array_equal(circuit_from_dict(doc).gates[0].matrix, GATES_1Q["x"])


def test_unknown_gate_name_is_unsupported_not_malformed():
    doc = {"qubits": 2, "gates": [{"op": "1q", "target": 1, "name": "t"}]}
    with pytest.raises(UnsupportedGateError):
        circuit_from_dict(doc)


def test_gate_constructors_enforce_unitarity_and_bounds():
    with pytest.raises(ValueError):
        Gate1Q(1, np.array([[1, 0], [0, 2]]))
    with pytest.raises(ValueError):
        Gate1Q(0, GATES_1Q["h"])
    with pytest.raises(ValueError):
        Gate2Q(1, np.eye(3))
    with pytest.raises(ValueError):
        WaitGate(-1)
    with pytest.raises(ValueError):
        LogicalCircuit(2, (Gate1Q(3, GATES_1Q["h"]),))
    with pytest.raises(ValueError):
        PhysicalCircuit(2, (SwapGate(2),))  # pair (2,3) off the end


def test_logical_circuit_rejects_bare_swaps():
    with pytest.raises(UnsupportedGateError):
        LogicalCircuit(2, (SwapGate(1),))


def test_step_count_counts_wait_steps_individually():
    c = LogicalCircuit(
        2,
        (Gate1Q(1, GATES_1Q["h"], "h"), WaitGate(5), Gate2Q(1, GATES_2Q["cz"], "cz"), WaitGate(0)),
    )
    assert c.step_count == 1 + 5 + 1 + 0


def test_wait_zero_round_trips():
    c = loads_circuit(json.dumps({"qubits": 1, "gates": [{"op": "wait", "steps": 0}]}))
    assert c.gates[0] == WaitGate(0)
    assert c.step_count == 0


class _Index:
    """Integer-like but not an int, like a numpy integer scalar."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


_CONSTRUCTORS = {
    "Gate1Q": lambda v: Gate1Q(v, GATES_1Q["h"], "h"),
    "Gate2Q": lambda v: Gate2Q(v, GATES_2Q["cz"], "cz"),
    "SwapGate": SwapGate,
    "WaitGate": WaitGate,
    "LogicalCircuit": LogicalCircuit,
    "PhysicalCircuit": PhysicalCircuit,
}


@pytest.mark.parametrize("make", _CONSTRUCTORS.values(), ids=_CONSTRUCTORS.keys())
@pytest.mark.parametrize("value", [True, np.True_, 2.0, np.float64(2.0), 2.5, "2", None])
def test_constructors_reject_booleans_and_non_integers(make, value):
    # the JSON parser refuses these, so a circuit holding one could not be read back
    with pytest.raises(ValueError):
        make(value)


@st.composite
def _index_like_circuits(draw):
    def index(lo: int, hi: int):
        value = draw(st.integers(lo, hi))
        return draw(st.sampled_from([value, np.int64(value), np.uint16(value), _Index(value)]))

    n = draw(st.integers(1, 5))
    physical = draw(st.booleans())
    gates = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["1q", "2q", "swap", "wait"] if physical and n > 1 else ["1q", "2q", "wait"]))
        if kind == "wait":
            gates.append(WaitGate(index(0, 1000)))
        elif kind == "1q" or n == 1:
            gates.append(Gate1Q(index(1, n), *draw(st.sampled_from([(GATES_1Q["h"], "h"), (GATES_1Q["z"], None)]))))
        elif kind == "2q":
            gates.append(Gate2Q(index(1, n - 1), *draw(st.sampled_from([(GATES_2Q["cz"], "cz"), (GATES_2Q["cnot"], None)]))))
        else:
            gates.append(SwapGate(index(1, n - 1)))
    return (PhysicalCircuit if physical else LogicalCircuit)(index(n, n), tuple(gates))


@settings(max_examples=100, deadline=None)
@given(_index_like_circuits())
def test_index_like_constructor_arguments_round_trip(circuit):
    assert loads_circuit(dumps_circuit(circuit), physical=isinstance(circuit, PhysicalCircuit)) == circuit


# --- unitarity: checked once, kept read-only ---------------------------------


def _allclose_accepts(m: np.ndarray) -> bool:
    return np.allclose(m.conj().T @ m, np.eye(len(m)), atol=1e-12)


def _constructor_accepts(m: np.ndarray) -> bool:
    gate = Gate1Q if len(m) == 2 else Gate2Q
    try:
        gate(1, m)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("dim", [2, 4])
def test_unitarity_check_accepts_what_allclose_accepts(dim):
    # additive noise moves every entry of M^H M (the 1e-12 atol decides); scaling by 1 + eps
    # moves only the diagonal (the 1e-5 rtol of np.allclose decides): both boundaries are crossed
    rng = np.random.default_rng(dim)
    accepted = rejected = 0
    for eps in np.logspace(-16, -4, 121):
        u = random_unitary(rng, dim)
        noise = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        for m in (u + eps * noise, u * (1 + eps), u * (1 + 5 * eps * rng.uniform(0.5, 1.5))):
            expected = _allclose_accepts(m)
            assert _constructor_accepts(m) == expected, (eps, m)
            accepted += expected
            rejected += not expected
    assert accepted > 100 and rejected > 100


def test_gate_matrix_is_a_read_only_copy():
    caller = np.array([[0, 1], [1, 0]], dtype=complex)
    g = Gate1Q(1, caller)
    assert caller.flags.writeable
    caller[0, 0] = 5  # the caller's array stays theirs
    assert g.matrix[0, 0] == 0
    with pytest.raises(ValueError):
        g.matrix[0, 0] = 1
    for a in (g.matrix, g.matrix.base, GATES_1Q["h"], GATES_1Q["h"].base):
        with pytest.raises(ValueError):
            a.setflags(write=True)  # neither the matrix nor the memory under it
    with pytest.raises(ValueError):
        GATES_2Q["cnot"][0, 0] = 0


def test_checked_matrices_are_shared_not_copied():
    g = Gate2Q(1, random_unitary(np.random.default_rng(0), 4))
    assert Gate2Q(3, g.matrix).matrix is g.matrix
    assert Gate1Q(2, GATES_1Q["h"], "h").matrix is GATES_1Q["h"]
    logical = LogicalCircuit(2, (Gate1Q(2, GATES_1Q["x"], "x"), g))
    physical, _ = compile_circuit(logical, EncodingParams(3))
    assert physical.gates[0].matrix is GATES_1Q["x"]
    assert physical.gates[3].matrix is g.matrix
    with pytest.raises(ValueError, match="2x2"):
        Gate1Q(1, g.matrix)  # a checked 4x4 is still no one-qubit gate


def test_non_unitary_is_rejected_on_every_entry_path():
    bad = np.array([[1, 0], [0, 1.001]], dtype=complex)
    with pytest.raises(ValueError, match="not unitary"):
        Gate1Q(1, bad)
    doc = {"qubits": 1, "gates": [{"op": "1q", "target": 1, "matrix": [[1, 0], [0, 0], [0, 0], [1.001, 0]]}]}
    with pytest.raises(CircuitFormatError, match="gate 0: matrix is not unitary"):
        circuit_from_dict(doc)
    # a gate whose matrix was swapped behind the constructor's back is checked again when compiled
    for gate, matrix in ((Gate1Q(1, GATES_1Q["h"]), bad), (Gate2Q(1, GATES_2Q["cz"]), np.kron(bad, bad))):
        object.__setattr__(gate, "matrix", matrix)
        with pytest.raises(ValueError, match="not unitary"):
            compile_circuit(LogicalCircuit(2, (gate,)), EncodingParams(2))


# --- dumps_circuit writes exactly what json.dumps(circuit_to_dict(c), indent=1) writes ---


def _assert_dumps_matches_oracle(circuit):
    doc = circuit_to_dict(circuit)
    text = dumps_circuit(circuit)
    assert text == json.dumps(doc, indent=1)
    # a name that does not match its table matrix is not written, so it does not come back
    written = tuple(
        type(g)(g.qubit, g.matrix, entry.get("name")) if isinstance(g, (Gate1Q, Gate2Q)) else g
        for g, entry in zip(circuit.gates, doc["gates"])
    )
    assert loads_circuit(text, physical=isinstance(circuit, PhysicalCircuit)) == type(circuit)(doc["qubits"], written)


def test_dumps_golden_layout():
    c = PhysicalCircuit(
        2,
        (
            Gate1Q(1, GATES_1Q["h"], "h"),
            Gate1Q(2, np.diag([1, -1j]), "fake"),
            SwapGate(1),
            Gate2Q(1, GATES_2Q["cz"], "cz"),
            WaitGate(0),
        ),
    )
    pair = "    [\n     {},\n     {}\n    ]"
    golden = (
        '{\n "qubits": 2,\n "gates": [\n'
        '  {\n   "op": "1q",\n   "target": 1,\n   "name": "h"\n  },\n'
        '  {\n   "op": "1q",\n   "target": 2,\n   "matrix": [\n'
        + ",\n".join([pair.format("1.0", "0.0"), pair.format("0.0", "0.0"), pair.format("0.0", "0.0"),
                      pair.format("-0.0", "-1.0")])
        + "\n   ]\n  },\n"
        '  {\n   "op": "swap",\n   "target": [\n    1,\n    2\n   ]\n  },\n'
        '  {\n   "op": "2q",\n   "target": [\n    1,\n    2\n   ],\n   "name": "cz"\n  },\n'
        '  {\n   "op": "wait",\n   "steps": 0\n  }\n'
        " ]\n}"
    )
    assert dumps_circuit(c) == golden
    _assert_dumps_matches_oracle(c)


@pytest.mark.parametrize(
    "circuit",
    [
        LogicalCircuit(3),
        PhysicalCircuit(1),
        LogicalCircuit(1, (WaitGate(0),)),
        LogicalCircuit(
            2, (Gate1Q(1, GATES_1Q["x"], "h"), Gate2Q(1, GATES_2Q["cz"], "cnot"), Gate1Q(2, GATES_1Q["z"], "unknown"))
        ),
        LogicalCircuit(2, (Gate2Q(1, GATES_2Q["swap"], "swap"), Gate2Q(1, GATES_2Q["swap"]))),
        LogicalCircuit(1, (Gate1Q(1, np.array([[1, 1e-300], [-1e-300, 1]])),)),
        LogicalCircuit(1, (Gate1Q(1, np.array([[1, 5e-324], [-5e-324, -1]])),)),
        LogicalCircuit(1, (Gate1Q(1, np.array([[-0.0, 1], [1, -0.0]]) * (1 - 0j)),)),
        LogicalCircuit(1, (Gate1Q(1, np.array([[complex(-0.0, -0.0), 1], [1, complex(0.0, -0.0)]])),)),
        PhysicalCircuit(3, (SwapGate(2), SwapGate(1), WaitGate(7), SwapGate(2), Gate2Q(2, GATES_2Q["cnot"], "cnot"))),
    ],
)
def test_dumps_matches_json_module_on_edge_cases(circuit):
    _assert_dumps_matches_oracle(circuit)


@pytest.mark.parametrize("seed", range(6))
def test_dumps_matches_json_module_on_random_and_compiled_circuits(seed):
    rng = np.random.default_rng(seed)
    logical = random_logical_circuit(rng, int(rng.integers(1, 6)), int(rng.integers(0, 25)))
    _assert_dumps_matches_oracle(logical)
    for m in range(1, 5):
        _assert_dumps_matches_oracle(compile_circuit(logical, EncodingParams(m))[0])


_angles = st.floats(min_value=-7.0, max_value=7.0, allow_subnormal=True)


@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 5))
    physical = draw(st.booleans())
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["1q", "2q", "swap", "wait"] if physical else ["1q", "2q", "wait"]))
        if kind == "wait":
            gates.append(WaitGate(draw(st.integers(0, 10**12))))
        elif kind == "1q" or n == 1:
            t, p, q = draw(_angles), draw(_angles), draw(_angles)
            u = np.array(
                [[np.cos(t), -np.exp(1j * q) * np.sin(t)], [np.exp(1j * p) * np.sin(t), np.exp(1j * (p + q)) * np.cos(t)]]
            )
            matrix, name = draw(st.sampled_from([(u, None), (GATES_1Q["h"], "h"), (GATES_1Q["z"], "x"), (u, "h")]))
            gates.append(Gate1Q(draw(st.integers(1, n)), matrix, name))
        elif kind == "2q":
            phases = np.exp(1j * np.array([draw(_angles) for _ in range(4)]))
            choices = [(np.diag(phases), None), (GATES_2Q["cnot"], "cnot"), (GATES_2Q["cz"], "swap")]
            matrix, name = draw(st.sampled_from(choices))
            gates.append(Gate2Q(draw(st.integers(1, n - 1)), matrix, name))
        else:
            gates.append(SwapGate(draw(st.integers(1, n - 1))))
    return PhysicalCircuit(n, tuple(gates)) if physical else LogicalCircuit(n, tuple(gates))


@settings(max_examples=150, deadline=None)
@given(_circuits())
def test_dumps_matches_json_module_on_generated_circuits(circuit):
    _assert_dumps_matches_oracle(circuit)
