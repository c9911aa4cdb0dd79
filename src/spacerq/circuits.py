"""Circuit IR shared by the rewrite pass and the simulator, plus JSON I/O.

Logical circuits hold one-qubit gates, nearest-neighbour two-qubit gates
and waits over L qubits; physical circuits additionally hold bare swaps
and address sites of the expanded register.  All indices are 1-based.
"""

from __future__ import annotations

import json
import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import CircuitFormatError, UnsupportedGateError

_UNITARY_TOL = 1e-12
_EYE = {2: np.eye(2), 4: np.eye(4)}
# np.allclose(M^H M, I, atol=_UNITARY_TOL) with its default rtol, written out: |M^H M - I| <= atol + rtol |I|
_UNITARY_BOUND = {dim: _UNITARY_TOL + 1e-5 * eye for dim, eye in _EYE.items()}

# Every matrix that passed the unitarity check, by id; all of them are read-only gate copies.
_CHECKED: weakref.WeakValueDictionary[int, np.ndarray] = weakref.WeakValueDictionary()


def _check_unitary(matrix: np.ndarray, dim: int) -> np.ndarray:
    """A read-only unitary copy of ``matrix``; a matrix this function returned is reused as is."""
    if _CHECKED.get(id(matrix)) is matrix and matrix.shape == (dim, dim):
        return matrix
    owner = np.array(matrix, dtype=complex)
    if owner.shape != (dim, dim):
        raise ValueError(f"matrix must be {dim}x{dim}, got {owner.shape}")
    if not (abs(owner.conj().T @ owner - _EYE[dim]) <= _UNITARY_BOUND[dim]).all():
        raise ValueError("matrix is not unitary")
    m = np.frombuffer(owner.tobytes(), complex).reshape(dim, dim)  # backed by bytes: never writeable
    _CHECKED[id(m)] = m
    return m


def _index(value, message: str) -> int:
    """``value`` as a plain int under the parser's rule: what ``operator.index`` takes, booleans excepted."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{message}, got {value!r}")


GATES_1Q: dict[str, np.ndarray] = {
    name: _check_unitary(u, 2)
    for name, u in {
        "h": np.array([[1, 1], [1, -1]]) / math.sqrt(2),
        "x": np.array([[0, 1], [1, 0]]),
        "z": np.diag([1, -1]),
    }.items()
}
GATES_2Q: dict[str, np.ndarray] = {
    name: _check_unitary(u, 4)
    for name, u in {
        "cz": np.diag([1, 1, 1, -1]),
        "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
        "swap": np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]),
    }.items()
}


class _UnitaryGate:
    """Shared body of ``Gate1Q`` and ``Gate2Q``, which differ only in the matrix size ``_DIM``."""

    _DIM: ClassVar[int]

    def __post_init__(self) -> None:
        qubit = _index(self.qubit, "qubit index must be an integer")
        if qubit < 1:
            raise ValueError("qubit index must be >= 1")
        object.__setattr__(self, "qubit", qubit)
        object.__setattr__(self, "matrix", _check_unitary(self.matrix, self._DIM))

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.qubit == other.qubit
            and self.name == other.name
            and (self.matrix is other.matrix or np.array_equal(self.matrix, other.matrix))
        )


@dataclass(frozen=True, eq=False)
class Gate1Q(_UnitaryGate):
    """Single-qubit unitary on qubit/site ``qubit``."""

    qubit: int
    matrix: np.ndarray
    name: str | None = None
    _DIM = 2


@dataclass(frozen=True, eq=False)
class Gate2Q(_UnitaryGate):
    """Two-qubit unitary on the adjacent pair (qubit, qubit + 1)."""

    qubit: int
    matrix: np.ndarray
    name: str | None = None
    _DIM = 4


@dataclass(frozen=True)
class SwapGate:
    """Bare swap of adjacent sites (site, site + 1); physical circuits only."""

    site: int

    def __post_init__(self) -> None:
        site = _index(self.site, "site index must be an integer")
        if site < 1:
            raise ValueError("site index must be >= 1")
        object.__setattr__(self, "site", site)


@dataclass(frozen=True)
class WaitGate:
    """Idle for ``steps`` basic gate times; each one is an error step."""

    steps: int

    def __post_init__(self) -> None:
        steps = _index(self.steps, "steps must be a non-negative integer")
        if steps < 0:
            raise ValueError("steps must be a non-negative integer")
        object.__setattr__(self, "steps", steps)


Gate = Gate1Q | Gate2Q | SwapGate | WaitGate


class _Circuit:
    """Shared body of ``LogicalCircuit`` and ``PhysicalCircuit``: a register size and a gate tuple."""

    gates: tuple[Gate, ...]

    @property
    def step_count(self) -> int:
        """Serial step count: one per gate plus one per wait step."""
        return sum(g.steps if isinstance(g, WaitGate) else 1 for g in self.gates)

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and _register_size(self) == _register_size(other)
            and self.gates == other.gates
        )


@dataclass(frozen=True, eq=False)
class LogicalCircuit(_Circuit):
    """Gate list over L logical qubits; swaps are not a logical primitive."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        n_qubits = _index(self.n_qubits, "n_qubits must be an integer")
        if n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if isinstance(g, SwapGate):
                raise UnsupportedGateError("bare swaps exist only at the physical level")
            if isinstance(g, Gate1Q) and g.qubit > self.n_qubits:
                raise ValueError(f"gate on qubit {g.qubit} exceeds register of {self.n_qubits}")
            if isinstance(g, Gate2Q) and g.qubit + 1 > self.n_qubits:
                raise ValueError(f"pair gate at qubit {g.qubit} exceeds register of {self.n_qubits}")


@dataclass(frozen=True, eq=False)
class PhysicalCircuit(_Circuit):
    """Gate list over the physical register; sites are 1-indexed."""

    n_sites: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        n_sites = _index(self.n_sites, "n_sites must be an integer")
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if isinstance(g, Gate1Q) and g.qubit > self.n_sites:
                raise ValueError(f"gate on site {g.qubit} exceeds register of {self.n_sites}")
            if isinstance(g, Gate2Q) and g.qubit + 1 > self.n_sites:
                raise ValueError(f"pair gate at site {g.qubit} exceeds register of {self.n_sites}")
            if isinstance(g, SwapGate) and g.site + 1 > self.n_sites:
                raise ValueError(f"swap at site {g.site} exceeds register of {self.n_sites}")


# --- JSON circuit documents ---------------------------------------------
#
# {"qubits": N, "gates": [
#     {"op": "1q",   "target": k,            "name": "h" | "matrix": [[re,im] x 4]},
#     {"op": "2q",   "target": k | [k,k+1],  "name": "cz" | "matrix": [[re,im] x 16]},
#     {"op": "swap", "target": n | [n,n+1]},
#     {"op": "wait", "steps": t}]}
#
# An explicit "matrix" overrides "name".


def _matrix_from_json(raw, dim: int, i: int) -> np.ndarray:
    if type(raw) is list and len(raw) == dim * dim:
        try:
            pairs = np.array(raw)
        except ValueError:  # ragged nesting; reported below
            pairs = None
        # numbers only: np.array would also parse numeric strings, which complex(re, im) rejects
        if pairs is not None and pairs.shape == (dim * dim, 2) and pairs.dtype.kind in "biuf":
            return pairs.astype(float).view(complex).reshape(dim, dim)
    if len(raw) != dim * dim or any(len(pair) != 2 for pair in raw):
        raise CircuitFormatError(f"gate {i}: matrix must be a flat row-major list of {dim * dim} [re, im] pairs")
    return np.array([complex(re, im) for re, im in raw]).reshape(dim, dim)


def _matrix_from_entry(entry: dict, dim: int, i: int) -> tuple[np.ndarray, str | None]:
    name = entry.get("name")
    raw = entry.get("matrix")
    if raw is not None:
        return _matrix_from_json(raw, dim, i), name if isinstance(name, str) else None
    table = GATES_1Q if dim == 2 else GATES_2Q
    if name is None:
        raise CircuitFormatError(f"gate {i}: gate needs a 'name' or a 'matrix'")
    if name not in table:
        raise UnsupportedGateError(f"gate {i}: unknown gate name {name!r}")
    return table[name], name


def _target_pair(entry: dict, i: int) -> int:
    # exact type checks: a JSON boolean is a Python int but never an index
    t = entry.get("target")
    if type(t) is int:
        return t
    if type(t) is list and len(t) == 2 and type(t[0]) is int and type(t[1]) is int:
        if t[1] != t[0] + 1:
            raise CircuitFormatError(f"gate {i}: pair target must be adjacent, got {t}")
        return t[0]
    raise CircuitFormatError(f"gate {i}: target must be an int or an adjacent pair [k, k+1]")


def circuit_from_dict(doc: dict, *, physical: bool = False) -> LogicalCircuit | PhysicalCircuit:
    """Build a circuit from a parsed JSON document."""
    if not isinstance(doc, dict) or "qubits" not in doc or "gates" not in doc:
        raise CircuitFormatError("circuit document needs 'qubits' and 'gates' keys")
    n = doc["qubits"]
    if type(n) is not int or n < 1:
        raise CircuitFormatError("'qubits' must be a positive integer")
    if not isinstance(doc["gates"], list):
        raise CircuitFormatError("'gates' must be a list")
    gates: list[Gate] = []
    swaps: dict[int, SwapGate] = {}  # one immutable SwapGate per site
    for i, entry in enumerate(doc["gates"]):
        if not isinstance(entry, dict) or "op" not in entry:
            raise CircuitFormatError(f"gate {i}: each gate needs an 'op' key")
        op = entry["op"]
        try:
            if op == "swap":
                if not physical:
                    raise UnsupportedGateError(
                        f"gate {i}: bare swaps are physical-level; not valid in a logical circuit"
                    )
                site = _target_pair(entry, i)
                gate = swaps.get(site)
                if gate is None:
                    gate = swaps[site] = SwapGate(site)
            elif op == "1q":
                target = entry.get("target")
                if type(target) is not int:
                    raise CircuitFormatError(f"gate {i}: '1q' target must be an int")
                gate = Gate1Q(target, *_matrix_from_entry(entry, 2, i))
            elif op == "2q":
                target = _target_pair(entry, i)
                gate = Gate2Q(target, *_matrix_from_entry(entry, 4, i))
            elif op == "wait":
                steps = entry.get("steps")
                if type(steps) is not int or steps < 0:
                    raise CircuitFormatError(f"gate {i}: 'wait' needs a non-negative integer 'steps'")
                gate = WaitGate(steps)
            else:
                raise CircuitFormatError(f"gate {i}: unknown op {op!r}")
        except (ValueError, TypeError, OverflowError) as exc:  # OverflowError: a JSON int beyond float
            if isinstance(exc, (CircuitFormatError, UnsupportedGateError)):
                raise
            raise CircuitFormatError(f"gate {i}: {exc}") from exc
        gates.append(gate)
    if physical:
        return PhysicalCircuit(n, tuple(gates))
    return LogicalCircuit(n, tuple(gates))


def circuit_to_dict(circuit: LogicalCircuit | PhysicalCircuit) -> dict:
    """Serialise a circuit; named gates keep their name, others a [re, im] matrix."""
    return {"qubits": _register_size(circuit), "gates": [_gate_entry(g) for g in circuit.gates]}


def _register_size(circuit: LogicalCircuit | PhysicalCircuit) -> int:
    return circuit.n_sites if isinstance(circuit, PhysicalCircuit) else circuit.n_qubits


def _is_named(gate: Gate1Q | Gate2Q) -> bool:
    """True when the gate is written by its name: the name's table matrix is exactly its matrix."""
    table = GATES_1Q if isinstance(gate, Gate1Q) else GATES_2Q
    if gate.name is None or gate.name not in table:
        return False
    return gate.matrix is table[gate.name] or np.array_equal(table[gate.name], gate.matrix)


def _gate_entry(g: Gate) -> dict:
    if isinstance(g, SwapGate):
        return {"op": "swap", "target": [g.site, g.site + 1]}
    if not isinstance(g, (Gate1Q, Gate2Q)):
        return {"op": "wait", "steps": g.steps}
    if isinstance(g, Gate1Q):
        entry: dict = {"op": "1q", "target": g.qubit}
    else:
        entry = {"op": "2q", "target": [g.qubit, g.qubit + 1]}
    if _is_named(g):
        entry["name"] = g.name
    else:
        entry["matrix"] = [[z.real, z.imag] for z in g.matrix.reshape(-1)]
    return entry


def loads_circuit(text: str, *, physical: bool | None = False) -> LogicalCircuit | PhysicalCircuit:
    """Parse a circuit from JSON text, reporting line/column on bad JSON.

    ``physical=None`` reads a physical circuit when the document holds bare
    swaps and a logical one otherwise.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CircuitFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if physical is None:
        gates = doc.get("gates", []) if isinstance(doc, dict) else []
        physical = any(isinstance(g, dict) and g.get("op") == "swap" for g in gates)
    return circuit_from_dict(doc, physical=physical)


# dumps_circuit writes the layout of json.dumps(circuit_to_dict(c), indent=1) without building
# the dicts: a gate entry is an item of "gates", so its lines sit two spaces further in than in
# json.dumps(entry, indent=1).  A matrix pair [re, im] is written with float.__repr__, as json writes
# every finite float; the unitarity check keeps NaN and infinity out of gate matrices.
_PAIR = "    [\n     %r,\n     %r\n    ]"
_MATRIX = {dim: "[\n" + ",\n".join([_PAIR] * (dim * dim)) + "\n   ]\n  }" for dim in (2, 4)}


def _entry_text(entry: dict) -> str:
    return "  " + json.dumps(entry, indent=1).replace("\n", "\n  ")


def _gate_text(g: Gate, texts: dict) -> str:
    """The text of one gate entry; all but matrices are formatted once per key in ``texts``."""
    if isinstance(g, SwapGate):
        key: tuple = (SwapGate, g.site)
    elif isinstance(g, WaitGate):
        key = (WaitGate, g.steps)
    elif _is_named(g):
        key = (type(g), g.qubit, g.name)
    else:
        key = (type(g), g.qubit)
        head = texts.get(key)
        if head is None:
            head = texts[key] = _entry_text({**_gate_entry(g), "matrix": None})[: -len("null\n  }")]
        return head + _MATRIX[len(g.matrix)] % tuple(g.matrix.reshape(-1).view(float).tolist())
    text = texts.get(key)
    if text is None:
        text = texts[key] = _entry_text(_gate_entry(g))
    return text


def dumps_circuit(circuit: LogicalCircuit | PhysicalCircuit) -> str:
    """The circuit as JSON text, byte for byte ``json.dumps(circuit_to_dict(circuit), indent=1)``."""
    n = _register_size(circuit)
    if not circuit.gates:
        return json.dumps({"qubits": n, "gates": []}, indent=1)
    head, tail = json.dumps({"qubits": n, "gates": [None]}, indent=1).split("  null")
    texts: dict = {}
    return head + ",\n".join([_gate_text(g, texts) for g in circuit.gates]) + tail
