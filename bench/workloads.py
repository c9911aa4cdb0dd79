"""Workload definitions for the spacerq benchmark: seeded inputs and output checks.

Every workload is a closed loop (one client, one repetition at a time).
Inputs are made from the workload seed only; the program under test sees
the files written here and its argv, nothing else.  The output checks
use references that do not run the timed code path: closed forms for
the idle benchmarks, the compressed engine for the dense gate run, and
counts taken from the generator for the compile round trip.

The sizes in FULL are the benchmark; SMOKE holds the same workloads at
L = 3-4 so the benchmark's own tests finish in seconds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NAMES = ("dense_gates", "dense_idle", "compressed_sweep", "compile_roundtrip")

WHY = {
    "dense_gates": "gate-heavy dense engine: every gate runs a 1q/2q kernel or swap, then an error step and a spacer check; no waits, no compressed engine",
    "dense_idle": "same dense engine with no gates: 300 idle error steps on 18 sites; wait collapse and phasor caching show here, kernel changes do not",
    "compressed_sweep": "only workload on run_compressed and analysis: six sandwich points, 1440 idle steps over 2^14 logical amplitudes",
    "compile_roundtrip": "circuits and encoder do all the work and nothing is simulated: JSON load, compile at m = 8, dump and physical reload",
}

# Per workload: logical qubits L, dilution m (a range for the sweep),
# logical idle steps P, and gates per kind (H, random 1q, CNOT, random 2q).
FULL = {
    "dense_gates": {"L": 9, "m": 2, "gates_per_kind": 25},
    "dense_idle": {"L": 9, "m": 2, "P": 100},
    "compressed_sweep": {"L": 14, "m": [1, 6], "P": 40},
    "compile_roundtrip": {"L": 16, "m": 8, "gates_per_kind": 5000},
}
SMOKE = {
    "dense_gates": {"L": 3, "m": 2, "gates_per_kind": 3},
    "dense_idle": {"L": 3, "m": 2, "P": 5},
    "compressed_sweep": {"L": 3, "m": [1, 3], "P": 5},
    "compile_roundtrip": {"L": 4, "m": 3, "gates_per_kind": 10},
}

Q_TOL = 1e-10  # closed-form and cross-engine agreement; the sweep CSV's 12 digits are well inside it


@dataclass
class Prepared:
    """A workload instance: what to run, what it computes, how much work it is."""

    name: str
    seed: int
    sizes: dict
    delta: float | None
    kind: str  # "cli" (argv for spacerq's main) or "roundtrip"
    argv: list[str]
    output: Path  # file the program's result lands in (stdout or --output)
    steps: int  # basic steps simulated or compiled per repetition
    ops: int  # physical ops simulated or round-tripped per repetition
    probe: dict  # sizes for the traced run's layer probes
    expected: dict = field(default_factory=dict)


# --- inputs -------------------------------------------------------------------


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _matrix_entry(u: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in u.reshape(-1)]


def logical_circuit_doc(rng: np.random.Generator, n_logical: int, per_kind: int) -> dict:
    """Exactly ``per_kind`` each of H, random 1q, CNOT and random 2q, shuffled.

    Fixed kind counts keep the work per repetition independent of the
    seed; the seed picks order, targets and matrices.
    """
    kinds = rng.permutation(np.repeat(np.arange(4), per_kind))
    gates = []
    for kind in kinds:
        if kind < 2:
            entry: dict = {"op": "1q", "target": int(rng.integers(1, n_logical + 1))}
        else:
            k = int(rng.integers(1, n_logical))
            entry = {"op": "2q", "target": [k, k + 1]}
        if kind == 0:
            entry["name"] = "h"
        elif kind == 2:
            entry["name"] = "cnot"
        else:
            entry["matrix"] = _matrix_entry(random_unitary(rng, 2 if kind == 1 else 4))
        gates.append(entry)
    return {"qubits": n_logical, "gates": gates}


def _seed_delta(rng: np.random.Generator) -> float:
    # nearest-neighbour phase per step; the cost does not depend on it
    return round(float(rng.uniform(0.005, 0.01)), 6)


def prepare(name: str, seed: int, workdir: Path, *, smoke: bool = False) -> Prepared:
    """Write the workload's inputs under ``workdir`` and describe the run."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    sizes = dict((SMOKE if smoke else FULL)[name])
    rng = np.random.default_rng([seed, NAMES.index(name)])
    workdir.mkdir(parents=True, exist_ok=True)
    L = sizes["L"]
    output = workdir / f"{name}.out"

    if name == "dense_gates":
        m, per_kind = sizes["m"], sizes["gates_per_kind"]
        delta = _seed_delta(rng)
        doc = logical_circuit_doc(rng, L, per_kind)
        circuit = workdir / f"{name}.json"
        circuit.write_text(json.dumps(doc), encoding="utf-8")
        n1q, n2q = 2 * per_kind, 2 * per_kind
        steps = n1q + (2 * m - 1) * n2q
        argv = ["run", "--input", str(circuit), "--engine", "full", "--m", str(m),
                "--delta", repr(delta), "--format", "json", "--output", str(output)]
        return Prepared(name, seed, sizes, delta, "cli", argv, output, steps, steps,
                        {"n": m * L, "L": L, "m": m, "delta": delta},
                        {"circuit": str(circuit), "m": m, "steps": steps})

    if name == "dense_idle":
        m, P = sizes["m"], sizes["P"]
        delta = _seed_delta(rng)
        T = (2 * m - 1) * P
        argv = ["run", "--benchmark", "sandwich", "--engine", "full", "--L", str(L), "--m", str(m),
                "--P", str(P), "--delta", repr(delta), "--format", "json"]
        return Prepared(name, seed, sizes, delta, "cli", argv, output, T, 1,
                        {"n": m * L, "L": L, "m": m, "delta": delta},
                        {"Q": sandwich_closed_form(L, m, T, delta)})

    if name == "compressed_sweep":
        lo, hi = sizes["m"]
        P = sizes["P"]
        delta = _seed_delta(rng)
        ms = list(range(lo, hi + 1))
        qs = {m: sandwich_closed_form(L, m, (2 * m - 1) * P, delta) for m in ms}
        steps = sum((2 * m - 1) * P for m in ms)
        argv = ["sweep", "--m", f"{lo}:{hi}", "--L", str(L), "--P", str(P), "--delta", repr(delta)]
        return Prepared(name, seed, sizes, delta, "cli", argv, output, steps, len(ms),
                        {"n": L, "L": L, "m": hi, "delta": delta},
                        {"L": L, "P": P, "delta": delta, "Q": qs})

    m, per_kind = sizes["m"], sizes["gates_per_kind"]
    doc = logical_circuit_doc(rng, L, per_kind)
    circuit = workdir / f"{name}.json"
    circuit.write_text(json.dumps(doc), encoding="utf-8")
    n1q, n2q = 2 * per_kind, 2 * per_kind
    ops = n1q + (2 * m - 1) * n2q
    expected = {"n_sites": m * L, "step_count": ops, "ops": ops,
                "counts": {"1q": n1q, "2q": n2q, "swap": 2 * (m - 1) * n2q}}
    return Prepared(name, seed, sizes, None, "roundtrip", [str(circuit), str(m)], output, ops, ops,
                    {"n": L, "L": L, "m": m, "delta": 0.01}, expected)


# --- references ---------------------------------------------------------------


def sandwich_closed_form(n_logical: int, m: int, wait_steps: int, delta: float) -> float:
    """Q = |2^-L sum_x exp(-i T phi_dd(x))|^2 with data qubits at their home sites.

    phi_dd sums delta / (m |k - l|)^3 over data pairs whose bits differ;
    the data-spacer phases are exactly what the benchmark undoes, and
    spacer-spacer pairs never differ.
    """
    idx = np.arange(1 << n_logical, dtype=np.int64)
    bits = [(idx >> (n_logical - k)) & 1 for k in range(1, n_logical + 1)]
    phi = np.zeros(1 << n_logical)
    for k in range(n_logical):
        for l in range(k + 1, n_logical):
            phi += delta / float(m * (l - k)) ** 3 * (bits[k] ^ bits[l])
    return float(abs(np.exp(-1j * wait_steps * phi).mean()) ** 2)


def _align(amps: np.ndarray) -> np.ndarray:
    k = int(np.argmax(np.abs(amps)))
    return amps * (amps[k].conjugate() / abs(amps[k]))


def compressed_reference(circuit_path: str, m: int, delta: float) -> np.ndarray:
    """Logical amplitudes of the dense-gate circuit from the compressed engine."""
    from spacerq.circuits import loads_circuit
    from spacerq.encoder import EncodingParams, compile_circuit
    from spacerq.interactions import CouplingLaw, RegisterLayout
    from spacerq.simulator import ErrorModel, StateVector, run_compressed

    logical = loads_circuit(Path(circuit_path).read_text(encoding="utf-8"))
    physical, _ = compile_circuit(logical, EncodingParams(m))
    model = ErrorModel(CouplingLaw(delta), RegisterLayout(physical.n_sites))
    final = run_compressed(physical, model, EncodingParams(m), StateVector.zero(logical.n_qubits))
    return final.amplitudes


# --- checks -------------------------------------------------------------------


def check_output(prep: Prepared, text: str) -> list[str]:
    """Problems with one repetition's output; empty when it is correct."""
    try:
        return _CHECKS[prep.name](prep, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]


def _check_dense_gates(prep: Prepared, text: str) -> list[str]:
    doc = json.loads(text)
    problems = []
    exp = prep.expected
    if doc["steps"] != exp["steps"]:
        problems.append(f"steps {doc['steps']} != {exp['steps']}")
    clean = doc["spacers_clean"]
    if not isinstance(clean, list) or len(clean) != exp["steps"] or not all(c is True for c in clean):
        problems.append("spacers not clean on every step")
    amps = np.array([complex(re, im) for re, im in doc["amplitudes"]])
    if "reference" not in exp:
        exp["reference"] = compressed_reference(exp["circuit"], exp["m"], prep.delta)
    ref = exp["reference"]
    if amps.shape != ref.shape:
        problems.append(f"{amps.size} logical amplitudes, expected {ref.size}")
    else:
        err = float(np.max(np.abs(_align(amps) - _align(ref))))
        if not err <= Q_TOL:
            problems.append(f"amplitudes differ from the compressed engine by {err:.3e}")
    return problems


def _check_dense_idle(prep: Prepared, text: str) -> list[str]:
    doc = json.loads(text)
    q, exp = doc["Q"], prep.expected["Q"]
    if not abs(q - exp) <= Q_TOL:
        return [f"Q = {q!r}, closed form {exp!r}"]
    return []


def _check_compressed_sweep(prep: Prepared, text: str) -> list[str]:
    lines = text.strip().splitlines()
    exp = prep.expected
    if lines[0] != "m,L,P,delta,Q,sigma_est":
        return [f"unexpected CSV header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(exp["Q"]):
        return [f"rows for m = {[r[0] for r in rows]}, expected {list(exp['Q'])}"]
    problems = []
    for r in rows:
        m, L, P, delta, q, sigma = int(r[0]), int(r[1]), int(r[2]), float(r[3]), float(r[4]), float(r[5])
        if (L, P, delta) != (exp["L"], exp["P"], exp["delta"]):
            problems.append(f"row m={m}: L, P, delta = {L}, {P}, {delta}")
        if not abs(q - exp["Q"][m]) <= Q_TOL:
            problems.append(f"row m={m}: Q = {q!r}, closed form {exp['Q'][m]!r}")
        elif not math.isclose(sigma, math.sqrt(-math.log(exp["Q"][m])), rel_tol=1e-8, abs_tol=1e-12):
            problems.append(f"row m={m}: sigma_est = {sigma!r} does not match Q")
    return problems


def _check_roundtrip(prep: Prepared, text: str) -> list[str]:
    doc = json.loads(text)
    problems = [] if doc["roundtrip_equal"] is True else ["loads(dumps(c)) != c"]
    for key, exp in prep.expected.items():
        if doc[key] != exp:
            problems.append(f"{key} = {doc[key]!r}, expected {exp!r}")
    if doc["reloaded_step_count"] != prep.expected["step_count"]:
        problems.append(f"reloaded step_count = {doc['reloaded_step_count']}")
    return problems


_CHECKS = {
    "dense_gates": _check_dense_gates,
    "dense_idle": _check_dense_idle,
    "compressed_sweep": _check_compressed_sweep,
    "compile_roundtrip": _check_roundtrip,
}
