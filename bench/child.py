"""Child processes of the spacerq benchmark, and the tracer they can run under.

    python3 bench/child.py [--spans FILE --run-id ID] cli ARGV...
    python3 bench/child.py [--spans FILE --run-id ID] roundtrip CIRCUIT M
    python3 bench/child.py --spans FILE --run-id ID probe SPEC_JSON

``cli`` runs spacerq's command-line entry point in this process;
``roundtrip`` runs the four library calls of the compile round trip and
prints a summary for the output check; ``probe`` times single layer
calls at a workload's size and then runs every workload at smoke size,
so each layer has a span on every workload.

With ``--spans`` the public functions of the package's layer modules are
wrapped before anything runs.  A call opens a span when it crosses into
a layer from outside it, or when it is one of NAMED (the calls the
per-layer metrics report).  Spans stay in memory and are written as
JSON lines when the process ends, together with the counts taken at the
same boundaries.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("circuits", "encoder", "simulator", "analysis", "cli")
NAMED = (
    "circuits.loads_circuit",
    "circuits.dumps_circuit",
    "encoder.compile_circuit",
    "simulator.run",
    "simulator.run_compressed",
    "simulator.apply_gate",
    "analysis.sandwich_quality",
    "analysis.run_sweep",
    "analysis.fit_axis",
    "cli.main",
)

DENSE_PROBE_STEPS = 10
COMPRESSED_PROBE_STEPS = 10
PROBE_REPEATS = 5


# --- counts taken at the layer boundaries --------------------------------------


def _gate_count(circuit) -> int:
    from spacerq.circuits import WaitGate

    return sum(not isinstance(g, WaitGate) for g in circuit.gates)


def _state_mb(n: int) -> float:
    return 16 * 2**n / 1e6


def _count_run(counts, args, result) -> None:
    circuit = args[0]
    counts["simulator.error_steps"] += result.steps_executed
    counts["simulator.gates_applied"] += _gate_count(circuit)
    counts["simulator.state_mb"] = max(counts["simulator.state_mb"], _state_mb(result.final.n))


def _count_run_compressed(counts, args, result) -> None:
    circuit = args[0]
    counts["simulator.error_steps"] += circuit.step_count
    counts["simulator.gates_applied"] += _gate_count(circuit)
    counts["simulator.state_mb"] = max(counts["simulator.state_mb"], _state_mb(result.n))


def _count_apply_gate(counts, args, result) -> None:
    counts["simulator.gates_applied"] += 1


def _count_loads(counts, args, result) -> None:
    counts["circuits.ops"] += len(result.gates)
    counts["circuits.json_mb"] += len(args[0]) / 1e6


def _count_dumps(counts, args, result) -> None:
    counts["circuits.ops"] += len(args[0].gates)
    counts["circuits.json_mb"] += len(result) / 1e6


COUNTERS = {
    "simulator.run": _count_run,
    "simulator.run_compressed": _count_run_compressed,
    "simulator.apply_gate": _count_apply_gate,
    "circuits.loads_circuit": _count_loads,
    "circuits.dumps_circuit": _count_dumps,
}


# --- tracer -------------------------------------------------------------------


class Tracer:
    """In-memory spans: [name, start, end, parent index, run id]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[int, str]] = []  # (span index, layer) of open spans

    def wrap(self, layer: str, qualname: str, fn):
        named = qualname in NAMED
        counter = COUNTERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not named and self._open and self._open[-1][1] == layer:
                return fn(*args, **kwargs)
            parent = self._open[-1][0] if self._open else None
            span = [qualname, 0.0, 0.0, parent, self.run_id]
            self.spans.append(span)
            self._open.append((len(self.spans) - 1, layer))
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the layer modules, wherever it is bound."""
        import spacerq  # noqa: F401  (loads every module)

        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spacerq.{layer}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    wrapped[obj] = self.wrap(layer, f"{layer}.{attr}", obj)
        missing = set(NAMED) - {f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}" for fn in wrapped}
        if missing:
            raise RuntimeError(f"layer functions not found: {sorted(missing)}")
        for name, module in list(sys.modules.items()):
            if name == "spacerq" or name.startswith("spacerq."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrapped:
                        setattr(module, attr, wrapped[obj])

    def write(self, path: Path, extra: dict | None = None) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"run": run_id, "id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"run": self.run_id, "counts": dict(self.counts), **(extra or {})}) + "\n")


# --- what the child runs ------------------------------------------------------


def run_cli(argv: list[str]) -> int:
    from spacerq import cli

    return cli.main(argv)


def roundtrip(circuit_path: str, m: int) -> dict:
    """loads, compile, dumps, physical loads; then the exact round-trip check."""
    from spacerq import circuits, encoder

    text = Path(circuit_path).read_text(encoding="utf-8")
    logical = circuits.loads_circuit(text)
    physical, _ = encoder.compile_circuit(logical, encoder.EncodingParams(m))
    dumped = circuits.dumps_circuit(physical)
    reloaded = circuits.loads_circuit(dumped, physical=True)
    counts = Counter()
    for g in physical.gates:
        counts[{"Gate1Q": "1q", "Gate2Q": "2q", "SwapGate": "swap"}.get(type(g).__name__, "other")] += 1
    return {
        "n_sites": physical.n_sites,
        "step_count": physical.step_count,
        "ops": len(physical.gates),
        "counts": dict(counts),
        "roundtrip_equal": reloaded == physical,
        "reloaded_step_count": reloaded.step_count,
    }


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probe(spec: dict, workdir: Path, tracer: Tracer) -> dict:
    """Layer probes at the workload's size, then every workload at smoke size.

    Spans of the probes carry the run id suffix ``-probe``, those of the
    smoke workloads ``-smoke``.
    """
    import numpy as np

    from spacerq.circuits import Gate1Q, Gate2Q, LogicalCircuit, PhysicalCircuit, SwapGate, WaitGate
    from spacerq.encoder import EncodingParams, compile_circuit
    from spacerq.interactions import CouplingLaw, RegisterLayout
    from spacerq.simulator import ErrorModel, StateVector, apply_gate, run, run_compressed

    import workloads

    n, L, m = spec["n"], spec["L"], spec["m"]
    law = CouplingLaw(spec["delta"])
    model = ErrorModel(law, RegisterLayout(n))
    state = StateVector.uniform(n)
    run_id = tracer.run_id
    tracer.run_id = f"{run_id}-probe"
    out = {}
    # first: a cold one-step run, which pays for the phase-table build
    t0 = time.perf_counter()
    run(PhysicalCircuit(n, (WaitGate(1),)), model, state)
    out["simulator.first_run_s"] = time.perf_counter() - t0
    idle = PhysicalCircuit(n, (WaitGate(DENSE_PROBE_STEPS),))
    out["simulator.dense_step_ms"] = 1e3 * _median_time(lambda: run(idle, model, state), 3) / DENSE_PROBE_STEPS
    rng = np.random.default_rng(spec["seed"])
    site = max(1, n // 2)
    gates = {
        "1q": Gate1Q(site, workloads.random_unitary(rng, 2)),
        "2q": Gate2Q(site, workloads.random_unitary(rng, 4)),
        "swap": SwapGate(site),
    }
    for kind, gate in gates.items():
        out[f"simulator.apply_gate_{kind}_ms"] = 1e3 * _median_time(lambda: apply_gate(state, gate), PROBE_REPEATS)
    encoded, _ = compile_circuit(LogicalCircuit(L, (WaitGate(COMPRESSED_PROBE_STEPS),)), EncodingParams(m))
    cmodel = ErrorModel(law, RegisterLayout(encoded.n_sites))
    logical = StateVector.uniform(L)
    out["simulator.compressed_step_ms"] = 1e3 * _median_time(
        lambda: run_compressed(encoded, cmodel, EncodingParams(m), logical), 3
    ) / COMPRESSED_PROBE_STEPS

    tracer.run_id = f"{run_id}-smoke"
    problems = []
    for name in workloads.NAMES:
        prep = workloads.prepare(name, spec["seed"], workdir, smoke=True)
        problems += [f"smoke {name}: {p}" for p in workloads.check_output(prep, execute(prep))]
    out["problems"] = problems
    tracer.run_id = run_id
    return out


def execute(prep) -> str:
    """Run a prepared workload in this process and return its output text."""
    if prep.kind == "roundtrip":
        return json.dumps(roundtrip(prep.argv[0], int(prep.argv[1])))
    stdout, stderr = prep.output.with_suffix(".stdout"), prep.output.with_suffix(".stderr")
    with stdout.open("w", encoding="utf-8") as out, stderr.open("w", encoding="utf-8") as err:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_cli(prep.argv)
    if code != 0:
        raise RuntimeError(f"{prep.name} exited with {code}")
    return (prep.output if "--output" in prep.argv else stdout).read_text(encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spans", type=Path, default=None, help="trace, and write spans here at exit")
    parser.add_argument("--run-id", default="run")
    parser.add_argument("mode", choices=("cli", "roundtrip", "probe"))
    parser.add_argument("rest", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.spans is not None:
        tracer = Tracer(args.run_id)
        tracer.install()
    extra = None
    if args.mode == "cli":
        code = run_cli(args.rest)
    elif args.mode == "roundtrip":
        print(json.dumps(roundtrip(args.rest[0], int(args.rest[1]))))
        code = 0
    else:
        if tracer is None:
            parser.error("probe needs --spans")
        spec = json.loads(args.rest[0])
        extra = {"probe": probe(spec, args.spans.parent / "smoke", tracer)}
        code = 0
    if tracer is not None:
        tracer.write(args.spans, extra)
    return code


if __name__ == "__main__":
    sys.exit(main())
