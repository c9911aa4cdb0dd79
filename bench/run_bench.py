"""spacerq benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run_bench.py                       # every workload, table of all metrics
    python3 bench/run_bench.py --workload dense_idle --seed 3 --seconds 25 --trace 0

Every repetition is a fresh process, so each pays for the import and for
any cache the package builds; nothing carries over between repetitions.
Repetitions of one workload run one at a time (closed loop, one client)
until ``--seconds`` is used up, at least MIN_REPS of them.  Every output
is checked (see workloads.py); a failed check or a nonzero exit counts
as a failed repetition and makes this command exit 1.

``--trace 0`` reports the end-to-end metrics of untraced repetitions,
with times in units of a fixed yardstick process (see END_TO_END).
``--trace 1`` runs untraced repetitions for half the time, then one
traced repetition and one traced probe process (child.py), and reports
the per-layer metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Child processes get OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1, so
CPU time equals wall time; each result records them and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINNED)  # before numpy loads: no BLAS threads spinning beside a child

import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
MIN_REPS = 3
MIN_SETUPS = 7
SETUP_CODE = "import spacerq.cli"
# The host-speed yardstick: a fresh process that imports numpy, runs array and interpreter work
# like the workloads' and touches no spacerq code, so no change to the package can move it.
CAL_CODE = (
    "import numpy\n"
    "a = numpy.ones(1 << 18, complex)\n"
    "for _ in range(150):\n    a = a * 1.0000001\n"
    "s = 0\n"
    "for i in range(600000):\n    s += i * i\n"
)
ENTRY_CODE = "import sys; from spacerq.cli import main; sys.exit(main(sys.argv[1:]))"

# Gated end-to-end metrics.  Times other than setup_s are in cal: each repetition's wall time
# is divided by the mean of the CAL_CODE runs just before and just after it.  A shared host
# can drift in speed by 15-30% from minute to minute; the program and the yardstick slow down
# together, so their ratio holds where the seconds do not.
END_TO_END = {
    "wall_cal": "cal",
    "setup_s": "s",
    "steps_per_cal": "1/cal",
    "ops_per_cal": "1/cal",
    "peak_rss_mb": "MB",
}
# Printed and recorded beside them: the same figures in seconds, and the yardstick.
RAW = {"wall_s": "s", "steps_per_s": "1/s", "ops_per_s": "1/s", "cal_s": "s"}
PER_LAYER = {
    "simulator.first_run_s": "s",
    "simulator.run_s": "s",
    "simulator.dense_step_ms": "ms",
    "simulator.apply_gate_1q_ms": "ms",
    "simulator.apply_gate_2q_ms": "ms",
    "simulator.apply_gate_swap_ms": "ms",
    "simulator.run_compressed_s": "s",
    "simulator.compressed_step_ms": "ms",
    "analysis.sandwich_quality_s": "s",
    "analysis.run_sweep_s": "s",
    "analysis.fit_axis_s": "s",
    "circuits.loads_s": "s",
    "circuits.dumps_s": "s",
    "encoder.compile_s": "s",
    "cli.residual_s": "s",
    "simulator.error_steps": "count",
    "simulator.gates_applied": "count",
    "simulator.state_mb": "MB",
    "circuits.ops": "count",
    "circuits.json_mb": "MB",
    "trace.overhead_s": "s",
}
# per-layer span metric -> traced function whose self time it sums
SPAN_METRICS = {
    "simulator.run_s": "simulator.run",
    "simulator.run_compressed_s": "simulator.run_compressed",
    "analysis.sandwich_quality_s": "analysis.sandwich_quality",
    "analysis.run_sweep_s": "analysis.run_sweep",
    "analysis.fit_axis_s": "analysis.fit_axis",
    "circuits.loads_s": "circuits.loads_circuit",
    "circuits.dumps_s": "circuits.dumps_circuit",
    "encoder.compile_s": "encoder.compile_circuit",
}


@dataclass
class Rep:
    wall_s: float
    maxrss_kb: int
    code: int
    problems: list[str]


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(cmd: list[str], stdout: Path, stderr: Path) -> tuple[float, int, int]:
    """Run one child to exit: (wall seconds from start to exit, peak RSS in KiB, exit code)."""
    with stdout.open("wb") as out, stderr.open("wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            os.waitpid(proc.pid, 0)
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def program_cmd(prep: workloads.Prepared, spans: Path | None = None) -> list[str]:
    traced = ["--spans", str(spans), "--run-id", f"{prep.name}-{prep.seed}"] if spans else []
    if prep.kind == "roundtrip":
        return [sys.executable, str(BENCH_DIR / "child.py"), *traced, "roundtrip", *prep.argv]
    if spans:
        return [sys.executable, str(BENCH_DIR / "child.py"), *traced, "cli", *prep.argv]
    return [sys.executable, "-c", ENTRY_CODE, *prep.argv]


def run_rep(prep: workloads.Prepared, spans: Path | None = None) -> Rep:
    """One repetition in a fresh process, then its output check."""
    out = prep.output
    stdout = out.with_suffix(".stdout") if "--output" in prep.argv else out
    if out.exists():
        out.unlink()
    wall, rss, code = spawn(program_cmd(prep, spans), stdout, out.with_suffix(".stderr"))
    if code != 0:
        err = out.with_suffix(".stderr").read_text(encoding="utf-8", errors="replace").strip()
        return Rep(wall, rss, code, [f"exit code {code}: {err[-500:]}"])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return Rep(wall, rss, code, workloads.check_output(prep, text))


def time_import(code: str) -> float:
    """Wall time of a fresh process that only runs ``code`` (an import)."""
    wall, _, status = spawn([sys.executable, "-c", code], WORK / "import.stdout", WORK / "import.stderr")
    if status != 0:
        raise RuntimeError(f"{code!r} failed: {(WORK / 'import.stderr').read_text()[-500:]}")
    return wall


def untraced(prep: workloads.Prepared, budget_s: float) -> tuple[list[Rep], list[float], list[float]]:
    """Closed loop of repetitions until the budget is spent.

    Before each repetition: one yardstick process and one set-up probe;
    one more yardstick after the last, so every repetition has one on
    each side.
    """
    time_import(SETUP_CODE)  # untimed: fills the bytecode cache once per checkout
    reps: list[Rep] = []
    setups: list[float] = []
    cals: list[float] = []
    start = time.perf_counter()
    while True:
        cals.append(time_import(CAL_CODE))
        setups.append(time_import(SETUP_CODE))
        reps.append(run_rep(prep))
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + reps[-1].wall_s > budget_s:
            break
    cals.append(time_import(CAL_CODE))
    while len(setups) < MIN_SETUPS:
        setups.append(time_import(SETUP_CODE))
    return reps, setups, cals


def end_to_end(prep: workloads.Prepared, reps: list[Rep], setups: list[float], cals: list[float]) -> dict:
    """Medians of the gated metrics (times in cal) and of the same figures in seconds (RAW)."""
    walls = [r.wall_s for r in reps]
    setup = statistics.median(setups)
    around = [(before + after) / 2 for before, after in zip(cals, cals[1:])]
    work_cal = [(w - setup) / c for w, c in zip(walls, around)]
    wall = statistics.median(walls)
    return {
        "wall_cal": statistics.median(w / c for w, c in zip(walls, around)),
        "setup_s": setup,
        "steps_per_cal": statistics.median(prep.steps / t for t in work_cal),
        "ops_per_cal": statistics.median(prep.ops / t for t in work_cal),
        "peak_rss_mb": statistics.median(r.maxrss_kb for r in reps) * 1024 / 1e6,
        "wall_s": wall,
        "steps_per_s": prep.steps / (wall - setup),
        "ops_per_s": prep.ops / (wall - setup),
        "cal_s": statistics.median(cals),
    }


def read_spans(path: Path) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return lines[:-1], lines[-1]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per traced function: span duration minus the time its direct child spans cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + own
    return totals


def outside_cli(spans: list[dict]) -> float:
    """Time spent in the non-cli layers: spans whose parent is a cli span or none."""
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for s in spans:
        parent = by_id.get(s["parent"])
        if not s["name"].startswith("cli.") and (parent is None or parent["name"].startswith("cli.")):
            total += s["end"] - s["start"]
    return total


def per_layer(prep: workloads.Prepared, e2e: dict, traced: Rep, spans_path: Path, probe_path: Path) -> dict:
    spans, summary = read_spans(spans_path)
    probe_spans, probe_summary = read_spans(probe_path)
    smoke = [s for s in probe_spans if s["run"].endswith("-smoke")]
    totals = self_times(spans)
    smoke_totals = self_times(smoke)
    metrics = {name: totals.get(fn, 0.0) + smoke_totals.get(fn, 0.0) for name, fn in SPAN_METRICS.items()}
    probe = probe_summary["probe"]
    metrics.update({k: v for k, v in probe.items() if k in PER_LAYER})
    # from the traced repetition's own wall time: host speed drifts between repetitions
    metrics["cli.residual_s"] = traced.wall_s - e2e["setup_s"] - outside_cli(spans)
    counts = summary["counts"]
    for name in ("simulator.error_steps", "simulator.gates_applied", "simulator.state_mb",
                 "circuits.ops", "circuits.json_mb"):
        metrics[name] = counts.get(name, 0)
    metrics["trace.overhead_s"] = traced.wall_s - e2e["wall_s"]
    return metrics


def environment() -> dict:
    def git_rev() -> str | None:
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                                 env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except OSError:
            return None
        return out.stdout.strip() or None

    import numpy

    return {
        **PINNED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": git_rev(),
        "loadavg": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    workdir = WORK / f"{name}-{seed}"
    prep = workloads.prepare(name, seed, workdir, smoke=smoke)
    reps, setups, cals = untraced(prep, seconds / 2 if trace else seconds)
    all_reps = list(reps)
    e2e = end_to_end(prep, reps, setups, cals)
    result = {
        "workload": name,
        "seed": seed,
        "sizes": prep.sizes,
        "delta": prep.delta,
        "command": ["spacerq", *prep.argv] if prep.kind == "cli" else ["bench/child.py", "roundtrip", *prep.argv],
        "why": workloads.WHY[name],
        "steps_per_rep": prep.steps,
        "ops_per_rep": prep.ops,
        "reps": [r.wall_s for r in reps],
        "setups": setups,
        "cals": cals,
        "end_to_end": e2e,
        "env": environment(),
    }
    if trace:
        spans = workdir / "spans.jsonl"
        traced = run_rep(prep, spans)
        probe_spans = workdir / "probe_spans.jsonl"
        spec = json.dumps({**prep.probe, "seed": seed})
        wall, rss, code = spawn(
            [sys.executable, str(BENCH_DIR / "child.py"), "--spans", str(probe_spans),
             "--run-id", f"{name}-{seed}", "probe", spec],
            workdir / "probe.stdout", workdir / "probe.stderr",
        )
        problems = [] if code == 0 else [f"probe exit code {code}: {(workdir / 'probe.stderr').read_text()[-500:]}"]
        if code == 0:
            problems += read_spans(probe_spans)[1]["probe"]["problems"]
        all_reps += [traced, Rep(wall, rss, code, problems)]
        if traced.code == 0 and code == 0:
            result["per_layer"] = per_layer(prep, e2e, traced, spans, probe_spans)
    result["attempted"] = len(all_reps)
    result["failed"] = sum(1 for r in all_reps if r.code != 0 or r.problems)
    result["problems"] = [p for r in all_reps for p in r.problems]
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    return result


def report(result: dict, trace: bool) -> dict:
    """Print one workload's metrics with units; return the contract's JSON object."""
    units = PER_LAYER if trace else END_TO_END
    values = result.get("per_layer", {}) if trace else result["end_to_end"]
    print(f"== {result['workload']} (seed {result['seed']}, {len(result['reps'])} untraced reps)")
    print(f"   command: {' '.join(result['command'])}")
    for name, unit in ({} if trace else RAW).items():
        print(f"   {name:32s} {result['end_to_end'][name]:14.6g} {unit}")
    for name, unit in units.items():
        if name in values:
            print(f"   {name:32s} {values[name]:14.6g} {unit}")
    print(f"   {'failed_frac':32s} {result['failed'] / result['attempted']:14.6g} "
          f"({result['failed']} of {result['attempted']})")
    for p in result["problems"]:
        print(f"   FAILED: {p}")
    print(f"   env: {json.dumps(result['env'])}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="spacerq benchmark")
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload (default: every workload, untraced then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "spacerq" / "__init__.py").is_file():
        print(f"error: no spacerq sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the output checks call the package directly
    WORK.mkdir(exist_ok=True)

    if args.workload is not None:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        line = report(result, bool(args.trace))
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    lines = {}
    for trace in (False, True):
        for name in workloads.NAMES:
            result = measure(name, args.seed, args.seconds, trace, args.smoke)
            lines[f"{name}/trace{int(trace)}"] = report(result, trace)
    print(json.dumps(lines))
    return 0 if all(line["correct"] for line in lines.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
