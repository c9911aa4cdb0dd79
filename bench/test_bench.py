"""Tests of the benchmark itself, at smoke sizes (a few seconds each).

    python -m pytest bench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import child
import run_bench
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run_bench.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_harness():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [(n, workloads.WHY[n]) for n in workloads.NAMES]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run_bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run_bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(name, trace):
    proc = _bench("--smoke", "--workload", name, "--seed", "7", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= run_bench.MIN_REPS
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for metric, entry in last["metrics"].items():
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"]), metric
    if not trace:
        # at smoke size the run can take no longer than the import, so only these are positive
        assert all(last["metrics"][m]["value"] > 0 for m in ("wall_cal", "setup_s", "peak_rss_mb"))
    printed = ("wall_s", "setup_s", "steps_per_s", "ops_per_s", "peak_rss_mb", "failed_frac")
    for metric in printed if not trace else ("cli.residual_s", "failed_frac"):
        assert metric in proc.stdout


def test_without_sources_it_fails_before_measuring(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "dense_idle", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_inputs_depend_only_on_the_seed(tmp_path):
    texts = []
    for seed, sub in ((3, "a"), (3, "b"), (4, "c")):
        prep = workloads.prepare("dense_gates", seed, tmp_path / sub, smoke=True)
        texts.append((Path(prep.expected["circuit"]).read_text(), prep.delta))
    assert texts[0] == texts[1]
    assert texts[0] != texts[2]


def test_sandwich_closed_form_two_qubits():
    # at m = 1 and L = 2 the sandwich gives cos(T delta / 2)^2 exactly
    for T, delta in ((7, 0.01), (40, 0.2)):
        assert workloads.sandwich_closed_form(2, 1, T, delta) == pytest.approx(math.cos(T * delta / 2) ** 2, abs=1e-14)


def _corrupt(name: str, text: str) -> str:
    if name == "dense_gates":
        doc = json.loads(text)
        doc["amplitudes"][0][0] += 1e-6
        return json.dumps(doc)
    if name == "dense_idle":
        doc = json.loads(text)
        doc["Q"] *= 1 + 1e-8
        return json.dumps(doc)
    if name == "compressed_sweep":
        lines = text.splitlines()
        fields = lines[2].split(",")
        fields[4] = f"{float(fields[4]) * (1 + 1e-8):.11e}"
        lines[2] = ",".join(fields)
        return "\n".join(lines) + "\n"
    doc = json.loads(text)
    doc["step_count"] += 1
    return json.dumps(doc)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_corrupted_output_fails_its_check(name, tmp_path):
    prep = workloads.prepare(name, 11, tmp_path, smoke=True)
    text = child.execute(prep)
    assert workloads.check_output(prep, text) == []
    assert workloads.check_output(prep, _corrupt(name, text)) != []
    assert workloads.check_output(prep, "") != []


def test_spacers_must_be_clean(tmp_path):
    prep = workloads.prepare("dense_gates", 2, tmp_path, smoke=True)
    doc = json.loads(child.execute(prep))
    doc["spacers_clean"][-1] = False
    assert workloads.check_output(prep, json.dumps(doc)) != []


def test_self_time_subtracts_direct_children():
    spans = [
        {"id": 0, "name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
        {"id": 1, "name": "analysis.run_sweep", "start": 1.0, "end": 9.0, "parent": 0},
        {"id": 2, "name": "analysis.sandwich_quality", "start": 2.0, "end": 8.0, "parent": 1},
        {"id": 3, "name": "simulator.run_compressed", "start": 3.0, "end": 7.0, "parent": 2},
    ]
    assert run_bench.self_times(spans) == {
        "cli.main": 2.0, "analysis.run_sweep": 2.0, "analysis.sandwich_quality": 2.0, "simulator.run_compressed": 4.0,
    }
    assert run_bench.outside_cli(spans) == 8.0


def test_tracer_opens_spans_only_at_layer_boundaries_and_named_calls():
    tracer = child.Tracer("t")
    inner = tracer.wrap("encoder", "encoder.data_position", lambda: None)
    named = tracer.wrap("encoder", "encoder.compile_circuit", lambda: inner())
    outer = tracer.wrap("analysis", "analysis.spacer_phase_rate", lambda: (named(), inner()))
    outer()
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("analysis.spacer_phase_rate", None),
        ("encoder.compile_circuit", 0),
        ("encoder.data_position", 0),
    ]


def test_unitaries_are_unitary():
    u = workloads.random_unitary(np.random.default_rng(0), 4)
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-13)
