"""Command-line interface tests: contracts, formats and exit codes."""

import json
import math
import time

import pytest

from spacerq.cli import main

BELL = {
    "qubits": 2,
    "gates": [
        {"op": "1q", "target": 1, "name": "h"},
        {"op": "2q", "target": [1, 2], "name": "cnot"},
    ],
}


@pytest.fixture
def bell_path(tmp_path):
    p = tmp_path / "bell.json"
    p.write_text(json.dumps(BELL))
    return str(p)


def test_compile_emits_physical_circuit(bell_path, tmp_path, capsys):
    out = tmp_path / "phys.json"
    assert main(["compile", "--input", bell_path, "--m", "2", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["qubits"] == 4
    ops = [g["op"] for g in doc["gates"]]
    assert ops == ["1q", "swap", "2q", "swap"]
    err = capsys.readouterr().err
    assert "sites=4" in err and "step_bound=6" in err


def test_compile_to_stdout_is_parseable_json(bell_path, capsys):
    assert main(["compile", "--input", bell_path, "--m", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["qubits"] == 6


def test_compile_rejects_swap_ops_with_exit_3(tmp_path, capsys):
    p = tmp_path / "swap.json"
    p.write_text(json.dumps({"qubits": 2, "gates": [{"op": "swap", "target": [1, 2]}]}))
    assert main(["compile", "--input", str(p), "--m", "2"]) == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_json_exits_2_with_location(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"qubits": 2,\n "gates": [}]}')
    assert main(["run", "--input", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compile", "run"])
@pytest.mark.parametrize(
    "doc",
    [
        {"qubits": True, "gates": []},
        {"qubits": 2, "gates": [{"op": "1q", "target": True, "name": "h"}]},
        {"qubits": 2, "gates": [{"op": "2q", "target": [True, 2], "name": "cz"}]},
        {"qubits": 2, "gates": [{"op": "wait", "steps": True}]},
    ],
)
def test_json_booleans_are_not_integers_exit_2(doc, command, tmp_path, capsys):
    p = tmp_path / "bool.json"
    p.write_text(json.dumps(doc))
    assert main([command, "--input", str(p), "--m", "2"]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_parses_its_input_once(tmp_path, monkeypatch, capsys):
    phys = tmp_path / "phys.json"
    p = tmp_path / "bell.json"
    p.write_text(json.dumps(BELL))
    main(["compile", "--input", str(p), "--m", "2", "--output", str(phys)])
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(1) or loads(*a, **k))
    for path in (p, phys):
        calls.clear()
        assert main(["run", "--input", str(path), "--m", "2", "--solutions", "00,11"]) == 0
        assert "Q = 1.000000" in capsys.readouterr().out
        assert len(calls) == 1


def test_capacity_exits_4(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"qubits": 30, "gates": []}))
    assert main(["run", "--input", str(p)]) == 4
    capsys.readouterr()


def test_a_huge_register_exits_4_before_building_anything(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"qubits": 10**9, "gates": []}))
    for engine in ("full", "compressed"):
        start = time.perf_counter()
        assert main(["run", "--input", str(p), "--engine", engine]) == 4
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == "error: 1000000000 qubits exceeds the dense cap of 24\n"


def test_missing_input_file_exits_1(capsys):
    assert main(["run", "--input", "/nonexistent/c.json"]) == 1
    capsys.readouterr()


def test_run_reports_quality(bell_path, capsys):
    assert main(["run", "--input", bell_path, "--m", "2", "--solutions", "00,11"]) == 0
    out = capsys.readouterr().out
    assert "Q = 1.000000" in out
    assert "spacers = clean" in out
    assert "steps = 4" in out


def test_run_compressed_engine_matches_full(bell_path, capsys):
    args = ["run", "--input", bell_path, "--m", "2", "--delta", "0.05", "--solutions", "00,11", "--format", "json"]
    assert main(args + ["--engine", "full"]) == 0
    full = json.loads(capsys.readouterr().out)
    assert main(args + ["--engine", "compressed"]) == 0
    compressed = json.loads(capsys.readouterr().out)
    assert full["Q"] == pytest.approx(compressed["Q"], abs=1e-12)
    assert full["logical_qubits"] == compressed["logical_qubits"] == 2


def test_run_accepts_precompiled_physical_circuit(bell_path, tmp_path, capsys):
    out = tmp_path / "phys.json"
    main(["compile", "--input", bell_path, "--m", "2", "--output", str(out)])
    capsys.readouterr()
    assert main(["run", "--input", str(out), "--m", "2", "--solutions", "00,11"]) == 0
    assert "Q = 1.000000" in capsys.readouterr().out


def test_run_initial_bits_must_fit(bell_path, capsys):
    assert main(["run", "--input", bell_path, "--initial", "101"]) == 1
    capsys.readouterr()


def test_benchmark_sandwich_prints_sealed_quality(capsys):
    assert main(["run", "--benchmark", "sandwich", "--L", "2", "--m", "1", "--P", "10", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    # cos(10 * 0.01 / 2)^2 = 0.997502...
    assert "Q = 0.997502" in out
    assert "sigma_est = " in out


@pytest.mark.parametrize("sandwich", [False, True])
def test_run_writes_its_document_by_one_rule(sandwich, bell_path, tmp_path, capsys):
    # --format json writes the document to --output or stdout; text mode prints the text and
    # writes the document only to a given --output
    source = ["--benchmark", "sandwich", "--L", "2", "--P", "10"] if sandwich else ["--input", bell_path]
    args = ["run", *source, "--m", "2", "--delta", "0.01", "--solutions", "00,11"]
    assert main(args + ["--format", "json"]) == 0
    document = capsys.readouterr().out
    assert "Q" in json.loads(document)
    assert main(args) == 0
    text = capsys.readouterr().out
    assert text.startswith(("sites = 4\n", "Q = "))
    out = tmp_path / "out.json"
    assert main(args + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == text
    assert out.read_text() == document
    out.unlink()
    assert main(args + ["--format", "json", "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == document


def test_estimate_rejects_non_finite_input_with_exit_1(capsys):
    finite = {"--L": "16", "--P": "100", "--delta": "0.01"}
    for flag in finite:
        for value in ("nan", "inf"):
            argv = [x for key, v in {**finite, flag: value}.items() for x in (key, v)]
            assert main(["estimate", *argv, "--format", "json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: L, P and delta must be finite\n"


def test_benchmark_requires_l_and_p(capsys):
    assert main(["run", "--benchmark", "sandwich", "--delta", "0.01"]) == 1
    capsys.readouterr()


def test_sweep_csv_is_byte_identical_across_invocations(capsys):
    args = ["sweep", "--m", "1:4", "--L", "3", "--P", "40", "--delta", "0.007"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0] == "m,L,P,delta,Q,sigma_est"
    assert len(lines) == 5
    assert lines[1].startswith("1,3,40,7.00000000000e-03,")


def test_readme_sweep_prints_the_closed_form_digits(capsys):
    # Q = |2^-3 sum_x exp(-i T phi_dd(x))|^2 with T = (2m - 1) 40 and sigma = sqrt(-ln Q), both
    # evaluated to 40 digits and rounded to the 12 printed; near Q = 1 an error of a few ulps in Q
    # already moves the last digit of sigma_est
    assert main(["sweep", "--m", "1:6", "--L", "3", "--P", "40", "--delta", "0.007"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "m,L,P,delta,Q,sigma_est",
        "1,3,40,7.00000000000e-03,9.61140314848e-01,1.99085085988e-01",
        "2,3,40,7.00000000000e-03,9.94457317109e-01,7.45526696670e-02",
        "3,3,40,7.00000000000e-03,9.98645957236e-01,3.68097854959e-02",
        "4,3,40,7.00000000000e-03,9.99527484394e-01,2.17399925654e-02",
        "5,3,40,7.00000000000e-03,9.99795217129e-01,1.43109692818e-02",
        "6,3,40,7.00000000000e-03,9.99897546906e-01,1.01221708518e-02",
    ]


def test_a_billion_step_wait_runs_in_constant_time(tmp_path, capsys):
    # h, wait, h on one data qubit next to its spacer: |1> gains delta per step over the
    # 10^9 + 1 steps between the Hadamards, so Q(0) = cos^2((10^9 + 1) delta / 2)
    p = tmp_path / "idle.json"
    gates = [{"op": "1q", "target": 1, "name": "h"}, {"op": "wait", "steps": 10**9}, {"op": "1q", "target": 1, "name": "h"}]
    p.write_text(json.dumps({"qubits": 1, "gates": gates}))
    start = time.perf_counter()
    assert main(["run", "--input", str(p), "--m", "2", "--delta", "0.0123", "--engine", "compressed",
                 "--solutions", "0", "--format", "json"]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    assert doc["steps"] == 10**9 + 2
    assert abs(doc["Q"] - math.cos((10**9 + 1) * 0.0123 / 2) ** 2) < 1e-6
    assert elapsed < 1.0


def test_a_wait_beyond_float_range_exits_1(tmp_path, capsys):
    # a fused wait scales the step's coefficients by its length, which has to fit a float
    p = tmp_path / "endless.json"
    p.write_text(json.dumps({"qubits": 1, "gates": [{"op": "1q", "target": 1, "name": "h"}, {"op": "wait", "steps": 10**400}]}))
    for engine in ("full", "compressed"):
        assert main(["run", "--input", str(p), "--m", "2", "--delta", "0.01", "--engine", engine]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_sweep_json_includes_fit_for_single_axis(capsys):
    assert main(["sweep", "--m", "1:4", "--L", "3", "--P", "40", "--delta", "0.007", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["rows"]) == 4
    assert doc["fits"][0]["axis"] == "m"
    assert doc["config"]["pace"] == "gate"


def test_sweep_range_syntax_with_step(capsys):
    assert main(["sweep", "--P", "10:50:20", "--delta", "0.004", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["P"] for r in doc["rows"]] == [10, 30, 50]


def test_estimate_prints_exact_headline_product(capsys):
    assert main(["estimate", "--L", "1e4", "--P", "5e6", "--delta", "0.01"]) == 0
    out = capsys.readouterr().out
    assert "P_sqrt_L" in out
    assert "5.00000000000e+08" in out
    assert "L_crit" in out


def test_estimate_json(capsys):
    assert main(["estimate", "--L", "16", "--P", "100", "--delta", "0.5", "--m", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["p_sqrt_l"] == 400.0
    assert doc["critical_l"] == 4.0
    assert doc["l_prime"] == 32.0


def test_dualrail_csv_and_fit(capsys):
    assert main(["dualrail", "--D", "10,20,40,80"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "D,strength"
    assert lines[1] == "1.00000000000e+01,-2.02020202020e-03"
    assert "fit: |strength| ~ D^-3.0" in captured.err


def test_dualrail_encode_and_check(capsys):
    assert main(["dualrail", "--encode", "10"]) == 0
    assert capsys.readouterr().out.strip() == "1001"
    assert main(["dualrail", "--check", "1001"]) == 0
    assert capsys.readouterr().out.strip() == "valid"
    assert main(["dualrail", "--check", "1101"]) == 0
    assert capsys.readouterr().out.strip() == "invalid"


def test_unknown_flags_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "--frequency", "7"])
    assert err.value.code == 2


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    assert "compile" in capsys.readouterr().out
