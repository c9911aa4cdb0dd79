"""Command-line interface tests: contracts, formats and exit codes."""

import json

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
