"""Command-line front end: compile, run, sweep, estimate, dualrail.

Exit codes: 0 success, 2 malformed input (bad flags or circuit JSON,
reported with line/column when known), 3 unsupported gate, 4 register
capacity, 1 anything else.  Delimited output uses fixed scientific
notation with 12 significant digits so repeated invocations are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import (
    _Q_SATURATION,
    SweepConfig,
    curve_to_csv,
    curve_to_dict,
    dual_rail_points,
    fit_axis,
    fit_dual_rail_exponent,
    fit_to_dict,
    format_float,
    idle_wait_steps,
    resource_table,
    run_sweep,
    sandwich_quality,
    sigma_from_quality,
)
from .circuits import LogicalCircuit, dumps_circuit, loads_circuit
from .encoder import EncodingParams, check_dual_rail, compile_circuit, dual_rail_encode
from .errors import CapacityError, CircuitFormatError, UnsupportedGateError
from .interactions import CouplingLaw, RegisterLayout
from .simulator import (
    ErrorModel,
    StateVector,
    encode_logical_state,
    extract_logical_state,
    quality,
    run,
    run_compressed,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _parse_int_values(spec: str) -> tuple[int, ...]:
    """Integer list: '1,2,5' or inclusive range '1:6' (optionally '1:9:2')."""
    if ":" in spec:
        parts = [int(p) for p in spec.split(":")]
        if len(parts) == 2:
            lo, hi, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            lo, hi, step = parts
        else:
            raise ValueError(f"bad range {spec!r}")
        if step < 1 or hi < lo:
            raise ValueError(f"bad range {spec!r}")
        return tuple(range(lo, hi + 1, step))
    return tuple(int(p) for p in spec.split(","))


def _parse_float_values(spec: str) -> tuple[float, ...]:
    if ":" in spec:
        return tuple(float(v) for v in _parse_int_values(spec))
    return tuple(float(p) for p in spec.split(","))


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


# --- subcommands ------------------------------------------------------------


def cmd_compile(args: argparse.Namespace) -> int:
    circuit = loads_circuit(_read_text(args.input))
    physical, report = compile_circuit(circuit, EncodingParams(args.m))
    text = dumps_circuit(physical)
    _write_text(args.output, text if text.endswith("\n") else text + "\n")
    print(
        f"sites={report.l_prime} steps={report.p_prime} step_bound={report.p_prime_bound}"
        f" delta_ratio={format_float(report.delta_ratio)} sigma_ratio={format_float(report.sigma_ratio)}",
        file=sys.stderr,
    )
    return 0


def _benchmark_run(args: argparse.Namespace) -> int:
    if args.L is None or args.P is None:
        raise ValueError("--benchmark needs --L and --P")
    law = CouplingLaw(args.delta, args.exponent, args.cutoff)
    wait = idle_wait_steps(args.P, args.m, args.pace)
    q = sandwich_quality(
        args.L,
        args.m,
        wait,
        law,
        engine=args.engine,
        compensate_local_phases=not args.no_compensate_local,
    )
    sigma = 0.0 if q >= _Q_SATURATION else sigma_from_quality(q)
    if args.format == "json":
        doc = {
            "benchmark": args.benchmark,
            "L": args.L,
            "m": args.m,
            "P": args.P,
            "pace": args.pace,
            "wait_steps": wait,
            "delta": args.delta,
            "Q": q,
            "sigma_est": sigma,
        }
        _write_text(args.output, _dump_json(doc))
    else:
        print(f"Q = {q:.6f}")
        print(f"sigma_est = {format_float(sigma)}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.benchmark:
        return _benchmark_run(args)
    if args.input is None:
        raise ValueError("run needs --input (or --benchmark)")
    text = _read_text(args.input)
    m = args.m
    circuit = loads_circuit(text, physical=None)
    if isinstance(circuit, LogicalCircuit):
        circuit, _ = compile_circuit(circuit, EncodingParams(m))
    n = circuit.n_sites
    if n % m != 0:
        raise ValueError(f"register of {n} sites is not a multiple of m={m}")
    n_logical = n // m
    law = CouplingLaw(args.delta, args.exponent, args.cutoff)
    model = ErrorModel(law, RegisterLayout(n), compensate_active_pair=args.compensate)
    initial = StateVector.from_bits(args.initial) if args.initial else StateVector.zero(n_logical)
    if initial.n != n_logical:
        raise ValueError(f"--initial must give {n_logical} logical bits")

    if args.engine == "compressed":
        final = run_compressed(circuit, model, EncodingParams(m), initial)
        steps = circuit.step_count
        spacers = "clean (enforced by the compressed engine)"
        spacer_list: list[bool] | None = None
    else:
        result = run(circuit, model, encode_logical_state(initial, m), EncodingParams(m))
        final = extract_logical_state(result.final, m)
        steps = result.steps_executed
        spacer_list = list(result.spacer_check or ())
        spacers = "clean" if all(spacer_list) else "LEAKED"

    q = None
    if args.solutions:
        q = quality(final, args.solutions.split(","))

    doc = {
        "sites": n,
        "m": m,
        "logical_qubits": n_logical,
        "steps": steps,
        "spacers_clean": spacer_list if spacer_list is not None else "assumed",
        "amplitudes": [[a.real, a.imag] for a in final.amplitudes],
    }
    if q is not None:
        doc["Q"] = q
    if args.format == "json":
        _write_text(args.output, _dump_json(doc))
        return 0
    if args.output:
        _write_text(args.output, _dump_json(doc))
    print(f"sites = {n}")
    print(f"logical qubits = {n_logical}")
    print(f"steps = {steps}")
    print(f"spacers = {spacers}")
    if q is not None:
        print(f"Q = {q:.6f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = SweepConfig(
        m_values=args.m,
        l_values=args.L,
        p_values=args.P,
        delta_values=args.delta,
        exponent=args.exponent,
        pace=args.pace,
        compensate_local_phases=not args.no_compensate_local,
        engine=args.engine,
        seed=args.seed,
    )
    curve = run_sweep(config)

    axes = [args.fit] if args.fit else []
    if not axes:
        varying = [
            axis
            for axis, values in (
                ("m", config.m_values),
                ("L", config.l_values),
                ("P", config.p_values),
                ("delta", config.delta_values),
            )
            if len(values) > 1
        ]
        if len(varying) == 1:
            axes = varying
    fits = {}
    for axis in axes:
        try:
            fits[axis] = fit_axis(curve, axis)
        except ValueError as exc:
            print(f"note: no {axis} fit ({exc})", file=sys.stderr)

    if args.format == "json":
        _write_text(args.output, _dump_json(curve_to_dict(curve, fits)))
        return 0
    _write_text(args.output, curve_to_csv(curve))
    for axis, fit in fits.items():
        print(
            f"fit: sigma_est ~ {axis}^{fit.exponent:.6f}"
            f" (prefactor {format_float(fit.prefactor)}, rms {format_float(fit.residual)}, {fit.n_points} points)",
            file=sys.stderr,
        )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    est = resource_table(args.L, args.P, args.delta, args.m)
    if args.format == "json":
        _write_text(args.output, _dump_json(dataclasses.asdict(est)))
        return 0
    rows = [
        ("m", str(est.m)),
        ("L", format_float(est.n_logical)),
        ("P", format_float(est.steps)),
        ("delta", format_float(est.delta)),
        ("L_prime", format_float(est.l_prime)),
        ("P_prime_bound", format_float(est.p_prime_bound)),
        ("delta_prime", format_float(est.delta_prime)),
        ("P_sqrt_L", format_float(est.p_sqrt_l)),
        ("sigma", format_float(est.sigma)),
        ("sigma_prime_bound", format_float(est.sigma_prime_bound)),
        ("L_crit", format_float(est.critical_l)),
        ("L_crit_prime", format_float(est.critical_l_prime)),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k.ljust(width)} = {v}" for k, v in rows]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_dualrail(args: argparse.Namespace) -> int:
    if args.encode:
        print(dual_rail_encode(args.encode))
        return 0
    if args.check:
        print("valid" if check_dual_rail(args.check) else "invalid")
        return 0
    separations = [float(d) for d in args.D]
    points = dual_rail_points(separations, args.rail_spacing, args.g)
    fit = None
    if len(points) >= 3:
        try:
            fit = fit_dual_rail_exponent(points)
        except ValueError as exc:
            print(f"note: no fit ({exc})", file=sys.stderr)
    if args.format == "json":
        doc = {
            "rail_spacing": args.rail_spacing,
            "g": args.g,
            "points": [{"D": p.separation, "strength": p.strength} for p in points],
        }
        if fit is not None:
            doc["fit"] = fit_to_dict(fit, "D")
        _write_text(args.output, _dump_json(doc))
        return 0
    lines = ["D,strength"]
    for p in points:
        lines.append(f"{format_float(p.separation)},{format_float(p.strength)}")
    _write_text(args.output, "\n".join(lines) + "\n")
    if fit is not None:
        print(
            f"fit: |strength| ~ D^{fit.exponent:.6f}"
            f" (prefactor {format_float(fit.prefactor)}, rms {format_float(fit.residual)}, {fit.n_points} points)",
            file=sys.stderr,
        )
    return 0


# --- parser -----------------------------------------------------------------


def _add_common_physics(p: argparse.ArgumentParser) -> None:
    p.add_argument("--delta", type=float, default=0.0, help="nearest-neighbour phase per step (default 0)")
    p.add_argument("--exponent", type=int, default=3, help="coupling fall-off power (default 3)")
    p.add_argument("--cutoff", type=float, default=None, help="ignore couplings beyond this distance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spacerq",
        description="Spacer-encoded register rewriting and exact crosstalk simulation.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("compile", help="rewrite a logical circuit onto the diluted register")
    p.add_argument("--input", "-i", required=True, help="logical circuit JSON ('-' for stdin)")
    p.add_argument("--output", "-o", default=None, help="write the physical circuit here (default stdout)")
    p.add_argument("--m", type=int, default=1, help="dilution factor (default 1)")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="simulate a circuit under the always-on coupling")
    p.add_argument("--input", "-i", default=None, help="circuit JSON, logical or physical ('-' for stdin)")
    p.add_argument("--output", "-o", default=None, help="write the JSON result here")
    p.add_argument("--m", type=int, default=1, help="dilution factor of the register (default 1)")
    _add_common_physics(p)
    p.add_argument("--compensate", action="store_true", help="omit the gated pair's phase during active gates")
    p.add_argument("--engine", choices=("full", "compressed"), default="full")
    p.add_argument("--initial", default=None, help="initial logical bits (default all zeros)")
    p.add_argument("--solutions", default=None, help="comma-separated solution bitstrings; prints Q")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--benchmark", choices=("sandwich",), default=None, help="run a built-in idle benchmark instead of --input")
    p.add_argument("--L", type=int, default=None, help="benchmark: logical qubit count")
    p.add_argument("--P", type=int, default=None, help="benchmark: logical step count")
    p.add_argument("--pace", choices=("gate", "basic"), default="gate", help="benchmark wait pacing (default gate)")
    p.add_argument("--no-compensate-local", action="store_true", help="benchmark: keep the known data-spacer phases")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep the idle benchmark and emit m,L,P,delta,Q,sigma_est")
    p.add_argument("--m", type=_parse_int_values, default=(1,), help="values like '1:6' or '1,2,4'")
    p.add_argument("--L", type=_parse_int_values, default=(2,), help="logical qubit counts")
    p.add_argument("--P", type=_parse_int_values, default=(10,), help="logical step counts")
    p.add_argument("--delta", type=_parse_float_values, default=(0.01,), help="comma-separated couplings")
    p.add_argument("--exponent", type=int, default=3)
    p.add_argument("--pace", choices=("gate", "basic"), default="gate")
    p.add_argument("--engine", choices=("compressed", "full"), default="compressed")
    p.add_argument("--no-compensate-local", action="store_true")
    p.add_argument("--fit", choices=("m", "L", "P", "delta"), default=None, help="fit sigma_est against this axis")
    p.add_argument("--seed", type=int, default=0, help="recorded in reports (the sweep is deterministic)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("estimate", help="closed-form resource and dispersion scaling")
    p.add_argument("--L", type=float, required=True, help="logical qubit count")
    p.add_argument("--P", type=float, required=True, help="logical step count")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("dualrail", help="dual-rail idle protection: encoding and residual coupling")
    p.add_argument("--D", type=_parse_float_values, default=(10.0,), help="unit separations, e.g. '10,20,50'")
    p.add_argument("--rail-spacing", type=float, default=1.0)
    p.add_argument("--g", type=float, default=1.0, help="overall interaction scale")
    p.add_argument("--encode", default=None, help="print the dual-rail encoding of these bits and exit")
    p.add_argument("--check", default=None, help="check that these bits are a valid dual-rail word")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=cmd_dualrail)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    try:
        return args.func(args)
    except CircuitFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedGateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
