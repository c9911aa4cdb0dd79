"""Quality measures, idle benchmarks, scaling sweeps and resource estimates.

The workhorse benchmark is an idle "sandwich": prepare all data qubits in
|+> (ideally), let the encoded register wait T basic steps under the
crosstalk model, undo the known single-qubit phases that data qubits pick
up from their |0> spacers (the engine's own rates, ``spacer_phase_rates``),
apply an ideal Hadamard on every data qubit and read off the population
left on the all-zeros string.  Any loss is pure data-data dephasing,
which is exactly what the spacer encoding is supposed to dilute.

Wait pacing: a logical step is the duration of one encoded two-qubit
gate, so holding the logical step count P fixed across m means the
register idles for (2m - 1) * P basic steps ("gate" pace).  "basic" pace
keeps T = P instead; both are exposed because the two disagree about the
measured quality exponent (see fit_axis).

Everything here is deterministic; SweepConfig carries a seed only so
reports record one alongside the rest of the provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .circuits import LogicalCircuit, WaitGate
from .encoder import EncodingParams, compile_circuit
from .interactions import CouplingLaw, RegisterLayout, coulomb_nonadditive
from .simulator import (
    ErrorModel,
    StateVector,
    encode_logical_state,
    extract_logical_state,
    run,
    run_compressed,
    spacer_phase_rates,
)


def sigma_from_quality(q: float) -> float:
    """Dispersion estimate sigma = sqrt(-ln Q); Q = exp(-sigma^2) inverted."""
    if q > 1.0:
        if q > 1.0 + 1e-9:
            raise ValueError(f"quality {q} is not a probability")
        q = 1.0
    if q <= 0.0:
        raise ValueError(f"quality {q} must be positive to estimate a dispersion")
    return math.sqrt(-math.log(q))


def sigma_estimate(q: float) -> float:
    """The ``sigma_est`` a benchmark reports for quality ``q``: 0 within 1e-12 of Q = 1, else sqrt(-ln Q)."""
    return 0.0 if q >= 1.0 - 1e-12 else sigma_from_quality(q)


def critical_register_size(delta: float) -> float:
    """Register size at which one step dephases O(1): L_crit = 1 / delta^2."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    square = delta * delta
    return 1.0 / square if square > 0.0 else math.inf  # delta^2 underflows: L_crit overflows a float


@dataclass(frozen=True)
class ResourceEstimate:
    """Encoded-register resources for a logical workload (L, P, delta) at dilution m."""

    m: int
    n_logical: float
    steps: float
    delta: float
    l_prime: float
    p_prime_bound: float
    delta_prime: float
    p_sqrt_l: float
    sigma: float
    sigma_prime_bound: float
    critical_l: float
    critical_l_prime: float


def resource_table(n_logical: float, steps: float, delta: float, m: int = 1) -> ResourceEstimate:
    """Closed-form scaling of the encoded register; no simulation involved.

    sigma here is the worst-case dispersion steps * sqrt(n_logical) * delta
    (unit prefactor).  sigma_prime_bound quotes the headline dilution bound
    sigma * m**-1.5; combining p_prime_bound and delta_prime by hand instead
    gives the serial-schedule figure sigma * (2m - 1) / m**2.5, which is
    smaller for every m > 1.  Both are bounds, not measurements: run_sweep
    measures what a benchmark actually does.
    """
    if not all(math.isfinite(x) for x in (n_logical, steps, delta)):
        raise ValueError("L, P and delta must be finite")
    if n_logical < 1 or steps < 0:
        raise ValueError("need n_logical >= 1 and steps >= 0")
    if delta < 0:
        raise ValueError("delta must be >= 0")
    if int(m) != m or m < 1:
        raise ValueError("m must be a positive integer")
    p_sqrt_l = steps * math.sqrt(n_logical)
    sigma = p_sqrt_l * delta
    est = ResourceEstimate(
        m=m,
        n_logical=n_logical,
        steps=steps,
        delta=delta,
        l_prime=m * n_logical,
        p_prime_bound=(2 * m - 1) * steps,
        delta_prime=delta / m**3,
        p_sqrt_l=p_sqrt_l,
        sigma=sigma,
        sigma_prime_bound=sigma * m**-1.5,
        critical_l=critical_register_size(delta) if delta > 0 else math.inf,
        critical_l_prime=critical_register_size(delta / m**3) if delta > 0 else math.inf,
    )
    for field in fields(est):  # only delta = 0 has infinite critical sizes, by definition
        if not math.isfinite(getattr(est, field.name)) and not (delta == 0 and field.name.startswith("critical_l")):
            raise ValueError(f"{field.name} overflows a float for these inputs")
    return est


# --- idle benchmark ---------------------------------------------------------


def idle_wait_steps(steps_logical: int, m: int, pace: str = "gate") -> int:
    """Basic wait steps for P logical steps: one logical step lasts one encoded gate."""
    if pace == "gate":
        return (2 * m - 1) * steps_logical
    if pace == "basic":
        return steps_logical
    raise ValueError(f"unknown pace {pace!r} (expected 'gate' or 'basic')")


def sandwich_quality(
    n_logical: int,
    m: int,
    wait_steps: int,
    law: CouplingLaw,
    *,
    spacing: float = 1.0,
    engine: str = "compressed",
    compensate_local_phases: bool = True,
) -> float:
    """Idle benchmark quality: all-|+> data, wait, undo local phases, Hadamard back.

    Returns the population on the all-zeros logical string, which after the
    Hadamard layer is |sum of the amplitudes|^2 / 2^L, so no gate is applied.
    At m = 1 and n_logical = 2 this is exactly cos(T * delta / 2) ** 2.
    """
    encoding = EncodingParams(m)
    circuit, _ = compile_circuit(LogicalCircuit(n_logical, (WaitGate(wait_steps),)), encoding)
    model = ErrorModel(law, RegisterLayout(circuit.n_sites, spacing))
    logical0 = StateVector.uniform(n_logical)
    if engine == "compressed":
        amps = run_compressed(circuit, model, encoding, logical0).amplitudes
    elif engine == "full":
        result = run(circuit, model, encode_logical_state(logical0, m), encoding)
        amps = extract_logical_state(result.final, m).amplitudes
    else:
        raise ValueError(f"unknown engine {engine!r} (expected 'compressed' or 'full')")
    if compensate_local_phases:
        amps = amps.copy()
        for k, rate in enumerate(spacer_phase_rates(model, encoding), 1):
            amps.reshape(1 << (k - 1), 2, -1)[:, 1] *= np.exp(1j * rate * wait_steps)
    q = abs(amps.sum()) ** 2 / 2**n_logical
    return min(max(q, 0.0), 1.0)


# --- sweeps -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepConfig:
    """Cartesian sweep of the idle benchmark (order: m, then L, then P, then delta)."""

    m_values: tuple[int, ...] = (1,)
    l_values: tuple[int, ...] = (2,)
    p_values: tuple[int, ...] = (10,)
    delta_values: tuple[float, ...] = (0.01,)
    exponent: int = 3
    spacing: float = 1.0
    pace: str = "gate"
    compensate_local_phases: bool = True
    engine: str = "compressed"
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("m_values", "l_values", "p_values", "delta_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be non-empty")
        idle_wait_steps(1, 1, self.pace)  # validates pace
        if self.engine not in ("compressed", "full"):
            raise ValueError(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class QualityRow:
    m: int
    n_logical: int
    steps: int
    delta: float
    q: float
    sigma_est: float


@dataclass(frozen=True)
class QualityCurve:
    config: SweepConfig
    rows: tuple[QualityRow, ...]


def run_sweep(config: SweepConfig) -> QualityCurve:
    rows = []
    for m in config.m_values:
        for n_logical in config.l_values:
            for steps in config.p_values:
                for delta in config.delta_values:
                    law = CouplingLaw(delta, config.exponent)
                    q = sandwich_quality(
                        n_logical,
                        m,
                        idle_wait_steps(steps, m, config.pace),
                        law,
                        spacing=config.spacing,
                        engine=config.engine,
                        compensate_local_phases=config.compensate_local_phases,
                    )
                    rows.append(QualityRow(m, n_logical, steps, delta, q, sigma_estimate(q)))
    return QualityCurve(config, tuple(rows))


# --- fits -------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares power law y = prefactor * x**exponent (fit in log-log)."""

    exponent: float
    prefactor: float
    residual: float  # rms residual of ln y
    n_points: int


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> ScalingFit:
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 3:
        raise ValueError("need at least 3 points for a power-law fit")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fit needs strictly positive data")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    rms = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return ScalingFit(float(slope), float(math.exp(intercept)), rms, len(xs))


AXIS_FIELDS = {"m": "m", "L": "n_logical", "P": "steps", "delta": "delta"}


def fit_axis(curve: QualityCurve, axis: str) -> ScalingFit:
    """Fit sigma_est against one swept axis, dropping saturated rows (Q ~ 1)."""
    if axis not in AXIS_FIELDS:
        raise ValueError(f"axis must be one of {sorted(AXIS_FIELDS)}")
    attr = AXIS_FIELDS[axis]
    xs = [float(getattr(r, attr)) for r in curve.rows if r.sigma_est > 0.0]
    ys = [r.sigma_est for r in curve.rows if r.sigma_est > 0.0]
    return fit_power_law(xs, ys)


def quality_decay_r2(deltas: Sequence[float], qs: Sequence[float]) -> float:
    """R^2 of ln Q against delta^2 (linear means Gaussian-like decay in delta)."""
    if len(deltas) != len(qs) or len(deltas) < 3:
        raise ValueError("need >= 3 paired points")
    if any(q <= 0 for q in qs):
        raise ValueError("qualities must be positive")
    x = np.asarray(deltas, dtype=float) ** 2
    y = np.log(np.asarray(qs, dtype=float))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    if ss_tot == 0.0:
        return 1.0
    return 1.0 - float(resid @ resid) / ss_tot


# --- direct coupling measurement -------------------------------------------


def measure_effective_coupling(m: int, law: CouplingLaw, *, steps: int = 1, spacing: float = 1.0) -> float:
    """Nearest-neighbour data-data coupling read off an idle two-qubit register.

    Runs the full engine on L = 2 encoded qubits for ``steps`` error steps
    and combines the four logical amplitude phases so every single-qubit
    (data-spacer) contribution cancels:

        c_eff = (phi01 + phi10 - phi00 - phi11) / (2 * steps)

    For the home layout this equals coupling_strength(law, m * spacing).
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    circuit, _ = compile_circuit(LogicalCircuit(2, (WaitGate(steps),)), EncodingParams(m))
    model = ErrorModel(law, RegisterLayout(circuit.n_sites, spacing))
    initial = encode_logical_state(StateVector.uniform(2), m)
    result = run(circuit, model, initial, EncodingParams(m))
    logical = extract_logical_state(result.final, m)
    phi = [-np.angle(logical.amplitudes[i]) for i in range(4)]  # amp = exp(-i phi)/2
    return float(phi[0b01] + phi[0b10] - phi[0b00] - phi[0b11]) / (2.0 * steps)


# --- dual-rail idle scaling -------------------------------------------------


@dataclass(frozen=True)
class DualRailPoint:
    separation: float
    strength: float


def dual_rail_points(
    separations: Iterable[float], rail_spacing: float = 1.0, g: float = 1.0
) -> tuple[DualRailPoint, ...]:
    """Residual pair-distinguishing strength between two dual-rail units vs separation."""
    return tuple(
        DualRailPoint(d, coulomb_nonadditive(d, rail_spacing, g)) for d in separations
    )


def fit_dual_rail_exponent(points: Sequence[DualRailPoint]) -> ScalingFit:
    """Power-law exponent of |strength| vs separation (about -3 at large separation)."""
    xs = [p.separation for p in points]
    ys = [abs(p.strength) for p in points]
    if all(y == 0.0 for y in ys):
        raise ValueError("all strengths are zero (g = 0?); nothing to fit")
    return fit_power_law(xs, ys)


# --- delimited / structured output ------------------------------------------

CSV_HEADER = "m,L,P,delta,Q,sigma_est"


def format_float(x: float) -> str:
    """Fixed scientific form, 12 significant digits, so output is byte-stable."""
    return f"{x:.11e}"


def curve_to_csv(curve: QualityCurve) -> str:
    lines = [CSV_HEADER]
    for r in curve.rows:
        lines.append(
            f"{r.m},{r.n_logical},{r.steps},{format_float(r.delta)},{format_float(r.q)},{format_float(r.sigma_est)}"
        )
    return "\n".join(lines) + "\n"


def fit_to_dict(fit: ScalingFit, axis: str) -> dict:
    return {
        "axis": axis,
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "rms_residual": fit.residual,
        "n_points": fit.n_points,
    }


def curve_to_dict(curve: QualityCurve, fits: dict[str, ScalingFit] | None = None) -> dict:
    cfg = curve.config
    doc = {
        "config": {
            "m_values": list(cfg.m_values),
            "l_values": list(cfg.l_values),
            "p_values": list(cfg.p_values),
            "delta_values": list(cfg.delta_values),
            "exponent": cfg.exponent,
            "spacing": cfg.spacing,
            "pace": cfg.pace,
            "compensate_local_phases": cfg.compensate_local_phases,
            "engine": cfg.engine,
            "seed": cfg.seed,
        },
        "rows": [
            {
                "m": r.m,
                "L": r.n_logical,
                "P": r.steps,
                "delta": r.delta,
                "Q": r.q,
                "sigma_est": r.sigma_est,
            }
            for r in curve.rows
        ],
    }
    if fits:
        doc["fits"] = [fit_to_dict(fit, axis) for axis, fit in sorted(fits.items())]
    return doc
