"""Benchmark, fitting and resource-estimate tests with frozen oracles."""

import math

import numpy as np
import pytest

from spacerq.analysis import (
    SweepConfig,
    critical_register_size,
    curve_to_csv,
    curve_to_dict,
    dual_rail_points,
    fit_axis,
    fit_dual_rail_exponent,
    fit_power_law,
    format_float,
    idle_wait_steps,
    measure_effective_coupling,
    quality_decay_r2,
    quality_from_sigma,
    resource_table,
    run_sweep,
    sandwich_quality,
    sigma_estimate,
    sigma_from_quality,
    spacer_phase_rate,
)
from spacerq.interactions import CouplingLaw, coupling_strength


def test_sigma_quality_inversion():
    # Q = exp(-sigma^2): sigma = 0.2 -> Q = exp(-0.04)
    assert sigma_from_quality(math.exp(-0.04)) == pytest.approx(0.2, abs=1e-15)
    assert quality_from_sigma(0.2) == pytest.approx(math.exp(-0.04), abs=1e-18)
    assert sigma_from_quality(math.exp(-1.0)) == pytest.approx(1.0, abs=1e-12)
    # small-angle benchmark point: cos^2(x) = exp(-x^2) to leading order
    assert sigma_from_quality(math.cos(0.05) ** 2) == pytest.approx(0.05, abs=1e-3)
    assert sigma_from_quality(1.0) == 0.0
    # tiny float overage is treated as Q = 1
    assert sigma_from_quality(1.0 + 1e-15) == 0.0
    with pytest.raises(ValueError):
        sigma_from_quality(1.1)
    with pytest.raises(ValueError):
        sigma_from_quality(0.0)
    with pytest.raises(ValueError):
        quality_from_sigma(-1.0)
    # the reported sigma_est is sqrt(-ln Q) until Q is within 1e-12 of 1, then exactly 0
    assert sigma_estimate(math.exp(-0.04)) == sigma_from_quality(math.exp(-0.04))
    assert sigma_estimate(1.0 - 1e-13) == 0.0


def test_predicted_sigma_product_form():
    # delta = 2^-6 keeps every factor exact in binary floating point:
    # 5e6 * sqrt(1e4) * 2^-6 = 5e8 / 64 = 7812500
    assert resource_table(1e4, 5e6, 0.015625).sigma == 7812500.0
    assert resource_table(4.0, 10.0, 0.01).sigma == pytest.approx(0.2, rel=1e-15)
    assert resource_table(4.0, 10.0, 0.0).sigma == 0.0
    with pytest.raises(ValueError):
        resource_table(4.0, -1.0, 0.01)


def test_predicted_sigma_sqrt_scaling_is_exact():
    # quadrupling the register doubles sigma bit for bit: sqrt(4L) = 2 sqrt(L)
    # and scaling a product by 2 commutes with rounding
    for n in (3.0, 7.0, 1e4, 12345.0):
        base = resource_table(n, 17.0, 0.021).sigma
        quad = resource_table(4.0 * n, 17.0, 0.021).sigma
        assert quad == 2.0 * base


def test_critical_register_size_formula():
    assert critical_register_size(1.0) == 1.0
    assert critical_register_size(0.5) == 4.0
    assert critical_register_size(0.1) == pytest.approx(100.0, rel=1e-12)
    assert critical_register_size(0.01) == 1.0 / (0.01 * 0.01)
    assert critical_register_size(0.01) == pytest.approx(1e4, rel=1e-12)
    with pytest.raises(ValueError):
        critical_register_size(0.0)


def test_resource_table_closed_forms():
    est = resource_table(1e4, 5e6, 0.01, m=2)
    assert est.p_sqrt_l == 5e8  # sqrt(1e4) = 100 exactly
    assert est.l_prime == 2e4
    assert est.p_prime_bound == 3 * 5e6
    assert est.delta_prime == pytest.approx(0.01 / 8, rel=1e-15)
    assert est.sigma == pytest.approx(5e8 * 0.01, rel=1e-15)
    assert est.critical_l_prime == pytest.approx(est.critical_l * 64, rel=1e-12)
    with pytest.raises(ValueError):
        resource_table(1e4, 5e6, 0.01, m=0)


def test_resource_table_dilution_ratios_exact():
    # the quoted bounds divide out exactly: delta'/delta = m^-3, sigma'/sigma = m^-1.5
    for m in range(1, 17):
        est = resource_table(64.0, 100.0, 0.03, m=m)
        assert est.delta_prime == est.delta / m**3
        assert est.sigma_prime_bound == est.sigma * m**-1.5
    est = resource_table(64.0, 100.0, 0.03, m=4)
    assert est.delta_prime == est.delta / 64  # power-of-two divisor, exact
    assert est.sigma_prime_bound == est.sigma * 0.125
    one = resource_table(64.0, 100.0, 0.03, m=1)
    assert one.l_prime == 64.0
    assert one.p_prime_bound == 100.0
    assert one.delta_prime == 0.03
    assert one.sigma_prime_bound == one.sigma


def test_spacer_phase_rate_hand_value():
    # L=2, m=2: sites 1..4, data at 1 and 3, spacers at 2 and 4.
    # qubit 1 at site 1: c(1) + c(3) = delta * (1 + 1/27)
    law = CouplingLaw(1.0)
    assert spacer_phase_rate(1, 2, 2, law) == pytest.approx(1.0 + 1.0 / 27.0, rel=1e-15)
    # qubit 2 at site 3: c(1) + c(1) wait, spacers sit at 2 and 4 -> both distance 1
    assert spacer_phase_rate(2, 2, 2, law) == pytest.approx(2.0, rel=1e-15)
    # no spacers at m=1
    assert spacer_phase_rate(1, 3, 1, law) == 0.0


def test_idle_wait_steps_pacing():
    assert idle_wait_steps(40, 1) == 40
    assert idle_wait_steps(40, 3) == 200  # (2*3-1) * 40
    assert idle_wait_steps(40, 3, pace="basic") == 40
    with pytest.raises(ValueError):
        idle_wait_steps(40, 3, pace="slow")


def test_sandwich_closed_form_two_qubits_bare():
    # L=2, m=1: only the neighbour pair dephases; Q = cos(T*delta/2)^2
    for steps, delta in ((10, 0.01), (40, 0.007), (3, 0.2)):
        q = sandwich_quality(2, 1, steps, CouplingLaw(delta))
        assert q == pytest.approx(math.cos(steps * delta / 2.0) ** 2, abs=1e-12)


def test_sandwich_full_and_compressed_engines_agree():
    law = CouplingLaw(0.03)
    for m, n_logical, steps in ((1, 2, 7), (2, 2, 9), (3, 2, 5), (2, 3, 6)):
        qc = sandwich_quality(n_logical, m, steps, law, engine="compressed")
        qf = sandwich_quality(n_logical, m, steps, law, engine="full")
        assert qc == pytest.approx(qf, abs=1e-12)


def test_sandwich_local_phase_undo_matters_beyond_m1():
    # leaving the known data-spacer phases in place suppresses Q further
    law = CouplingLaw(0.05)
    q_undone = sandwich_quality(2, 2, 20, law, compensate_local_phases=True)
    q_raw = sandwich_quality(2, 2, 20, law, compensate_local_phases=False)
    assert q_undone > q_raw
    # at m=1 there are no spacers, so the switch changes nothing
    assert sandwich_quality(2, 1, 20, law, compensate_local_phases=True) == pytest.approx(
        sandwich_quality(2, 1, 20, law, compensate_local_phases=False), abs=1e-15
    )


def test_sandwich_noiseless_quality_is_one():
    # up to Hadamard-layer rounding, which the saturation threshold absorbs
    assert sandwich_quality(3, 2, 25, CouplingLaw(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_measure_effective_coupling_is_diluted_cubically():
    for m in (1, 2, 3, 4):
        law = CouplingLaw(0.01)
        got = measure_effective_coupling(m, law)
        assert got == pytest.approx(coupling_strength(law, float(m)), rel=1e-9)
        assert got == pytest.approx(0.01 / m**3, rel=1e-9)


def test_measure_effective_coupling_accumulates_linearly():
    law = CouplingLaw(0.02)
    one = measure_effective_coupling(2, law, steps=1)
    five = measure_effective_coupling(2, law, steps=5)
    assert five == pytest.approx(one, rel=1e-9)


def test_run_sweep_is_deterministic_and_ordered():
    cfg = SweepConfig(m_values=(1, 2), l_values=(2,), p_values=(5, 10), delta_values=(0.01,))
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    assert a == b
    assert [(r.m, r.steps) for r in a.rows] == [(1, 5), (1, 10), (2, 5), (2, 10)]


def test_sweep_row_values_match_direct_benchmark():
    cfg = SweepConfig(m_values=(2,), l_values=(3,), p_values=(8,), delta_values=(0.02,))
    row = run_sweep(cfg).rows[0]
    direct = sandwich_quality(3, 2, idle_wait_steps(8, 2), CouplingLaw(0.02))
    assert row.q == direct
    assert row.sigma_est == pytest.approx(math.sqrt(-math.log(direct)), abs=1e-15)


def test_sweep_two_qubit_rows_follow_cosine_law():
    cfg = SweepConfig(m_values=(1,), l_values=(2,), p_values=(10, 20), delta_values=(0.01,))
    rows = run_sweep(cfg).rows
    assert rows[0].q == pytest.approx(math.cos(0.05) ** 2, abs=1e-12)
    assert rows[1].q == pytest.approx(math.cos(0.10) ** 2, abs=1e-12)


def test_sweep_dilution_improves_quality():
    cfg = SweepConfig(m_values=(1, 2), l_values=(3,), p_values=(20,), delta_values=(0.01,))
    rows = run_sweep(cfg).rows
    assert rows[1].q >= rows[0].q
    # holds under both pacings: the diluted register wins even when it
    # spends (2m-1)x longer per logical step
    basic = run_sweep(
        SweepConfig(
            m_values=(1, 2), l_values=(3,), p_values=(20,), delta_values=(0.01,), pace="basic"
        )
    ).rows
    assert basic[1].q >= basic[0].q


def test_fit_power_law_recovers_exact_exponent():
    xs = [2.0, 4.0, 8.0, 16.0]
    ys = [3.0 * x**-2.5 for x in xs]
    fit = fit_power_law(xs, ys)
    assert fit.exponent == pytest.approx(-2.5, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
    assert fit.residual < 1e-12
    assert fit.n_points == 4
    identity = fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert identity.exponent == pytest.approx(1.0, abs=1e-12)
    assert identity.residual < 1e-12
    cubic = fit_power_law([1.0, 2.0, 5.0, 10.0], [0.07 / x**3 for x in (1.0, 2.0, 5.0, 10.0)])
    assert cubic.exponent == pytest.approx(-3.0, abs=1e-9)


def test_fit_power_law_validation():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([0.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])


def test_fit_axis_drops_saturated_rows():
    cfg = SweepConfig(
        m_values=(1,), l_values=(2,), p_values=(10, 20, 40, 80), delta_values=(0.004,)
    )
    curve = run_sweep(cfg)
    fit = fit_axis(curve, "P")
    assert fit.exponent == pytest.approx(1.0, abs=0.05)
    # a noiseless sweep saturates every row, leaving nothing to fit
    flat = run_sweep(SweepConfig(m_values=(1, 2, 3), delta_values=(0.0,)))
    with pytest.raises(ValueError):
        fit_axis(flat, "m")
    with pytest.raises(ValueError):
        fit_axis(curve, "T")


def test_quality_decay_r2_on_exact_gaussian():
    deltas = [0.001, 0.002, 0.005, 0.01]
    qs = [math.exp(-50.0 * d * d) for d in deltas]
    assert quality_decay_r2(deltas, qs) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        quality_decay_r2([0.1, 0.2], [0.9, 0.8])


def test_dual_rail_points_and_fit():
    pts = dual_rail_points([10.0, 20.0, 40.0, 80.0])
    assert pts[0].strength == -2.0 / 990.0
    fit = fit_dual_rail_exponent(pts)
    assert fit.exponent == pytest.approx(-3.0, abs=0.05)
    with pytest.raises(ValueError):
        fit_dual_rail_exponent(dual_rail_points([10.0, 20.0, 40.0], g=0.0))


def test_format_float_and_csv_shape():
    assert format_float(5e8) == "5.00000000000e+08"
    assert format_float(0.0) == "0.00000000000e+00"
    cfg = SweepConfig(m_values=(1,), l_values=(2,), p_values=(10,), delta_values=(0.0,))
    text = curve_to_csv(run_sweep(cfg))
    assert text == (
        "m,L,P,delta,Q,sigma_est\n"
        "1,2,10,0.00000000000e+00,1.00000000000e+00,0.00000000000e+00\n"
    )


def test_curve_to_dict_structure():
    cfg = SweepConfig(m_values=(1, 2), l_values=(2,), p_values=(10,), delta_values=(0.01,))
    curve = run_sweep(cfg)
    doc = curve_to_dict(curve, {"m": fit_power_law([1.0, 2.0, 4.0], [1.0, 0.5, 0.25])})
    assert doc["config"]["m_values"] == [1, 2]
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["Q"] == curve.rows[0].q
    assert doc["fits"][0]["axis"] == "m"


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(m_values=())
    with pytest.raises(ValueError):
        SweepConfig(pace="fast")
    with pytest.raises(ValueError):
        SweepConfig(engine="tensor")
