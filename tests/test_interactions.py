"""Coupling-law, error-phase and dual-rail coupling tests.

Oracle values are hand-derived from the closed forms and frozen here;
the derivations are spelled out next to each constant.  The error phase
of a basis state is read off one error step of the simulator: a single
``WaitGate(1)`` takes |bits> to exp(-i phi) |bits>.
"""

import cmath
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacerq.circuits import PhysicalCircuit, WaitGate
from spacerq.interactions import CouplingLaw, RegisterLayout, coulomb_nonadditive, coupling_strength
from spacerq.simulator import ErrorModel, StateVector, run


def one_step(bits: str, law: CouplingLaw, spacing: float = 1.0) -> complex:
    """Amplitude of |bits> after one error step started from |bits>."""
    model = ErrorModel(law, RegisterLayout(len(bits), spacing))
    return run(PhysicalCircuit(len(bits), (WaitGate(1),)), model, StateVector.from_bits(bits)).final.amplitude(bits)


def test_coupling_strength_inverse_cube():
    law = CouplingLaw(0.01)
    assert coupling_strength(law, 1.0) == 0.01
    assert coupling_strength(law, 2.0) == pytest.approx(0.01 / 8, abs=1e-18)
    assert coupling_strength(law, 3.0) == pytest.approx(0.01 / 27, abs=1e-18)


def test_coupling_strength_other_exponents_and_cutoff():
    assert coupling_strength(CouplingLaw(1.0, exponent=1), 4.0) == 0.25
    law = CouplingLaw(1.0, cutoff=2.5)
    assert coupling_strength(law, 2.0) == 0.125
    assert coupling_strength(law, 3.0) == 0.0


def test_coupling_strength_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        coupling_strength(CouplingLaw(0.01), 0.0)
    with pytest.raises(ValueError):
        coupling_strength(CouplingLaw(0.01), -1.0)


def test_error_phase_counts_differing_pairs():
    law = CouplingLaw(1.0)
    # "101": pairs (1,2) and (2,3) differ at distance 1; (1,3) agree.
    assert abs(one_step("101", law) - cmath.exp(-2.0j)) <= 1e-15
    # "100": (1,2) and (1,3) differ -> 1 + 1/8
    assert abs(one_step("100", law) - cmath.exp(-1j * (1.0 + 1.0 / 8.0))) <= 1e-15
    assert abs(one_step("111", law) - 1.0) <= 1e-15
    assert abs(one_step("000", law) - 1.0) <= 1e-15


def test_error_phase_uses_layout_spacing():
    assert abs(one_step("10", CouplingLaw(1.0), spacing=2.0) - cmath.exp(-1j / 8.0)) <= 1e-15


@given(st.text(alphabet="01", min_size=2, max_size=8))
def test_error_phase_symmetries(bits):
    law = CouplingLaw(0.37)
    amp = one_step(bits, law)
    flipped = "".join("1" if c == "0" else "0" for c in bits)
    # complementing every bit preserves which pairs differ
    assert abs(amp - one_step(flipped, law)) <= 1e-12
    # so does mirroring the register
    assert abs(amp - one_step(bits[::-1], law)) <= 1e-12
    # phi is a sum of positive couplings, below pi for eight sites at 0.37; the angle reads back to rounding
    assert -cmath.phase(amp) >= -1e-15


def test_coulomb_nonadditive_frozen_value():
    # D = 10, r = 1, g = 1: -2 * 1 * 1 / (10 * (100 - 1)) = -2/990
    assert coulomb_nonadditive(10.0) == -2.0 / 990.0


@pytest.mark.parametrize("d", [3.0, 5.0, 10.0, 25.0, 50.0])
def test_coulomb_nonadditive_matches_four_configuration_sum(d):
    # brute force: two 1/x units, one charge each at offset 0 or r inside its
    # unit; the pair-distinguishing part is the alternating four-term sum
    r, g = 1.0, 1.0
    brute = g * (2.0 / d - 1.0 / (d + r) - 1.0 / (d - r))
    assert math.isclose(coulomb_nonadditive(d, r, g), brute, rel_tol=1e-12)


def test_coulomb_nonadditive_scales_with_g_and_validates():
    assert coulomb_nonadditive(10.0, 1.0, 3.0) == 3.0 * coulomb_nonadditive(10.0)
    with pytest.raises(ValueError):
        coulomb_nonadditive(1.0, 1.0)  # separation must exceed the rail spacing
    with pytest.raises(ValueError):
        coulomb_nonadditive(10.0, 0.0)
