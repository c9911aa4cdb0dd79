"""Coupling-law, error-phase and dual-rail coupling tests.

Oracle values are hand-derived from the closed forms and frozen here;
the derivations are spelled out next to each constant.
"""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spacerq.interactions import CouplingLaw, RegisterLayout, coulomb_nonadditive, coupling_strength, error_phase


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
    layout = RegisterLayout(3)
    law = CouplingLaw(1.0)
    # "101": pairs (1,2) and (2,3) differ at distance 1; (1,3) agree.
    assert error_phase("101", layout, law) == pytest.approx(2.0, abs=1e-15)
    # "100": (1,2) and (1,3) differ -> 1 + 1/8
    assert error_phase("100", layout, law) == pytest.approx(1.0 + 1.0 / 8.0, abs=1e-15)
    assert error_phase("111", layout, law) == 0.0
    assert error_phase("000", layout, law) == 0.0


def test_error_phase_uses_layout_spacing():
    layout = RegisterLayout(2, spacing=2.0)
    assert error_phase("10", layout, CouplingLaw(1.0)) == pytest.approx(1.0 / 8.0, abs=1e-15)


@given(st.text(alphabet="01", min_size=2, max_size=8))
def test_error_phase_symmetries(bits):
    layout = RegisterLayout(len(bits))
    law = CouplingLaw(0.37)
    phi = error_phase(bits, layout, law)
    flipped = "".join("1" if c == "0" else "0" for c in bits)
    # complementing every bit preserves which pairs differ
    assert math.isclose(phi, error_phase(flipped, layout, law), rel_tol=0, abs_tol=1e-12)
    # so does mirroring the register
    assert math.isclose(phi, error_phase(bits[::-1], layout, law), rel_tol=0, abs_tol=1e-12)
    assert phi >= 0.0


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


def test_register_layout_distances():
    layout = RegisterLayout(5, spacing=1.5)
    assert layout.distance(1, 4) == pytest.approx(4.5)
    assert layout.distance(4, 1) == pytest.approx(4.5)
    with pytest.raises(ValueError):
        layout.distance(0, 3)
    with pytest.raises(ValueError):
        layout.distance(1, 6)
