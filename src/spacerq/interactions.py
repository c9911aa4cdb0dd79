"""Always-on diagonal qubit-qubit interaction model.

Two charge-like qubits whose basis states carry charges ``a`` (for 0) and
``b`` (for 1) interact through a product potential, giving the diagonal
pair Hamiltonian ``diag(a^2, ab, ab, b^2)`` over |00>, |01>, |10>, |11>.
The additive part of that spectrum acts like independent single-qubit
shifts and can be absorbed into the rotating frame; the nonadditive
remainder entangles the pair at rate (a - b)^2 / 2 (hbar = 1).  Over one
gate time tau the accumulated dimensionless phase is
delta = tau * (a - b)^2 / 2, which ``CouplingLaw.delta1`` holds for
nearest neighbours.

In a 1D register the pair strength falls off with site distance as a
power law, ``delta1 / d**p`` (``p = 3`` for dipole-like decay, ``p = 1``
for bare Coulomb).  A basis state accumulates phase from every site pair
whose bits differ; the simulator applies that sum as one diagonal step.

``coulomb_nonadditive`` gives the closed-form nonadditive strength of two
dual-rail encoded qubits under a bare ``g / distance`` potential, which
restores cubic decay even when the raw interaction falls off only as 1/D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CouplingLaw:
    """Power-law pair coupling: delta1 at unit distance, decaying as d**-exponent.

    ``cutoff`` optionally drops pairs beyond a distance; it defaults to None
    (no truncation) and must stay off for quantitative runs.
    """

    delta1: float
    exponent: int = 3
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.delta1) or self.delta1 < 0:
            raise ValueError("delta1 must be finite and non-negative")
        if int(self.exponent) != self.exponent or self.exponent < 1:
            raise ValueError("exponent must be a positive integer")
        if self.cutoff is not None and self.cutoff <= 0:
            raise ValueError("cutoff must be positive when given")


@dataclass(frozen=True)
class RegisterLayout:
    """Evenly spaced 1D register; sites are numbered from 1."""

    n_sites: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("n_sites must be at least 1")
        if not math.isfinite(self.spacing) or self.spacing <= 0:
            raise ValueError("spacing must be positive")


def coupling_strength(law: CouplingLaw, distance: float) -> float:
    """Pair coupling delta1 / distance**p; zero beyond the optional cutoff."""
    if not math.isfinite(distance) or distance <= 0:
        raise ValueError("distance must be positive")
    if law.cutoff is not None and distance > law.cutoff:
        return 0.0
    return law.delta1 / distance**law.exponent


def coulomb_nonadditive(separation: float, rail_spacing: float = 1.0, g: float = 1.0) -> float:
    """Nonadditive strength of two dual-rail qubits under a bare g/d potential.

    Each logical qubit is one charge shared between two rail sites a distance
    ``rail_spacing`` apart; the two qubits' leading rails sit ``separation``
    apart.  Summing g/d over the four logical configurations with signs
    (00) + (11) - (01) - (10) collapses to

        -2 * g * rail_spacing^2 / (separation * (separation^2 - rail_spacing^2))

    which decays as separation**-3 even though the raw potential is 1/d.
    """
    d, r = separation, rail_spacing
    if not (math.isfinite(d) and math.isfinite(r) and math.isfinite(g)):
        raise ValueError("arguments must be finite")
    if r <= 0 or d <= r:
        raise ValueError("need separation > rail_spacing > 0; rails overlap otherwise")
    return -2.0 * g * r * r / (d * (d * d - r * r))
