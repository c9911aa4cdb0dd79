"""The idle sandwich against its closed form, computed here without the simulator.

With every data qubit at its home site and the spacers in |0>, the
sandwich quality is

    Q = |2^-L sum_x exp(-i T (phi_dd(x) + sum_k r_k x_k))|^2,

where phi_dd sums delta / (m |k - l|)^3 over the data pairs whose bits
differ and r_k is data qubit k's coupling to every spacer site.  With the
known data-spacer phases undone (the default) the r_k term drops out.
The sum runs over all 2^L logical strings, so it reaches sizes the
Kronecker oracle in test_simulator.py cannot.
"""

from typing import Sequence

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spacerq.analysis import sandwich_quality
from spacerq.interactions import CouplingLaw


def spacer_rates(n_logical: int, m: int, delta: float) -> list[float]:
    """r_k: delta / d^3 summed from data qubit k's home site (k - 1) m + 1 over every spacer site."""
    spacers = [s for s in range(1, n_logical * m + 1) if (s - 1) % m]
    return [sum(delta / abs(k * m + 1 - s) ** 3 for s in spacers) for k in range(n_logical)]


def closed_form_quality(n_logical: int, m: int, wait_steps: int, delta: float, rates: Sequence[float] = ()) -> float:
    x = np.arange(1 << n_logical)
    bits = [((x >> (n_logical - 1 - k)) & 1).astype(bool) for k in range(n_logical)]
    phi = np.zeros(1 << n_logical)
    for k in range(n_logical):
        for l in range(k + 1, n_logical):
            phi += delta / (m * (l - k)) ** 3 * (bits[k] != bits[l])
    for k, rate in enumerate(rates):
        phi += rate * bits[k]
    return float(abs(np.mean(np.exp(-1j * wait_steps * phi))) ** 2)


@settings(max_examples=25, deadline=None)
@given(
    n_logical=st.integers(1, 16),
    m=st.integers(1, 4),
    wait_steps=st.integers(0, 1000),
    delta=st.floats(0.0, 0.05),
)
def test_sandwich_quality_matches_closed_form(n_logical, m, wait_steps, delta):
    q = sandwich_quality(n_logical, m, wait_steps, CouplingLaw(delta))
    assert abs(q - closed_form_quality(n_logical, m, wait_steps, delta)) <= 1e-10


def test_sandwich_quality_matches_closed_form_at_twenty_qubits():
    q = sandwich_quality(20, 2, 120, CouplingLaw(0.007))
    assert abs(q - closed_form_quality(20, 2, 120, 0.007)) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(
    n_logical=st.integers(1, 5),
    m=st.integers(1, 3),
    wait_steps=st.integers(0, 1000),
    delta=st.floats(0.0, 0.05),
    engine=st.sampled_from(["compressed", "full"]),
)
def test_uncompensated_sandwich_keeps_the_spacer_phases(n_logical, m, wait_steps, delta, engine):
    q = sandwich_quality(n_logical, m, wait_steps, CouplingLaw(delta), engine=engine, compensate_local_phases=False)
    rates = spacer_rates(n_logical, m, delta)
    assert abs(q - closed_form_quality(n_logical, m, wait_steps, delta, rates)) <= 1e-10
