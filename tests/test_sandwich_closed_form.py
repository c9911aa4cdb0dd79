"""The idle sandwich against its closed form, computed here without the simulator.

With every data qubit at its home site, the spacers in |0> and the known
data-spacer phases undone, the sandwich quality is

    Q = |2^-L sum_x exp(-i T phi_dd(x))|^2,

where phi_dd sums delta / (m |k - l|)^3 over the data pairs whose bits
differ.  The sum runs over all 2^L logical strings, so it reaches sizes
the Kronecker oracle in test_simulator.py cannot.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spacerq.analysis import sandwich_quality
from spacerq.interactions import CouplingLaw


def closed_form_quality(n_logical: int, m: int, wait_steps: int, delta: float) -> float:
    x = np.arange(1 << n_logical)
    bits = [(x >> (n_logical - 1 - k)) & 1 for k in range(n_logical)]
    phi_dd = np.zeros(1 << n_logical)
    for k in range(n_logical):
        for l in range(k + 1, n_logical):
            phi_dd += delta / (m * (l - k)) ** 3 * (bits[k] != bits[l])
    return float(abs(np.mean(np.exp(-1j * wait_steps * phi_dd))) ** 2)


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
