"""Reference paths that only the tests use: plain Born probabilities of a pure
state over a pair's detector patterns, and the four-level relabeling of a state.
"""

import numpy as np

from hyperbell.hilbert import StateVector
from hyperbell.optics import ApparatusSpec, _check_sides


def joint_distribution(
    a1: ApparatusSpec, a2: ApparatusSpec, state: StateVector
) -> np.ndarray:
    """Born probabilities p[d1, d2] of a pure state over the 4 x 4 detector patterns."""
    _check_sides(a1, a2)
    if state.dim != 16:
        raise ValueError("pair measurement expects the 16-dim two-photon state")
    grid = state.amps.reshape(4, 4)
    amplitudes = a1.basis.conj() @ grid @ a2.basis.conj().T
    probs = np.abs(amplitudes) ** 2
    total = probs.sum()
    if abs(total - 1.0) >= 1e-9:
        raise AssertionError(f"pattern distribution sums to {total!r}")
    return probs / total


def qudit_relabel(state: StateVector) -> np.ndarray:
    """Coefficients c[j, k] of a 16-dim state over four-level labels per photon.

    Labels per photon: |H,u> -> 0, |H,d> -> 1, |V,u> -> 2, |V,d> -> 3, so the
    flat two-photon index is 4*j + k and the grid is a plain reshape.  For the
    doubly entangled state the nonzero entries are c[0,3] = c[3,0] = +1/2 and
    c[1,2] = c[2,1] = -1/2.
    """
    if state.dim != 16:
        raise ValueError("qudit relabeling is defined for 16-dim states")
    return state.amps.reshape(4, 4).copy()
