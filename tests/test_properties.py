"""Two code paths compared on random pure and mixed two-photon states.

rho = A A^dagger / tr(A A^dagger) with A a complex 16 x k matrix, k in 1..16;
k = 1 gives pure states.  The batched Born computation of the nine rows is
checked against the per-pair one, the detector marginals against no
signalling, and the correlations read off the detector maps against
tr(rho Q) from the operators.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from hyperbell.experiment import ROW_APPARATUS_PAIRS, _row_tables, exact_expectation
from hyperbell.lhv import CONSTRAINTS
from hyperbell.optics import born_distribution, build_apparatus, pattern_distribution

PHOTON1_APPARATUSES = (1, 3, 5)
PHOTON2_APPARATUSES = (2, 4, 6)


@st.composite
def density_matrices(draw):
    rank = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((16, rank)) + 1j * rng.standard_normal((16, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def row_distributions(rho):
    bras, values = _row_tables()
    return born_distribution(bras, rho), values


@settings(deadline=None)
@given(density_matrices())
def test_batched_rows_match_per_pair_distributions(rho):
    probs, _ = row_distributions(rho)
    assert probs.shape == (9, 16)
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    for constraint, row in zip(CONSTRAINTS, probs):
        a1_id, a2_id = ROW_APPARATUS_PAIRS[constraint.id]
        pair = pattern_distribution(build_apparatus(a1_id), build_apparatus(a2_id), rho)
        assert np.abs(row - pair.ravel()).max() <= 1e-12


@settings(deadline=None)
@given(density_matrices())
def test_no_signalling(rho):
    def marginals(a1_id, a2_id):
        p = pattern_distribution(build_apparatus(a1_id), build_apparatus(a2_id), rho)
        return p.sum(axis=1), p.sum(axis=0)

    for a1_id in PHOTON1_APPARATUSES:
        first = [marginals(a1_id, a2_id)[0] for a2_id in PHOTON2_APPARATUSES]
        for other in first[1:]:
            assert np.abs(other - first[0]).max() <= 1e-12
    for a2_id in PHOTON2_APPARATUSES:
        second = [marginals(a1_id, a2_id)[1] for a1_id in PHOTON1_APPARATUSES]
        for other in second[1:]:
            assert np.abs(other - second[0]).max() <= 1e-12


@settings(deadline=None)
@given(density_matrices())
def test_row_correlations_match_operator_traces(rho):
    probs, values = row_distributions(rho)
    correlations = (probs * values).sum(axis=1)
    for constraint, correlation in zip(CONSTRAINTS, correlations):
        assert abs(correlation - exact_expectation(constraint.id, rho)) <= 1e-12
    signs = np.array([c.required_product for c in CONSTRAINTS])
    assert abs(signs @ correlations - exact_expectation("O", rho)) <= 1e-12
