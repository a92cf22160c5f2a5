import itertools
import re

import numpy as np
import pytest

from hyperbell import observables, optics
from hyperbell.hilbert import ATOL, StateVector
from hyperbell.lhv import APPARATUSES
from hyperbell.observables import (
    build_bell_states,
    doubly_entangled_state,
    element_operator,
)
from hyperbell.optics import (
    BELL_LABELS,
    bell_histogram,
    bell_probabilities,
    build_apparatus,
    element_unitary,
    pattern_distribution,
    readout_table,
)

from reference import joint_distribution

#: Commutation tolerance for the two elements one apparatus reads.
COMMUTATOR_ATOL = 1e-13

PSI = doubly_entangled_state()
PSI_RHO = np.outer(PSI.amps, PSI.amps.conj())
INV = 1 / np.sqrt(2)

#: The polarization-path Bell state of each sign pair (z z', x x').
BELL_BY_SIGNS = {(1, 1): "phi+", (1, -1): "phi-", (-1, 1): "psi+", (-1, -1): "psi-"}

#: Sign order (s_a, s_b) of the rows of ``_joint_eigenbasis``.
SIGN_ORDER = [(1, 1), (1, -1), (-1, 1), (-1, -1)]

SIGMA = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def pauli(letters):
    return np.kron(SIGMA[letters[0]], SIGMA[letters[1]])


#: Ordered pairs of distinct, commuting two-qubit Pauli strings over {I, X, Z}.
COMMUTING_PAIRS = [
    (a, b)
    for a, b in itertools.permutations(
        ["".join(p) for p in itertools.product("IXZ", repeat=2) if p != ("I", "I")], 2
    )
    if np.array_equal(pauli(a) @ pauli(b), pauli(b) @ pauli(a))
]


# basis kets of one photon as rows: (H,u)=0, (H,d)=1, (V,u)=2, (V,d)=3
EYE4 = np.eye(4)


def test_bs_acts_on_path_only():
    bs = element_unitary("BS")
    # |u> -> (|u>+|d>)/sqrt2 for both polarizations
    np.testing.assert_allclose(bs @ EYE4[0], [INV, INV, 0, 0], atol=ATOL)
    np.testing.assert_allclose(bs @ EYE4[2], [0, 0, INV, INV], atol=ATOL)
    # |d> -> (|u>-|d>)/sqrt2
    np.testing.assert_allclose(bs @ EYE4[1], [INV, -INV, 0, 0], atol=ATOL)


def test_hwp_acts_on_polarization_only():
    hwp = element_unitary("HWP45")
    # |V> -> (|H>-|V>)/sqrt2, path untouched
    np.testing.assert_allclose(hwp @ EYE4[2], [INV, 0, -INV, 0], atol=ATOL)
    np.testing.assert_allclose(hwp @ EYE4[0], [INV, 0, INV, 0], atol=ATOL)


def test_pbs_port_convention():
    pbs = element_unitary("PBS")
    # H transmits keeping its path, V reflects swapping u <-> d, no phase
    np.testing.assert_allclose(pbs @ EYE4[0], EYE4[0], atol=ATOL)
    np.testing.assert_allclose(pbs @ EYE4[1], EYE4[1], atol=ATOL)
    np.testing.assert_allclose(pbs @ EYE4[2], EYE4[3], atol=ATOL)
    np.testing.assert_allclose(pbs @ EYE4[3], EYE4[2], atol=ATOL)


@pytest.mark.parametrize("kind", ["BS", "HWP45", "PBS"])
def test_every_element_is_unitary(kind):
    u = element_unitary(kind)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(4), atol=ATOL)
    assert not u.flags.writeable


def test_a_chain_that_is_not_unitary_is_rejected(monkeypatch):
    # the orthonormality check of build_apparatus is the run-time guard on
    # every element: a PBS that sends |V,d> nowhere leaves apparatus 4 (PBS
    # alone) a singular basis
    unitary = optics.element_unitary

    def element(kind):
        matrix = np.zeros((4, 4), dtype=complex)
        matrix[0, 0] = matrix[1, 1] = matrix[3, 2] = 1.0
        return matrix if kind == "PBS" else unitary(kind)

    monkeypatch.setattr(optics, "element_unitary", element)
    build_apparatus.cache_clear()
    try:
        with pytest.raises(AssertionError, match="^apparatus 4: basis is not orthonormal"):
            build_apparatus(4)
    finally:
        build_apparatus.cache_clear()  # keep no spec built from the bad PBS


def test_element_validation():
    with pytest.raises(ValueError, match="'mirror'"):
        element_unitary("mirror")


EXPECTED_ASSIGNMENT = {
    1: (1, "z1", "x1'"),
    2: (2, "x2", "x2'"),
    3: (1, "x1", "z1'"),
    4: (2, "z2", "z2'"),
    5: (1, "z1z1'", "x1x1'"),
    6: (2, "z2x2'", "x2z2'"),
}


@pytest.mark.parametrize("apparatus_id", range(1, 7))
def test_apparatus_assignment_table(apparatus_id):
    spec = build_apparatus(apparatus_id)
    photon, name_a, name_b = EXPECTED_ASSIGNMENT[apparatus_id]
    assert (spec.photon, spec.observable_a, spec.observable_b) == (
        photon,
        name_a,
        name_b,
    )


@pytest.mark.parametrize("apparatus_id", range(1, 7))
def test_apparatus_soundness(apparatus_id):
    spec = build_apparatus(apparatus_id)
    # orthonormal, complete detector basis
    gram = spec.basis @ spec.basis.conj().T
    assert np.abs(gram - np.eye(4)).max() < ATOL
    # commuting primary observables
    op_a = element_operator(spec.observable_a)
    op_b = element_operator(spec.observable_b)
    product = op_a.matrix @ op_b.matrix
    assert np.abs(product - op_b.matrix @ op_a.matrix).max() < COMMUTATOR_ATOL
    # every basis state is a joint eigenvector with the labeled eigenvalues,
    # and an eigenvector of A*B with their product
    for d in range(4):
        vec = spec.basis[d]
        va, vb = spec.detector_map[d]
        assert np.abs(op_a.matrix @ vec - va * vec).max() < ATOL
        assert np.abs(op_b.matrix @ vec - vb * vec).max() < ATOL
        assert np.abs(product @ vec - va * vb * vec).max() < ATOL
    # all four sign patterns occur exactly once
    assert sorted(spec.detector_map) == [
        (-1, -1), (-1, 1), (1, -1), (1, 1),
    ]


def test_apparatus_1_basis_is_pol_z_path_x():
    spec = build_apparatus(1)
    targets = [
        np.array([INV, INV, 0, 0]),   # |H,u+d>
        np.array([INV, -INV, 0, 0]),  # |H,u-d>
        np.array([0, 0, INV, INV]),   # |V,u+d>
        np.array([0, 0, INV, -INV]),  # |V,u-d>
    ]
    for target in targets:
        overlaps = [abs(np.vdot(spec.basis[d], target)) for d in range(4)]
        assert max(overlaps) == pytest.approx(1.0, abs=1e-9)


def test_apparatus_4_basis_is_computational():
    spec = build_apparatus(4)
    as_sets = sorted(tuple(np.abs(row).round(12)) for row in spec.basis)
    assert as_sets == sorted(tuple(np.eye(4)[i]) for i in range(4))


def test_apparatus_5_basis_is_bell_basis():
    # each detector is the Bell state its own (z z', x x') signs name
    spec = build_apparatus(5)
    bells = build_bell_states("pol-path")
    labels = [BELL_BY_SIGNS[signs] for signs in spec.detector_map]
    assert sorted(labels) == sorted(BELL_BY_SIGNS.values())
    for d, label in enumerate(labels):
        assert abs(np.vdot(spec.basis[d], bells[label].amps)) == pytest.approx(1.0)


def test_apparatus_6_basis_matches_the_hand_written_vectors():
    # the joint eigenbasis of (z x', x z') written out by hand; a detector state is
    # fixed only up to its own phase, and the chain's fourth is -1 times its vector
    h_plus, h_minus = np.array([INV, INV, 0, 0]), np.array([INV, -INV, 0, 0])
    v_plus, v_minus = np.array([0, 0, INV, INV]), np.array([0, 0, INV, -INV])
    expected = INV * np.array(
        [h_plus + v_minus, h_plus - v_minus, h_minus + v_plus, h_minus - v_plus]
    )
    basis = build_apparatus(6).basis
    for d in range(4):
        phase = np.vdot(expected[d], basis[d])
        assert abs(abs(phase) - 1.0) <= 1e-15
        assert np.abs(basis[d] - phase * expected[d]).max() <= 1e-15


def _joint_eigenbasis(a: np.ndarray, b: np.ndarray, name: str) -> np.ndarray:
    """Joint eigenbasis of commuting +-1 observables A and B, one row per sign pair.

    Row d, with signs (s_a, s_b) in ``SIGN_ORDER``, is the first nonzero column
    of (1 + s_a A)(1 + s_b B), normalized.  A zero projector (B = +-A) raises
    ``AssertionError`` naming ``name``.
    """
    eye = np.eye(a.shape[0])
    rows = []
    for s_a, s_b in SIGN_ORDER:
        projector = (eye + s_a * a) @ (eye + s_b * b)
        norms = np.linalg.norm(projector, axis=0)
        nonzero = np.flatnonzero(norms >= ATOL)
        if not nonzero.size:
            raise AssertionError(f"{name}: no joint eigenvector with signs ({s_a:+d}, {s_b:+d})")
        rows.append(projector[:, nonzero[0]] / norms[nonzero[0]])
    return np.array(rows)


@pytest.mark.parametrize("apparatus_id", range(1, 7))
def test_chain_detectors_are_the_joint_eigenvectors_of_their_signs(apparatus_id):
    # second path: each chain detector against the joint eigenvector of the
    # two elements' operators with that detector's own sign pair
    spec = build_apparatus(apparatus_id)
    assert APPARATUSES[apparatus_id][1]  # every apparatus has an element chain
    joint = _joint_eigenbasis(
        element_operator(spec.observable_a).matrix,
        element_operator(spec.observable_b).matrix,
        f"apparatus {apparatus_id}",
    )
    for vec, signs in zip(spec.basis, spec.detector_map):
        overlap = abs(np.vdot(vec, joint[SIGN_ORDER.index(signs)]))
        assert abs(overlap - 1.0) <= 1e-12


def test_every_commuting_pauli_pair_has_a_joint_eigenbasis():
    assert len(COMMUTING_PAIRS) == 28
    for a, b in COMMUTING_PAIRS:
        basis = _joint_eigenbasis(pauli(a), pauli(b), f"{a}, {b}")
        assert np.abs(basis @ basis.conj().T - np.eye(4)).max() < ATOL
        for vec, (s_a, s_b) in zip(basis, SIGN_ORDER):
            assert np.abs(pauli(a) @ vec - s_a * vec).max() < ATOL
            assert np.abs(pauli(b) @ vec - s_b * vec).max() < ATOL


def test_dependent_pair_has_no_joint_eigenbasis(monkeypatch):
    with pytest.raises(AssertionError, match="^ZX, ZX: "):
        _joint_eigenbasis(pauli("ZX"), pauli("ZX"), "ZX, ZX")
    # an apparatus that reads one element twice, through its own chain, is named in the error
    table = {**optics.APPARATUSES, 6: (("z2x2'", "z2x2'"), optics.APPARATUSES[6][1])}
    monkeypatch.setattr(optics, "APPARATUSES", table)
    with pytest.raises(AssertionError, match="^apparatus 6: "):
        build_apparatus.__wrapped__(6)


@pytest.mark.parametrize(
    "apparatus_id, chain, name", [(1, ("PBS",), "x1'"), (6, ("HWP45", "BS", "PBS"), "z2x2'")]
)
def test_chain_that_does_not_read_an_element_is_rejected(monkeypatch, apparatus_id, chain, name):
    # the chain's detector states are not eigenvectors of the named element
    table = {**optics.APPARATUSES, apparatus_id: (optics.APPARATUSES[apparatus_id][0], chain)}
    monkeypatch.setattr(optics, "APPARATUSES", table)
    message = rf"^apparatus {apparatus_id} {name}: basis state is not a \+-1 eigenvector"
    with pytest.raises(AssertionError, match=message):
        build_apparatus.__wrapped__(apparatus_id)


def test_detectors_that_do_not_resolve_both_elements_are_rejected(monkeypatch):
    # z2 read twice: the PBS chain's detectors are eigenvectors, but two share each sign pair
    table = {**optics.APPARATUSES, 4: (("z2", "z2"), ("PBS",))}
    monkeypatch.setattr(optics, "APPARATUSES", table)
    with pytest.raises(AssertionError, match="^apparatus 4: detectors do not resolve z2 and z2"):
        build_apparatus.__wrapped__(4)


def test_non_commuting_pair_is_rejected(monkeypatch):
    # z1 and x1 anticommute, so no basis is a joint eigenbasis of both: apparatus
    # 1's chain reads z1, and its detector states are not eigenvectors of x1
    table = {**optics.APPARATUSES, 1: (("z1", "x1"), optics.APPARATUSES[1][1])}
    monkeypatch.setattr(optics, "APPARATUSES", table)
    message = r"^apparatus 1 x1: basis state is not a \+-1 eigenvector"
    with pytest.raises(AssertionError, match=message):
        build_apparatus.__wrapped__(1)


def test_build_apparatus_rejects_bad_id():
    for bad in (0, 7, True, 1.0, "1", None):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            build_apparatus(bad)
    # a rejected True or 1.0 leaves no cache entry that id 1 could be handed
    assert type(build_apparatus(1).id) is int


def test_build_apparatus_takes_any_integer_id():
    spec = build_apparatus(np.int64(1))
    assert spec.id == 1 and type(spec.id) is int
    assert spec.detector_map == build_apparatus(1).detector_map


def test_cold_rebuild_runs_every_detector_check(monkeypatch):
    # nothing under build_apparatus is cached: after cache_clear, apparatuses
    # 1-6 build their 12 element operators and read all 6 x 2 elements' labels
    calls = {"pauli": 0, "eigenvalue": 0}

    def counted(key, original):
        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        return wrapper

    for i in range(1, 7):
        build_apparatus(i)  # warm, as certify is before it times a cold rebuild
    monkeypatch.setattr(observables, "_pauli_matrix", counted("pauli", observables._pauli_matrix))
    monkeypatch.setattr(
        optics, "_basis_eigenvalues", counted("eigenvalue", optics._basis_eigenvalues)
    )
    build_apparatus.cache_clear()
    try:
        assert [build_apparatus(i).id for i in range(1, 7)] == [1, 2, 3, 4, 5, 6]
    finally:
        build_apparatus.cache_clear()
    assert calls == {"pauli": 12, "eigenvalue": 12}


@pytest.mark.parametrize(
    "pair", [(1, 4), (3, 2), (5, 6), (1, 6), (5, 4)]
)
def test_joint_distribution_against_direct_born_probabilities(pair):
    # independent oracle: embed each detector-basis pair as a 16-dim product
    # ket and project directly
    a1 = build_apparatus(pair[0])
    a2 = build_apparatus(pair[1])
    probs = joint_distribution(a1, a2, PSI)
    assert probs.shape == (4, 4)
    assert probs.sum() == pytest.approx(1.0, abs=ATOL)
    for d1 in range(4):
        for d2 in range(4):
            product_bra = np.kron(a1.basis[d1], a2.basis[d2])
            direct = abs(np.vdot(product_bra, PSI.amps)) ** 2
            assert probs[d1, d2] == pytest.approx(direct, abs=ATOL)


def test_pair_side_validation():
    with pytest.raises(ValueError):
        joint_distribution(build_apparatus(4), build_apparatus(4), PSI)
    with pytest.raises(ValueError):
        joint_distribution(build_apparatus(1), build_apparatus(3), PSI)
    with pytest.raises(ValueError):
        pattern_distribution(build_apparatus(2), build_apparatus(4), PSI_RHO)
    with pytest.raises(ValueError):
        pattern_distribution(build_apparatus(1), build_apparatus(4), np.eye(4) / 4)
    with pytest.raises(ValueError):
        pattern_distribution(build_apparatus(1), build_apparatus(4), 2 * PSI_RHO)


def test_perfect_anticorrelation_every_shot():
    # z1 * z2 = -1 on every counted shot of the matched pair, not just on average
    a1, a4 = build_apparatus(1), build_apparatus(4)
    counts = np.random.default_rng(21).multinomial(
        300, pattern_distribution(a1, a4, PSI_RHO).ravel()
    )
    table = readout_table(a1, a4)
    fired = counts > 0
    assert counts.sum() == 300
    assert (table["z1"][fired] * table["z2"][fired] == -1).all()
    assert (table["z1"] * table["x1'"] == table["z1*x1'"]).all()
    assert (table["z2"] * table["z2'"] == table["z2*z2'"]).all()


def test_product_state_statistics_with_apparatus_1():
    # |H,u;H,u>: z1 is +1 with certainty, x1' is uniform
    state = StateVector(np.eye(16)[0])
    a1, a4 = build_apparatus(1), build_apparatus(4)
    probs = joint_distribution(a1, a4, state).ravel()
    table = readout_table(a1, a4)
    assert probs[table["z1"] == 1].sum() == pytest.approx(1.0, abs=ATOL)
    assert probs[table["x1'"] == 1].sum() == pytest.approx(0.5, abs=ATOL)

    rho = np.outer(state.amps, state.amps.conj())
    counts = np.random.default_rng(5).multinomial(
        4000, pattern_distribution(a1, a4, rho).ravel()
    )
    assert counts[table["z1"] == -1].sum() == 0
    assert abs(counts @ table["x1'"]) / 4000 < 0.05  # ~3 sigma is 0.047


def test_sampled_rows_match_eigenvalues_on_psi():
    # each constraint row is read deterministically by its matched pair
    pairs = {1: (1, 4), 5: (5, 4), 9: (5, 6)}
    variables = {
        1: ("z1", "z2"),
        5: ("z1z1'", "z2", "z2'"),
        9: ("z1z1'", "x1x1'", "z2x2'", "x2z2'"),
    }
    expected = {1: -1, 5: 1, 9: -1}
    rng = np.random.default_rng(9)
    for row_id, (i, j) in pairs.items():
        a1, a2 = build_apparatus(i), build_apparatus(j)
        counts = rng.multinomial(2000, pattern_distribution(a1, a2, PSI_RHO).ravel())
        table = readout_table(a1, a2)
        product = np.prod([table[name] for name in variables[row_id]], axis=0)
        assert counts[product == expected[row_id]].sum() == 2000


def test_readout_table_consistency():
    for a1_id in (1, 3, 5):
        for a2_id in (2, 4, 6):
            a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
            table = readout_table(a1, a2)
            # six local values, photon 1 then photon 2, then the nine cross products
            assert list(table)[:6] == [*a1.value_names, *a2.value_names]
            assert len(table) == 15
            for spec in (a1, a2):
                a, b, ab = spec.value_names
                assert (table[a] * table[b] == table[ab]).all()
            for name1 in a1.value_names:
                for name2 in a2.value_names:
                    assert (table[f"{name1}*{name2}"] == table[name1] * table[name2]).all()
            # entry 4*d1 + d2 carries detector d1's and detector d2's labels
            for d1 in range(4):
                for d2 in range(4):
                    assert table[a1.observable_a][4 * d1 + d2] == a1.detector_map[d1][0]
                    assert table[a2.observable_b][4 * d1 + d2] == a2.detector_map[d2][1]


def test_bell_probabilities_of_named_states():
    states = build_bell_states("pol-path")
    for label in BELL_LABELS:
        probs = bell_probabilities(states[label])
        assert probs[label] == pytest.approx(1.0, abs=ATOL)
        assert sum(probs.values()) == pytest.approx(1.0, abs=ATOL)


def test_bell_probabilities_match_the_hand_written_bell_states():
    # apparatus 5's table-derived basis against the hand-written amplitudes
    bells = build_bell_states("pol-path")
    rng = np.random.default_rng(5)
    for _ in range(50):
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = StateVector(raw / np.linalg.norm(raw))
        expected = {label: abs(np.vdot(bells[label].amps, state.amps)) ** 2
                    for label in BELL_LABELS}
        assert bell_probabilities(state) == expected


def test_bell_probabilities_of_product_ket():
    # |H,u> = (phi+ + phi-)/sqrt2: never psi+-, each phi half the time
    probs = bell_probabilities(StateVector(EYE4[0]))
    assert probs["phi+"] == pytest.approx(0.5, abs=ATOL)
    assert probs["phi-"] == pytest.approx(0.5, abs=ATOL)
    assert probs["psi+"] == pytest.approx(0.0, abs=ATOL)
    assert probs["psi-"] == pytest.approx(0.0, abs=ATOL)


def test_bell_histogram_counts():
    states = build_bell_states("pol-path")
    rng = np.random.default_rng(17)
    counts = bell_histogram(states["psi-"], 500, rng)
    assert counts == {"psi+": 0, "psi-": 500, "phi+": 0, "phi-": 0}
    counts = bell_histogram(StateVector(EYE4[0]), 2000, rng)
    assert counts["psi+"] == 0 and counts["psi-"] == 0
    assert counts["phi+"] + counts["phi-"] == 2000


def test_bell_input_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        bell_probabilities(StateVector(np.eye(16)[0]))
    for bad in (True, 2.5, "5", 0, 2**64):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            bell_histogram(StateVector(EYE4[0]), bad, rng)


def test_rows_commute_within_each_apparatus_grouping():
    # the three quantities one apparatus reads commute pairwise as operators
    for apparatus_id in range(1, 7):
        spec = build_apparatus(apparatus_id)
        op_a = element_operator(spec.observable_a)
        op_b = element_operator(spec.observable_b)
        a, b = op_a.matrix, op_b.matrix
        for left, right in itertools.combinations((a, b, a @ b), 2):
            assert np.abs(left @ right - right @ left).max() < COMMUTATOR_ATOL
