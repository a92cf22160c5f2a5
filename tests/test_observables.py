import dataclasses
import functools
import itertools

import numpy as np
import pytest

from hyperbell import experiment, observables
from hyperbell.hilbert import ATOL, StateVector, expectation
from hyperbell.lhv import CONSTRAINTS, ELEMENT_PAULI, ELEMENTS, LhvConstraint, element_photon
from hyperbell.observables import (
    CONSTRAINT_ROWS,
    ConstraintRow,
    SIGMA_X,
    SIGMA_Z,
    _product_operator,
    bell_mermin_operator,
    build_bell_states,
    doubly_entangled_state,
    element_operator,
    verify_eigenequations,
)

from reference import qudit_relabel

PSI = doubly_entangled_state()

#: The eight single-qubit observables, named axis, photon, and a prime on the path.
SINGLES = ("z1", "x1", "z1'", "x1'", "z2", "x2", "z2'", "x2'")


def slot(name):
    """(photon, dof) factor a single-qubit observable acts on."""
    return int(name[1]), "path" if name.endswith("'") else "pol"


def single_qubit_matrix(name):
    """Reference 16-dim sigma on one (photon, dof) factor, as a plain np.kron chain."""
    photon, dof = slot(name)
    factors = [np.eye(2)] * 4
    factors[2 * (photon - 1) + (dof == "path")] = SIGMA_X if name[0] == "x" else SIGMA_Z
    return np.kron(np.kron(factors[0], factors[1]), np.kron(factors[2], factors[3]))


def factors(name):
    """Single-qubit factors of a named element, polarization factor first."""
    if name in SINGLES:
        return [name]
    photon = name[1]
    return [name[0] + photon, name[2] + photon + "'"]


def test_state_amplitudes():
    # expansion of the double singlet under index 8*pol1 + 4*path1 + 2*pol2 + path2
    expected = np.zeros(16, dtype=complex)
    expected[3] = 0.5
    expected[6] = -0.5
    expected[9] = -0.5
    expected[12] = 0.5
    np.testing.assert_array_equal(PSI.amps, expected)
    assert np.vdot(PSI.amps, PSI.amps) == pytest.approx(1.0, abs=ATOL)


def test_exactly_eight_local_observables():
    # eight elements have one non-identity Pauli letter; the other four have two
    singles = {name for name in ELEMENTS if len(ELEMENT_PAULI[name].replace("I", "")) == 1}
    assert singles == set(SINGLES)
    assert len(ELEMENTS) - len(singles) == 4


def test_local_observable_validation():
    # only the twelve named elements have a realization
    for name in ("z3", "y1", "z1''", "z1z2", ""):
        with pytest.raises(KeyError):
            element_operator(name)
        with pytest.raises(KeyError):
            _product_operator((name,))


@pytest.mark.parametrize("name", sorted(SINGLES))
def test_observables_are_hermitian_involutions(name):
    op = _product_operator((name,))
    np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
    np.testing.assert_array_equal(op.matrix, single_qubit_matrix(name))
    np.testing.assert_allclose(op.matrix @ op.matrix, np.eye(16), atol=ATOL)


def test_observable_eigenkets():
    z1 = _product_operator(("z1",))
    huhu = StateVector(np.eye(16)[0])
    np.testing.assert_allclose(z1.matrix @ huhu.amps, huhu.amps, atol=ATOL)

    # |H> (x) (|u>+|d>)/sqrt2 (x) |H> (x) |u> is a +1 eigenket of x1'
    h, u, plus_path = [1, 0], [1, 0], np.array([1, 1]) / np.sqrt(2)
    state = StateVector(np.kron(np.kron(h, plus_path), np.kron(h, u)))
    x1p = _product_operator(("x1'",))
    np.testing.assert_allclose(x1p.matrix @ state.amps, state.amps, atol=ATOL)


def test_commutation_structure_all_28_pairs():
    # same (photon, dof) slot -> anticommuting pair (norm 2); otherwise commuting
    names = sorted(SINGLES)
    same_slot = 0
    for a, b in itertools.combinations(names, 2):
        reference = single_qubit_matrix(a) @ single_qubit_matrix(b)
        reference = reference - single_qubit_matrix(b) @ single_qubit_matrix(a)
        op_a, op_b = _product_operator((a,)).matrix, _product_operator((b,)).matrix
        norm = np.abs(op_a @ op_b - op_b @ op_a).max()
        assert norm == np.abs(reference).max()
        if slot(a) == slot(b):
            same_slot += 1
            assert norm == pytest.approx(2.0, abs=ATOL)
        else:
            assert norm < 1e-13
    assert same_slot == 4


def test_element_factors_and_photons():
    assert factors("z1z1'") == ["z1", "z1'"]
    assert factors("x2z2'") == ["x2", "z2'"]
    assert factors("z2") == ["z2"]
    for name in ELEMENTS:
        # every factor sits on the element's photon, and the other photon's
        # two Pauli letters are the identity
        assert {slot(f)[0] for f in factors(name)} == {element_photon(name)}
        other = ELEMENT_PAULI[name][2:] if element_photon(name) == 1 else ELEMENT_PAULI[name][:2]
        assert other == "II"
    with pytest.raises(KeyError):
        element_photon("y1")


def factor_chain(names):
    """Product, in order, of the named elements' factors, each a reference np.kron chain."""
    built = np.eye(16, dtype=complex)
    for name in names:
        for factor in factors(name):
            built = built @ single_qubit_matrix(factor)
    return built


def test_element_operator_consistency():
    # 16-dim element realizations equal the product of their factors, each a
    # reference np.kron chain independent of the Pauli table
    for name in ELEMENTS:
        direct = _product_operator((name,)).matrix
        np.testing.assert_allclose(direct, factor_chain((name,)), atol=ATOL)
        # elements are involutions too
        np.testing.assert_allclose(direct @ direct, np.eye(16), atol=ATOL)
    # and each row's whole 16 x 16 operator is the chain of all its elements' factors
    for row in CONSTRAINT_ROWS:
        np.testing.assert_array_equal(row.operator().matrix, factor_chain(row.variables))


def test_eigenequations_all_nine():
    checks = verify_eigenequations()
    assert [c.id for c in checks] == list(range(1, 10))
    assert [c.eigenvalue for c in checks] == [-1, -1, -1, -1, 1, 1, 1, 1, -1]
    for c in checks:
        assert c.residual < ATOL, f"row {c.id} residual {c.residual}"


def test_eigenvalue_parity_structure():
    # product of the first eight eigenvalues is +1, the ninth is -1
    eigenvalues = [row.required_product for row in CONSTRAINT_ROWS]
    assert np.prod(eigenvalues[:8]) == 1
    assert eigenvalues[8] == -1


def test_row_expectations_match_eigenvalues():
    for row in CONSTRAINT_ROWS:
        assert expectation(row.operator(), PSI) == pytest.approx(
            row.required_product, abs=ATOL
        )


def test_rows_pairwise_commute():
    ops = [row.operator().matrix for row in CONSTRAINT_ROWS]
    for a, b in itertools.combinations(ops, 2):
        assert np.abs(a @ b - b @ a).max() < 1e-12


def test_mermin_operator_on_psi():
    m = bell_mermin_operator()
    np.testing.assert_array_equal(m.realization.matrix, m.realization.matrix.conj().T)
    assert expectation(m.realization, PSI) == pytest.approx(9.0, abs=ATOL)
    image = m.realization.matrix @ PSI.amps
    assert np.abs(image - 9.0 * PSI.amps).max() < ATOL


def test_mermin_operator_trace_and_product_ket():
    m = bell_mermin_operator()
    assert abs(np.trace(m.realization.matrix)) < ATOL
    # on |H,u;H,u> only the three all-diagonal terms survive: -1 -1 +1 = -1
    assert expectation(m.realization, StateVector(np.eye(16)[0])) == pytest.approx(
        -1.0, abs=ATOL
    )


def test_mermin_terms_carry_row_signs():
    # O is the sum of the row operators, each signed by its eigenvalue on |Psi>
    rebuilt = sum(row.required_product * row.operator().matrix for row in CONSTRAINT_ROWS)
    np.testing.assert_allclose(rebuilt, bell_mermin_operator().realization.matrix, atol=ATOL)


def test_qudit_relabel_of_psi():
    grid = qudit_relabel(PSI)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 0.5
    expected[1, 2] = -0.5
    expected[2, 1] = -0.5
    expected[3, 0] = 0.5
    np.testing.assert_array_equal(grid, expected)
    assert np.linalg.norm(grid) == pytest.approx(1.0, abs=ATOL)


def test_qudit_relabel_of_product_ket():
    grid = qudit_relabel(StateVector(np.eye(16)[0]))
    assert grid[0, 0] == 1.0
    assert np.abs(grid).sum() == 1.0


def test_qudit_relabel_rejections():
    with pytest.raises(ValueError):
        qudit_relabel(StateVector(np.eye(4)[0]))


@pytest.mark.parametrize("basis", ["pol-path"])
def test_bell_states_orthonormal(basis):
    states = build_bell_states(basis)
    labels = list(states)
    assert labels == ["psi+", "psi-", "phi+", "phi-"]
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            expected = 1.0 if i == j else 0.0
            assert abs(np.vdot(states[a].amps, states[b].amps) - expected) < ATOL


def test_bell_state_amplitudes():
    states = build_bell_states("pol-path")
    inv = 1 / np.sqrt(2)
    # phi+ = (|H,u> + |V,d>)/sqrt2
    np.testing.assert_allclose(states["phi+"].amps, [inv, 0, 0, inv], atol=ATOL)
    # psi- = (|H,d> - |V,u>)/sqrt2
    np.testing.assert_allclose(states["psi-"].amps, [0, inv, -inv, 0], atol=ATOL)
    assert np.vdot(states["psi+"].amps, states["psi-"].amps) == pytest.approx(0.0, abs=ATOL)


def test_bell_states_joint_eigenvectors():
    # psi+ is the (-1, +1) joint eigenvector of (z z', x x'); phi+ is (+1, +1)
    zz = element_operator("z1z1'")
    xx = element_operator("x1x1'")
    states = build_bell_states("pol-path")
    expected = {
        "phi+": (1, 1),
        "phi-": (1, -1),
        "psi+": (-1, 1),
        "psi-": (-1, -1),
    }
    for label, (ev_zz, ev_xx) in expected.items():
        state = states[label]
        np.testing.assert_allclose(
            zz.matrix @ state.amps, ev_zz * state.amps, atol=ATOL
        )
        np.testing.assert_allclose(
            xx.matrix @ state.amps, ev_xx * state.amps, atol=ATOL
        )


def test_bell_states_unknown_basis():
    for basis in ("path-path", "polarization"):
        with pytest.raises(ValueError, match="unknown Bell basis"):
            build_bell_states(basis)


def test_row_operators_hermitian_unit_eigenvalues():
    # each row realization squares to the identity (eigenvalues +-1)
    for row in CONSTRAINT_ROWS:
        op = row.operator()
        np.testing.assert_allclose(
            op.matrix @ op.matrix, np.eye(16), atol=ATOL
        )


#: Test-side Pauli matrices, so the products below share no code with ``observables``.
LETTERS = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def kron_product(names) -> np.ndarray:
    """Product, in order, of each element's Kronecker product of its ``ELEMENT_PAULI`` letters."""
    matrix = np.eye(16, dtype=np.complex128)
    for name in names:
        matrix = matrix @ functools.reduce(np.kron, [LETTERS[x] for x in ELEMENT_PAULI[name]])
    return matrix


@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=lambda c: f"row{c.id}")
def test_row_operator_is_built_once_read_only_from_the_table(constraint):
    row = CONSTRAINT_ROWS[constraint.id - 1]
    op = row.operator()
    assert op is row.operator()
    # keyed on the element names alone
    assert op is ConstraintRow(0, tuple(constraint.variables), +1).operator()
    # exact_expectation reads the row's cached matrix: no cache miss, the same value
    rho = experiment.noisy_state(0.5)
    misses = observables._product_operator.cache_info().misses
    assert experiment.exact_expectation(constraint.id, rho) == np.vdot(op.matrix, rho).real
    assert observables._product_operator.cache_info().misses == misses
    assert not op.matrix.flags.writeable
    assert op.matrix.tobytes() == kron_product(constraint.variables).tobytes()


def test_constraint_rows_are_the_lhv_rows():
    # a row adds its operator to the table's row and restates no field
    assert dataclasses.fields(ConstraintRow) == dataclasses.fields(LhvConstraint)
    for row, constraint in zip(CONSTRAINT_ROWS, CONSTRAINTS, strict=True):
        assert isinstance(row, LhvConstraint)
        assert dataclasses.astuple(row) == dataclasses.astuple(constraint)


def test_mermin_operator_is_built_once_read_only_from_the_table():
    m = bell_mermin_operator()
    assert m is bell_mermin_operator()
    rho = experiment.noisy_state(0.5)
    misses = bell_mermin_operator.cache_info().misses
    assert experiment.exact_expectation("O", rho) == np.vdot(m.realization.matrix, rho).real
    assert bell_mermin_operator.cache_info().misses == misses
    assert not m.realization.matrix.flags.writeable
    expected = np.zeros((16, 16), dtype=np.complex128)
    for constraint in CONSTRAINTS:
        expected += constraint.required_product * kron_product(constraint.variables)
    assert m.realization.matrix.tobytes() == expected.tobytes()
