import functools
import itertools

import numpy as np
import pytest

from hyperbell.hilbert import ATOL, Operator, StateVector, expectation
from hyperbell.lhv import ELEMENTS, element_photon
from hyperbell.observables import (
    SIGMA_X,
    SIGMA_Z,
    _product_operator,
    doubly_entangled_state,
    element_operator,
)

EYE2 = np.eye(2)


def identity(dim):
    return Operator(np.eye(dim))


def test_basis_index_bijective():
    # bit labels in (pol1, path1, pol2, path2) order count the flat index
    # 8*pol1 + 4*path1 + 2*pol2 + path2 up, so the polarization singlet on
    # (pol1, pol2) times the path singlet on (path1, path2), reshaped, is |Psi>
    # with its amplitudes at the flat indices 3, 6, 9 and 12
    flats = [8 * a + 4 * b + 2 * c + d for a, b, c, d in itertools.product((0, 1), repeat=4)]
    assert flats == list(range(16))
    singlet = np.array([[0.0, 1.0], [-1.0, 0.0]]) / np.sqrt(2.0)
    product = np.einsum("ac,bd->abcd", singlet, singlet).reshape(16)
    np.testing.assert_allclose(doubly_entangled_state().amps, product, rtol=0, atol=ATOL)
    assert np.flatnonzero(product).tolist() == [3, 6, 9, 12]


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))  # dim 3 not allowed
    with pytest.raises(ValueError):
        StateVector(np.ones(4))  # norm 2: every state has unit norm
    with pytest.raises(ValueError):
        StateVector(np.array([np.nan, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(np.eye(8)[0])  # dim 8 is no factor of the two-photon space
    with pytest.raises(ValueError):
        Operator(np.eye(8))
    # one qubit is a factor of a photon, but no state or operator lives on it
    with pytest.raises(ValueError):
        StateVector(EYE2[0])
    with pytest.raises(ValueError):
        Operator(EYE2)


def test_states_are_immutable():
    ket = StateVector(np.eye(4)[2])
    with pytest.raises((ValueError, RuntimeError)):
        ket.amps[0] = 1.0


def test_operator_must_be_hermitian():
    with pytest.raises(ValueError, match="not self-adjoint"):
        Operator(np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), EYE2))
    # unitary is not enough: the cyclic shift of the four one-photon kets
    with pytest.raises(ValueError, match="not self-adjoint"):
        Operator(np.roll(np.eye(4), 1, axis=0))
    # Hermitian is enough, whether or not the matrix is also unitary
    assert Operator(np.diag([1.0, 2.0, 3.0, 4.0])).dim == 4
    # every operator is Hermitian; there is no kind to name
    with pytest.raises(TypeError):
        Operator(np.eye(4), kind="hermitian")


def test_tensor_basis_kets():
    # |H> (x) |u> is the first 4-dim basis ket, and the flat index of every
    # 16-dim ket is the Kronecker order (pol1, path1, pol2, path2)
    product = StateVector(np.kron(EYE2[0], EYE2[0]))
    assert product.dim == 4
    np.testing.assert_allclose(product.amps, [1, 0, 0, 0])
    for bits in itertools.product((0, 1), repeat=4):
        ket = functools.reduce(np.kron, [EYE2[b] for b in bits])
        flat = 8 * bits[0] + 4 * bits[1] + 2 * bits[2] + bits[3]
        np.testing.assert_array_equal(ket, np.eye(16)[flat])


def test_tensor_identity():
    # an element's Pauli string is the identity on the other photon
    for name in ELEMENTS:
        local = element_operator(name).matrix
        factors = (local, np.eye(4)) if element_photon(name) == 1 else (np.eye(4), local)
        embedded = np.kron(*factors)
        np.testing.assert_array_equal(_product_operator((name,)).matrix, embedded)


def test_tensor_sigma_z_pair():
    # 2x2 Kronecker expansion by hand: diag(+1, -1, -1, +1), the Pauli string ZZ
    np.testing.assert_array_equal(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1.0, -1.0, -1.0, 1.0]))
    np.testing.assert_array_equal(element_operator("z1z1'").matrix, np.diag([1.0, -1.0, -1.0, 1.0]))


def test_tensor_overflow_rejected():
    # a Kronecker product past the 16-dim two-photon space is no state or operator
    with pytest.raises(ValueError):
        StateVector(np.kron(np.eye(16)[0], EYE2[0]))
    with pytest.raises(ValueError):
        Operator(np.kron(np.eye(16), EYE2))


def test_expectation_identity_and_rejections():
    state = StateVector(np.full(4, 0.5, dtype=complex))
    assert expectation(identity(4), state) == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(ValueError):
        expectation(identity(16), state)  # dimension mismatch


@pytest.mark.parametrize("theta", [np.pi / 7, 1.0, 2.5])
def test_expectation_global_phase_invariant(theta):
    op = Operator(np.kron(SIGMA_Z, SIGMA_X))
    rng = np.random.default_rng(3)
    raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    state = StateVector(raw / np.linalg.norm(raw))
    shifted = StateVector(np.exp(1j * theta) * state.amps)
    assert expectation(op, shifted) == pytest.approx(expectation(op, state), abs=ATOL)


def test_commutators():
    # disjoint tensor factors commute
    z_i, i_x = np.kron(SIGMA_Z, EYE2), np.kron(EYE2, SIGMA_X)
    assert np.abs(z_i @ i_x - i_x @ z_i).max() == 0
    # [sigma_z, sigma_x] = 2i sigma_y: max-abs entry 2
    z, x = SIGMA_Z, SIGMA_X
    assert np.abs(z @ x - x @ z).max() == pytest.approx(2.0)


def test_adjoint_and_matmul():
    # a Hadamard on polarization, identity on path: Hermitian and unitary
    hadamard = Operator(np.kron(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2), EYE2))
    adjoint = Operator(hadamard.matrix.conj().T)
    np.testing.assert_allclose(adjoint.matrix @ hadamard.matrix, np.eye(4), atol=ATOL)
