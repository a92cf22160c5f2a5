"""The doubly entangled two-photon state and its dichotomic observables.

The state is maximally entangled in polarization and in path simultaneously:

    |Psi> = (|H>1|V>2 - |V>1|H>2)(|u>1|d>2 - |d>1|u>2) / 2.

Each photon carries two qubits worth of observables: sigma_x/sigma_z on the
polarization factor (written x_i, z_i) and on the path factor (written x_i',
z_i').  Products measured jointly by a single apparatus, such as z1z1' or
z2x2', are treated as observables in their own right.  Every 16-dim product of
elements, a single element's included, is one cached ``_product_operator`` of
their Pauli strings in ``lhv.ELEMENT_PAULI``.  The nine rows of
``lhv.CONSTRAINTS`` have |Psi> as an exact eigenvector, each with its row's
required product as eigenvalue; their signed sum is a Bell-Mermin style
operator whose quantum value is 9 against a local-realistic ceiling of 7.  A
``ConstraintRow`` is an ``lhv.LhvConstraint`` that also gives its operator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .hilbert import ATOL, Operator, StateVector
from .lhv import CONSTRAINTS, ELEMENT_PAULI, LhvConstraint, element_photon

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
_PAULI = {"I": np.eye(2, dtype=np.complex128), "X": SIGMA_X, "Z": SIGMA_Z}


def _pauli_matrix(letters: str) -> np.ndarray:
    """Kronecker product of Pauli letters, the first letter the most significant factor."""
    return functools.reduce(np.kron, [_PAULI[letter] for letter in letters])


def element_operator(name: str) -> Operator:
    """4-dim realization of a named element on its photon's pol (x) path space."""
    photon = element_photon(name)
    letters = ELEMENT_PAULI[name][2 * photon - 2 : 2 * photon]
    return Operator(_pauli_matrix(letters))


def doubly_entangled_state() -> StateVector:
    """The polarization (x) path doubly entangled two-photon singlet product.

    (|H>1|V>2 - |V>1|H>2)(|u>1|d>2 - |d>1|u>2) / 2, expanded over the
    (pol1, path1, pol2, path2) index convention: amplitudes +1/2, -1/2, -1/2,
    +1/2 at flat indices 3, 6, 9, 12.
    """
    amps = np.zeros(16, dtype=np.complex128)
    amps[[3, 6, 9, 12]] = 0.5, -0.5, -0.5, 0.5  # |H,u;V,d>, |H,d;V,u>, |V,u;H,d>, |V,d;H,u>
    return StateVector(amps)


class ConstraintRow(LhvConstraint):
    """A row of ``lhv.CONSTRAINTS`` that also gives its 16-dim operator."""

    def operator(self) -> Operator:
        """The row's read-only 16-dim product operator, built once per process."""
        return _product_operator(self.variables)


@functools.lru_cache(maxsize=None)
def _product_operator(names: tuple[str, ...]) -> Operator:
    """Product of the named elements' 16-dim Pauli strings, in order; ``(name,)`` is one element."""
    matrix = np.eye(16, dtype=np.complex128)
    for name in names:
        matrix = matrix @ _pauli_matrix(ELEMENT_PAULI[name])
    return Operator(matrix)


#: The nine constraint rows; eigenvalue pattern (-,-,-,-,+,+,+,+,-).
CONSTRAINT_ROWS: tuple[ConstraintRow, ...] = tuple(
    ConstraintRow(c.id, c.variables, c.required_product) for c in CONSTRAINTS
)


@dataclass(frozen=True)
class EigenCheck:
    """Result of checking row_op|Psi> = eigenvalue * |Psi> for one row."""

    id: int
    eigenvalue: int
    residual: float

    @property
    def passed(self) -> bool:
        return self.residual < ATOL


def verify_eigenequations() -> list[EigenCheck]:
    """Check all nine eigenvalue relations; failures are reported, not raised.

    The residual is the max-abs entry of (row_op - eigenvalue)|Psi>.
    """
    psi = doubly_entangled_state().amps
    checks = []
    for row in CONSTRAINT_ROWS:
        residual = float(np.abs(row.operator().matrix @ psi - row.required_product * psi).max())
        checks.append(EigenCheck(row.id, row.required_product, residual))
    return checks


@dataclass(frozen=True)
class MerminOperator:
    """Signed sum of the nine constraint-row operators.

    The sign on each term equals that row's eigenvalue on |Psi>, so the
    quantum value is 9; the local-realistic maximum is 7.
    """

    realization: Operator


@functools.lru_cache(maxsize=None)
def bell_mermin_operator() -> MerminOperator:
    """The signed sum O, built once per process; its matrix is read-only."""
    matrix = np.zeros((16, 16), dtype=np.complex128)
    for row in CONSTRAINT_ROWS:
        matrix += row.required_product * row.operator().matrix
    return MerminOperator(Operator(matrix))


def build_bell_states(basis: str) -> dict[str, StateVector]:
    """The four Bell states of one photon's polarization and path; ``basis`` must be "pol-path".

    psi+- = (|H,d> +- |V,u>)/sqrt(2), phi+- = (|H,u> +- |V,d>)/sqrt(2).  These
    are joint eigenvectors of (z z', x x') with eigenvalues phi+ (+1,+1),
    phi- (+1,-1), psi+ (-1,+1), psi- (-1,-1).
    """
    if basis != "pol-path":
        raise ValueError(f"unknown Bell basis {basis!r}")
    # The 4-dim index is 2*pol + path; psi pairs the kets at (1, 2) and phi those at (0, 3).
    inv = 1.0 / np.sqrt(2.0)
    states = {}
    for label, (i, j) in (("psi", (1, 2)), ("phi", (0, 3))):
        for sign_label, sign in (("+", 1.0), ("-", -1.0)):
            amps = np.zeros(4, dtype=np.complex128)
            amps[i] = inv
            amps[j] = sign * inv
            states[label + sign_label] = StateVector(amps)
    return states
