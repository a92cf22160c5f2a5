"""Dense complex linear algebra on the two-photon Hilbert space.

The joint space is 16-dimensional: polarization (H/V) and spatial path (u/d)
for each of two photons.  Basis ordering is photon-major with polarization
before path, so the flat index of a product ket is

    index = 8*pol1 + 4*path1 + 2*pol2 + path2      (H = u = 0, V = d = 1).

A ``StateVector`` always has unit norm and an ``Operator`` is always Hermitian
or unitary: each checks its invariant at construction and is immutable after
it, so no consumer checks again.  ``expectation`` is the one product defined
here; anything else is plain numpy on ``.amps`` and ``.matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for all exact-algebra assertions (normalization, Hermiticity,
# unitarity, eigenvalue residuals).  Well above double-precision noise at
# dimension 16.
ATOL = 1e-12

#: Dimensions of one qubit, one photon and both photons.
VALID_DIMS = (2, 4, 16)


def _frozen_array(values, shape_check) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite amplitude")
    shape_check(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """A unit-norm ket over 2-, 4- or 16-dim factors of the two-photon space."""

    amps: np.ndarray

    def __post_init__(self):
        def check(arr):
            if arr.ndim != 1 or arr.shape[0] not in VALID_DIMS:
                raise ValueError(f"state dimension must be one of {VALID_DIMS}")

        arr = _frozen_array(self.amps, check)
        object.__setattr__(self, "amps", arr)
        norm_squared = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_squared - 1.0) >= ATOL:
            raise ValueError(f"state must have unit norm; squared norm is {norm_squared!r}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class Operator:
    """A square matrix whose kind is "hermitian" or "unitary".

    The kind is validated at construction: hermitian requires M = M^dagger and
    unitary requires M^dagger M = 1, both to within ATOL.
    """

    matrix: np.ndarray
    kind: str

    def __post_init__(self):
        def check(arr):
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError("operator matrix must be square")
            if arr.shape[0] not in VALID_DIMS:
                raise ValueError(f"operator dimension must be one of {VALID_DIMS}")

        arr = _frozen_array(self.matrix, check)
        object.__setattr__(self, "matrix", arr)
        if self.kind == "hermitian":
            if np.abs(arr - arr.conj().T).max() >= ATOL:
                raise ValueError("operator labeled hermitian is not self-adjoint")
        elif self.kind == "unitary":
            eye = np.eye(arr.shape[0])
            if np.abs(arr.conj().T @ arr - eye).max() >= ATOL:
                raise ValueError("operator labeled unitary fails U^dagger U = 1")
        else:
            raise ValueError(f"unknown operator kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def expectation(op: Operator, s: StateVector) -> float:
    """Real expectation value <s|op|s> of a Hermitian operator."""
    if op.kind != "hermitian":
        raise ValueError("expectation requires an operator of kind 'hermitian'")
    if op.dim != s.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {s.dim}")
    value = complex(np.vdot(s.amps, op.matrix @ s.amps))
    if abs(value.imag) >= ATOL:
        raise ValueError(f"expectation has imaginary residue {value.imag!r}")
    return value.real
