"""Dense complex linear algebra on the two-photon Hilbert space.

The joint space is 16-dimensional: polarization (H/V) and spatial path (u/d)
for each of two photons.  Basis ordering is photon-major with polarization
before path, so the flat index of a product ket is

    index = 8*pol1 + 4*path1 + 2*pol2 + path2      (H = u = 0, V = d = 1).

A ``StateVector`` (unit norm) and an ``Operator`` (Hermitian) live on one
photon (4 dims) or both (16); each checks its invariant at construction and
is immutable after it, so no consumer checks again.  A density matrix stays
a plain array, which ``check_density`` tests for being a state.
``expectation`` is the one product defined here; anything else is plain
numpy on ``.amps`` and ``.matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance for all exact-algebra assertions (normalization, Hermiticity,
# orthonormality, eigenvalue residuals).  Well above double-precision noise at
# dimension 16.
ATOL = 1e-12

#: Dimensions of one photon and of both photons.
VALID_DIMS = (4, 16)


def _frozen_array(values, ndim: int, kind: str) -> np.ndarray:
    """Read-only complex copy of a vector (ndim 1) or a square matrix (ndim 2), side 4 or 16."""
    arr = np.array(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError("non-finite amplitude")
    if arr.ndim != ndim or len(set(arr.shape)) != 1 or arr.shape[0] not in VALID_DIMS:
        raise ValueError(f"expected {kind} of side in {VALID_DIMS}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """A unit-norm ket of one photon (4 dims) or of both (16)."""

    amps: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.amps, 1, "a state vector")
        object.__setattr__(self, "amps", arr)
        norm_squared = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_squared - 1.0) >= ATOL:
            raise ValueError(f"state must have unit norm; squared norm is {norm_squared!r}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]


@dataclass(frozen=True)
class Operator:
    """A Hermitian matrix, M = M^dagger to within ATOL, checked at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.matrix, 2, "a square operator matrix")
        object.__setattr__(self, "matrix", arr)
        if np.abs(arr - arr.conj().T).max() >= ATOL:
            raise ValueError("operator is not self-adjoint")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def check_density(density) -> np.ndarray:
    """``density`` as an array, or ``ValueError`` unless it is a 16 x 16 state: Hermitian
    within ATOL, trace 1 within 1e-9 and no eigenvalue at or below -ATOL (NaN fails every test)."""
    rho = np.asarray(density)
    if rho.shape != (16, 16):
        raise ValueError(f"density must be a 16 x 16 matrix, got shape {rho.shape}")
    if not (
        np.abs(rho - rho.conj().T).max() < ATOL
        and abs(np.trace(rho) - 1.0) < 1e-9
        and np.linalg.eigvalsh(rho)[0] > -ATOL
    ):
        raise ValueError("density matrix is not a unit-trace positive state")
    return rho


def expectation(op: Operator, s: StateVector) -> float:
    """Real expectation value <s|op|s> of a Hermitian operator."""
    if op.dim != s.dim:
        raise ValueError(f"dimension mismatch: operator {op.dim}, state {s.dim}")
    value = complex(np.vdot(s.amps, op.matrix @ s.amps))
    if abs(value.imag) >= ATOL:
        raise ValueError(f"expectation has imaginary residue {value.imag!r}")
    return value.real
