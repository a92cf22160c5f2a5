"""Linear-optics models of the six single-photon measurement apparatuses.

Element conventions on one photon's 4-dim pol (x) path space:

  BS     path-mode mixer,  |u> -> (|u>+|d>)/sqrt2,  |d> -> (|u>-|d>)/sqrt2
  HWP45  half-wave plate,  |H> -> (|H>+|V>)/sqrt2,  |V> -> (|H>-|V>)/sqrt2
  PBS    transmits H keeping its path label; reflects V swapping u <-> d,
         with no extra reflection phase (port convention pinned here)

The two elements each apparatus reads and its chain come from
``lhv.APPARATUSES`` alone.  Every apparatus is an ordered element chain
followed by detectors on the four computational output ports; its
measurement basis is the chain's unitary pulled back onto the input space.
Apparatus 5, a PBS then an HWP45, is one photon's polarization-path Bell
analyzer (Kwiat and Weinfurter, PRA 58, R2623, 1998): its ports read the
Bell states phi+, psi+, phi-, psi-, which ``bell`` labels by their signs of
(z z', x x').

Every detector is mapped to the eigenvalues of the apparatus's two elements,
read off B M B^dagger, each element's operator M conjugated once by the
detector basis B, which must come out diagonal with +-1 entries; the four
detectors must carry four distinct sign pairs.  A click reads both elements,
so its value of their product is the product of its two labels.  A pair of
apparatuses, one per photon, has 16 joint detector patterns;
``pattern_distribution`` is their Born rule for a density matrix, and
``readout_table`` gives each of the fifteen quantities the pair reads, six
local values and nine cross products, on each pattern.  ``inputs`` checks
apparatus ids, pairs and shot counts, and holds ``BELL_LABELS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import inputs
from .hilbert import ATOL, StateVector, check_density
from .inputs import BELL_LABELS
from .lhv import APPARATUSES, element_photon
from .observables import element_operator

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)
_UNITARIES = {
    "BS": np.kron(np.eye(2), _HADAMARD),
    "HWP45": np.kron(_HADAMARD, np.eye(2)),
    # |H,u> -> |H,u>, |H,d> -> |H,d>, |V,u> -> |V,d>, |V,d> -> |V,u>
    "PBS": np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],
}
for _unitary in _UNITARIES.values():
    _unitary.setflags(write=False)


def element_unitary(kind: str) -> np.ndarray:
    """Read-only 4 x 4 unitary of an element kind: "BS", "HWP45" or "PBS", built at import.

    ``build_apparatus`` checks that each chain's basis is orthonormal.
    """
    if kind not in _UNITARIES:
        raise ValueError(f"unknown element kind {kind!r}")
    return _UNITARIES[kind]


@dataclass(frozen=True)
class ApparatusSpec:
    """One apparatus: id, side, observables, realization and detector map.

    ``basis`` rows are the four detector states expressed over the photon's
    input pol (x) path coordinates; ``detector_map[d]`` gives the eigenvalue
    pair (v(A), v(B)) labeling detector d.
    """

    id: int
    photon: int
    observable_a: str
    observable_b: str
    basis: np.ndarray
    detector_map: tuple[tuple[int, int], ...]

    @property
    def value_names(self) -> tuple[str, str, str]:
        return (self.observable_a, self.observable_b, f"{self.observable_a}*{self.observable_b}")


def _basis_eigenvalues(basis: np.ndarray, matrix: np.ndarray, name: str) -> list[int]:
    """Each basis row's +-1 eigenvalue of M: B M B^dagger must be diagonal with +-1 entries."""
    conjugated = basis.conj() @ matrix @ basis.T
    values = np.where(conjugated.diagonal().real > 0, 1, -1)
    if np.abs(conjugated - np.diag(values)).max() >= ATOL:
        raise AssertionError(f"{name}: basis state is not a +-1 eigenvector")
    return values.tolist()


def _chain_basis(element_kinds: tuple[str, ...]) -> np.ndarray:
    """Detector basis of an element chain: row d is U^dagger |port d>."""
    unitary = np.eye(4, dtype=np.complex128)
    for kind in element_kinds:
        unitary = element_unitary(kind) @ unitary
    # U^dagger e_d is the d-th column of U^dagger, i.e. conj of U's d-th row.
    return unitary.conj()


@lru_cache(maxsize=None, typed=True)
def build_apparatus(apparatus_id: int) -> ApparatusSpec:
    """Construct and validate one of the six apparatuses of ``lhv.APPARATUSES``.

    The id is any integer 1..6 but not a bool; the spec stores it as a plain
    int.  The cache is typed, so ``True`` or ``1.0`` never reaches id 1's entry.
    """
    apparatus_id = inputs._apparatus_id(apparatus_id)
    (name_a, name_b), chain = APPARATUSES[apparatus_id]
    photon = element_photon(name_a)

    basis = _chain_basis(chain)
    gram = basis @ basis.conj().T
    if np.abs(gram - np.eye(4)).max() >= ATOL:
        raise AssertionError(f"apparatus {apparatus_id}: basis is not orthonormal")

    # An orthonormal basis of joint +-1 eigenvectors exists only when the two
    # elements commute, so these checks also reject a pair that does not.
    columns = [
        _basis_eigenvalues(basis, element_operator(name).matrix, f"apparatus {apparatus_id} {name}")
        for name in (name_a, name_b)
    ]
    detector_map = tuple(zip(*columns))
    if len(set(detector_map)) != 4:
        raise AssertionError(
            f"apparatus {apparatus_id}: detectors do not resolve {name_a} and {name_b}"
        )

    basis.setflags(write=False)
    return ApparatusSpec(
        id=apparatus_id,
        photon=photon,
        observable_a=name_a,
        observable_b=name_b,
        basis=basis,
        detector_map=detector_map,
    )


def pattern_distribution(
    a1: ApparatusSpec, a2: ApparatusSpec, density: np.ndarray
) -> np.ndarray:
    """Born probabilities p[d1, d2] = diag(K rho K^dagger), K = conj(B1) (x) conj(B2).

    Row 4*d1 + d2 of K is the bra of detector pattern (d1, d2).  ``a1`` must
    read photon 1 and ``a2`` photon 2 (``inputs._apparatus_pair``); ``density``
    must be a 16 x 16 state (``hilbert.check_density``), or ``ValueError``;
    round-off below zero is then clipped and the distribution renormalized.
    """
    inputs._apparatus_pair(a1.id, a2.id)
    rho = check_density(density)
    b1, b2 = a1.basis.conj(), a2.basis.conj()
    bras = (b1[:, None, :, None] * b2[None, :, None, :]).reshape(16, 16)
    probs = np.clip(((bras @ rho) * bras.conj()).sum(axis=-1).real, 0.0, None)
    return (probs / probs.sum()).reshape(4, 4)


def readout_table(a1: ApparatusSpec, a2: ApparatusSpec) -> dict[str, np.ndarray]:
    """Value of each of the fifteen quantities a pair reads on its 16 detector patterns.

    The six local values come first, photon 1 then photon 2, then the nine
    cross products ``name1*name2``.  Entry 4*d1 + d2 of a photon-1 quantity
    is its label on detector d1, of a photon-2 quantity its label on
    detector d2.  Each side's product ``a*b`` is the product of its two
    label columns; this is the one place detector labels are multiplied.
    """
    va1, vb1 = np.repeat(np.asarray(a1.detector_map, dtype=np.int64).T, 4, axis=1)
    va2, vb2 = np.tile(np.asarray(a2.detector_map, dtype=np.int64).T, 4)
    local = (va1, vb1, va1 * vb1, va2, vb2, va2 * vb2)
    table = dict(zip((*a1.value_names, *a2.value_names), local))
    table.update({
        f"{name1}*{name2}": table[name1] * table[name2]
        for name1 in a1.value_names
        for name2 in a2.value_names
    })
    return table


#: The Bell state of each sign pair (z z', x x') on apparatus 5's detectors.
_BELL_SIGNS = {(1, 1): "phi+", (1, -1): "phi-", (-1, 1): "psi+", (-1, -1): "psi-"}


def bell_probabilities(state: StateVector) -> dict[str, float]:
    """Projection probabilities of a single-photon state onto apparatus 5's Bell basis."""
    if state.dim != 4:
        raise ValueError("Bell discrimination expects a 4-dim pol-path state")
    spec = build_apparatus(5)
    bells = {_BELL_SIGNS[labels]: row for labels, row in zip(spec.detector_map, spec.basis)}
    return {label: abs(complex(np.vdot(bells[label], state.amps))) ** 2 for label in BELL_LABELS}


def bell_histogram(
    state: StateVector, shots: int, rng: np.random.Generator
) -> dict[str, int]:
    """Label counts over ``shots`` Bell discriminations of the same input.

    The counts are one multinomial draw over the Bell-basis probabilities;
    ``shots`` is checked by ``inputs._shot_count``.
    """
    count = inputs._shot_count(shots)
    probs = bell_probabilities(state)
    weights = np.array([probs[label] for label in BELL_LABELS])
    counts = rng.multinomial(count, weights / weights.sum())
    return {label: int(counts[i]) for i, label in enumerate(BELL_LABELS)}
