"""Reference paths that only the tests use: plain Born probabilities of a pure
state over a pair's detector patterns, the four-level relabeling of a state,
the LHV assignments by element name, the brute-force reference for the
library's 12-bit mask scan, and a sampled Bell-Mermin point drawn and summed
row by row, by the library's float rule and in exact integers.
"""

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from hyperbell.experiment import _row_tables
from hyperbell.hilbert import StateVector
from hyperbell.inputs import _apparatus_pair
from hyperbell.lhv import CONSTRAINTS, ELEMENTS, LhvConstraint
from hyperbell.optics import ApparatusSpec


def joint_distribution(
    a1: ApparatusSpec, a2: ApparatusSpec, state: StateVector
) -> np.ndarray:
    """Born probabilities p[d1, d2] of a pure state over the 4 x 4 detector patterns."""
    _apparatus_pair(a1.id, a2.id)
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


_ELEMENT_INDEX = {name: i for i, name in enumerate(ELEMENTS)}


@dataclass(frozen=True)
class LhvAssignment:
    """Values +-1 for the twelve elements of reality, in ELEMENTS order."""

    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(ELEMENTS):
            raise ValueError(f"expected {len(ELEMENTS)} values, got {len(self.values)}")
        if self.values.count(1) + self.values.count(-1) != len(self.values):
            raise ValueError("assignment values must be +1 or -1")

    def __getitem__(self, name: str) -> int:
        return self.values[_ELEMENT_INDEX[name]]

    def as_dict(self) -> dict[str, int]:
        return dict(zip(ELEMENTS, self.values))


def _value_tuples() -> Iterator[tuple[int, ...]]:
    """All 4096 value tuples, lexicographic with +1 before -1 (all-+1 first)."""
    return itertools.product((1, -1), repeat=len(ELEMENTS))


def enumerate_assignments() -> Iterator[LhvAssignment]:
    """All 4096 assignments, in ``_value_tuples`` order."""
    return map(LhvAssignment, _value_tuples())


def constraint_product(assignment: LhvAssignment, constraint: LhvConstraint) -> int:
    product = 1
    for name in constraint.variables:
        product *= assignment[name]
    return product


def check(assignment: LhvAssignment) -> tuple[tuple[bool, ...], int]:
    """Per-constraint satisfaction vector and the count of satisfied rows."""
    flags = tuple(constraint_product(assignment, c) == c.required_product for c in CONSTRAINTS)
    return flags, sum(flags)


def mermin_value(assignment: LhvAssignment) -> int:
    """Local-realistic value of the Bell-Mermin sum for one assignment.

    The sign on each term equals that constraint's required product, so the
    value is (satisfied count) - (violated count) = 2*count - 9, an odd
    integer in [-9, 9].
    """
    return sum(
        c.required_product * constraint_product(assignment, c) for c in CONSTRAINTS
    )


def _row_counts(gen: np.random.Generator, shots: int, v: float) -> list[int]:
    """n+ of the nine rows at V, one scalar draw per row in row order, each at
    p+ = V p+_Psi + (1-V) k/16."""
    return [gen.binomial(shots, v * pp + (1.0 - v) * u) for pp, u in _row_tables()[0]]


def sampled_mermin(gen: np.random.Generator, shots: int, v: float) -> tuple[float, float]:
    """O and its SE at V from nine scalar draws on ``gen``, by the library's float rule.

    Each n+ is a float f; the signed means (2 f - n)/n and the spread terms f (n - n+)
    are each added left to right, and the spread is divided by n - 1 once.
    """
    plus = _row_counts(gen, shots, v)
    floats = [float(n) for n in plus]
    terms = [c.required_product * ((2.0 * f - shots) / shots) for c, f in zip(CONSTRAINTS, floats)]
    spread = functools.reduce(operator.add, [f * (shots - n) for f, n in zip(floats, plus)])
    return functools.reduce(operator.add, terms), 2.0 * math.sqrt(spread / (shots - 1)) / shots


def sampled_mermin_exact(gen: np.random.Generator, shots: int, v: float) -> tuple[float, float]:
    """``sampled_mermin`` with exact integer arithmetic up to each rounded quotient.

    The signed means are the correctly rounded (2 n+ - n)/n, added left to right, and
    the SE is formed from the exact integer spread sum n+ n-.
    """
    plus = _row_counts(gen, shots, v)
    terms = [c.required_product * ((2 * n - shots) / shots) for c, n in zip(CONSTRAINTS, plus)]
    spread = sum(n * (shots - n) for n in plus)
    return functools.reduce(operator.add, terms), 2.0 * math.sqrt(spread / (shots - 1)) / shots
