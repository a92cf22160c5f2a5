"""The two-photon all-versus-nothing table and its local-hidden-variable analysis.

The argument is one table, written once below: twelve elements of reality
as Pauli strings on (pol1, path1, pol2, path2), nine relations as element
names and required product, and six apparatuses as the two elements each
reads and the linear-optics chain (BS, HWP45, PBS) that reads them.
Operators, apparatuses and the pair that reads each row
(``ROW_APPARATUS_PAIRS``) are all derived from it.

A local-realistic model assigns a predetermined value +-1 to each of twelve
elements of reality: per photon the four single-qubit quantities and the two
jointly measured products.  The product-valued elements are independent
variables, never computed from the singles; forcing them equal to products of
singles would assume exactly the noncontextuality the argument avoids.

The nine predicted product constraints cannot all hold.  Mermin's parity
proof finds, by Gaussian elimination over GF(2), a set y of rows in which
every element appears an even number of times, so that their products
multiply to +1 under any assignment, while their required products multiply
to -1; for this table y is all nine rows.  The same elimination spans the
null space that MacWilliams' identity turns into the coset bound: every
assignment violates an odd number of rows, so at least 1 row is always
violated, 0 always satisfied, and the local-realistic value runs from -9 to
``LHV_BOUND`` = 7 against the quantum 9.
The full scan re-derives both over the 2^12 = 4096 assignments, each a 12-bit
mask x = 0 .. 4095 with bit 11 - j set when element j is -1 (the all-+1
assignment first).  Each row is encoded once as (mask of its elements, sign
bit): x violates it when (x & mask).bit_count() + sign is odd, and the same
parity gives the witness's row products.  The histogram of satisfied counts
has the extreme counts that give the values 2*count - 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

#: The twelve elements of reality as Pauli strings on (pol1, path1, pol2, path2),
#: in canonical order: photon-1 singles, photon-1 compounds, then photon 2.
ELEMENT_PAULI: dict[str, str] = {
    "z1": "ZIII",
    "z1'": "IZII",
    "x1": "XIII",
    "x1'": "IXII",
    "z1z1'": "ZZII",
    "x1x1'": "XXII",
    "z2": "IIZI",
    "z2'": "IIIZ",
    "x2": "IIXI",
    "x2'": "IIIX",
    "z2x2'": "IIZX",
    "x2z2'": "IIXZ",
}


@dataclass(frozen=True)
class LhvConstraint:
    """One predicted relation: the listed values must multiply to the target."""

    id: int
    variables: tuple[str, ...]
    required_product: int


#: The nine predictions; the required product is each row's eigenvalue on |Psi>.
CONSTRAINTS: tuple[LhvConstraint, ...] = (
    LhvConstraint(1, ("z1", "z2"), -1),
    LhvConstraint(2, ("z1'", "z2'"), -1),
    LhvConstraint(3, ("x1", "x2"), -1),
    LhvConstraint(4, ("x1'", "x2'"), -1),
    LhvConstraint(5, ("z1z1'", "z2", "z2'"), +1),
    LhvConstraint(6, ("x1x1'", "x2", "x2'"), +1),
    LhvConstraint(7, ("z1", "x1'", "z2x2'"), +1),
    LhvConstraint(8, ("x1", "z1'", "x2z2'"), +1),
    LhvConstraint(9, ("z1z1'", "x1x1'", "z2x2'", "x2z2'"), -1),
)

#: The six apparatuses: id -> (the two elements it reads, its element chain).
APPARATUSES: dict[int, tuple[tuple[str, str], tuple[str, ...]]] = {
    1: (("z1", "x1'"), ("BS", "PBS")),
    2: (("x2", "x2'"), ("HWP45", "BS", "PBS")),
    3: (("x1", "z1'"), ("HWP45", "PBS")),
    4: (("z2", "z2'"), ("PBS",)),
    5: (("z1z1'", "x1x1'"), ("PBS", "HWP45")),
    6: (("z2x2'", "x2z2'"), ("HWP45", "PBS", "HWP45")),
}

#: Canonical element order.
ELEMENTS: tuple[str, ...] = tuple(ELEMENT_PAULI)


def element_photon(name: str) -> int:
    """Photon (1 or 2) a named element acts on, read off its Pauli string."""
    return 1 if ELEMENT_PAULI[name].endswith("II") else 2


def _reading_apparatus(constraint: LhvConstraint, photon: int) -> int:
    """The one apparatus whose two elements include all of a row's elements on ``photon``."""
    group = {name for name in constraint.variables if element_photon(name) == photon}
    ids = [i for i, (names, _) in APPARATUSES.items() if group <= set(names)]
    if len(ids) != 1:
        raise AssertionError(f"row {constraint.id}, photon {photon}: read by apparatuses {ids}")
    return ids[0]


#: Which (photon-1, photon-2) apparatus pair reads each constraint row.
ROW_APPARATUS_PAIRS: dict[int, tuple[int, int]] = {
    c.id: (_reading_apparatus(c, 1), _reading_apparatus(c, 2)) for c in CONSTRAINTS
}

#: Quantum value of the same quantity on the doubly entangled state: every row holds.
QUANTUM_VALUE = len(CONSTRAINTS)


def _left_null_space(constraints: Sequence[LhvConstraint]) -> list[tuple[int, int]]:
    """A basis of {y : yA = 0} over GF(2), as (row mask of y, y.b); see ``parity_vector``."""
    columns: dict[str, int] = {}
    pivots: dict[int, tuple[int, int, int]] = {}  # leading bit -> (bits, sign, rows)
    basis = []
    for i, constraint in enumerate(constraints):
        bits, sign, rows = 0, int(constraint.required_product == -1), 1 << i
        for name in constraint.variables:
            bits ^= 1 << columns.setdefault(name, len(columns))
        while bits:
            lead = bits.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = bits, sign, rows
                break
            pivot_bits, pivot_sign, pivot_rows = pivots[lead]
            bits, sign, rows = bits ^ pivot_bits, sign ^ pivot_sign, rows ^ pivot_rows
        else:
            basis.append((rows, sign))
    return basis


def parity_vector(constraints: Sequence[LhvConstraint]) -> tuple[int, ...] | None:
    """Mermin's parity proof over GF(2): y with yA = 0 and y.b = 1, one bit per row; or None.

    A is the rows' incidence matrix over their elements, b their sign bits
    (1 for a required -1).  Under any assignment the rows of such a y
    multiply to +1, as each element appears in an even number of them, yet
    they require -1.  Rows that reduce to zero against the earlier pivots
    span every y with yA = 0, so one has y.b = 1 exactly when some y does.
    """
    for rows, sign in _left_null_space(constraints):
        if sign:
            return tuple(rows >> j & 1 for j in range(len(constraints)))
    return None


def coset_weights(constraints: Sequence[LhvConstraint]) -> list[int]:
    """How many words of the coset b + col(A) have each weight 0..m, by MacWilliams' identity.

    An assignment x (bit 1 for a value -1) violates the rows Ax + b, a word of
    this coset, and each word is hit by the same number of assignments.  The
    words of weight k number the z^k coefficient of
    (1/|N|) sum over y in N of (-1)^(y.b) (1+z)^(m - wt y) (1-z)^(wt y),
    N = {y : yA = 0}, spanned by ``_left_null_space``: |N| terms, not 2^m words.
    """
    m, null_space = len(constraints), [(0, 0)]
    for rows, sign in _left_null_space(constraints):
        null_space += [(y ^ rows, b ^ sign) for y, b in null_space]
    weights = [0] * (m + 1)
    for y, b in null_space:
        w = y.bit_count()
        for k in range(m + 1):  # z^k of (1+z)^(m-w) (1-z)^w: z^j of the second factor
            for j in range(k + 1):
                weights[k] += (-1) ** (b + j) * math.comb(w, j) * math.comb(m - w, k - j)
    return [n // len(null_space) for n in weights]


def coset_bound(constraints: Sequence[LhvConstraint]) -> tuple[int, int]:
    """Fewest violated and fewest satisfied rows over all assignments, from GF(2) algebra.

    Read off ``coset_weights``: the fewest violated rows are the lowest weight
    of a coset word, and the fewest satisfied are m minus the highest.
    """
    present = [k for k, n in enumerate(coset_weights(constraints)) if n]
    return present[0], len(constraints) - present[-1]


def parity_argument() -> tuple[int, ...] | None:
    """y of the nine rows (all nine): their products are +1, their requirements -1."""
    return parity_vector(CONSTRAINTS)


#: The table's fewest violated (1) and fewest satisfied (0) rows, from the coset bound.
FEWEST_VIOLATED, FEWEST_SATISFIED = coset_bound(CONSTRAINTS)
#: Largest local-realistic Bell-Mermin value, 9 - 2*1 = 7; the scan re-derives it.
LHV_BOUND = QUANTUM_VALUE - 2 * FEWEST_VIOLATED


#: Each row as (mask of its elements, sign bit): bit 11 - j for element j, sign 1 for -1.
_ROW_MASKS = tuple(
    (sum(1 << 11 - ELEMENTS.index(n) for n in c.variables), int(c.required_product == -1))
    for c in CONSTRAINTS
)


@dataclass(frozen=True)
class ContradictionCertificate:
    """Outcome of the exhaustive scan plus the structural parity argument.

    ``satisfied_histogram[k]`` is the number of assignments that satisfy
    exactly k rows; its total is the number scanned.  ``witness`` is the
    first mask with ``satisfied_max`` rows (bit 11 - j set when element j is
    -1).  ``parity_rows`` are the ids of the rows y selects, in row order.
    """

    satisfied_max: int
    witness: int
    parity_rows: tuple[int, ...]
    mermin_max: int
    mermin_min: int
    satisfied_histogram: tuple[int, ...]

    @property
    def parity_product(self) -> int:
        """What the other rows of y force on the last row's product; it requires the opposite."""
        return math.prod(CONSTRAINTS[i - 1].required_product for i in self.parity_rows[:-1])

    def to_dict(self) -> dict:
        x = self.witness
        products = [-1 if (x & mask).bit_count() & 1 else 1 for mask, _ in _ROW_MASKS]
        return {
            "element_order": list(ELEMENTS),
            "assignments_scanned": sum(self.satisfied_histogram),
            "satisfied_max": self.satisfied_max,
            "mermin_max": self.mermin_max,
            "mermin_min": self.mermin_min,
            "quantum_value": QUANTUM_VALUE,
            "parity_product": self.parity_product,
            "parity_rows": list(self.parity_rows),
            "witness": {name: -1 if x >> 11 - j & 1 else 1 for j, name in enumerate(ELEMENTS)},
            "rows": [
                {
                    "id": c.id,
                    "variables": list(c.variables),
                    "required_product": c.required_product,
                    "witness_product": product,
                    "satisfied": product == c.required_product,
                }
                for c, product in zip(CONSTRAINTS, products)
            ],
        }


def _scan(row_masks: Sequence[tuple[int, int]], n: int) -> tuple[list[int], int]:
    """Assignments x = 0 .. 2^n - 1 per satisfied count, and the first x with the most."""
    m = len(row_masks)
    histogram, best_count, best = [0] * (m + 1), -1, 0
    for x in range(1 << n):
        count = m - sum((x & mask).bit_count() + sign & 1 for mask, sign in row_masks)
        histogram[count] += 1
        if count > best_count:
            best_count, best = count, x
    return histogram, best


def contradiction_certificate() -> ContradictionCertificate:
    """Scan all 4096 assignments as masks; report the histogram, the witness and the parity proof.

    Mask x = 0 .. 4095 sets bit 11 - j when element j is -1, so the all-+1
    assignment comes first, and x violates a row when the parity of its
    elements' bits plus the row's sign bit is odd.  Ties on the satisfied
    count keep the first mask, so the witness is deterministic.  Each row
    adds +1 to the Bell-Mermin value when it holds and -1 when it fails, so
    the value is 2*count - 9 and the extremes come from the extreme counts.
    """
    histogram, best = _scan(_ROW_MASKS, len(ELEMENTS))
    counts = [count for count, n in enumerate(histogram) if n]
    y = parity_argument()
    return ContradictionCertificate(
        satisfied_max=counts[-1],
        witness=best,
        parity_rows=tuple(c.id for c, bit in zip(CONSTRAINTS, y) if bit),
        mermin_max=2 * counts[-1] - len(CONSTRAINTS),
        mermin_min=2 * counts[0] - len(CONSTRAINTS),
        satisfied_histogram=tuple(histogram),
    )
