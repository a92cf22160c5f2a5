"""Noise model, Monte Carlo correlation estimates, and the visibility sweep.

Noise is isotropic white noise: with visibility V the prepared state is the
density matrix rho = V |Psi><Psi| + (1-V) I/16.  Every operator of interest is
traceless, so exact expectations tr(rho Q) scale linearly,
<Q>(V) = V * <Q>(1); in particular the Bell-Mermin value is 9V and crosses the
local-realistic ceiling of 7 exactly at V = 7/9.

Shots are independent and identically distributed, so the 4 x 4 histogram of
detector patterns is a sufficient statistic for every estimate.  All nine
settings of a visibility share one Born computation over a stack of their
pattern bras and one multinomial draw of a 9 x 16 count table; means and
standard errors are read off the counts, so cost and memory do not grow with
the shot count.  All randomness flows from one seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .lhv import CONSTRAINTS, LHV_BOUND
from .observables import (
    CONSTRAINT_ROWS,
    bell_mermin_operator,
    doubly_entangled_state,
)
from .optics import (
    born_distribution,
    build_apparatus,
    pattern_bras,
    pattern_distribution,
    readout_table,
)

#: Fixed default seed used whenever the caller does not pass one.
DEFAULT_SEED = 12345

#: Default shots per measurement setting (std error about 3e-3 per term).
DEFAULT_SHOTS = 100_000

#: Default visibility grid for the sweep; brackets the 7/9 threshold with the
#: exact crossing point included.
DEFAULT_GRID: tuple[float, ...] = (
    0.0, 0.2, 0.4, 0.6, 0.7, 0.75, 0.77, 7.0 / 9.0, 0.78, 0.8, 0.9, 1.0,
)

#: Width of the "boundary" band around the LHV bound in the violation flag.
BOUNDARY_ATOL = 1e-9

#: Which (photon-1, photon-2) apparatus pair reads each constraint row.
ROW_APPARATUS_PAIRS: dict[int, tuple[int, int]] = {
    1: (1, 4),
    2: (3, 4),
    3: (3, 2),
    4: (1, 2),
    5: (5, 4),
    6: (5, 2),
    7: (1, 6),
    8: (3, 6),
    9: (5, 6),
}

Quantity = Union[int, str]  # constraint-row id 1..9 or "O"


@dataclass(frozen=True)
class NoiseModel:
    """White-noise admixture with the given visibility of the ideal state."""

    visibility: float

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {self.visibility}")


@lru_cache(maxsize=None)
def _noise_terms() -> tuple[np.ndarray, np.ndarray]:
    """Read-only |Psi><Psi| and I, built on first use."""
    psi = doubly_entangled_state().amps
    terms = np.outer(psi, psi.conj()), np.eye(16)
    for term in terms:
        term.setflags(write=False)
    return terms


def noisy_state(visibility: float) -> np.ndarray:
    """rho = V |Psi><Psi| + (1-V) I/16 as a read-only 16 x 16 density matrix."""
    v = NoiseModel(visibility).visibility
    projector, identity = _noise_terms()
    rho = v * projector + (1.0 - v) / 16.0 * identity
    rho.setflags(write=False)
    return rho


@lru_cache(maxsize=None)
def _quantity_matrix(quantity: Quantity) -> np.ndarray:
    """Read-only matrix of a constraint row or of O, built once per quantity."""
    if quantity == "O":
        return bell_mermin_operator().realization.matrix
    return CONSTRAINT_ROWS[quantity - 1].operator().matrix


def _quantity_key(quantity) -> Quantity:
    """'O', or a row id 1..9 as a plain int; bools and other types are rejected."""
    if isinstance(quantity, str):
        if quantity == "O":
            return quantity
    elif not isinstance(quantity, bool):
        try:
            row_id = operator.index(quantity)
        except TypeError:
            row_id = 0
        if 1 <= row_id <= 9:
            return row_id
    raise ValueError(f"quantity must be a row id 1..9 or 'O', got {quantity!r}")


def exact_expectation(quantity: Quantity, density: np.ndarray) -> float:
    """tr(rho Q) of a constraint row or of O; exact to working precision.

    ``quantity`` is "O" or a row id 1..9 of any integer type except bool;
    ``density`` must be 16 x 16.  Anything else raises ``ValueError``.
    """
    matrix = _quantity_matrix(_quantity_key(quantity))
    rho = np.asarray(density)
    if rho.shape != (16, 16):
        raise ValueError(f"density must be a 16 x 16 matrix, got shape {rho.shape}")
    # Q is Hermitian, so sum_ij conj(Q_ij) rho_ij = sum_ij rho_ij Q_ji = tr(rho Q).
    return float(np.vdot(matrix, rho).real)


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sampled mean of one quantity with its standard error."""

    quantity: Quantity
    shots: int
    estimate: float
    std_error: float

    def __post_init__(self):
        bound = 9.0 if self.quantity == "O" else 1.0
        if abs(self.estimate) > bound + 1e-9:
            raise ValueError(f"estimate {self.estimate} out of range for {self.quantity}")


# -- sampling ---------------------------------------------------------------

#: Largest shot count of one setting; ``Generator.multinomial`` counts in int64.
MAX_SHOTS = 2**63 - 1


def _check_shots(shots: int) -> None:
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, 2**63 - 1], got {shots}")


def sample_pair_counts(
    a1_id: int,
    a2_id: int,
    density: np.ndarray,
    shots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Counts c[d1, d2] of each detector pattern over ``shots`` iid shots.

    One multinomial draw over the Born distribution, whatever the shot count.
    """
    _check_shots(shots)
    probs = pattern_distribution(build_apparatus(a1_id), build_apparatus(a2_id), density)
    return rng.multinomial(shots, probs.ravel()).reshape(4, 4)


def counted_mean(counts: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Mean m of a +-1 quantity over counted patterns, and its SE sqrt((1-m^2)/(n-1)).

    ``values`` gives the quantity on each flat pattern 4*d1 + d2.  With n+ and
    n- shots at +1 and -1, 1 - m^2 = 4 n+ n- / n^2, so the SE is formed from
    exact integers and is exactly 0 when every shot agrees.  It equals the
    sample ``std(ddof=1) / sqrt(n)`` of the per-shot values.
    """
    flat = counts.ravel()
    return _plus_minus_mean(int(flat[values > 0].sum()), int(flat.sum()))


def _plus_minus_mean(plus: int, n: int) -> tuple[float, float]:
    """Mean and SE of n shots of a +-1 quantity, ``plus`` of them at +1."""
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 shots, got {n}")
    minus = n - plus
    return (plus - minus) / n, 2.0 * math.sqrt(plus * minus / (n - 1)) / n


@lru_cache(maxsize=None)
def _row_tables() -> tuple[np.ndarray, np.ndarray]:
    """Pattern bras (9, 16, 16) and +-1 values (9, 16) of the rows at their pairs.

    Row i holds constraint i+1: the bras K of its matched apparatus pair, and
    the product of its variables on each flat pattern 4*d1 + d2.  The rows and
    pairs are fixed, so the tables are built once, on first use.
    """
    bras, values = [], []
    for constraint in CONSTRAINTS:
        a1_id, a2_id = ROW_APPARATUS_PAIRS[constraint.id]
        a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
        table = readout_table(a1, a2)
        bras.append(pattern_bras(a1, a2))
        values.append(np.prod([table[name] for name in constraint.variables], axis=0))
    tables = np.array(bras), np.array(values)
    for table in tables:
        table.setflags(write=False)
    return tables


def estimate_rows(
    shots_per_setting: int,
    visibility: float,
    seed=DEFAULT_SEED,
) -> list[CorrelationEstimate]:
    """Sampled correlation of every constraint row at its matched pair.

    One Born computation gives the nine distributions and one multinomial
    draw their 9 x 16 count table.  The generator fills the rows in order, so
    the counts equal nine sequential ``sample_pair_counts`` draws from one
    generator, and a fixed seed fixes every estimate.
    """
    density = noisy_state(visibility)
    _check_shots(shots_per_setting)
    bras, values = _row_tables()
    probs = born_distribution(bras, density)
    counts = np.random.default_rng(seed).multinomial(shots_per_setting, probs)
    plus = np.sum(counts, axis=1, where=values > 0).tolist()
    n = int(shots_per_setting)
    return [
        CorrelationEstimate(constraint.id, shots_per_setting, *_plus_minus_mean(p, n))
        for constraint, p in zip(CONSTRAINTS, plus)
    ]


def estimate_pair(
    a1_id: int,
    a2_id: int,
    visibility: float,
    shots: int,
    seed=DEFAULT_SEED,
) -> list[tuple[str, float, float]]:
    """(name, mean, SE) of the fifteen quantities one apparatus pair reads.

    The six local values come first, photon 1 then photon 2, followed by the
    nine cross products ``name1*name2``; all are read off one count table.
    """
    a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
    rng = np.random.default_rng(seed)
    counts = sample_pair_counts(a1_id, a2_id, noisy_state(visibility), shots, rng)
    quantities = readout_table(a1, a2)
    for name1 in a1.value_names:
        for name2 in a2.value_names:
            quantities[f"{name1}*{name2}"] = quantities[name1] * quantities[name2]
    return [(name, *counted_mean(counts, values)) for name, values in quantities.items()]


def estimate_mermin(
    shots_per_setting: int,
    visibility: float,
    seed=DEFAULT_SEED,
) -> CorrelationEstimate:
    """Monte Carlo estimate of the Bell-Mermin value under white noise.

    Each of the nine terms is sampled at its matched apparatus pair; the
    signed term means are summed and the standard errors combined in
    quadrature.
    """
    rows = estimate_rows(shots_per_setting, visibility, seed)
    total = sum(
        c.required_product * est.estimate for c, est in zip(CONSTRAINTS, rows)
    )
    variance = sum(est.std_error**2 for est in rows)
    return CorrelationEstimate(
        quantity="O",
        shots=shots_per_setting,
        estimate=float(total),
        std_error=float(np.sqrt(variance)),
    )


# -- visibility sweep --------------------------------------------------------


def violation_flag(exact_value: float) -> str:
    """'yes' above the LHV bound, 'no' below, 'boundary' within 1e-9 of it."""
    if abs(exact_value - LHV_BOUND) <= BOUNDARY_ATOL:
        return "boundary"
    return "yes" if exact_value > LHV_BOUND else "no"


@dataclass(frozen=True)
class SweepPoint:
    visibility: float
    exact: float
    estimate: float | None
    std_error: float | None
    violated: str
    lhv_bound: float = float(LHV_BOUND)


class SweepTable(Sequence[SweepPoint]):
    """Sweep rows held as one read-only float array; a row is built on access.

    Columns are (visibility, exact, estimate, std_error), with NaN where a
    point was not sampled; the row reports those as None.  A kept sweep costs
    32 bytes per point rather than an object and three floats.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index: int) -> SweepPoint:
        v, exact, estimate, std_error = self.columns[index].tolist()
        sampled = not math.isnan(estimate)
        return SweepPoint(
            visibility=v,
            exact=exact,
            estimate=estimate if sampled else None,
            std_error=std_error if sampled else None,
            violated=violation_flag(exact),
        )


def visibility_sweep(
    grid: Sequence[float],
    shots_per_setting: int = 0,
    seed=DEFAULT_SEED,
) -> SweepTable:
    """Exact and (optionally) sampled Bell-Mermin values across visibilities.

    ``shots_per_setting=0`` skips sampling.  Each grid point samples from its
    own child seed, so points are independent and the table is reproducible.
    """
    for v in grid:
        NoiseModel(v)
    children = np.random.SeedSequence(seed).spawn(len(grid))
    columns = np.full((len(grid), 4), np.nan)
    for row, (v, child) in enumerate(zip(grid, children)):
        columns[row, :2] = v, exact_expectation("O", noisy_state(v))
        if shots_per_setting > 0:
            sampled = estimate_mermin(shots_per_setting, v, child)
            columns[row, 2:] = sampled.estimate, sampled.std_error
    columns.setflags(write=False)
    return SweepTable(columns)


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


SWEEP_CSV_HEADER = "v,exact_O,est_O,std_err,lhv_bound,violated"


def sweep_csv(points: Sequence[SweepPoint]) -> str:
    """CSV table with a header row, period decimals, locale independent."""
    lines = [SWEEP_CSV_HEADER]
    for p in points:
        est = _fmt(p.estimate) if p.estimate is not None else ""
        err = _fmt(p.std_error) if p.std_error is not None else ""
        lines.append(
            f"{_fmt(p.visibility)},{_fmt(p.exact)},{est},{err},"
            f"{_fmt(p.lhv_bound)},{p.violated}"
        )
    return "\n".join(lines) + "\n"


def sweep_table(points: Sequence[SweepPoint]) -> list[dict]:
    """JSON-ready rows mirroring the CSV columns."""
    return [
        {
            "v": p.visibility,
            "exact_O": p.exact,
            "est_O": p.estimate,
            "std_err": p.std_error,
            "lhv_bound": p.lhv_bound,
            "violated": p.violated,
        }
        for p in points
    ]
