"""Noise model, Monte Carlo correlation estimates, and the visibility sweep.

With visibility V the prepared state is rho = V |Psi><Psi| + (1-V) I/16.
Every operator of interest is traceless, so <Q>(V) = V * <Q>(1): the
Bell-Mermin value is 9V and crosses the local-realistic ceiling of 7 exactly
at V = 7/9.  The row samplers build no rho: a row needs only n+, its shots at
+1, drawn as Binomial(n, p+(V)) with p+(V) = V p+_Psi + (1-V) k/16.  README
(Conventions, Sampling) derives this and says why a sweep's one array draw
equals its points drawn one at a time.  ``estimate_pair`` (``simulate``)
draws all 16 pattern counts of one pair at V.  Shots, seeds and
visibilities are checked by ``inputs``, whose ``DEFAULT_GRID`` and
``MAX_SHOTS`` are re-exported here.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import inputs
from .hilbert import ATOL, check_density
from .inputs import DEFAULT_GRID, DEFAULT_SEED, MAX_SHOTS
from .lhv import CONSTRAINTS, LHV_BOUND, ROW_APPARATUS_PAIRS
from .observables import CONSTRAINT_ROWS, bell_mermin_operator, doubly_entangled_state
from .optics import build_apparatus, pattern_distribution, readout_table

#: Width of the "boundary" band around the LHV bound in the violation flag.
BOUNDARY_ATOL = 1e-9

Quantity = Union[int, str]  # constraint-row id 1..9 or "O"


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
    v = inputs._visibility(visibility)
    projector, identity = _noise_terms()
    rho = v * projector + (1.0 - v) / 16.0 * identity
    rho.setflags(write=False)
    return rho


def exact_expectation(quantity: Quantity, density: np.ndarray) -> float:
    """tr(rho Q) of a constraint row or of O; exact to working precision.

    ``quantity`` is "O" or a row id 1..9 of any integer type except bool;
    ``density`` must be a 16 x 16 state (``hilbert.check_density``).  Anything
    else raises ``ValueError``.  Each quantity's matrix is built once per process.
    """
    if isinstance(quantity, str) and quantity == "O":
        matrix = bell_mermin_operator().realization.matrix
    else:
        rows = len(CONSTRAINTS)
        row = inputs._integer(quantity, 1, rows, f"quantity must be a row id 1..{rows} or 'O'")
        matrix = CONSTRAINT_ROWS[row - 1].operator().matrix
    rho = check_density(density)
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
        bound = float(len(CONSTRAINTS)) if self.quantity == "O" else 1.0
        if abs(self.estimate) > bound + 1e-9:
            raise ValueError(f"estimate {self.estimate} out of range for {self.quantity}")


# -- sampling ---------------------------------------------------------------

def _plus_minus_mean(plus: int, n: int) -> tuple[float, float]:
    """Mean m and SE sqrt((1-m^2)/(n-1)) of n shots of a +-1 quantity, ``plus`` at +1.

    1 - m^2 = 4 n+ n- / n^2 (n+ and n- shots at +1 and -1), so the SE is formed from exact
    integers, is exactly 0 when every shot agrees, and equals the shots' ``std(ddof=1) / sqrt(n)``.
    """
    if n < 2:
        raise ValueError(f"a standard error needs at least 2 shots, got {n}")
    minus = n - plus
    return (plus - minus) / n, 2.0 * math.sqrt(plus * minus / (n - 1)) / n


@lru_cache(maxsize=None)
def _row_tables() -> tuple[tuple[tuple[float, float], ...], np.ndarray]:
    """The rows' (p+_Psi, k/16) as floats, and a (3, 9) array of the same
    p+_Psi and k/16 and of the rows' required signs.

    Column i holds constraint i+1, the quantity ``"*".join(variables)`` of its
    pair: its |Psi> Born distribution summed over its k patterns at +1, and
    k/16.  None depends on the visibility, so all are built once, on first use.
    """
    plus_psi, uniform = [], []
    for constraint in CONSTRAINTS:
        a1, a2 = map(build_apparatus, ROW_APPARATUS_PAIRS[constraint.id])
        plus = readout_table(a1, a2)["*".join(constraint.variables)] > 0
        plus_psi.append((pattern_distribution(a1, a2, _noise_terms()[0]).ravel() * plus).sum())
        uniform.append(plus.sum() / 16.0)
    columns = np.array([plus_psi, uniform, _ROW_SIGNS])
    columns.setflags(write=False)
    return tuple(zip(*columns[:2].tolist())), columns


def _check_plus(low: float, high: float) -> None:
    """Raise unless the lowest and highest p+ lie within ATOL of [0, 1]: rho was no state."""
    if low <= -ATOL or high >= 1.0 + ATOL:
        raise ValueError("density matrix is not a unit-trace positive state")


def _plus_probabilities(v: float) -> list[float]:
    """p+(V) = V p+_Psi + (1-V) k/16 of the nine rows in floats, checked and clipped to [0, 1]."""
    w = 1.0 - v
    probs = [v * plus_psi + w * uniform for plus_psi, uniform in _row_tables()[0]]
    _check_plus(min(probs), max(probs))
    return [0.0 if p < 0.0 else 1.0 if p > 1.0 else p for p in probs]


def _plus_table(v: np.ndarray) -> np.ndarray:
    """``_plus_probabilities`` of every V in ``v`` as one (len(v) x 9) expression, same bits."""
    plus_psi, uniform, _ = _row_tables()[1]
    probs = np.multiply.outer(v, plus_psi)
    probs += np.multiply.outer(1.0 - v, uniform)
    # the initial values let an empty grid pass, and make low < 0 or high > 1
    # exactly when some p+ lies outside [0, 1], the only case clip changes
    low = np.minimum.reduce(probs, axis=None, initial=0.0)
    high = np.maximum.reduce(probs, axis=None, initial=1.0)
    _check_plus(low, high)
    if low < 0.0 or high > 1.0:
        probs.clip(0.0, 1.0, out=probs)
    return probs


def _sample_point(shots_per_setting, visibility, seed) -> tuple[int, list[int]]:
    """Checked shots (at least 2, for a standard error) and n+ of the nine rows at V.

    The point estimates' row sampler: nine scalar ``binomial`` draws in row
    order are the same stream as one array draw of the nine rows, without
    numpy's array-argument checks; ``visibility_sweep`` draws its
    ``_plus_table`` as one array, equal to this run point by point on one
    generator.
    """
    binomial = np.random.default_rng(inputs._seed(seed)).binomial
    shots = inputs._shot_count(shots_per_setting, 2)
    return shots, [binomial(shots, p) for p in _plus_probabilities(inputs._visibility(visibility))]


_ROW_SIGNS = tuple(c.required_product for c in CONSTRAINTS)


@lru_cache(maxsize=None)
def _exact_mermin() -> float:
    """<Psi|O|Psi>, 9.0, computed once per process: a sweep's exact column is V times it."""
    return exact_expectation("O", _noise_terms()[0])


def _mermin_value(plus: Sequence[int], shots: int) -> tuple[float, float]:
    """O and its SE from the nine rows' n+: signed row means summed, SEs in quadrature.

    Means are (2 n+ - n)/n, as in ``estimate_rows``, added left to right (``sum``
    compensates floats from Python 3.12 on, so its bits depend on the version);
    the variances 4 n+ n- / ((n-1) n^2) are summed as exact integers and divided once.
    """
    total, spread = 0.0, 0
    for sign, p in zip(_ROW_SIGNS, plus):
        total += sign * ((2 * p - shots) / shots)
        spread += p * (shots - p)
    return total, 2.0 * math.sqrt(spread / (shots - 1)) / shots


#: Below this many shots a sweep's O and SE are column operations on its counts:
#: the spread 9 (n/2)**2 < 2**53 is exact in float64, so each operation rounds
#: as in ``_mermin_value``, which larger counts keep, row by row.
_COLUMN_SHOTS = 2**25


def estimate_rows(
    shots_per_setting: int,
    visibility: float,
    seed=DEFAULT_SEED,
) -> list[CorrelationEstimate]:
    """Sampled correlation of every constraint row at its matched pair.

    Nine binomial draws give n+ of the nine rows, each with its p+(V), in
    row order from the generator of ``seed``, so a fixed seed fixes every
    estimate.  ``seed`` is an integer in [0, 2**64 - 1].
    A standard error needs at least 2 shots.
    """
    shots, plus = _sample_point(shots_per_setting, visibility, seed)
    return [
        CorrelationEstimate(constraint.id, shots, *_plus_minus_mean(p, shots))
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

    They come in ``readout_table``'s order, read off one draw of the 16 pattern
    counts at 4*d1 + d2.  ``seed`` and ``shots`` are taken as by ``estimate_rows``.
    """
    a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
    rng = np.random.default_rng(inputs._seed(seed))
    shots = inputs._shot_count(shots, 2)
    counts = rng.multinomial(shots, pattern_distribution(a1, a2, noisy_state(visibility)).ravel())
    plus = {name: int(counts[values > 0].sum()) for name, values in readout_table(a1, a2).items()}
    return [(name, *_plus_minus_mean(n, shots)) for name, n in plus.items()]


def estimate_mermin(
    shots_per_setting: int,
    visibility: float,
    seed=DEFAULT_SEED,
) -> CorrelationEstimate:
    """Monte Carlo estimate of the Bell-Mermin value under white noise.

    Each of the nine terms is sampled at its matched apparatus pair, by the
    same draw as ``estimate_rows``; the signed term means are summed and the
    standard errors combined in quadrature.
    """
    shots, plus = _sample_point(shots_per_setting, visibility, seed)
    return CorrelationEstimate("O", shots, *_mermin_value(plus, shots))


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


class SweepTable(Sequence[SweepPoint]):
    """Sweep rows held as one read-only float array; a row is built on access.

    Columns are (visibility, exact, estimate, std_error), with NaN where a
    point was not sampled; the row reports those as None.  A kept sweep costs
    32 bytes per point rather than an object and three floats.  Rows are read
    by integer index or by iteration; compare ``list(table)``.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns)

    def __getitem__(self, index) -> SweepPoint:
        v, exact, estimate, std_error = self.columns[operator.index(index)].tolist()
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
    seed: int = DEFAULT_SEED,
) -> SweepTable:
    """Exact and (optionally) sampled Bell-Mermin values across visibilities.

    ``shots_per_setting=0`` skips sampling; else it is at least 2.  ``seed``
    is an integer in [0, 2**64 - 1].  The (points x 9) ``_plus_table`` is
    drawn in one ``binomial`` call on ``default_rng(seed)``; numpy draws an
    array argument element by element in C order, as a scalar draw, so the
    counts equal the point draws of ``_sample_point`` run in grid order on
    that generator.  Below ``_COLUMN_SHOTS`` O is one ``np.add.accumulate`` of the
    nine terms per row, left to right as ``_mermin_value`` adds them, and SE
    is formed in place in its column; from it on, ``_mermin_value`` runs per
    row.  The bits are the same either way: the rows of ``grid[:k]`` are the
    first k rows of ``grid``, and a one-point sweep equals
    ``estimate_mermin(shots_per_setting, v, seed)`` bit for bit.  The exact
    column is V times ``_exact_mermin()``, <Psi|O|Psi> = 9.0 computed once
    per process, correctly rounded: tr(rho O) is linear in V.
    """
    shots = inputs._sweep_shot_count(shots_per_setting)
    seed = inputs._seed(seed)
    v = np.array(inputs._visibilities(grid), dtype=float)
    columns = np.empty((len(v), 4))
    columns[:, 0] = v
    np.multiply(v, _exact_mermin(), out=columns[:, 1])
    if not shots:
        columns[:, 2:] = np.nan
    else:
        plus = np.random.default_rng(seed).binomial(shots, _plus_table(v))
        if shots >= _COLUMN_SHOTS:
            columns[:, 2:] = np.reshape([_mermin_value(p, shots) for p in plus.tolist()], (-1, 2))
        else:  # _mermin_value as column operations, the terms added left to right
            terms = (2 * plus - shots) / shots
            terms *= _row_tables()[1][2]
            estimate, std_error = columns[:, 2], columns[:, 3]
            # the running sum starts at t0, not 0.0 + t0, so it differs only in
            # being -0.0 when every term is; + 0.0 makes that 0.0, as in _mermin_value
            np.add(np.add.accumulate(terms, axis=1)[:, -1], 0.0, out=estimate)
            np.divide((plus * (shots - plus)).sum(axis=1), shots - 1, out=std_error)
            np.sqrt(std_error, out=std_error)
            std_error *= 2.0
            std_error /= shots
    columns.setflags(write=False)
    return SweepTable(columns)
