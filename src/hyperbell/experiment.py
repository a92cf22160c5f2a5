"""Noise model, Monte Carlo correlation estimates, and the visibility sweep.

With visibility V the prepared state is rho = V |Psi><Psi| + (1-V) I/16.  Every operator of
interest is traceless, so <Q>(V) = V * <Q>(1): the Bell-Mermin value is 9V and crosses the
local-realistic ceiling of 7 exactly at V = 7/9.  No sampler builds rho: each draws from the
one pattern law, every detector pattern at V p_Psi + (1-V)/16.  ``estimate_pair`` (``simulate``)
draws a pair's 16 counts; a row draws only n+, its shots at +1, as Binomial(n, p+) with
p+ = V p+_Psi + (1-V) k/16, the law summed over its k patterns at +1.  ``_point`` draws a
point estimate's nine rows and adds O and its SE; a sweep draws all its points in one call and
forms the same float64 sums as columns, at every shot count.  README (Conventions, Sampling)
derives it.  Inputs are checked by ``inputs``, whose ``DEFAULT_GRID`` and ``MAX_SHOTS`` are
re-exported.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from . import inputs
from .hilbert import check_density
from .inputs import DEFAULT_GRID, DEFAULT_SEED, MAX_SHOTS
from .lhv import CONSTRAINTS, LHV_BOUND, ROW_APPARATUS_PAIRS
from .observables import CONSTRAINT_ROWS, bell_mermin_operator, doubly_entangled_state
from .optics import build_apparatus, pattern_distribution, readout_table

#: Width of the "boundary" band around the LHV bound in the violation flag.
BOUNDARY_ATOL = 1e-9

Quantity = Union[int, str]  # constraint-row id 1..9 or "O"


@lru_cache(maxsize=None)
def _psi_density() -> np.ndarray:
    """Read-only |Psi><Psi|, built on first use."""
    psi = doubly_entangled_state().amps
    projector = np.outer(psi, psi.conj())
    projector.setflags(write=False)
    return projector


def noisy_state(visibility: float) -> np.ndarray:
    """rho = V |Psi><Psi| + (1-V) I/16 as a read-only 16 x 16 density matrix, for exact values."""
    v = inputs._visibility(visibility)
    rho = v * _psi_density() + (1.0 - v) / 16.0 * np.eye(16)
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
def _pair_law(a1_id: int, a2_id: int) -> tuple[np.ndarray, tuple[tuple[str, np.ndarray], ...]]:
    """The read-only |Psi> pattern probabilities of a pair, at 4*d1 + d2, and the read-only
    +1-pattern mask of each quantity, in ``readout_table``'s order, built once per pair."""
    a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
    psi = pattern_distribution(a1, a2, _psi_density()).ravel()
    masks = tuple((name, values > 0) for name, values in readout_table(a1, a2).items())
    for array in (psi, *(mask for _, mask in masks)):
        array.setflags(write=False)
    return psi, masks


@lru_cache(maxsize=None)
def _row_tables() -> tuple[tuple[tuple[float, float], ...], np.ndarray]:
    """The rows' (p+_Psi, k/16) as floats, and a (3, 9) array of the same
    p+_Psi and k/16 and of the rows' required signs.

    Column i holds constraint i+1, the quantity ``"*".join(variables)`` of its
    pair: its ``_pair_law`` summed over its k patterns at +1, and k/16, all built once.
    """
    plus_psi, uniform = [], []
    for constraint in CONSTRAINTS:
        psi, masks = _pair_law(*ROW_APPARATUS_PAIRS[constraint.id])
        plus = dict(masks)["*".join(constraint.variables)]
        plus_psi.append((psi * plus).sum())
        uniform.append(plus.sum() / 16.0)
    columns = np.array([plus_psi, uniform, _ROW_SIGNS])
    columns.setflags(write=False)
    return tuple(zip(*columns[:2].tolist())), columns


def _plus_table(v: np.ndarray) -> np.ndarray:
    """``_point``'s nine p+ at every V in ``v`` as one (len(v) x 9) expression, same bits."""
    plus_psi, uniform, _ = _row_tables()[1]
    probs = np.multiply.outer(v, plus_psi)
    probs += np.multiply.outer(1.0 - v, uniform)
    return probs


_ROW_SIGNS = tuple(c.required_product for c in CONSTRAINTS)


@lru_cache(maxsize=None)
def _exact_mermin() -> float:
    """<Psi|O|Psi>, 9.0, computed once per process: a sweep's exact column is V times it."""
    return exact_expectation("O", _psi_density())


def _point(binomial, shots: int, v: float) -> tuple[list[int], float, float]:
    """The nine rows' n+ at V, and O and its SE from them, in one pass in row order.

    Each p+(V) = V p+_Psi + (1-V) k/16 is mixed in plain floats that need no clip (README)
    and drawn as ``binomial(shots, p)``, the stream of one array draw of the nine rows.
    Each count becomes a float f once.  O adds the signed means (2 f - n)/n left to right
    (``sum`` compensates floats from Python 3.12 on); the spread adds f n- left to right and
    is divided by n - 1 once.  Below 2**25 shots every product and partial sum is an exact
    integer, 9 (n/2)**2 < 2**53; above, each rounds by far less than the SE (README).
    """
    w = 1.0 - v
    plus, total, spread = [], 0.0, 0.0
    for sign, (plus_psi, uniform) in zip(_ROW_SIGNS, _row_tables()[0]):
        n = binomial(shots, v * plus_psi + w * uniform)
        plus.append(n)
        f = float(n)
        total += sign * ((2.0 * f - shots) / shots)
        spread += f * (shots - n)
    return plus, total, 2.0 * math.sqrt(spread / (shots - 1)) / shots


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
    binomial = np.random.default_rng(inputs._seed(seed)).binomial
    shots = inputs._shot_count(shots_per_setting, 2)
    plus, _, _ = _point(binomial, shots, inputs._visibility(visibility))
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

    In ``readout_table``'s order, from one draw of the 16 pattern counts, each at
    V p_Psi + (1-V)/16 with the pair's ``_pair_law``.  ``seed``, ``shots`` as in ``estimate_rows``.
    """
    a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
    rng = np.random.default_rng(inputs._seed(seed))
    shots = inputs._shot_count(shots, 2)
    v = inputs._visibility(visibility)
    psi, masks = _pair_law(a1.id, a2.id)
    counts = rng.multinomial(shots, v * psi + (1.0 - v) / 16.0)
    return [(name, *_plus_minus_mean(int(counts[mask].sum()), shots)) for name, mask in masks]


def estimate_mermin(
    shots_per_setting: int,
    visibility: float,
    seed=DEFAULT_SEED,
) -> CorrelationEstimate:
    """Monte Carlo estimate of the Bell-Mermin value under white noise.

    The nine rows are drawn as in ``estimate_rows``; their signed means are summed
    and their standard errors combined in quadrature (``_point``).
    """
    binomial = np.random.default_rng(inputs._seed(seed)).binomial
    shots = inputs._shot_count(shots_per_setting, 2)
    _, total, std_error = _point(binomial, shots, inputs._visibility(visibility))
    return CorrelationEstimate("O", shots, total, std_error)


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
    is an integer in [0, 2**64 - 1].  The (points x 9) ``_plus_table`` is drawn in
    one ``binomial`` call on ``default_rng(seed)``, element by element in C order as
    ``_point`` draws it point by point.  At every shot count the int64 counts are cast
    to float64 as ``_point`` converts them, and the spread and O are each one
    ``np.add.accumulate`` of a row's nine terms, left to right as ``_point`` adds them.
    The rows of ``grid[:k]`` are the first k rows of ``grid``, and a one-point sweep equals
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
    else:  # _point's float sums as column operations, each added left to right
        plus = np.random.default_rng(seed).binomial(shots, _plus_table(v))
        estimate, std_error = columns[:, 2], columns[:, 3]
        std_error[:] = np.add.accumulate(
            np.multiply(plus, shots - plus, dtype=float), axis=1)[:, -1]
        terms = (2.0 * plus - shots) / shots
        terms *= _row_tables()[1][2]
        # the running sum starts at t0, not 0.0 + t0, so it differs only in
        # being -0.0 when every term is; + 0.0 makes that 0.0, as in _point
        estimate[:] = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
        std_error /= shots - 1
        np.sqrt(std_error, out=std_error)
        std_error *= 2.0
        std_error /= shots
    columns.setflags(write=False)
    return SweepTable(columns)
