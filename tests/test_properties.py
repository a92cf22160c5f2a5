"""Two code paths compared on random pure and mixed two-photon states.

rho = A A^dagger / tr(A A^dagger) with A a complex 16 x k matrix, k in
1..16; k = 1 gives pure states.  The Born distribution of each row's pair is
checked against the pure-state reference over rho's eigenvectors, the
detector marginals against no signalling, and the correlations read off the
detector maps against tr(rho Q) from the operators.  Each row's probability
of reading +1 is checked against (1 + tr(rho R))/2, the sampler's
plain-float p+(V) against the Born rule of noisy_state(V) and bit for bit
against numpy's elementwise formula and the sweep's (points x 9) table.  The
visibility sweep's one array draw and its column operations are checked bit
for bit against its points drawn and summed one at a time on one generator,
against the point estimate of the same seed, and against the sweeps of its
grid's prefixes, at shot counts on both sides of 2**25, where the float sums
stop being exact.  Both are checked against exact integer sums: bit for bit
up to 2**25 shots, within a few units in the last place above.
The point sampler draws each row once, in row order, and its Bell-Mermin
sum of the row counts is pinned to a plain left-to-right float sum, whatever
the Python; every builtin ``sum`` in src/ is pinned to a known integer sum.  A sampled value is checked against its exact law: a whole
number M of agreeing shots, drawn as Binomial(9n, (1 + V)/2).
"""

import ast
import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hyperbell
from hyperbell import inputs
from hyperbell.experiment import (
    MAX_SHOTS,
    ROW_APPARATUS_PAIRS,
    _plus_table,
    _point,
    _row_tables,
    estimate_mermin,
    exact_expectation,
    noisy_state,
    visibility_sweep,
)
from hyperbell.hilbert import StateVector
from hyperbell.lhv import CONSTRAINTS
from hyperbell.optics import build_apparatus, pattern_distribution, readout_table

from reference import joint_distribution, sampled_mermin, sampled_mermin_exact

PHOTON1_APPARATUSES = (1, 3, 5)
PHOTON2_APPARATUSES = (2, 4, 6)


@st.composite
def density_matrices(draw):
    rank = draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((16, rank)) + 1j * rng.standard_normal((16, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def row_pairs():
    """The nine rows' apparatus pairs, built, in row order."""
    return [tuple(map(build_apparatus, ROW_APPARATUS_PAIRS[c.id])) for c in CONSTRAINTS]


def row_values():
    """The rows' +-1 values (9, 16), multiplied out from their variables' single values."""
    return np.array([
        np.prod([readout_table(a1, a2)[name] for name in constraint.variables], axis=0)
        for constraint, (a1, a2) in zip(CONSTRAINTS, row_pairs())
    ])


def row_distributions(rho):
    """The Born distributions (9, 16) of rho at the rows' pairs, and ``row_values()``."""
    probs = [pattern_distribution(a1, a2, rho).ravel() for a1, a2 in row_pairs()]
    return np.array(probs), row_values()


@settings(deadline=None)
@given(density_matrices())
def test_batched_rows_match_per_pair_distributions(rho):
    # diag(K rho K^dagger) of each row's pair against the pure-state reference
    # path, |conj(B1) psi conj(B2)^T|^2, averaged over rho's eigenvectors
    probs, _ = row_distributions(rho)
    assert probs.shape == (9, 16)
    assert (probs >= 0).all()
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
    weights, vectors = np.linalg.eigh(rho)
    for (a1, a2), row in zip(row_pairs(), probs):
        pair = sum(w * joint_distribution(a1, a2, StateVector(v))
                   for w, v in zip(weights, vectors.T))
        assert np.abs(row - pair.ravel()).max() <= 1e-12


@settings(deadline=None)
@given(density_matrices())
def test_no_signalling(rho):
    def marginals(a1_id, a2_id):
        p = pattern_distribution(build_apparatus(a1_id), build_apparatus(a2_id), rho)
        return p.sum(axis=1), p.sum(axis=0)

    for a1_id in PHOTON1_APPARATUSES:
        first = [marginals(a1_id, a2_id)[0] for a2_id in PHOTON2_APPARATUSES]
        for other in first[1:]:
            assert np.abs(other - first[0]).max() <= 1e-12
    for a2_id in PHOTON2_APPARATUSES:
        second = [marginals(a1_id, a2_id)[1] for a1_id in PHOTON1_APPARATUSES]
        for other in second[1:]:
            assert np.abs(other - second[0]).max() <= 1e-12


@settings(deadline=None)
@given(density_matrices())
def test_row_correlations_match_operator_traces(rho):
    probs, values = row_distributions(rho)
    correlations = (probs * values).sum(axis=1)
    for constraint, correlation in zip(CONSTRAINTS, correlations):
        assert abs(correlation - exact_expectation(constraint.id, rho)) <= 1e-12
    signs = np.array([c.required_product for c in CONSTRAINTS])
    assert abs(signs @ correlations - exact_expectation("O", rho)) <= 1e-12


@settings(deadline=None)
@given(density_matrices())
def test_row_plus_probability_is_half_of_one_plus_the_correlation(rho):
    # the sampler draws n+ ~ Binomial(n, p+); p+ summed over the +1 patterns of
    # diag(K rho K^dagger) must be (1 + tr(rho R))/2 for every row R
    probs, values = row_distributions(rho)
    plus = (probs * (values > 0)).sum(axis=1)
    for constraint, p in zip(CONSTRAINTS, plus):
        assert abs(p - (1.0 + exact_expectation(constraint.id, rho)) / 2.0) <= 1e-12


def _mixed(v: float) -> list[float]:
    """The nine p+ that ``_point`` hands its ``binomial`` at V, which draws 0 each time."""
    probs = []

    def binomial(shots, p):
        probs.append(p)
        return 0

    _point(binomial, 2, v)
    return probs


#: The ends, 7/9 and its neighbours, the float just below 1, and subnormals.
EDGE_VISIBILITIES = (
    0.0, 0.5, 1.0, 7.0 / 9.0, np.nextafter(7.0 / 9.0, 0.0), np.nextafter(7.0 / 9.0, 1.0),
    1.0 - 2**-53, 5e-324, 2**-1022 - 2**-1074,
)


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=6))
def test_sampled_mixture_is_the_born_rule_of_the_noisy_state(drawn):
    # the sampler never builds rho; its plain-float p+(V) must be numpy's
    # elementwise formula bit for bit, unclipped and still a probability, and
    # the +1 patterns' share of diag(K rho K^dagger) for rho = noisy_state(V)
    terms, _ = _row_tables()
    plus_psi, uniform = np.array(terms).T
    for v in inputs._visibilities([*EDGE_VISIBILITIES, *drawn]):
        rows = _mixed(v)
        reference = v * plus_psi + (1.0 - v) * uniform
        assert [p.hex() for p in rows] == [p.hex() for p in reference.tolist()]
        assert all(0.0 <= p <= 1.0 for p in rows)
        probs, values = row_distributions(noisy_state(v))
        for p, pair, row in zip(rows, probs, values):
            assert abs(p - pair[row > 0].sum()) <= 1e-12


@settings(deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=6))
def test_sweep_table_mixes_and_clips_as_the_point_floats(drawn):
    # the sweep's one array expression against the point's plain floats, bit
    # for bit; neither clips, as no V in [0, 1] puts a p+ outside [0, 1]
    grid = [*EDGE_VISIBILITIES, *drawn]
    table = _plus_table(np.array(grid))
    assert [[p.hex() for p in row] for row in table.tolist()] == [
        [p.hex() for p in _mixed(v)] for v in grid
    ]


#: Grid points: the ends, the threshold 7/9, and arbitrary values in between.
visibilities = st.one_of(
    st.sampled_from([0.0, 7.0 / 9.0, 1.0]),
    st.floats(0.0, 1.0, allow_nan=False),
)


@st.composite
def grids(draw):
    """A grid with repeated points: some drawn values appear more than once."""
    grid = draw(st.lists(visibilities, min_size=1, max_size=8))
    repeats = draw(st.lists(st.sampled_from(grid), max_size=3))
    return draw(st.permutations(grid + repeats))


#: Shot counts up to 2**25, where every product and partial sum of the float rule
#: is an exact integer, and above it, where they round.
EXACT_SUM_SHOTS = [2, 100, 150_000, 2**25 - 1, 2**25]
ROUNDED_SUM_SHOTS = [2**26, 10**12, 2**53 + 3, MAX_SHOTS]

#: A sweep's shots per setting: the fewest, the benchmark's, both sides of the
#: float rule's exactness bound 2**25, a trillion (an int64 spread overflows), and the most.
sweep_shots = st.sampled_from([2, 100, 2**25 - 1, 2**25, 10**12, MAX_SHOTS])
seeds = st.integers(0, 2**64 - 1)


def test_column_shot_bound_keeps_the_counts_exact():
    # up to 2**25 shots the float rule's 2 f - n, each f n- and every partial
    # sum of the nine spreads are exact integers in float64, and n- in int64
    n = EXACT_SUM_SHOTS[-1]
    assert 9 * (n // 2) * (n - n // 2) < 2**53 and 2 * n < 2**63


def _bits(*values: float) -> list[str]:
    """The floats' hex forms: unlike ==, they tell -0.0 from 0.0."""
    return [x.hex() for x in values]


@settings(deadline=None, max_examples=60)
@given(grids(), sweep_shots, seeds)
def test_batched_sweep_equals_points_one_at_a_time(grid, shots, seed):
    # the one array draw against nine scalar draws per point, in grid order
    table = visibility_sweep(grid, shots, seed)
    gen = np.random.default_rng(seed)
    assert len(table) == len(grid)
    for point, v in zip(table, grid):
        expected = sampled_mermin(gen, shots, v)
        assert point.visibility == v
        assert point.exact == v * exact_expectation("O", noisy_state(1.0))
        assert abs(point.exact - exact_expectation("O", noisy_state(v))) <= 1e-12
        assert _bits(point.estimate, point.std_error) == _bits(*expected)


@settings(deadline=None, max_examples=60)
@given(visibilities, sweep_shots, seeds)
def test_one_point_sweep_is_the_point_estimate_of_the_same_seed(v, shots, seed):
    (point,) = visibility_sweep([v], shots, seed)
    single = estimate_mermin(shots, v, seed)
    assert _bits(point.estimate, point.std_error) == _bits(single.estimate, single.std_error)


@settings(deadline=None, max_examples=60)
@given(grids(), sweep_shots, seeds)
def test_sweep_rows_of_a_grid_prefix_are_its_first_rows(grid, shots, seed):
    table = visibility_sweep(grid, shots, seed)
    for k in range(len(grid) + 1):
        assert list(visibility_sweep(grid[:k], shots, seed)) == list(table)[:k]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from([2, 100, 150_000, MAX_SHOTS]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n), min_size=9, max_size=9))
))
def test_mermin_value_adds_the_signed_row_means_left_to_right(drawn):
    # sum() of floats is compensated from Python 3.12 on; the value and the
    # spread must be the uncompensated left-to-right sums on every interpreter
    n, plus = drawn
    terms = [c.required_product * ((2.0 * p - n) / n) for c, p in zip(CONSTRAINTS, plus)]
    counts = iter(plus)
    _, value, std_error = _point(lambda shots, p: next(counts), n, 0.5)
    assert value.hex() == functools.reduce(operator.add, terms).hex()
    spread = functools.reduce(operator.add, [float(p) * (n - p) for p in plus])
    assert std_error.hex() == (2.0 * math.sqrt(spread / (n - 1)) / n).hex()


@pytest.mark.parametrize("shots", EXACT_SUM_SHOTS + ROUNDED_SUM_SHOTS)
@settings(deadline=None, max_examples=25)
@given(grids(), seeds)
def test_float_sums_equal_exact_integer_sums_to_the_last_bits(shots, grid, seed):
    # the float rule against exact integer spreads and correctly rounded means:
    # equal bits up to 2**25 shots; above, O within 1e-14 and the SE within 2e-15
    # relative, both far below an SE, at sweep and point alike
    table = visibility_sweep(grid, shots, seed)
    gen = np.random.default_rng(seed)
    single = estimate_mermin(shots, grid[0], seed)
    assert _bits(single.estimate, single.std_error) == _bits(table[0].estimate, table[0].std_error)
    for point, v in zip(table, grid):
        estimate, std_error = sampled_mermin_exact(gen, shots, v)
        if shots <= EXACT_SUM_SHOTS[-1]:
            assert _bits(point.estimate, point.std_error) == _bits(estimate, std_error)
        else:
            assert abs(point.estimate - estimate) <= 1e-14
            assert abs(point.std_error - std_error) <= 2e-15 * std_error


@pytest.mark.parametrize("v", [0.0, 0.9, 1.0])
def test_point_draws_each_row_once_in_row_order(v):
    # a fake binomial records its calls and answers a new count each time: the
    # point must ask for row i's p+ at the i-th call and return the counts as drawn
    calls = []

    def binomial(shots, p):
        calls.append((shots, p))
        return 10 + len(calls)

    plus, _, _ = _point(binomial, 100, v)
    assert calls == [(100, v * pp + (1.0 - v) * u) for pp, u in _row_tables()[0]]
    assert plus == list(range(11, 20))



# -- the exact law of a sampled verdict ----------------------------------------
# Under white noise every row agrees with its required sign with chance
# (1 + V)/2, so the number M of agreeing shots over the nine rows is
# Binomial(9n, (1 + V)/2) and the sampled value is O = 2M/n - 9.


@settings(deadline=None, max_examples=60)
@given(st.one_of(st.integers(2, 10**6), sweep_shots), visibilities, grids(), seeds)
def test_a_sampled_value_counts_whole_agreeing_shots(shots, v, grid, seed):
    values = [estimate_mermin(shots, v, seed).estimate]
    values += [point.estimate for point in visibility_sweep(grid, shots, seed)]
    for value in values:
        agreeing = (value + 9.0) * shots / 2
        assert abs(agreeing - round(agreeing)) <= 1e-9 * shots
        assert -1e-9 * shots <= agreeing <= 9 * shots + 1e-9 * shots


def test_each_row_agrees_with_its_sign_with_chance_half_of_one_plus_v():
    # a test oracle only: the sampler reads p+ off the detector maps, not the signs
    for v in np.linspace(0.0, 1.0, 1001).tolist() + [7.0 / 9.0]:
        for (plus_psi, uniform), c in zip(_row_tables()[0], CONSTRAINTS, strict=True):
            assert abs(v * plus_psi + (1.0 - v) * uniform - (1 + c.required_product * v) / 2) <= 1e-15


def _binomial_cdf(trials: int, p: float) -> list[float]:
    """P(M <= m) for m = 0 .. trials under Binomial(trials, p), summed from math.lgamma."""
    log_p, log_q, top = math.log(p), math.log1p(-p), math.lgamma(trials + 1)
    cdf, total = [], 0.0
    for m in range(trials + 1):
        total += math.exp(top - math.lgamma(m + 1) - math.lgamma(trials - m + 1)
                          + m * log_p + (trials - m) * log_q)
        cdf.append(total)
    return cdf


def _largest_cdf_gap(agreeing: list[int], trials: int, p: float) -> float:
    """Kolmogorov distance between the draws' empirical CDF and Binomial(trials, p)'s."""
    counts = np.bincount(agreeing, minlength=trials + 1).tolist()
    below, gap = 0, 0.0
    for count, exact in zip(counts, _binomial_cdf(trials, p), strict=True):
        below += count
        gap = max(gap, abs(below / len(agreeing) - exact))
    return gap


#: (name, shots n, V, seeds, draw): 10 000 values of M from fixed seeds, fixed
#: before the first run.  Point estimates, one seed each; sweep rows, a
#: 1000-point grid at one V for each of ten seeds.
LAW_CASES = (
    ("estimate_mermin", 100, 0.8, range(10_000),
     lambda n, v, seed: [estimate_mermin(n, v, seed).estimate]),
    ("visibility_sweep", 50, 0.9, range(10),
     lambda n, v, seed: [p.estimate for p in visibility_sweep([v] * 1000, n, seed)]),
)


@pytest.mark.parametrize("case", LAW_CASES, ids=lambda case: case[0])
def test_agreeing_shots_follow_the_binomial_law(case):
    # Dvoretzky-Kiefer-Wolfowitz with Massart's constant, for any law:
    # P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2), so the bound below fails a
    # correct sampler with chance at most 1e-6
    _, shots, v, seeds, draw = case
    agreeing = [round((o + 9.0) * shots / 2) for seed in seeds for o in draw(shots, v, seed)]
    bound = math.sqrt(math.log(2 / 1e-6) / (2 * len(agreeing)))
    assert len(agreeing) == 10_000
    assert _largest_cdf_gap(agreeing, 9 * shots, (1 + v) / 2) <= bound
    # and the test has power: a law whose V is off by 0.01 is rejected
    for wrong in (v - 0.01, v + 0.01):
        assert _largest_cdf_gap(agreeing, 9 * shots, (1 + wrong) / 2) > bound

#: The builtin sum() calls allowed in src/, by module.function; each adds ints.
#: "lhv" alone is that module's top level, where ``_ROW_MASKS`` adds a row's element bits.
INTEGER_SUMS = {
    "lhv",
    "lhv._scan",
    "lhv.ContradictionCertificate.to_dict",
}


def _builtin_sum_calls(node, scope):
    """(enclosing module.function, line) of every call of the name ``sum`` under ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _builtin_sum_calls(child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum":
            yield scope, child.lineno
        yield from _builtin_sum_calls(child, scope)


def test_builtin_sum_adds_only_integers_in_src():
    # sum() of floats is compensated from Python 3.12 on, so its bits depend
    # on the interpreter; every builtin sum in src/ must be a known integer sum
    seen, others = set(), []
    for path in sorted(Path(hyperbell.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for scope, line in _builtin_sum_calls(tree, path.stem):
            if scope in INTEGER_SUMS:
                seen.add(scope)
            else:
                others.append(f"{path.name}:{line} ({scope})")
    assert others == []
    assert seen == INTEGER_SUMS  # the walk finds the allowed calls, so it finds any other


def test_batched_born_rule_takes_an_empty_stack():
    # a grid of zero visibilities: the sweep's (points x 9) p+ table is empty
    assert _plus_table(np.empty(0)).shape == (0, 9)
    assert inputs._visibilities(()) == []
    for shots in (0, 100):
        assert len(visibility_sweep((), shots)) == 0
