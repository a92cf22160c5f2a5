import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hyperbell import cli, experiment, inputs
from hyperbell.hilbert import ATOL, StateVector
from hyperbell.lhv import CONSTRAINTS
from hyperbell.observables import (
    CONSTRAINT_ROWS,
    bell_mermin_operator,
    build_bell_states,
    doubly_entangled_state,
)
from hyperbell.optics import (
    bell_histogram,
    build_apparatus,
    pattern_distribution,
    readout_table,
)
from hyperbell.experiment import (
    DEFAULT_GRID,
    MAX_SHOTS,
    CorrelationEstimate,
    ROW_APPARATUS_PAIRS,
    SweepTable,
    _plus_minus_mean,
    estimate_mermin,
    estimate_pair,
    estimate_rows,
    exact_expectation,
    noisy_state,
    violation_flag,
    visibility_sweep,
)

from reference import joint_distribution, sampled_mermin


def test_noise_model_range():
    noisy_state(0.0)
    noisy_state(1.0)
    for bad in (-0.1, 1.1, 2.0):
        with pytest.raises(ValueError):
            noisy_state(bad)


def test_density_state_validation():
    rho = noisy_state(0.5)
    a1, a4 = build_apparatus(1), build_apparatus(4)
    with pytest.raises(ValueError):
        pattern_distribution(a1, a4, np.eye(4) / 4)  # not a two-photon state
    with pytest.raises(ValueError):
        pattern_distribution(a1, a4, 2 * rho)  # trace 2
    with pytest.raises(ValueError):
        # unit trace, but negative on the patterns where |Psi> is found
        pattern_distribution(a1, a4, 3 * noisy_state(0.0) - 2 * noisy_state(1.0))
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0  # read-only


#: Matrices that are no states: trace 2; unit trace with a negative eigenvalue,
#: -2 + 3/16 on |Psi>; and unit trace and positive diagonal, but not Hermitian.
NOT_STATES = {
    "trace-2": 2 * noisy_state(1.0),
    "negative": 3 * noisy_state(0.0) - 2 * noisy_state(1.0),
    "non-hermitian": noisy_state(1.0) + 1e-3j * np.triu(np.ones((16, 16)), 1),
}
DENSITY_USERS = {
    "exact_expectation": lambda rho: exact_expectation("O", rho),
    "pattern_distribution": lambda rho: pattern_distribution(
        build_apparatus(1), build_apparatus(4), rho
    ),
}


@pytest.mark.parametrize("name", sorted(NOT_STATES))
@pytest.mark.parametrize("user", sorted(DENSITY_USERS))
def test_density_must_be_a_state(user, name):
    with pytest.raises(ValueError, match="^density matrix is not a unit-trace positive state$"):
        DENSITY_USERS[user](NOT_STATES[name])


def test_noisy_state_structure():
    # rho = V |Psi><Psi| + (1-V)/16: Hermitian, unit trace, eigenvalue
    # V + (1-V)/16 once (on |Psi>) and (1-V)/16 fifteen times
    for visibility in (0.0, 0.3, 0.6, 7 / 9, 1.0):
        rho = noisy_state(visibility)
        assert rho.shape == (16, 16)
        assert np.abs(rho - rho.conj().T).max() < ATOL
        assert abs(np.trace(rho) - 1.0) < ATOL
        noise = (1.0 - visibility) / 16.0
        expected = [noise] * 15 + [visibility + noise]
        np.testing.assert_allclose(np.linalg.eigvalsh(rho), expected, atol=ATOL)


@pytest.mark.parametrize("visibility", [0.0, 0.3, 7 / 9, 1.0])
def test_density_distribution_matches_pure_mixture(visibility):
    # two paths to the noisy Born distribution: diag(K rho K^dagger) from the
    # density matrix, against V p_Psi + (1-V)/16 sum_i p_i from the pure-state
    # distributions of |Psi> and the sixteen basis kets
    rho = noisy_state(visibility)
    kets = [StateVector(ket) for ket in np.eye(16)]
    for a1_id, a2_id in ROW_APPARATUS_PAIRS.values():
        a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
        reference = visibility * joint_distribution(a1, a2, doubly_entangled_state())
        reference = reference + (1.0 - visibility) / 16.0 * sum(
            joint_distribution(a1, a2, ket) for ket in kets
        )
        probs = pattern_distribution(a1, a2, rho)
        assert np.abs(probs - reference).max() <= 1e-12


def test_every_operator_in_scope_is_traceless():
    # prerequisite for the linearity claim <Q>(V) = V * <Q>(1)
    for row in CONSTRAINT_ROWS:
        assert abs(np.trace(row.operator().matrix)) < ATOL
    assert abs(np.trace(bell_mermin_operator().realization.matrix)) < ATOL


def test_exact_values():
    assert exact_expectation("O", noisy_state(1.0)) == pytest.approx(9.0, abs=ATOL)
    assert exact_expectation(1, noisy_state(1.0)) == pytest.approx(-1.0, abs=ATOL)
    assert exact_expectation(1, noisy_state(0.5)) == pytest.approx(-0.5, abs=ATOL)
    assert exact_expectation("O", noisy_state(0.0)) == pytest.approx(0.0, abs=ATOL)
    assert exact_expectation("O", noisy_state(7 / 9)) == pytest.approx(7.0, abs=ATOL)
    with pytest.raises(ValueError):
        exact_expectation(10, noisy_state(1.0))
    with pytest.raises(ValueError):
        exact_expectation("M", noisy_state(1.0))


@pytest.mark.parametrize("visibility", [0.0, 0.3, 0.5, 7 / 9, 0.9])
def test_linearity_in_visibility(visibility):
    mixed = noisy_state(visibility)
    for quantity in list(range(1, 10)) + ["O"]:
        pure_value = exact_expectation(quantity, noisy_state(1.0))
        assert exact_expectation(quantity, mixed) == pytest.approx(
            visibility * pure_value, abs=ATOL
        )


def test_row_apparatus_pairs_cover_their_variables():
    # every variable of a constraint is a primary observable of its pair
    for constraint in CONSTRAINTS:
        a1_id, a2_id = ROW_APPARATUS_PAIRS[constraint.id]
        a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
        readable = {a1.observable_a, a1.observable_b, a2.observable_a, a2.observable_b}
        assert set(constraint.variables) <= readable


RHO_09 = noisy_state(0.9)


@pytest.mark.parametrize(
    "quantity, density, expected",
    [
        (True, RHO_09, ValueError),  # not row 1
        (False, RHO_09, ValueError),
        # expected: the value at the plain int id, computed in the test so that a
        # broken library fails these cases, not the collection of this module
        pytest.param(np.int64(3), RHO_09, 3, id="quantity2-density2--0.9"),
        pytest.param(np.uint8(9), RHO_09, 9, id="quantity3-density3--0.9"),
        (3.0, RHO_09, ValueError),
        ("1", RHO_09, ValueError),
        ([1], RHO_09, ValueError),
        (1, np.eye(4) / 4, ValueError),  # a one-photon density matrix
        ("O", RHO_09.ravel(), ValueError),
    ],
)
def test_exact_expectation_validates_its_inputs(quantity, density, expected):
    if expected is ValueError:
        with pytest.raises(ValueError, match="quantity must be|16 x 16"):
            exact_expectation(quantity, density)
    else:
        assert exact_expectation(quantity, density) == exact_expectation(expected, density)


@pytest.mark.parametrize("shots", [2, 100, MAX_SHOTS])
@pytest.mark.parametrize("seed, visibility", [(0, 0.0), (7, 0.5), (12345, 0.9), (99, 1.0)])
def test_estimate_rows_equals_sequential_pair_draws(shots, seed, visibility):
    # reference: nine sequential binomial draws of n+ from one generator, row
    # by row; each row's p+ is its |Psi> distribution at its pair summed over
    # the patterns where the row's product, multiplied out from the readout
    # table, is +1, mixed with the uniform noise term's share k/16
    rng = np.random.default_rng(seed)
    pure = noisy_state(1.0)
    reference = []
    for constraint in CONSTRAINTS:
        a1_id, a2_id = ROW_APPARATUS_PAIRS[constraint.id]
        a1, a2 = build_apparatus(a1_id), build_apparatus(a2_id)
        table = readout_table(a1, a2)
        plus = np.prod([table[name] for name in constraint.variables], axis=0) > 0
        plus_psi = pattern_distribution(a1, a2, pure).ravel()[plus].sum()
        p = visibility * plus_psi + (1 - visibility) * plus.sum() / 16
        n_plus = int(rng.binomial(shots, p))
        mean, se = _plus_minus_mean(n_plus, shots)
        reference.append(CorrelationEstimate(constraint.id, shots, mean, se))
    assert estimate_rows(shots, visibility, seed) == reference


def test_estimate_rows_validates_shots():
    for shots in (0, 1, MAX_SHOTS + 1):
        with pytest.raises(ValueError):
            estimate_rows(shots, 0.5)


SAMPLERS = {
    "estimate_rows": lambda shots: estimate_rows(shots, 0.9, 1),
    "estimate_mermin": lambda shots: estimate_mermin(shots, 0.9, 1),
    "estimate_pair": lambda shots: estimate_pair(1, 4, 0.9, shots, 1),
    "bell_histogram": lambda shots: bell_histogram(
        build_bell_states("pol-path")["phi+"], shots, np.random.default_rng(1)
    ),
    "visibility_sweep": lambda shots: visibility_sweep([0.5, 0.9], shots, 1),
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: build_apparatus(7), "apparatus id must be an integer 1..6, got 7"),
        (lambda: exact_expectation(10, noisy_state(1.0)),
         "quantity must be a row id 1..9 or 'O', got 10"),
        (lambda: CorrelationEstimate("O", 2, 9.5, 0.0), "estimate 9.5 out of range for O"),
        (lambda: CorrelationEstimate(1, 2, 1.5, 0.0), "estimate 1.5 out of range for 1"),
    ],
)
def test_bounds_read_from_the_table_keep_their_messages(call, message):
    # six apparatuses and nine rows, counted from lhv's table
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("sampler", ["estimate_rows", "estimate_mermin", "estimate_pair"])
def test_point_estimators_reject_one_shot_before_drawing(sampler):
    # a standard error needs two shots; all three say so by the same rule
    rule = "shots must be an integer in [2, 2**63 - 1], got 1"
    with pytest.raises(ValueError, match=re.escape(rule)):
        SAMPLERS[sampler](1)


@pytest.mark.parametrize(
    "bad", [2.5, 100.0, True, False, "5", None, -1, MAX_SHOTS + 1, np.array([2, 3])]
)
@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_reject_bad_shot_counts(sampler, bad):
    # the type is checked first: an array never reaches a comparison with 0
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        SAMPLERS[sampler](bad)


def test_samplers_take_integral_shot_counts():
    # any integer type is a shot count, reported back as a plain int
    rows = estimate_rows(np.int64(100), 0.9, 1)
    assert rows == estimate_rows(100, 0.9, 1)
    assert all(type(row.shots) is int for row in rows)
    assert estimate_mermin(np.uint16(100), 0.9, 1) == estimate_mermin(100, 0.9, 1)
    assert list(visibility_sweep([0.9], np.int32(100), 1)) == list(visibility_sweep([0.9], 100, 1))
    assert list(visibility_sweep([0.9], np.int64(0))) == list(visibility_sweep([0.9], 0))


VISIBILITY_USERS = {
    "noisy_state": lambda v: noisy_state(v),
    "estimate_rows": lambda v: estimate_rows(100, v, 1),
    "estimate_mermin": lambda v: estimate_mermin(100, v, 1),
    "estimate_pair": lambda v: estimate_pair(1, 4, v, 100, 1),
    "visibility_sweep": lambda v: visibility_sweep([0.5, v], 100, 1),
}


@pytest.mark.parametrize(
    "bad",
    [
        True, False, np.bool_(True), "0.5", b"1", None, [0.5], 0.5j, float("nan"),
        -0.1, np.inf, -np.inf, 1.0 + 2**-52, -5e-324,
    ],
)
@pytest.mark.parametrize("user", sorted(VISIBILITY_USERS))
def test_visibility_rejects_bools_and_non_numbers(user, bad):
    with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
        VISIBILITY_USERS[user](bad)


def test_visibility_takes_any_real_number_as_a_float():
    class Ratio(float):
        pass

    assert type(inputs._visibility(1)) is float
    assert type(inputs._visibility(Ratio(0.5))) is float and inputs._visibility(Ratio(0.5)) == 0.5
    assert math.copysign(1.0, inputs._visibility(-0.0)) == 1.0
    assert np.array_equal(noisy_state(np.float32(0.5)), noisy_state(0.5))
    assert estimate_mermin(100, Fraction(9, 10), 1) == estimate_mermin(100, 0.9, 1)
    assert list(visibility_sweep([np.int64(1)], 100, 1)) == list(visibility_sweep([1.0], 100, 1))


def test_estimates_deterministic_for_fixed_seed():
    first = estimate_mermin(2000, 0.7, seed=999)
    second = estimate_mermin(2000, 0.7, seed=999)
    assert first == second
    third = estimate_mermin(2000, 0.7, seed=998)
    assert third.estimate != first.estimate


def test_estimate_exact_at_full_visibility():
    # |Psi> is an eigenstate of every row, so sampling has zero variance
    rows = estimate_rows(5000, 1.0, seed=1)
    for constraint, est in zip(CONSTRAINTS, rows):
        assert est.quantity == constraint.id
        assert est.shots == 5000
        assert est.estimate == pytest.approx(constraint.required_product, abs=ATOL)
        assert est.std_error == pytest.approx(0.0, abs=ATOL)
    total = estimate_mermin(5000, 1.0, seed=1)
    assert total.estimate == pytest.approx(9.0, abs=ATOL)
    assert total.std_error == pytest.approx(0.0, abs=ATOL)


def test_estimate_at_half_visibility_converges():
    est = estimate_mermin(1_000_000, 0.5, seed=2024)
    assert abs(est.estimate - 4.5) < 0.02
    # combined standard error: sqrt(sum_i (1 - 0.25)/N) ~ 2.6e-3
    assert 0.001 < est.std_error < 0.005


def test_estimate_at_zero_visibility():
    est = estimate_mermin(100_000, 0.0, seed=77)
    assert abs(est.estimate) < 0.04  # ~4 sigma at SE 9.5e-3


def test_pair_counts_under_noise():
    for a1_id, a2_id in [(1, 4), (5, 6), (3, 2)]:
        results = estimate_pair(a1_id, a2_id, 0.3, 5000, seed=31)
        table = readout_table(build_apparatus(a1_id), build_apparatus(a2_id))
        assert [name for name, _, _ in results] == list(table)
        assert len(table) == 15
        for values in table.values():
            assert set(np.unique(values)) <= {-1, 1}
        for name, mean, se in results:
            assert abs(mean) <= 1.0 and 0.0 < se < 0.02, (name, mean, se)
    with pytest.raises(ValueError):
        estimate_pair(1, 4, 0.3, 0, seed=31)
    with pytest.raises(ValueError):
        estimate_pair(1, 4, 0.3, MAX_SHOTS + 1, seed=31)


def test_each_pair_law_is_built_once(monkeypatch):
    # after one call per pair, every pair's |Psi> law and +1 masks come from
    # the cache: no Born rule, readout table or density check runs again
    def calls():
        pairs = [estimate_pair(*pair, 0.9, 1000, 5) for pair in ROW_APPARATUS_PAIRS.values()]
        return pairs, estimate_mermin(1000, 0.9, 5)

    expected = calls()

    def fail(*args, **kwargs):
        raise AssertionError("a pair's constant law was built again")

    for name in ("pattern_distribution", "readout_table", "check_density"):
        monkeypatch.setattr(experiment, name, fail)
    assert calls() == expected


@pytest.mark.parametrize("pair", [(2, 1), (1, 3), (4, 6)])
def test_estimate_pair_checks_the_sides_after_the_visibility(pair):
    # the sides are checked last, when the pair's law is first built; a raised
    # error is not cached, so the second call raises it again
    with pytest.raises(ValueError, match=re.escape("visibility must be a number in [0, 1]")):
        estimate_pair(*pair, 1.5, 100, 1)
    for _ in range(2):
        with pytest.raises(ValueError, match=r"^apparatus pair must act on photons \(1, 2\)"):
            estimate_pair(*pair, 0.9, 100, 1)


def test_counted_mean_matches_per_shot_statistics():
    # the counts-path SE equals std(ddof=1)/sqrt(n) of the expanded shots
    rng = np.random.default_rng(8)
    values = np.array([1, -1] * 8)
    for _ in range(20):
        counts = rng.multinomial(int(rng.integers(2, 60)), np.full(16, 1 / 16))
        shots = np.repeat(values, counts)
        mean, se = _plus_minus_mean(int(counts[values > 0].sum()), int(counts.sum()))
        assert mean == pytest.approx(shots.mean(), abs=1e-15)
        assert se == pytest.approx(shots.std(ddof=1) / np.sqrt(shots.size), abs=1e-15)
    with pytest.raises(ValueError):
        _plus_minus_mean(1, 1)


def test_estimates_flat_in_shot_count():
    est = estimate_mermin(10**12, 0.9, seed=4)
    assert abs(est.estimate - 8.1) < 1e-4
    assert est.std_error == pytest.approx(np.sqrt(9 * (1 - 0.81) / 10**12), rel=1e-3)
    assert estimate_mermin(MAX_SHOTS, 1.0).estimate == pytest.approx(9.0, abs=ATOL)


def test_estimate_pair_quantities():
    results = estimate_pair(1, 4, 1.0, 2000, seed=3)
    names = [name for name, _, _ in results]
    assert names[:6] == ["z1", "x1'", "z1*x1'", "z2", "z2'", "z2*z2'"]
    assert len(names) == 15 and names[6] == "z1*z2"
    by_name = {name: (mean, se) for name, mean, se in results}
    assert by_name["z1*z2"] == (-1.0, 0.0)
    assert results == estimate_pair(1, 4, 1.0, 2000, seed=3)


def test_correlation_estimate_validation():
    with pytest.raises(ValueError):
        CorrelationEstimate(quantity=1, shots=10, estimate=1.5, std_error=0.0)
    with pytest.raises(ValueError):
        CorrelationEstimate(quantity="O", shots=10, estimate=9.5, std_error=0.0)


def test_violation_flag():
    assert violation_flag(9.0) == "yes"
    assert violation_flag(6.5) == "no"
    assert violation_flag(7.0) == "boundary"
    assert violation_flag(7.0 + 5e-10) == "boundary"
    assert violation_flag(7.0 + 1e-6) == "yes"


def test_sweep_flags_spec_grid():
    points = visibility_sweep([0.7, 0.75, 7 / 9, 0.8, 1.0], shots_per_setting=0)
    assert [p.violated for p in points] == ["no", "no", "boundary", "yes", "yes"]
    assert points[-1].exact == pytest.approx(9.0, abs=ATOL)
    assert all(row["lhv_bound"] == 7.0 for row in cli.sweep_rows(points))
    assert all(p.estimate is None and p.std_error is None for p in points)


def test_sweep_crossing_in_default_grid():
    assert 0.77 in DEFAULT_GRID and 0.78 in DEFAULT_GRID
    points = visibility_sweep(DEFAULT_GRID, shots_per_setting=0)
    by_v = {round(p.visibility, 6): p for p in points}
    assert by_v[0.77].violated == "no"
    assert by_v[0.78].violated == "yes"
    # exact values are 9V on both sides of the threshold
    assert by_v[0.77].exact == pytest.approx(9 * 0.77, abs=ATOL)
    assert by_v[0.78].exact == pytest.approx(9 * 0.78, abs=ATOL)


def _sweep_csv(points) -> list[str]:
    """The CLI's CSV lines for a sweep table."""
    return cli.csv_sweep({"rows": cli.sweep_rows(points)})


def test_sweep_with_sampling_and_csv():
    points = visibility_sweep([0.0, 0.5, 1.0], shots_per_setting=3000, seed=5)
    lines = _sweep_csv(points)
    assert lines[0] == "v,exact_O,est_O,std_err,lhv_bound,violated"
    assert len(lines) == 4
    last = lines[3].split(",")
    assert last[0] == "1" and last[1] == "9" and last[2] == "9"
    assert last[4] == "7" and last[5] == "yes"
    # repeated with the same seed: identical text
    again = _sweep_csv(visibility_sweep([0.0, 0.5, 1.0], shots_per_setting=3000, seed=5))
    assert again == lines

    rows = cli.sweep_rows(points)
    assert rows[0]["violated"] == "no"
    assert rows[2]["est_O"] == pytest.approx(9.0, abs=ATOL)


def test_sweep_csv_exact_only_leaves_columns_empty():
    points = visibility_sweep([0.5], shots_per_setting=0)
    assert _sweep_csv(points)[1] == "0.5,4.5,,,7,no"
    assert cli.text_sweep({"rows": cli.sweep_rows(points)})[1].split() == [
        "0.5", "4.5", "-", "-", "7", "no",
    ]


def test_sweep_of_an_empty_grid_is_an_empty_table():
    for shots in (0, 100):
        table = visibility_sweep((), shots)
        assert len(table) == 0 and list(table) == []
        assert table.columns.shape == (0, 4)
        assert _sweep_csv(table) == ["v,exact_O,est_O,std_err,lhv_bound,violated"]
    # one shot gives no standard error, so it is never a sweep's shot count
    rule = "shots must be 0 or an integer in [2, 2**63 - 1], got 1"
    with pytest.raises(ValueError, match=re.escape(rule)):
        visibility_sweep((), 1)


def test_sweep_table_reads_rows_by_integer_index():
    table = visibility_sweep([0.1, 0.5, 0.8, 1.0], shots_per_setting=100, seed=2)
    assert isinstance(table, SweepTable) and not hasattr(table, "__dict__")
    assert [table[i] for i in range(4)] == list(table)
    assert table[-1] == table[3] and table[np.int64(2)] == table[2]
    with pytest.raises(IndexError):
        table[4]
    with pytest.raises(TypeError):
        table[0:2]  # a slice of rows is list(table)[0:2]


def test_sweep_table_compares_by_value():
    grid = [0.2, 7 / 9, 0.9]

    def rows(*args, **kwargs):
        return list(visibility_sweep(grid, *args, **kwargs))

    assert rows(100, seed=4) == rows(100, seed=4)
    assert rows(100, seed=4) != rows(100, seed=5)
    # unsampled points read None, so they compare equal
    assert rows(0) == rows(0)
    assert rows(0) != rows(100, seed=4)
    assert rows(0) != list(visibility_sweep(grid[:2], 0))


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        visibility_sweep([0.5, 1.5], shots_per_setting=0)


@pytest.mark.parametrize(
    "grid", [0.5, "0.5", b"1", bytearray(b"1"), None, np.float64(0.5), np.array(0.5)], ids=repr
)
def test_sweep_rejects_a_grid_that_is_text_or_not_iterable(grid):
    rule = f"visibility grid must be an iterable of numbers, got {grid!r}"
    for shots in (0, 100):
        with pytest.raises(ValueError, match=re.escape(rule)):
            visibility_sweep(grid, shots)


def test_sweep_takes_a_tuple_list_or_array_grid():
    grid = [0.5, 7 / 9, 1.0]
    expected = visibility_sweep(grid, 100, seed=3)
    for same in (tuple(grid), np.array(grid), iter(grid)):
        assert list(visibility_sweep(same, 100, seed=3)) == list(expected)


@pytest.mark.parametrize("shots", [0, 100])
@pytest.mark.parametrize("bad", [-1, True, 2.5, "7", 2**64, None, np.random.SeedSequence(1)])
def test_sweep_rejects_bad_seeds(bad, shots):
    # checked before any work, so an exact-only sweep rejects it too; the
    # point estimators check it before the shots, so shots 0 reaches it too
    rule = f"seed must be an integer in [0, 2**64 - 1], got {bad!r}"
    for estimate in (
        lambda: visibility_sweep([0.5, 0.9], shots, bad),
        lambda: estimate_rows(shots, 0.9, bad),
        lambda: estimate_mermin(shots, 0.9, bad),
        lambda: estimate_pair(1, 4, 0.9, shots, bad),
    ):
        with pytest.raises(ValueError, match=re.escape(rule)):
            estimate()


@pytest.mark.parametrize("n", [0, 1, 21, 1000])
@pytest.mark.parametrize("seed", [0, 1, 12345, 2**32 - 1, 2**32, 2**64 - 1])
def test_child_states_equal_numpy_spawn(seed, n):
    # reference: numpy's own seeding path, PCG64(SeedSequence(seed)) with no
    # spawned child, drawing each point's nine rows in grid order; the seeds
    # cover one and two entropy words and the 64-bit top
    grid = np.linspace(0.0, 1.0, n).tolist()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    expected = [sampled_mermin(gen, 100, v) for v in grid]
    table = visibility_sweep(grid, 100, seed)
    # hex, not ==, so a -0.0 for a 0.0 fails
    hexed = [(estimate.hex(), std_error.hex()) for estimate, std_error in expected]
    assert [(p.estimate.hex(), p.std_error.hex()) for p in table] == hexed


@pytest.mark.parametrize("shots", [2**25, 2**26, 10**12, MAX_SHOTS])
def test_wide_sweep_draws_its_points_in_grid_order_on_one_generator(shots):
    # the counts are drawn in one call on the sweep's one generator: a repeated
    # visibility draws new counts; above 2**25 shots the float sums round, so a
    # sum in another order (numpy's pairwise sum) changes last bits of 1000 points
    grid = [0.9, 0.9, 7 / 9, 0.0, 1.0] + np.linspace(0.0, 1.0, 1000).tolist()
    gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(12345)))
    hexed = [(e.hex(), s.hex()) for e, s in (sampled_mermin(gen, shots, v) for v in grid)]
    table = visibility_sweep(grid, shots, 12345)
    assert [(p.estimate.hex(), p.std_error.hex()) for p in table] == hexed
    assert table[0].estimate != table[1].estimate


@pytest.mark.parametrize("shots", [2**40, MAX_SHOTS])
def test_wide_sweep_memory_does_not_grow_with_shots(shots):
    # one float64 rule at every shot count: a 20 000-point sweep's traced peak
    # stays within 1.25x of the same sweep's at 100 shots
    grid = np.linspace(0.0, 1.0, 20_000).tolist()
    visibility_sweep([0.5], 2)  # build the per-process caches outside the trace

    def traced_peak(n):
        tracemalloc.start()
        try:
            visibility_sweep(grid, n, 7)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert traced_peak(shots) <= 1.25 * traced_peak(100)


@pytest.mark.parametrize("shots", [0, 100, 2**25])
def test_sweep_table_array_is_read_only(shots):
    # exact-only and sampled sweeps both write the table in place first
    table = visibility_sweep([0.0, 7 / 9, 1.0], shots, 3)
    assert not table.columns.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.columns[0, 2] = 1.0


def test_estimator_consistency_over_seeds():
    # |estimate - exact| <= 4 * reported SE in at least 99 of 100 repetitions
    # (equality matters at V=1 where both sides are exactly zero)
    shots = 100_000
    for visibility in (0.0, 0.5, 1.0):
        exact = exact_expectation("O", noisy_state(visibility))
        hits = 0
        for seed in range(100):
            est = estimate_mermin(shots, visibility, seed=seed)
            if abs(est.estimate - exact) <= 4.0 * est.std_error:
                hits += 1
        assert hits >= 99, f"visibility {visibility}: only {hits}/100 within 4 SE"
