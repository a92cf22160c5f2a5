"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import time
from contextlib import contextmanager

import numpy as np

from hyperbell import cli
from hyperbell.hilbert import StateVector, expectation
from hyperbell.lhv import (
    CONSTRAINTS,
    ELEMENTS,
    contradiction_certificate,
    parity_argument,
)
from hyperbell.observables import (
    bell_mermin_operator,
    build_bell_states,
    doubly_entangled_state,
    element_operator,
    verify_eigenequations,
)
from hyperbell.optics import (
    BELL_LABELS,
    bell_histogram,
    bell_probabilities,
    build_apparatus,
    pattern_distribution,
    readout_table,
)
from hyperbell.experiment import (
    DEFAULT_GRID,
    DEFAULT_SEED,
    ROW_APPARATUS_PAIRS,
    estimate_rows,
    estimate_mermin,
    exact_expectation,
    noisy_state,
    violation_flag,
    visibility_sweep,
)

from reference import check, enumerate_assignments, mermin_value, qudit_relabel

PSI = doubly_entangled_state()

#: Commutation tolerance for the two elements one apparatus reads.
COMMUTATOR_ATOL = 1e-13


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\ncriterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"\ncriterion {number}: PASS - {description} ({elapsed:.2f}s)")


def test_criterion_1_eigenequation_suite():
    with criterion(1, "nine eigenequations hold with residual < 1e-12"):
        start = time.perf_counter()
        checks = verify_eigenequations()
        elapsed = time.perf_counter() - start
        assert [c.eigenvalue for c in checks] == [-1, -1, -1, -1, 1, 1, 1, 1, -1]
        for c in checks:
            assert c.residual < 1e-12, f"row {c.id}: residual {c.residual}"
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_2_mermin_eigenvalue():
    with criterion(2, "Bell-Mermin value 9 as expectation and vector identity"):
        start = time.perf_counter()
        operator = bell_mermin_operator().realization
        assert abs(expectation(operator, PSI) - 9.0) < 1e-12
        image = operator.matrix @ PSI.amps
        assert np.abs(image - 9.0 * PSI.amps).max() < 1e-12
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_3_lhv_brute_force():
    with criterion(3, "exhaustive scan: 0 satisfy all 9, max 8, LHV bound 7"):
        start = time.perf_counter()
        full_satisfiers = 0
        max_satisfied = 0
        max_value = -9
        assignments = list(enumerate_assignments())
        for assignment in assignments:
            _, count = check(assignment)
            if count == 9:
                full_satisfiers += 1
            max_satisfied = max(max_satisfied, count)
            max_value = max(max_value, mermin_value(assignment))
        certificate = contradiction_certificate()
        elapsed = time.perf_counter() - start
        assert full_satisfiers == 0
        assert max_satisfied == 8
        assert max_value == 7
        assert certificate.satisfied_max == 8
        assert certificate.mermin_max == 7
        # the reported witness mask indexes an assignment that attains the maximum
        _, witness_count = check(assignments[certificate.witness])
        assert witness_count == 8
        assert elapsed < 1.0, f"runtime {elapsed:.3f}s exceeds 1s"


def test_criterion_4_parity_certificate():
    with criterion(4, "GF(2) parity proof: y with yA = 0 and y.b = 1 (+1 forced vs -1 required)"):
        y = parity_argument()
        assert y == (1,) * 9
        chosen = [c for c, bit in zip(CONSTRAINTS, y) if bit]
        # yA = 0: every element appears in an even number of y's rows
        for name in ELEMENTS:
            assert sum(name in c.variables for c in chosen) % 2 == 0
        # y.b = 1: an odd number of y's rows require -1
        assert sum(c.required_product == -1 for c in chosen) % 2 == 1
        # rows 1-8 of y force +1 on the compounds that row 9 requires to be -1
        assert set(CONSTRAINTS[8].variables) == {
            name for name in ELEMENTS
            if sum(name in c.variables for c in chosen[:-1]) % 2 == 1
        }
        assert contradiction_certificate().parity_product == +1
        assert chosen[-1].required_product == -1


def test_criterion_5_visibility_threshold():
    with criterion(5, "exact value 9V; violation begins at V = 7/9; CSV crossing"):
        start = time.perf_counter()
        # tracelessness underwrites the linear law
        assert abs(np.trace(bell_mermin_operator().realization.matrix)) < 1e-12
        for v in DEFAULT_GRID:
            exact = exact_expectation("O", noisy_state(v))
            assert abs(exact - 9.0 * v) < 1e-12
        threshold = exact_expectation("O", noisy_state(7.0 / 9.0))
        assert abs(threshold - 7.0) < 1e-12
        assert violation_flag(threshold) == "boundary"
        points = visibility_sweep(DEFAULT_GRID, shots_per_setting=0)
        table = cli.csv_sweep({"rows": cli.sweep_rows(points)})
        flags = {line.split(",")[0]: line.split(",")[5] for line in table[1:]}
        assert flags["0.77"] == "no"
        assert flags["0.78"] == "yes"
        exact_elapsed = time.perf_counter() - start
        assert exact_elapsed < 1.0, f"exact runtime {exact_elapsed:.3f}s exceeds 1s"

        sampled_start = time.perf_counter()
        sampled = visibility_sweep(DEFAULT_GRID, shots_per_setting=100_000,
                                   seed=DEFAULT_SEED)
        sampled_elapsed = time.perf_counter() - sampled_start
        for point in sampled:
            assert abs(point.estimate - point.exact) < 0.1
        assert sampled_elapsed < 60.0, f"sampled runtime {sampled_elapsed:.1f}s"


def test_criterion_6_apparatus_soundness():
    with criterion(6, "six apparatuses: orthonormal bases, commuting pairs, labels"):
        for apparatus_id in range(1, 7):
            spec = build_apparatus(apparatus_id)
            gram = spec.basis @ spec.basis.conj().T
            assert np.abs(gram - np.eye(4)).max() < 1e-12
            op_a = element_operator(spec.observable_a)
            op_b = element_operator(spec.observable_b)
            product = op_a.matrix @ op_b.matrix
            assert np.abs(product - op_b.matrix @ op_a.matrix).max() < COMMUTATOR_ATOL
            for d in range(4):
                vec = spec.basis[d]
                va, vb = spec.detector_map[d]
                assert np.abs(op_a.matrix @ vec - va * vec).max() < 1e-12
                assert np.abs(op_b.matrix @ vec - vb * vec).max() < 1e-12
                assert np.abs(product @ vec - va * vb * vec).max() < 1e-12


def test_criterion_7_sampling_consistency():
    with criterion(7, "1e6-shot row correlations within 5e-3; count tables consistent"):
        start = time.perf_counter()
        shots = 1_000_000
        rng = np.random.default_rng(DEFAULT_SEED)
        for visibility in (1.0, 0.9):
            density = noisy_state(visibility)
            for constraint in CONSTRAINTS:
                a1, a2 = map(build_apparatus, ROW_APPARATUS_PAIRS[constraint.id])
                counts = rng.multinomial(shots, pattern_distribution(a1, a2, density).ravel())
                assert counts.sum() == shots and (counts >= 0).all()
                # the row's value on each pattern, multiplied out from the
                # detector maps of both sides
                table = readout_table(a1, a2)
                values = np.prod([table[name] for name in constraint.variables], axis=0)
                n_plus = int(counts[values > 0].sum())
                mean = (2 * n_plus - shots) / shots
                exact = exact_expectation(constraint.id, density)
                assert abs(exact - visibility * constraint.required_product) < 1e-12
                assert abs(mean - exact) < 5e-3, (
                    f"V={visibility} row {constraint.id}: sampled {mean} vs {exact}"
                )
        # a fixed seed fixes every estimate; at V = 1 every row mean is exact
        # whatever the draws, so reproducibility is asserted under noise
        first = estimate_rows(shots, 0.9, seed=DEFAULT_SEED)
        assert first == estimate_rows(shots, 0.9, seed=DEFAULT_SEED)
        assert first != estimate_rows(shots, 0.9, seed=DEFAULT_SEED + 1)
        total = estimate_mermin(shots, 0.9, seed=DEFAULT_SEED)
        assert total.estimate == sum(
            c.required_product * est.estimate for c, est in zip(CONSTRAINTS, first)
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_8_bell_discrimination():
    with criterion(8, "four Bell states map to their own label, exactly and sampled"):
        states = build_bell_states("pol-path")
        rng = np.random.default_rng(DEFAULT_SEED)
        for label in BELL_LABELS:
            probs = bell_probabilities(states[label])
            assert abs(probs[label] - 1.0) < 1e-12
            for other in BELL_LABELS:
                if other != label:
                    assert probs[other] < 1e-12
            counts = bell_histogram(states[label], 10_000, rng)
            assert counts[label] == 10_000
            assert sum(counts[other] for other in BELL_LABELS if other != label) == 0


def test_criterion_9_qudit_relabeling():
    with criterion(9, "qudit relabeling of the state is exact"):
        grid = qudit_relabel(PSI)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 0.5
        expected[1, 2] = -0.5
        expected[2, 1] = -0.5
        expected[3, 0] = 0.5
        assert np.array_equal(grid, expected)
        # sanity on a product ket as well
        assert qudit_relabel(StateVector(np.eye(16)[0]))[0, 0] == 1.0
