"""Rerun the mutation audit: each mutant must be killed by the tests named for it.

Each entry of ``MUTANTS`` is (file, exact old text, new text, test ids that
must fail).  The script copies the repository to a temporary directory, runs
every named test there once unmutated (each must pass), then applies one
mutant at a time, runs only that mutant's tests, and restores the file.  A
mutant is killed when pytest reports failures or errors and none of its named
tests passes; it survives otherwise.  Stdlib only, apart from pytest itself.

    python3 tools/mutants.py

Prints one line per mutant, with one of four statuses:

- ``killed``;
- ``collection error``: the mutant broke the import of a named test's
  module, the other named tests ran, and none of them passed;
- ``SURVIVED``: a named test passed;
- ``ERROR``: its old text is not found exactly once, or no named test ran.

pytest runs nothing when a named test's module fails to import, so the named
tests of the other modules are then run on their own.  Exit 0 when no mutant
survives or ends in ``ERROR``, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LHV = "src/hyperbell/lhv.py"
INPUTS = "src/hyperbell/inputs.py"
EXPERIMENT = "src/hyperbell/experiment.py"
OPTICS = "src/hyperbell/optics.py"
HILBERT = "src/hyperbell/hilbert.py"
OBSERVABLES = "src/hyperbell/observables.py"
T = "tests/test_lhv.py::"
E = "tests/test_experiment.py::"
P = "tests/test_properties.py::"
C = "tests/test_cli.py::"
O = "tests/test_optics.py::"
G = "tests/test_golden.py::test_stdout_bytes_match_golden"
A = "tests/test_acceptance.py::"
B = "tests/test_observables.py::"

MUTANTS: tuple[tuple[str, str, str, tuple[str, ...]], ...] = (
    (
        LHV,
        "if count > best_count:",
        "if count >= best_count:",
        (
            T + "test_histogram_total_and_witness_in_enumeration_order",
            T + "test_mask_scan_equals_brute_force_and_macwilliams[peres-mermin]",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        "(x & mask).bit_count() + sign & 1 for mask, sign in row_masks",
        "(x & mask).bit_count() & 1 for mask, sign in row_masks",
        (
            T + "test_satisfied_histogram_is_the_closed_form",
            T + "test_certificate_matches_oracle",
            T + "test_mask_scan_equals_brute_force_and_macwilliams[ghz-mermin]",
        ),
    ),
    (
        LHV,
        "1 << 11 - ELEMENTS.index(n)",
        "1 << ELEMENTS.index(n)",
        (
            T + "test_mask_bits_are_the_enumeration_order_and_the_row_parities_are_check",
            T + "test_witness_rows_from_masks_equal_the_reference_for_every_witness",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        "int(c.required_product == -1)",
        "int(c.required_product == 1)",
        (
            T + "test_satisfied_histogram_is_the_closed_form",
            T + "test_mask_bits_are_the_enumeration_order_and_the_row_parities_are_check",
            T + "test_a_local_model_gives_every_pairs_full_statistics_up_to_7_9",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        "-1 if x >> 11 - j & 1 else 1",
        "-1 if x >> j & 1 else 1",
        (
            T + "test_witness_rows_from_masks_equal_the_reference_for_every_witness",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        "-1 if (x & mask).bit_count() & 1 else 1",
        "1 if (x & mask).bit_count() & 1 else -1",
        (
            T + "test_witness_rows_from_masks_equal_the_reference_for_every_witness",
            T + "test_certificate_serialization",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        "(-1) ** (b + j)",
        "(-1) ** j",
        (
            T + "test_lhv_bound_comes_from_the_coset_bound",
            T + "test_macwilliams_histogram_equals_brute_force[paper]",
            T + "test_coset_bound_equals_brute_force[peres-mermin]",
        ),
    ),
    (
        LHV,
        "len(constraints) - present[-1]",
        "len(constraints) - present[-2]",
        (
            T + "test_lhv_bound_comes_from_the_coset_bound",
            T + "test_coset_bound_equals_brute_force[paper]",
            T + "test_coset_bound_equals_brute_force[ghz-mermin]",
        ),
    ),
    (
        LHV,
        "int(constraint.required_product == -1), 1 << i",
        "int(constraint.required_product == -1) ^ (i == 8), 1 << i",
        (
            T + "test_parity_argument_structural",
            T + "test_lhv_bound_comes_from_the_coset_bound",
            T + "test_coset_bound_equals_brute_force[paper]",
            A + "test_criterion_4_parity_certificate",
        ),
    ),
    (
        LHV,
        "mermin_max=2 * counts[-1]",
        "mermin_max=2 * counts[0]",
        (
            T + "test_certificate_matches_oracle",
            C + "test_lhv_json_roundtrip",
            G + "[lhv.json]",
            G + "[lhv.txt]",
        ),
    ),
    (
        LHV,
        "mermin_min=2 * counts[0]",
        "mermin_min=2 * counts[-1]",
        (
            T + "test_certificate_matches_oracle",
            C + "test_lhv_json_roundtrip",
            G + "[lhv.json]",
        ),
    ),
    (
        LHV,
        """LhvConstraint(9, ("z1z1'", "x1x1'", "z2x2'", "x2z2'"), -1)""",
        """LhvConstraint(9, ("z1z1'", "x1x1'", "z2x2'", "x2z2'"), +1)""",
        (
            T + "test_parity_argument_structural",
            T + "test_lhv_bound_comes_from_the_coset_bound",
            T + "test_no_assignment_satisfies_all_nine",
            A + "test_criterion_4_parity_certificate",
        ),
    ),
    (
        INPUTS,
        "if not isinstance(value, bool):",
        "if True:",
        (
            E + "test_samplers_reject_bad_shot_counts[bell_histogram-True]",
            E + "test_sweep_rejects_bad_seeds[True-0]",
            "tests/test_optics.py::test_build_apparatus_rejects_bad_id",
        ),
    ),
    (
        INPUTS,
        "if low <= number <= high:",
        "if low <= number < high:",
        (
            O + "test_apparatus_soundness[6]",
            C + "test_sweep_row_is_the_mermin_estimate_of_the_same_seed"
            "[0-100-18446744073709551615]",
            G + "[simulate_5_6_v0.9.txt]",
        ),
    ),
    (
        INPUTS,
        "return float(value) + 0.0",
        "return float(value)",
        (
            E + "test_visibility_takes_any_real_number_as_a_float",
            C + "test_negative_zero_visibility_prints_as_zero[argv0---visibility-json]",
            C + "test_negative_zero_visibility_prints_as_zero[argv2---grid-text]",
        ),
    ),
    (
        INPUTS,
        "if photons != (1, 2):",
        "if False:",
        (
            E + "test_estimate_pair_checks_the_sides_after_the_visibility[pair0]",
            O + "test_pair_side_validation",
            C + "test_simulate_rejects_mismatched_sides",
        ),
    ),
    (
        INPUTS,
        "APPARATUSES[i][0][0]) for i in pair",
        "APPARATUSES[pair[0]][0][0]) for i in pair",
        (
            E + "test_estimate_pair_quantities",
            C + "test_simulate_prints_every_row_at_its_pair[row1]",
            G + "[simulate_1_4.txt]",
        ),
    ),
    (
        INPUTS,
        "(str, bytes, bytearray)",
        "(bytes, bytearray)",
        (E + "test_sweep_rejects_a_grid_that_is_text_or_not_iterable['0.5']",),
    ),
    (
        EXPERIMENT,
        "np.add.accumulate(\n            np.multiply(plus, shots - plus, dtype=float), axis=1)[:, -1]",
        "np.multiply(plus, shots - plus, dtype=float).sum(axis=1)",
        (
            E + "test_wide_sweep_draws_its_points_in_grid_order_on_one_generator[1000000000000]",
            E + "test_wide_sweep_draws_its_points_in_grid_order_on_one_generator"
            "[9223372036854775807]",
        ),
    ),
    (
        EXPERIMENT,
        "np.multiply(plus, shots - plus, dtype=float)",
        "np.multiply(plus, shots - plus)",
        (
            E + "test_wide_sweep_draws_its_points_in_grid_order_on_one_generator[1000000000000]",
            E + "test_wide_sweep_draws_its_points_in_grid_order_on_one_generator"
            "[9223372036854775807]",
            C + "test_sweep_row_is_the_mermin_estimate_of_the_same_seed[0.8-1000000000000-5]",
        ),
    ),
    (
        EXPERIMENT,
        "np.add.accumulate(terms, axis=1)[:, -1]",
        "terms.sum(axis=1)",
        (
            E + "test_child_states_equal_numpy_spawn[12345-1000]",
            G + "[sweep.json]",
            G + "[sweep_scan_shots100_seed7.json]",
        ),
    ),
    (
        EXPERIMENT,
        "(name, values > 0)",
        "(name, values < 0)",
        (
            E + "test_estimate_pair_quantities",
            C + "test_simulate_anticorrelation",
            G + "[simulate_1_4.txt]",
        ),
    ),
    (
        EXPERIMENT,
        "psi = pattern_distribution(a1, a2, _psi_density()).ravel()",
        "psi = pattern_distribution(a1, a2, _psi_density()).T.ravel()",
        (
            C + "test_simulate_prints_every_row_at_its_pair[row6]",
            C + "test_simulate_prints_every_row_at_its_pair[row7]",
        ),
    ),
    (
        EXPERIMENT,
        "_pair_law(a1.id, a2.id)",
        "_pair_law(1, 4)",
        (
            E + "test_pair_counts_under_noise",
            E + "test_estimate_pair_checks_the_sides_after_the_visibility[pair0]",
            C + "test_simulate_prints_every_row_at_its_pair[row9]",
        ),
    ),
    (
        EXPERIMENT,
        "(1.0 - v) / 16.0 * np.eye(16)",
        "(1.0 - v) / 15.0 * np.eye(16)",
        (
            E + "test_noisy_state_structure",
            T + "test_a_local_model_gives_every_pairs_full_statistics_up_to_7_9",
            A + "test_criterion_7_sampling_consistency",
        ),
    ),
    (
        EXPERIMENT,
        "v * psi + (1.0 - v) / 16.0",
        "v * psi + (1.0 - v) / 15.0",
        (
            G + "[simulate_1_4_v0.5.txt]",
            G + "[simulate_1_4_v0.9.txt]",
            G + "[simulate_5_6_v0.9.txt]",
        ),
    ),
    (
        EXPERIMENT,
        "v * psi + (1.0 - v) / 16.0",
        "psi",
        (
            G + "[simulate_1_4_v0.5.txt]",
            C + "test_simulate_zero_visibility_kills_correlations",
            E + "test_pair_counts_under_noise",
        ),
    ),
    (
        EXPERIMENT,
        ".binomial(shots, _plus_table(v))",
        ".binomial(shots, _plus_table(v).T).T",
        (
            P + "test_batched_sweep_equals_points_one_at_a_time",
            E + "test_child_states_equal_numpy_spawn[12345-1000]",
            G + "[sweep_scan_shots100_seed7.json]",
        ),
    ),
    (
        EXPERIMENT,
        "total += sign * ((2.0 * f - shots) / shots)",
        "total += (2.0 * f - shots) / shots",
        (
            P + "test_mermin_value_adds_the_signed_row_means_left_to_right",
            E + "test_estimate_exact_at_full_visibility",
        ),
    ),
    (
        EXPERIMENT,
        "spread += f * (shots - n)",
        "spread += f * f",
        (
            P + "test_mermin_value_adds_the_signed_row_means_left_to_right",
            E + "test_estimates_flat_in_shot_count",
        ),
    ),
    (
        EXPERIMENT,
        "plus.append(n)",
        "plus.insert(0, n)",
        (
            P + "test_point_draws_each_row_once_in_row_order[0.9]",
            E + "test_estimate_rows_equals_sequential_pair_draws[12345-0.9-100]",
            E + "test_estimate_exact_at_full_visibility",
        ),
    ),
    (
        EXPERIMENT,
        "plus.append(n)",
        "pass",
        (
            P + "test_point_draws_each_row_once_in_row_order[0.0]",
            E + "test_estimate_rows_equals_sequential_pair_draws[7-0.5-2]",
            A + "test_criterion_7_sampling_consistency",
        ),
    ),
    (
        EXPERIMENT,
        "zip(_ROW_SIGNS, _row_tables()[0])",
        "zip(_ROW_SIGNS[::-1], _row_tables()[0][::-1])",
        (
            P + "test_point_draws_each_row_once_in_row_order[0.9]",
            E + "test_estimate_rows_equals_sequential_pair_draws[99-1.0-100]",
            C + "test_sweep_row_is_the_mermin_estimate_of_the_same_seed"
            "[0-100-18446744073709551615]",
        ),
    ),
    (
        EXPERIMENT,
        "w = 1.0 - v",
        "w = 1.0",
        (
            P + "test_point_draws_each_row_once_in_row_order[0.9]",
            E + "test_estimate_at_half_visibility_converges",
        ),
    ),
    (
        OPTICS,
        "np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]]",
        "np.eye(4, dtype=np.complex128)[[0, 1, 3, 3]]",
        (
            O + "test_pbs_port_convention",
            O + "test_every_element_is_unitary[PBS]",
            O + "test_apparatus_soundness[4]",
        ),
    ),
    (
        OPTICS,
        '_BELL_SIGNS = {(1, 1): "phi+", (1, -1): "phi-",',
        '_BELL_SIGNS = {(1, 1): "phi-", (1, -1): "phi+",',
        (
            A + "test_criterion_8_bell_discrimination",
            C + "test_bell_eigenstate_histogram",
            G + "[bell.txt]",
        ),
    ),
    (
        OPTICS,
        "    if np.abs(gram - np.eye(4)).max() >= ATOL:\n"
        '        raise AssertionError(f"apparatus {apparatus_id}: basis is not orthonormal")\n',
        "",
        (O + "test_a_chain_that_is_not_unitary_is_rejected",),
    ),
    (
        OPTICS,
        "(b1[:, None, :, None] * b2[None, :, None, :])",
        "(b2[:, None, :, None] * b1[None, :, None, :])",
        (
            P + "test_batched_rows_match_per_pair_distributions",
            E + "test_density_distribution_matches_pure_mixture[0.3]",
            T + "test_a_local_model_gives_every_pairs_full_statistics_up_to_7_9",
            C + "test_simulate_prints_every_row_at_its_pair[row6]",
            G + "[mermin.json]",
        ),
    ),
    (
        OPTICS,
        'f"{name1}*{name2}": table[name1] * table[name2]',
        'f"{name2}*{name1}": table[name1] * table[name2]',
        (
            E + "test_estimate_pair_quantities",
            C + "test_simulate_prints_every_row_at_its_pair[row1]",
            O + "test_readout_table_consistency",
            G + "[simulate_1_4_v0.9.txt]",
        ),
    ),
    (
        OBSERVABLES,
        "for name in names:",
        "for name in names[1:]:",
        (
            B + "test_element_operator_consistency",
            B + "test_eigenequations_all_nine",
            G + "[verify.txt]",
        ),
    ),
    (
        HILBERT,
        "        and np.linalg.eigvalsh(rho)[0] > -ATOL\n",
        "",
        (
            E + "test_density_must_be_a_state[exact_expectation-negative]",
            E + "test_density_must_be_a_state[pattern_distribution-negative]",
            E + "test_density_state_validation",
        ),
    ),
    (
        HILBERT,
        "np.abs(rho - rho.conj().T).max() < ATOL\n        and ",
        "",
        (
            E + "test_density_must_be_a_state[exact_expectation-non-hermitian]",
            E + "test_density_must_be_a_state[pattern_distribution-non-hermitian]",
        ),
    ),
    (
        HILBERT,
        "and abs(np.trace(rho) - 1.0) < 1e-9",
        "and abs(np.trace(rho) - 1.0) < 2",
        (
            E + "test_density_must_be_a_state[exact_expectation-trace-2]",
            E + "test_density_must_be_a_state[pattern_distribution-trace-2]",
        ),
    ),
    (
        INPUTS,
        "    if count == 1:\n",
        "    if False:\n",
        (
            E + "test_sweep_of_an_empty_grid_is_an_empty_table",
            C + "test_one_shot_rejected_where_a_standard_error_is_reported[args2]",
        ),
    ),
    (
        OPTICS,
        "va1 * vb1",
        "va1 * va1",
        (
            O + "test_readout_table_consistency",
            O + "test_perfect_anticorrelation_every_shot",
            C + "test_simulate_prints_every_row_at_its_pair[row7]",
            G + "[simulate_5_6_v0.9.txt]",
        ),
    ),
    (
        OPTICS,
        "va2 * vb2",
        "vb2 * vb2",
        (
            O + "test_readout_table_consistency",
            O + "test_perfect_anticorrelation_every_shot",
            C + "test_simulate_prints_every_row_at_its_pair[row5]",
            G + "[simulate_1_4.txt]",
        ),
    ),
    (
        OPTICS,
        "if len(set(detector_map)) != 4:",
        "if len(set(detector_map)) < 2:",
        (
            O + "test_detectors_that_do_not_resolve_both_elements_are_rejected",
            O + "test_dependent_pair_has_no_joint_eigenbasis",
        ),
    ),
    (
        OPTICS,
        "element_operator(name).matrix",
        "element_operator(name_a).matrix",
        (
            O + "test_apparatus_soundness[1]",
            O + "test_chain_detectors_are_the_joint_eigenvectors_of_their_signs[5]",
            A + "test_criterion_6_apparatus_soundness",
        ),
    ),
)


def run_tests(tree: Path, ids) -> tuple[int, set[str], set[str], str]:
    """(pytest exit code, ids passed, modules that failed to import, last line) for ``ids``."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(tree / "src"), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=600,
    )
    lines = result.stdout.strip().splitlines()
    passed = {line.split()[1] for line in lines if line.startswith("PASSED ")}
    # a collection error is reported against the module, with no "::" in its id
    broken = {line.split()[1] for line in lines
              if line.startswith("ERROR ") and "::" not in line.split()[1]}
    return result.returncode, passed, broken, lines[-1] if lines else result.stderr.strip()


def audit(tree: Path, tests) -> tuple[str, str]:
    """(status, detail) of the mutant applied in ``tree``, from its named ``tests``."""
    code, passed, broken, last = run_tests(tree, tests)
    status = "killed"
    if code == 4 and broken:
        tests = [test for test in tests if test.split("::")[0] not in broken]
        if not tests:
            return "ERROR", f"no named test ran: {sorted(broken)} failed to import"
        status = "collection error"
        code, passed, _, last = run_tests(tree, tests)
        last = f"{sorted(broken)} failed to import; {last}"
    if code in (1, 2) and not passed & set(tests):
        return status, last
    if code in (0, 1):
        return "SURVIVED", f"passed: {sorted(passed & set(tests))}"
    return "ERROR", f"pytest exit {code}: {last}"


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="hyperbell-mutants-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out"))
        every = sorted({test for *_, tests in MUTANTS for test in tests})
        code, passed, _, last = run_tests(tree, every)
        if code != 0 or passed != set(every):
            print(f"unmutated tree: the named tests do not all pass: {last}")
            return 1
        failures = 0
        for number, (name, old, new, tests) in enumerate(MUTANTS, 1):
            path = tree / name
            text = path.read_text(encoding="utf-8")
            if text.count(old) != 1:
                status, detail = "ERROR", f"{old!r} occurs {text.count(old)} times in {name}"
            else:
                path.write_text(text.replace(old, new), encoding="utf-8")
                try:
                    status, detail = audit(tree, tests)
                finally:
                    path.write_text(text, encoding="utf-8")
            failures += status in ("SURVIVED", "ERROR")
            print(f"{number}. {name}: {old!r} -> {new!r}: {status}: {detail}")
        print(f"{len(MUTANTS) - failures} of {len(MUTANTS)} mutants killed")
    return int(failures > 0)


if __name__ == "__main__":
    sys.exit(main())
