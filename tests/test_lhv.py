import dataclasses
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperbell import cli, lhv
from hyperbell.lhv import (
    APPARATUSES,
    CONSTRAINTS,
    ELEMENTS,
    LHV_BOUND,
    QUANTUM_VALUE,
    ROW_APPARATUS_PAIRS,
    LhvConstraint,
    contradiction_certificate,
    coset_bound,
    coset_weights,
    parity_argument,
    parity_vector,
)
from hyperbell.experiment import noisy_state
from hyperbell.observables import CONSTRAINT_ROWS
from hyperbell.optics import build_apparatus, pattern_distribution

from reference import (
    LhvAssignment,
    check,
    constraint_product,
    enumerate_assignments,
    mermin_value,
)

# Independent transcription of the nine predictions, used as the test-side
# oracle so the library tables are checked against a second copy.
ORACLE_CONSTRAINTS = [
    (("z1", "z2"), -1),
    (("z1'", "z2'"), -1),
    (("x1", "x2"), -1),
    (("x1'", "x2'"), -1),
    (("z1z1'", "z2", "z2'"), +1),
    (("x1x1'", "x2", "x2'"), +1),
    (("z1", "x1'", "z2x2'"), +1),
    (("x1", "z1'", "x2z2'"), +1),
    (("z1z1'", "x1x1'", "z2x2'", "x2z2'"), -1),
]

# The (photon-1, photon-2) apparatus pair that reads each row, as transcribed
# from the paper's measurement scheme.
ORACLE_ROW_APPARATUS_PAIRS = {
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


def oracle_scan():
    """Plain-loop exhaustive scan over all 4096 assignments."""
    best_count, best_value, worst_value, full = 0, -99, 99, 0
    for bits in itertools.product((1, -1), repeat=12):
        values = dict(zip(ELEMENTS, bits))
        count = 0
        total = 0
        for variables, required in ORACLE_CONSTRAINTS:
            product = 1
            for name in variables:
                product *= values[name]
            if product == required:
                count += 1
            total += required * product
        best_count = max(best_count, count)
        best_value = max(best_value, total)
        worst_value = min(worst_value, total)
        if count == 9:
            full += 1
    return best_count, best_value, worst_value, full


def test_each_row_group_falls_in_exactly_one_apparatus():
    # a row's elements on each photon are read together by exactly one of the
    # six built apparatuses, the one ROW_APPARATUS_PAIRS names
    assert len(CONSTRAINTS) == len(CONSTRAINT_ROWS) == 9
    specs = [build_apparatus(i) for i in range(1, 7)]
    for constraint in CONSTRAINTS:
        readers = []
        for photon in (1, 2):
            group = {name for name in constraint.variables if name[1] == str(photon)}
            matches = [spec.id for spec in specs if group <= set(spec.value_names)]
            assert len(matches) == 1, (constraint.id, photon, matches)
            assert build_apparatus(matches[0]).photon == photon
            readers.append(matches[0])
        assert tuple(readers) == ROW_APPARATUS_PAIRS[constraint.id]


def test_row_apparatus_pairs_match_the_oracle():
    assert ROW_APPARATUS_PAIRS == ORACLE_ROW_APPARATUS_PAIRS
    for constraint, (variables, required) in zip(CONSTRAINTS, ORACLE_CONSTRAINTS):
        assert constraint.variables == variables
        assert constraint.required_product == required


def test_twelve_elements_with_independent_compounds():
    assert len(ELEMENTS) == 12
    compounds = [name for name in ELEMENTS if len(name) > 3]
    assert sorted(compounds) == ["x1x1'", "x2z2'", "z1z1'", "z2x2'"]


def test_assignment_validation():
    with pytest.raises(ValueError):
        LhvAssignment((1,) * 11)
    with pytest.raises(ValueError):
        LhvAssignment((1,) * 11 + (0,))
    # a value is accepted exactly when `v in (-1, 1)` holds (equality, not
    # hashing): an unhashable value is a ValueError too, never a TypeError
    probes = (1, -1, True, 1.0, 0, 2, -2, None, "1", 1.5, math.nan, [1])
    old_rule = [probe in (-1, 1) for probe in probes]
    assert old_rule == [True] * 4 + [False] * 8
    for probe, accepted in zip(probes, old_rule):
        for at in (0, 6, 11):
            values = (1,) * at + (probe,) + (1,) * (11 - at)
            if accepted:
                assert LhvAssignment(values).values == values
            else:
                with pytest.raises(ValueError, match=r"^assignment values must be \+1 or -1$"):
                    LhvAssignment(values)
    for length in (11, 13):
        with pytest.raises(ValueError, match=rf"^expected 12 values, got {length}$"):
            LhvAssignment((1,) * length)


def test_enumeration_count_order_distinct():
    assignments = list(enumerate_assignments())
    assert len(assignments) == 4096
    assert assignments[0].values == (1,) * 12
    assert len({a.values for a in assignments}) == 4096


def test_all_plus_one_assignment():
    # every product is +1, so exactly the four rows requiring +1 are satisfied
    flags, count = check(LhvAssignment((1,) * 12))
    assert flags == (False, False, False, False, True, True, True, True, False)
    assert count == 4
    assert mermin_value(LhvAssignment((1,) * 12)) == -1


def test_flipping_bob_singles_reaches_the_maximum():
    # flip v(z2), v(z2'), v(x2), v(x2') to -1: rows 1-8 satisfied, row 9 not
    flipped = ("z2", "z2'", "x2", "x2'")
    flags, count = check(LhvAssignment(tuple(-1 if n in flipped else 1 for n in ELEMENTS)))
    assert flags == (True, True, True, True, True, True, True, True, False)
    assert count == 8


def test_no_assignment_satisfies_all_nine():
    best_count, best_value, worst_value, full_satisfiers = oracle_scan()
    assert full_satisfiers == 0
    assert best_count == 8
    assert best_value == LHV_BOUND == 7
    assert worst_value == -9
    assert QUANTUM_VALUE == 9


def test_check_flags_match_the_oracle_rows_over_all_assignments():
    # check multiplies the library's rows through constraint_product; the oracle
    # multiplies its own transcription of the rows by name
    for assignment in enumerate_assignments():
        values = dict(zip(ELEMENTS, assignment.values))
        flags = tuple(math.prod(values[n] for n in v) == s for v, s in ORACLE_CONSTRAINTS)
        assert check(assignment) == (flags, flags.count(True))


def test_value_count_relation_over_all_assignments():
    # mermin_value = 2 * satisfied_count - 9 for every assignment, and the
    # value is an odd integer in [-9, 9]
    for assignment in enumerate_assignments():
        _, count = check(assignment)
        value = mermin_value(assignment)
        assert value == 2 * count - 9
        assert value % 2 == 1 or value % 2 == -1
        assert -9 <= value <= 9


def test_certificate_matches_oracle():
    certificate = contradiction_certificate()
    best_count, best_value, worst_value, _ = oracle_scan()
    assert certificate.satisfied_max == best_count == 8
    assert certificate.mermin_max == best_value == 7
    assert certificate.mermin_min == worst_value == -9
    assert certificate.parity_product == +1
    # the witness really achieves the reported count, by the reference's row products
    _, witness_count = check(list(enumerate_assignments())[certificate.witness])
    assert witness_count == certificate.satisfied_max


#: Assignments per satisfied count of the paper's table, bucket 9 - k holding 16 C(9, k).
HISTOGRAM = (16, 0, 576, 0, 2016, 0, 1344, 0, 144, 0)


def test_satisfied_histogram_is_the_closed_form():
    # every assignment violates the rows Ax + b, a word of the coset
    # b + col(A) that 2^(12 - rank A) assignments hit; y = 1...1 is the one
    # nonzero y with yA = 0 and y.b = 1, so the violated count k is always odd
    m = len(CONSTRAINTS)
    rank = m - len(lhv._left_null_space(CONSTRAINTS))
    assert rank == 8
    closed = [0] * (m + 1)
    for k in range(1, m + 1, 2):
        closed[m - k] = 2 ** (len(ELEMENTS) - rank) * math.comb(m, k)
    assert contradiction_certificate().satisfied_histogram == tuple(closed) == HISTOGRAM


def test_satisfied_histogram_equals_the_mermin_value_tally():
    tally = [0] * 10
    for assignment in enumerate_assignments():
        tally[(mermin_value(assignment) + 9) // 2] += 1
    assert contradiction_certificate().satisfied_histogram == tuple(tally)


def test_histogram_total_and_witness_in_enumeration_order():
    certificate = contradiction_certificate()
    assert sum(certificate.satisfied_histogram) == 4096
    assert certificate.to_dict()["assignments_scanned"] == 4096
    # the first assignment with 8 rows; a scan that keeps the last tie (>=) misses it
    first = next(i for i, a in enumerate(enumerate_assignments()) if mermin_value(a) == 7)
    assert first == 60
    assert certificate.witness == first


def test_mask_bits_are_the_enumeration_order_and_the_row_parities_are_check():
    # bit 11 - j of index i is set exactly when element j of the i-th assignment
    # is -1, and a row's mask parity plus its sign bit is even exactly when it holds
    for i, assignment in enumerate(enumerate_assignments()):
        assert [i >> 11 - j & 1 for j in range(12)] == [v == -1 for v in assignment.values]
        parities = [(i & mask).bit_count() + sign & 1 for mask, sign in lhv._ROW_MASKS]
        assert tuple(p == 0 for p in parities) == check(assignment)[0]


def test_witness_rows_from_masks_equal_the_reference_for_every_witness():
    # to_dict reads the witness's values and row products off its mask; for
    # each of the 4096 masks they must be the i-th reference assignment's
    certificate = contradiction_certificate()
    for i, assignment in enumerate(enumerate_assignments()):
        payload = dataclasses.replace(certificate, witness=i).to_dict()
        assert list(payload["witness"].items()) == list(assignment.as_dict().items())
        flags, _ = check(assignment)
        products = [constraint_product(assignment, c) for c in CONSTRAINTS]
        assert [row["witness_product"] for row in payload["rows"]] == products
        assert tuple(row["satisfied"] for row in payload["rows"]) == flags


def test_certificate_serialization():
    certificate = contradiction_certificate()
    payload = certificate.to_dict()
    assert payload["element_order"] == list(ELEMENTS)
    assert payload["assignments_scanned"] == 4096
    assert len(payload["rows"]) == 9
    assert sum(row["satisfied"] for row in payload["rows"]) == 8
    assert payload["parity_rows"] == list(certificate.parity_rows)
    text = "\n".join(cli.text_lhv(payload))
    assert "max satisfied" in text and "8 of 9" in text
    for name in ELEMENTS:
        assert f"v({name:<6})" in text


def _solves_parity(table, y):
    """yA = 0 (every element an even number of times in y's rows) and y.b = 1."""
    chosen = [(variables, sign) for (variables, sign), bit in zip(table, y) if bit]
    counts = {}
    for variables, _ in chosen:
        for name in variables:
            counts[name] = counts.get(name, 0) + 1
    signs = [sign for _, sign in chosen]
    return all(n % 2 == 0 for n in counts.values()) and signs.count(-1) % 2 == 1


def _constraints(table):
    return [LhvConstraint(i, variables, sign) for i, (variables, sign) in enumerate(table, 1)]


def test_parity_argument_structural():
    y = parity_argument()
    # all nine rows: every element appears twice, so the products multiply to
    # +1, while the required products multiply to -1
    assert y == (1,) * 9
    assert _solves_parity(ORACLE_CONSTRAINTS, y)
    # rows 1-8 force the four compounds of row 9 to multiply to +1
    certificate = contradiction_certificate()
    assert certificate.parity_rows == tuple(range(1, 10))
    assert certificate.parity_product == +1
    assert CONSTRAINTS[8].required_product == -1


# Peres-Mermin square (Peres, PLA 151, 107, 1990): nine two-qubit Paulis,
# three rows multiplying to +I and three columns to +I, +I and -I.
PERES_MERMIN = [
    (("XI", "IX", "XX"), +1),
    (("IZ", "ZI", "ZZ"), +1),
    (("XZ", "ZX", "YY"), +1),
    (("XI", "IZ", "XZ"), +1),
    (("IX", "ZI", "ZX"), +1),
    (("XX", "ZZ", "YY"), -1),
]

# GHZ-Mermin (Mermin, PRL 65, 3373, 1990): on (|000> + |111>)/sqrt2,
# XXX = +1 and XYY = YXY = YYX = -1.
GHZ_MERMIN = [
    (("x1", "x2", "x3"), +1),
    (("x1", "y2", "y3"), -1),
    (("y1", "x2", "y3"), -1),
    (("y1", "y2", "x3"), -1),
]

# The paper's rows between a consistent row before and a repeat of row 1 after:
# two independent y with yA = 0, so the left null space has four elements.
REDUNDANT = [(("z1",), +1)] + ORACLE_CONSTRAINTS + [ORACLE_CONSTRAINTS[0]]


@pytest.mark.parametrize("table", [PERES_MERMIN, GHZ_MERMIN], ids=["peres-mermin", "ghz-mermin"])
def test_gf2_parity_proof_of_other_tables(table):
    y = parity_vector(_constraints(table))
    assert y == (1,) * len(table)
    assert _solves_parity(table, y)


def _flipped(row):
    table = list(ORACLE_CONSTRAINTS)
    variables, sign = table[row]
    table[row] = (variables, -sign)
    return table


def _names(table):
    return sorted({name for variables, _ in table for name in variables})


def _brute_force_counts(table):
    """Satisfied rows of every assignment of the table's sorted names, +1 before -1."""
    names, counts = _names(table), []
    for bits in itertools.product((1, -1), repeat=len(names)):
        values = dict(zip(names, bits))
        counts.append([math.prod(values[n] for n in v) == s for v, s in table].count(True))
    return counts


def _brute_force_histogram(table):
    """Assignments of the table's names per satisfied count, by trying every one."""
    counts = _brute_force_counts(table)
    return [counts.count(k) for k in range(len(table) + 1)]


def _fewest_violated_and_satisfied(table):
    """Brute force over every assignment of the table's names."""
    counts = [count for count, n in enumerate(_brute_force_histogram(table)) if n]
    return len(table) - max(counts), min(counts)


def _word_search_bound(table):
    """Fewest violated and satisfied rows as the distances from b and b + 1...1 to col(A).

    A search over all 2^m words e: the fewest bits of an e with y.e = y.b
    (y.b + y.1...1) for every y of the left null space's basis.
    """
    basis = lhv._left_null_space(_constraints(table))
    return tuple(
        min(e.bit_count() for e in range(1 << len(table)) if all(
            (y & e).bit_count() % 2 == (sign + flip * y.bit_count()) % 2 for y, sign in basis))
        for flip in (0, 1)
    )


def _macwilliams_histogram(table):
    """Assignments per satisfied count from ``coset_weights``, the coset's weight enumerator.

    2^(n - rank A) assignments hit each word of weight k, and each satisfies m - k rows.
    """
    m, weights = len(table), coset_weights(_constraints(table))
    names = {name for variables, _ in table for name in variables}
    rank = m - len(lhv._left_null_space(_constraints(table)))
    return [2 ** (len(names) - rank) * weights[m - count] for count in range(m + 1)]


@pytest.mark.parametrize(
    "table, expected",
    [(ORACLE_CONSTRAINTS, (1, 0)), (PERES_MERMIN, (1, 1)), (GHZ_MERMIN, (1, 1))]
    + [(REDUNDANT, (1, 0))] + [(_flipped(row), None) for row in range(9)],
    ids=["paper", "peres-mermin", "ghz-mermin", "redundant"]
    + [f"row-{row + 1}-flipped" for row in range(9)],
)
def test_coset_bound_equals_brute_force(table, expected):
    # fewest violated rows: distance from b to the column space of A;
    # fewest satisfied rows: distance from b + 1...1
    bound = coset_bound(_constraints(table))
    assert bound == _fewest_violated_and_satisfied(table) == _word_search_bound(table)
    if expected is not None:
        assert bound == expected
    else:
        assert bound[0] == 0  # a flipped sign makes the table satisfiable


@pytest.mark.parametrize(
    "table",
    [ORACLE_CONSTRAINTS, PERES_MERMIN, GHZ_MERMIN, REDUNDANT] + [_flipped(row) for row in range(9)],
    ids=["paper", "peres-mermin", "ghz-mermin", "redundant"]
    + [f"row-{row + 1}-flipped" for row in range(9)],
)
def test_macwilliams_histogram_equals_brute_force(table):
    assert _macwilliams_histogram(table) == _brute_force_histogram(table)


def _row_masks(table):
    """Each row as (mask, sign bit), the first of the sorted names the highest bit."""
    bit = {name: 1 << j for j, name in enumerate(reversed(_names(table)))}
    return [(sum(bit[n] for n in v), int(s == -1)) for v, s in table]


@pytest.mark.parametrize(
    "table",
    [PERES_MERMIN, GHZ_MERMIN, REDUNDANT] + [_flipped(row) for row in range(9)],
    ids=["peres-mermin", "ghz-mermin", "redundant"]
    + [f"row-{row + 1}-flipped" for row in range(9)],
)
def test_mask_scan_equals_brute_force_and_macwilliams(table):
    # the certificate's scan on other tables: its histogram by brute force and
    # by the coset's weight enumerator, and its witness the first maximal assignment
    histogram, best = lhv._scan(_row_masks(table), len(_names(table)))
    assert histogram == _brute_force_histogram(table) == _macwilliams_histogram(table)
    counts = _brute_force_counts(table)
    assert best == counts.index(max(counts))


def test_lhv_bound_comes_from_the_coset_bound():
    # every assignment violates an odd number of rows: C(9, k) coset words of odd weight k
    assert coset_weights(CONSTRAINTS) == [math.comb(9, k) * (k % 2) for k in range(10)]
    assert (lhv.FEWEST_VIOLATED, lhv.FEWEST_SATISFIED) == coset_bound(CONSTRAINTS) == (1, 0)
    assert type(LHV_BOUND) is int and LHV_BOUND == QUANTUM_VALUE - 2 == 7


@pytest.mark.parametrize("row", range(9))
def test_gf2_parity_proof_fails_with_one_sign_flipped(row):
    # all nine rows are the only y with yA = 0, and a flipped sign makes y.b = 0:
    # the flipped table has a local-realistic model, which the scan confirms
    table = _flipped(row)
    assert parity_vector(_constraints(table)) is None
    satisfiable = any(
        all(math.prod(dict(zip(ELEMENTS, bits))[n] for n in v) == s for v, s in table)
        for bits in itertools.product((1, -1), repeat=12)
    )
    assert satisfiable


def test_gf2_parity_proof_finds_y_among_redundant_rows():
    # a consistent row before and a repeated row after: y is still found, and
    # it is a genuine solution, not the repeat (which pairs to yA = 0, y.b = 0)
    y = parity_vector(_constraints(REDUNDANT))
    assert y is not None and _solves_parity(REDUNDANT, y)
    assert parity_vector(_constraints([(("a", "b"), -1), (("a", "b"), -1)])) is None


def test_no_two_variables_share_identical_row_membership():
    # the sign-flip symmetries therefore involve larger variable sets
    membership = {
        name: frozenset(c.id for c in CONSTRAINTS if name in c.variables)
        for name in ELEMENTS
    }
    values = list(membership.values())
    assert len(set(values)) == len(values)


def _even_overlap_masks():
    """All variable subsets meeting every constraint in an even number."""
    masks = []
    for bits in range(4096):
        subset = {ELEMENTS[i] for i in range(12) if bits >> i & 1}
        if all(len(subset & set(c.variables)) % 2 == 0 for c in CONSTRAINTS):
            masks.append(bits)
    return masks


def test_sign_flip_symmetry_orbits():
    # flipping any even-overlap variable set leaves every row product
    # unchanged, hence the whole satisfaction pattern
    masks = _even_overlap_masks()
    assert 0 in masks
    assert len(masks) >= 8  # at least 2^(12 - 9) solutions of the parity system
    # closure under symmetric difference (the masks form a group)
    mask_set = set(masks)
    for a in masks:
        for b in masks:
            assert a ^ b in mask_set

    probes = [LhvAssignment((1,) * 12)]
    for values in itertools.islice(enumerate_assignments(), 0, 4096, 377):
        probes.append(values)
    for assignment in probes:
        base = [constraint_product(assignment, c) for c in CONSTRAINTS]
        for bits in masks:
            flipped = LhvAssignment(
                tuple(
                    -v if bits >> i & 1 else v
                    for i, v in enumerate(assignment.values)
                )
            )
            assert [constraint_product(flipped, c) for c in CONSTRAINTS] == base


def test_readme_apparatus_table_matches_the_library_table():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| (\d+) +\| (.+?) +\| (.+?) +\|$", readme, flags=re.M)
    documented = {int(id_): (read, realization) for id_, read, realization in rows}
    expected = {
        id_: (
            f"`{a}`, `{b}`, `{a}*{b}`",
            ", ".join(chain),
        )
        for id_, ((a, b), chain) in APPARATUSES.items()
    }
    assert documented == expected


def test_lhv_runs_without_numpy():
    # the table, the scan and the parity proof are stdlib only, and so is the package import
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import hyperbell\n"
        "import hyperbell.lhv\n"
        "assert hyperbell.lhv.contradiction_certificate().satisfied_max == 8\n"
        "assert hyperbell.lhv.LHV_BOUND == 7\n"
        "assert sys.modules['numpy'] is None\n"
    )
    env = os.environ.copy()
    root = str(Path(lhv.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr


def _strategy_pattern_counts(masks) -> list[list[int]]:
    """Per row, how many of ``masks`` fire each detector pattern 4*d1 + d2 of its pair.

    A mask is a deterministic local strategy: each apparatus fires the
    detector whose map carries its two elements' values (bit 11 - j set when
    element j is -1).
    """
    def detector(apparatus, x):
        spec = build_apparatus(apparatus)
        names = spec.observable_a, spec.observable_b
        values = tuple(-1 if x >> 11 - ELEMENTS.index(n) & 1 else 1 for n in names)
        return spec.detector_map.index(values)

    tables = []
    for constraint in CONSTRAINTS:
        a1, a2 = ROW_APPARATUS_PAIRS[constraint.id]
        counts = [0] * 16
        for x in masks:
            counts[4 * detector(a1, x) + detector(a2, x)] += 1
        tables.append(counts)
    return tables


def test_a_local_model_gives_every_pairs_full_statistics_up_to_7_9():
    # the 144 masks that violate exactly one row, mixed uniformly, give each
    # row's pair its Born distribution at V = 7/9: 16 of 144 on a pattern
    # |Psi> fires with probability 1/8, 2 of 144 on one it never fires; all
    # 4096 masks give the uniform V = 0 data; so 9V/7 on the first and
    # 1 - 9V/7 on the second reproduce noisy_state(V) for every V <= 7/9
    one_violated = [
        x for x in range(4096)
        if sum((x & mask).bit_count() + sign & 1 for mask, sign in lhv._ROW_MASKS) == 1
    ]
    assert len(one_violated) == 144
    tables = _strategy_pattern_counts(one_violated)
    uniform = _strategy_pattern_counts(range(4096))
    assert {count for counts in uniform for count in counts} == {256}
    pairs = [ROW_APPARATUS_PAIRS[c.id] for c in CONSTRAINTS]

    def born(v):
        rho = noisy_state(v)
        return [
            pattern_distribution(build_apparatus(a1), build_apparatus(a2), rho).reshape(16).tolist()
            for a1, a2 in pairs
        ]

    for counts, psi in zip(tables, born(1.0), strict=True):
        assert sorted(set(psi)) == [0.0, 0.125]
        assert counts == [16 if p else 2 for p in psi]
    for v in (0.0, 0.3, 0.5, 0.7, 7 / 9):
        w = 9 * v / 7
        for counts, flat, probs in zip(tables, uniform, born(v), strict=True):
            model = [w * c / 144 + (1 - w) * u / 4096 for c, u in zip(counts, flat)]
            assert max(abs(m - p) for m, p in zip(model, probs)) < 1e-15
