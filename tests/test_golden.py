"""Seeded stdout bytes of every command and format, against stored golden files.

The files in ``tests/golden/`` were written by the CLI itself; any change to
the sampler, the estimators or a renderer that alters a single byte of a
seeded run, on stdout or in its ``--output`` file, fails here.  A deliberate
output change rewrites the affected files and is logged in CHANGES.md.  Every
JSON golden also validates against its command's schema in ``schemas/``.
"""

import contextlib
import io
import json
from pathlib import Path

import jsonschema
import pytest

from hyperbell import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMAS = GOLDEN.parent.parent / "schemas"

#: File name -> argv.  Every command in every format at the default seed,
#: plus runs that sample non-deterministic outcomes (V < 1, a random input).
CASES = {
    "verify.txt": ["verify"],
    "verify.json": ["verify", "--format", "json"],
    "lhv.txt": ["lhv"],
    "lhv.json": ["lhv", "--format", "json"],
    "mermin.txt": ["mermin"],
    "mermin.json": ["mermin", "--format", "json"],
    "mermin_v0.9.txt": ["mermin", "--visibility", "0.9"],
    "mermin_v0.9.json": ["mermin", "--visibility", "0.9", "--format", "json"],
    "mermin_v0.8_1e12_seed5.txt": [
        "mermin", "--visibility", "0.8", "--shots", "1000000000000", "--seed", "5",
    ],
    "simulate_1_4.txt": ["simulate", "--apparatus-pair", "1", "4"],
    "simulate_1_4.json": ["simulate", "--apparatus-pair", "1", "4", "--format", "json"],
    "simulate_1_4.csv": ["simulate", "--apparatus-pair", "1", "4", "--format", "csv"],
    "simulate_1_4_v0.9.txt": [
        "simulate", "--apparatus-pair", "1", "4", "--visibility", "0.9",
    ],
    # Pins the pattern law V p_Psi + (1-V)/16 that simulate draws from.
    "simulate_1_4_v0.5.txt": [
        "simulate", "--apparatus-pair", "1", "4", "--visibility", "0.5",
    ],
    # Photon 1's Bell analyzer against photon 2's apparatus 6, both chains.
    "simulate_5_6_v0.9.txt": [
        "simulate", "--apparatus-pair", "5", "6", "--visibility", "0.9",
    ],
    "sweep.csv": ["sweep"],
    "sweep.txt": ["sweep", "--format", "text"],
    "sweep.json": ["sweep", "--format", "json"],
    "sweep_shots1000.csv": ["sweep", "--shots", "1000"],
    # Exact values only: the renderers' cells for points not sampled.
    "sweep_exact.txt": ["sweep", "--shots", "0", "--format", "text"],
    "sweep_exact.csv": ["sweep", "--shots", "0"],
    # The shape of a benchmark scan: 21 points across 7/9 at 100 shots.
    "sweep_scan_shots100_seed7.json": [
        "sweep", "--grid", *(f"{0.70 + k / 100:.2f}" for k in range(21)),
        "--shots", "100", "--seed", "7", "--format", "json",
    ],
    "bell.txt": ["bell"],
    "bell.json": ["bell", "--format", "json"],
    "bell_random.txt": ["bell", "--state", "random"],
}


def run_in_process(argv: list[str]) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue().encode("utf-8")


def test_every_case_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_bytes_match_golden(name, tmp_path):
    target = tmp_path / name
    code, stdout = run_in_process([*CASES[name], "--output", str(target)])
    assert code == 0
    assert stdout == (GOLDEN / name).read_bytes()
    assert target.read_bytes() == stdout


@pytest.mark.parametrize("name", sorted(n for n in CASES if n.endswith(".json")))
def test_json_golden_matches_its_schema(name):
    schema = json.loads((SCHEMAS / f"{CASES[name][0]}.schema.json").read_text())
    jsonschema.validate(json.loads((GOLDEN / name).read_text()), schema)


#: Text tables beyond the goldens: at 2**63 - 1 shots nearly every cell fills
#: its column, which once ran neighbouring numbers together.
MAX_SHOT_TABLES = {
    "simulate_max_shots": [
        "simulate", "--apparatus-pair", "1", "4", "--visibility", "0.9",
        "--shots", "9223372036854775807",
    ],
    "sweep_max_shots": ["sweep", "--shots", "9223372036854775807", "--format", "text"],
    "bell_max_shots": ["bell", "--state", "random", "--shots", "9223372036854775807"],
}
TEXT_TABLES = {
    **{name: argv for name, argv in CASES.items()
       if name.endswith(".txt") and argv[0] in ("simulate", "sweep", "bell")},
    **MAX_SHOT_TABLES,
}


def table_cells(command: str, payload) -> tuple[int, list[list[str]]]:
    """Header lines before the data, and each data line's cells, from the JSON payload."""
    def g(x):
        return "-" if x is None else format(x, ".12g")

    if command == "simulate":
        return 2, [[r["quantity"], g(r["mean"]), g(r["std_error"])] for r in payload["results"]]
    if command == "sweep":
        numbers = ("v", "exact_O", "est_O", "std_err", "lhv_bound")
        return 1, [[*(g(r[key]) for key in numbers), r["violated"]] for r in payload["rows"]]
    probabilities = payload["exact_probabilities"]
    return 3, [[k, str(n), g(probabilities[k])] for k, n in payload["counts"].items()]


@pytest.mark.parametrize("name", sorted(TEXT_TABLES))
def test_text_table_cells_are_the_json_values(name):
    # every data line splits on whitespace into exactly its columns, each
    # number the JSON value of the same command line at .12g
    argv = TEXT_TABLES[name]
    if name in CASES:
        text = (GOLDEN / name).read_text()
    else:
        code, stdout = run_in_process(argv)
        assert code == 0
        text = stdout.decode()
    code, stdout = run_in_process([*argv, "--format", "json"])
    assert code == 0
    skip, expected = table_cells(argv[0], json.loads(stdout))
    assert [line.split() for line in text.splitlines()[skip:]] == expected
