import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from hyperbell import cli, experiment, inputs, lhv, observables
from hyperbell.hilbert import ATOL

REPO = Path(__file__).resolve().parent.parent
SCHEMAS = REPO / "schemas"


def child_env(env_extra=None) -> dict:
    """This environment, with the imported package's source root first on PYTHONPATH."""
    env = os.environ.copy()
    root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    env.update(env_extra or {})
    return env


def run_cli(*args, env_extra=None):
    env = child_env(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "hyperbell", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def validate(payload, schema_name):
    schema = json.loads((SCHEMAS / f"{schema_name}.schema.json").read_text())
    jsonschema.validate(payload, schema)


def library_message(validate, *args) -> str:
    """str() of the ValueError that a library validator raises for these arguments."""
    with pytest.raises(ValueError) as info:
        validate(*args)
    return str(info.value)


def assert_usage_error(code, stdout, stderr, message):
    """Exit 2, nothing on stdout, and one stderr line quoting the library's message."""
    assert code == 2
    assert stdout == ""
    assert stderr == f"hyperbell: error: {message}\n"


def test_verify_text():
    result = run_cli("verify")
    assert result.returncode == 0
    assert result.stdout.count("PASS") == 9
    assert "all 9 relations hold" in result.stdout


def test_verify_json_schema_and_signs():
    result = run_cli("verify", "--format", "json")
    assert result.returncode == 0
    records = json.loads(result.stdout)
    validate(records, "verify")
    assert [r["id"] for r in records] == list(range(1, 10))
    assert [r["eigenvalue"] for r in records] == [-1, -1, -1, -1, 1, 1, 1, 1, -1]
    assert all(set(r) == {"id", "eigenvalue", "residual"} for r in records)
    assert all(r["residual"] < 1e-12 for r in records)


def test_lhv_text_summary():
    result = run_cli("lhv")
    assert result.returncode == 0
    assert "max satisfied: 8 of 9" in result.stdout
    assert "max LHV value: 7" in result.stdout
    assert "quantum: 9" in result.stdout
    assert "witness assignment" in result.stdout


def test_lhv_json_roundtrip():
    result = run_cli("lhv", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "lhv")
    assert payload["satisfied_max"] == 8
    assert payload["mermin_max"] == 7
    assert payload["mermin_min"] == -9
    assert payload["parity_product"] == 1
    assert payload["parity_rows"] == list(range(1, 10))
    # round-trip through the schema'd structure is byte stable
    assert json.loads(json.dumps(payload)) == payload


def test_mermin_exact_at_full_visibility():
    result = run_cli(
        "mermin", "--visibility", "1.0", "--shots", "500", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "mermin")
    assert payload["exact"] == 9.0
    assert payload["estimate"] == 9.0
    assert payload["violated"] == "yes"


def test_mermin_text_mentions_bound():
    result = run_cli("mermin", "--shots", "200")
    assert result.returncode == 0
    assert "lhv bound         : 7" in result.stdout


def test_simulate_anticorrelation():
    result = run_cli(
        "simulate", "--apparatus-pair", "1", "4",
        "--shots", "2000", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "simulate")
    by_name = {row["quantity"]: row for row in payload["results"]}
    assert by_name["z1*z2"]["mean"] == -1.0
    assert by_name["z1*z2"]["std_error"] == 0.0
    assert len(payload["results"]) == 15


@pytest.mark.parametrize("constraint", lhv.CONSTRAINTS, ids=lambda c: f"row{c.id}")
def test_simulate_prints_every_row_at_its_pair(constraint):
    # at V = 1 the row's pair reads the row, a quantity named by its variables
    # joined with "*", as its required product on every shot
    pair = [str(a) for a in lhv.ROW_APPARATUS_PAIRS[constraint.id]]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["simulate", "--apparatus-pair", *pair, "--visibility", "1",
                         "--format", "json"])
    assert code == 0
    by_name = {row["quantity"]: row for row in json.loads(stdout.getvalue())["results"]}
    row = by_name["*".join(constraint.variables)]
    assert row["mean"] == constraint.required_product
    assert row["std_error"] == 0.0


def test_simulate_same_seed_identical_bytes():
    args = ("simulate", "--apparatus-pair", "3", "6", "--shots", "500",
            "--seed", "31", "--visibility", "0.8", "--format", "csv")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.startswith("quantity,mean,std_err,shots\n")


def test_simulate_zero_visibility_kills_correlations():
    result = run_cli(
        "simulate", "--apparatus-pair", "1", "4", "--shots", "4000",
        "--visibility", "0.0", "--format", "json",
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    for row in payload["results"]:
        assert abs(row["mean"]) < 0.1  # ~6 sigma at 4000 shots


def test_simulate_rejects_mismatched_sides():
    result = run_cli("simulate", "--apparatus-pair", "4", "2", "--shots", "10")
    assert result.returncode == 2
    assert "photon" in result.stderr
    result = run_cli("simulate", "--apparatus-pair", "1", "3", "--shots", "10")
    assert result.returncode == 2
    result = run_cli("simulate", "--apparatus-pair", "1", "9", "--shots", "10")
    assert result.returncode == 2


def test_shots_and_visibility_validated():
    assert run_cli("simulate", "--apparatus-pair", "1", "4", "--shots", "0").returncode == 2
    assert run_cli("mermin", "--visibility", "1.5", "--shots", "10").returncode == 2
    assert run_cli("mermin", "--seed", "-3", "--shots", "10").returncode == 2


def test_sweep_default_grid_crossing():
    result = run_cli("sweep", "--shots", "200", "--seed", "7")
    assert result.returncode == 0
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "v,exact_O,est_O,std_err,lhv_bound,violated"
    flags = {line.split(",")[0]: line.split(",")[5] for line in lines[1:]}
    assert flags["0.77"] == "no"
    assert flags["0.78"] == "yes"
    assert flags["1"] == "yes"
    assert flags["0.777777777778"] == "boundary"


def test_sweep_json_schema():
    result = run_cli(
        "sweep", "--grid", "0.5", "1.0", "--shots", "300", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "sweep")
    assert payload["rows"][1]["violated"] == "yes"


def test_sweep_at_zero_shots_is_the_exact_only_table(capsys):
    assert cli.main(["sweep", "--shots", "0", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    validate(payload, "sweep")
    assert payload["shots_per_setting"] == 0
    assert all(row["est_O"] is None and row["std_err"] is None for row in payload["rows"])
    assert [row["v"] for row in payload["rows"]] == list(experiment.DEFAULT_GRID)


def test_mermin_and_sweep_print_the_same_exact_value(capsys):
    grid = ("0.2", "0.4", "0.7", "0.8")
    assert cli.main(["sweep", "--grid", *grid, "--shots", "0", "--format", "json"]) == 0
    exact = [row["exact_O"] for row in json.loads(capsys.readouterr().out)["rows"]]
    assert exact == [1.8, 3.6, 6.3, 7.2]
    for v, value in zip(grid, exact):
        assert cli.main(["mermin", "--visibility", v, "--shots", "2", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["exact"] == value


@pytest.mark.parametrize("v, shots, seed", [
    ("0.9", "1000", "5"),
    ("0.8", "1000000000000", "5"),
    ("0.777777777778", "2", "0"),
    ("0", "100", "18446744073709551615"),
    ("0.5", "100000", "12345"),
])
def test_sweep_row_is_the_mermin_estimate_of_the_same_seed(capsys, v, shots, seed):
    common = ["--shots", shots, "--seed", seed, "--format", "json"]
    assert cli.main(["sweep", "--grid", v, *common]) == 0
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert cli.main(["mermin", "--visibility", v, *common]) == 0
    mermin = json.loads(capsys.readouterr().out)
    single = experiment.estimate_mermin(int(shots), float(v), int(seed))
    assert (row["exact_O"], row["est_O"], row["std_err"]) == (
        mermin["exact"], mermin["estimate"], mermin["std_error"])
    assert (row["est_O"], row["std_err"]) == (single.estimate, single.std_error)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv, flag", [
    (["mermin", "--shots", "100"], "--visibility"),
    (["simulate", "--apparatus-pair", "1", "4", "--shots", "100"], "--visibility"),
    (["sweep", "--shots", "100"], "--grid"),
])
def test_negative_zero_visibility_prints_as_zero(capsys, argv, flag, fmt):
    outputs = []
    for zero in ("-0", "-0.0", "0"):
        assert cli.main([*argv, flag, zero, "--format", fmt]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_the_shared_parser_carries_no_state(capsys):
    # one process, one parser: each call prints what a fresh process prints
    golden = REPO / "tests" / "golden"
    # usage errors from argparse, after --grid was parsed, and from the library
    # check, whose bad value would fail every later call if it leaked
    bad = [["sweep", "--grid", "0.5", "--shots", "x"], ["mermin", "--visibility", "1.5"]]
    fresh = [run_cli(*argv) for argv in (*bad, ["sweep", "--grid", "0.5", "--shots", "0"])]
    calls = [
        (bad[0], 2, "", fresh[0].stderr),
        (bad[1], 2, "", fresh[1].stderr),
        (["sweep", "--grid", "0.5", "--shots", "0"], 0, fresh[2].stdout, ""),
        (["sweep", "--format", "text"], 0, (golden / "sweep.txt").read_text(), ""),
        (["verify"], 0, (golden / "verify.txt").read_text(), ""),
        (["lhv", "--format", "json"], 0, (golden / "lhv.json").read_text(), ""),
    ]
    for argv, code, stdout, stderr in calls:
        try:
            got = cli.main(argv)
        except SystemExit as exc:
            got = exc.code
        assert (got, *capsys.readouterr()) == (code, stdout, stderr)
    assert [r.returncode for r in fresh] == [2, 2, 0]
    assert "invalid int value: 'x'" in fresh[0].stderr and "1.5" in fresh[1].stderr
    assert len(fresh[2].stdout.splitlines()) == 2


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["mermin", "--shots", "abc"], "argument --shots: invalid int value: 'abc'"),
    (["nope"], "argument command: invalid choice: 'nope' (choose from "
     "'verify', 'lhv', 'mermin', 'simulate', 'sweep', 'bell')"),
    (["mermin", "--s", "3"], "ambiguous option: --s could match --shots, --seed"),
    (["simulate", "--apparatus-pair", "1"], "argument --apparatus-pair: expected 2 arguments"),
    (["bell", "--state", "chi"], "argument --state: invalid choice: 'chi' "
     "(choose from 'psi+', 'psi-', 'phi+', 'phi-', 'random')"),
    # argparse quotes unrecognized arguments as typed; their line breaks are escaped
    (["verify", "--shots", "a\nb\r\u2028c"], "unrecognized arguments: --shots a\\nb\\r\\u2028c"),
])
def test_every_argparse_error_is_one_line(capsys, argv, message):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert_usage_error(info.value.code, *capsys.readouterr(), message)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["mermin", "-h"])
    out, err = capsys.readouterr()
    assert info.value.code == 0 and err == ""
    assert out.startswith("usage: hyperbell mermin [-h]")


def test_sweep_rejects_bad_grid():
    result = run_cli("sweep", "--grid", "0.5", "1.5", "--shots", "10")
    message = library_message(inputs._visibilities, [0.5, 1.5])
    assert_usage_error(result.returncode, result.stdout, result.stderr, message)


def test_bell_eigenstate_histogram():
    result = run_cli(
        "bell", "--state", "phi+", "--shots", "400", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "bell")
    assert payload["counts"] == {"psi+": 0, "psi-": 0, "phi+": 400, "phi-": 0}
    assert payload["exact_probabilities"]["phi+"] == pytest.approx(1.0, abs=1e-12)


def test_bell_random_state_and_bad_name():
    result = run_cli("bell", "--state", "random", "--shots", "300",
                     "--seed", "11", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "bell")
    assert sum(payload["counts"].values()) == 300
    assert run_cli("bell", "--state", "sigma+").returncode == 2


def test_csv_rejected_for_nontabular_commands():
    assert run_cli("verify", "--format", "csv").returncode == 2
    assert run_cli("bell", "--format", "csv").returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--format", "json"),
        ("lhv",),
        ("mermin", "--shots", "100", "--seed", "5"),
        ("bell", "--state", "psi-", "--shots", "100"),
        ("sweep", "--grid", "0.2", "0.9", "--shots", "100", "--seed", "3"),
    ],
)
def test_identical_bytes_across_runs(args):
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


def test_output_file_matches_stdout(tmp_path):
    target = tmp_path / "table.csv"
    result = run_cli("sweep", "--grid", "0.5", "--shots", "100",
                     "--output", str(target))
    assert result.returncode == 0
    assert target.read_text() == result.stdout


def test_output_dir_env_var(tmp_path):
    result = run_cli(
        "verify", "--output", "report.txt",
        env_extra={"HYPERBELL_OUTPUT_DIR": str(tmp_path)},
    )
    assert result.returncode == 0
    assert (tmp_path / "report.txt").read_text() == result.stdout


def test_unwritable_output_is_a_usage_error():
    result = run_cli("verify", "--output", "/nonexistent-dir/x")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("hyperbell: error: cannot write /nonexistent-dir/x")
    assert len(result.stderr.strip().splitlines()) == 1


def test_a_nul_byte_in_the_output_path_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # open() raises ValueError, not OSError, on a NUL byte; an argv cannot carry
    # one through exec, so main runs in process
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    path = str(tmp_path / "a\x00b")
    assert cli.main(["lhv", "--output", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"hyperbell: error: cannot write {path}: embedded null byte\n"


def test_a_line_break_in_an_unwritable_output_path_is_escaped(capsys, monkeypatch, tmp_path):
    # the error names the path with its line breaks escaped, as the parser's
    # errors do, so it stays one line
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)
    path = str(tmp_path / "missing\nx\u2028" / "y")
    assert cli.main(["lhv", "--output", path]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    escaped = path.replace("\n", "\\n").replace("\u2028", "\\u2028")
    assert err == f"hyperbell: error: cannot write {escaped}: No such file or directory\n"


@pytest.mark.parametrize(
    "args",
    [
        ("mermin",),
        ("simulate", "--apparatus-pair", "1", "4"),
        ("sweep", "--grid", "0.5"),
        ("bell",),
    ],
)
def test_shot_count_beyond_int64_rejected(args):
    result = run_cli(*args, "--shots", "99999999999999999999")
    if args[0] == "sweep":
        message = library_message(inputs._sweep_shot_count, 99999999999999999999)
    else:
        minimum = 1 if args[0] == "bell" else 2
        message = library_message(inputs._shot_count, 99999999999999999999, minimum)
    assert_usage_error(result.returncode, result.stdout, result.stderr, message)


@pytest.mark.parametrize(
    "args",
    [
        ("mermin",),
        ("simulate", "--apparatus-pair", "1", "4"),
        ("sweep", "--grid", "0.5"),
    ],
)
def test_one_shot_rejected_where_a_standard_error_is_reported(args):
    result = run_cli(*args, "--shots", "1")
    if args[0] == "sweep":
        message = library_message(inputs._sweep_shot_count, 1)
    else:
        message = library_message(inputs._shot_count, 1, 2)
    assert_usage_error(result.returncode, result.stdout, result.stderr, message)
    assert run_cli(*args, "--shots", "2").returncode == 0


@pytest.mark.parametrize(
    "argv, validate, bad",
    [
        (["mermin", "--shots", "1"], inputs._shot_count, (1, 2)),
        (["simulate", "--apparatus-pair", "1", "4", "--shots", "1"], inputs._shot_count, (1, 2)),
        (["sweep", "--shots", "1"], inputs._sweep_shot_count, (1,)),
        (["mermin", "--shots", str(2**64)], inputs._shot_count, (2**64, 2)),
        (["bell", "--shots", str(2**64)], inputs._shot_count, (2**64, 1)),
        (["mermin", "--visibility", "1.5"], inputs._visibility, (1.5,)),
        (["sweep", "--grid", "0.5", "1.5"], inputs._visibilities, ([0.5, 1.5],)),
        (["mermin", "--seed", "-3"], inputs._seed, (-3,)),
        (["bell", "--seed", str(2**64)], inputs._seed, (2**64,)),
        (["simulate", "--apparatus-pair", "1", "9"], inputs._apparatus_pair, (1, 9)),
        (["simulate", "--apparatus-pair", "7", "4"], inputs._apparatus_pair, (7, 4)),
        (["simulate", "--apparatus-pair", "4", "2"], inputs._apparatus_pair, (4, 2)),
    ],
)
def test_usage_error_quotes_the_library_message(capsys, argv, validate, bad):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert_usage_error(code, out, err, library_message(validate, *bad))


def test_lhv_and_input_usage_errors_run_without_numpy():
    # the CLI imports numpy only in the runners that compute: `import
    # hyperbell.cli`, lhv in both formats, and each shots, seed, visibility,
    # grid and apparatus-pair usage error above run in a process where
    # importing numpy fails
    cases = test_usage_error_quotes_the_library_message.pytestmark[0].args[1]
    errors = [(argv, library_message(validate, *bad)) for argv, validate, bad in cases
              if validate.__module__ == inputs.__name__]
    assert len(errors) == 12
    golden = REPO / "tests" / "golden"
    expected = [(0, (golden / name).read_bytes().decode("utf-8"), "")
                for name in ("lhv.txt", "lhv.json")]
    expected += [(2, "", f"hyperbell: error: {message}\n") for _, message in errors]
    code = (
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from hyperbell import cli\n"
        "runs = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        runs.append((cli.main(argv), out.getvalue(), err.getvalue()))\n"
        "assert sys.modules['numpy'] is None\n"
        "assert not {'hyperbell.hilbert', 'hyperbell.optics'} & set(sys.modules)\n"
        "sys.stdout.write(json.dumps(runs))\n"
    )
    argvs = [["lhv"], ["lhv", "--format", "json"], *(argv for argv, _ in errors)]
    result = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                            capture_output=True, text=True, env=child_env())
    assert result.returncode == 0, result.stderr
    assert [tuple(run) for run in json.loads(result.stdout)] == expected


def test_verify_exits_1_when_a_relation_fails(monkeypatch, capsys):
    checks = observables.verify_eigenequations()
    checks[4] = dataclasses.replace(checks[4], residual=ATOL)
    monkeypatch.setattr(observables, "verify_eigenequations", lambda: checks)
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2 and out.count("PASS") == 8
    assert out.endswith("FAILED rows: [5] (residual >= 1e-12)\n")
    assert cli.main(["verify", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)[4]["residual"] == ATOL


def test_lhv_exits_1_when_the_certificate_is_off(monkeypatch, capsys):
    certificate = dataclasses.replace(lhv.contradiction_certificate(), satisfied_max=9)
    monkeypatch.setattr(lhv, "contradiction_certificate", lambda: certificate)
    assert cli.main(["lhv"]) == 1
    assert "max satisfied: 9 of 9" in capsys.readouterr().out
    assert cli.main(["lhv", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["satisfied_max"] == 9


@pytest.mark.parametrize(
    "field, value", [("satisfied_max", 7), ("mermin_max", 5), ("mermin_min", -7)]
)
def test_lhv_exits_1_when_the_scan_and_the_coset_bound_disagree(monkeypatch, field, value):
    certificate = dataclasses.replace(lhv.contradiction_certificate(), **{field: value})
    monkeypatch.setattr(lhv, "contradiction_certificate", lambda: certificate)
    assert cli.run_lhv(None)[1] == 1


@pytest.mark.parametrize("name", ["FEWEST_VIOLATED", "FEWEST_SATISFIED", "LHV_BOUND"])
def test_lhv_exits_1_when_the_coset_bound_is_off(monkeypatch, name):
    monkeypatch.setattr(lhv, name, getattr(lhv, name) + 1)
    assert cli.run_lhv(None)[1] == 1


def test_bell_accepts_one_shot():
    result = run_cli("bell", "--shots", "1", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, "bell")
    assert payload["counts"]["phi+"] == 1


@pytest.mark.parametrize(
    "args, key",
    [
        (("mermin",), "shots_per_setting"),
        (("simulate", "--apparatus-pair", "1", "4"), "shots"),
    ],
)
def test_schemas_require_two_shots(args, key):
    result = run_cli(*args, "--shots", "2", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    validate(payload, args[0])
    payload[key] = 1
    with pytest.raises(jsonschema.ValidationError):
        validate(payload, args[0])


def run_cli_measured(*args):
    """Run the CLI in a fresh process; returns (result, wall seconds, own peak RSS in kB)."""
    code = (
        "import resource, sys\n"
        "from hyperbell.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "print(f'peak_rss_kb={peak}', file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    start = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=child_env()
    )
    elapsed = time.perf_counter() - start
    peak = int(result.stderr.strip().splitlines()[-1].split("=")[1])
    return result, elapsed, peak


def test_mermin_at_a_trillion_shots_is_fast_and_flat_in_memory():
    args = ("mermin", "--visibility", "0.9", "--shots")
    small, _, small_peak = run_cli_measured(*args, "1000")
    large, elapsed, large_peak = run_cli_measured(*args, "1000000000000")
    assert small.returncode == large.returncode == 0
    assert "shots per setting : 1000000000000" in large.stdout
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    assert abs(large_peak - small_peak) <= 10 * 1024, (small_peak, large_peak)


#: Flag values: in-range numbers, small, negative and huge integers, NaN and
#: infinities, and junk strings.
_numbers = st.one_of(
    st.integers(0, 1000),
    st.floats(0.0, 1.0),
    st.sampled_from([-1, 2**63 - 1, 2**63, 2**64, 10**12, -(2**64), 10**400]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["nan", "-inf", "inf", "1e400", "-0.0", "7/9", "0x10", "1_0"]),
)
_junk = st.text(max_size=6)
_values = st.one_of(_numbers.map(str), _junk)


@st.composite
def _argvs(draw, outputs):
    """A command (now and then junk) followed by flags of any command, with mixed values."""
    command = draw(st.sampled_from([*sorted(cli._COMMANDS), "junk"]))
    argv = [draw(_junk) if command == "junk" else command]
    pairs = st.tuples(st.integers(1, 6), st.integers(1, 6)).map(lambda t: [str(i) for i in t])
    flags = {
        "--format": st.sampled_from(["text", "json", "csv", "xml", ""]).map(lambda f: [f]),
        "--output": st.sampled_from(outputs).map(lambda path: [path]),
        "--shots": _values.map(lambda v: [v]),
        "--seed": _values.map(lambda v: [v]),
        "--visibility": _values.map(lambda v: [v]),
        "--apparatus-pair": st.one_of(pairs, st.lists(_values, max_size=3)),
        "--grid": st.lists(_values, max_size=4),
        "--state": st.sampled_from(["phi+", "psi-", "random", "chi"]).map(lambda s: [s]),
        "--help": st.just([]),
        "--bogus": st.just([]),
    }
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv += [flag, *draw(flags[flag])]
    return argv


@settings(
    deadline=None,
    max_examples=200,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_fuzzed_argv_never_crashes(tmp_path, data):
    # --output only ever names tmp_path itself, a file in it, or a file in a
    # directory under it that does not exist, once with a line break in its name
    outputs = [str(tmp_path), str(tmp_path / "out.txt"), str(tmp_path / "missing" / "x"),
               str(tmp_path / "missing\nx" / "y")]
    argv = data.draw(_argvs(outputs), label="argv")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code, returned = cli.main(argv), True
        except SystemExit as exc:  # argparse: usage errors and --help
            code, returned = exc.code, False
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    if code == 2:  # argparse, the input check or --output: one line, no output
        assert stdout.getvalue() == "", argv
        assert stderr.getvalue().startswith("hyperbell: error: "), argv
        assert stderr.getvalue().count("\n") == 1 and stderr.getvalue().endswith("\n"), argv
