import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_old_text_occurs_exactly_once():
    # tools/mutants.py applies each mutant by exact text; if a refactor moves or
    # duplicates that text, the audit would mutate nothing or the wrong place
    mutants = _tool().MUTANTS
    assert mutants
    for name, old, new, tests in mutants:
        assert old != new and tests
        assert (ROOT / name).read_text(encoding="utf-8").count(old) == 1, (name, old)


def test_a_collection_error_is_its_own_status(tmp_path):
    # pytest runs no test when a named test's module fails to import; the
    # audit then runs the other modules' named tests and reports the status
    tests = tmp_path / "tests"
    tests.mkdir()
    (tmp_path / "pytest.ini").write_text("[pytest]\n", encoding="utf-8")
    (tests / "test_broken.py").write_text(
        "raise RuntimeError('mutated at import')\n\ndef test_a():\n    pass\n", encoding="utf-8"
    )
    (tests / "test_ran.py").write_text(
        "def test_fails():\n    assert False\n\ndef test_passes():\n    pass\n", encoding="utf-8"
    )
    broken, fails, passes = (
        "tests/test_broken.py::test_a", "tests/test_ran.py::test_fails", "tests/test_ran.py::test_passes"
    )
    audit = _tool().audit
    assert audit(tmp_path, [fails])[0] == "killed"
    status, detail = audit(tmp_path, [broken, fails])
    assert status == "collection error" and "tests/test_broken.py" in detail
    assert audit(tmp_path, [broken, passes])[0] == "SURVIVED"
    status, detail = audit(tmp_path, [broken])
    assert status == "ERROR" and detail.startswith("no named test ran")


def test_every_test_a_mutant_names_is_collected():
    # a renamed or removed test id would otherwise show only when the audit runs:
    # pytest exits 4 ("not found") on an id it cannot collect
    ids = sorted({test for *_, tests in _tool().MUTANTS for test in tests})
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
    assert set(ids) <= set(result.stdout.splitlines())
