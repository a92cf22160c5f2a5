import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_old_text_occurs_exactly_once():
    # tools/mutants.py applies each mutant by exact text; if a refactor moves or
    # duplicates that text, the audit would mutate nothing or the wrong place
    mutants = _mutants()
    assert mutants
    for name, old, new, tests in mutants:
        assert old != new and tests
        assert (ROOT / name).read_text(encoding="utf-8").count(old) == 1, (name, old)
