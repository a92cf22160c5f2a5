"""Check that the LHV certificate has the same bytes on every supported Python.

Runs ``json.dumps(contradiction_certificate().to_dict(), indent=2) + "\\n"``
from ``src/`` under each of python3.10 to python3.13 found on PATH, checks
``LHV_BOUND == 7``, the coset bound ``(FEWEST_VIOLATED, FEWEST_SATISFIED) ==
(1, 0)``, the witness mask 60 (the first with the most rows) and the scan's
satisfied-count histogram there, the histogram also
against the coset's weight enumerator (16 assignments per coset word of
``coset_weights``), and compares the bytes with ``tests/golden/lhv.json``
(what ``hyperbell lhv --format json`` prints).  It then runs the CLI itself,
``hyperbell.cli.main`` on ``lhv`` and ``lhv --format json``, and compares
each output with its golden file and its exit code with 0.  Last it runs seven
usage errors, a bad shot count, grid, seed, a one-shot ``simulate``, a bad
apparatus id, a pair on the wrong photons and an unwritable ``--output`` path
with a line break in it, and compares each one's stderr with the bytes recorded
under Python 3.11 in ``USAGE_ERRORS`` and its exit code with 2.  Stdlib only:
the probe blocks numpy, since neither ``hyperbell.lhv``, the CLI's ``lhv`` nor
its input checks need it.

    python3 tools/cross_python.py

Prints one line per interpreter: ``pass``, ``FAIL`` or ``did not run``
(not on PATH, or it could not start).  Exit 0 when at least one interpreter
ran and every one that ran passed, 1 when one failed, 2 when none ran.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
#: What the probe prints, in order, and the golden file each must equal.
OUTPUTS = (("certificate JSON", "lhv.json"), ("CLI lhv", "lhv.txt"),
           ("CLI lhv --format json", "lhv.json"))
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
#: (argv, stderr recorded under Python 3.11) of usage errors; each must exit 2.
USAGE_ERRORS = (
    (["mermin", "--shots", "1"],
     "hyperbell: error: shots must be an integer in [2, 2**63 - 1], got 1\n"),
    (["sweep", "--grid", "1.5"],
     "hyperbell: error: visibility must be a number in [0, 1], got 1.5\n"),
    (["bell", "--seed", "-1"],
     "hyperbell: error: seed must be an integer in [0, 2**64 - 1], got -1\n"),
    (["simulate", "--apparatus-pair", "1", "2", "--shots", "1"],
     "hyperbell: error: shots must be an integer in [2, 2**63 - 1], got 1\n"),
    (["simulate", "--apparatus-pair", "7", "4"],
     "hyperbell: error: apparatus id must be an integer 1..6, got 7\n"),
    (["simulate", "--apparatus-pair", "4", "2"],
     "hyperbell: error: apparatus pair must act on photons (1, 2); "
     "got (4 on photon 2, 2 on photon 2)\n"),
    (["lhv", "--output", "/nonexistent-dir\nx/y"],
     "hyperbell: error: cannot write /nonexistent-dir\\nx/y: No such file or directory\n"),
)
MARKER = "hyperbell-cross-python"

# -I ignores PYTHONPATH and user site-packages, so only src/ supplies hyperbell.
PROBE = f"""
import contextlib, io, json, platform, sys
print({MARKER!r}, platform.python_version(), flush=True)
sys.modules["numpy"] = None
sys.path.insert(0, {str(ROOT / "src")!r})
from hyperbell import cli, lhv
assert type(lhv.LHV_BOUND) is int and lhv.LHV_BOUND == 7, lhv.LHV_BOUND
bound = lhv.FEWEST_VIOLATED, lhv.FEWEST_SATISFIED
assert bound == (1, 0), bound
certificate = lhv.contradiction_certificate()
assert certificate.witness == 60, certificate.witness
histogram = certificate.satisfied_histogram
assert histogram == (16, 0, 576, 0, 2016, 0, 1344, 0, 144, 0), histogram
weights = lhv.coset_weights(lhv.CONSTRAINTS)
m = len(lhv.CONSTRAINTS)
assert all(histogram[m - k] == 16 * w for k, w in enumerate(weights)), weights
outputs = [json.dumps(certificate.to_dict(), indent=2) + "\\n"]
for argv in (["lhv"], ["lhv", "--format", "json"]):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    assert code == 0, (argv, code)
    outputs.append(buffer.getvalue())
errors = []
for argv in {[argv for argv, _ in USAGE_ERRORS]!r}:
    buffer = io.StringIO()
    with contextlib.redirect_stderr(buffer):
        code = cli.main(argv)
    errors.append([buffer.getvalue(), code])
sys.stdout.write(json.dumps([outputs, errors]))
"""


def run(version: str, goldens: list[str]) -> tuple[str, str]:
    """(status, detail) of one interpreter: status is pass, FAIL or did not run."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return "did not run", "not on PATH"
    # a pyenv shim runs a version that is not the global one only when named
    env = {**os.environ, "PYENV_VERSION": version}
    result = subprocess.run([exe, "-I", "-c", PROBE], capture_output=True, env=env, timeout=120)
    first, _, dump = result.stdout.partition(b"\n")
    lines = result.stderr.decode(errors="replace").strip().splitlines()
    reason = lines[-1] if lines else "no output"
    if not first.startswith(MARKER.encode()):
        return "did not run", f"{exe}: {reason}"
    ran = first.decode().split()[-1]
    if not ran.startswith(version + "."):
        return "did not run", f"{exe} started Python {ran}"
    if result.returncode != 0:
        return "FAIL", f"Python {ran} ({exe}): exit {result.returncode}: {reason}"
    outputs, errors = json.loads(dump)
    for (what, name), output, golden in zip(OUTPUTS, outputs, goldens):
        if output != golden:
            return "FAIL", f"Python {ran} ({exe}): {what} differs from tests/golden/{name}"
    for (argv, expected), (stderr, code) in zip(USAGE_ERRORS, errors):
        if (stderr, code) != (expected, 2):
            return "FAIL", f"Python {ran} ({exe}): {' '.join(argv)!r}: exit {code}, stderr {stderr!r}"
    checks = "LHV_BOUND 7, coset bound (1, 0), witness 60, histogram equal, and 16 x coset weights"
    equal = ", ".join(f"{what} ({len(output)} chars)" for (what, _), output in zip(OUTPUTS, outputs))
    usage = f"{len(errors)} usage errors equal to the 3.11 stderr, exit 2"
    return "pass", (f"Python {ran} ({exe}), numpy blocked: {checks}; "
                    f"equal to golden: {equal}; {usage}")


def main() -> int:
    goldens = [(GOLDEN / name).read_bytes().decode("utf-8") for _, name in OUTPUTS]
    statuses = []
    for version in VERSIONS:
        status, detail = run(version, goldens)
        statuses.append(status)
        print(f"python{version}: {status}: {detail}")
    ran = [s for s in statuses if s != "did not run"]
    print(f"{len(ran)} of {len(VERSIONS)} interpreters ran; {ran.count('pass')} passed")
    if not ran:
        return 2
    return int("FAIL" in ran)


if __name__ == "__main__":
    sys.exit(main())
