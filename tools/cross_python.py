"""Check that the LHV certificate has the same bytes on every supported Python.

Runs ``json.dumps(contradiction_certificate().to_dict(), indent=2) + "\\n"``
from ``src/`` under each of python3.10 to python3.13 found on PATH, checks
``LHV_BOUND == 7``, the coset bound ``(FEWEST_VIOLATED, FEWEST_SATISFIED) ==
(1, 0)``, the witness mask 60 (the first with the most rows) and the scan's
satisfied-count histogram there, the histogram also
against the coset's weight enumerator (16 assignments per coset word of
``coset_weights``), and compares the bytes with ``tests/golden/lhv.json``
(what ``hyperbell lhv --format json`` prints).  Stdlib only; ``hyperbell.lhv``
needs no numpy.

    python3 tools/cross_python.py

Prints one line per interpreter: ``pass``, ``FAIL`` or ``did not run``
(not on PATH, or it could not start).  Exit 0 when at least one interpreter
ran and every one that ran passed, 1 when one failed, 2 when none ran.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "lhv.json"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
MARKER = "hyperbell-cross-python"

# -I ignores PYTHONPATH and user site-packages, so only src/ supplies hyperbell.
PROBE = f"""
import json, platform, sys
print({MARKER!r}, platform.python_version(), flush=True)
sys.path.insert(0, {str(ROOT / "src")!r})
from hyperbell import lhv
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
sys.stdout.write(json.dumps(certificate.to_dict(), indent=2) + "\\n")
"""


def run(version: str, golden: bytes) -> tuple[str, str]:
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
    if dump != golden:
        return "FAIL", f"Python {ran} ({exe}): bytes differ from {GOLDEN.relative_to(ROOT)}"
    checks = "LHV_BOUND 7, coset bound (1, 0), witness 60, histogram equal, and 16 x coset weights"
    return "pass", f"Python {ran} ({exe}): {len(dump)} bytes equal, {checks}"


def main() -> int:
    golden = GOLDEN.read_bytes()
    statuses = []
    for version in VERSIONS:
        status, detail = run(version, golden)
        statuses.append(status)
        print(f"python{version}: {status}: {detail}")
    ran = [s for s in statuses if s != "did not run"]
    print(f"{len(ran)} of {len(VERSIONS)} interpreters ran; {ran.count('pass')} passed")
    if not ran:
        return 2
    return int("FAIL" in ran)


if __name__ == "__main__":
    sys.exit(main())
