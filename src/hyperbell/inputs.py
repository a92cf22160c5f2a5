"""Input checks and defaults shared by the library and the command line, with no numpy.

Each check takes a value as a caller passed it and returns it as a plain int
or float, or raises ``ValueError`` with a one-line message naming the rule
and the value; apparatus ids and pairs are read off ``lhv.APPARATUSES``.
``optics`` and ``experiment`` call these checks on their arguments, and the
command line calls them on its inputs before it loads numpy, printing the
message as its usage error.  The checks are the package's own, so their
names keep a leading underscore.
"""

from __future__ import annotations

import numbers
import operator
from typing import Sequence

from .lhv import APPARATUSES, element_photon

#: Fixed default seed used whenever the caller does not pass one.
DEFAULT_SEED = 12345

#: Default shots per measurement setting (std error about 3e-3 per term).
DEFAULT_SHOTS = 100_000

#: Default visibility grid for the sweep; brackets the 7/9 threshold with the
#: exact crossing point included.
DEFAULT_GRID: tuple[float, ...] = (
    0.0, 0.2, 0.4, 0.6, 0.7, 0.75, 0.77, 7.0 / 9.0, 0.78, 0.8, 0.9, 1.0,
)

#: Largest shot count of one setting; ``Generator.binomial`` and ``multinomial`` count in int64.
MAX_SHOTS = 2**63 - 1

#: Label order used by the Bell discriminator.
BELL_LABELS = ("psi+", "psi-", "phi+", "phi-")


def _integer(value, low: int, high: int, rule: str) -> int:
    """Any integer but a bool in [low, high] as a plain int; else ``ValueError`` naming it."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if low <= number <= high:
                return number
    raise ValueError(f"{rule}, got {value!r}")


def _shot_count(shots, minimum: int = 1) -> int:
    """``shots`` as a plain int in [minimum, 2**63 - 1]; bools and non-integers are rejected."""
    rule = f"shots must be an integer in [{minimum}, 2**63 - 1]"
    return _integer(shots, minimum, MAX_SHOTS, rule)


def _sweep_shot_count(shots) -> int:
    """Shots per setting of a sweep: 0 (exact values only) or an integer in [2, 2**63 - 1]."""
    rule = "shots must be 0 or an integer in [2, 2**63 - 1]"
    count = _integer(shots, 0, MAX_SHOTS, rule)  # first, so no == runs on a non-integer
    if count == 1:
        raise ValueError(f"{rule}, got {shots!r}")
    return count


def _apparatus_id(value) -> int:
    """An id of ``lhv.APPARATUSES`` as a plain int; bools and non-integers are rejected."""
    n = len(APPARATUSES)
    return _integer(value, 1, n, f"apparatus id must be an integer 1..{n}")


def _apparatus_pair(a1_id, a2_id) -> tuple[int, int]:
    """Two apparatus ids, checked in order, of apparatuses that read photons 1 and 2."""
    pair = _apparatus_id(a1_id), _apparatus_id(a2_id)
    photons = tuple(element_photon(APPARATUSES[i][0][0]) for i in pair)
    if photons != (1, 2):
        got = ", ".join(f"{i} on photon {photon}" for i, photon in zip(pair, photons))
        raise ValueError(f"apparatus pair must act on photons (1, 2); got ({got})")
    return pair


def _seed(seed) -> int:
    """``seed`` as a plain int in [0, 2**64 - 1], the range a command-line seed may take."""
    return _integer(seed, 0, 2**64 - 1, "seed must be an integer in [0, 2**64 - 1]")


def _visibility(value) -> float:
    """``value`` as a float in [0, 1]; bools and non-numbers raise ``ValueError`` naming it."""
    # An exact float is tested first, so the common case skips the numbers.Real ABC check.
    real = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not real or not 0 <= value <= 1:
        raise ValueError(f"visibility must be a number in [0, 1], got {value!r}")
    return float(value) + 0.0  # -0.0 becomes 0.0, so -0 and 0 give the same bytes


def _visibilities(values: Sequence[float]) -> list[float]:
    """An iterable grid, not text, as a list of floats checked by ``_visibility``."""
    if not isinstance(values, (str, bytes, bytearray)):
        try:
            points = iter(values)
        except TypeError:
            pass
        else:
            return [_visibility(x) for x in points]
    raise ValueError(f"visibility grid must be an iterable of numbers, got {values!r}")
