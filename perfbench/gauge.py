"""A fixed computation that times how fast the host runs at the moment.

The host is shared: other tenants slow every op by 20-50 % for stretches of
seconds to minutes, so op wall times of runs made minutes apart spread by a
fifth to a quarter of their median.  The worker runs this gauge right after
each op, and the benchmark reports op time in units of the gauge time next to
it.  In probes of all three workloads that ratio spread by 0.02-0.04 across
30 s windows where the raw op times spread by 0.05-0.24.

The gauge shares no code with hyperbell, so a change to the program moves the
ratio exactly as much as it moves op time.  It does, in about equal time, four
kinds of work: interpreted Python, numpy calls on small arrays, gathering and
comparing rows of a 16-column table (the pattern of inverse-CDF sampling), and
a random cumulative sum searched with ``searchsorted``.  Mixes of five
candidate parts were tried in 200 s probes of each workload; those with the
gather part tracked the ops best, and with this one the ratios of 15 s and
25 s windows spread by at most 0.04.  Its large buffers are allocated once, at
import, so it never sets a worker's peak RSS.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

#: Sized so that each part takes about 1.6 ms on a 2-vCPU Intel Xeon (family 6,
#: model 207) KVM guest.
PYTHON_STEPS = 19_000
SMALL_STEPS = 550
GATHER_ROWS = 16_384
SEARCH_SIZE = 10_000
_RNG = np.random.default_rng(7)
_CDFS = np.sort(_RNG.random((17, 16)), axis=1)
_ROWS = np.empty((GATHER_ROWS, 16))
_BELOW = np.empty((GATHER_ROWS, 16), dtype=bool)


def _python() -> int:
    total = 0
    for i in range(PYTHON_STEPS):
        total += i * i % 7
    return total


def _small() -> float:
    a = np.arange(64.0)
    for _ in range(SMALL_STEPS):
        a = np.sqrt(a * 1.0001 + 1.0)
    return float(a[0])


def _gather() -> int:
    rows = _RNG.integers(0, len(_CDFS), size=GATHER_ROWS)
    u = _RNG.random(GATHER_ROWS)
    np.take(_CDFS, rows, axis=0, out=_ROWS)
    np.less_equal(_ROWS, u[:, None], out=_BELOW)
    return int(_BELOW.sum(axis=1).max())


def _search() -> int:
    x = _RNG.random(SEARCH_SIZE)
    c = np.cumsum(x)
    return int(np.searchsorted(c, x * c[-1]).max())


def gauge_ns() -> int:
    """Wall time of one pass of the gauge, in nanoseconds."""
    start = perf_counter_ns()
    _python()
    _small()
    _gather()
    _search()
    return perf_counter_ns() - start
