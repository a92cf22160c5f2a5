"""Smoke test of the benchmark contract in ``perfbench/``, which is not edited here.

The tracer silently skips a function the program no longer defines, so a
rename would make the benchmark read 0 instead of failing.  One traced op of
each workload must pass its own check, give consistent per-op counts, and
show the names perfbench reads being called.
"""

import json
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.remove(PERFBENCH)

SEED = 12345


def traced_op(workload):
    """Warm up, run op 0 under the tracer, and return its inputs, result and metrics."""
    workload.warmup(SEED)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op = 0
        inputs = workload.inputs(SEED, 0)
        start = time.perf_counter_ns()
        result = workload.run(inputs)
        op_ns = time.perf_counter_ns() - start
    finally:
        tracer.uninstall()
    metrics, count_errors, largest = tracer.per_layer([op_ns], [workload.output_bytes(result)])
    return inputs, result, metrics, count_errors, largest


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_traced_op_of_each_workload(name):
    workload = workloads.WORKLOADS[name]
    inputs, result, metrics, count_errors, largest = traced_op(workload)
    assert workload.check(inputs, result, result) == []
    assert count_errors == []
    if name == "certify":
        assert largest == "lhv.contradiction_certificate"
        assert json.loads(result["lhv"][1])["assignments_scanned"] == 4096
        assert metrics["lhv.parity_argument.calls_per_op"] == 1
        assert metrics["observables.row_operator.builds_per_op"] > 0
        assert metrics["optics.build_apparatus.cold_ms"] > 0


def test_the_names_perfbench_reads_exist():
    from hyperbell import lhv, observables, optics

    assert callable(observables.ConstraintRow.operator)
    assert len(observables.CONSTRAINT_ROWS) == 9
    assert callable(lhv.parity_argument)
    assert callable(optics.build_apparatus.cache_clear)
