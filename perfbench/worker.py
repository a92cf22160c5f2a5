"""One benchmark worker process: import, warm up, then run one workload's ops.

Started by ``run.py`` with single-threaded BLAS/OpenMP settings.  It writes
JSON lines to stdout: a ``ready`` line once set-up is done (with its
``CLOCK_MONOTONIC`` time, so the parent can time spawn-to-ready), then, unless
``--setup-only``, a ``result`` line.  Tracebacks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: Failed-check messages kept in the result; the rest are only counted.
MAX_ERRORS = 20


def _emit(stream, event: str, **fields) -> None:
    stream.write(json.dumps({"event": event, **fields}) + "\n")
    stream.flush()


def _run_ops(workload, seed: int, seconds: float, tracer=None) -> dict:
    """Closed loop: each op starts when the previous returns; checks run after.

    The host-speed gauge runs between ops, outside their timing.
    """
    import gauge

    gauge.gauge_ns()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    inputs, outputs, op_ns, gauge_ns, raised = [], [], [], [], {}
    loop_start = time.perf_counter_ns()
    while True:
        index = len(op_ns)
        args = workload.inputs(seed, index)
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter_ns()
        try:
            result = workload.run(args)
        except Exception:
            result = None
            raised[index] = traceback.format_exc()
        end = time.perf_counter_ns()
        inputs.append(args)
        outputs.append(result)
        op_ns.append(end - start)
        gauge_ns.append(gauge.gauge_ns())
        if end >= deadline and len(op_ns) % workload.cycle == 0:
            break
    loop_ns = time.perf_counter_ns() - loop_start
    return {"inputs": inputs, "outputs": outputs, "op_ns": op_ns, "gauge_ns": gauge_ns,
            "loop_ns": loop_ns, "raised": raised}


def _check(workload, ops: dict) -> tuple[int, list[str]]:
    """Check every op's output; an op that raised or fails its check is failed.

    Outputs that must repeat are compared with the first op that returned.
    """
    failed, errors = 0, []
    reference = next((r for r in ops["outputs"] if r is not None), None)
    for index, (args, result) in enumerate(zip(ops["inputs"], ops["outputs"])):
        if index in ops["raised"]:
            problems = [ops["raised"][index].strip().splitlines()[-1]]
        else:
            try:
                problems = workload.check(args, result, reference)
            except Exception:
                problems = [traceback.format_exc().strip().splitlines()[-1]]
        if problems:
            failed += 1
            errors += [f"op {index}: {p}" for p in problems]
    return failed, errors


def _replay(workload, ops: dict) -> bool | None:
    """Re-run op 0 once, untimed; its estimate must be bit-identical."""
    if workload.fingerprint is None or ops["outputs"][0] is None:
        return None
    again = workload.run(ops["inputs"][0])
    return workload.fingerprint(again) == workload.fingerprint(ops["outputs"][0])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = sys.stdout

    t0 = time.perf_counter_ns()
    import numpy

    t1 = time.perf_counter_ns()
    sys.path.insert(0, str(SRC))
    import hyperbell

    t2 = time.perf_counter_ns()
    if Path(hyperbell.__file__).resolve().parent != SRC / "hyperbell":
        print(f"worker: hyperbell imported from {hyperbell.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workload.warmup(args.seed)
    t3 = time.perf_counter_ns()
    _emit(out, "ready", ready_ns=time.monotonic_ns(),
          import_numpy_s=(t1 - t0) / 1e9, import_hyperbell_s=(t2 - t1) / 1e9,
          warmup_s=(t3 - t2) / 1e9)
    if args.setup_only:
        return 0

    tracer = None
    if args.traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        ops = _run_ops(workload, args.seed, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    failed, errors = _check(workload, ops)
    replay_ok = _replay(workload, ops)
    result = {
        "op_ns": ops["op_ns"],
        "gauge_ns": ops["gauge_ns"],
        "loop_ns": ops["loop_ns"],
        "attempted": len(ops["op_ns"]),
        "shots_per_op": workload.shots_per_op,
        "failed": failed,
        "errors": errors[:MAX_ERRORS],
        "replay_ok": replay_ok,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }
    if tracer is not None:
        bytes_out = [workload.output_bytes(r) if r is not None else 0 for r in ops["outputs"]]
        metrics, count_errors, largest = tracer.per_layer(ops["op_ns"], bytes_out)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}.npz"
        tracer.save(spans_path)
        result.update(per_layer=metrics, count_errors=count_errors, largest_self_span=largest,
                      spans_file=str(spans_path.relative_to(ROOT)))
    _emit(out, "result", **result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
