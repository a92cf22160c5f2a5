"""hyperbell benchmark: one workload, in fresh single-threaded worker processes.

    python3 perfbench/run.py --workload mc-deep --seed 1 --seconds 20 --trace 0

Workers run one at a time.  Set-up is timed from spawn to ready (interpreter,
``import hyperbell``, warm-up) in every worker and reported as a median.  Two
op workers each run the closed loop for half of ``--seconds``.  With
``--trace 0`` both are untraced and the end-to-end metrics are printed; with
``--trace 1`` the second is traced and the per-layer metrics are printed,
including the tracing overhead against the first.  Every op's output is
checked.  Metric names and units come from ``BENCHMARK.json``; the last stdout
line is the JSON result, and the full run record is written under
``.perfbench_out/``.

Op latency is gated as op_p50_rel, the median over ops of op time over the
time of the host-speed gauge (``gauge.py``) run right after the op.  On a
shared host, phases of contention lasting seconds to minutes shift op wall
times of whole runs by a fifth or more; they shift the gauge alike, so the
ratio moves by a few percent.  op_p50_ms is printed in the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import OUT_DIR, ROOT, SRC, THREAD_VARS

HERE = Path(__file__).resolve().parent
#: Set-up-only workers started before, between and after the two op workers,
#: so that set-up is sampled at three points of the run.
SETUP_PER_GROUP = 3
#: A run must end within 180 s; workers still running at this point are killed.
DEADLINE_S = 170.0
#: op_p90_ms is reported only with at least this many ops beyond it.
MIN_TAIL_OPS = 10


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    # Let bytecode be cached, as for an installed package, whatever the caller set.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _spawn(workload: str, seed: int, flags: list[str], deadline: float) -> dict:
    """Run one worker to completion; returns its events and spawn-to-ready time."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed), *flags]
    load_before = os.getloadavg()
    spawned_ns = time.monotonic_ns()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env=_worker_env()) as proc:
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {flags} did not finish before the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker {flags} exited with code {proc.returncode}")
    events = {}
    for line in stdout.splitlines():
        event = json.loads(line)
        events[event.pop("event")] = event
    if "ready" not in events:
        raise BenchError(f"worker {flags} never became ready")
    return {
        "flags": flags,
        "setup_s": (events["ready"]["ready_ns"] - spawned_ns) / 1e9,
        "ready": events["ready"],
        "result": events.get("result"),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }


def _op_stats(results: list[dict]) -> dict:
    """Latency, throughput and memory over the ops of one or more workers."""
    op_ms = [ns / 1e6 for r in results for ns in r["op_ns"]]
    gauge_ms = [ns / 1e6 for r in results for ns in r["gauge_ns"]]
    loop_s = sum(r["loop_ns"] for r in results) / 1e9 - sum(gauge_ms) / 1e3
    shots_per_op = results[0]["shots_per_op"]
    deciles = statistics.quantiles(op_ms, n=10)
    stats = {
        "op_p50_rel": statistics.median(op / g for op, g in zip(op_ms, gauge_ms)),
        "gauge_p50_ms": statistics.median(gauge_ms),
        "op_p50_ms": statistics.median(op_ms),
        "ops": len(op_ms),
        "ops_per_s": len(op_ms) / loop_s,
        "shots_per_op": shots_per_op,
        "shots_per_s": shots_per_op * len(op_ms) / loop_s,
        "peak_rss_mb": max(r["peak_rss_kb"] for r in results) / 1024.0,
    }
    stats["op_p90_beyond"] = sum(ms > deciles[-1] for ms in op_ms)
    if stats["op_p90_beyond"] >= MIN_TAIL_OPS:
        stats["op_p90_ms"] = deciles[-1]
    return stats


def _summary(args, setups, stats, workers) -> list[str]:
    lines = [f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
             f"trace {args.trace}"]
    lines.append(f"  setup_s      {statistics.median(setups):.4f} s   "
                 f"(median of {len(setups)} worker starts)")
    lines.append(f"  op_p50_rel   {stats['op_p50_rel']:.4f} gauge   "
                 f"(n={stats['ops']} ops; gauge p50 {stats['gauge_p50_ms']:.3f} ms)")
    lines.append(f"  op_p50_ms    {stats['op_p50_ms']:.3f} ms   (n={stats['ops']} ops)")
    if "op_p90_ms" in stats:
        lines.append(f"  op_p90_ms    {stats['op_p90_ms']:.3f} ms   "
                     f"(n={stats['ops']} ops, {stats['op_p90_beyond']} beyond)")
    else:
        lines.append(f"  op_p90_ms    omitted: {stats['op_p90_beyond']} ops beyond "
                     f"p90 of n={stats['ops']}, needs {MIN_TAIL_OPS}")
    lines.append(f"  ops_per_s    {stats['ops_per_s']:.4f} 1/s")
    if stats["shots_per_op"]:
        lines.append(f"  shots_per_s  {stats['shots_per_s']:.4g} 1/s   "
                     f"({stats['shots_per_op']} two-photon shots per op)")
    lines.append(f"  peak_rss_mb  {stats['peak_rss_mb']:.1f} MB")
    failed = sum(w["result"]["failed"] for w in workers if w["result"])
    attempted = sum(w["result"]["attempted"] for w in workers if w["result"])
    lines.append(f"  fail_frac    {failed / attempted:g}   ({failed} of {attempted} ops)")
    return lines


def _design_check(workload: str, traced: dict) -> str:
    """The property each workload was chosen for, read from the traced run."""
    frac, largest = traced["per_layer"]["trace.per_shot_frac"], traced["largest_self_span"]
    if workload == "mc-deep":
        return f"design mc-deep: per-shot spans cover {frac:.3f} of op time " \
               f"({'PASS' if frac >= 0.80 else 'FAIL'}, needs >= 0.80)"
    if workload == "mc-scan":
        return f"design mc-scan: per-shot spans cover {frac:.3f} of op time " \
               f"({'PASS' if frac < 0.25 else 'FAIL'}, needs < 0.25)"
    ok = largest == "lhv.contradiction_certificate"
    return f"design certify: largest self time is {largest} ({'PASS' if ok else 'FAIL'})"


def _select(computed: dict, expected: list[dict]) -> dict:
    """The metrics named in BENCHMARK.json, with their units; no more, no less."""
    names = [m["name"] for m in expected]
    if set(computed) != set(names):
        raise BenchError(f"metrics differ from BENCHMARK.json: "
                         f"missing {sorted(set(names) - set(computed))}, "
                         f"extra {sorted(set(computed) - set(names))}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in expected}


def run(args) -> tuple[dict, list[str], dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (SRC / "hyperbell" / "__init__.py").is_file():
        raise BenchError(f"no hyperbell package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S

    def setup_only():
        return [_spawn(args.workload, args.seed, ["--setup-only"], deadline)
                for _ in range(SETUP_PER_GROUP)]

    # Two op workers of half the run each; with --trace 1 the second is traced.
    half = ["--seconds", str(args.seconds / 2)]
    workers = setup_only()
    first = _spawn(args.workload, args.seed, half, deadline)
    workers += [first] + setup_only()
    second = _spawn(args.workload, args.seed, half + ["--traced"] * args.trace, deadline)
    workers += [second] + setup_only()

    setups = [w["setup_s"] for w in workers]
    stats = _op_stats([first["result"]] if args.trace else
                      [first["result"], second["result"]])
    per_layer = None
    notes = []
    if args.trace:
        traced_result = second["result"]
        per_layer = dict(traced_result["per_layer"])
        for key in ("import_numpy_s", "import_hyperbell_s", "warmup_s"):
            per_layer[f"setup.{key}"] = statistics.median(w["ready"][key] for w in workers)
        traced_p50 = _op_stats([traced_result])["op_p50_rel"]
        per_layer["trace.overhead_frac"] = traced_p50 / stats["op_p50_rel"] - 1.0
        notes.append(_design_check(args.workload, traced_result))
        notes += [f"count check: {e}" for e in traced_result["count_errors"]]

    results = [w["result"] for w in workers if w["result"] is not None]
    for r in results:
        notes += [f"failed {e}" for e in r["errors"]]
        if r["replay_ok"] is False:
            notes.append("replay of op 0 did not reproduce its estimate bit for bit")
    correct = all(
        r["failed"] == 0 and r["replay_ok"] is not False and not r.get("count_errors")
        for r in results
    )
    if args.trace:
        metrics = _select(per_layer, spec["per_layer"])
    else:
        metrics = _select(
            {"setup_s": statistics.median(setups),
             **{k: stats[k] for k in ("op_p50_rel", "peak_rss_mb")}},
            spec["end_to_end"],
        )
    output = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    lines = _summary(args, setups, stats, workers)
    if args.trace:
        lines += [f"  {name:<48} {m['value']:<12.6g} {m['unit']}" for name, m in metrics.items()]
    lines += notes
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": results[0]["python"], "numpy": results[0]["numpy"],
        "threads": results[0]["threads"],
        "stats": stats, "per_layer": per_layer,
        "workers": [{k: w[k] for k in ("flags", "setup_s", "ready",
                                       "loadavg_before", "loadavg_after")}
                    | {key: w["result"][key] if w["result"] else []
                       for key in ("op_ns", "gauge_ns")}
                    for w in workers],
        "result": output,
    }
    return output, lines, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperbell benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        output, lines, record = run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(f"record {path.relative_to(ROOT)}: loadavg "
          + " ".join(f"{w['loadavg_before'][0]:.2f}->{w['loadavg_after'][0]:.2f}"
                     for w in record["workers"]))
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
