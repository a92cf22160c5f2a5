"""Spans recorded from outside the program, by wrapping its public functions.

Each wrapper is installed on every name where a caller looks the function up
(``experiment.joint_distribution`` as well as ``optics.joint_distribution``,
``ConstraintRow.operator`` on the class), so calls between modules are seen.
A span holds its function, parent span, op id and ``perf_counter_ns`` start
and end; spans live in flat arrays in memory and are written out once, when
the run ends.  Self time is a span's duration minus its child spans.
"""

from __future__ import annotations

import functools
import statistics
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

import hyperbell
from hyperbell import cli, experiment, hilbert, lhv, observables, optics

_MODULES = (hyperbell, hilbert, observables, lhv, optics, experiment, cli)


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _work(fn):
    """Hooks for a per-call work measure computed from arguments and result."""
    return lambda original: (None, fn)


def _shots_arg(position: int, name: str):
    return _work(lambda args, kwargs, result, _: int(_arg(args, kwargs, position, name)))


def _array_size(position: int, name: str):
    return _work(
        lambda args, kwargs, result, _: int(np.asarray(_arg(args, kwargs, position, name)).size)
    )


def _bytes_per_shot(args, kwargs, result, _):
    """Computed, not measured: nbytes of the returned arrays over the shot count."""
    shots = int(_arg(args, kwargs, 3, "shots"))
    return sum(values.nbytes for values in result.values()) / shots


def _cache_misses(original):
    """1 when a call of an ``lru_cache`` function missed (a cold build), else 0."""

    def before():
        return original.cache_info().misses

    def work(args, kwargs, result, misses_before):
        return original.cache_info().misses - misses_before

    return before, work


#: (span name "<layer>.<fn>", owner, attribute, work hooks or None).
SPANS = (
    ("hilbert.basis_ket", hilbert, "basis_ket", None),
    ("hilbert.expectation", hilbert, "expectation", None),
    ("hilbert.apply", hilbert, "apply", None),
    ("observables.doubly_entangled_state", observables, "doubly_entangled_state", None),
    ("observables.row_operator", observables.ConstraintRow, "operator", None),
    ("observables.bell_mermin_operator", observables, "bell_mermin_operator", None),
    ("observables.verify_eigenequations", observables, "verify_eigenequations", None),
    ("lhv.contradiction_certificate", lhv, "contradiction_certificate", None),
    ("lhv.parity_argument", lhv, "parity_argument", None),
    ("optics.build_apparatus", optics, "build_apparatus", _cache_misses),
    ("optics.joint_distribution", optics, "joint_distribution", None),
    ("optics.pattern_values", optics, "pattern_values", _array_size(1, "detectors")),
    ("optics.bell_probabilities", optics, "bell_probabilities", None),
    ("optics.bell_histogram", optics, "bell_histogram", _shots_arg(1, "shots")),
    ("experiment.noisy_state", experiment, "noisy_state", None),
    ("experiment.exact_expectation", experiment, "exact_expectation", None),
    ("experiment.sample_pair_patterns", experiment, "sample_pair_patterns", _shots_arg(3, "shots")),
    ("experiment.sample_pair_values", experiment, "sample_pair_values", _work(_bytes_per_shot)),
    ("experiment.mean_and_std_error", experiment, "mean_and_std_error", _array_size(0, "samples")),
    ("experiment.estimate_rows", experiment, "estimate_rows", None),
    ("experiment.estimate_mermin", experiment, "estimate_mermin", None),
    ("experiment.visibility_sweep", experiment, "visibility_sweep", None),
    ("cli.main", cli, "main", None),
)

#: The per-call count of ConstraintRow.operator is reported as row builds.
_COUNT_NAMES = {"observables.row_operator": "builds_per_op"}

#: Spans whose work scales with the shot count (mc-deep's design check).
PER_SHOT_SPANS = (
    "experiment.sample_pair_patterns",
    "optics.pattern_values",
    "experiment.mean_and_std_error",
    "experiment.estimate_rows",
)

class Tracer:
    """Wraps the program's public functions and records one span per call."""

    def __init__(self):
        self.op = -1
        self.name_id = array("i")
        self.parent = array("q")
        self.op_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.work = array("d")
        self.assignments: dict[int, int] = defaultdict(int)  # op id -> LHV rows scanned
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS that the program still has.

        A function the program no longer defines is skipped; its metrics then
        read 0 calls, so the benchmark keeps running across refactors.
        """
        for index, (_, owner, attr, hooks) in enumerate(SPANS):
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, hooks)
            owners = [owner] if isinstance(owner, type) else _MODULES
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patch(target, key, wrapper)
        if hasattr(lhv, "enumerate_assignments"):
            self._patch(lhv, "enumerate_assignments", self._counted(lhv.enumerate_assignments))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, key, wrapper) -> None:
        self._patches.append((target, key, getattr(target, key)))
        setattr(target, key, wrapper)

    def _wrap(self, index: int, original, hooks):
        before, work = hooks(original) if hooks else (None, None)
        name_id, parent, op_id = self.name_id, self.parent, self.op_id
        start, end, worklog, stack = self.start, self.end, self.work, self._stack
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = len(start)
            name_id.append(index)
            parent.append(stack[-1] if stack else -1)
            op_id.append(tracer.op)
            end.append(0)
            worklog.append(0.0)
            token = before() if before else None
            stack.append(span)
            start.append(perf_counter_ns())
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = perf_counter_ns()
                stack.pop()
            if work:
                try:
                    worklog[span] = work(args, kwargs, result, token)
                except (AttributeError, KeyError, TypeError, ValueError, IndexError):
                    pass  # the call's signature or result changed; work reads 0
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(original, attr):
                setattr(wrapper, attr, getattr(original, attr))
        return wrapper

    def _counted(self, original):
        """Generator wrapper counting the LHV assignments one op scans."""
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op, scanned = tracer.op, 0
            try:
                for item in original(*args, **kwargs):
                    scanned += 1
                    yield item
            finally:
                tracer.assignments[op] += scanned

        return wrapper

    # -- output ---------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span, as flat arrays, to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array([name for name, *_ in SPANS]),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op_id, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.float64),
        )

    def per_layer(self, op_ns: list[int], bytes_out: list[int]) -> tuple[dict, list[str], str]:
        """Per-layer metrics, repeat-check failures, and the span of largest self time.

        ``op_ns`` is the wall time of each traced op; ``bytes_out`` the CLI
        stdout bytes each op produced.  Counts must be identical for every op.
        """
        n_ops = len(op_ns)
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        op = np.frombuffer(self.op_id, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        work = np.frombuffer(self.work, dtype=np.float64)
        nested = parent >= 0
        child_ns = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child_ns, parent[nested], dur[nested])
        self_ns = dur - child_ns

        metrics: dict[str, float] = {}
        errors: list[str] = []
        spans = {}
        for index, (name, *_) in enumerate(SPANS):
            mask = name_id == index
            calls_by_op = np.bincount(op[mask], minlength=n_ops)
            self_by_op = np.bincount(op[mask], weights=self_ns[mask], minlength=n_ops)
            spans[name] = (dur[mask], work[mask], self_ns[mask], op[mask])
            metrics[f"{name}.{_COUNT_NAMES.get(name, 'calls_per_op')}"] = _repeated(
                name + " calls", calls_by_op, errors
            )
            metrics[f"{name}.self_ms_per_op"] = statistics.median(self_by_op) / 1e6

        def ns_per_work(name):
            dur_, work_, *_ = spans[name]
            return float(dur_.sum() / work_.sum()) if work_.sum() else 0.0

        def per_call(name, scale):
            dur_ = spans[name][0]
            return float(dur_.mean() / scale) if len(dur_) else 0.0

        def median_call(name, scale):
            dur_ = spans[name][0]
            return float(np.median(dur_) / scale) if len(dur_) else 0.0

        total_op_ns = float(sum(op_ns))
        for name in ("experiment.sample_pair_patterns", "optics.pattern_values",
                     "experiment.mean_and_std_error", "optics.bell_histogram"):
            metrics[f"{name}.ns_per_shot"] = ns_per_work(name)
        metrics["experiment.sample_pair_patterns.busy_frac"] = (
            float(spans["experiment.sample_pair_patterns"][0].sum()) / total_op_ns
        )

        metrics["experiment.sample_pair_values.bytes_per_shot"] = _repeated(
            "sample_pair_values bytes per shot", spans["experiment.sample_pair_values"][1], errors
        )

        for name in ("optics.joint_distribution", "hilbert.basis_ket",
                     "experiment.exact_expectation"):
            metrics[f"{name}.us_per_call"] = per_call(name, 1e3)

        builds = metrics["observables.row_operator.builds_per_op"]
        rows = len(observables.CONSTRAINT_ROWS)
        metrics["observables.row_operator.useful_ratio"] = rows / builds if builds else 0.0

        scanned_by_op = [self.assignments.get(i, 0) for i in range(n_ops)]
        metrics["lhv.assignments_scanned_per_op"] = _repeated(
            "LHV assignments", scanned_by_op, errors
        )
        certificate_s = spans["lhv.contradiction_certificate"][0].sum() / 1e9
        metrics["lhv.assignments_per_s"] = (
            float(sum(scanned_by_op) / certificate_s) if certificate_s else 0.0
        )
        metrics["lhv.contradiction_certificate.ms"] = median_call("lhv.contradiction_certificate", 1e6)
        metrics["lhv.parity_argument.us"] = median_call("lhv.parity_argument", 1e3)
        metrics["observables.verify_eigenequations.ms"] = median_call(
            "observables.verify_eigenequations", 1e6
        )

        build_dur, build_miss, _, build_op = spans["optics.build_apparatus"]
        cold = build_dur[build_miss > 0]
        metrics["optics.build_apparatus.cold_ms"] = float(np.median(cold) / 1e6) if len(cold) else 0.0
        misses_by_op = np.bincount(build_op, weights=build_miss, minlength=n_ops)
        misses = _repeated("build_apparatus misses", misses_by_op, errors)
        calls = metrics["optics.build_apparatus.calls_per_op"]
        metrics["optics.build_apparatus.hit_ratio"] = (calls - misses) / calls if calls else 0.0

        metrics["cli.main.bytes_out_per_op"] = _repeated("CLI stdout bytes", bytes_out, errors)

        self_total = {name: float(s[2].sum()) for name, s in spans.items()}
        metrics["trace.per_shot_frac"] = (
            sum(self_total[name] for name in PER_SHOT_SPANS) / total_op_ns
        )
        return metrics, errors, max(self_total, key=self_total.get)


def _repeated(what: str, per_op, errors: list[str]) -> float:
    """The per-op count, which must be the same for every op; 0 without ops."""
    values = sorted(set(float(v) for v in per_op))
    if len(values) > 1:
        errors.append(f"{what} per op vary: {values}")
    return values[0] if values else 0.0
