"""The three benchmark workloads: inputs from the workload seed, the op, its check.

Every workload is a closed loop with one client: the next op starts when the
previous one returns.  Inputs and child seeds are derived here from the
workload seed with ``numpy.random.SeedSequence``, so the program under test
only ever receives generated values and the same seed gives the same inputs.

* ``mc-deep``  -- per-shot sampling dominates (1.35e6 two-photon shots per op).
* ``mc-scan``  -- many small sampling calls, so per-call set-up dominates.
* ``certify``  -- the exact checks behind the headline numbers; almost no
  Monte Carlo, the 4096-assignment LHV scan is the largest span.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from hyperbell import cli, experiment, hilbert, lhv, observables, optics

#: Seed streams under the workload seed; op i of stream s uses spawn key (s, i).
OP_STREAM = 0
WARMUP_STREAM = 1

#: Tolerance of an exact value against its closed form (9V, 9, ...).
EXACT_ATOL = 1e-9
#: A sampled estimate must lie within this many standard errors of 9V.  An
#: mc-scan run checks about 5000 estimates: at 5 SE even exact Gaussian errors
#: would fail one of them in about one run in 350, at 6 SE in one in 10^5.
SE_TOLERANCE = 6.0
#: Residual bound of the nine eigenvalue relations.
RESIDUAL_BOUND = 1e-12


def op_rng(seed: int, stream: int, index: int) -> np.random.Generator:
    """Generator for one op, independent of how many ops a run reaches."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))


def child_seed(rng: np.random.Generator) -> int:
    """A 63-bit integer seed handed to the program, as a CLI user would pass it."""
    return int(rng.integers(0, 2**63))


def _check_point(v: float, exact: float, estimate, std_error, shots: int) -> list[str]:
    """Exact value 9V and, when sampled, |estimate - 9V| <= 6 SE.

    SE is the reported standard error, but no less than the model's
    sqrt(9 (1 - V^2) / shots): every row is a +-1 variable of mean +-V.  At
    100 shots the sample SE comes out small exactly when the estimate is far
    off, which alone failed about one point in 50 000.
    """
    errors = []
    if abs(exact - 9.0 * v) > EXACT_ATOL:
        errors.append(f"V={v!r}: exact {exact!r} != 9V")
    if estimate is not None:
        se = max(std_error, math.sqrt(9.0 * (1.0 - v * v) / shots))
        if abs(estimate - 9.0 * v) > SE_TOLERANCE * se:
            errors.append(
                f"V={v!r}: estimate {estimate!r} is more than "
                f"{SE_TOLERANCE:g} SE ({se!r}) from 9V"
            )
    return errors


def _expected_flag(exact: float) -> str:
    if abs(exact - lhv.LHV_BOUND) <= experiment.BOUNDARY_ATOL:
        return "boundary"
    return "yes" if exact > lhv.LHV_BOUND else "no"


def _check_sweep(points, grid, shots: int) -> list[str]:
    errors = []
    if [p.visibility for p in points] != [float(v) for v in grid]:
        errors.append("sweep grid does not match its input")
    for p in points:
        errors += _check_point(p.visibility, p.exact, p.estimate, p.std_error, shots)
        if p.violated != _expected_flag(p.exact):
            errors.append(f"V={p.visibility!r}: violated={p.violated!r}")
    return errors


class McDeep:
    """One op: ``estimate_mermin(150_000, V)``, V cycling over 0.8, 0.9, 1.0.

    Per-shot work is over 90 % of an op and peak RSS grows with the shot
    count.  An op is short enough (about 0.2 s) that a run holds over a
    hundred ops.
    """

    name = "mc-deep"
    shots_per_setting = 150_000
    visibilities = (0.8, 0.9, 1.0)
    #: Ops run in whole V cycles, so the median always sees each V equally.
    cycle = len(visibilities)
    shots_per_op = 9 * shots_per_setting

    def inputs(self, seed: int, index: int):
        rng = op_rng(seed, OP_STREAM, index)
        return self.visibilities[index % self.cycle], child_seed(rng)

    def run(self, inputs):
        v, seed = inputs
        return experiment.estimate_mermin(self.shots_per_setting, v, seed)

    def warmup(self, seed: int) -> None:
        experiment.estimate_mermin(1000, 0.9, child_seed(op_rng(seed, WARMUP_STREAM, 0)))

    def check(self, inputs, result, reference) -> list[str]:
        v, _ = inputs
        exact = experiment.exact_expectation("O", experiment.noisy_state(v))
        return _check_point(v, exact, result.estimate, result.std_error,
                            self.shots_per_setting)

    def fingerprint(self, result):
        return result.estimate, result.std_error

    def output_bytes(self, result) -> int:
        return 0


class McScan:
    """One op: ``visibility_sweep(grid, 100, seed)`` on a fresh 21-point grid.

    The grid is drawn per op from [0.70, 0.90], so it straddles 7/9 and no
    cache keyed on V can reuse results across ops.  At 100 shots per setting
    the per-shot spans hold about a fifth of the op; at 1000 they held about a
    third, because their self time also carries per-call work.
    """

    name = "mc-scan"
    shots_per_setting = 100
    points = 21
    low, high = 0.70, 0.90
    cycle = 1
    shots_per_op = points * 9 * shots_per_setting

    def inputs(self, seed: int, index: int):
        rng = op_rng(seed, OP_STREAM, index)
        grid = tuple(sorted(float(v) for v in rng.uniform(self.low, self.high, self.points)))
        return grid, child_seed(rng)

    def run(self, inputs):
        grid, seed = inputs
        return experiment.visibility_sweep(grid, self.shots_per_setting, seed)

    def warmup(self, seed: int) -> None:
        rng = op_rng(seed, WARMUP_STREAM, 0)
        grid = sorted(float(v) for v in rng.uniform(self.low, self.high, 3))
        experiment.visibility_sweep(grid, self.shots_per_setting, child_seed(rng))

    def check(self, inputs, result, reference) -> list[str]:
        grid, _ = inputs
        return _check_sweep(result, grid, self.shots_per_setting)

    def fingerprint(self, result):
        return [(p.estimate, p.std_error) for p in result]

    def output_bytes(self, result) -> int:
        return 0


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def _residuals(verify_text: str) -> list[tuple[float, str]]:
    """(residual, status) of each relation row in the ``verify`` text table."""
    rows = []
    for line in verify_text.splitlines()[2:]:
        fields = line.split()
        if fields and fields[0].isdigit():
            rows.append((float(fields[-2]), fields[-1]))
    return rows


class Certify:
    """One op reproduces the acceptance headline numbers, almost all exact.

    ``verify`` and ``lhv --format json`` through the CLI, all six apparatuses
    rebuilt cold, <Psi|O|Psi> = 9, the exact-only default sweep, and Bell
    discrimination at 10^4 shots on each pol-path Bell state.
    """

    name = "certify"
    bell_shots = 10**4
    cycle = 1
    shots_per_op = 0

    def inputs(self, seed: int, index: int):
        return child_seed(op_rng(seed, OP_STREAM, index))

    def run(self, bell_seed):
        verify = _run_cli(["verify"])
        certificate = _run_cli(["lhv", "--format", "json"])
        optics.build_apparatus.cache_clear()
        apparatuses = [optics.build_apparatus(i) for i in range(1, 7)]
        mermin = hilbert.expectation(
            observables.bell_mermin_operator().realization,
            observables.doubly_entangled_state(),
        )
        sweep = experiment.visibility_sweep(experiment.DEFAULT_GRID, 0)
        rng = np.random.default_rng(bell_seed)
        bells = observables.build_bell_states("pol-path")
        histograms = {
            label: optics.bell_histogram(bells[label], self.bell_shots, rng)
            for label in optics.BELL_LABELS
        }
        return {
            "verify": verify,
            "lhv": certificate,
            "apparatus_ids": [a.id for a in apparatuses],
            "mermin": mermin,
            "sweep": sweep,
            "histograms": histograms,
        }

    def warmup(self, seed: int) -> None:
        self.run(child_seed(op_rng(seed, WARMUP_STREAM, 0)))

    def check(self, inputs, result, reference) -> list[str]:
        errors = []
        code, text = result["verify"]
        residuals = _residuals(text)
        if code != 0 or len(residuals) != 9:
            errors.append(f"verify: exit {code}, {len(residuals)} relation rows")
        if any(r >= RESIDUAL_BOUND or status != "PASS" for r, status in residuals):
            errors.append(f"verify: residuals {residuals}")

        code, text = result["lhv"]
        payload = json.loads(text)
        expected = {"satisfied_max": 8, "mermin_max": 7, "mermin_min": -9,
                    "parity_product": 1, "assignments_scanned": 4096}
        got = {key: payload.get(key) for key in expected}
        if code != 0 or got != expected:
            errors.append(f"lhv: exit {code}, {got}")

        if result["apparatus_ids"] != [1, 2, 3, 4, 5, 6]:
            errors.append(f"apparatus ids {result['apparatus_ids']}")
        if abs(result["mermin"] - lhv.QUANTUM_VALUE) > RESIDUAL_BOUND:
            errors.append(f"<Psi|O|Psi> = {result['mermin']!r}")

        errors += _check_sweep(result["sweep"], experiment.DEFAULT_GRID, shots=0)
        flags = {p.visibility: p.violated for p in result["sweep"]}
        if flags.get(7.0 / 9.0) != "boundary":
            errors.append("default sweep does not flag 7/9 as boundary")

        for label, counts in result["histograms"].items():
            if counts.get(label) != self.bell_shots:
                errors.append(f"bell {label}: {counts}")

        # Stdout bytes are compared with the first op of the same run, never
        # with a stored hash, so a deliberate output change is not a failure.
        if result["verify"][1] != reference["verify"][1]:
            errors.append("verify stdout differs from the first op")
        if result["lhv"][1] != reference["lhv"][1]:
            errors.append("lhv stdout differs from the first op")
        return errors

    fingerprint = None

    def output_bytes(self, result) -> int:
        return sum(len(text.encode()) for _, text in (result["verify"], result["lhv"]))


WORKLOADS = {w.name: w for w in (McDeep(), McScan(), Certify())}
