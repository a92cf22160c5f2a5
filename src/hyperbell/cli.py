"""Command-line front end: every verification and simulation as a scriptable run.

Commands
  verify    check the nine eigenvalue relations exactly
  lhv       exhaustive local-hidden-variable scan and parity certificate
  mermin    exact and sampled Bell-Mermin value at a given visibility
  simulate  sampled correlations for one apparatus pair
  sweep     visibility sweep table (CSV by default)
  bell      polarization-path Bell-state discrimination histogram

All randomness flows from --seed (default 12345, fixed, never entropy); a
given command line produces identical bytes on stdout and in --output files.
Exit codes: 0 success, 1 verification/oracle failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import experiment, lhv, observables, optics
from .hilbert import ATOL, StateVector

OUTPUT_DIR_ENV = "HYPERBELL_OUTPUT_DIR"

_TABULAR_COMMANDS = ("simulate", "sweep")

#: Commands that report a standard error, which needs at least two shots.
_SE_COMMANDS = ("mermin", "simulate", "sweep")


@dataclass(frozen=True)
class RunConfig:
    """One reproducible run: command, sampling parameters, output contract."""

    command: str
    shots: int = experiment.DEFAULT_SHOTS
    seed: int = experiment.DEFAULT_SEED
    visibility: float = 1.0
    format: str = "text"
    output_path: str | None = None
    apparatus_pair: tuple[int, int] | None = None
    grid: tuple[float, ...] = field(default=experiment.DEFAULT_GRID)
    state: str = "phi+"

    def __post_init__(self):
        min_shots = 2 if self.command in _SE_COMMANDS else 1
        if not min_shots <= self.shots <= experiment.MAX_SHOTS:
            raise ValueError(
                f"shots must lie in [{min_shots}, 2**63 - 1] for '{self.command}'"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit nonnegative integer")
        experiment.NoiseModel(self.visibility)  # the one visibility check
        if self.format == "csv" and self.command not in _TABULAR_COMMANDS:
            raise ValueError(f"csv format is not available for '{self.command}'")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


class OutputError(Exception):
    """The --output file could not be written; reported as a usage error."""


def _emit(text: str, config: RunConfig) -> None:
    if config.output_path is not None:
        path = config.output_path
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base and not os.path.isabs(path):
            path = os.path.join(base, path)
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
    sys.stdout.write(text)


def _emit_json(payload, config: RunConfig) -> None:
    _emit(json.dumps(payload, indent=2) + "\n", config)


# -- verify -------------------------------------------------------------------


def cmd_verify(config: RunConfig) -> int:
    checks = observables.verify_eigenequations()
    if config.format == "json":
        payload = [
            {"id": c.id, "eigenvalue": c.eigenvalue, "residual": c.residual}
            for c in checks
        ]
        _emit_json(payload, config)
    else:
        lines = ["eigenequation check on the doubly entangled state"]
        lines.append(f"{'id':>2}  {'relation':<28}{'eigenvalue':>10}  "
                     f"{'residual':>10}  status")
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{c.id:>2}  {c.label:<28}{c.eigenvalue:>+10d}  "
                f"{c.residual:>10.3e}  {status}"
            )
        failed = [c.id for c in checks if not c.passed]
        if failed:
            lines.append(f"FAILED rows: {failed} (residual >= {ATOL:g})")
        else:
            lines.append(f"all 9 relations hold (residual < {ATOL:g})")
        _emit("\n".join(lines) + "\n", config)
    return 0 if all(c.passed for c in checks) else 1


# -- lhv ------------------------------------------------------------------------


def cmd_lhv(config: RunConfig) -> int:
    certificate = lhv.contradiction_certificate()
    if config.format == "json":
        _emit_json(certificate.to_dict(), config)
    else:
        summary = (
            f"max satisfied: {certificate.satisfied_max} of 9; "
            f"max LHV value: {certificate.mermin_max}; "
            f"quantum: {lhv.QUANTUM_VALUE}"
        )
        _emit(certificate.to_text() + "\n" + summary + "\n", config)
    ok = (
        certificate.satisfied_max == 8
        and certificate.mermin_max == lhv.LHV_BOUND
        and certificate.parity_product == +1
    )
    return 0 if ok else 1


# -- mermin ---------------------------------------------------------------------


def cmd_mermin(config: RunConfig) -> int:
    exact = experiment.exact_expectation("O", experiment.noisy_state(config.visibility))
    sampled = experiment.estimate_mermin(config.shots, config.visibility, config.seed)
    if config.format == "json":
        payload = {
            "visibility": config.visibility,
            "exact": exact,
            "estimate": sampled.estimate,
            "std_error": sampled.std_error,
            "shots_per_setting": config.shots,
            "seed": config.seed,
            "lhv_bound": float(lhv.LHV_BOUND),
            "violated": experiment.violation_flag(exact),
        }
        _emit_json(payload, config)
    else:
        lines = [
            f"visibility        : {_fmt(config.visibility)}",
            f"exact value       : {_fmt(exact)}",
            f"sampled estimate  : {_fmt(sampled.estimate)} "
            f"(std error {_fmt(sampled.std_error)})",
            f"shots per setting : {config.shots}",
            f"seed              : {config.seed}",
            f"lhv bound         : {lhv.LHV_BOUND}",
            f"violated          : {experiment.violation_flag(exact)}",
        ]
        _emit("\n".join(lines) + "\n", config)
    return 0


# -- simulate ---------------------------------------------------------------------


def cmd_simulate(config: RunConfig) -> int:
    estimates = experiment.estimate_pair(
        *config.apparatus_pair, config.visibility, config.shots, config.seed
    )
    results = [
        {"quantity": name, "mean": mean, "std_error": se}
        for name, mean, se in estimates
    ]
    if config.format == "json":
        payload = {
            "apparatus_pair": list(config.apparatus_pair),
            "visibility": config.visibility,
            "shots": config.shots,
            "seed": config.seed,
            "results": results,
        }
        _emit_json(payload, config)
    elif config.format == "csv":
        lines = ["quantity,mean,std_err,shots"]
        for row in results:
            lines.append(
                f"{row['quantity']},{_fmt(row['mean'])},"
                f"{_fmt(row['std_error'])},{config.shots}"
            )
        _emit("\n".join(lines) + "\n", config)
    else:
        a1_id, a2_id = config.apparatus_pair
        lines = [
            f"apparatus pair ({a1_id}, {a2_id}); visibility "
            f"{_fmt(config.visibility)}; {config.shots} shots; seed {config.seed}",
            f"{'quantity':<24}{'mean':>14}{'std_err':>14}",
        ]
        for row in results:
            lines.append(
                f"{row['quantity']:<24}{_fmt(row['mean']):>14}"
                f"{_fmt(row['std_error']):>14}"
            )
        _emit("\n".join(lines) + "\n", config)
    return 0


# -- sweep ------------------------------------------------------------------------


def cmd_sweep(config: RunConfig) -> int:
    points = experiment.visibility_sweep(config.grid, config.shots, config.seed)
    if config.format == "json":
        payload = {
            "shots_per_setting": config.shots,
            "seed": config.seed,
            "rows": experiment.sweep_table(points),
        }
        _emit_json(payload, config)
    elif config.format == "text":
        lines = [
            f"{'v':>14}{'exact_O':>14}{'est_O':>14}{'std_err':>14}"
            f"{'lhv_bound':>10}  violated"
        ]
        for p in points:
            est = _fmt(p.estimate) if p.estimate is not None else "-"
            err = _fmt(p.std_error) if p.std_error is not None else "-"
            lines.append(
                f"{_fmt(p.visibility):>14}{_fmt(p.exact):>14}{est:>14}"
                f"{err:>14}{_fmt(p.lhv_bound):>10}  {p.violated}"
            )
        _emit("\n".join(lines) + "\n", config)
    else:
        _emit(experiment.sweep_csv(points), config)
    return 0


# -- bell -------------------------------------------------------------------------


def _bell_input_state(name: str, rng: np.random.Generator) -> StateVector:
    if name == "random":
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return StateVector(raw / np.linalg.norm(raw))
    return observables.build_bell_states("pol-path")[name]


def cmd_bell(config: RunConfig) -> int:
    rng = np.random.default_rng(config.seed)
    state = _bell_input_state(config.state, rng)
    probs = optics.bell_probabilities(state)
    counts = optics.bell_histogram(state, config.shots, rng)
    if config.format == "json":
        payload = {
            "state": config.state,
            "shots": config.shots,
            "seed": config.seed,
            "counts": counts,
            "exact_probabilities": probs,
        }
        _emit_json(payload, config)
    else:
        lines = [
            f"input state : {config.state}",
            f"shots       : {config.shots}",
            "label        counts      exact probability",
        ]
        for label in optics.BELL_LABELS:
            lines.append(f"{label:<8}{counts[label]:>11}{_fmt(probs[label]):>23}")
        _emit("\n".join(lines) + "\n", config)
    return 0


# -- argument parsing ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperbell",
        description=(
            "Two-photon polarization-path all-versus-nothing Bell test: "
            "exact verification, local-hidden-variable scan, and "
            "linear-optics measurement simulation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, formats, shots=False, seed=False, visibility=False):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--output", default=None, metavar="PATH",
                       help=f"also write the output to PATH (relative paths "
                            f"resolve against ${OUTPUT_DIR_ENV})")
        if shots:
            p.add_argument("--shots", type=int, default=experiment.DEFAULT_SHOTS)
        if seed:
            p.add_argument("--seed", type=int, default=experiment.DEFAULT_SEED)
        if visibility:
            p.add_argument("--visibility", type=float, default=1.0)

    p = sub.add_parser("verify", help="check the nine eigenvalue relations")
    add_common(p, ("text", "json"))

    p = sub.add_parser("lhv", help="exhaustive local-hidden-variable certificate")
    add_common(p, ("text", "json"))

    p = sub.add_parser("mermin", help="exact and sampled Bell-Mermin value")
    add_common(p, ("text", "json"), shots=True, seed=True, visibility=True)

    p = sub.add_parser("simulate", help="sampled correlations for one apparatus pair")
    p.add_argument("--apparatus-pair", nargs=2, type=int, required=True,
                   metavar=("A1", "A2"),
                   help="photon-1 apparatus id and photon-2 apparatus id")
    add_common(p, ("text", "json", "csv"), shots=True, seed=True, visibility=True)

    p = sub.add_parser("sweep", help="visibility sweep of the Bell-Mermin value")
    p.add_argument("--grid", nargs="+", type=float, default=None,
                   help="visibility grid points in [0, 1]")
    add_common(p, ("csv", "text", "json"), shots=True, seed=True)

    p = sub.add_parser("bell", help="Bell-state discrimination histogram")
    p.add_argument("--state", choices=(*optics.BELL_LABELS, "random"),
                   default="phi+")
    add_common(p, ("text", "json"), shots=True, seed=True)

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    kwargs = {
        "command": args.command,
        "format": args.format,
        "output_path": args.output,
    }
    if hasattr(args, "shots"):
        kwargs["shots"] = args.shots
    if hasattr(args, "seed"):
        kwargs["seed"] = args.seed
    if hasattr(args, "visibility"):
        kwargs["visibility"] = args.visibility
    if getattr(args, "apparatus_pair", None) is not None:
        kwargs["apparatus_pair"] = tuple(args.apparatus_pair)
    if getattr(args, "grid", None) is not None:
        kwargs["grid"] = tuple(args.grid)
    if hasattr(args, "state"):
        kwargs["state"] = args.state
    return RunConfig(**kwargs)


_COMMANDS = {
    "verify": cmd_verify,
    "lhv": cmd_lhv,
    "mermin": cmd_mermin,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "bell": cmd_bell,
}


def _usage_error(message: str) -> int:
    print(f"hyperbell: error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _build_config(args)
    except ValueError as exc:
        return _usage_error(str(exc))

    if config.command == "simulate":
        a1_id, a2_id = config.apparatus_pair
        if not (1 <= a1_id <= 6 and 1 <= a2_id <= 6):
            return _usage_error("apparatus ids must lie in 1..6")
        if optics.build_apparatus(a1_id).photon != 1:
            return _usage_error(
                f"apparatus {a1_id} acts on photon "
                f"{optics.build_apparatus(a1_id).photon}; the first id must "
                f"be a photon-1 apparatus (1, 3 or 5)"
            )
        if optics.build_apparatus(a2_id).photon != 2:
            return _usage_error(
                f"apparatus {a2_id} acts on photon "
                f"{optics.build_apparatus(a2_id).photon}; the second id must "
                f"be a photon-2 apparatus (2, 4 or 6)"
            )
    if config.command == "sweep":
        bad = [v for v in config.grid if not 0.0 <= v <= 1.0]
        if bad:
            return _usage_error(f"grid values outside [0, 1]: {bad}")

    try:
        return _COMMANDS[config.command](config)
    except OutputError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
