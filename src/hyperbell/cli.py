"""Command-line front end: every verification and simulation as a scriptable run.

``_COMMANDS`` lists the six commands (verify, lhv, mermin, simulate, sweep,
bell), each with its help line, runner and renderers.  An input argparse
rejects is one ``hyperbell: error: <message>`` line and exit 2.  ``_check``
then passes every input once through the library's own check in ``inputs``
(an apparatus pair through ``optics``); its ``ValueError`` becomes the same
line and exit.  Only a runner that computes imports numpy and the modules
built on it, so ``lhv`` and a bad shots, seed, visibility or grid never load
numpy.  The runner returns the payload (the JSON-ready result) and the exit
code.  JSON is ``json.dumps(payload, indent=2)`` for every command; a text or
CSV renderer only formats its command's payload.

All randomness flows from --seed (default 12345, fixed, never entropy); a
given command line produces identical bytes on stdout and in --output files.
Exit codes: 0 success, 1 verification/oracle failure, 2 usage error.  Errors
raised after the check keep their tracebacks: they are not usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import inputs, lhv

OUTPUT_DIR_ENV = "HYPERBELL_OUTPUT_DIR"


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _json(payload) -> list[str]:
    return [json.dumps(payload, indent=2)]


def run_verify(args):
    from . import observables
    checks = observables.verify_eigenequations()
    payload = [{"id": c.id, "eigenvalue": c.eigenvalue, "residual": c.residual} for c in checks]
    return payload, int(not all(c.passed for c in checks))


def text_verify(payload) -> list[str]:
    from . import hilbert, observables
    checks = [observables.EigenCheck(**r) for r in payload]
    failed = [c.id for c in checks if not c.passed]
    return [
        "eigenequation check on the doubly entangled state",
        f"{'id':>2}  {'relation':<28}{'eigenvalue':>10}  {'residual':>10}  status",
        *(
            f"{c.id:>2}  {'.'.join(lhv.CONSTRAINTS[c.id - 1].variables):<28}"
            f"{c.eigenvalue:>+10d}  {c.residual:>10.3e}  {'PASS' if c.passed else 'FAIL'}"
            for c in checks
        ),
        f"FAILED rows: {failed} (residual >= {hilbert.ATOL:g})"
        if failed else f"all {len(checks)} relations hold (residual < {hilbert.ATOL:g})",
    ]


def run_lhv(args):
    c = lhv.contradiction_certificate()
    n = lhv.QUANTUM_VALUE  # scan against the coset bound, and the parity proof closing
    expected = (n - lhv.FEWEST_VIOLATED, lhv.LHV_BOUND, 2 * lhv.FEWEST_SATISFIED - n, +1)
    ok = (c.satisfied_max, c.mermin_max, c.mermin_min, c.parity_product) == expected
    return c.to_dict(), int(not ok)


def text_lhv(payload) -> list[str]:
    rows, witness = payload["rows"], payload["witness"]
    # The parity proof closes on the last row that y selects.
    closing = rows[payload["parity_rows"][-1] - 1]
    return [
        "local-hidden-variable certificate",
        f"  assignments scanned : {payload['assignments_scanned']}",
        f"  max satisfied       : {payload['satisfied_max']} of {len(rows)}",
        f"  max LHV value       : {payload['mermin_max']}",
        f"  min LHV value       : {payload['mermin_min']}",
        f"  quantum value       : {payload['quantum_value']}",
        f"  parity product      : {payload['parity_product']:+d} (constraint "
        f"{closing['id']} requires {closing['required_product']:+d})",
        "  witness assignment:",
        *(f"    v({name:<6}) = {witness[name]:+d}" for name in payload["element_order"]),
        "  per-constraint check at the witness:",
        *(
            f"    {row['id']}: {'.'.join(row['variables']):<28} "
            f"required {row['required_product']:+d}  got {row['witness_product']:+d}  "
            f"{'satisfied' if row['satisfied'] else 'violated'}"
            for row in rows
        ),
        f"max satisfied: {payload['satisfied_max']} of {len(rows)}; "
        f"max LHV value: {payload['mermin_max']}; quantum: {payload['quantum_value']}",
    ]


def run_mermin(args):
    from . import experiment
    # a one-point sweep is estimate_mermin at the same seed, with sweep's exact value
    point = experiment.visibility_sweep([args.visibility], args.shots, args.seed)[0]
    return {
        "visibility": args.visibility,
        "exact": point.exact,
        "estimate": point.estimate,
        "std_error": point.std_error,
        "shots_per_setting": args.shots,
        "seed": args.seed,
        "lhv_bound": float(lhv.LHV_BOUND),
        "violated": point.violated,
    }, 0


def text_mermin(payload) -> list[str]:
    return [
        f"visibility        : {_fmt(payload['visibility'])}",
        f"exact value       : {_fmt(payload['exact'])}",
        f"sampled estimate  : {_fmt(payload['estimate'])} "
        f"(std error {_fmt(payload['std_error'])})",
        f"shots per setting : {payload['shots_per_setting']}",
        f"seed              : {payload['seed']}",
        f"lhv bound         : {_fmt(payload['lhv_bound'])}",
        f"violated          : {payload['violated']}",
    ]


def run_simulate(args):
    from . import experiment
    pair, shots = args.apparatus_pair, args.shots
    estimates = experiment.estimate_pair(*pair, args.visibility, shots, args.seed)
    return {
        "apparatus_pair": pair,
        "visibility": args.visibility,
        "shots": shots,
        "seed": args.seed,
        "results": [{"quantity": q, "mean": m, "std_error": se} for q, m, se in estimates],
    }, 0


def text_simulate(payload) -> list[str]:
    a1_id, a2_id = payload["apparatus_pair"]
    return [
        f"apparatus pair ({a1_id}, {a2_id}); visibility {_fmt(payload['visibility'])}; "
        f"{payload['shots']} shots; seed {payload['seed']}",
        f"{'quantity':<24} {'mean':>13} {'std_err':>13}",
        *(
            f"{row['quantity']:<24} {_fmt(row['mean']):>13} {_fmt(row['std_error']):>13}"
            for row in payload["results"]
        ),
    ]


def csv_simulate(payload) -> list[str]:
    return ["quantity,mean,std_err,shots"] + [
        f"{row['quantity']},{_fmt(row['mean'])},{_fmt(row['std_error'])},{payload['shots']}"
        for row in payload["results"]
    ]


SWEEP_COLUMNS = ("v", "exact_O", "est_O", "std_err", "lhv_bound", "violated")


def sweep_rows(points) -> list[dict]:
    """JSON-ready rows of sweep points, keyed by ``SWEEP_COLUMNS``; None where not sampled."""
    return [dict(zip(SWEEP_COLUMNS, (p.visibility, p.exact, p.estimate, p.std_error,
                                     float(lhv.LHV_BOUND), p.violated))) for p in points]


def run_sweep(args):
    from . import experiment
    rows = sweep_rows(experiment.visibility_sweep(args.grid, args.shots, args.seed))
    return {"shots_per_setting": args.shots, "seed": args.seed, "rows": rows}, 0


def _sweep_cells(payload, missing: str) -> list:
    """The header and each row's cells; ``missing`` stands in for a value not sampled."""
    cells = [SWEEP_COLUMNS]
    for row in payload["rows"]:
        *numbers, violated = (row[column] for column in SWEEP_COLUMNS)
        cells.append([missing if x is None else _fmt(x) for x in numbers] + [violated])
    return cells


def text_sweep(payload) -> list[str]:
    # a space between cells, so a cell as wide as its column never fuses with the next
    widths = (14, 13, 13, 13, 9)
    return [" ".join(map(str.rjust, c, widths)) + f"  {c[-1]}" for c in _sweep_cells(payload, "-")]


def csv_sweep(payload) -> list[str]:
    """CSV table with a header row, period decimals, locale independent."""
    return [",".join(cells) for cells in _sweep_cells(payload, "")]


def run_bell(args):
    import numpy as np
    from . import hilbert, observables, optics
    rng = np.random.default_rng(args.seed)
    if args.state == "random":
        raw = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = hilbert.StateVector(raw / np.linalg.norm(raw))
    else:
        state = observables.build_bell_states("pol-path")[args.state]
    return {
        "state": args.state,
        "shots": args.shots,
        "seed": args.seed,
        "counts": optics.bell_histogram(state, args.shots, rng),
        "exact_probabilities": optics.bell_probabilities(state),
    }, 0


def text_bell(payload) -> list[str]:
    probabilities = payload["exact_probabilities"]
    return [
        f"input state : {payload['state']}",
        f"shots       : {payload['shots']}",
        "label        counts      exact probability",
        *(f"{k:<8}{n:>11}{_fmt(probabilities[k]):>23}" for k, n in payload["counts"].items()),
    ]


#: Command -> (help, runner, renderer per --format, input flags).  The first
#: format is the default.
_COMMANDS = {
    "verify": ("check the nine eigenvalue relations", run_verify,
               {"text": text_verify, "json": _json}, ()),
    "lhv": ("exhaustive local-hidden-variable certificate", run_lhv,
            {"text": text_lhv, "json": _json}, ()),
    "mermin": ("exact and sampled Bell-Mermin value", run_mermin,
               {"text": text_mermin, "json": _json}, ("shots", "seed", "visibility")),
    "simulate": ("sampled correlations for one apparatus pair", run_simulate,
                 {"text": text_simulate, "json": _json, "csv": csv_simulate},
                 ("apparatus-pair", "shots", "seed", "visibility")),
    "sweep": ("visibility sweep of the Bell-Mermin value", run_sweep,
              {"csv": csv_sweep, "text": text_sweep, "json": _json}, ("grid", "shots", "seed")),
    "bell": ("Bell-state discrimination histogram", run_bell,
             {"text": text_bell, "json": _json}, ("state", "shots", "seed")),
}

_FLAGS = {
    "shots": dict(type=int, default=inputs.DEFAULT_SHOTS),
    "seed": dict(type=int, default=inputs.DEFAULT_SEED),
    "visibility": dict(type=float, default=1.0),
    "apparatus-pair": dict(nargs=2, type=int, required=True, metavar=("A1", "A2"),
                           help="photon-1 apparatus id and photon-2 apparatus id"),
    "grid": dict(nargs="+", type=float, default=inputs.DEFAULT_GRID,
                 help="visibility grid points in [0, 1]"),
    "state": dict(choices=(*inputs.BELL_LABELS, "random"), default="phi+"),
}


#: Each character ``str.splitlines`` breaks at, escaped as ``repr`` writes it.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


class _Parser(argparse.ArgumentParser):
    """An argparse parser, and the class of its subparsers, whose usage errors are one line."""

    def error(self, message: str):
        # "unrecognized arguments" quotes argv as typed, so escape its line breaks
        self.exit(2, f"hyperbell: error: {message.translate(_LINE_BREAKS)}\n")


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` never mutates it."""
    parser = _Parser(prog="hyperbell", description=(
        "Two-photon polarization-path all-versus-nothing Bell test: exact verification, "
        "local-hidden-variable scan, and linear-optics measurement simulation."))
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, renderers, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.add_argument("--format", choices=list(renderers), default=next(iter(renderers)))
        p.add_argument("--output", metavar="PATH", help="also write the output to PATH "
                       f"(relative paths resolve against ${OUTPUT_DIR_ENV})")
    return parser


def _check(args: argparse.Namespace) -> None:
    """Pass each input through the library's own check; raises its ``ValueError``."""
    if "shots" in args and args.command == "sweep":
        inputs._sweep_shot_count(args.shots)
    elif "shots" in args:
        # A standard error needs two shots; bell reports counts only.
        inputs._shot_count(args.shots, 1 if args.command == "bell" else 2)
    if "seed" in args:
        inputs._seed(args.seed)
    if "visibility" in args:
        args.visibility = inputs._visibility(args.visibility)
    if "grid" in args:
        inputs._visibilities(args.grid)
    if "apparatus_pair" in args:
        from . import optics
        optics._check_sides(*map(optics.build_apparatus, args.apparatus_pair))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check(args)
    except ValueError as exc:
        print(f"hyperbell: error: {exc}", file=sys.stderr)
        return 2
    _, run, renderers, _ = _COMMANDS[args.command]
    payload, code = run(args)
    text = "\n".join(renderers[args.format](payload)) + "\n"
    if args.output is not None:
        # join keeps an absolute path as it is
        path = os.path.join(os.environ.get(OUTPUT_DIR_ENV) or "", args.output)
        try:
            with open(path, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except (OSError, ValueError) as exc:  # ValueError: open() refuses a NUL byte
            reason = getattr(exc, "strerror", None) or exc
            print(f"hyperbell: error: cannot write {path}: {reason}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return code
