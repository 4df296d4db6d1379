"""Command-line interface with deterministic, machine-readable output.

Commands: rho, speed, sweep, simulate, check-condition, pipes. Output is
line-oriented CSV (fixed header, a field quoted only if it holds a comma)
or one JSON object per line; all floats are printed with 12 significant
digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from .offspring import LawError, SupportCapError, parse_law
from .percolation import ConvergenceError, ModelError, PercolatedModel, rho_derivative
from .simulate import SimulationError, estimate_speed, simulate_pipes
from .speed import InternalInconsistency, check_condition, cluster_speed, pipes_speed, sweep

DEFAULTS = dict(horizon=10**5, replicas=200, seed=42, format="csv")
# input bound: a --p-grid is one list of at most that many floats
MAX_GRID_POINTS = 10**5


class CliError(ValueError):
    """Bad command-line input; maps to exit code 1."""


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        for row in rows:
            rounded = {k: float(_fmt(v)) if isinstance(v, float) else v
                       for k, v in row.items()}
            print(json.dumps(rounded), file=out)
    else:
        writer = csv.writer(out, lineterminator="\n")
        if rows:
            writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(_fmt(v) for v in row.values())


def _parse_grid(text: str) -> list[float]:
    try:
        start_s, stop_s, step_s = text.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise CliError(f"--p-grid must be start:stop:step, got {text!r}") from exc
    if not step > 0:
        raise CliError("--p-grid step must be positive")
    span = (stop + 1e-12 - start) / step
    if not span < MAX_GRID_POINTS:
        raise CliError(f"--p-grid {text!r} has more than {MAX_GRID_POINTS} points")
    points = (start + i * step for i in range(int(span) + 2))
    grid = [min(p, stop) for p in points if p <= stop + 1e-12]
    if not grid:
        raise CliError(f"--p-grid {text!r} is empty")
    return grid


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="gwspeed",
        description="Speed of the simple random walk on percolated Galton-Watson trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p_required=True, law_required=True):
        if law_required:
            sp.add_argument("--law", required=True,
                            help="offspring law: geometric:<a> | poisson:<mu> | "
                                 "binomial:<n>,<q> | pmf:<w0>,<w1>,...")
        if p_required:
            sp.add_argument("--p", type=float, required=True,
                            help="retaining probability")
        sp.add_argument("--format", choices=["csv", "json"], default=DEFAULTS["format"])

    sp = sub.add_parser("rho", help="extinction probability and derivative")
    common(sp)

    sp = sub.add_parser("speed", help="one analytic speed-curve row")
    common(sp)

    sp = sub.add_parser("sweep", help="speed curve over a p grid")
    common(sp, p_required=False)
    sp.add_argument("--p-grid", required=True, help="start:stop:step")

    sp = sub.add_parser("simulate", help="Monte Carlo estimate vs analytic speed")
    common(sp)
    sp.add_argument("--horizon", type=int, default=DEFAULTS["horizon"])
    sp.add_argument("--replicas", type=int, default=DEFAULTS["replicas"])
    sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])

    sp = sub.add_parser("check-condition", help="monotonicity condition on the law")
    common(sp, p_required=False)

    sp = sub.add_parser("pipes", help="binary tree with pipes: closed form speed")
    common(sp, law_required=False)
    sp.add_argument("--simulate", action="store_true",
                    help="add a Monte Carlo estimate and z-score")
    sp.add_argument("--horizon", type=int, default=DEFAULTS["horizon"])
    sp.add_argument("--replicas", type=int, default=DEFAULTS["replicas"])
    sp.add_argument("--seed", type=int, default=DEFAULTS["seed"])
    return parser


def _cmd_rho(args) -> list[dict]:
    law = parse_law(args.law)
    model = PercolatedModel(law, args.p)
    return [dict(p=args.p, rho=model.rho, **{"lambda": model.lam},
                 drho_dp=rho_derivative(model))]


def _row_from_point(pt) -> dict:
    return {
        "p": pt.p,
        "rho": pt.rho,
        "lambda": pt.lam,
        "backbone_speed": pt.backbone_speed,
        "cluster_speed": pt.cluster_speed,
        "mean_delay": pt.mean_delay,
        "condition_ok": pt.condition_ok,
    }


def _cmd_speed(args) -> list[dict]:
    law = parse_law(args.law)
    return [_row_from_point(pt) for pt in sweep(law, [args.p])]


def _cmd_sweep(args) -> list[dict]:
    law = parse_law(args.law)
    return [_row_from_point(pt) for pt in sweep(law, _parse_grid(args.p_grid))]


def _cmd_simulate(args) -> list[dict]:
    law = parse_law(args.law)
    model = PercolatedModel(law, args.p)
    analytic = cluster_speed(model)
    est = estimate_speed(model, args.horizon, args.replicas, args.seed)
    z = (est.speed_hat - analytic) / est.std_error if est.std_error > 0 else 0.0
    return [dict(p=args.p, speed_hat=est.speed_hat, std_error=est.std_error,
                 replicas=est.replicas, horizon=est.horizon, seed=est.seed,
                 analytic=analytic, z=z)]


def _cmd_check_condition(args) -> list[dict]:
    ok, worst = check_condition(parse_law(args.law))
    return [dict(law=args.law, condition_ok=ok, worst_violation=worst)]


def _cmd_pipes(args) -> list[dict]:
    closed = pipes_speed(args.p)
    row = dict(p=args.p, closed_form=closed)
    if args.simulate:
        est = simulate_pipes(args.p, args.horizon, args.replicas, args.seed)
        z = (est.speed_hat - closed) / est.std_error if est.std_error > 0 else 0.0
        row.update(speed_hat=est.speed_hat, std_error=est.std_error,
                   replicas=est.replicas, horizon=est.horizon, seed=est.seed, z=z)
    return [row]


_COMMANDS = {
    "rho": _cmd_rho,
    "speed": _cmd_speed,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "check-condition": _cmd_check_condition,
    "pipes": _cmd_pipes,
}


def run(argv: list[str] | None = None, out=None) -> int:
    """Parse argv, run the command, write rows to `out` (default stdout).

    Exit codes: 0 success, 1 input error, 2 numerical failure (no
    convergence, an overflow, a law's mass past SUPPORT_CAP terms, or two
    routes to one quantity disagree) or a memory allocation that failed.
    """
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        rows = _COMMANDS[args.command](args)
    except (CliError, LawError, ModelError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConvergenceError, SimulationError) as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistency as exc:
        print(f"internal inconsistency error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, SupportCapError) as exc:
        # a float overflowed, or a law's mass lies past the terms a series reads
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a walk arena or a law's arrays larger than the process may map
        print(f"memory error: {exc}", file=sys.stderr)
        return 2
    _emit(rows, args.format, out)
    return 0


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
