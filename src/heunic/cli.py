"""Command-line front end.

Subcommands:

    eval        evaluate one function at one point
    entropy     order-2 entropies of an index of coincidence
    table       evaluate on a grid and emit CSV or JSON
    crosscheck  compare the routes of a target that has two or more on a grid
    verify      exact identities plus the relation suite

Targets, their flags and their routes come from ``heunic.routes``; this
module parses arguments, calls the routes and prints their results.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 numerical failure (an evaluation did not converge).  All output is
deterministic for a fixed argument vector, including the seeded
randomized verification.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import NamedTuple, TextIO

from . import coincidence
from .coincidence import EntropyKind
from .errors import DomainError, UnknownRelationError
from .routes import TARGETS, Route, Target, crosscheck
from .series import SeriesOptions

INDICES = tuple(name for name, target in TARGETS.items() if target.index)
CROSSCHECKED = tuple(name for name, target in TARGETS.items() if len(target.routes) > 1)

# bounds on the work one command may ask for
_MAX_GRID_POINTS = 100_000
_MAX_TERMS = 1_000_000
_MAX_VERIFY_N = 200  # the identity checks sum O(n^3) big-integer terms
_MAX_TRIALS = 10_000


class ExitReport(NamedTuple):
    code: int          # 0 ok, 1 verification failure, 2 usage, 3 numerical
    summary: str


def _fmt(value: float) -> str:
    """17 significant digits: enough to round-trip any double exactly."""
    return format(value, ".17g")


def emit_table(rows: list[dict], fmt: str, sink: TextIO) -> int:
    """Write rows with keys x, value, error_estimate, method; return row count."""
    if fmt == "csv":
        import csv

        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(["x", "value", "error_estimate", "method"])
        for row in rows:
            writer.writerow([_fmt(row["x"]), _fmt(row["value"]),
                             _fmt(row["error_estimate"]), row["method"]])
    elif fmt == "json":
        import json

        json.dump(rows, sink, indent=2)
        sink.write("\n")
    else:
        raise DomainError(f"unknown output format {fmt!r}")
    return len(rows)


def _finite_float(text: str) -> float:
    """float(text), refusing inf and nan; the type of every float flag."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command``: every subcommand is registered with its
    help line, so the top-level help and its errors do not depend on
    ``command``, but only ``command`` gets its arguments, or every
    subcommand when it is None."""
    parser = argparse.ArgumentParser(
        prog="heunic",
        description="Multi-route evaluation and verification of Heun-type "
                    "functions and indices of coincidence.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_line):
        """Register ``name``; its parser if it gets its arguments, else None."""
        p = sub.add_parser(name, help=help_line)
        return p if command in (None, name) else None

    def add_target_args(p, targets):
        p.add_argument("--target", required=True, choices=targets)
        for name in dict.fromkeys(f for t in targets for f in TARGETS[t].flags):
            p.add_argument(f"--{name}",
                           type=int if name in ("n", "j", "i") else _finite_float)
        p.add_argument("--max-terms", type=int, default=10000,
                       help=f"series term budget (default 10000, at most {_MAX_TERMS})")
        p.add_argument("--rel-tol", type=_finite_float, default=1e-15)

    def add_point_args(p, func):
        add_target_args(p, tuple(TARGETS))
        p.add_argument("--x", type=_finite_float)
        p.add_argument("--method")
        p.set_defaults(func=func)

    if p_eval := add_parser("eval", "evaluate one function at one point"):
        add_point_args(p_eval, _cmd_eval)

    if p_entropy := add_parser("entropy", "order-2 entropies of an index value"):
        add_point_args(p_entropy, _cmd_entropy)
        p_entropy.add_argument("--kind", required=True, choices=["renyi", "tsallis"])

    grid_help = (f"start:stop:step (stop inclusive) or x1,x2,...; "
                 f"at most {_MAX_GRID_POINTS} points")
    if p_table := add_parser("table", "evaluate on a grid"):
        add_point_args(p_table, _cmd_table)
        p_table.add_argument("--grid", required=True, help=grid_help)
        p_table.add_argument("--output", choices=["csv", "json"], default="csv")
        p_table.add_argument("--path", help="output file (default: stdout)")

    if p_cross := add_parser("crosscheck", "compare all routes of a target on a grid"):
        add_target_args(p_cross, CROSSCHECKED)
        p_cross.add_argument("--grid", required=True, help=grid_help)
        p_cross.add_argument("--tol", type=_finite_float,
                             help="fail (exit 1) if the discrepancy exceeds this")
        p_cross.set_defaults(func=_cmd_crosscheck)

    if p_verify := add_parser("verify", "exact identities and the relation suite"):
        p_verify.add_argument(
            "--max-n", type=int, default=50,
            help=f"identities up to this n (default 50, at most {_MAX_VERIFY_N})")
        p_verify.add_argument(
            "--trials", type=int, default=100,
            help=f"trials per relation (default 100, at most {_MAX_TRIALS})")
        p_verify.add_argument("--tol", type=_finite_float, default=1e-7)
        p_verify.add_argument("--seed", type=int, default=0)
        p_verify.add_argument("--mutate-identity", type=int, default=None,
                              metavar="SITE",
                              # 0..len(IDENTITY_A_SITES) - 1, written out so that
                              # parsing does not import heunic.identities
                              help="self-test hook: bump one binomial argument "
                                   "of identity A (site 0..9)")
        p_verify.set_defaults(func=_cmd_verify)
    return parser


def _target(args) -> tuple[Target, dict]:
    """The target of args and its parameters, all of which must be given."""
    target = TARGETS[args.target]
    params = {name: getattr(args, name) for name in target.flags}
    missing = [f"--{name}" for name, value in params.items() if value is None]
    if missing:
        raise DomainError(f"target {args.target!r} requires {', '.join(missing)}")
    return target, params


def _route(args) -> tuple[str, Route, dict]:
    """The label, callable and parameters of the route --method selects."""
    target, params = _target(args)
    label = args.method or target.default or next(iter(target.routes))
    if label not in target.routes:
        raise DomainError(f"target {args.target!r} has no route {label!r}; "
                          f"routes: {', '.join(target.routes)}")
    return label, target.routes[label], params


def _parse_grid(spec: str) -> list[float]:
    """start:stop:step (stop inclusive) or a comma-separated point list."""
    if ":" not in spec:
        try:
            points = [_finite_float(p) for p in spec.split(",") if p.strip()]
        except ValueError:
            raise DomainError(f"cannot parse grid points {spec!r}") from None
        if not points:
            raise DomainError(f"grid {spec!r} has no point")
        if len(points) > _MAX_GRID_POINTS:
            raise DomainError(f"grid has more than {_MAX_GRID_POINTS} points")
        return points
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError("grid must be start:stop:step or a point list")
    start, stop, step = (_finite_float(p) for p in parts)
    if step <= 0.0:
        raise DomainError("grid step must be positive")
    if stop < start:
        raise DomainError("grid stop must not precede start")
    span = (stop - start) / step + 1e-9
    if not span < _MAX_GRID_POINTS:  # int(span) + 1 points; span may be inf
        raise DomainError(f"grid has more than {_MAX_GRID_POINTS} points")
    return [start + i * step for i in range(int(span) + 1)]


def _series_options(args) -> SeriesOptions:
    if args.max_terms > _MAX_TERMS:
        raise DomainError(f"--max-terms must be at most {_MAX_TERMS}")
    return SeriesOptions(max_terms=args.max_terms, rel_tol=args.rel_tol)


def _cmd_eval(args, out: TextIO, finish=None) -> ExitReport:
    _label, route, params = _route(args)
    if args.x is None and TARGETS[args.target].takes_x:
        raise DomainError(f"{args.command} requires --x")
    result = route(args.x, _series_options(args), **params)
    out.write(_fmt(finish(result.value) if finish else result.value) + "\n")
    if not result.converged:
        return ExitReport(3, "evaluation did not converge")
    return ExitReport(0, "ok")


def _cmd_entropy(args, out: TextIO) -> ExitReport:
    """eval of an index of coincidence, then its entropy."""
    if args.target not in INDICES:
        raise DomainError(f"entropy targets are {', '.join(INDICES)}")
    kind = EntropyKind(args.kind)
    return _cmd_eval(args, out, lambda s: coincidence.entropy(s, kind))


def _cmd_table(args, out: TextIO) -> ExitReport:
    label, route, params = _route(args)
    opts = _series_options(args)
    rows = []
    all_converged = True
    for x in _parse_grid(args.grid):
        result = route(x, opts, **params)
        all_converged = all_converged and result.converged
        rows.append({"x": x, "value": result.value,
                     "error_estimate": result.error_estimate, "method": label})
    if args.path:
        with open(args.path, "w", encoding="utf-8", newline="") as sink:
            count = emit_table(rows, args.output, sink)
    else:
        count = emit_table(rows, args.output, out)
    if not all_converged:
        return ExitReport(3, f"{count} rows, some evaluations did not converge")
    return ExitReport(0, f"{count} rows")


def _cmd_crosscheck(args, out: TextIO) -> ExitReport:
    target, params = _target(args)
    opts = _series_options(args)
    grid = _parse_grid(args.grid)
    worst, worst_x, all_converged = crosscheck(args.target, params, grid, opts)
    flags = " ".join(f"{name}={value}" for name, value in params.items())
    out.write(f"target {args.target} {flags} routes={','.join(target.routes)}\n")
    out.write(f"max discrepancy {_fmt(worst)}"
              + (f" at x={_fmt(worst_x)}\n" if worst_x is not None else "\n"))
    if not all_converged:
        return ExitReport(3, "some routes did not converge")
    if args.tol is not None and worst > args.tol:
        return ExitReport(1, "routes disagree beyond tolerance")
    return ExitReport(0, "ok")


def _cmd_verify(args, out: TextIO) -> ExitReport:
    if args.max_n < 0:
        raise DomainError("--max-n must be nonnegative")
    if args.max_n > _MAX_VERIFY_N:
        raise DomainError(f"--max-n must be at most {_MAX_VERIFY_N}")
    if args.trials < 1:
        raise DomainError("--trials must be positive")
    if args.trials > _MAX_TRIALS:
        raise DomainError(f"--trials must be at most {_MAX_TRIALS}")
    # only verify needs these, so other commands do not load them
    from . import relations
    from .identities import Mutation, check_identity_A, check_identity_B

    mutation = None if args.mutate_identity is None else Mutation(args.mutate_identity, 1)
    ok = True
    for name, check, index, mutate in (("A", check_identity_A, "k", mutation),
                                       ("B", check_identity_B, "j", None)):
        bad = [(n, i) for n in range(args.max_n + 1) for i in range(n + 1)
               if not check(n, i, mutate).passed]
        if bad:
            ok = False
            n, i = bad[0]
            out.write(f"identity {name}: FAIL ({len(bad)} pairs, first at n={n} {index}={i})\n")
        else:
            out.write(f"identity {name}: PASS (all 0 <= {index} <= n <= {args.max_n})\n")
    for relation_id in relations.RELATION_IDS:
        report = relations.check_relation(relation_id, trials=args.trials,
                                          tol=args.tol, seed=args.seed)
        status = "PASS" if report.passed else "FAIL"
        ok = ok and report.passed
        out.write(f"relation {relation_id}: {status} "
                  f"worst residual {_fmt(report.worst_residual)}\n")
    out.write("verification: " + ("PASS" if ok else "FAIL") + "\n")
    return ExitReport(0 if ok else 1, "verification " + ("passed" if ok else "failed"))


def _join_grid(argv: list[str]) -> list[str]:
    """Rewrite each "--grid V" as "--grid=V": argparse would take a V such
    as -0.5:0.5:0.5, which starts with a minus sign, for an option."""
    joined = []
    rest = iter(argv)
    for arg in rest:
        value = next(rest, None) if arg == "--grid" else None
        joined.append(arg if value is None else f"--grid={value}")
    return joined


def run(argv: list[str], out: TextIO | None = None,
        err: TextIO | None = None) -> ExitReport:
    """Parse argv, dispatch, and return an ExitReport; never raises."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    argv = _join_grid(argv)
    # no top-level option takes a value, so the first token that is not an
    # option is the one argparse takes for the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    try:
        args = _build_parser(command).parse_args(argv)
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
        return ExitReport(code, "usage")
    try:
        return args.func(args, out)
    except (DomainError, UnknownRelationError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return ExitReport(2, str(exc))
    except ArithmeticError as exc:  # DivergentSeriesError, overflow, ...
        err.write(f"numerical failure: {exc}\n")
        return ExitReport(3, str(exc))
    except OSError as exc:
        err.write(f"i/o failure: {exc}\n")
        return ExitReport(3, str(exc))


def main() -> None:
    sys.exit(run(sys.argv[1:]).code)


if __name__ == "__main__":
    main()
