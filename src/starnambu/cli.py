"""Command-line interface.

Exit codes: 0 all checks passed (or eval succeeded), 1 at least one check
failed, 2 usage or syntax error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence, Tuple

from .catalog import SUITES, run_suite
from .errors import (ArityError, DomainError, DivisionByZero, EvaluationPole,
                     ExprSyntaxError, InexactDivision, NotInvertible,
                     UnknownName, UsageError)
from .lang import Binding, evaluate, print_canonical
from .models import canonical_model_names, get_model

_USER_ERRORS = (UsageError, ExprSyntaxError, UnknownName, ArityError,
                DomainError, DivisionByZero, InexactDivision, NotInvertible,
                EvaluationPole)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starnambu",
        description="Exact star-product and bracket calculus with a "
                    "verifiable identity catalog.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run identity checks")
    check.add_argument("--suite", default=None,
                       help=f"suite name ({', '.join(SUITES)}) or 'all'")
    check.add_argument("--id", dest="id_glob", default=None,
                       help="glob over entry ids, e.g. 'QN-*'")
    check.add_argument("--n", type=int, default=1,
                       help="multiplier for randomized draws (at least 1)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--format", choices=("text", "json"), default="text")

    ev = sub.add_parser("eval", help="evaluate a bracket expression")
    ev.add_argument("--model", required=True,
                    help="model name, e.g. sphere:2 or chiral-s3")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.add_argument("expr", help="expression, e.g. 'mb(Lx,Hqm)' or '-x1'")

    sub.add_parser("models", help="list the bundled models")
    return parser


def _cmd_check(args) -> Tuple[str, int]:
    report = run_suite(suite=args.suite, id_glob=args.id_glob, seed=args.seed,
                       draws=args.n)
    text = report.to_json() if args.format == "json" else report.to_text()
    return text, 0 if report.all_pass else 1


def _cmd_eval(args) -> Tuple[str, int]:
    model = get_model(args.model)
    binding = Binding(model=model)
    text = print_canonical(evaluate(args.expr, binding))
    if args.format == "json":
        text = json.dumps({"model": model.name, "expr": args.expr,
                           "result": text}, sort_keys=True)
    return text, 0


def _cmd_models(args) -> Tuple[str, int]:
    lines = []
    for name in canonical_model_names():
        model = get_model(name)
        charges = ", ".join(sorted(model.charges))
        lines.append(f"{name}  (dimension {model.n}; charges: {charges})")
    return "\n".join(lines), 0


def _expression_last(argv: Sequence[str]) -> list:
    """argv with an ``eval`` expression that starts with one "-", such as
    "-x1" or "-hbar", moved behind "--": argparse would read it as an
    unknown option, or as -h with an argument.  The printer writes such
    text, so a printed result can be passed back."""
    argv = list(argv)
    if argv[:1] != ["eval"] or "--" in argv:
        return argv
    negated = [a for a in argv[1:]
               if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h"]
    if len(negated) != 1:
        return argv
    argv.remove(negated[0])
    return argv + ["--", negated[0]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    argv = _expression_last(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        command = {"check": _cmd_check, "eval": _cmd_eval,
                   "models": _cmd_models}[args.command]
        text, code = command(args)
    except ExprSyntaxError as exc:
        lo, hi = exc.span
        print(f"syntax error at {lo}..{hi}: {exc.message}", file=sys.stderr)
        if getattr(args, "expr", None):
            print(f"  {args.expr}", file=sys.stderr)
            print("  " + " " * lo + "^" * max(1, hi - lo), file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader stopped early: send what is left, and the flush at
        # interpreter exit, to the null device instead
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
