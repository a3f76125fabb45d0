"""Command-line interface.

Exit codes: 0 all checks passed (or eval succeeded), 1 at least one check
failed, 2 usage or syntax error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .catalog import run_suite
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
                       help="suite name (s2, sn, chiral, nb, qnb, oscillator, "
                            "star) or 'all'")
    check.add_argument("--id", dest="id_glob", default=None,
                       help="glob over entry ids, e.g. 'QN-*'")
    check.add_argument("--n", type=int, default=1,
                       help="multiplier for randomized draws (at least 1)")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: entries always run one "
                            "after another on the calling thread")
    check.add_argument("--format", choices=("text", "json"), default="text")

    ev = sub.add_parser("eval", help="evaluate a bracket expression")
    ev.add_argument("--model", required=True,
                    help="model name, e.g. sphere:2 or chiral-s3")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.add_argument("expr", help="expression, e.g. 'mb(Lx,Hqm)'")

    sub.add_parser("models", help="list the bundled models")
    return parser


def _cmd_check(args) -> int:
    report = run_suite(suite=args.suite, id_glob=args.id_glob, seed=args.seed,
                       draws=args.n)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.to_text())
    return 0 if report.all_pass else 1


def _cmd_eval(args) -> int:
    model = get_model(args.model)
    binding = Binding(model=model)
    result = evaluate(args.expr, binding)
    text = print_canonical(result)
    if args.format == "json":
        print(json.dumps({"model": model.name, "expr": args.expr,
                          "result": text}, sort_keys=True))
    else:
        print(text)
    return 0


def _cmd_models(args) -> int:
    for name in canonical_model_names():
        model = get_model(name)
        charges = ", ".join(sorted(model.charges))
        print(f"{name}  (dimension {model.n}; charges: {charges})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "models":
            return _cmd_models(args)
        raise UsageError(f"unknown command {args.command!r}")
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


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
