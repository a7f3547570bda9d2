"""Command-line front end with canonical, diff-stable output.

Input arguments are a file path if one exists with that name, `-` for
standard input, and an inline term (or distribution) otherwise. Exit codes:
0 success / confluent / equivalent, 1 negative verdict or type error,
2 usage or parse error, 3 fuel exhausted, 4 ambiguous plugged term,
5 hypothesis of the computational-confluence check not met, 6 input nested
too deeply for the recursive term walks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .distribution import (
    Distribution, WeightError, format_distribution, parse_distribution,
)
from .equivalence import (
    NonConfluentPlug, NotSubAffineTyped, check_computational_confluence,
    comp_equiv, format_context,
)
from .explore import (
    DEFAULT_FUEL, FuelExhausted, check_probabilistic_confluence,
    normal_form_distributions, reduce_with_strategy,
)
from .rewrite import Strategy, format_position
from .syntax import (
    CalculusVariant, ParseError, Term, format_type, parse, parse_type, pretty,
)
from .typecheck import Discipline, TypingError, format_inferred, infer_simple, typecheck

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_FUEL = 3
EXIT_AMBIGUOUS_PLUG = 4
EXIT_HYPOTHESIS = 5
EXIT_TOO_DEEP = 6

DEMO_TERMS = {
    "figure1": "(\\x. \\y. y x x) coin",
    "section4": "(\\x. \\y. if y then x else ((\\z. if z then 0 else 1) x)) coin",
    "internalized": "(\\x. \\y. y x x) coin",
}


def read_source(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as handle:
            return handle.read()
    return arg


def emit(args, human: str, record: dict) -> None:
    if args.format == "structured":
        print(json.dumps(record, sort_keys=True))
    elif human:
        print(human)


def parse_term_arg(args, source: str | None = None) -> Term:
    text = read_source(source if source is not None else args.input)
    return parse(text, CalculusVariant(args.calculus))


def cmd_typecheck(args) -> int:
    term = parse_term_arg(args)
    goal = parse_type(args.type) if args.type else None
    try:
        ty = typecheck({}, term, Discipline(args.system), goal)
    except TypingError as exc:
        emit(args, f"type error: {exc}",
             {"command": "typecheck", "ok": False, "term": pretty(term),
              "system": args.system, **exc.record()})
        return EXIT_NEGATIVE
    emit(args, format_type(ty),
         {"command": "typecheck", "ok": True, "term": pretty(term),
          "system": args.system, "type": format_type(ty)})
    return EXIT_OK


def cmd_infer(args) -> int:
    term = parse_term_arg(args)
    try:
        ty = infer_simple({}, term)
    except TypingError as exc:
        emit(args, f"type error: {exc}",
             {"command": "infer", "ok": False, "term": pretty(term),
              **exc.record()})
        return EXIT_NEGATIVE
    emit(args, format_inferred(ty),
         {"command": "infer", "ok": True, "term": pretty(term),
          "type": format_inferred(ty)})
    return EXIT_OK


def cmd_reduce(args) -> int:
    term = parse_term_arg(args)
    variant = CalculusVariant(args.calculus)
    strategy = Strategy(args.strategy)
    trace = reduce_with_strategy(term, strategy, variant, args.fuel)
    if args.format == "structured":
        record = {
            "command": "reduce",
            "strategy": args.strategy,
            "initial": format_distribution(trace.initial),
            "steps": [
                {"fired": [{"term": pretty(t), "position": format_position(p)}
                           for t, p in step.fired],
                 "result": format_distribution(step.result)}
                for step in trace.steps
            ],
            "terminal": format_distribution(trace.terminal),
        }
        print(json.dumps(record, sort_keys=True))
        return EXIT_OK
    for index, step in enumerate(trace.steps, start=1):
        fired = ", ".join(format_position(p) for _, p in step.fired)
        print(f"step {index}: fired {fired} -> {format_distribution(step.result)}")
    print(format_distribution(trace.terminal))
    return EXIT_OK


def cmd_explore(args) -> int:
    term = parse_term_arg(args)
    variant = CalculusVariant(args.calculus)
    finals = normal_form_distributions(term, variant, args.fuel)
    if args.format == "structured":
        print(json.dumps({"command": "explore", "term": pretty(term),
                          "distributions": [format_distribution(d) for d in finals]},
                         sort_keys=True))
        return EXIT_OK
    for dist in finals:
        print(format_distribution(dist))
    return EXIT_OK


def cmd_confluence(args) -> int:
    term = parse_term_arg(args)
    variant = CalculusVariant(args.calculus)
    result = check_probabilistic_confluence(term, variant, args.fuel)
    verdict = "CONFLUENT" if result.confluent else "NOT CONFLUENT"
    if args.format == "structured":
        record = {
            "command": "confluence",
            "term": pretty(term),
            "confluent": result.confluent,
            "distributions": [format_distribution(d)
                              for d in result.final_distributions],
            "witness": ([format_distribution(d) for d in result.witness]
                        if result.witness else None),
            "stats": {"nodes": result.stats.nodes,
                      "max_depth": result.stats.max_depth,
                      "fuel_spent": result.stats.fuel_spent},
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(verdict)
        for dist in result.final_distributions:
            print(format_distribution(dist))
        if result.witness is not None:
            first, second = result.witness
            print(f"witness: {format_distribution(first)} "
                  f"!= {format_distribution(second)}")
        stats = result.stats
        print(f"nodes={stats.nodes} max_depth={stats.max_depth} "
              f"fuel_spent={stats.fuel_spent}")
    return EXIT_OK if result.confluent else EXIT_NEGATIVE


def _load_distribution(arg: str, variant: CalculusVariant) -> Distribution:
    return parse_distribution(read_source(arg), variant)


def cmd_equiv(args) -> int:
    variant = CalculusVariant(args.calculus)
    left = _load_distribution(args.left, variant)
    right = _load_distribution(args.right, variant)
    ty = parse_type(args.type)
    verdict = comp_equiv(left, right, ty, args.size_bound, args.fuel,
                         args.single_path)
    return _report_equiv(args, verdict.per_context, verdict.equivalent,
                         extra={"command": "equiv", "type": format_type(ty)})


def _report_equiv(args, checks, equivalent: bool, extra: dict) -> int:
    if args.format == "structured":
        record = {
            **extra,
            "equivalent": equivalent,
            "contexts": [
                {"context": format_context(c.context),
                 "left": format_distribution(c.left),
                 "right": format_distribution(c.right),
                 "matches": c.matches}
                for c in checks
            ],
        }
        print(json.dumps(record, sort_keys=True))
    else:
        for check in checks:
            status = "OK" if check.matches else "MISMATCH"
            print(f"{format_context(check.context)} | "
                  f"{format_distribution(check.left)} | "
                  f"{format_distribution(check.right)} | {status}")
        print("EQUIVALENT" if equivalent else "NOT EQUIVALENT")
    return EXIT_OK if equivalent else EXIT_NEGATIVE


def cmd_computational_confluence(args) -> int:
    term = parse_term_arg(args)
    report = check_computational_confluence(term, args.size_bound, args.fuel,
                                            args.single_path)
    if args.format == "structured":
        record = {
            "command": "computational-confluence",
            "term": pretty(report.term),
            "type": format_type(report.term_type),
            "distributions": [format_distribution(d)
                              for d in report.distributions],
            "pairs": [{"left": i, "right": j, "equivalent": v.equivalent}
                      for i, j, v in report.pairwise],
            "equivalent": report.equivalent,
        }
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"type: {format_type(report.term_type)}")
        for dist in report.distributions:
            print(format_distribution(dist))
        for i, j, verdict in report.pairwise:
            status = "EQUIV" if verdict.equivalent else "NOT EQUIV"
            print(f"pair {i} {j}: {status}")
        print("COMPUTATIONALLY CONFLUENT" if report.equivalent
              else "NOT COMPUTATIONALLY CONFLUENT")
    return EXIT_OK if report.equivalent else EXIT_NEGATIVE


def cmd_demo(args) -> int:
    term = parse(DEMO_TERMS[args.name])
    equivalent = None
    if args.name == "internalized":
        finals = normal_form_distributions(term, CalculusVariant.INTERNALIZED,
                                           args.fuel)
    elif args.name == "figure1":
        finals = normal_form_distributions(term, fuel=args.fuel)
    else:
        report = check_computational_confluence(term, fuel=args.fuel)
        finals = report.distributions
        equivalent = report.equivalent
    if args.format == "structured":
        record = {"command": "demo", "name": args.name, "term": pretty(term),
                  "distributions": [format_distribution(d) for d in finals]}
        if equivalent is not None:
            record["equivalent"] = equivalent
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"term: {pretty(term)}")
        for dist in finals:
            print(format_distribution(dist))
        if equivalent is not None:
            print("EQUIVALENT" if equivalent else "NOT EQUIVALENT")
    return EXIT_OK if equivalent in (None, True) else EXIT_NEGATIVE


def _positive_int(text: str) -> int:
    """An integer of at least 1, for the fuel and size-bound settings."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1: {text!r}")
    return value


def build_parser(default_fuel: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambcoin",
        description="workbench for the probabilistic lambda calculus with a coin")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_input=True):
        if with_input:
            p.add_argument("input", help="term (inline, file path, or - for stdin)")
        p.add_argument("--calculus", choices=["plain", "internal"],
                       default="plain")
        p.add_argument("--fuel", type=_positive_int, default=default_fuel)
        p.add_argument("--format", choices=["human", "structured"],
                       default="human")

    p = sub.add_parser("typecheck", help="check a term under a discipline")
    common(p)
    p.add_argument("--system", choices=["simple", "affine", "subaffine"],
                   default="simple")
    p.add_argument("--type", help="goal type, e.g. 'B->B'")
    p.set_defaults(run=cmd_typecheck)

    p = sub.add_parser("infer", help="principal simple type")
    common(p)
    p.set_defaults(run=cmd_infer)

    p = sub.add_parser("reduce", help="reduce with a deterministic strategy")
    common(p)
    p.add_argument("--strategy", choices=["cbn", "cbv"], required=True)
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("explore", help="all reachable normal-form distributions")
    common(p)
    p.set_defaults(run=cmd_explore)

    p = sub.add_parser("confluence", help="probabilistic-confluence verdict")
    common(p)
    p.set_defaults(run=cmd_confluence)

    p = sub.add_parser("equiv", help="computational equivalence of two distributions")
    p.add_argument("left", help="distribution (inline, file path, or -)")
    p.add_argument("right", help="distribution (inline, file path, or -)")
    common(p, with_input=False)
    p.add_argument("--type", required=True, help="type of the support terms")
    p.add_argument("--size-bound", type=_positive_int, default=6)
    p.add_argument("--single-path", action="store_true",
                   help="evaluate plugs of support terms that hold a coin "
                        "by call-by-value only")
    p.set_defaults(run=cmd_equiv)

    p = sub.add_parser("computational-confluence",
                       help="check all endpoints pairwise equivalent")
    common(p)
    p.add_argument("--size-bound", type=_positive_int, default=6)
    p.add_argument("--single-path", action="store_true")
    p.set_defaults(run=cmd_computational_confluence)

    p = sub.add_parser("demo", help="built-in scenarios")
    p.add_argument("name", choices=sorted(DEMO_TERMS))
    p.add_argument("--fuel", type=_positive_int, default=default_fuel)
    p.add_argument("--format", choices=["human", "structured"],
                   default="human")
    p.set_defaults(run=cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        default_fuel = _positive_int(os.environ.get("LAMBCOIN_FUEL", str(DEFAULT_FUEL)))
    except argparse.ArgumentTypeError as exc:
        print(f"lambcoin: error: LAMBCOIN_FUEL: {exc}", file=sys.stderr)
        return EXIT_USAGE
    parser = build_parser(default_fuel)
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except WeightError as exc:
        print(f"distribution error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConfluentPlug as exc:
        print(f"ambiguous plugged term: {exc}", file=sys.stderr)
        return EXIT_AMBIGUOUS_PLUG
    except NotSubAffineTyped as exc:
        print(f"hypothesis not met: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except FuelExhausted as exc:
        print(f"fuel exhausted: {exc}", file=sys.stderr)
        return EXIT_FUEL
    except TypingError as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_TOO_DEEP


if __name__ == "__main__":
    sys.exit(main())
