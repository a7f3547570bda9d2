"""Command-line front end with canonical, diff-stable output.

Input arguments are `-` for standard input, a file path if one exists with
that name, and an inline term (or distribution) otherwise. A name that both
names a file and reads as inline input is refused as ambiguous; `./name`
reads the file.

Each command returns its exit code and one record, the dict that
`--format structured` prints as JSON; `--format human` renders the same
record as lines. Exit codes: 0 success / confluent / equivalent, 1 negative
verdict or type error, 2 usage or parse error, an unreadable input path or
an ambiguous input name, 3 fuel exhausted, 4 ambiguous plugged term, 5
hypothesis of the computational-confluence check not met, 6 input nested too
deeply, or a reduction path too long, for the recursive walks. `ERRORS` maps
each exception to its exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .distribution import WeightError, format_distribution, parse_distribution
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

class AmbiguousInput(Exception):
    """An argument names an existing file and also reads as inline input."""


# (exception, stderr message, exit code); the first match wins, and
# DivergenceError is a FuelExhausted.
ERRORS = (
    (AmbiguousInput, "ambiguous input: {}", EXIT_USAGE),
    (ParseError, "parse error: {}", EXIT_USAGE),
    (WeightError, "distribution error: {}", EXIT_USAGE),
    ((OSError, UnicodeDecodeError), "cannot read input: {}", EXIT_USAGE),
    (NonConfluentPlug, "ambiguous plugged term: {}", EXIT_AMBIGUOUS_PLUG),
    (NotSubAffineTyped, "hypothesis not met: {}", EXIT_HYPOTHESIS),
    (FuelExhausted, "fuel exhausted: {}", EXIT_FUEL),
    (TypingError, "type error: {}", EXIT_NEGATIVE),
    (RecursionError, "error: input nested too deeply, or a reduction path too "
                     "long, for the recursive walks", EXIT_TOO_DEEP),
)

DEMO_TERMS = {
    "figure1": "(\\x. \\y. y x x) coin",
    "section4": "(\\x. \\y. if y then x else ((\\z. if z then 0 else 1) x)) coin",
    "internalized": "(\\x. \\y. y x x) coin",
}


def read_input(arg: str, read):
    """`read` applied to the text that `arg` stands for: standard input for
    `-`, the file it names, or `arg` itself."""
    if arg == "-":
        return read(sys.stdin.read())
    if not os.path.exists(arg):
        return read(arg)
    try:
        read(arg)
    except (ParseError, WeightError):
        pass
    else:
        raise AmbiguousInput(f"{arg!r} names a file and is also inline input; "
                             f"write ./{arg} to read the file")
    with open(arg, encoding="utf-8") as handle:
        return read(handle.read())


def parse_term_arg(args) -> Term:
    variant = CalculusVariant(args.calculus)
    return read_input(args.input, lambda text: parse(text, variant))


def _formatted(dists) -> list[str]:
    return [format_distribution(d) for d in dists]


def _verdict(positive: bool) -> int:
    return EXIT_OK if positive else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# Commands: each returns (exit code, record) and prints nothing

def cmd_typecheck(args) -> tuple[int, dict]:
    term = parse_term_arg(args)
    goal = parse_type(args.type) if args.type is not None else None
    record = {"command": "typecheck", "term": pretty(term), "system": args.system}
    try:
        ty = typecheck({}, term, Discipline(args.system), goal)
    except TypingError as exc:
        return EXIT_NEGATIVE, {**record, "ok": False, **exc.record()}
    return EXIT_OK, {**record, "ok": True, "type": format_type(ty)}


def cmd_infer(args) -> tuple[int, dict]:
    term = parse_term_arg(args)
    record = {"command": "infer", "term": pretty(term)}
    try:
        ty = infer_simple({}, term)
    except TypingError as exc:
        return EXIT_NEGATIVE, {**record, "ok": False, **exc.record()}
    return EXIT_OK, {**record, "ok": True, "type": format_inferred(ty)}


def cmd_reduce(args) -> tuple[int, dict]:
    term = parse_term_arg(args)
    trace = reduce_with_strategy(term, Strategy(args.strategy),
                                 CalculusVariant(args.calculus), args.fuel)
    return EXIT_OK, {
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


def cmd_explore(args) -> tuple[int, dict]:
    term = parse_term_arg(args)
    finals = normal_form_distributions(term, CalculusVariant(args.calculus),
                                       args.fuel)
    return EXIT_OK, {"command": "explore", "term": pretty(term),
                     "distributions": _formatted(finals)}


def cmd_confluence(args) -> tuple[int, dict]:
    term = parse_term_arg(args)
    result = check_probabilistic_confluence(term, CalculusVariant(args.calculus),
                                            args.fuel)
    return _verdict(result.confluent), {
        "command": "confluence",
        "term": pretty(term),
        "confluent": result.confluent,
        "distributions": _formatted(result.final_distributions),
        "witness": _formatted(result.witness) if result.witness else None,
        "stats": {"nodes": result.stats.nodes,
                  "max_depth": result.stats.max_depth,
                  "fuel_spent": result.stats.fuel_spent},
    }


def cmd_equiv(args) -> tuple[int, dict]:
    left = read_input(args.left, parse_distribution)
    right = read_input(args.right, parse_distribution)
    ty = parse_type(args.type)
    verdict = comp_equiv(left, right, ty, args.size_bound, args.fuel,
                         args.single_path)
    return _verdict(verdict.equivalent), {
        "command": "equiv",
        "type": format_type(ty),
        "equivalent": verdict.equivalent,
        "contexts": [
            {"context": format_context(c.context),
             "left": format_distribution(c.left),
             "right": format_distribution(c.right),
             "matches": c.matches}
            for c in verdict.per_context
        ],
    }


def cmd_computational_confluence(args) -> tuple[int, dict]:
    term = read_input(args.input, parse)
    report = check_computational_confluence(term, args.size_bound, args.fuel,
                                            args.single_path)
    return _verdict(report.equivalent), {
        "command": "computational-confluence",
        "term": pretty(report.term),
        "type": format_type(report.term_type),
        "distributions": _formatted(report.distributions),
        "pairs": [{"left": i, "right": j, "equivalent": v.equivalent}
                  for i, j, v in report.pairwise],
        "equivalent": report.equivalent,
    }


def cmd_demo(args) -> tuple[int, dict]:
    term = parse(DEMO_TERMS[args.name])
    record = {"command": "demo", "name": args.name, "term": pretty(term)}
    if args.name == "section4":
        report = check_computational_confluence(term, fuel=args.fuel)
        finals = report.distributions
        record["equivalent"] = report.equivalent
    else:
        variant = (CalculusVariant.INTERNALIZED if args.name == "internalized"
                   else CalculusVariant.PLAIN)
        finals = normal_form_distributions(term, variant, args.fuel)
    record["distributions"] = _formatted(finals)
    return _verdict(record.get("equivalent", True)), record


# ---------------------------------------------------------------------------
# Human rendering: record -> lines, one function per command

def _typing_lines(r):
    yield r["type"] if r["ok"] else f"type error: {TypingError.describe(r)}"


def _reduce_lines(r):
    for index, step in enumerate(r["steps"], start=1):
        fired = ", ".join(f["position"] for f in step["fired"])
        yield f"step {index}: fired {fired} -> {step['result']}"
    yield r["terminal"]


def _confluence_lines(r):
    yield "CONFLUENT" if r["confluent"] else "NOT CONFLUENT"
    yield from r["distributions"]
    if r["witness"] is not None:
        yield "witness: {} != {}".format(*r["witness"])
    yield "nodes={nodes} max_depth={max_depth} fuel_spent={fuel_spent}".format(
        **r["stats"])


def _equiv_lines(r):
    for c in r["contexts"]:
        status = "OK" if c["matches"] else "MISMATCH"
        yield f"{c['context']} | {c['left']} | {c['right']} | {status}"
    yield "EQUIVALENT" if r["equivalent"] else "NOT EQUIVALENT"


def _computational_confluence_lines(r):
    yield f"type: {r['type']}"
    yield from r["distributions"]
    for pair in r["pairs"]:
        status = "EQUIV" if pair["equivalent"] else "NOT EQUIV"
        yield f"pair {pair['left']} {pair['right']}: {status}"
    yield ("COMPUTATIONALLY CONFLUENT" if r["equivalent"]
           else "NOT COMPUTATIONALLY CONFLUENT")


def _demo_lines(r):
    yield f"term: {r['term']}"
    yield from r["distributions"]
    if "equivalent" in r:
        yield "EQUIVALENT" if r["equivalent"] else "NOT EQUIVALENT"


RENDERERS = {
    "typecheck": _typing_lines,
    "infer": _typing_lines,
    "reduce": _reduce_lines,
    "explore": lambda r: r["distributions"],
    "confluence": _confluence_lines,
    "equiv": _equiv_lines,
    "computational-confluence": _computational_confluence_lines,
    "demo": _demo_lines,
}


# ---------------------------------------------------------------------------
# Arguments and the entry point

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
    shared = {
        "input": {"help": "term (inline, file path, or - for stdin)"},
        "--calculus": {"choices": ["plain", "internal"], "default": "plain"},
        "--fuel": {"type": _positive_int, "default": default_fuel},
    }

    def command(name, run, help, *flags):
        """A subcommand with `--format` and those of `shared` it honours."""
        p = sub.add_parser(name, help=help)
        for flag in flags:
            p.add_argument(flag, **shared[flag])
        p.add_argument("--format", choices=["human", "structured"],
                       default="human")
        p.set_defaults(run=run, parser=p)
        return p

    p = command("typecheck", cmd_typecheck, "check a term under a discipline",
                "input", "--calculus")
    p.add_argument("--system", choices=["simple", "affine", "subaffine"],
                   default="simple")
    p.add_argument("--type", help="goal type, e.g. 'B->B'")

    command("infer", cmd_infer, "principal simple type", "input", "--calculus")

    p = command("reduce", cmd_reduce, "reduce with a deterministic strategy",
                "input", "--calculus", "--fuel")
    p.add_argument("--strategy", choices=["cbn", "cbv"], required=True)

    command("explore", cmd_explore, "all reachable normal-form distributions",
            "input", "--calculus", "--fuel")

    command("confluence", cmd_confluence, "probabilistic-confluence verdict",
            "input", "--calculus", "--fuel")

    p = command("equiv", cmd_equiv,
                "computational equivalence of two distributions", "--fuel")
    p.add_argument("left", help="distribution (inline, file path, or -)")
    p.add_argument("right", help="distribution (inline, file path, or -)")
    p.add_argument("--type", required=True, help="type of the support terms")
    p.add_argument("--size-bound", type=_positive_int, default=6)
    p.add_argument("--single-path", action="store_true",
                   help="evaluate plugs of support terms that hold a coin "
                        "by call-by-value only")

    p = command("computational-confluence", cmd_computational_confluence,
                "check all endpoints pairwise equivalent", "input", "--fuel")
    p.add_argument("--size-bound", type=_positive_int, default=6)
    p.add_argument("--single-path", action="store_true")

    p = command("demo", cmd_demo, "built-in scenarios", "--fuel")
    p.add_argument("name", choices=sorted(DEMO_TERMS))

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        default_fuel = _positive_int(os.environ.get("LAMBCOIN_FUEL", str(DEFAULT_FUEL)))
    except argparse.ArgumentTypeError as exc:
        print(f"lambcoin: error: LAMBCOIN_FUEL: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args, unknown = build_parser(default_fuel).parse_known_args(argv)
    if unknown:  # report them with the usage of the command that refused them
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        code, record = args.run(args)
    except Exception as exc:
        for error, message, error_code in ERRORS:
            if isinstance(exc, error):
                print(message.format(exc), file=sys.stderr)
                return error_code
        raise
    if args.format == "structured":
        print(json.dumps(record, sort_keys=True))
    else:
        for line in RENDERERS[record["command"]](record):
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
