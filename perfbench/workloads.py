"""The three workloads: their seeded inputs, one operation each, and checks.

For each workload, `inputs(rng, tiny)` makes one round of operations;
`run(item)` is the timed operation, which takes one input from text to
printed results through lambcoin's public API; `check(item, out)` raises
`OracleError` unless the output agrees with `oracle`, which never calls
lambcoin. Every lambcoin name is looked up on the module at call
time, so a tracer installed after import sees each call.
"""

from __future__ import annotations

import contextlib
import io
import json
import string
from fractions import Fraction
from random import Random
from typing import Callable, NamedTuple

import lambcoin as lc
import lambcoin.cli

import corpus
from oracle import (
    OracleError, blowup_endpoints, blowup_text, check_typed_normal,
    distribution_key, evaluate, free_names, is_normal, read_distribution,
    read_term, truth_table,
)


def _names(rng: Random, count: int) -> list[str]:
    """Distinct binder names, so each seed spells its inputs differently."""
    return rng.sample(string.ascii_lowercase, count)


def _formatted(dists) -> list[str]:
    return [lc.format_distribution(d) for d in dists]


def _strategies(term) -> tuple[str, str]:
    return tuple(lc.format_distribution(
        lc.reduce_with_strategy(term, strategy).terminal)
        for strategy in (lc.Strategy.CALL_BY_NAME, lc.Strategy.CALL_BY_VALUE))


# ---------------------------------------------------------------------------
# blowup: Figure 1 scaled up

# (copies of the shared coin, free coins): 5-fold duplication, 5 independent
# coins, and 3 copies with 2 coins. Each visits 210 to 240 explorer nodes.
BLOWUP_SIZES = ((5, 0), (0, 5), (3, 2))
BLOWUP_TINY = ((2, 0), (0, 2), (2, 1))


def blowup_inputs(rng: Random, tiny: bool) -> list:
    sizes = list(BLOWUP_TINY if tiny else BLOWUP_SIZES)
    rng.shuffle(sizes)
    return [(copies, coins, blowup_text(copies, coins, tuple(_names(rng, 2))))
            for copies, coins in sizes]


def blowup_run(item) -> dict:
    term = lc.parse(item[2])
    cbn, cbv = _strategies(term)
    return {"endpoints": _formatted(lc.normal_form_distributions(term)),
            "cbn": cbn, "cbv": cbv}


def blowup_check(item, out: dict) -> None:
    copies, coins, _ = item
    expected, cbn, cbv = blowup_endpoints(copies, coins)
    found = [distribution_key(text) for text in out["endpoints"]]
    if len(set(found)) != len(found) or set(found) != expected:
        raise OracleError(f"blowup {copies},{coins}: {len(found)} endpoints, "
                          f"expected the {len(expected)} in closed form")
    if distribution_key(out["cbn"]) != cbn or distribution_key(out["cbv"]) != cbv:
        raise OracleError(f"blowup {copies},{coins}: wrong strategy endpoint")


# ---------------------------------------------------------------------------
# corpus: many small discipline-typed terms

CORPUS_COUNT, CORPUS_TINY = 4000, 12
CORPUS_MAX_SIZE = 14
# More free coins make a term a large exploration, which is blowup's subject;
# with at most 3 no single term outweighs the rest of a round.
CORPUS_MAX_COINS = 3


def corpus_inputs(rng: Random, tiny: bool) -> list:
    return corpus.generate(rng, CORPUS_TINY if tiny else CORPUS_COUNT,
                           CORPUS_MAX_SIZE, CORPUS_MAX_COINS)


def corpus_run(item) -> dict:
    discipline, text, goal = item
    term = lc.parse(text)
    ty = lc.typecheck({}, term, lc.Discipline(discipline),
                      lc.parse_type(corpus.type_text(goal)))
    if discipline == "affine":
        result = lc.check_probabilistic_confluence(term)
        endpoints, verdict = result.final_distributions, result.confluent
    else:
        report = lc.check_computational_confluence(term)
        endpoints, verdict = report.distributions, report.equivalent
    cbn, cbv = _strategies(term)
    return {"type": lc.format_type(ty), "endpoints": _formatted(endpoints),
            "verdict": verdict, "cbn": cbn, "cbv": cbv}


def _behaviour(dist: dict[str, Fraction], arity: int) -> tuple:
    """Output distribution of a distribution of B^arity -> B functions on
    each input, which is its computational meaning at a first-order type."""
    tables = [(truth_table(read_term(text), arity), p) for text, p in dist.items()]
    rows = []
    for index in range(2 ** arity):
        ones = sum((p for table, p in tables if table[index]), Fraction(0))
        rows.append(ones)
    return tuple(rows)


def corpus_check(item, out: dict) -> None:
    discipline, text, goal = item
    arity = corpus.arity(goal)
    if out["type"].replace(" ", "") != corpus.type_text(goal):
        raise OracleError(f"{text}: typed {out['type']}, generated at "
                          f"{corpus.type_text(goal)}")
    if not out["verdict"]:
        raise OracleError(f"{text}: the {discipline} theorem's verdict failed")
    if discipline == "affine" and len(out["endpoints"]) != 1:
        raise OracleError(f"{text}: affine term with {len(out['endpoints'])} endpoints")
    behaviours = set()
    for endpoint in out["endpoints"]:
        dist = read_distribution(endpoint)  # checks mass 1
        for support in dist:
            check_typed_normal(support, arity)
        behaviours.add(_behaviour(dist, arity))
    if len(behaviours) != 1:
        raise OracleError(f"{text}: endpoints differ on some boolean input")
    keys = {distribution_key(e) for e in out["endpoints"]}
    if distribution_key(out["cbn"]) not in keys or distribution_key(out["cbv"]) not in keys:
        raise OracleError(f"{text}: a strategy endpoint was not explored")


# ---------------------------------------------------------------------------
# equiv: computational equivalence through the CLI

EQUIV_TYPE = "(B->B->B)->B"
EQUIV_BOUNDS = (6, 7, 8, 9)
EQUIV_TINY_BOUNDS = (6,)


def _dist_text(entries: list[tuple[Fraction, str]]) -> str:
    return "{ " + " ; ".join(f"{p}: {t}" for p, t in entries) + " }"


def equiv_inputs(rng: Random, tiny: bool) -> list:
    """Figure 1's two endpoints, which the context `\\a.\\b. if a then b
    else 0` (size 6) tells apart, at each bound, and a seeded three-term
    distribution against itself, spelled another way, at the second bound.
    Either pair has six support terms in all. The round has one operation
    at bound 9, which costs more than the other four together, and its
    median operation is a bound-7 one, in the middle of a cluster of
    similar operations rather than between two unlike ones."""
    bounds = EQUIV_TINY_BOUNDS if tiny else EQUIV_BOUNDS
    f, g = _names(rng, 2)
    shared = _dist_text([(Fraction(1, 2), f"\\{f}. {f} {b} {b}") for b in "01"])
    uniform = _dist_text([(Fraction(1, 4), f"\\{g}. {g} {a} {b}")
                          for a in "01" for b in "01"])
    pairs = rng.sample(["0 0", "0 1", "1 0", "1 1"], 3)
    weights = [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
    rng.shuffle(weights)
    mine = _dist_text([(p, f"\\{f}. {f} {ab}") for p, ab in zip(weights, pairs)])
    again = _dist_text([(p, f"\\{g}. {g} {ab}")
                        for p, ab in reversed(list(zip(weights, pairs)))])
    items = [("figure1", shared, uniform, bound) for bound in bounds]
    items.append(("self", mine, again, bounds[min(1, len(bounds) - 1)]))
    rng.shuffle(items)
    return items


def equiv_run(item) -> tuple[int, str]:
    _, left, right, bound = item
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lambcoin.cli.main(["equiv", left, right, "--type", EQUIV_TYPE,
                                  "--format", "structured",
                                  "--size-bound", str(bound)])
    return code, out.getvalue()


def _context_args(text: str) -> list:
    spine = read_term(text.replace("◊", "hole", 1))
    args = []
    while spine[0] == "app":
        args.append(spine[2])
        spine = spine[1]
    if spine != ("var", "hole"):
        raise OracleError(f"context {text!r} is not the placeholder applied to arguments")
    return args[::-1]


def _meaning(dist: dict[str, Fraction], args: list) -> dict[str, Fraction]:
    result: dict[str, Fraction] = {}
    for text, p in dist.items():
        value = evaluate(read_term(text))
        for arg in args:
            value = value(evaluate(arg))
        if value not in (0, 1):
            raise OracleError(f"{text} does not return a boolean")
        result[str(value)] = result.get(str(value), Fraction(0)) + p
    return result


def equiv_check(item, out: tuple[int, str]) -> None:
    kind, left_text, right_text, bound = item
    code, printed = out
    record = json.loads(printed)
    left, right = read_distribution(left_text), read_distribution(right_text)
    if not record["contexts"]:
        raise OracleError(f"equiv at bound {bound} checked no context")
    equivalent = True
    for ctx in record["contexts"]:
        args = _context_args(ctx["context"])
        for arg in args:
            if free_names(arg) or not is_normal(arg):
                raise OracleError(f"context {ctx['context']!r} has an argument "
                                  "that is not closed and normal")
            truth_table(arg, 2)  # B -> B -> B
        want_left, want_right = _meaning(left, args), _meaning(right, args)
        if (read_distribution(ctx["left"]) != want_left
                or read_distribution(ctx["right"]) != want_right):
            raise OracleError(f"context {ctx['context']!r}: wrong result distribution")
        matches = want_left == want_right
        if ctx["matches"] != matches:
            raise OracleError(f"context {ctx['context']!r}: wrong match flag")
        equivalent = equivalent and matches
    if record["equivalent"] != equivalent or code != (0 if equivalent else 1):
        raise OracleError(f"equiv at bound {bound}: verdict or exit code does "
                          "not follow from the contexts")
    if equivalent != (kind == "self"):
        raise OracleError(f"equiv at bound {bound}: {kind} pair judged "
                          f"{'equivalent' if equivalent else 'not equivalent'}")


class Workload(NamedTuple):
    inputs: Callable    # (rng, tiny) -> one round of items
    run: Callable       # item -> output; the timed operation
    check: Callable     # (item, output) -> None, or raises OracleError
    fixed_rounds: int   # rounds over which ops_per_s and peak_rss_mb are taken


WORKLOADS = {
    "blowup": Workload(blowup_inputs, blowup_run, blowup_check, 4),
    "corpus": Workload(corpus_inputs, corpus_run, corpus_check, 3),
    "equiv": Workload(equiv_inputs, equiv_run, equiv_check, 4),
}
