"""The coin-free normalizer against the exhaustive explorer, its oracle."""

from random import Random

import pytest

from lambcoin import (
    App, Arrow, BOOL, Discipline, Explorer, FreeVar, FuelExhausted, ONE, ZERO,
    abstract, coin_free, combine, comp_equiv, dirac, enum_contexts,
    normal_form_distributions, normalize, parse, parse_type, plug, pretty,
    typecheck,
)

from genterms import FIRST_ORDER, closed_typed, open_typed, without_coins

FIG1 = parse("(\\x.\\y. y x x) coin")
XOR_LEFT = ("\\f. if f 0 0 then 0 else (if f 1 1 then 0 else "
            "(if f 0 1 then f 1 0 else 0))")
EQUIV_TYPE = parse_type("(B->B->B)->B")


def _open_beta(rng: Random):
    """`\\y. (\\x. body) arg`: the argument mentions the outer binder, and
    copies of it that land under binders of `body` must be shifted."""
    var_ty = rng.choice(FIRST_ORDER[:2])
    body = open_typed(rng, Discipline.SIMPLE, "x", var_ty,
                      rng.choice(FIRST_ORDER), size=rng.randint(3, 10))
    arg = open_typed(rng, Discipline.SIMPLE, "y", rng.choice(FIRST_ORDER[:2]),
                     var_ty, size=rng.randint(2, 6))
    return abstract(App(abstract(body, "x"), arg), "y")


def _neutral_head(rng: Random):
    """`\\g. g arg`: a variable head whose argument may still reduce."""
    arg = open_typed(rng, Discipline.SIMPLE, "g", Arrow(BOOL, BOOL), BOOL,
                     size=rng.randint(3, 10))
    return abstract(App(FreeVar("g"), arg), "g")


def _coin_free_terms(seed: int, count: int):
    rng = Random(seed)
    for index in range(count):
        if index % 3 == 1:
            term = _open_beta(rng)
        elif index % 3 == 2:
            term = _neutral_head(rng)
        else:
            term, _ = closed_typed(rng, Discipline.SIMPLE,
                                   size=rng.randint(3, 14))
        yield without_coins(rng, term)


@pytest.mark.parametrize("seed", range(6))
def test_normalize_agrees_with_exploration(seed):
    # one explorer for every normalization, as comp_equiv shares one across
    # its plugs, so answers cached for one term serve the next
    shared = Explorer()
    reduced = 0
    for term in _coin_free_terms(seed, 60):
        assert coin_free(term)
        typecheck({}, term, Discipline.SIMPLE)
        nf = normalize(term, shared)
        assert Explorer().normal_form_distributions(term) == (dirac(nf),), \
            pretty(term)
        assert normalize(nf) is nf
        reduced += nf != term
    assert reduced >= 10  # the terms are not mostly normal already


def test_normalize_keeps_normal_terms_and_contracts_redexes():
    for text in ("0", "\\x. x", "\\f. f 0 1", "\\x. if x then 0 else 1"):
        term = parse(text)
        assert normalize(term) is term
    assert normalize(parse("(\\x. \\y. x) (\\z. z)")) == parse("\\y. \\z. z")
    assert normalize(parse("if 1 then 0 else (\\x. x) 1")) == ZERO
    assert normalize(parse("\\y. (\\x. \\z. x) y")) == parse("\\y. \\z. y")
    assert normalize(parse("\\y. if (\\x. x) 0 then y else 1")) == parse("\\y. 1")
    assert normalize(parse("\\g. g ((\\x. x) 0)")) == parse("\\g. g 0")


def test_normalize_refuses_coins():
    for text in ("coin", "\\x. if coin then x else 0"):
        with pytest.raises(ValueError):
            normalize(parse(text))


def test_normalize_spends_fuel():
    with pytest.raises(FuelExhausted):
        normalize(parse("(\\x. x x) (\\x. x x)"), Explorer(fuel=50))
    explorer = Explorer(fuel=50)
    normalize(parse("(\\x. x) ((\\x. x) 0)"), explorer)
    assert explorer.stats.nodes == 2
    assert explorer.stats.max_depth == 1  # the argument's redex
    normalize(parse("(\\x. x) 0"), explorer)  # cached
    assert explorer.stats.nodes == 2


def _explored(d, context, explorer):
    parts = []
    for term, prob in d.items():
        finals = explorer.normal_form_distributions(plug(context, term))
        assert len(finals) == 1
        parts.append((prob, finals[0]))
    return combine(parts)


def test_context_checks_match_exploration():
    left, right = normal_form_distributions(FIG1)
    verdict = comp_equiv(left, right, EQUIV_TYPE, size_bound=7)
    contexts = enum_contexts(EQUIV_TYPE, 7)
    assert [c.context for c in verdict.per_context] == contexts
    explorer = Explorer()
    for check in verdict.per_context:
        assert check.left == _explored(left, check.context, explorer)
        assert check.right == _explored(right, check.context, explorer)
        assert check.matches == (check.left == check.right)
    assert not verdict.equivalent


def test_xor_pair_within_fuel_and_out_of_it():
    left = dirac(parse(XOR_LEFT))
    right = dirac(parse("\\f. 0"))
    verdict = comp_equiv(left, right, EQUIV_TYPE, size_bound=9)
    assert not verdict.equivalent
    xor = verdict.failing_context.args[0]
    for a, b in ((ZERO, ZERO), (ZERO, ONE), (ONE, ZERO), (ONE, ONE)):
        assert normalize(App(App(xor, a), b)) == (ONE if a != b else ZERO)
    with pytest.raises(FuelExhausted):
        comp_equiv(left, right, EQUIV_TYPE, size_bound=9, fuel=50)
