"""Redex enumeration, single steps, and strategy selectors."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lambcoin import (
    CalculusVariant, Coin, NotARedex, One, Oplus, StepOutcome, Strategy,
    Zero, format_position, is_normal, parse, pretty, redexes, select_redex,
    step_at, substitute, subterm_at,
)

from genterms import random_term, term_with_redex

INTERNAL = CalculusVariant.INTERNALIZED
seeds = st.integers(min_value=0, max_value=2**32 - 1)

FIG1 = parse("(\\x.\\y. y x x) coin")


def test_redexes_figure_one():
    assert redexes(FIG1) == [(), ("arg",)]
    assert [format_position(p) for p in redexes(FIG1)] == ["root", "arg"]


def test_redexes_under_binder():
    t = parse("\\y. y coin coin")
    assert redexes(t) == [("body", "fun", "arg"), ("body", "arg")]


def test_redexes_normal_form():
    assert redexes(parse("\\x. x")) == []


def test_redexes_inside_if_branches():
    t = parse("if x then coin else ((\\y. y) 0)")
    assert redexes(t) == [("then",), ("else",)]


def test_step_coin_plain():
    out = step_at(Coin(), (), CalculusVariant.PLAIN)
    assert out.outcomes == ((Fraction(1, 2), One()), (Fraction(1, 2), Zero()))


def test_step_coin_internalized():
    out = step_at(Coin(), (), INTERNAL)
    assert out.outcomes == ((Fraction(1), Oplus(Fraction(1, 2), Zero(), One())),)


def test_step_if_redexes():
    out = step_at(parse("if 1 then 0 else 1"), ())
    assert out.outcomes == ((Fraction(1), Zero()),)
    out = step_at(parse("if 0 then 0 else 1"), ())
    assert out.outcomes == ((Fraction(1), One()),)


def test_step_beta_figure_one():
    out = step_at(FIG1, ())
    assert out.outcomes == ((Fraction(1), parse("\\y. y coin coin")),)


def test_step_embeds_context():
    t = parse("\\z. z coin")
    out = step_at(t, ("body", "arg"))
    assert out.outcomes == (
        (Fraction(1, 2), parse("\\z. z 1")),
        (Fraction(1, 2), parse("\\z. z 0")),
    )


def test_step_not_a_redex():
    with pytest.raises(NotARedex):
        step_at(parse("\\x. x"), ())
    with pytest.raises(NotARedex):
        step_at(FIG1, ("fun", "arg"))


def test_outcome_invariants_enforced():
    with pytest.raises(ValueError):
        StepOutcome(())
    with pytest.raises(ValueError):
        StepOutcome(((Fraction(1, 2), Zero()),))
    with pytest.raises(ValueError):
        StepOutcome(((Fraction(3, 2), Zero()), (Fraction(-1, 2), One())))


def test_is_normal_examples():
    assert is_normal(parse("\\y. y 0 0"))
    assert not is_normal(Coin())
    stuck = parse("\\y. y (0 +[1/2] 1) (0 +[1/2] 1)", INTERNAL)
    assert is_normal(stuck)


def test_choice_operands_are_reducible_contexts():
    t = parse("coin +[1/2] 0", INTERNAL)
    assert redexes(t) == [("oplus-left",)]
    out = step_at(t, ("oplus-left",), INTERNAL)
    inner = Oplus(Fraction(1, 2), Zero(), One())
    assert out.outcomes == ((Fraction(1), Oplus(Fraction(1, 2), inner, Zero())),)


def test_select_redex_figure_one():
    assert select_redex(FIG1, Strategy.CALL_BY_NAME) == ()
    assert select_redex(FIG1, Strategy.CALL_BY_VALUE) == ("arg",)


def test_select_redex_normal():
    for strategy in Strategy:
        assert select_redex(parse("0"), strategy) is None


def test_select_redex_strong():
    # both strategies reduce under binders and inside branches
    t = parse("\\y. if y then coin else 0")
    for strategy in Strategy:
        assert select_redex(t, strategy) == ("body", "then")


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_select_redex_agrees_with_is_normal(seed):
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(1, 12), free=("u",))
    for strategy in Strategy:
        pos = select_redex(t, strategy)
        assert (pos is None) == is_normal(t)
        assert pos == select_redex(t, strategy)  # deterministic
        if pos is not None:
            assert pos in redexes(t)


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_outcome_probabilities_sum_to_one(seed):
    rng = Random(seed)
    t = term_with_redex(rng, size=rng.randint(2, 12))
    for pos in redexes(t):
        outcome = step_at(t, pos)
        assert sum(p for p, _ in outcome.outcomes) == 1
        assert all(p > 0 for p, _ in outcome.outcomes)


@given(seeds)
@settings(max_examples=200, deadline=None)
def test_step_substitution_commutation(seed):
    # a step of t maps to the same step of t[r/x], outcome by outcome
    rng = Random(seed)
    t = term_with_redex(rng, size=rng.randint(2, 10), free=("x",))
    r = random_term(rng, size=rng.randint(1, 6), free=("y",))
    substituted = substitute(t, "x", r)
    for pos in redexes(t):
        direct = step_at(t, pos)
        image = step_at(substituted, pos)
        expected = tuple((p, substitute(u, "x", r)) for p, u in direct.outcomes)
        assert image.outcomes == expected


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_firing_coin_decreases_coin_count(seed):
    rng = Random(seed)
    t = term_with_redex(rng, size=rng.randint(2, 12))

    def coins(u) -> int:
        return pretty(u).count("coin")

    for pos in redexes(t):
        if isinstance(subterm_at(t, pos), Coin):
            for _, result in step_at(t, pos).outcomes:
                assert coins(result) == coins(t) - 1
