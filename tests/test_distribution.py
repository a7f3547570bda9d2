"""Exact distributions: construction invariants, combination, lifting."""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from lambcoin import (
    Distribution, InvalidChoice, WeightError, combine, dirac,
    format_distribution, lift_step, parse, parse_distribution, subst_dist,
)

from genterms import random_term

seeds = st.integers(min_value=0, max_value=2**32 - 1)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def test_dirac():
    assert dirac(parse("0")).probability(parse("0")) == 1
    d = dirac(parse("\\y. y coin coin"))
    assert d.support == (parse("\\y. y coin coin"),)
    assert dirac(parse("coin")).probability(parse("coin")) == 1


def test_construction_merges_alpha_equal_support():
    d = Distribution([(parse("\\x. x"), HALF), (parse("\\y. y"), HALF)])
    assert len(d) == 1
    assert d.probability(parse("\\z. z")) == 1


def test_construction_rejects_bad_mass():
    with pytest.raises(WeightError):
        Distribution([(parse("0"), HALF)])
    with pytest.raises(WeightError):
        Distribution([(parse("0"), Fraction(3, 2)), (parse("1"), -HALF)])


def test_combine_figure_one_left():
    parts = [(HALF, dirac(parse("\\y. y 0 0"))), (HALF, dirac(parse("\\y. y 1 1")))]
    d = combine(parts)
    assert d.probability(parse("\\y. y 0 0")) == HALF
    assert d.probability(parse("\\y. y 1 1")) == HALF


def test_combine_merges_identical_support():
    t = parse("\\y. y 0 0")
    assert combine([(HALF, dirac(t)), (HALF, dirac(t))]) == dirac(t)


def test_combine_overlapping_supports():
    # weights 1/2 each over {1/2 a, 1/2 b} and {1/2 b, 1/2 c};
    # independent summation: a gets 1/2*1/2, b gets 1/2*1/2 + 1/2*1/2, c 1/2*1/2
    a, b, c = parse("0"), parse("1"), parse("\\x. x")
    d1 = Distribution([(a, HALF), (b, HALF)])
    d2 = Distribution([(b, HALF), (c, HALF)])
    expected = {a: HALF * HALF, b: HALF * HALF + HALF * HALF, c: HALF * HALF}
    result = combine([(HALF, d1), (HALF, d2)])
    assert dict(result.items()) == expected
    assert result.probability(b) == HALF


def test_combine_weight_errors():
    d = dirac(parse("0"))
    with pytest.raises(WeightError):
        combine([(HALF, d)])
    with pytest.raises(WeightError):
        combine([(Fraction(0), d), (Fraction(1), d)])


def test_combine_associativity():
    rng = Random(7)
    dists = [dirac(random_term(rng, 4)) for _ in range(4)]
    w = [Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)]
    flat = combine(list(zip(w, dists)))
    nested = combine([
        (HALF, combine([(w[0] / HALF, dists[0]), (w[1] / HALF, dists[1])])),
        (HALF, combine([(w[2] / HALF, dists[2]), (w[3] / HALF, dists[3])])),
    ])
    assert flat == nested


def test_dist_eq_examples():
    left = Distribution([(parse("\\y. y 0 0"), HALF), (parse("\\y. y 1 1"), HALF)])
    right = Distribution([(parse(f"\\y. y {a} {b}"), QUARTER)
                          for a, b in ((0, 0), (0, 1), (1, 0), (1, 1))])
    assert left != right
    reordered = Distribution([(parse("\\y. y 1 1"), HALF), (parse("\\y. y 0 0"), HALF)])
    assert left == reordered
    alpha = Distribution([(parse("\\x. x"), HALF), (parse("0"), HALF)])
    beta = Distribution([(parse("\\y. y"), HALF), (parse("0"), HALF)])
    assert alpha == beta


def test_subst_dist_examples():
    d = Distribution([(parse("x"), HALF), (parse("0"), HALF)])
    assert subst_dist(d, "x", parse("0")) == dirac(parse("0"))
    d = dirac(parse("\\y. y x x"))
    assert subst_dist(d, "x", parse("coin")) == dirac(parse("\\y. y coin coin"))
    d = Distribution([(parse("if x then 0 else 1"), HALF), (parse("x"), HALF)])
    expected = Distribution([(parse("if 1 then 0 else 1"), HALF), (parse("1"), HALF)])
    assert subst_dist(d, "x", parse("1")) == expected


def test_lift_step_figure_one_first_steps():
    fig1 = parse("(\\x.\\y. y x x) coin")
    start = dirac(fig1)
    after_coin = lift_step(start, {fig1: ("arg",)})
    expected = Distribution([(parse("(\\x.\\y. y x x) 0"), HALF),
                             (parse("(\\x.\\y. y x x) 1"), HALF)])
    assert after_coin == expected
    betas = {t: () for t in after_coin.support}
    final = lift_step(after_coin, betas)
    assert final == Distribution([(parse("\\y. y 0 0"), HALF),
                                  (parse("\\y. y 1 1"), HALF)])


def test_lift_step_keeps_normal_support():
    d = dirac(parse("0"))
    assert lift_step(d, {}) == d


def test_lift_step_invalid_choice():
    fig1 = parse("(\\x.\\y. y x x) coin")
    with pytest.raises(InvalidChoice):
        lift_step(dirac(fig1), {})
    with pytest.raises(InvalidChoice):
        lift_step(dirac(fig1), {fig1: ("fun",)})
    with pytest.raises(InvalidChoice):
        lift_step(dirac(parse("0")), {parse("0"): ()})


def test_lift_step_merges_collapsing_outcomes():
    d = Distribution([(parse("if 1 then 0 else 1"), HALF),
                      (parse("if 0 then 1 else 0"), HALF)])
    stepped = lift_step(d, {t: () for t in d.support})
    assert stepped == dirac(parse("0"))


def test_format_canonical_order_and_values():
    d = Distribution([(parse("\\y. y 1 1"), HALF), (parse("\\y. y 0 0"), HALF)])
    assert format_distribution(d) == "{ 1/2: \\x0. x0 0 0 ; 1/2: \\x0. x0 1 1 }"
    assert format_distribution(dirac(parse("0"))) == "{ 1: 0 }"


def test_construction_order_never_shows():
    # Figure 1's uniform endpoint, built four ways, each meeting its support
    # in another order.
    cells = [parse(f"\\y. y {a} {b}") for a in (0, 1) for b in (0, 1)]
    by_combine = combine([
        (HALF, Distribution([(cells[3], HALF), (cells[2], HALF)])),
        (HALF, Distribution([(cells[1], HALF), (cells[0], HALF)])),
    ])
    half_done = Distribution([(parse("\\y. y 1 coin"), HALF),
                              (parse("\\y. y 0 coin"), HALF)])
    by_lift = lift_step(half_done, {t: ("body", "arg") for t in half_done.support})
    reversed_entries = Distribution([(t, QUARTER) for t in reversed(cells)])
    by_text = parse_distribution(format_distribution(reversed_entries))
    built = [by_combine, by_lift, reversed_entries, by_text]
    for d in built:
        assert d == by_combine and hash(d) == hash(by_combine)
        assert d.support == tuple(cells)
        assert list(d.items()) == [(t, QUARTER) for t in cells]
        assert format_distribution(d) == (
            "{ 1/4: \\x0. x0 0 0 ; 1/4: \\x0. x0 0 1 ; "
            "1/4: \\x0. x0 1 0 ; 1/4: \\x0. x0 1 1 }")


def test_parse_distribution_roundtrip():
    d = Distribution([(parse("\\y. y 1 1"), QUARTER),
                      (parse("\\y. y 0 0"), Fraction(3, 4))])
    assert parse_distribution(format_distribution(d)) == d
    with pytest.raises(WeightError):
        parse_distribution("1/2: 0")
    with pytest.raises(WeightError):
        parse_distribution("{ 1/2: 0 }")


def test_parse_distribution_merges_duplicates():
    d = parse_distribution("{ 1/2: \\a. a ; 1/2: \\b. b }")
    assert d == dirac(parse("\\x. x"))


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_lift_step_preserves_mass(seed):
    from lambcoin import select_redex, Strategy
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(2, 10))
    d = dirac(t)
    for _ in range(3):
        choice = {}
        for term in d.support:
            pos = select_redex(term, Strategy.CALL_BY_NAME)
            if pos is not None:
                choice[term] = pos
        if not choice:
            break
        d = lift_step(d, choice)
        assert sum(p for _, p in d.items()) == 1
