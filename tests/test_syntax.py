"""Parsing, printing, substitution, and alpha-equality."""

from random import Random

import pytest
from hypothesis import given, strategies as st

from lambcoin import (
    App, COIN, Coin, FreeVar, Lam, ONE, One, Oplus, ParseError, ScopeError,
    Var, VariantError, ZERO, Zero, CalculusVariant, abstract,
    count_occurrences, free_vars, instantiate, parse, parse_type, pretty,
    replace_at, substitute, term_size, Arrow, BOOL, format_type,
)
from fractions import Fraction

from genterms import random_term

INTERNAL = CalculusVariant.INTERNALIZED

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def test_parse_figure_one_structure():
    t = parse("(\\x.\\y. y x x) coin")
    assert t == App(
        Lam(Lam(App(App(Var(0), Var(1)), Var(1)))),
        Coin(),
    )


def test_parse_constants():
    assert parse("0") == Zero()
    assert parse("1") == One()
    assert parse("coin") == Coin()


def test_parse_choice_internalized():
    t = parse("0 +[1/2] 1", INTERNAL)
    assert t == Oplus(Fraction(1, 2), Zero(), One())


def test_parse_choice_rejected_in_plain():
    with pytest.raises(VariantError):
        parse("0 +[1/2] 1")


def test_parse_choice_probability_bounds():
    with pytest.raises(ParseError):
        parse("0 +[1] 1", INTERNAL)
    with pytest.raises(ParseError):
        parse("0 +[0/3] 1", INTERNAL)
    assert parse("0 +[2/4] 1", INTERNAL) == Oplus(Fraction(1, 2), Zero(), One())


def test_parse_choice_lowest_precedence():
    t = parse("x y +[1/3] z w", INTERNAL)
    assert t == Oplus(Fraction(1, 3),
                      App(FreeVar("x"), FreeVar("y")),
                      App(FreeVar("z"), FreeVar("w")))


def test_parse_choice_left_associative():
    t = parse("0 +[1/2] 1 +[1/3] 0", INTERNAL)
    assert t == Oplus(Fraction(1, 3),
                      Oplus(Fraction(1, 2), Zero(), One()),
                      Zero())


def test_parse_application_left_associative():
    assert parse("f a b") == App(App(FreeVar("f"), FreeVar("a")), FreeVar("b"))


def test_parse_lam_keyword_spelling():
    assert parse("lam x. x") == parse("\\x. x")


def test_parse_if_else_extends_right():
    t = parse("if c then a else b w")
    assert t.orelse == App(FreeVar("b"), FreeVar("w"))


def test_parse_shadowing():
    t = parse("\\x. \\x. x")
    assert t == Lam(Lam(Var(0)))


def test_parse_keywords_not_identifiers():
    with pytest.raises(ParseError):
        parse("\\if. if")


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("(\\x. x")
    assert err.value.line == 1
    with pytest.raises(ParseError):
        parse("2")


def test_closed_mode_scope_error():
    assert parse("\\x. x", closed=True) == Lam(Var(0))
    with pytest.raises(ScopeError):
        parse("\\x. y", closed=True)


def test_pretty_examples():
    assert pretty(Coin()) == "coin"
    assert pretty(Lam(Var(0))) == "\\x0. x0"
    assert pretty(parse("(\\x.\\y. y x x) coin")) == "(\\x0. \\x1. x1 x0 x0) coin"


def test_pretty_free_names_kept_and_not_captured():
    t = parse("\\a. x0 a")
    out = pretty(t)
    assert "x0" in out
    assert parse(out) == t
    # binder must have been renamed away from the free x0
    assert out != "\\x0. x0 x0"


def test_pretty_if_parenthesized_in_application():
    t = parse("(if c then a else b) w")
    assert parse(pretty(t)) == t
    assert pretty(t).startswith("(if")


def test_substitute_examples():
    target = parse("\\y. y x x")
    assert substitute(target, "x", Coin()) == parse("\\y. y coin coin")
    assert substitute(FreeVar("x"), "x", parse("r")) == FreeVar("r")
    identity = parse("\\x. x")
    assert substitute(identity, "y", parse("r")) == identity


def test_instantiate_beta_body():
    lam = parse("\\x. \\y. y x x")
    body = instantiate(lam.body, Coin())
    assert body == parse("\\y. y coin coin")
    # An argument with a loose index is shifted past the binders it goes under.
    assert instantiate(parse("\\v2. \\v3. v2").body, Var(0)) == Lam(Var(1))


def test_abstract_inverts_instantiate():
    t = parse("\\y. y x x")
    lam = abstract(t, "x")
    assert instantiate(lam.body, FreeVar("x")) == t


def test_constants_hash_apart():
    assert len({hash(ZERO), hash(ONE), hash(COIN)}) == 3
    constants = ("0", "1", "coin")
    terms = [parse(f"\\y. y {a} {b} {c}")
             for a in constants for b in constants for c in constants]
    assert len({hash(t) for t in terms}) == 27


def test_equal_terms_hash_equal_however_built():
    # The same term built by the parser, by beta instantiation and by
    # replacing a subterm, each with its own nodes.
    target = parse("\\y. y coin (\\z. z) 0")
    by_instantiate = instantiate(parse("\\x. \\y. y x (\\z. z) 0").body, COIN)
    by_replace = replace_at(parse("\\y. y 1 (\\z. z) 0"), ("body", "fun", "fun", "arg"),
                            COIN)
    for built in (by_instantiate, by_replace):
        assert built == target and built is not target
        assert hash(built) == hash(target)


def test_hints_take_no_part_in_equality_or_hash():
    a = Lam(App(Var(0, "a"), Lam(Var(1, "a"), "b")), "a")
    b = Lam(App(Var(0, "p"), Lam(Var(1), None)), "q")
    assert a == b and hash(a) == hash(b)
    assert parse("\\x. \\y. y x") == parse("\\u. \\v. v u")
    assert hash(parse("\\x. \\y. y x")) == hash(parse("\\u. \\v. v u"))


def test_choice_probability_is_compared():
    third = Oplus(Fraction(1, 3), ZERO, ONE)
    half = Oplus(Fraction(1, 2), ZERO, ONE)
    assert third != half
    assert third == Oplus(Fraction(2, 6), ZERO, ONE)
    assert hash(third) == hash(Oplus(Fraction(2, 6), ZERO, ONE))


def test_alpha_eq_examples():
    assert parse("\\x. x") == parse("\\y. y")
    assert parse("\\x.\\y. y x x") == parse("\\a.\\b. b a a")
    assert parse("\\y. y 0 1") != parse("\\y. y 1 0")


def test_alpha_eq_choice_structural():
    a = parse("0 +[1/2] 1", INTERNAL)
    b = parse("1 +[1/2] 0", INTERNAL)
    assert a != b
    assert a == parse("0 +[1/2] 1", INTERNAL)


def test_free_vars_examples():
    assert free_vars(parse("(\\x.\\y. y x x) coin")) == frozenset()
    assert free_vars(parse("y x x")) == {"x", "y"}
    assert free_vars(parse("\\y. y x x")) == {"x"}


def test_count_occurrences_examples():
    assert count_occurrences(parse("\\y. y x x"), "x") == 2
    assert count_occurrences(parse("0"), "x") == 0
    assert count_occurrences(parse("if c then x else x"), "x") == 2


def test_term_size():
    assert term_size(parse("0")) == 1
    assert term_size(parse("\\x. x")) == 2
    assert term_size(parse("(\\x.\\y. y x x) coin")) == 9


def test_type_parse_format_roundtrip():
    for text in ["B", "B -> B", "(B -> B) -> B", "B -> B -> B"]:
        assert format_type(parse_type(text)) == text
    assert parse_type("B->B->B") == Arrow(BOOL, Arrow(BOOL, BOOL))
    with pytest.raises(ParseError):
        parse_type("B ->")


@given(seeds)
def test_parse_pretty_roundtrip(seed):
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(1, 14), binders=0,
                    free=("u", "w"), allow_oplus=True)
    assert parse(pretty(t), INTERNAL) == t


@given(seeds)
def test_substitute_free_var_bookkeeping(seed):
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(1, 10), free=("x", "y"))
    r = random_term(rng, size=rng.randint(1, 6), free=("y", "z"))
    result = free_vars(substitute(t, "x", r))
    expected = free_vars(t) - {"x"}
    if "x" in free_vars(t):
        expected |= free_vars(r)
    assert result == expected


@given(seeds)
def test_substitution_commutation(seed):
    # t[q/y][r/x] = t[r/x][q[r/x]/y] whenever y is not free in r
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(1, 10), free=("x", "y"))
    q = random_term(rng, size=rng.randint(1, 6), free=("x", "z"))
    r = random_term(rng, size=rng.randint(1, 6), free=("x", "z"))
    assert "y" not in free_vars(r)
    lhs = substitute(substitute(t, "y", q), "x", r)
    rhs = substitute(substitute(t, "x", r), "y", substitute(q, "x", r))
    assert lhs == rhs


@given(seeds)
def test_alpha_eq_is_congruence(seed):
    rng = Random(seed)
    t = random_term(rng, size=rng.randint(1, 8), free=("x",))
    u = random_term(rng, size=rng.randint(1, 8), free=("x",))
    assert t == t
    if t == u:
        assert u == t
        assert Lam(t) == Lam(u)
        assert App(t, t) == App(u, u)
