"""The explorer's persistent-set reduction against the exhaustive explorer.

At a term holding a coin that no other redex can erase or duplicate, the
explorer fires only that coin. Making `independent_coin` return None gives
back the exhaustive explorer, which is the oracle here: both must return
the same tuple, or fail the same way.
"""

from random import Random

import pytest

import lambcoin.explore
from lambcoin import (
    CalculusVariant, Discipline, DivergenceError, Explorer, FuelExhausted,
    parse, subterm_at,
)
from lambcoin.rewrite import independent_coin

from genterms import closed_typed, random_term

def explore(t, variant=CalculusVariant.PLAIN, fuel=500):
    """(result or exception type, nodes visited)."""
    explorer = Explorer(variant, fuel)
    try:
        found = explorer.normal_form_distributions(t)
    except DivergenceError:
        found = DivergenceError
    except FuelExhausted:
        found = FuelExhausted
    return found, explorer.stats.nodes


def exhaustive(t, monkeypatch, variant=CalculusVariant.PLAIN, fuel=500):
    with monkeypatch.context() as m:
        m.setattr(lambcoin.explore, "independent_coin", lambda t: None)
        return explore(t, variant, fuel)


def assert_agrees(t, monkeypatch, variant=CalculusVariant.PLAIN,
                  fuel=500) -> bool:
    """Whether the oracle finished on `t` within `fuel` nodes; if it did, the
    reduced explorer returns the same tuple in no more nodes."""
    expected, oracle_nodes = exhaustive(t, monkeypatch, variant, fuel)
    if expected is FuelExhausted:
        return False
    found, nodes = explore(t, variant, fuel)
    assert found == expected
    assert nodes <= oracle_nodes
    return True


@pytest.mark.parametrize("text,coin", [
    ("\\y. y coin coin", ("body", "fun", "arg")),
    ("\\y. if y then coin else 0", ("body", "then")),
    ("f coin", ("arg",)),
    ("if coin then coin else 0", ("cond",)),
    ("(\\x. f coin) (\\z. z z)", ("fun", "body", "arg")),
    ("(\\x.\\y. y x x) coin", None),
    ("(\\x. x x) coin", None),
    ("(\\z. if z then coin else 0) 1", None),
    ("\\y. (\\x. x) coin", None),
    ("(\\x. x coin) (\\y. y y)", None),
    ("\\y. (\\w. w coin) y", None),  # w is bound inside, a beta fills it
])
def test_which_coin_qualifies(text, coin):
    t = parse(text)
    assert independent_coin(t) == coin
    if coin is not None:
        assert subterm_at(t, coin) == parse("coin")


@pytest.mark.parametrize("discipline", list(Discipline))
def test_typed_terms_agree_with_the_exhaustive_explorer(discipline, monkeypatch):
    compared = 0
    for seed in range(150):
        rng = Random(seed)
        t, _ = closed_typed(rng, discipline, size=rng.randint(3, 12))
        compared += assert_agrees(t, monkeypatch)
    assert compared == 150


@pytest.mark.parametrize("variant", list(CalculusVariant))
def test_untyped_terms_agree_with_the_exhaustive_explorer(variant, monkeypatch):
    compared = 0
    for seed in range(400):
        rng = Random(seed)
        t = random_term(rng, rng.randint(2, 12), free=("f", "g"),
                        allow_oplus=True)
        compared += assert_agrees(t, monkeypatch, variant)
    assert compared >= 380


@pytest.mark.parametrize("n", range(1, 7))
def test_blowup_families_agree_with_the_exhaustive_explorer(n, monkeypatch):
    copies = " ".join(["x"] * n)
    coins = " ".join(["coin"] * n)
    for text in (f"(\\x.\\y. y {copies}) coin", f"\\y. y {coins}",
                 f"(\\x.\\y. y {copies} coin) coin"):
        for variant in CalculusVariant:
            assert assert_agrees(parse(text), monkeypatch, variant, 10_000)


def test_duplication_visits_fewer_than_three_to_the_n_nodes(monkeypatch):
    for n in range(5, 9):
        t = parse(f"(\\x.\\y. y {' '.join(['x'] * n)}) coin")
        assert explore(t, fuel=10_000)[1] <= 2 ** n + 2 < 3 ** n
    six = parse("(\\x.\\y. y x x x x x x) coin")
    assert explore(six)[1] * 10 < exhaustive(six, monkeypatch, fuel=10_000)[1]
