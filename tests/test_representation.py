"""The stored representations against reference oracles.

Each term node stores whether it is normal, and a `Distribution` stores
integer weights over one common denominator. Both are checked here against
the straightforward forms they replace: a recursive walk over the term, and
a map from terms to `Fraction`s.
"""

from fractions import Fraction
from random import Random

from lambcoin import (
    App, CalculusVariant, Coin, Distribution, If, Lam, One, Oplus, Strategy,
    Zero, children, combine, dirac, format_distribution, is_normal, lift_step,
    parse, parse_distribution, pretty, redexes, select_redex, step_at,
)

from genterms import random_term

PLAIN, INTERNALIZED = CalculusVariant.PLAIN, CalculusVariant.INTERNALIZED


# ---------------------------------------------------------------------------
# Normality: the stored flag against a recursive walk

def is_redex_head(t) -> bool:
    match t:
        case App(Lam(), _) | If(Zero() | One(), _, _) | Coin():
            return True
    return False


def walk_is_normal(t) -> bool:
    return not is_redex_head(t) and all(walk_is_normal(c) for _, c in children(t))


def walk_redexes(t, pos=()) -> list:
    found = [pos] if is_redex_head(t) else []
    for name, child in children(t):
        found += walk_redexes(child, pos + (name,))
    return found


def walk_select(t, strategy, pos=()):
    """Leftmost-outermost (cbn) or leftmost-innermost (cbv) redex, or None."""
    if strategy is Strategy.CALL_BY_NAME and is_redex_head(t):
        return pos
    for name, child in children(t):
        hit = walk_select(child, strategy, pos + (name,))
        if hit is not None:
            return hit
    return pos if is_redex_head(t) else None


def reachable(t, variant, limit=60) -> list:
    """`t` and terms that `step_at` reaches from it, breadth first."""
    seen, queue = {t}, [t]
    for u in queue:
        for pos in walk_redexes(u):
            for _, r in step_at(u, pos, variant).outcomes:
                if r not in seen and len(seen) < limit:
                    seen.add(r)
                    queue.append(r)
    return queue


def test_stored_normality_matches_the_walk_on_reachable_terms():
    rng = Random(20261018)
    checked = {PLAIN: 0, INTERNALIZED: 0}
    normal = 0
    for i in range(400):
        variant = PLAIN if i % 2 else INTERNALIZED
        root = random_term(rng, rng.randint(4, 16), free=("f",),
                           allow_oplus=variant is INTERNALIZED)
        for t in reachable(root, variant):
            assert is_normal(t) == walk_is_normal(t), pretty(t)
            assert redexes(t) == walk_redexes(t), pretty(t)
            for strategy in Strategy:
                assert select_redex(t, strategy) == walk_select(t, strategy)
            checked[variant] += 1
            normal += is_normal(t)
    assert min(checked.values()) > 500
    assert 0 < normal < sum(checked.values())


def test_choice_nodes_are_not_redex_heads():
    t = parse("0 +[2/7] (\\x. x) 1", INTERNALIZED)
    assert isinstance(t, Oplus) and not is_normal(t)
    assert redexes(t) == [("oplus-right",)]
    assert is_normal(parse("\\y. y (0 +[1/3] 1) (0 +[1/3] 1)", INTERNALIZED))
    assert not is_normal(parse("if 1 then 0 else 0"))
    assert is_normal(parse("\\y. if y then 0 else 1"))


# ---------------------------------------------------------------------------
# Weights: the integer form against a Fraction reference

DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 12)


def random_weights(rng: Random, count: int) -> list[Fraction]:
    """`count` positive Fractions that sum to 1, rarely dyadic."""
    raw = [Fraction(rng.randint(1, 9), rng.choice(DENOMINATORS))
           for _ in range(count)]
    total = sum(raw)
    return [w / total for w in raw]


def random_reference(rng: Random, pool: list, variant) -> dict:
    """A term -> Fraction map, with repeated support terms merged."""
    ref: dict = {}
    for t, w in zip(rng.sample(pool, rng.randint(1, 4)),
                    random_weights(rng, 4)):
        ref[t] = ref.get(t, 0) + w
    if len(ref) < 4:  # the unused weights go to the first term
        first = next(iter(ref))
        ref[first] += 1 - sum(ref.values())
    return ref


def reference_text(ref: dict) -> str:
    body = " ; ".join(f"{p}: {pretty(t)}"
                      for t, p in sorted(ref.items(), key=lambda kv: pretty(kv[0])))
    return "{ " + body + " }"


def build(ref: dict, rng: Random, variant) -> Distribution:
    """`ref` as a Distribution, by the constructor or by parsing its text."""
    if rng.random() < 0.5:
        return Distribution(list(ref.items()))
    return parse_distribution(reference_text(ref), variant)


def assert_matches(d: Distribution, ref: dict, outside) -> None:
    assert dict(d.items()) == ref
    assert len(d) == len(ref)
    assert all(d.probability(t) == p for t, p in ref.items())
    assert d.probability(outside) == 0
    assert format_distribution(d) == reference_text(ref)


def term_pool(rng: Random, variant) -> list:
    pool = {random_term(rng, rng.randint(1, 7),
                        allow_oplus=variant is INTERNALIZED) for _ in range(12)}
    if variant is INTERNALIZED:
        pool |= {parse("(\\x. x +[1/3] coin) (0 +[2/7] 1)", variant),
                 parse("0 +[5/7] (\\x. x) 1", variant)}
    return sorted(pool, key=pretty)


def test_integer_distributions_match_the_fraction_reference():
    rng = Random(7)
    outside = parse("\\a. \\b. \\c. a b c")
    for i in range(300):
        variant = PLAIN if i % 2 else INTERNALIZED
        pool = term_pool(rng, variant)
        refs = [random_reference(rng, pool, variant) for _ in range(3)]
        dists = [build(ref, rng, variant) for ref in refs]
        for d, ref in zip(dists, refs):
            assert_matches(d, ref, outside)

        # combine
        weights = random_weights(rng, len(dists))
        expected: dict = {}
        for w, ref in zip(weights, refs):
            for t, p in ref.items():
                expected[t] = expected.get(t, 0) + w * p
        combined = combine(list(zip(weights, dists)))
        assert_matches(combined, expected, outside)

        # == and hash agree with the reference, rebuilt another way
        twin = build(expected, rng, variant)
        assert combined == twin and hash(combined) == hash(twin)
        for d, ref in zip(dists, refs):
            assert (d == combined) == (ref == expected)

        # lift_step fires one random redex in every non-normal support term
        choice = {t: rng.choice(redexes(t)) for t in expected if not is_normal(t)}
        lifted: dict = {}
        for t, p in expected.items():
            outcomes = (step_at(t, choice[t], variant).outcomes if t in choice
                        else ((1, t),))
            for q, r in outcomes:
                lifted[r] = lifted.get(r, 0) + p * q
        assert_matches(lift_step(combined, choice, variant), lifted, outside)


def test_equal_distributions_built_apart_are_equal_and_hash_equal():
    a, b = parse("0"), parse("\\x. x")
    built = [
        (parse_distribution("{ 2/4: 0 ; 1/2: 0 }"), dirac(a)),
        (combine([(Fraction(1, 3), dirac(a)), (Fraction(2, 3), dirac(a))]), dirac(a)),
        (Distribution([(a, Fraction(1, 6)), (b, Fraction(1, 2)), (a, Fraction(1, 3))]),
         parse_distribution("{ 1/2: 0 ; 1/2: \\y. y }")),
        (combine([(Fraction(2, 7), parse_distribution("{ 1/3: 0 ; 2/3: \\x. x }")),
                  (Fraction(5, 7), parse_distribution("{ 1/3: 0 ; 2/3: \\z. z }"))]),
         Distribution({a: Fraction(1, 3), b: Fraction(2, 3)})),
    ]
    for left, right in built:
        assert left == right
        assert hash(left) == hash(right)
        assert format_distribution(left) == format_distribution(right)
    assert parse_distribution("{ 1/3: 0 ; 2/3: 1 }") != parse_distribution(
        "{ 2/3: 0 ; 1/3: 1 }")


def test_a_single_part_of_weight_one_is_returned_unchanged():
    d = parse_distribution("{ 1/3: 0 ; 2/3: 1 }")
    assert combine([(Fraction(1), d)]) is d
    assert combine([(1, d)]) is d
