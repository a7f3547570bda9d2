"""Elimination contexts, computational equivalence, Theorem-style checks."""

from fractions import Fraction

import pytest

from lambcoin import (
    App, BOOL, Discipline, Distribution, EliminationContext, If, Lam,
    NonConfluentPlug, NotSubAffineTyped, ONE, One, TypingError, Var, ZERO,
    Zero, check_computational_confluence, comp_equiv, dirac,
    enum_contexts, enum_normal_closed, format_context, is_normal,
    normal_form_distributions, parse, parse_type, plug, typecheck,
)
from lambcoin.equivalence import _enum_cache

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

FIG1 = parse("(\\x.\\y. y x x) coin")
SECTION4 = parse("(\\x.\\y. if y then x else ((\\z. if z then 0 else 1) x)) coin")


# --- independent oracle: enumerate every term, then filter -----------------

def _all_terms(size: int, depth: int) -> list:
    """Every plain term with exactly `size` nodes (no normality shortcuts)."""
    from lambcoin import COIN
    if size == 1:
        return [ZERO, ONE, COIN] + [Var(k) for k in range(depth)]
    out = []
    out.extend(Lam(b) for b in _all_terms(size - 1, depth + 1))
    for left in range(1, size - 1):
        for f in _all_terms(left, depth):
            for a in _all_terms(size - 1 - left, depth):
                out.append(App(f, a))
    for c_size in range(1, size - 2):
        for t_size in range(1, size - 1 - c_size):
            e_size = size - 1 - c_size - t_size
            for c in _all_terms(c_size, depth):
                for t in _all_terms(t_size, depth):
                    for e in _all_terms(e_size, depth):
                        out.append(If(c, t, e))
    return out


def _oracle_normal_closed(ty, bound: int) -> set:
    found = set()
    for size in range(1, bound + 1):
        for term in _all_terms(size, 0):
            if not is_normal(term):
                continue
            try:
                typecheck({}, term, Discipline.SIMPLE, goal=ty)
            except TypingError:
                continue
            found.add(term)
    return found


def test_enum_bool_is_exactly_zero_one():
    assert enum_normal_closed(BOOL, 1) == [Zero(), One()]
    assert enum_normal_closed(BOOL, 5) == [Zero(), One()]


def test_enum_bool_to_bool_contains_basics():
    terms = enum_normal_closed(parse_type("B -> B"), 4)
    for text in ("\\x. x", "\\x. 0", "\\x. 1"):
        assert parse(text) in terms
    bigger = enum_normal_closed(parse_type("B -> B"), 6)
    assert parse("\\x. if x then 0 else 1") in bigger


@pytest.mark.parametrize("ty_text,bound", [
    ("B", 5), ("B -> B", 5), ("B -> B -> B", 6), ("(B -> B) -> B", 7),
    ("B -> B -> B", 8),
])
def test_enum_matches_bruteforce_oracle(ty_text, bound):
    ty = parse_type(ty_text)
    assert set(enum_normal_closed(ty, bound)) == _oracle_normal_closed(ty, bound)


def test_enum_cache_holds_only_typable_terms():
    for ty_text in ("B -> B -> B", "(B -> B) -> B"):
        enum_normal_closed(parse_type(ty_text), 7)
    for key, terms in _enum_cache.items():
        depth = key[2] if key[0] in ("n", "a") else 0
        for term in terms:
            closed = term
            for _ in range(depth):
                closed = Lam(closed)
            typecheck({}, closed, Discipline.SIMPLE)


def test_enum_returns_a_fresh_list():
    ty = parse_type("B -> B")
    first = enum_normal_closed(ty, 4)
    expected = list(first)
    first.clear()
    assert enum_normal_closed(ty, 4) == expected


def test_enum_is_deterministic_and_size_sorted():
    from lambcoin import term_size
    terms = enum_normal_closed(parse_type("B -> B"), 6)
    assert terms == enum_normal_closed(parse_type("B -> B"), 6)
    sizes = [term_size(t) for t in terms]
    assert sizes == sorted(sizes)


def test_enum_contexts_base_type():
    contexts = enum_contexts(BOOL, 6)
    assert contexts == [EliminationContext((), BOOL)]
    assert format_context(contexts[0]) == "◊"


def test_enum_contexts_bool_to_bool():
    contexts = enum_contexts(parse_type("B -> B"), 6)
    assert [c.args for c in contexts] == [(Zero(),), (One(),)]
    assert format_context(contexts[1]) == "◊ 1"


def test_enum_contexts_two_arguments():
    ty = parse_type("B -> B -> B")
    contexts = enum_contexts(ty, 1)
    assert [c.args for c in contexts] == [
        (Zero(), Zero()), (Zero(), One()), (One(), Zero()), (One(), One()),
    ]


def test_plug_examples():
    not_term = parse("\\y. if y then 0 else 1")
    ctx = EliminationContext((Zero(),), parse_type("B -> B"))
    assert plug(ctx, not_term) == parse("(\\y. if y then 0 else 1) 0")
    assert plug(EliminationContext((), BOOL), parse("0")) == parse("0")
    two = EliminationContext((One(), Zero()), parse_type("B -> B -> B"))
    t = parse("\\a. \\b. a")
    assert plug(two, t) == parse("(\\a. \\b. a) 1 0")


def test_plug_rejects_wrong_type():
    ctx = EliminationContext((Zero(),), parse_type("B -> B"))
    with pytest.raises(TypingError):
        plug(ctx, parse("0"))


def section4_distributions():
    left = Distribution([(parse("\\y. if y then 0 else 1"), HALF),
                         (parse("\\y. if y then 1 else 0"), HALF)])
    right = Distribution([(parse(f"\\y. if y then {a} else {b}"), QUARTER)
                          for a in (0, 1) for b in (0, 1)])
    return left, right


def test_comp_equiv_section_four():
    left, right = section4_distributions()
    verdict = comp_equiv(left, right, parse_type("B -> B"))
    assert verdict.equivalent
    assert verdict.failing_context is None
    assert len(verdict.per_context) == 2
    expected = Distribution([(parse("0"), HALF), (parse("1"), HALF)])
    for check in verdict.per_context:
        assert check.matches
        assert check.left == expected
        assert check.right == expected


def test_comp_equiv_reflexive():
    left, _ = section4_distributions()
    assert comp_equiv(left, left, parse_type("B -> B")).equivalent


def test_comp_equiv_symmetric():
    left, right = section4_distributions()
    a = comp_equiv(left, right, parse_type("B -> B"))
    b = comp_equiv(right, left, parse_type("B -> B"))
    assert a.equivalent == b.equivalent


def test_comp_equiv_distinguishes_projections():
    d1 = dirac(parse("\\y. y"))
    d2 = dirac(parse("\\y. 0"))
    verdict = comp_equiv(d1, d2, parse_type("B -> B"))
    assert not verdict.equivalent
    assert verdict.failing_context == EliminationContext((One(),),
                                                         parse_type("B -> B"))


def test_dist_eq_implies_comp_equiv():
    left, _ = section4_distributions()
    same = Distribution(list(left.items()))
    assert left == same
    assert comp_equiv(left, same, parse_type("B -> B")).equivalent


def test_comp_equiv_transitive_over_shared_contexts():
    # a branch-sharing term with three distinct endpoint distributions:
    # pairwise verdicts under the same context set compose transitively
    term = parse("(\\x. \\y. if y then x else (\\z. x) coin) coin")
    finals = normal_form_distributions(term)
    assert len(finals) == 3
    ty = parse_type("B -> B")
    first, second, third = finals
    assert comp_equiv(first, second, ty).equivalent
    assert comp_equiv(second, third, ty).equivalent
    assert comp_equiv(first, third, ty).equivalent


def test_comp_equiv_requires_closed_typed_support():
    open_dist = dirac(parse("\\y. y x"))
    with pytest.raises(TypingError):
        comp_equiv(open_dist, open_dist, parse_type("B -> B"))
    with pytest.raises(TypingError):
        comp_equiv(dirac(parse("0")), dirac(parse("0")), parse_type("B -> B"))


def test_figure_one_endpoints_not_equivalent():
    # negative control at the documented instantiation y : B -> B -> B
    left, right = normal_form_distributions(FIG1)
    ty = parse_type("(B -> B -> B) -> B")
    verdict = comp_equiv(left, right, ty, size_bound=6)
    assert not verdict.equivalent
    assert verdict.failing_context is not None
    failing = next(c for c in verdict.per_context if not c.matches)
    assert failing.left != failing.right


def test_non_confluent_plug_surfaces():
    # the duplicated coin fed into a both-arguments function is non-confluent
    # once the outer abstraction is consumed by a context argument
    d = dirac(parse("\\z. (\\x.\\y. y x x) coin (\\a.\\b. if a then b else 0)"))
    ty = parse_type("B -> B")
    assert len(normal_form_distributions(parse(
        "(\\x.\\y. y x x) coin (\\a.\\b. if a then b else 0)"))) == 2
    with pytest.raises(NonConfluentPlug):
        comp_equiv(d, d, ty, size_bound=3)
    verdict = comp_equiv(d, d, ty, size_bound=3, single_path=True)
    assert verdict.equivalent


def test_computational_confluence_section_four():
    report = check_computational_confluence(SECTION4)
    assert report.equivalent
    assert report.term_type == parse_type("B -> B")
    assert len(report.distributions) == 2
    assert len(report.pairwise) == 1


def test_computational_confluence_constant():
    report = check_computational_confluence(parse("0"))
    assert report.equivalent
    assert report.distributions == (dirac(parse("0")),)
    assert report.pairwise == ()


def test_computational_confluence_refuses_figure_one():
    with pytest.raises(NotSubAffineTyped):
        check_computational_confluence(FIG1)


def test_computational_confluence_refuses_open_terms():
    with pytest.raises(NotSubAffineTyped):
        check_computational_confluence(parse("x"))
