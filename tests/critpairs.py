"""The six overlapping-redex schemas and their completions.

Four schemas come from a conditional on a constant competing with a
reduction inside one of its branches, two from a beta redex competing with
a reduction inside the abstraction body or inside the argument. The first
five close up to distribution equality; the argument schema closes only up
to computational equivalence. It is checked with exact evaluation of every
plug, so a plug with several normal-form distributions fails the check.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from lambcoin import (
    App, Arrow, BOOL, Discipline, Distribution, If, ONE, Term, Type, ZERO,
    abstract, comp_equiv, dirac, is_normal, lift_step,
    outcome_dist as dist_of, redexes, step_at, substitute, typecheck,
)

from genterms import (
    closed_typed, open_typed, random_term, term_with_redex,
)


def _fire_root_everywhere(d: Distribution) -> Distribution:
    return lift_step(d, {t: () for t in d.support})


def check_if_kept_branch(rng: Random, cond_is_one: bool) -> None:
    """Conditional redex vs a reduction inside the branch that survives."""
    r = term_with_redex(rng, size=rng.randint(2, 6))
    s = random_term(rng, size=rng.randint(1, 5))
    if cond_is_one:
        conditional, selector = If(ONE, r, s), "then"
    else:
        conditional, selector = If(ZERO, s, r), "else"
    pos = rng.choice(redexes(r))
    # complete the conditional-first path: if fires, then the inner redex
    assert step_at(conditional, ()).outcomes == ((Fraction(1), r),)
    end_conditional_first = dist_of(step_at(r, pos))
    # complete the branch-first path: inner redex, then the if in every outcome
    after_inner = dist_of(step_at(conditional, (selector,) + pos))
    end_branch_first = _fire_root_everywhere(after_inner)
    assert end_conditional_first == end_branch_first


def check_if_discarded_branch(rng: Random, cond_is_one: bool) -> None:
    """Conditional redex vs a reduction inside the branch that is thrown away."""
    r = term_with_redex(rng, size=rng.randint(2, 6))
    s = random_term(rng, size=rng.randint(1, 5))
    if cond_is_one:
        conditional, selector = If(ONE, s, r), "else"
    else:
        conditional, selector = If(ZERO, r, s), "then"
    pos = rng.choice(redexes(r))
    end_conditional_first = dist_of(step_at(conditional, ()))
    assert end_conditional_first == dirac(s)
    after_inner = dist_of(step_at(conditional, (selector,) + pos))
    end_branch_first = _fire_root_everywhere(after_inner)
    # the reducts of the discarded branch all collapse back onto s
    assert end_branch_first == dirac(s)
    assert end_conditional_first == end_branch_first


def check_beta_vs_body(rng: Random) -> None:
    """Beta redex vs a reduction inside the abstraction body."""
    body = term_with_redex(rng, size=rng.randint(2, 6), free=("x",))
    argument = random_term(rng, size=rng.randint(1, 5), free=("y",))
    application = App(abstract(body, "x"), argument)
    pos = rng.choice(redexes(body))
    # beta first, then the image of the body redex
    substituted = substitute(body, "x", argument)
    assert step_at(application, ()).outcomes == ((Fraction(1), substituted),)
    end_beta_first = dist_of(step_at(substituted, pos))
    # body redex first (under the binder), then beta in every outcome
    after_body = dist_of(step_at(application, ("fun", "body") + pos))
    end_body_first = _fire_root_everywhere(after_body)
    assert end_beta_first == end_body_first


def _closed_reducible(rng: Random, ty: Type, size: int) -> Term:
    while True:
        term, _ = closed_typed(rng, Discipline.SUBAFFINE, goal=ty, size=size)
        if not is_normal(term):
            return term


def check_beta_vs_argument(rng: Random, size_bound: int = 4) -> None:
    """Beta redex vs a reduction inside the argument; closes up to
    computational equivalence of the two completions."""
    goal = rng.choice((BOOL, Arrow(BOOL, BOOL)))
    var_ty = rng.choice((BOOL, Arrow(BOOL, BOOL)))
    body = open_typed(rng, Discipline.SUBAFFINE, "x", var_ty, goal,
                      size=rng.randint(2, 7))
    argument = _closed_reducible(rng, var_ty, size=rng.randint(2, 6))
    application = App(abstract(body, "x"), argument)
    assert typecheck({}, application, Discipline.SUBAFFINE) == goal
    # beta first
    end_beta = dirac(substitute(body, "x", argument))
    # argument redex first, then beta in every outcome
    pos = rng.choice(redexes(argument))
    after_argument = dist_of(step_at(application, ("arg",) + pos))
    end_argument = _fire_root_everywhere(after_argument)
    verdict = comp_equiv(end_beta, end_argument, goal, size_bound=size_bound)
    assert verdict.equivalent


SCHEMAS = (
    ("if-1 vs kept branch", lambda rng: check_if_kept_branch(rng, True)),
    ("if-1 vs discarded branch", lambda rng: check_if_discarded_branch(rng, True)),
    ("if-0 vs kept branch", lambda rng: check_if_kept_branch(rng, False)),
    ("if-0 vs discarded branch", lambda rng: check_if_discarded_branch(rng, False)),
    ("beta vs body", check_beta_vs_body),
    ("beta vs argument", check_beta_vs_argument),
)
