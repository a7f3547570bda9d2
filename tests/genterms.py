"""Seeded random generation of well-scoped and discipline-typed terms.

Typed terms are built top-down against a goal type. Under the affine
discipline the available hypotheses are partitioned between the premises of
every application and conditional; the sub-affine discipline lets the two
branches of a conditional share one partition. Every generator is a pure
function of the supplied random.Random, so suites are reproducible.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from random import Random

from lambcoin import (
    App, Arrow, BOOL, COIN, Coin, Discipline, FreeVar, If, Lam, ONE, Oplus,
    Term, Type, Var, ZERO, abstract, count_occurrences, redexes,
)

FIRST_ORDER = (BOOL, Arrow(BOOL, BOOL), Arrow(BOOL, Arrow(BOOL, BOOL)))


def min_size(ty: Type) -> int:
    """Size of the smallest closed term of type `ty` (a spine of lambdas)."""
    size = 1
    while isinstance(ty, Arrow):
        size += 1
        ty = ty.result
    return size


def minimal_term(ty: Type) -> Term:
    t: Term = ZERO
    arrows = 0
    probe = ty
    while isinstance(probe, Arrow):
        arrows += 1
        probe = probe.result
    for _ in range(arrows):
        t = Lam(t)
    return t


def random_term(rng: Random, size: int, binders: int = 0,
                free: tuple[str, ...] = (), allow_oplus: bool = False) -> Term:
    """Arbitrary well-scoped term with at most `size` nodes."""
    if size <= 1 or rng.random() < 0.2:
        pool: list[Term] = [ZERO, ONE, COIN]
        pool.extend(Var(k) for k in range(binders))
        pool.extend(FreeVar(name) for name in free)
        return rng.choice(pool)
    kinds = ["lam"]
    if size >= 3:
        kinds.extend(["app", "app"])
    if size >= 4:
        kinds.append("if")
    if allow_oplus and size >= 3:
        kinds.append("oplus")
    match rng.choice(kinds):
        case "lam":
            return Lam(random_term(rng, size - 1, binders + 1, free, allow_oplus))
        case "app":
            left = rng.randint(1, size - 2)
            return App(random_term(rng, left, binders, free, allow_oplus),
                       random_term(rng, size - 1 - left, binders, free, allow_oplus))
        case "if":
            cond_size = rng.randint(1, size - 3)
            then_size = rng.randint(1, size - 2 - cond_size)
            else_size = size - 1 - cond_size - then_size
            return If(random_term(rng, cond_size, binders, free, allow_oplus),
                      random_term(rng, then_size, binders, free, allow_oplus),
                      random_term(rng, else_size, binders, free, allow_oplus))
        case _:
            left = rng.randint(1, size - 2)
            prob = Fraction(rng.randint(1, 3), 4)
            return Oplus(prob,
                         random_term(rng, left, binders, free, allow_oplus),
                         random_term(rng, size - 1 - left, binders, free, allow_oplus))


def _partition(rng: Random, items: list, bins: int) -> list[list]:
    parts: list[list] = [[] for _ in range(bins)]
    for item in items:
        parts[rng.randrange(bins)].append(item)
    return parts


def random_typed(rng: Random, goal: Type, scope: list[tuple[str, Type]],
                 budget: int, discipline: Discipline, fresh) -> Term:
    """Term of type `goal` honoring `discipline`, at most `budget` nodes.

    `scope` holds the hypotheses this subderivation may consume.
    """
    assert budget >= min_size(goal)
    options: list[tuple[str, object]] = []
    for name, ty in scope:
        if ty == goal:
            options.append(("var", name))
            options.append(("var", name))
    if goal == BOOL:
        options.extend((("const", ZERO), ("const", ONE),
                        ("const", COIN), ("const", COIN)))
    if isinstance(goal, Arrow) and budget >= 1 + min_size(goal.result):
        options.extend((("lam", None),) * 3)
    if budget >= 3 + min_size(goal):
        options.extend((("app", None),) * 2)
    if budget >= 3 + 2 * min_size(goal):
        options.extend((("if", None),) * 2)

    match rng.choice(options):
        case ("var", name):
            return FreeVar(name)
        case ("const", const):
            return const
        case ("lam", _):
            name = fresh()
            body = random_typed(rng, goal.result, scope + [(name, goal.arg)],
                                budget - 1, discipline, fresh)
            return abstract(body, name)
        case ("app", _):
            arg_candidates = [BOOL]
            if budget >= 4 + min_size(goal):
                arg_candidates.append(Arrow(BOOL, BOOL))
            arg_ty = rng.choice(arg_candidates)
            fun_ty = Arrow(arg_ty, goal)
            slack = budget - 1 - min_size(fun_ty) - min_size(arg_ty)
            fun_budget = min_size(fun_ty) + rng.randint(0, slack)
            arg_budget = budget - 1 - fun_budget
            if discipline is Discipline.SIMPLE:
                fun_scope, arg_scope = list(scope), list(scope)
            else:
                fun_scope, arg_scope = _partition(rng, list(scope), 2)
            return App(random_typed(rng, fun_ty, fun_scope, fun_budget,
                                    discipline, fresh),
                       random_typed(rng, arg_ty, arg_scope, arg_budget,
                                    discipline, fresh))
        case ("if", _):
            branch_min = min_size(goal)
            slack = budget - 2 - 2 * branch_min
            cond_budget = 1 + rng.randint(0, slack)
            slack -= cond_budget - 1
            then_budget = branch_min + rng.randint(0, slack)
            else_budget = budget - 1 - cond_budget - then_budget
            if discipline is Discipline.SIMPLE:
                cond_scope = then_scope = else_scope = list(scope)
            elif discipline is Discipline.AFFINE:
                cond_scope, then_scope, else_scope = _partition(rng, list(scope), 3)
            else:
                cond_scope, shared = _partition(rng, list(scope), 2)
                then_scope = else_scope = shared
            return If(random_typed(rng, BOOL, cond_scope, cond_budget,
                                   discipline, fresh),
                      random_typed(rng, goal, then_scope, then_budget,
                                   discipline, fresh),
                      random_typed(rng, goal, else_scope, else_budget,
                                   discipline, fresh))
    raise AssertionError("unreachable")


def make_fresh():
    counter = itertools.count()
    return lambda: f"v{next(counter)}"


def closed_typed(rng: Random, discipline: Discipline,
                 goal: Type | None = None, size: int = 10) -> tuple[Term, Type]:
    """Closed term typed at a first-order type under `discipline`."""
    if goal is None:
        goal = rng.choice(FIRST_ORDER)
    term = random_typed(rng, goal, [], size, discipline, make_fresh())
    return term, goal


def open_typed(rng: Random, discipline: Discipline, name: str, var_ty: Type,
               goal: Type, size: int = 8) -> Term:
    """Term typed at `goal` whose only allowed free variable is `name`."""
    return random_typed(rng, goal, [(name, var_ty)], size, discipline,
                        make_fresh())


def without_coins(rng: Random, t: Term) -> Term:
    """`t` with every coin replaced by a random constant, so it keeps its
    types under every discipline."""
    match t:
        case Coin():
            return rng.choice((ZERO, ONE))
        case Lam(body, hint):
            return Lam(without_coins(rng, body), hint)
        case App(fun, arg):
            return App(without_coins(rng, fun), without_coins(rng, arg))
        case If(cond, then, orelse):
            return If(without_coins(rng, cond), without_coins(rng, then),
                      without_coins(rng, orelse))
        case _:
            return t


def term_with_redex(rng: Random, size: int = 8, binders: int = 0,
                    free: tuple[str, ...] = ()) -> Term:
    """Well-scoped term guaranteed to contain at least one redex."""
    while True:
        t = random_term(rng, size, binders, free)
        if redexes(t):
            return t


def single_use_affine(rng: Random, name: str, var_ty: Type, goal: Type,
                      size: int = 8) -> Term:
    """Affine-typed term in which `name` occurs free exactly once.

    Consuming a function-typed hypothesis needs an application node, so the
    budget is floored (and escalated on repeated misses) to keep a use of
    `name` reachable.
    """
    size = max(size, min_size(var_ty) + min_size(goal) + 4)
    attempts = 0
    while True:
        t = open_typed(rng, Discipline.AFFINE, name, var_ty, goal, size)
        if count_occurrences(t, name) == 1:
            return t
        attempts += 1
        if attempts % 50 == 0:
            size += 1
