"""Elimination contexts and computational equivalence of distributions.

Two distributions of closed terms of type A are computationally equivalent
when every applicative elimination context drives both to the same exact
distribution of boolean results. Context arguments are enumerated by brute
force up to a size bound: for first-order argument types the bounded set is
already complete (the only closed normal booleans are 0 and 1).

A plugged term is simply typed, so it normalizes. When its support term is
coin-free, so is the plug, and its one normal form is computed by
`normalize`. Only a plug whose support term holds a coin is explored
exhaustively (or, with `single_path`, reduced by call-by-value).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .distribution import Distribution, combine, dirac
from .explore import (
    DEFAULT_FUEL, Explorer, Trace, normalize, reduce_with_strategy,
)
from .rewrite import Strategy
from .syntax import (
    App, Arrow, If, Lam, ONE, Term, Type, Var, ZERO, coin_free, free_vars,
    pretty,
)
from .typecheck import Discipline, TypingError, TypeMismatch, typecheck

PLACEHOLDER = "◊"  # the placeholder symbol in rendered contexts


class NonConfluentPlug(Exception):
    """A plugged term has several normal-form distributions."""

    def __init__(self, context: EliminationContext, term: Term,
                 distributions: tuple[Distribution, ...]):
        super().__init__(
            f"{format_context(context)} applied to {pretty(term)} has "
            f"{len(distributions)} normal-form distributions")
        self.context = context
        self.term = term
        self.distributions = distributions


class NotSubAffineTyped(Exception):
    """The hypothesis of the computational-confluence check failed."""


@dataclass(frozen=True, slots=True)
class EliminationContext:
    """An applicative context: a placeholder applied to normal closed arguments."""

    args: tuple[Term, ...]
    target_type: Type


def format_context(context: EliminationContext) -> str:
    parts = [PLACEHOLDER]
    for arg in context.args:
        text = pretty(arg)
        parts.append(f"({text})" if " " in text else text)
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Enumeration of normal closed terms

# Keys: ("n", size, depth) and ("a", size, depth) for the normal and neutral
# terms of `size` nodes with `depth` binders in scope, and ("c", size, ty)
# for the closed ones of type `ty`, sorted by `pretty`.
_enum_cache: dict[tuple, tuple[Term, ...]] = {}


def _typable(t: Term, depth: int) -> bool:
    """Whether `t` is simply typable with a fresh type variable for each of
    the `depth` binders in scope."""
    for _ in range(depth):
        t = Lam(t)
    try:
        typecheck({}, t, Discipline.SIMPLE)
    except TypingError:
        return False
    return True


# Both enumerations keep only simply typable terms. Every subterm of a
# typable term is typable, so no typable term loses a part it needs.

def _normal_of_size(size: int, depth: int) -> tuple[Term, ...]:
    """The typable normal terms of exactly `size` nodes with `depth` binders
    in scope."""
    key = ("n", size, depth)
    if key not in _enum_cache:
        results = list(_neutral_of_size(size, depth))
        if size >= 2:
            results.extend(Lam(body) for body in _normal_of_size(size - 1, depth + 1))
        _enum_cache[key] = tuple(results)
    return _enum_cache[key]


def _neutral_of_size(size: int, depth: int) -> tuple[Term, ...]:
    """Typable normal terms that are not abstractions (safe heads for
    applications)."""
    key = ("a", size, depth)
    if key not in _enum_cache:
        results: list[Term] = []
        if size == 1:
            results.append(ZERO)
            results.append(ONE)
            results.extend(Var(k) for k in range(depth))
        else:
            for fun_size in range(1, size - 1):
                for fun in _neutral_of_size(fun_size, depth):
                    for arg in _normal_of_size(size - 1 - fun_size, depth):
                        results.append(App(fun, arg))
            for cond_size in range(1, size - 2):
                for then_size in range(1, size - 1 - cond_size):
                    else_size = size - 1 - cond_size - then_size
                    for cond in _normal_of_size(cond_size, depth):
                        if cond == ZERO or cond == ONE:
                            continue  # would be an if-redex
                        for then in _normal_of_size(then_size, depth):
                            for orelse in _normal_of_size(else_size, depth):
                                results.append(If(cond, then, orelse))
        _enum_cache[key] = tuple(t for t in results if _typable(t, depth))
    return _enum_cache[key]


def _closed_of_size(ty: Type, size: int) -> tuple[Term, ...]:
    """The closed normal terms of type `ty` and `size` nodes, by `pretty`."""
    key = ("c", size, ty)
    if key not in _enum_cache:
        found = []
        for term in _normal_of_size(size, 0):
            try:
                typecheck({}, term, Discipline.SIMPLE, goal=ty)
            except TypingError:
                continue
            found.append(term)
        _enum_cache[key] = tuple(sorted(found, key=pretty))
    return _enum_cache[key]


def enum_normal_closed(ty: Type, size_bound: int) -> list[Term]:
    """All closed normal terms of simple type `ty` with at most `size_bound` nodes."""
    return [term for size in range(1, size_bound + 1)
            for term in _closed_of_size(ty, size)]


def _argument_types(ty: Type) -> list[Type]:
    args = []
    while isinstance(ty, Arrow):
        args.append(ty.arg)
        ty = ty.result
    return args


def enum_contexts(ty: Type, size_bound: int) -> list[EliminationContext]:
    """Every elimination context of `ty` with argument terms up to `size_bound`."""
    pools = [enum_normal_closed(arg_ty, size_bound) for arg_ty in _argument_types(ty)]
    return [EliminationContext(args, ty) for args in itertools.product(*pools)]


def plug(context: EliminationContext, t: Term, *, check: bool = True) -> Term:
    """Apply `t` to the context's arguments; `t` must have the target type.

    `check=False` skips typechecking `t`, for a caller that has already
    checked it against the target type.
    """
    if check:
        typecheck({}, t, Discipline.SIMPLE, goal=context.target_type)
    result = t
    for arg in context.args:
        result = App(result, arg)
    return result


# ---------------------------------------------------------------------------
# Computational equivalence

@dataclass(frozen=True, slots=True)
class ContextCheck:
    context: EliminationContext
    left: Distribution
    right: Distribution
    matches: bool


@dataclass(frozen=True, slots=True)
class EquivVerdict:
    equivalent: bool
    per_context: tuple[ContextCheck, ...]
    failing_context: EliminationContext | None


def _evaluate_plugged(term: Term, explorer: Explorer, context: EliminationContext,
                      single_path: bool, fuel: int) -> Distribution:
    if single_path:
        trace: Trace = reduce_with_strategy(term, Strategy.CALL_BY_VALUE,
                                            explorer.variant, fuel)
        return trace.terminal
    finals = explorer.normal_form_distributions(term)
    if len(finals) > 1:
        raise NonConfluentPlug(context, term, finals)
    return finals[0]


def _context_value(support: list[tuple[Term, Fraction, bool]],
                   context: EliminationContext, explorer: Explorer,
                   single_path: bool, fuel: int) -> Distribution:
    """The result distribution of `context` over (term, probability,
    coin-free) triples."""
    parts = []
    for term, prob, pure in support:
        plugged = plug(context, term, check=False)  # comp_equiv checked it
        if pure:
            value = dirac(normalize(plugged, explorer))
        else:
            value = _evaluate_plugged(plugged, explorer, context, single_path,
                                      fuel)
        parts.append((prob, value))
    return combine(parts)


def comp_equiv(d1: Distribution, d2: Distribution, ty: Type,
               size_bound: int = 6, fuel: int = DEFAULT_FUEL,
               single_path: bool = False) -> EquivVerdict:
    """Decide computational equivalence of `d1` and `d2` at type `ty`.

    Every support term must be closed of type `ty`. A plug of a coin-free
    support term has one normal form, which `normalize` computes. A plug of a
    support term that holds a coin is evaluated by exhaustive exploration and
    must have a unique normal-form distribution; `single_path` downgrades
    those plugs to call-by-value evaluation instead of rejecting ambiguous
    ones. One explorer, and so one fuel budget and one cache, serves every
    plug of the call.
    """
    for d in (d1, d2):
        for term in d.support:
            names = free_vars(term)
            if names:
                raise TypeMismatch(
                    f"support term {pretty(term)} is not closed "
                    f"(free: {', '.join(sorted(names))})")
            typecheck({}, term, Discipline.SIMPLE, goal=ty)
    left_support, right_support = (
        [(term, prob, coin_free(term)) for term, prob in d.items()]
        for d in (d1, d2))
    explorer = Explorer(fuel=fuel)
    checks = []
    failing = None
    for context in enum_contexts(ty, size_bound):
        left = _context_value(left_support, context, explorer, single_path,
                              fuel)
        right = _context_value(right_support, context, explorer, single_path,
                               fuel)
        matches = left == right
        checks.append(ContextCheck(context, left, right, matches))
        if not matches and failing is None:
            failing = context
    return EquivVerdict(failing is None, tuple(checks), failing)


# ---------------------------------------------------------------------------
# Computational confluence

@dataclass(frozen=True, slots=True)
class ConfluenceReport:
    term: Term
    term_type: Type
    distributions: tuple[Distribution, ...]
    pairwise: tuple[tuple[int, int, EquivVerdict], ...]
    equivalent: bool


def check_computational_confluence(t: Term, size_bound: int = 6,
                                   fuel: int = DEFAULT_FUEL,
                                   single_path: bool = False) -> ConfluenceReport:
    """Check that all normal-form distributions of `t` are pairwise equivalent.

    `t` must be closed and typable under the sub-affine discipline; the
    check refuses other input since the guarantee does not hold for it.
    """
    names = free_vars(t)
    if names:
        raise NotSubAffineTyped(
            f"term is not closed (free: {', '.join(sorted(names))})")
    try:
        ty = typecheck({}, t, Discipline.SUBAFFINE)
    except TypingError as exc:
        raise NotSubAffineTyped(str(exc)) from exc
    explorer = Explorer(fuel=fuel)
    finals = explorer.normal_form_distributions(t)
    pairwise = []
    equivalent = True
    for i, j in itertools.combinations(range(len(finals)), 2):
        verdict = comp_equiv(finals[i], finals[j], ty, size_bound, fuel,
                             single_path)
        pairwise.append((i, j, verdict))
        equivalent = equivalent and verdict.equivalent
    return ConfluenceReport(t, ty, finals, tuple(pairwise), equivalent)
