"""One-step probabilistic reduction under the full contextual closure.

Redexes are beta, if-on-a-constant, and the coin. Reduction is strong: it
goes under binders and into every branch of a conditional. In the
internalized calculus the coin rewrites deterministically to the choice
term `0 +[1/2] 1` and choice nodes are never redex heads themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .syntax import (
    App, CalculusVariant, Coin, If, Lam, ONE, One, Oplus, Term, ZERO, Zero,
    instantiate,
)

Position = tuple[str, ...]

HALF = Fraction(1, 2)


class NotARedex(Exception):
    """The addressed position does not head a redex."""


class Strategy(Enum):
    CALL_BY_NAME = "cbn"
    CALL_BY_VALUE = "cbv"


@dataclass(frozen=True, slots=True)
class StepOutcome:
    """Probabilistic outcomes of firing one redex; probabilities sum to 1."""

    outcomes: tuple[tuple[Fraction, Term], ...]

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValueError("a step must have at least one outcome")
        if any(p <= 0 for p, _ in self.outcomes):
            raise ValueError("outcome probabilities must be positive")
        if sum(p for p, _ in self.outcomes) != 1:
            raise ValueError("outcome probabilities must sum to 1")


def format_position(pos: Position) -> str:
    return ".".join(pos) if pos else "root"


def children(t: Term) -> tuple[tuple[str, Term], ...]:
    """Immediate subterms with their child selectors, left to right."""
    match t:
        case Lam(body):
            return (("body", body),)
        case App(fun, arg):
            return (("fun", fun), ("arg", arg))
        case If(cond, then, orelse):
            return (("cond", cond), ("then", then), ("else", orelse))
        case Oplus(_, left, right):
            return (("oplus-left", left), ("oplus-right", right))
        case _:
            return ()


def subterm_at(t: Term, pos: Position) -> Term:
    for selector in pos:
        for name, child in children(t):
            if name == selector:
                t = child
                break
        else:
            raise NotARedex(f"no subterm at {format_position(pos)}")
    return t


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    selector, rest = pos[0], pos[1:]
    match t, selector:
        case Lam(body, hint), "body":
            return Lam(replace_at(body, rest, new), hint)
        case App(fun, arg), "fun":
            return App(replace_at(fun, rest, new), arg)
        case App(fun, arg), "arg":
            return App(fun, replace_at(arg, rest, new))
        case If(cond, then, orelse), "cond":
            return If(replace_at(cond, rest, new), then, orelse)
        case If(cond, then, orelse), "then":
            return If(cond, replace_at(then, rest, new), orelse)
        case If(cond, then, orelse), "else":
            return If(cond, then, replace_at(orelse, rest, new))
        case Oplus(p, left, right), "oplus-left":
            return Oplus(p, replace_at(left, rest, new), right)
        case Oplus(p, left, right), "oplus-right":
            return Oplus(p, left, replace_at(right, rest, new))
    raise NotARedex(f"no subterm at {format_position(pos)}")


def _is_redex_head(t: Term) -> bool:
    match t:
        case App(Lam(), _):
            return True
        case If(Zero() | One(), _, _):
            return True
        case Coin():
            return True
        case _:
            return False


def redexes(t: Term) -> list[Position]:
    """All redex positions in deterministic pre-order (leftmost-outermost first).

    The set of positions is the same in both calculus variants; only the
    coin's outcome differs. Normal subterms hold no redex and are skipped.
    """
    found: list[Position] = []

    def walk(u: Term, pos: Position) -> None:
        if _is_redex_head(u):
            found.append(pos)
        for name, child in children(u):
            if not child._normal:
                walk(child, pos + (name,))

    if not t._normal:
        walk(t, ())
    return found


def is_normal(t: Term) -> bool:
    """Whether `t` holds no redex; each node stores this when it is built."""
    return t._normal


def step_at(t: Term, pos: Position,
            variant: CalculusVariant = CalculusVariant.PLAIN) -> StepOutcome:
    """Fire the redex at `pos` and embed each outcome back into `t`."""
    redex = subterm_at(t, pos)
    match redex:
        case App(Lam(body), arg):
            results = ((Fraction(1), instantiate(body, arg)),)
        case If(One(), then, _):
            results = ((Fraction(1), then),)
        case If(Zero(), _, orelse):
            results = ((Fraction(1), orelse),)
        case Coin():
            if variant is CalculusVariant.INTERNALIZED:
                results = ((Fraction(1), Oplus(HALF, ZERO, ONE)),)
            else:
                results = ((HALF, ONE), (HALF, ZERO))
        case _:
            raise NotARedex(f"no redex at {format_position(pos)}")
    return StepOutcome(tuple((p, replace_at(t, pos, r)) for p, r in results))


def select_redex(t: Term, strategy: Strategy) -> Position | None:
    """Deterministic redex choice; None iff `t` is normal.

    Call-by-name picks the leftmost-outermost redex, call-by-value the
    leftmost-innermost one. Both are strong: they reduce under binders and
    inside both branches of a conditional, so their normal forms coincide
    with the rewrite system's.

    A subterm that is not normal holds a redex, so both descend into the
    leftmost child that is not normal and never backtrack. Call-by-name
    stops at the first redex head on the way; call-by-value goes on until
    every child is normal.
    """
    if t._normal:
        return None
    by_name = strategy is Strategy.CALL_BY_NAME
    pos: Position = ()
    while not (by_name and _is_redex_head(t)):
        for name, child in children(t):
            if not child._normal:
                t = child
                pos += (name,)
                break
        else:
            return pos
    return pos
