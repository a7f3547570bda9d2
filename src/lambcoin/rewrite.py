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
    App, CalculusVariant, Coin, FreeVar, If, Lam, ONE, One, Oplus, Term, Var,
    ZERO, Zero, instantiate,
)

Position = tuple[str, ...]

CERTAIN = Fraction(1)
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

    @classmethod
    def _trusted(cls, outcomes: tuple[tuple[Fraction, Term], ...]) -> StepOutcome:
        """The outcome `outcomes`, which the caller knows to be valid."""
        o = object.__new__(cls)
        object.__setattr__(o, "outcomes", outcomes)
        return o


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


# Each child selector: the node field it reads, and how to rebuild the node
# around a new child.
_SELECTORS = {
    "body": ("body", lambda n, c: Lam(c, n.hint)),
    "fun": ("fun", lambda n, c: App(c, n.arg)),
    "arg": ("arg", lambda n, c: App(n.fun, c)),
    "cond": ("cond", lambda n, c: If(c, n.then, n.orelse)),
    "then": ("then", lambda n, c: If(n.cond, c, n.orelse)),
    "else": ("orelse", lambda n, c: If(n.cond, n.then, c)),
    "oplus-left": ("left", lambda n, c: Oplus(n.prob, c, n.right)),
    "oplus-right": ("right", lambda n, c: Oplus(n.prob, n.left, c)),
}


def _descend(t: Term, pos: Position) -> tuple[list, Term]:
    """The subterm at `pos` and its ancestors, root first, each paired with
    the function that rebuilds it around a new child."""
    ancestors = []
    for selector in pos:
        field, rebuild = _SELECTORS.get(selector, ("", None))
        child = getattr(t, field, None)
        if child is None:
            raise NotARedex(f"no subterm at {format_position(pos)}")
        ancestors.append((t, rebuild))
        t = child
    return ancestors, t


def _rebuild(ancestors: list, new: Term) -> Term:
    """The root of `ancestors` with `new` in place of the subterm below them."""
    for node, rebuild in reversed(ancestors):
        new = rebuild(node, new)
    return new


def subterm_at(t: Term, pos: Position) -> Term:
    return _descend(t, pos)[1]


def replace_at(t: Term, pos: Position, new: Term) -> Term:
    return _rebuild(_descend(t, pos)[0], new)


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


def independent_coin(t: Term) -> Position | None:
    """The leftmost coin of `t` that no other redex can erase or duplicate,
    or None.

    A coin qualifies when every `App` whose argument holds it, and every
    `If` whose branch holds it, has a rigid spine head (of the function, of
    the condition): a free name, or a variable bound by the leading lambdas
    of `t`, which no reduction can substitute. Such an application never
    becomes a beta redex and such a conditional never chooses a branch, so
    the coin keeps exactly one residual until it is fired. Lambda bodies,
    functions, conditions and choice sides never copy or drop a coin.
    Normal subterms hold no coin and are skipped.
    """
    prefix = 0  # the number of leading lambdas
    u = t
    while type(u) is Lam:
        prefix += 1
        u = u.body

    def rigid(head: Term, depth: int) -> bool:
        while type(head) is App:
            head = head.fun
        return type(head) is FreeVar or (
            type(head) is Var and head.index >= depth - prefix)

    stack: list[tuple[Term, int, Position]] = [(t, 0, ())]  # lambdas above
    while stack:
        u, depth, pos = stack.pop()
        if u._normal:
            continue
        kind = type(u)
        if kind is Coin:
            return pos
        if kind is Lam:
            stack.append((u.body, depth + 1, pos + ("body",)))
        elif kind is App:
            if rigid(u.fun, depth):
                stack.append((u.arg, depth, pos + ("arg",)))
            stack.append((u.fun, depth, pos + ("fun",)))
        elif kind is If:
            if rigid(u.cond, depth):
                stack.append((u.orelse, depth, pos + ("else",)))
                stack.append((u.then, depth, pos + ("then",)))
            stack.append((u.cond, depth, pos + ("cond",)))
        elif kind is Oplus:
            stack.append((u.right, depth, pos + ("oplus-right",)))
            stack.append((u.left, depth, pos + ("oplus-left",)))
    return None


def is_normal(t: Term) -> bool:
    """Whether `t` holds no redex; each node stores this when it is built."""
    return t._normal


def step_at(t: Term, pos: Position,
            variant: CalculusVariant = CalculusVariant.PLAIN) -> StepOutcome:
    """Fire the redex at `pos` and embed each outcome back into `t`."""
    ancestors, redex = _descend(t, pos)
    match redex:
        case App(Lam(body), arg):
            results = ((CERTAIN, instantiate(body, arg)),)
        case If(One(), then, _):
            results = ((CERTAIN, then),)
        case If(Zero(), _, orelse):
            results = ((CERTAIN, orelse),)
        case Coin():
            if variant is CalculusVariant.INTERNALIZED:
                results = ((CERTAIN, Oplus(HALF, ZERO, ONE)),)
            else:
                results = ((HALF, ONE), (HALF, ZERO))
        case _:
            raise NotARedex(f"no redex at {format_position(pos)}")
    return StepOutcome._trusted(
        tuple((p, _rebuild(ancestors, r)) for p, r in results))


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
