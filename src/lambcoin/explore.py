"""Exhaustive enumeration of reachable normal-form distributions.

The explorer computes, for a term t, every distribution over normal forms
reachable by repeatedly firing one redex per non-normal support term. It
works recursively: a normal term yields its own dirac distribution; any
other term yields, for every redex position, every convex combination
obtained by independently picking one final distribution for each outcome
of that step. Memoization keys the recursion on the (alpha-canonical) term.

Not every redex needs a branch (a persistent-set reduction: Godefroid,
"Partial-Order Methods for the Verification of Concurrent Systems", LNCS
1032, 1996). Firing a coin commutes with every other step except a beta
that copies or erases it and a conditional that drops the branch holding
it. At a term holding a coin that no other redex can ever erase or
duplicate (`rewrite.independent_coin`), the explorer fires only the leftmost
such coin. Such a coin keeps exactly one residual under every other step.
A normal form holds no coin, so every terminating strategy fires it
somewhere, and can fire it first and reach the same distribution. The set
of reachable distributions is therefore unchanged; only the nodes visited
fall, from 3^n - 2^n to 2^n - 1 for `\\y. y coin ... coin` with n coins.

Reduction cycles (possible only for untypable input) contribute no
normal-form distributions; if nothing terminating remains, the exploration
reports divergence. A fuel bound on visited nodes guards the search.

Without the coin the rules (beta and if-on-constant) are orthogonal, so a
coin-free term has at most one normal form. `normalize` computes it
directly, with no search, for coin-free strongly normalizing terms such as
the simply typed ones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .distribution import Distribution, combine, dirac, format_distribution, lift_step
from .rewrite import (
    Position, Strategy, independent_coin, is_normal, redexes, select_redex,
    step_at,
)
from .syntax import (
    App, CalculusVariant, Coin, If, Lam, One, Oplus, Term, Zero, instantiate,
)

DEFAULT_FUEL = 1_000_000


@dataclass(frozen=True, slots=True)
class ExplorationStats:
    nodes: int
    max_depth: int
    fuel_spent: int


class FuelExhausted(Exception):
    """The node budget ran out; carries partial progress."""

    def __init__(self, message: str, stats: ExplorationStats):
        super().__init__(f"{message} ({stats.nodes} nodes visited, "
                         f"max depth {stats.max_depth})")
        self.stats = stats


class DivergenceError(FuelExhausted):
    """Every reduction path from the term revisits a previous term."""


@dataclass(frozen=True, slots=True)
class ExplorationResult:
    final_distributions: tuple[Distribution, ...]
    confluent: bool
    witness: tuple[Distribution, Distribution] | None
    stats: ExplorationStats


@dataclass(frozen=True, slots=True)
class TraceStep:
    fired: tuple[tuple[Term, Position], ...]
    result: Distribution


@dataclass(frozen=True, slots=True)
class Trace:
    initial: Distribution
    steps: tuple[TraceStep, ...]

    @property
    def terminal(self) -> Distribution:
        return self.steps[-1].result if self.steps else self.initial


class Explorer:
    """Reusable exploration state: one variant, one fuel budget, and one memo
    table each for exploration and for `normalize`."""

    def __init__(self, variant: CalculusVariant = CalculusVariant.PLAIN,
                 fuel: int = DEFAULT_FUEL, memoize: bool = True):
        self.variant = variant
        self.fuel = fuel
        self.memoize = memoize
        self._memo: dict[Term, tuple[Distribution, ...]] = {}
        self._normal_forms: dict[Term, Term] = {}
        self._nodes = 0
        self._max_depth = 0

    @property
    def stats(self) -> ExplorationStats:
        return ExplorationStats(self._nodes, self._max_depth, self._nodes)

    def normal_form_distributions(self, t: Term) -> tuple[Distribution, ...]:
        """All reachable normal-form distributions, in canonical text order."""
        result, _ = self._explore(t, frozenset(), 0)
        if not result:
            raise DivergenceError(
                "no terminating reduction path found", self.stats)
        if len(result) > 1:
            result = tuple(sorted(result, key=format_distribution))
        return result

    def _explore(self, t: Term, on_stack: frozenset[Term],
                 depth: int) -> tuple[tuple[Distribution, ...], bool]:
        """Returns the reachable final distributions, unordered, and a cycle
        flag.

        A result that involved pruning a path back to a term still being
        explored is marked cyclic and never memoized, so the cache stays
        sound for later queries rooted elsewhere.
        """
        if is_normal(t):
            return (dirac(t),), False
        if t in on_stack:
            return (), True  # this path loops and never reaches a normal form
        if self.memoize and t in self._memo:
            return self._memo[t], False
        self._nodes += 1
        self._max_depth = max(self._max_depth, depth)
        if self._nodes > self.fuel:
            raise FuelExhausted("exploration fuel exhausted", self.stats)
        on_stack = on_stack | {t}
        results: set[Distribution] = set()
        cyclic = False
        coin = independent_coin(t)
        for pos in redexes(t) if coin is None else (coin,):
            outcome = step_at(t, pos, self.variant)
            continuations = []
            for _, r in outcome.outcomes:
                conts, was_cyclic = self._explore(r, on_stack, depth + 1)
                cyclic = cyclic or was_cyclic
                continuations.append(conts)
            if any(not conts for conts in continuations):
                continue  # some outcome diverges along this redex
            probs = [p for p, _ in outcome.outcomes]
            for picks in itertools.product(*continuations):
                results.add(combine(list(zip(probs, picks))))
        found = tuple(results)
        if self.memoize and not cyclic:
            self._memo[t] = found
        return found, cyclic

    def _spend(self, depth: int) -> None:
        self._nodes += 1
        self._max_depth = max(self._max_depth, depth)
        if self._nodes > self.fuel:
            raise FuelExhausted("normalization fuel exhausted", self.stats)

    def _normalize(self, t: Term, depth: int = 0) -> Term:
        """The normal form of coin-free `t`, `depth` calls below the root;
        see `normalize`."""
        memo = self._normal_forms
        below = depth + 1
        chain = []  # the terms of one head-reduction sequence: one normal form
        while True:
            nf = memo.get(t)
            if nf is not None:
                break
            chain.append(t)
            match t:
                case App(fun, arg):
                    f = self._normalize(fun, below)
                    a = self._normalize(arg, below)
                    if isinstance(f, Lam):
                        self._spend(depth)
                        t = instantiate(f.body, a)
                        continue
                    nf = t if f is fun and a is arg else App(f, a)
                case If(cond, then, orelse):
                    c = self._normalize(cond, below)
                    if isinstance(c, (Zero, One)):
                        self._spend(depth)
                        t = then if isinstance(c, One) else orelse
                        continue
                    then_nf = self._normalize(then, below)
                    else_nf = self._normalize(orelse, below)
                    same = c is cond and then_nf is then and else_nf is orelse
                    nf = t if same else If(c, then_nf, else_nf)
                case Lam(body, hint):
                    body_nf = self._normalize(body, below)
                    nf = t if body_nf is body else Lam(body_nf, hint)
                case Coin() | Oplus():
                    raise ValueError("normalize takes coin-free terms only")
                case _:
                    nf = t
            if nf is not t:
                self._spend(depth)
                memo[nf] = nf
            break
        for u in chain:
            memo[u] = nf
        return nf


def normal_form_distributions(t: Term,
                              variant: CalculusVariant = CalculusVariant.PLAIN,
                              fuel: int = DEFAULT_FUEL,
                              memoize: bool = True) -> tuple[Distribution, ...]:
    """All distributions over normal forms reachable from `t`, canonically ordered."""
    return Explorer(variant, fuel, memoize).normal_form_distributions(t)


def normalize(t: Term, explorer: Explorer | None = None) -> Term:
    """The normal form of a coin-free, strongly normalizing term.

    Children are normalized first and head redexes are contracted in a loop,
    so the recursion depth follows the term's nesting, not the length of its
    reduction. Normal forms are cached per (sub)term on `explorer`, and every
    cache miss on a non-normal term spends one unit of its fuel. A coin or a
    choice raises ValueError. On a term that is not strongly normalizing,
    which only untyped input can be, the fuel or the recursion limit runs out.
    """
    return (explorer or Explorer())._normalize(t)


def reduce_with_strategy(t: Term, strategy: Strategy,
                         variant: CalculusVariant = CalculusVariant.PLAIN,
                         fuel: int = DEFAULT_FUEL) -> Trace:
    """Drive `t` to an all-normal distribution with one deterministic strategy."""
    initial = dirac(t)
    current = initial
    steps: list[TraceStep] = []
    spent = 0
    while True:
        fired = []
        for term in current.support:
            pos = select_redex(term, strategy)
            if pos is not None:
                fired.append((term, pos))
        if not fired:
            return Trace(initial, tuple(steps))
        spent += len(fired)
        if spent > fuel:
            raise FuelExhausted("reduction fuel exhausted",
                                ExplorationStats(spent, len(steps), spent))
        current = lift_step(current, dict(fired), variant)
        steps.append(TraceStep(tuple(fired), current))


def check_probabilistic_confluence(t: Term,
                                   variant: CalculusVariant = CalculusVariant.PLAIN,
                                   fuel: int = DEFAULT_FUEL) -> ExplorationResult:
    """Explore exhaustively; confluent iff exactly one final distribution.

    The witness of non-confluence is the two lexicographically smallest
    distinct members in the canonical text order.
    """
    explorer = Explorer(variant, fuel)
    finals = explorer.normal_form_distributions(t)
    confluent = len(finals) == 1
    witness = None if confluent else (finals[0], finals[1])
    return ExplorationResult(finals, confluent, witness, explorer.stats)
