"""Exact probability distributions over terms.

A distribution is a finite map from alpha-canonical terms to positive
rationals that sum to exactly 1. Terms that are alpha-equal merge on
construction, so equality of distributions is plain support-and-probability
equality. The canonical text format is
`{ p1: term1 ; p2: term2 ; ... }` with the support sorted by its
pretty-printed rendering. That canonical order is produced on first ordered
access (`items`, `support`, formatting): a distribution sorts its support
once, in place, and equality and hashing never depend on it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .rewrite import NotARedex, Position, StepOutcome, is_normal, step_at
from .syntax import CalculusVariant, Term, parse, pretty, substitute


class WeightError(Exception):
    """Probabilities or weights violate positivity / unit-mass invariants."""


class InvalidChoice(Exception):
    """A redex choice does not address a redex of its support term."""


class Distribution:
    """Immutable exact distribution; usable as a dict key or set element."""

    __slots__ = ("_support", "_hash", "_sorted")

    def __init__(self, entries: Mapping[Term, Fraction] | Iterable[tuple[Term, Fraction]]):
        if isinstance(entries, Mapping):
            entries = entries.items()
        merged: dict[Term, Fraction] = {}
        for term, prob in entries:
            merged[term] = merged.get(term, Fraction(0)) + Fraction(prob)
        for term, prob in merged.items():
            if prob <= 0:
                raise WeightError(f"non-positive probability {prob} for {pretty(term)}")
        if sum(merged.values()) != 1:
            raise WeightError(f"probabilities sum to {sum(merged.values())}, not 1")
        self._adopt(merged)

    @classmethod
    def _trusted(cls, support: dict[Term, Fraction]) -> Distribution:
        """A distribution over `support`, whose probabilities the caller has
        already made positive and of total mass exactly 1."""
        d = cls.__new__(cls)
        d._adopt(support)
        return d

    def _adopt(self, support: dict[Term, Fraction]) -> None:
        self._support = support
        self._sorted = False
        self._hash = hash(frozenset(support.items()))

    def _ordered(self) -> dict[Term, Fraction]:
        """The support in canonical order, sorted on the first call."""
        if not self._sorted:
            self._support = dict(sorted(self._support.items(),
                                        key=lambda kv: pretty(kv[0])))
            self._sorted = True
        return self._support

    def items(self) -> Iterator[tuple[Term, Fraction]]:
        return iter(self._ordered().items())

    @property
    def support(self) -> tuple[Term, ...]:
        return tuple(self._ordered())

    def probability(self, t: Term) -> Fraction:
        return self._support.get(t, Fraction(0))

    def __len__(self) -> int:
        return len(self._support)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._support == other._support

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_distribution(self)


def dirac(t: Term) -> Distribution:
    """Single-point distribution."""
    return Distribution._trusted({t: Fraction(1)})


def outcome_dist(outcome: StepOutcome) -> Distribution:
    """The distribution of a single step's outcomes."""
    return Distribution((t, p) for p, t in outcome.outcomes)


def combine(parts: Iterable[tuple[Fraction, Distribution]]) -> Distribution:
    """Convex combination of distributions; weights must be positive and sum to 1."""
    parts = list(parts)
    if any(w <= 0 for w, _ in parts):
        raise WeightError("combination weights must be positive")
    if sum(w for w, _ in parts) != 1:
        raise WeightError("combination weights must sum to 1")
    acc: dict[Term, Fraction] = {}
    for weight, dist in parts:
        for term, prob in dist._support.items():
            acc[term] = acc.get(term, 0) + weight * prob
    return Distribution._trusted(acc)


def subst_dist(d: Distribution, name: str, r: Term) -> Distribution:
    """Substitute `r` for the free variable `name` in every support term."""
    return Distribution((substitute(t, name, r), p) for t, p in d.items())


def lift_step(d: Distribution, choice: Mapping[Term, Position],
              variant: CalculusVariant = CalculusVariant.PLAIN) -> Distribution:
    """Fire one chosen redex in every non-normal support term.

    `choice` must map each non-normal support term to one of its redex
    positions; normal support terms persist unchanged. Total mass is
    preserved exactly.
    """
    acc: dict[Term, Fraction] = {}
    for term, prob in d.items():
        if is_normal(term):
            if term in choice:
                raise InvalidChoice(f"{pretty(term)} is normal, nothing to fire")
            acc[term] = acc.get(term, 0) + prob
            continue
        if term not in choice:
            raise InvalidChoice(f"no redex chosen for {pretty(term)}")
        try:
            outcome = step_at(term, choice[term], variant)
        except NotARedex as exc:
            raise InvalidChoice(str(exc)) from exc
        for q, result in outcome.outcomes:
            acc[result] = acc.get(result, 0) + prob * q
    return Distribution._trusted(acc)


def format_distribution(d: Distribution) -> str:
    """Canonical text format, support sorted by pretty-printed term."""
    body = " ; ".join(f"{p}: {pretty(t)}" for t, p in d.items())
    return "{ " + body + " }"


def parse_distribution(text: str,
                       variant: CalculusVariant = CalculusVariant.PLAIN) -> Distribution:
    """Parse the canonical `{ p: term ; ... }` format."""
    stripped = text.strip()
    if not (stripped.startswith("{") and stripped.endswith("}")):
        raise WeightError("distribution must be enclosed in { }")
    entries = []
    for item in stripped[1:-1].split(";"):
        item = item.strip()
        if not item:
            raise WeightError("empty distribution entry")
        prob_text, _, term_text = item.partition(":")
        if not term_text:
            raise WeightError(f"missing ':' in distribution entry {item!r}")
        try:
            prob = Fraction(prob_text.strip())
        except (ValueError, ZeroDivisionError):
            raise WeightError(f"bad probability {prob_text.strip()!r}") from None
        entries.append((parse(term_text.strip(), variant), prob))
    return Distribution(entries)
