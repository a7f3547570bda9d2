"""Exact probability distributions over terms.

A distribution is a finite map from alpha-canonical terms to positive
rationals that sum to exactly 1. It stores them as positive integer weights
over one common denominator, in lowest terms: the denominator is the lcm of
the probabilities' own denominators, so the weights sum to it and share no
common factor with it. Equal distributions therefore have equal fields, and
equality and hashing compare ints. `dirac`, `combine` and `lift_step` scale
to the lcm and multiply-add integers (Knuth, TAOCP Vol. 2, 4.5.1); in the
plain calculus every denominator is a power of two. `Fraction`s appear only
at the edges: the validating constructor, `parse_distribution`, `items`,
`probability` and formatting.

Terms that are alpha-equal merge on construction, so equality of
distributions is plain support-and-probability equality. The canonical text
format is `{ p1: term1 ; p2: term2 ; ... }` with the support sorted by its
pretty-printed rendering. That canonical order is produced on first ordered
access (`items`, `support`, formatting): a distribution sorts its support
once, in place, and equality and hashing never depend on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping

from .rewrite import NotARedex, Position, StepOutcome, is_normal, step_at
from .syntax import CalculusVariant, Term, parse, pretty, substitute


class WeightError(Exception):
    """Probabilities or weights violate positivity / unit-mass invariants."""


class InvalidChoice(Exception):
    """A redex choice does not address a redex of its support term."""


class Distribution:
    """Immutable exact distribution; usable as a dict key or set element."""

    __slots__ = ("_weights", "_denom", "_hash", "_sorted")

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
        denom = lcm(*(p.denominator for p in merged.values()))
        self._adopt({t: p.numerator * (denom // p.denominator)
                     for t, p in merged.items()}, denom)

    @classmethod
    def _trusted(cls, weights: dict[Term, int], denom: int) -> Distribution:
        """The distribution `weights[t] / denom`, whose positive weights the
        caller has made sum to `denom`; reduced here to lowest terms."""
        common = gcd(denom, *weights.values())
        if common > 1:
            weights = {t: w // common for t, w in weights.items()}
            denom //= common
        d = cls.__new__(cls)
        d._adopt(weights, denom)
        return d

    def _adopt(self, weights: dict[Term, int], denom: int) -> None:
        self._weights = weights
        self._denom = denom
        self._sorted = False
        self._hash = hash((denom, frozenset(weights.items())))

    def _ordered(self) -> dict[Term, int]:
        """The weights in canonical order, sorted on the first call."""
        if not self._sorted:
            self._weights = dict(sorted(self._weights.items(),
                                        key=lambda kv: pretty(kv[0])))
            self._sorted = True
        return self._weights

    def items(self) -> Iterator[tuple[Term, Fraction]]:
        denom = self._denom
        return ((t, Fraction(w, denom)) for t, w in self._ordered().items())

    @property
    def support(self) -> tuple[Term, ...]:
        return tuple(self._ordered())

    def probability(self, t: Term) -> Fraction:
        return Fraction(self._weights.get(t, 0), self._denom)

    def __len__(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self._denom == other._denom and self._weights == other._weights

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return format_distribution(self)


def dirac(t: Term) -> Distribution:
    """Single-point distribution."""
    return Distribution._trusted({t: 1}, 1)


def outcome_dist(outcome: StepOutcome) -> Distribution:
    """The distribution of a single step's outcomes."""
    return Distribution((t, p) for p, t in outcome.outcomes)


def combine(parts: Iterable[tuple[Fraction, Distribution]]) -> Distribution:
    """Convex combination of distributions; weights must be positive and sum to 1."""
    parts = [(w.numerator, w.denominator, d) for w, d in parts]
    if any(num <= 0 for num, _, _ in parts):
        raise WeightError("combination weights must be positive")
    common = lcm(*(den for _, den, _ in parts))
    if sum(num * (common // den) for num, den, _ in parts) != common:
        raise WeightError("combination weights must sum to 1")
    if len(parts) == 1:
        return parts[0][2]
    denom = lcm(*(den * d._denom for _, den, d in parts))
    acc: dict[Term, int] = {}
    for num, den, d in parts:
        scale = num * (denom // (den * d._denom))
        for term, w in d._weights.items():
            acc[term] = acc.get(term, 0) + scale * w
    return Distribution._trusted(acc, denom)


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
    moves: list[tuple[int, int, int, Term]] = []  # weight, outcome num/den, result
    for term, w in d._weights.items():
        if is_normal(term):
            if term in choice:
                raise InvalidChoice(f"{pretty(term)} is normal, nothing to fire")
            moves.append((w, 1, 1, term))
            continue
        if term not in choice:
            raise InvalidChoice(f"no redex chosen for {pretty(term)}")
        try:
            outcome = step_at(term, choice[term], variant)
        except NotARedex as exc:
            raise InvalidChoice(str(exc)) from exc
        for q, result in outcome.outcomes:
            moves.append((w, q.numerator, q.denominator, result))
    scale = lcm(*(den for _, _, den, _ in moves))
    acc: dict[Term, int] = {}
    for w, num, den, result in moves:
        acc[result] = acc.get(result, 0) + w * num * (scale // den)
    return Distribution._trusted(acc, d._denom * scale)


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
