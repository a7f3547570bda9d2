"""Workbench for a probabilistic lambda calculus with a fair coin.

Provides parsing and printing, type checking under simple / affine /
sub-affine disciplines, probabilistic rewriting over exact rational
distributions, exhaustive confluence exploration, deterministic reduction
strategies, an internalized-choice calculus variant, and a decision
procedure for computational equivalence of distributions.
"""

from .syntax import (
    App, Arrow, BOOL, Bool, CalculusVariant, Coin, COIN, FreeVar, If, Lam,
    One, ONE, Oplus, ParseError, ScopeError, Term, Type, Var, VariantError,
    Zero, ZERO, abstract, coin_free, count_occurrences,
    format_type, free_vars, instantiate, parse, parse_type, pretty,
    substitute, term_size,
)
from .typecheck import (
    AffinityViolation, Discipline, NonBoolCondition, NonFunctionApplied,
    OccursCheck, TypeMismatch, TypingContext, TypingError, UnboundVariable,
    UnificationFailure, format_inferred, ground, infer_simple, typecheck,
)
from .rewrite import (
    NotARedex, Position, StepOutcome, Strategy, children, format_position,
    is_normal, redexes, replace_at, select_redex, step_at, subterm_at,
)
from .distribution import (
    Distribution, InvalidChoice, WeightError, combine, dirac,
    format_distribution, lift_step, outcome_dist, parse_distribution,
    subst_dist,
)
from .explore import (
    DEFAULT_FUEL, DivergenceError, ExplorationResult, ExplorationStats,
    Explorer, FuelExhausted, Trace, TraceStep, check_probabilistic_confluence,
    normal_form_distributions, normalize, reduce_with_strategy,
)
from .equivalence import (
    ConfluenceReport, ContextCheck, EliminationContext, EquivVerdict,
    NonConfluentPlug, NotSubAffineTyped, check_computational_confluence,
    comp_equiv, enum_contexts, enum_normal_closed, format_context, plug,
)

__all__ = [name for name in dir() if not name.startswith("_")]
