"""Cross-module properties: substitution lemmas and confluence guarantees."""

from random import Random

from hypothesis import example, given, settings, strategies as st

from lambcoin import (
    App, Arrow, BOOL, CalculusVariant, Discipline, FreeVar, If, Oplus,
    check_probabilistic_confluence, check_computational_confluence, children,
    count_occurrences, redexes, step_at, substitute,
)

from genterms import (
    FIRST_ORDER, closed_typed, random_term, single_use_affine, term_with_redex,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def free_var_positions(t, name: str) -> list[tuple[str, ...]]:
    positions = []

    def walk(u, pos):
        if u == FreeVar(name):
            positions.append(pos)
        for selector, child in children(u):
            walk(child, pos + (selector,))

    walk(t, ())
    return positions


def affine_substitution_case(rng: Random) -> None:
    """A step of r maps to a step of t[r/x] when x occurs exactly once."""
    var_ty = rng.choice((BOOL, Arrow(BOOL, BOOL)))
    goal = rng.choice(FIRST_ORDER)
    t = single_use_affine(rng, "x", var_ty, goal, size=rng.randint(3, 8))
    r = term_with_redex(rng, size=rng.randint(2, 6))
    (occurrence,) = free_var_positions(t, "x")
    pos = rng.choice(redexes(r))
    direct = step_at(r, pos)
    image = step_at(substitute(t, "x", r), occurrence + pos)
    expected = tuple((p, substitute(t, "x", s)) for p, s in direct.outcomes)
    assert image.outcomes == expected


def zero_occurrence_case(rng: Random) -> None:
    """With no occurrence the two substitutions are already equal terms."""
    from genterms import min_size
    goal = rng.choice(FIRST_ORDER)
    t, _ = closed_typed(rng, Discipline.AFFINE, goal,
                        size=rng.randint(min_size(goal), 8))
    assert count_occurrences(t, "x") == 0  # closed, so never free
    r = term_with_redex(rng, size=rng.randint(2, 5))
    for _, s in step_at(r, rng.choice(redexes(r))).outcomes:
        assert substitute(t, "x", r) == substitute(t, "x", s) == t


@given(seeds)
@settings(max_examples=150, deadline=None)
def test_affine_substitution_lemma(seed):
    affine_substitution_case(Random(seed))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_affine_substitution_zero_occurrence(seed):
    zero_occurrence_case(Random(seed))


@given(seeds)
@example(4335)  # its term needs a shifted beta argument
@settings(max_examples=100, deadline=None)
def test_affine_terms_probabilistically_confluent(seed):
    rng = Random(seed)
    term, _ = closed_typed(rng, Discipline.AFFINE, size=rng.randint(3, 10))
    result = check_probabilistic_confluence(term)
    assert result.confluent


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_subaffine_terms_computationally_confluent(seed):
    rng = Random(seed)
    term, _ = closed_typed(rng, Discipline.SUBAFFINE, size=rng.randint(3, 10))
    report = check_computational_confluence(term, size_bound=6)
    assert report.equivalent


def test_branch_sharing_family_computationally_confluent():
    # terms shaped like the branch-sharing running example: a coin argument
    # consumed by both branches of a conditional under a residual binder.
    # These are the smallest sub-affine terms with several distinct endpoint
    # distributions, so the pairwise equivalence check runs for real.
    from lambcoin import App, COIN, abstract
    from genterms import open_typed
    rng = Random(404)
    multi_endpoint = 0
    for _ in range(40):
        then_branch = open_typed(rng, Discipline.SUBAFFINE, "x", BOOL, BOOL,
                                 size=rng.randint(1, 5))
        else_branch = open_typed(rng, Discipline.SUBAFFINE, "x", BOOL, BOOL,
                                 size=rng.randint(1, 5))
        body = If(FreeVar("y"), then_branch, else_branch)
        term = App(abstract(abstract(body, "y"), "x"), COIN)
        report = check_computational_confluence(term, size_bound=6)
        assert report.equivalent
        if len(report.distributions) > 1:
            multi_endpoint += 1
    assert multi_endpoint >= 5  # the family genuinely branches syntactically


def _has_stuck_choice(t) -> bool:
    match t:
        case If(Oplus(), _, _) | App(Oplus(), _):
            return True
        case _:
            return any(_has_stuck_choice(child) for _, child in children(t))


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_internalized_terms_confluent(seed):
    # unless a choice term gets stuck under a destructor, internalizing
    # makes exploration converge to a single distribution
    rng = Random(seed)
    term, _ = closed_typed(rng, Discipline.SIMPLE, size=rng.randint(3, 10))
    result = check_probabilistic_confluence(term, CalculusVariant.INTERNALIZED)
    stuck = any(_has_stuck_choice(t)
                for dist in result.final_distributions
                for t in dist.support)
    if not stuck:
        assert result.confluent


@given(seeds)
@settings(max_examples=60, deadline=None)
def test_step_distribution_substitutes(seed):
    # one-step outcome distributions commute with substitution
    from lambcoin import Distribution, subst_dist
    rng = Random(seed)
    t = term_with_redex(rng, size=rng.randint(2, 8), free=("x",))
    r = random_term(rng, size=rng.randint(1, 5))
    pos = rng.choice(redexes(t))
    outcome = Distribution((u, p) for p, u in step_at(t, pos).outcomes)
    substituted_first = step_at(substitute(t, "x", r), pos)
    lhs = Distribution((u, p) for p, u in substituted_first.outcomes)
    assert lhs == subst_dist(outcome, "x", r)
