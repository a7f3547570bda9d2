"""Acceptance suite: one criterion per test, one PASS/FAIL line per criterion.

Every probability is an exact rational; no tolerance anywhere. Generated
suites use fixed seeds, so runs are reproducible. Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import subprocess
import sys
import time
from fractions import Fraction
from random import Random

from lambcoin import (
    AffinityViolation, CalculusVariant, Discipline, Distribution, Strategy,
    check_computational_confluence, check_probabilistic_confluence,
    comp_equiv, dirac, format_context, normal_form_distributions,
    parse, parse_type, redexes, reduce_with_strategy, step_at, substitute,
    typecheck,
)

from critpairs import SCHEMAS
from genterms import closed_typed, random_term, term_with_redex
from test_properties import affine_substitution_case

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
INTERNAL = CalculusVariant.INTERNALIZED

FIG1_TEXT = "(\\x.\\y. y x x) coin"
SECTION4_TEXT = "(\\x.\\y. if y then x else ((\\z. if z then 0 else 1) x)) coin"

FIG1 = parse(FIG1_TEXT)
SECTION4 = parse(SECTION4_TEXT)

FIG1_LEFT = Distribution([(parse("\\y. y 0 0"), HALF), (parse("\\y. y 1 1"), HALF)])
FIG1_RIGHT = Distribution([(parse(f"\\y. y {a} {b}"), QUARTER)
                           for a in (0, 1) for b in (0, 1)])
S4_LEFT = Distribution([(parse("\\y. if y then 0 else 1"), HALF),
                        (parse("\\y. if y then 1 else 0"), HALF)])
S4_RIGHT = Distribution([(parse(f"\\y. if y then {a} else {b}"), QUARTER)
                         for a in (0, 1) for b in (0, 1)])
COIN_RESULT = Distribution([(parse("0"), HALF), (parse("1"), HALF)])


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number:2d}: {'PASS' if passed else 'FAIL'} - {description}")
    assert passed, f"criterion {number}: {description}"


def test_criterion_01_figure_one_reproduction():
    start = time.monotonic()
    finals = set(normal_form_distributions(FIG1))
    elapsed = time.monotonic() - start
    cli = subprocess.run(
        [sys.executable, "-m", "lambcoin", "explore", FIG1_TEXT],
        capture_output=True, text=True)
    cli_ok = (cli.returncode == 0 and set(cli.stdout.splitlines()) == {
        "{ 1/2: \\x0. x0 0 0 ; 1/2: \\x0. x0 1 1 }",
        "{ 1/4: \\x0. x0 0 0 ; 1/4: \\x0. x0 0 1 ; "
        "1/4: \\x0. x0 1 0 ; 1/4: \\x0. x0 1 1 }",
    })
    report(1, "exploration yields exactly the two diagram endpoints, < 1 s",
           finals == {FIG1_LEFT, FIG1_RIGHT} and cli_ok and elapsed < 1.0)


def test_criterion_02_strategy_endpoints():
    start = time.monotonic()
    cbv = reduce_with_strategy(FIG1, Strategy.CALL_BY_VALUE).terminal
    cbn = reduce_with_strategy(FIG1, Strategy.CALL_BY_NAME).terminal
    elapsed = time.monotonic() - start
    report(2, "call-by-value reaches the halves, call-by-name the quarters, < 1 s",
           cbv == FIG1_LEFT and cbn == FIG1_RIGHT and elapsed < 1.0)


def test_criterion_03_internalized_confluence():
    expected = dirac(parse("\\y. y (0 +[1/2] 1) (0 +[1/2] 1)", INTERNAL))
    start = time.monotonic()
    traces = [reduce_with_strategy(FIG1, s, INTERNAL).terminal for s in Strategy]
    finals = normal_form_distributions(FIG1, INTERNAL)
    elapsed = time.monotonic() - start
    report(3, "internalized traces and exploration converge to the choice term, < 1 s",
           all(t == expected for t in traces)
           and finals == (expected,) and elapsed < 1.0)


def test_criterion_04_type_system_verdicts():
    simple_ok = typecheck({}, FIG1, Discipline.SIMPLE) == parse_type("(B->B->B)->B")
    try:
        typecheck({}, FIG1, Discipline.AFFINE)
        affine_fig1 = False
    except AffinityViolation:
        affine_fig1 = True
    sub_ok = typecheck({}, SECTION4, Discipline.SUBAFFINE) == parse_type("B->B")
    try:
        typecheck({}, SECTION4, Discipline.AFFINE)
        affine_s4 = False
    except AffinityViolation:
        affine_s4 = True
    report(4, "simple accepts / affine rejects both running examples as stated",
           simple_ok and affine_fig1 and sub_ok and affine_s4)


def test_criterion_05_section_four_example():
    start = time.monotonic()
    finals = set(normal_form_distributions(SECTION4))
    verdict = comp_equiv(S4_LEFT, S4_RIGHT, parse_type("B->B"))
    elapsed = time.monotonic() - start
    contexts = [format_context(c.context) for c in verdict.per_context]
    per_context_ok = (
        contexts == ["◊ 0", "◊ 1"]
        and all(c.left == COIN_RESULT and c.right == COIN_RESULT
                for c in verdict.per_context))
    report(5, "exploration matches the two diagram distributions and they are "
              "equivalent at B -> B, < 1 s",
           finals == {S4_LEFT, S4_RIGHT} and verdict.equivalent
           and per_context_ok and elapsed < 1.0)


def test_criterion_06_theorem_at_desk_scale():
    rng = Random(1006)
    start = time.monotonic()
    checked = 0
    all_equivalent = True
    while checked < 500:
        term, _ = closed_typed(rng, Discipline.SUBAFFINE, size=rng.randint(3, 10))
        checked += 1
        reportcard = check_computational_confluence(term, size_bound=6)
        all_equivalent = all_equivalent and reportcard.equivalent
    elapsed = time.monotonic() - start
    report(6, f"computational confluence holds on {checked} generated "
              f"sub-affine terms in {elapsed:.1f} s",
           all_equivalent and checked >= 500 and elapsed < 300)


def test_criterion_07_affine_probabilistic_confluence():
    rng = Random(1007)
    start = time.monotonic()
    checked = 0
    all_confluent = True
    while checked < 500:
        term, _ = closed_typed(rng, Discipline.AFFINE, size=rng.randint(3, 10))
        checked += 1
        result = check_probabilistic_confluence(term)
        all_confluent = all_confluent and result.confluent
    elapsed = time.monotonic() - start
    report(7, f"probabilistic confluence holds on {checked} generated "
              f"affine terms in {elapsed:.1f} s",
           all_confluent and checked >= 500 and elapsed < 300)


def test_criterion_08_lemma_suites():
    rng = Random(1008)
    # substitution commutation: t[q/y][r/x] = t[r/x][q[r/x]/y], y not free in r
    commutation_ok = True
    for _ in range(1000):
        t = random_term(rng, size=rng.randint(1, 10), free=("x", "y"))
        q = random_term(rng, size=rng.randint(1, 6), free=("x", "z"))
        r = random_term(rng, size=rng.randint(1, 6), free=("x", "z"))
        lhs = substitute(substitute(t, "y", q), "x", r)
        rhs = substitute(substitute(t, "x", r), "y", substitute(q, "x", r))
        commutation_ok = commutation_ok and lhs == rhs

    # step/substitution commutation for every redex kind
    step_ok = True
    kinds_seen = set()
    checked = 0
    while checked < 1000:
        t = term_with_redex(rng, size=rng.randint(2, 10), free=("x",))
        r = random_term(rng, size=rng.randint(1, 6), free=("y",))
        substituted = substitute(t, "x", r)
        for pos in redexes(t):
            from lambcoin import subterm_at
            kinds_seen.add(type(subterm_at(t, pos)).__name__)
            direct = step_at(t, pos)
            image = step_at(substituted, pos)
            expected = tuple((p, substitute(u, "x", r)) for p, u in direct.outcomes)
            step_ok = step_ok and image.outcomes == expected
            checked += 1

    # affine one-occurrence substitution lemma
    affine_ok = True
    for _ in range(1000):
        try:
            affine_substitution_case(rng)
        except AssertionError:
            affine_ok = False
            break

    report(8, "substitution commutation, step substitution (all redex kinds), "
              "and the one-occurrence lemma hold on 1000 instances each",
           commutation_ok and step_ok and affine_ok
           and kinds_seen == {"App", "If", "Coin"})


def test_criterion_09_critical_pair_suite():
    rng = Random(1009)
    start = time.monotonic()
    failures = []
    for name, check in SCHEMAS:
        for _ in range(200):
            try:
                check(rng)
            except AssertionError:
                failures.append(name)
                break
    elapsed = time.monotonic() - start
    report(9, f"all six overlap schemas close on 200 instances each "
              f"in {elapsed:.1f} s",
           not failures)


def test_criterion_10_negative_control():
    left, right = normal_form_distributions(FIG1)
    ty = parse_type("(B->B->B)->B")
    verdict = comp_equiv(left, right, ty, size_bound=6)
    failing_reported = (verdict.failing_context is not None
                        and any(not c.matches for c in verdict.per_context))
    report(10, "diagram endpoints are not computationally equivalent at "
               "(B->B->B)->B; failing context "
               f"{format_context(verdict.failing_context)!r} reported",
           not verdict.equivalent and failing_reported)
