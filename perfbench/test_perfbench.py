"""Tests of the benchmark's own oracles, against hand-computed cases, and one
tiny pass of every workload with its checks on.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import corpus  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from oracle import (  # noqa: E402
    OracleError, blowup_endpoints, blowup_text, check_typed_normal,
    distribution_key, is_normal, read_distribution, read_term, truth_table,
)

# The two endpoints of `lambcoin explore "(\x.\y. y x x) coin"` in README.md.
FIG1_SHARED = "{ 1/2: \\x0. x0 0 0 ; 1/2: \\x0. x0 1 1 }"
FIG1_UNIFORM = ("{ 1/4: \\x0. x0 0 0 ; 1/4: \\x0. x0 0 1 ; "
                "1/4: \\x0. x0 1 0 ; 1/4: \\x0. x0 1 1 }")


def test_figure_one_endpoints_in_closed_form():
    endpoints, cbn, cbv = blowup_endpoints(2, 0)
    assert endpoints == {distribution_key(FIG1_SHARED), distribution_key(FIG1_UNIFORM)}
    assert cbv == distribution_key(FIG1_SHARED)
    assert cbn == distribution_key(FIG1_UNIFORM)
    assert blowup_text(2, 0) == "(\\x.\\y. y x x) coin"


def test_blowup_endpoint_counts():
    assert len(blowup_endpoints(5, 0)[0]) == 2
    assert len(blowup_endpoints(0, 5)[0]) == 1
    assert len(blowup_endpoints(3, 2)[0]) == 16  # 2 ** (2 ** 2) choices
    endpoints, cbn, cbv = blowup_endpoints(2, 1)
    # With one free coin b: shared copies give a a b, independent ones a c b.
    assert cbn == frozenset({(f"\\x0. x0 {a} {c} {b}", Fraction(1, 8))
                             for a in (0, 1) for b in (0, 1) for c in (0, 1)})
    assert cbv == frozenset({(f"\\x0. x0 {a} {a} {b}", Fraction(1, 4))
                             for a in (0, 1) for b in (0, 1)})
    assert {cbn, cbv} < endpoints and len(endpoints) == 4


def test_truth_tables():
    assert truth_table(read_term("\\a.\\b. a"), 2) == (0, 0, 1, 1)
    assert truth_table(read_term("\\a.\\b. if a then b else 0"), 2) == (0, 0, 0, 1)
    with pytest.raises(OracleError):
        truth_table(read_term("\\a. a"), 2)  # returns a function after one input
    with pytest.raises(OracleError):
        truth_table(read_term("\\a.\\b. a b"), 2)  # applies a boolean


def test_normality_and_typing():
    assert is_normal(read_term("\\a. if a then 0 else (a 1)"))
    for redex in ("(\\a. a) 0", "\\a. if 1 then a else 0", "\\a. a coin"):
        assert not is_normal(read_term(redex))
    check_typed_normal("\\x0. \\x1. if x0 then x1 else 0", 2)
    for bad, arity in (("\\x0. y", 1), ("(\\a. a) 0", 0), ("\\x0. x0", 2)):
        with pytest.raises(OracleError):
            check_typed_normal(bad, arity)


def test_distribution_reader():
    assert read_distribution("{ 1: 0 }") == {"0": 1}
    for bad in ("{ 1/2: 0 }", "{ 1/2: 0 ; 1/2: 0 }", "{ 0: 1 ; 1: 0 }", "1: 0"):
        with pytest.raises(OracleError):
            read_distribution(bad)


def test_corpus_leaves_out_terms_that_meet_the_shift_fault():
    assert corpus.meets_shift_fault(read_term("(\\v1. (\\v2. \\v3. v2) v1) (\\v4. 0)"))
    assert not corpus.meets_shift_fault(read_term("\\a.\\b. if a then b else 0"))
    assert not corpus.meets_shift_fault(read_term("\\a. (\\b. b) a"))


def test_corpus_generator_is_seeded_and_typed():
    first = corpus.generate(Random(5), 40, 14, 3)
    assert first == corpus.generate(Random(5), 40, 14, 3)
    assert [d for d, _, _ in first[:4]] == ["affine", "subaffine"] * 2
    for _, text, _ in first:
        assert text.count("coin") <= 3


def test_equiv_check_rejects_a_wrong_report():
    item = ("figure1", FIG1_SHARED, FIG1_UNIFORM, 6)
    code, printed = workloads.equiv_run(item)
    workloads.equiv_check(item, (code, printed))
    record = json.loads(printed)
    flipped = next(c for c in record["contexts"] if not c["matches"])
    flipped["matches"] = True
    with pytest.raises(OracleError):
        workloads.equiv_check(item, (code, json.dumps(record)))
    with pytest.raises(OracleError):
        workloads.equiv_check(item, (0, printed))  # exit code of EQUIVALENT


@pytest.mark.parametrize("seed", [1, 20261018])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_pass_with_checks(name, seed):
    workload = workloads.WORKLOADS[name]
    items = workload.inputs(Random(seed), True)
    assert items
    for item in items:
        workload.check(item, workload.run(item))


def test_names_match_benchmark_json():
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert run.END_TO_END == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert (set(run.WORKLOADS) == set(workloads.WORKLOADS)
            == {w["name"] for w in declared["workloads"]})


def test_traced_tiny_pass_reports_every_layer():
    """Run in a fresh interpreter: the tracer rewires lambcoin's modules."""
    script = (
        "import json, sys; from random import Random; sys.path[:0] = sys.argv[1:]\n"
        "import layers, workloads\n"
        "tracer = layers.Tracer(); tracer.install()\n"
        "for name, w in workloads.WORKLOADS.items():\n"
        "    for item in w.inputs(Random(1), True):\n"
        "        w.check(item, w.run(item))\n"
        "print(json.dumps(tracer.metrics()))\n")
    proc = subprocess.run([sys.executable, "-c", script, str(HERE),
                           str(HERE.parent / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    reported = json.loads(proc.stdout.splitlines()[-1])
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert {name: unit for name, (_, unit) in reported.items()} == {
        m["name"]: m["unit"] for m in declared}
    metrics = {name: value for name, (value, _) in reported.items()}
    # Hand count: one parse per blowup and corpus item; the equiv CLI parses
    # the 2 + 4 and 3 + 3 support terms of its two pairs.
    assert metrics["syntax.parse_calls"] == 3 + workloads.CORPUS_TINY + 12
    assert metrics["explore.nodes"] > 0 and metrics["explore.memo_hits"] >= 0
    assert metrics["equivalence.plug_calls"] > 0 and metrics["cli.output_bytes"] > 0
    assert metrics["typecheck.calls"] > 0
