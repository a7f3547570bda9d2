"""Golden command-line tests: canonical output and exit codes."""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from genterms import closed_typed, random_term
from lambcoin import Discipline, pretty
from lambcoin.cli import main

FIG1 = "(\\x.\\y. y x x) coin"
SECTION4 = "(\\x.\\y. if y then x else ((\\z. if z then 0 else 1) x)) coin"

FIG1_LEFT = "{ 1/2: \\x0. x0 0 0 ; 1/2: \\x0. x0 1 1 }"
FIG1_RIGHT = ("{ 1/4: \\x0. x0 0 0 ; 1/4: \\x0. x0 0 1 ; "
              "1/4: \\x0. x0 1 0 ; 1/4: \\x0. x0 1 1 }")


def run(*args, stdin_text=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "lambcoin", *args],
        capture_output=True, text=True, input=stdin_text, env=env,
    )


def test_explore_figure_one():
    result = run("explore", FIG1)
    assert result.returncode == 0
    assert set(result.stdout.splitlines()) == {FIG1_LEFT, FIG1_RIGHT}


def test_explore_coin():
    result = run("explore", "coin")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["{ 1/2: 0 ; 1/2: 1 }"]


def test_reduce_strategies():
    cbv = run("reduce", "--strategy", "cbv", FIG1)
    assert cbv.returncode == 0
    assert cbv.stdout.splitlines()[-1] == FIG1_LEFT
    cbn = run("reduce", "--strategy", "cbn", FIG1)
    assert cbn.stdout.splitlines()[-1] == FIG1_RIGHT


def test_reduce_normal_term_empty_trace():
    result = run("reduce", "--strategy", "cbn", "0")
    assert result.returncode == 0
    assert result.stdout.splitlines() == ["{ 1: 0 }"]


def test_confluence_exit_codes():
    bad = run("confluence", FIG1)
    assert bad.returncode == 1
    assert bad.stdout.splitlines()[0] == "NOT CONFLUENT"
    assert any(line.startswith("witness:") for line in bad.stdout.splitlines())
    good = run("confluence", "--calculus", "internal", FIG1)
    assert good.returncode == 0
    assert good.stdout.splitlines()[0] == "CONFLUENT"
    assert "{ 1: \\x0. x0 (0 +[1/2] 1) (0 +[1/2] 1) }" in good.stdout


def test_typecheck_verdicts():
    assert run("typecheck", "--system", "simple", "coin").stdout.strip() == "B"
    affine = run("typecheck", "--system", "affine", FIG1)
    assert affine.returncode == 1
    assert "AffinityViolation" in affine.stdout or "used in two" in affine.stdout
    sub = run("typecheck", "--system", "subaffine", SECTION4)
    assert sub.returncode == 0
    assert sub.stdout.strip() == "B -> B"


def test_typecheck_goal_flag():
    ok = run("typecheck", "--type", "(B->B->B)->B", FIG1)
    assert ok.returncode == 0
    bad = run("typecheck", "--type", "B", FIG1)
    assert bad.returncode == 1


def test_infer():
    result = run("infer", "\\x. x")
    assert result.returncode == 0
    assert result.stdout.strip() == "'a -> 'a"


def test_parse_error_exit_code():
    result = run("typecheck", "(\\x. x")
    assert result.returncode == 2
    assert "parse error" in result.stderr


def test_computational_confluence():
    good = run("computational-confluence", SECTION4)
    assert good.returncode == 0
    assert good.stdout.splitlines()[-1] == "COMPUTATIONALLY CONFLUENT"
    refused = run("computational-confluence", FIG1)
    assert refused.returncode == 5
    assert "hypothesis not met" in refused.stderr


def test_open_beta_argument_is_shifted():
    # The inner beta substitutes v1 under \v3, where it must still name v1.
    term = "(\\v1. (\\v2. \\v3. v2) v1) (\\v4. 0)"
    endpoint = "{ 1: \\x0. \\x1. 0 }"
    explored = run("explore", term)
    assert explored.returncode == 0
    assert explored.stdout.splitlines() == [endpoint]
    cbv = run("reduce", "--strategy", "cbv", term)
    assert cbv.returncode == 0
    assert cbv.stdout.splitlines()[-1] == endpoint
    assert run("computational-confluence", term).returncode == 0


def test_equiv_on_distribution_files(tmp_path: Path):
    left = tmp_path / "left.dist"
    left.write_text(FIG1_LEFT + "\n")
    right = tmp_path / "right.dist"
    right.write_text(FIG1_RIGHT + "\n")
    result = run("equiv", str(left), str(right), "--type", "(B->B->B)->B")
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    assert lines[-1] == "NOT EQUIVALENT"
    assert any("MISMATCH" in line for line in lines)
    same = run("equiv", str(left), str(left), "--type", "(B->B->B)->B")
    assert same.returncode == 0
    assert same.stdout.splitlines()[-1] == "EQUIVALENT"


def test_equiv_inline_reflexive():
    result = run("equiv", "{ 1: 0 }", "{ 1: 0 }", "--type", "B")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "EQUIVALENT"


def test_stdin_input():
    result = run("explore", "-", stdin_text="coin\n")
    assert result.returncode == 0
    assert result.stdout.strip() == "{ 1/2: 0 ; 1/2: 1 }"


def test_demo_figure1():
    result = run("demo", "figure1")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == f"term: (\\x0. \\x1. x1 x0 x0) coin"
    assert set(lines[1:]) == {FIG1_LEFT, FIG1_RIGHT}


def test_demo_section4():
    result = run("demo", "section4")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[-1] == "EQUIVALENT"
    assert ("{ 1/2: \\x0. if x0 then 0 else 1 ; 1/2: \\x0. if x0 then 1 else 0 }"
            in lines)


def test_demo_internalized():
    result = run("demo", "internalized")
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "{ 1: \\x0. x0 (0 +[1/2] 1) (0 +[1/2] 1) }"


def test_output_is_reproducible():
    first = run("explore", FIG1)
    second = run("explore", FIG1)
    assert first.stdout == second.stdout


def test_structured_output():
    result = run("confluence", "--format", "structured", FIG1)
    record = json.loads(result.stdout)
    assert record["confluent"] is False
    assert set(record["distributions"]) == {FIG1_LEFT, FIG1_RIGHT}
    assert record["witness"] == sorted([FIG1_LEFT, FIG1_RIGHT])
    result = run("typecheck", "--format", "structured", "--system", "affine", FIG1)
    record = json.loads(result.stdout)
    assert record["ok"] is False
    assert record["error"] == "AffinityViolation"
    assert record["rule"] == "->e"


def test_fuel_env_var_and_flag():
    import os
    env = dict(os.environ, LAMBCOIN_FUEL="1")
    result = run("explore", FIG1, env=env)
    assert result.returncode == 3
    assert "fuel exhausted" in result.stderr
    result = run("explore", "--fuel", "1000", FIG1, env=env)
    assert result.returncode == 0


def test_bad_probabilities_are_distribution_errors():
    for bad in ("{ abc: 0 }", "{ 1/0: 0 }"):
        result = run("equiv", bad, "{ 1: 0 }", "--type", "B")
        assert result.returncode == 2
        assert "distribution error" in result.stderr
        assert "Traceback" not in result.stderr


def test_bad_fuel_and_size_bound_are_usage_errors():
    import os
    for value in ("0", "-3", "abc", "1.5"):
        for flags in (("explore", FIG1, "--fuel", value),
                      ("equiv", FIG1_LEFT, FIG1_LEFT, "--type", "B",
                       "--size-bound", value)):
            result = run(*flags)
            assert result.returncode == 2, flags
            assert "Traceback" not in result.stderr
        result = run("explore", FIG1, env=dict(os.environ, LAMBCOIN_FUEL=value))
        assert result.returncode == 2, value
        assert "LAMBCOIN_FUEL" in result.stderr
        assert "Traceback" not in result.stderr


def test_strategy_flag_only_on_reduce():
    result = run("explore", "--strategy", "cbv", FIG1)
    assert result.returncode == 2


def test_omega_reported_as_divergent():
    result = run("explore", "(\\x. x x) (\\x. x x)")
    assert result.returncode == 3


def test_demo_structured():
    result = run("demo", "section4", "--format", "structured")
    record = json.loads(result.stdout)
    assert record["equivalent"] is True
    assert len(record["distributions"]) == 2


def test_equiv_ambiguous_plug_exit_code(tmp_path: Path):
    # the plugged support term explores to two distributions, which the
    # strict mode must surface instead of silently picking one
    dist = "{ 1: \\z. (\\x.\\y. y x x) coin (\\a.\\b. if a then b else 0) }"
    path = tmp_path / "amb.dist"
    path.write_text(dist + "\n")
    strict = run("equiv", str(path), str(path), "--type", "B->B")
    assert strict.returncode == 4
    assert "ambiguous" in strict.stderr
    relaxed = run("equiv", str(path), str(path), "--type", "B->B",
                  "--single-path")
    assert relaxed.returncode == 0


def test_deep_parentheses_exit_six(tmp_path: Path):
    path = tmp_path / "deep.term"
    path.write_text("(" * 3000 + "0" + ")" * 3000 + "\n")
    result = run("explore", str(path))
    assert result.returncode == 6
    assert "nested too deeply" in result.stderr
    assert "Traceback" not in result.stderr


def test_long_identity_chain_exit_six(tmp_path: Path):
    # Normality is stored on each node, so a 600-identity chain reduces; a
    # far longer one still meets the recursive walks (pretty, free_vars).
    path = tmp_path / "chain.term"
    path.write_text("(\\x.x) " * 600 + "0\n")
    result = run("reduce", "--strategy", "cbn", str(path))
    assert result.returncode == 0
    assert result.stdout.splitlines()[-1] == "{ 1: 0 }"
    path.write_text("(\\x.x) " * 5000 + "0\n")
    result = run("reduce", "--strategy", "cbn", str(path))
    assert result.returncode == 6
    assert "nested too deeply" in result.stderr
    assert "Traceback" not in result.stderr


def test_a_long_reduction_path_exit_six():
    # the argument grows at every step and the explorer recurses once per
    # step, so the recursion limit comes long before the default fuel
    result = run("explore", "(\\x. 0) ((\\x. x x x)(\\x. x x x))")
    assert result.returncode == 6
    assert result.stderr == ("error: input nested too deeply, or a reduction "
                             "path too long, for the recursive walks\n")
    assert "Traceback" not in result.stderr


XOR_LEFT = ("{ 1: \\f. if f 0 0 then 0 else (if f 1 1 then 0 else "
            "(if f 0 1 then f 1 0 else 0)) }")


def test_xor_pair_decided_at_bound_nine():
    # L returns 1 only on XOR, which first appears among the B -> B -> B
    # arguments at bound 9; its plugs are coin-free, so they are normalized
    result = run("equiv", XOR_LEFT, "{ 1: \\f. 0 }",
                 "--type", "(B->B->B)->B", "--size-bound", "9")
    assert result.returncode == 1
    assert result.stdout.splitlines()[-1] == "NOT EQUIVALENT"


def test_unreadable_input_path_is_a_usage_error(tmp_path: Path):
    result = run("explore", str(tmp_path))
    assert result.returncode == 2
    assert "cannot read input" in result.stderr
    assert "Traceback" not in result.stderr


def test_empty_goal_type_is_a_parse_error():
    result = run("typecheck", "0", "--type", "")
    assert result.returncode == 2
    assert "parse error" in result.stderr


@pytest.mark.parametrize("argv", [
    ("typecheck", "--fuel", "10", "0"),
    ("infer", "--fuel", "10", "0"),
    ("equiv", "--calculus", "internal", "{ 1: 0 }", "{ 1: 0 }", "--type", "B"),
    ("computational-confluence", "--calculus", "internal", "coin"),
    ("typecheck", "--fuel", "3", "0"),
])
def test_flags_a_command_would_ignore_are_rejected(argv):
    result = run(*argv)
    assert result.returncode == 2
    assert result.stderr.startswith(f"usage: lambcoin {argv[0]} ")
    assert "unrecognized arguments: --" in result.stderr


def test_a_name_that_is_a_file_and_a_term_is_ambiguous(tmp_path: Path,
                                                       monkeypatch):
    (tmp_path / "coin").write_text("0\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_main(["explore", "coin"])
    assert code == 2
    assert out == ""
    assert "'coin' names a file and is also inline input" in err
    assert "./coin" in err
    assert run_main(["explore", "./coin"]) == (0, "{ 1: 0 }\n", "")


def run_main(argv):
    """(exit code, stdout, stderr) of `main(argv)` in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


GOLDEN_DIR = Path(__file__).parent / "golden"

# (name, arguments, exit code) over all eight commands. tests/golden/
# <name>.<format> holds the exact standard output of each format.
GOLDEN = [
    ("typecheck-figure1", ["typecheck", FIG1], 0),
    ("typecheck-affine-error", ["typecheck", "--system", "affine", FIG1], 1),
    ("typecheck-internal", ["typecheck", "--calculus", "internal",
                            "\\y. y (0 +[1/2] 1) (0 +[1/2] 1)"], 0),
    ("infer-section4", ["infer", SECTION4], 0),
    ("infer-error", ["infer", "0 0"], 1),
    ("reduce-cbn-figure1", ["reduce", "--strategy", "cbn", FIG1], 0),
    ("reduce-cbv-section4", ["reduce", "--strategy", "cbv", SECTION4], 0),
    ("reduce-internal", ["reduce", "--strategy", "cbn", "--calculus",
                         "internal", FIG1], 0),
    ("explore-figure1", ["explore", FIG1], 0),
    ("explore-section4", ["explore", SECTION4], 0),
    ("explore-internal", ["explore", "--calculus", "internal", FIG1], 0),
    ("confluence-figure1", ["confluence", FIG1], 1),
    ("confluence-internal", ["confluence", "--calculus", "internal", FIG1], 0),
    ("equiv-figure1", ["equiv", FIG1_LEFT, FIG1_RIGHT, "--type",
                       "(B->B->B)->B", "--size-bound", "6"], 1),
    ("computational-confluence-section4",
     ["computational-confluence", SECTION4], 0),
    ("computational-confluence-figure1",
     ["computational-confluence", FIG1], 5),
    ("demo-figure1", ["demo", "figure1"], 0),
    ("demo-section4", ["demo", "section4"], 0),
    ("demo-internalized", ["demo", "internalized"], 0),
]


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(name, argv, code, fmt, monkeypatch):
    monkeypatch.delenv("LAMBCOIN_FUEL", raising=False)
    got_code, out, _ = run_main([*argv, "--format", fmt])
    assert got_code == code
    assert out == (GOLDEN_DIR / f"{name}.{fmt}").read_text(encoding="utf-8")


FUZZ_COMMANDS = {  # command -> (kinds of its positional arguments, its flags)
    "typecheck": (("term",), ("--calculus", "--system", "--type")),
    "infer": (("term",), ("--calculus",)),
    "reduce": (("term",), ("--calculus", "--fuel", "--strategy")),
    "explore": (("term",), ("--calculus", "--fuel")),
    "confluence": (("term",), ("--calculus", "--fuel")),
    "equiv": (("dist", "dist"), ("--fuel", "--type", "--size-bound",
                                 "--single-path")),
    "computational-confluence": (("term",), ("--fuel", "--size-bound",
                                             "--single-path")),
    "demo": (("demo",), ("--fuel",)),
}
TERM_TOKENS = ("\\x.", "\\y.", "lam z.", "x", "y", "z", "0", "1", "coin", "(",
               ")", "if", "then", "else", "+[1/2]", "+[3/2]", "+[", "]", ".",
               "\\", "#", "é")
TYPE_TOKENS = ("B", "->", "(", ")", "'a", "C", " ")
BAD_PROBABILITIES = ("0", "-1", "abc", "1/0", "3/2", "", "1e9", "1/3")
# flag -> (values a command accepts, values it rejects)
FLAG_VALUES = {
    "--fuel": (("1", "50", "2000"), ("0", "-3", "abc", "1.5")),
    "--size-bound": (("1", "2", "4"), ("0", "x")),
    "--calculus": (("plain", "internal"), ("quantum",)),
    "--strategy": (("cbn", "cbv"), ("cbx",)),
    "--system": (("simple", "affine", "subaffine"), ("linear",)),
    "--type": (("B", "B->B", "B->B->B", "(B->B)->B"), ("", "B->", "C")),
    "--format": (("human", "structured"), ("xml",)),
    "--single-path": ((None,), ()),
    "--bogus": ((), (None, "1")),
}
NEGATIVE_VERDICTS = {"NOT CONFLUENT", "NOT EQUIVALENT",
                     "NOT COMPUTATIONALLY CONFLUENT"}


def _fuzz_term(rng: Random) -> str:
    """A malformed token string, an arbitrary well-scoped term, possibly
    open or with choices, or a closed sub-affine-typed one."""
    roll = rng.random()
    if roll < 0.3:
        return " ".join(rng.choice(TERM_TOKENS) for _ in range(rng.randint(0, 7)))
    if roll < 0.7:
        return pretty(random_term(rng, rng.randint(1, 10),
                                  free=("y",) if rng.random() < 0.2 else (),
                                  allow_oplus=rng.random() < 0.2))
    return pretty(closed_typed(rng, Discipline.SUBAFFINE, size=8)[0])


def _fuzz_distribution(rng: Random) -> str:
    count = rng.randint(1, 3)
    probs = ["1"] if count == 1 else [f"1/{count}"] * count
    if rng.random() < 0.3:
        probs[rng.randrange(count)] = rng.choice(BAD_PROBABILITIES)
    body = " ; ".join(f"{p}: {_fuzz_term(rng)}" for p in probs)
    return "{ %s }" % body if rng.random() < 0.9 else "{ %s" % body


def _fuzz_argv(rng: Random, special: list[str]) -> list[str]:
    command = rng.choice(sorted(FUZZ_COMMANDS))
    kinds, flags = FUZZ_COMMANDS[command]
    argv = [command]
    for kind in kinds:
        if rng.random() < 0.05:
            argv.append(rng.choice(special))
        elif kind == "term":
            argv.append(_fuzz_term(rng))
        elif kind == "dist":
            argv.append(_fuzz_distribution(rng))
        else:
            argv.append(rng.choice(("figure1", "section4", "internalized",
                                    "figure2")))
    pool = sorted(FLAG_VALUES) if rng.random() < 0.15 else ["--format", *flags]
    for flag in rng.sample(pool, min(len(pool), rng.randint(0, 2))):
        good, bad = FLAG_VALUES[flag]
        value = rng.choice(bad if not good or (bad and rng.random() < 0.15)
                           else good)
        if flag == "--type" and rng.random() < 0.2:
            value = "".join(rng.choice(TYPE_TOKENS)
                            for _ in range(rng.randint(0, 6)))
        argv += [flag] if value is None else [flag, value]
    if command == "reduce" and "--strategy" not in argv and rng.random() < 0.9:
        argv += ["--strategy", rng.choice(("cbn", "cbv"))]
    if command == "equiv" and "--type" not in argv and rng.random() < 0.9:
        argv += ["--type", rng.choice(("B", "B->B", "B->B->B"))]
    return argv


def test_cli_fuzz_no_traceback_and_documented_exit_codes(tmp_path: Path,
                                                         monkeypatch):
    # A small fuel keeps growing or divergent draws short.
    monkeypatch.setenv("LAMBCOIN_FUEL", "2000")
    binary = tmp_path / "binary.term"
    binary.write_bytes(b"\xff\xfe\x00coin")
    deep = tmp_path / "deep.term"
    deep.write_text("(" * 3000 + "0" + ")" * 3000)
    special = [str(tmp_path), str(binary), str(deep),
               "(" * 3000 + "0" + ")" * 3000]
    rng = Random(20261018)
    argvs = [["explore", str(tmp_path)], ["explore", str(deep)],
             ["explore", str(binary)], ["equiv", str(tmp_path), "{ 1: 0 }",
                                        "--type", "B"]]
    argvs += [_fuzz_argv(rng, special) for _ in range(600)]
    seen = set()
    for argv in argvs:
        code, out, err = run_main(argv)
        seen.add(code)
        assert "Traceback" not in err, argv
        assert code in {0, 1, 2, 3, 4, 5, 6}, argv
        if code == 1:
            if out.startswith("{"):
                record = json.loads(out)
                negative = False in (record.get("ok"), record.get("confluent"),
                                     record.get("equivalent"))
            else:
                negative = bool(NEGATIVE_VERDICTS & set(out.splitlines()))
            assert negative or "type error" in out + err, argv
    assert {0, 1, 2, 3, 6} <= seen  # the draws reach past argument parsing
