"""Correctness oracles for the benchmark, computed apart from lambcoin.

Nothing here imports lambcoin. Terms are read from the canonical text the
program prints into plain tuples:

    ("var", name)  ("lam", name, body)  ("app", fun, arg)
    ("const", 0 | 1)  ("if", cond, then, orelse)  ("coin",)

and checked with a reader, a normality test and a denotational evaluator of
this module's own. The blowup endpoints are computed in closed form.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


class OracleError(Exception):
    """An output of the program failed a correctness check."""


# ---------------------------------------------------------------------------
# Reading terms and distributions

_TOKEN = re.compile(r"\s*(?:(\\|\.|\(|\))|([A-Za-z_][A-Za-z0-9_]*)|(\d+))")
_KEYWORDS = {"if", "then", "else", "coin", "lam"}


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise OracleError(f"unreadable term text at {pos}: {text!r}")
        out.append(match.group(match.lastindex))
        pos = match.end()
    return out


def read_term(text: str) -> tuple:
    """Parse the plain-calculus concrete syntax into a tuple term."""
    toks = _tokens(text)
    pos = 0

    def peek() -> str | None:
        return toks[pos] if pos < len(toks) else None

    def take(expected: str | None = None) -> str:
        nonlocal pos
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise OracleError(f"expected {expected or 'a token'} in {text!r}")
        pos += 1
        return tok

    def term() -> tuple:
        if peek() in ("\\", "lam"):
            take()
            name = take()
            take(".")
            return ("lam", name, term())
        fun = atom()
        if fun is None:
            raise OracleError(f"expected a term in {text!r}")
        while (arg := atom()) is not None:
            fun = ("app", fun, arg)
        return fun

    def atom() -> tuple | None:
        tok = peek()
        if tok in ("0", "1"):
            take()
            return ("const", int(tok))
        if tok == "coin":
            take()
            return ("coin",)
        if tok == "(":
            take()
            inner = term()
            take(")")
            return inner
        if tok == "if":
            take()
            cond = term()
            take("then")
            then = term()
            take("else")
            return ("if", cond, then, term())
        if tok is not None and tok not in _KEYWORDS and re.fullmatch(r"[A-Za-z_]\w*", tok):
            take()
            return ("var", tok)
        return None

    result = term()
    if pos != len(toks):
        raise OracleError(f"trailing input in {text!r}")
    return result


def read_distribution(text: str) -> dict[str, Fraction]:
    """Read `{ p: term ; ... }` into {term text: probability}.

    The keys are the printed support terms, which the canonical format
    makes unique per alpha-class; a repeated key is an error.
    """
    text = text.strip()
    if not (text.startswith("{ ") and text.endswith(" }")):
        raise OracleError(f"not a distribution: {text!r}")
    dist: dict[str, Fraction] = {}
    for entry in text[2:-2].split(" ; "):
        prob, sep, term = entry.partition(": ")
        if not sep or term in dist:
            raise OracleError(f"bad distribution entry {entry!r}")
        dist[term] = Fraction(prob)
        if dist[term] <= 0:
            raise OracleError(f"non-positive probability in {entry!r}")
    if sum(dist.values()) != 1:
        raise OracleError(f"mass {sum(dist.values())} is not 1 in {text!r}")
    return dist


def distribution_key(text: str) -> frozenset:
    """Hashable form of a printed distribution, for set comparisons."""
    return frozenset(read_distribution(text).items())


# ---------------------------------------------------------------------------
# Properties of terms

def free_names(t: tuple, bound: frozenset = frozenset()) -> set[str]:
    match t:
        case ("var", name):
            return set() if name in bound else {name}
        case ("lam", name, body):
            return free_names(body, bound | {name})
        case ("app", fun, arg):
            return free_names(fun, bound) | free_names(arg, bound)
        case ("if", cond, then, orelse):
            return (free_names(cond, bound) | free_names(then, bound)
                    | free_names(orelse, bound))
    return set()


def is_normal(t: tuple) -> bool:
    """No beta, if-on-constant or coin redex anywhere, under binders too."""
    match t:
        case ("coin",):
            return False
        case ("lam", _, body):
            return is_normal(body)
        case ("app", fun, arg):
            return fun[0] != "lam" and is_normal(fun) and is_normal(arg)
        case ("if", cond, then, orelse):
            return (cond[0] != "const" and is_normal(cond)
                    and is_normal(then) and is_normal(orelse))
    return True


def evaluate(t: tuple, env: dict | None = None):
    """Denotation of a coin-free term: 0, 1, or a Python function."""
    env = env or {}
    match t:
        case ("const", bit):
            return bit
        case ("var", name):
            if name not in env:
                raise OracleError(f"free variable {name!r}")
            return env[name]
        case ("lam", name, body):
            return lambda value: evaluate(body, {**env, name: value})
        case ("app", fun, arg):
            f = evaluate(fun, env)
            if not callable(f):
                raise OracleError("a boolean is applied")
            return f(evaluate(arg, env))
        case ("if", cond, then, orelse):
            bit = evaluate(cond, env)
            if bit not in (0, 1):
                raise OracleError("a condition is not a boolean")
            return evaluate(then if bit else orelse, env)
        case ("coin",):
            raise OracleError("coin in a term that should be coin-free")
    raise OracleError(f"not a term: {t!r}")


def truth_table(t: tuple, arity: int) -> tuple[int, ...]:
    """Outputs of a closed term of type B -> ... -> B (`arity` arrows) on
    every boolean input, in lexicographic input order. Raises unless each
    output is a boolean, which makes this a check of the type as well."""
    value = evaluate(t)
    table = []
    for inputs in itertools.product((0, 1), repeat=arity):
        out = value
        for bit in inputs:
            if not callable(out):
                raise OracleError("term takes fewer arguments than its type")
            out = out(bit)
        if out not in (0, 1):
            raise OracleError("term does not return a boolean")
        table.append(out)
    return tuple(table)


def check_typed_normal(text: str, arity: int) -> None:
    """A support term is closed, normal and denotes a B^arity -> B function."""
    t = read_term(text)
    if free_names(t):
        raise OracleError(f"{text!r} is not closed")
    if not is_normal(t):
        raise OracleError(f"{text!r} is not normal")
    truth_table(t, arity)


# ---------------------------------------------------------------------------
# Closed-form endpoints of the blowup family

def blowup_text(copies: int, coins: int, names: tuple[str, str] = ("x", "y")) -> str:
    """`(\\x.\\y. y x..x coin..coin) coin`, or `\\y. y coin..coin` without copies."""
    x, y = names
    spine = " ".join([y] + [x] * copies + ["coin"] * coins)
    return f"(\\{x}.\\{y}. {spine}) coin" if copies else f"\\{y}. {spine}"


def _spine(bits) -> str:
    return " ".join(["\\x0. x0"] + [str(b) for b in bits])


def _mixture(copies: int, coins: int, shared_for) -> frozenset:
    """Endpoint in which outcome `bs` of the free coins sees the copies
    shared (all equal) when `shared_for(bs)` and independent otherwise."""
    dist: dict[str, Fraction] = {}
    weight = Fraction(1, 2 ** coins)
    for bs in itertools.product((0, 1), repeat=coins):
        if shared_for(bs):
            rows = [((a,) * copies, Fraction(1, 2)) for a in (0, 1)]
        else:
            rows = [(xs, Fraction(1, 2 ** copies))
                    for xs in itertools.product((0, 1), repeat=copies)]
        for xs, p in rows:
            key = _spine(xs + bs)
            dist[key] = dist.get(key, Fraction(0)) + weight * p
    return frozenset(dist.items())


def blowup_endpoints(copies: int, coins: int) -> tuple[set, frozenset, frozenset]:
    """(every reachable endpoint, the cbn endpoint, the cbv endpoint).

    Firing the free coins first splits the term into one branch per outcome,
    and each branch independently either fires the shared coin before the
    beta (copies equal) or after it (copies independent). Call-by-name fires
    the beta first, so every copy is independent; call-by-value fires every
    coin first, so every copy is shared.
    """
    cbn = _mixture(copies, coins, lambda bs: False)
    cbv = _mixture(copies, coins, lambda bs: True)
    if copies < 2:  # sharing is unobservable
        return {cbn}, cbn, cbv
    outcomes = list(itertools.product((0, 1), repeat=coins))
    endpoints = set()
    for choice in itertools.product((False, True), repeat=len(outcomes)):
        shared = dict(zip(outcomes, choice))
        endpoints.add(_mixture(copies, coins, shared.__getitem__))
    return endpoints, cbn, cbv
