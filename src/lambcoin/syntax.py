"""Term and type syntax: parsing, printing, substitution, alpha-equality.

Terms use a locally nameless representation: bound variables are de Bruijn
indices (with an optional display hint that never takes part in equality or
hashing), free variables carry their names. Alpha-equality is therefore plain
structural equality and terms can be used directly as dictionary keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache


class CalculusVariant(Enum):
    """Whether coin tosses stay probabilistic or rewrite to a choice term."""

    PLAIN = "plain"
    INTERNALIZED = "internal"


class ParseError(Exception):
    """Malformed input; carries the 1-based source position."""

    def __init__(self, message: str, line: int = 1, column: int = 1):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ScopeError(ParseError):
    """Unbound name in closed-term mode."""


class VariantError(ParseError):
    """A choice operator appeared while parsing in plain mode."""


# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True, slots=True)
class Bool:
    def __repr__(self) -> str:
        return "Bool"


@dataclass(frozen=True, slots=True)
class Arrow:
    arg: Type
    result: Type

    def __repr__(self) -> str:
        return f"Arrow({self.arg!r}, {self.result!r})"


Type = Bool | Arrow

BOOL = Bool()


def format_type(ty: Type) -> str:
    """Render a type as `B`, `B -> B`, ... with `->` right-associative."""
    match ty:
        case Bool():
            return "B"
        case Arrow(arg, result):
            left = format_type(arg)
            if isinstance(arg, Arrow):
                left = f"({left})"
            return f"{left} -> {format_type(result)}"
    raise TypeError(f"not a type: {ty!r}")


def parse_type(text: str) -> Type:
    """Parse `B`, `B->B`, `(B->B)->B`, ... (`->` right-associative)."""
    pos = 0

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def atom() -> Type:
        nonlocal pos
        skip_ws()
        if pos < len(text) and text[pos] == "(":
            pos += 1
            ty = arrow()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ParseError("expected ')' in type", 1, pos + 1)
            pos += 1
            return ty
        if pos < len(text) and text[pos] == "B":
            pos += 1
            return BOOL
        raise ParseError("expected 'B' or '(' in type", 1, pos + 1)

    def arrow() -> Type:
        nonlocal pos
        left = atom()
        skip_ws()
        if text.startswith("->", pos):
            pos += 2
            return Arrow(left, arrow())
        return left

    ty = arrow()
    skip_ws()
    if pos != len(text):
        raise ParseError("trailing input after type", 1, pos + 1)
    return ty


# ---------------------------------------------------------------------------
# Terms

# Each compound node computes two facts once, when it is built, from its
# compared fields and its children's stored facts, so reading them never
# recurses (Filliatre & Conchon, "Type-Safe Modular Hash-Consing", 2006):
# - `_hash`, its hash. Every tag and constant hash is a fixed int, unlike a
#   salted `hash("...")`, so a term without free names hashes the same in
#   every process.
# - `_normal`, whether it holds no redex: its children are normal and it is
#   not itself a redex head. `App(Lam, _)`, `If(0|1, _, _)` and `Coin` are
#   redex heads; a choice `Oplus` is not.
# Neither is an init field or compared. Variables and constants are normal
# and keep `_normal` at class level.

def _stored_hash(self) -> int:
    return self._hash


def _set_facts(node: Term, normal: bool, *key: object) -> None:
    object.__setattr__(node, "_hash", hash(key))
    object.__setattr__(node, "_normal", normal)


@dataclass(frozen=True, slots=True)
class Var:
    """Bound variable as a de Bruijn index (0 = innermost binder)."""

    index: int
    hint: str | None = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _normal = True
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("negative de Bruijn index")
        object.__setattr__(self, "_hash", hash((1, self.index)))


@dataclass(frozen=True, slots=True)
class FreeVar:
    """Free variable, identified by name (a context reference)."""

    name: str
    _hash: int = field(init=False, repr=False, compare=False)
    _normal = True
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((2, self.name)))


@dataclass(frozen=True, slots=True)
class Lam:
    body: Term
    hint: str | None = field(default=None, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    _normal: bool = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        _set_facts(self, self.body._normal, 3, self.body._hash)


@dataclass(frozen=True, slots=True)
class App:
    fun: Term
    arg: Term
    _hash: int = field(init=False, repr=False, compare=False)
    _normal: bool = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        fun, arg = self.fun, self.arg
        _set_facts(self, fun._normal and arg._normal and type(fun) is not Lam,
                   4, fun._hash, arg._hash)


# The field-less constants keep a class-level `_hash`: the generated hash
# would be `hash(())` for all three, and terms differing only in their
# constants would collide.

@dataclass(frozen=True, slots=True)
class Zero:
    _hash = 0x5A3E0001
    _normal = True
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class One:
    _hash = 0x5A3E0002
    _normal = True
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class If:
    cond: Term
    then: Term
    orelse: Term
    _hash: int = field(init=False, repr=False, compare=False)
    _normal: bool = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        cond, then, orelse = self.cond, self.then, self.orelse
        normal = (cond._normal and then._normal and orelse._normal
                  and type(cond) is not Zero and type(cond) is not One)
        _set_facts(self, normal, 5, cond._hash, then._hash, orelse._hash)


@dataclass(frozen=True, slots=True)
class Coin:
    _hash = 0x5A3E0003
    _normal = False
    __hash__ = _stored_hash


@dataclass(frozen=True, slots=True)
class Oplus:
    """Internalized binary choice; `prob` weights the left alternative."""

    prob: Fraction
    left: Term
    right: Term
    _hash: int = field(init=False, repr=False, compare=False)
    _normal: bool = field(init=False, repr=False, compare=False)
    __hash__ = _stored_hash

    def __post_init__(self) -> None:
        if not (0 < self.prob < 1):
            raise ValueError(f"choice probability must be in (0, 1): {self.prob}")
        left, right = self.left, self.right
        _set_facts(self, left._normal and right._normal,
                   6, self.prob, left._hash, right._hash)


Term = Var | FreeVar | Lam | App | Zero | One | If | Coin | Oplus

ZERO = Zero()
ONE = One()
COIN = Coin()


def free_vars(t: Term) -> frozenset[str]:
    """Names of the free variables of `t`."""
    match t:
        case FreeVar(name):
            return frozenset((name,))
        case Lam(body):
            return free_vars(body)
        case App(fun, arg):
            return free_vars(fun) | free_vars(arg)
        case If(cond, then, orelse):
            return free_vars(cond) | free_vars(then) | free_vars(orelse)
        case Oplus(_, left, right):
            return free_vars(left) | free_vars(right)
        case _:
            return frozenset()


def coin_free(t: Term) -> bool:
    """Whether `t` holds neither a coin nor a choice."""
    match t:
        case Coin() | Oplus():
            return False
        case Lam(body):
            return coin_free(body)
        case App(fun, arg):
            return coin_free(fun) and coin_free(arg)
        case If(cond, then, orelse):
            return coin_free(cond) and coin_free(then) and coin_free(orelse)
        case _:
            return True


def count_occurrences(t: Term, name: str) -> int:
    """Number of free occurrences of `name` in `t`."""
    match t:
        case FreeVar(n):
            return 1 if n == name else 0
        case Lam(body):
            return count_occurrences(body, name)
        case App(fun, arg):
            return count_occurrences(fun, name) + count_occurrences(arg, name)
        case If(cond, then, orelse):
            return (count_occurrences(cond, name)
                    + count_occurrences(then, name)
                    + count_occurrences(orelse, name))
        case Oplus(_, left, right):
            return count_occurrences(left, name) + count_occurrences(right, name)
        case _:
            return 0


def term_size(t: Term) -> int:
    """Number of syntax-tree nodes."""
    match t:
        case Lam(body):
            return 1 + term_size(body)
        case App(fun, arg):
            return 1 + term_size(fun) + term_size(arg)
        case If(cond, then, orelse):
            return 1 + term_size(cond) + term_size(then) + term_size(orelse)
        case Oplus(_, left, right):
            return 1 + term_size(left) + term_size(right)
        case _:
            return 1


def substitute(t: Term, name: str, r: Term) -> Term:
    """Capture-avoiding substitution of `r` for the free variable `name`.

    Free variables are names and binders are indices, so no renaming or
    index shifting is ever needed.
    """
    match t:
        case FreeVar(n):
            return r if n == name else t
        case Lam(body, hint):
            return Lam(substitute(body, name, r), hint)
        case App(fun, arg):
            return App(substitute(fun, name, r), substitute(arg, name, r))
        case If(cond, then, orelse):
            return If(substitute(cond, name, r),
                      substitute(then, name, r),
                      substitute(orelse, name, r))
        case Oplus(p, left, right):
            return Oplus(p, substitute(left, name, r), substitute(right, name, r))
        case _:
            return t


def _has_loose(t: Term, depth: int) -> bool:
    """Whether `t` has an index that points past its `depth` innermost binders."""
    match t:
        case Var(k):
            return k >= depth
        case Lam(body):
            return _has_loose(body, depth + 1)
        case App(fun, arg):
            return _has_loose(fun, depth) or _has_loose(arg, depth)
        case If(cond, then, orelse):
            return (_has_loose(cond, depth) or _has_loose(then, depth)
                    or _has_loose(orelse, depth))
        case Oplus(_, left, right):
            return _has_loose(left, depth) or _has_loose(right, depth)
        case _:
            return False


def _shift(t: Term, by: int, cutoff: int = 0) -> Term:
    """Raise by `by` every index of `t` that points past `cutoff` binders."""
    match t:
        case Var(k):
            return Var(k + by, t.hint) if k >= cutoff else t
        case Lam(body, hint):
            return Lam(_shift(body, by, cutoff + 1), hint)
        case App(fun, arg):
            return App(_shift(fun, by, cutoff), _shift(arg, by, cutoff))
        case If(cond, then, orelse):
            return If(_shift(cond, by, cutoff), _shift(then, by, cutoff),
                      _shift(orelse, by, cutoff))
        case Oplus(p, left, right):
            return Oplus(p, _shift(left, by, cutoff), _shift(right, by, cutoff))
        case _:
            return t


def instantiate(body: Term, r: Term) -> Term:
    """Replace the outermost binder's variable in a `Lam` body with `r`.

    A copy of `r` placed under binders of `body` has its loose indices raised
    past them, so they keep pointing outside the redex. A closed `r` is
    placed as it is.
    """
    closed = not _has_loose(r, 0)

    def go(t: Term, depth: int) -> Term:
        match t:
            case Var(k):
                if k == depth:
                    return r if closed else _shift(r, depth)
                if k > depth:
                    return Var(k - 1, t.hint)
                return t
            case Lam(b, hint):
                return Lam(go(b, depth + 1), hint)
            case App(fun, arg):
                return App(go(fun, depth), go(arg, depth))
            case If(cond, then, orelse):
                return If(go(cond, depth), go(then, depth), go(orelse, depth))
            case Oplus(p, left, right):
                return Oplus(p, go(left, depth), go(right, depth))
            case _:
                return t

    return go(body, 0)


def abstract(t: Term, name: str) -> Lam:
    """Bind the free variable `name`, producing `Lam` with `name` as hint."""

    def go(u: Term, depth: int) -> Term:
        match u:
            case FreeVar(n):
                return Var(depth, n) if n == name else u
            case Lam(body, hint):
                return Lam(go(body, depth + 1), hint)
            case App(fun, arg):
                return App(go(fun, depth), go(arg, depth))
            case If(cond, then, orelse):
                return If(go(cond, depth), go(then, depth), go(orelse, depth))
            case Oplus(p, left, right):
                return Oplus(p, go(left, depth), go(right, depth))
            case _:
                return u

    return Lam(go(t, 0), name)


# ---------------------------------------------------------------------------
# Printing

# Precedence levels: lam/if < oplus < application < atom.
_LEVEL_TERM = 0
_LEVEL_OPLUS = 1
_LEVEL_APP = 2
_LEVEL_ATOM = 3


@lru_cache(maxsize=None)
def pretty(t: Term) -> str:
    """Deterministic rendering with canonical binder names x0, x1, ...

    Binder names are assigned by depth, skipping any name that occurs free
    in the whole term, so `parse(pretty(t))` is alpha-equal to `t`. The
    result depends only on the alpha-equivalence class, so it is cached.
    """
    taken = free_vars(t)
    names: list[str] = []
    needed = term_size(t) + 1  # more canonical names than binders
    i = 0
    while len(names) < needed:
        cand = f"x{i}"
        i += 1
        if cand not in taken:
            names.append(cand)

    def render(u: Term, depth: int, level: int) -> str:
        match u:
            case Var(k):
                s = names[depth - 1 - k]
                node = _LEVEL_ATOM
            case FreeVar(name):
                s = name
                node = _LEVEL_ATOM
            case Zero():
                s = "0"
                node = _LEVEL_ATOM
            case One():
                s = "1"
                node = _LEVEL_ATOM
            case Coin():
                s = "coin"
                node = _LEVEL_ATOM
            case Lam(body):
                s = f"\\{names[depth]}. {render(body, depth + 1, _LEVEL_TERM)}"
                node = _LEVEL_TERM
            case App(fun, arg):
                s = f"{render(fun, depth, _LEVEL_APP)} {render(arg, depth, _LEVEL_ATOM)}"
                node = _LEVEL_APP
            case If(cond, then, orelse):
                s = (f"if {render(cond, depth, _LEVEL_TERM)}"
                     f" then {render(then, depth, _LEVEL_TERM)}"
                     f" else {render(orelse, depth, _LEVEL_TERM)}")
                node = _LEVEL_TERM
            case Oplus(p, left, right):
                s = (f"{render(left, depth, _LEVEL_APP)}"
                     f" +[{p}] {render(right, depth, _LEVEL_APP)}")
                node = _LEVEL_OPLUS
            case _:
                raise TypeError(f"not a term: {u!r}")
        return f"({s})" if node < level else s

    return render(t, 0, _LEVEL_TERM)


# ---------------------------------------------------------------------------
# Parsing

_KEYWORDS = frozenset({"if", "then", "else", "coin", "lam"})


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # ident / int / keyword / symbol / eof
    text: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            kind = "keyword" if word in _KEYWORDS else "ident"
            tokens.append(_Token(kind, word, line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c == "+" and text.startswith("+[", i):
            tokens.append(_Token("symbol", "+[", line, start_col))
            i += 2
            col += 2
            continue
        if c in "\\.()]/":
            tokens.append(_Token("symbol", c, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {c!r}", line, start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], variant: CalculusVariant, closed: bool):
        self.tokens = tokens
        self.pos = 0
        self.variant = variant
        self.closed = closed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None, cls=ParseError):
        tok = tok or self.peek()
        raise cls(message, tok.line, tok.column)

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text or tok.kind == "eof":
            self.fail(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok)
        return tok

    def term(self, env: tuple[str, ...]) -> Term:
        tok = self.peek()
        if tok.text == "\\" or tok.text == "lam":
            return self.lam(env)
        return self.oplus_chain(env)

    def lam(self, env: tuple[str, ...]) -> Term:
        self.next()  # "\" or "lam"
        name_tok = self.next()
        if name_tok.kind != "ident":
            self.fail("expected a variable name after lambda", name_tok)
        self.expect(".")
        body = self.term((name_tok.text,) + env)
        return Lam(body, name_tok.text)

    def oplus_chain(self, env: tuple[str, ...]) -> Term:
        left = self.app(env)
        while self.peek().text == "+[":
            tok = self.next()
            if self.variant is not CalculusVariant.INTERNALIZED:
                self.fail("choice terms are only allowed in the internalized calculus",
                          tok, VariantError)
            prob = self.rational()
            self.expect("]")
            nxt = self.peek()
            right = self.lam(env) if nxt.text in ("\\", "lam") else self.app(env)
            try:
                left = Oplus(prob, left, right)
            except ValueError as exc:
                self.fail(str(exc), tok)
        return left

    def rational(self) -> Fraction:
        tok = self.next()
        if tok.kind != "int":
            self.fail("expected a number", tok)
        num = int(tok.text)
        if self.peek().text == "/":
            self.next()
            den_tok = self.next()
            if den_tok.kind != "int" or int(den_tok.text) == 0:
                self.fail("expected a positive denominator", den_tok)
            return Fraction(num, int(den_tok.text))
        return Fraction(num)

    def app(self, env: tuple[str, ...]) -> Term:
        t = self.atom(env)
        if t is None:
            self.fail(f"expected a term, found {self.peek().text or 'end of input'!r}")
        while True:
            arg = self.atom(env)
            if arg is None:
                return t
            t = App(t, arg)

    def atom(self, env: tuple[str, ...]) -> Term | None:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            if tok.text == "0":
                return ZERO
            if tok.text == "1":
                return ONE
            self.fail("the only constants are 0 and 1", tok)
        if tok.kind == "ident":
            self.next()
            if tok.text in env:
                return Var(env.index(tok.text), tok.text)
            if self.closed:
                self.fail(f"unbound variable {tok.text!r}", tok, ScopeError)
            return FreeVar(tok.text)
        if tok.text == "coin":
            self.next()
            return COIN
        if tok.text == "(":
            self.next()
            t = self.term(env)
            self.expect(")")
            return t
        if tok.text == "if":
            self.next()
            cond = self.term(env)
            self.expect("then")
            then = self.term(env)
            self.expect("else")
            orelse = self.term(env)
            return If(cond, then, orelse)
        return None


def parse(text: str, variant: CalculusVariant = CalculusVariant.PLAIN,
          closed: bool = False) -> Term:
    """Parse the concrete syntax into a term.

    Free names become `FreeVar` references unless `closed` is set, in which
    case they raise `ScopeError`. Choice syntax `t +[p] r` is rejected with
    `VariantError` unless `variant` is internalized.
    """
    parser = _Parser(_tokenize(text), variant, closed)
    t = parser.term(())
    tok = parser.peek()
    if tok.kind != "eof":
        parser.fail(f"trailing input starting at {tok.text!r}", tok)
    return t
