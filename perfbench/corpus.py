"""Seeded generator of closed, discipline-typed terms for the corpus workload.

Terms are built top-down against a first-order goal type, as tuple terms in
the format of `oracle`. Under the affine discipline the hypotheses in scope
are split between the premises of every application and conditional; under
the sub-affine discipline the two branches of a conditional share theirs.
The generator returns concrete syntax, so each benchmark operation starts
from text. It is a pure function of its `random.Random`.
"""

from __future__ import annotations

from random import Random

from oracle import free_names

BOOL = "B"
FIRST_ORDER = (BOOL, (BOOL, BOOL), (BOOL, (BOOL, BOOL)))  # B, B->B, B->B->B


def arity(ty) -> int:
    n = 0
    while ty != BOOL:
        n += 1
        ty = ty[1]
    return n


def _min_size(ty) -> int:
    return arity(ty) + 1  # \x1. ... \xn. 0


def type_text(ty) -> str:
    return "->".join(["B"] * (arity(ty) + 1))


def show(t: tuple) -> str:
    """Concrete syntax, fully parenthesized."""
    match t:
        case ("var", name):
            return name
        case ("const", bit):
            return str(bit)
        case ("coin",):
            return "coin"
        case ("lam", name, body):
            return f"(\\{name}. {show(body)})"
        case ("app", fun, arg):
            return f"({show(fun)} {show(arg)})"
        case ("if", cond, then, orelse):
            return f"(if {show(cond)} then {show(then)} else {show(orelse)})"
    raise ValueError(f"not a term: {t!r}")


def _split(rng: Random, scope: list, parts: int) -> list[list]:
    out: list[list] = [[] for _ in range(parts)]
    for hyp in scope:
        out[rng.randrange(parts)].append(hyp)
    return out


class _Generator:
    def __init__(self, rng: Random, affine: bool):
        self.rng = rng
        self.affine = affine
        self.names = 0

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def term(self, goal, scope: list, budget: int) -> tuple:
        """A term of type `goal` with at most `budget` nodes."""
        rng = self.rng
        options = [("var", name) for name, ty in scope if ty == goal] * 2
        if goal == BOOL:
            options += [("const", 0), ("const", 1), ("coin",), ("coin",)]
        elif budget >= 1 + _min_size(goal[1]):
            options += [("lam",)] * 3
        if budget >= 3 + _min_size(goal):
            options += [("app",)] * 2
        if budget >= 3 + 2 * _min_size(goal):
            options += [("if",)] * 2
        choice = rng.choice(options)
        if choice[0] in ("var", "const", "coin"):
            return choice
        if choice[0] == "lam":
            name = self.fresh()
            body = self.term(goal[1], scope + [(name, goal[0])], budget - 1)
            return ("lam", name, body)
        if choice[0] == "app":
            arg_ty = BOOL
            if budget >= 4 + _min_size(goal) and rng.random() < 0.5:
                arg_ty = (BOOL, BOOL)
            fun_ty = (arg_ty, goal)
            slack = budget - 1 - _min_size(fun_ty) - _min_size(arg_ty)
            fun_budget = _min_size(fun_ty) + rng.randint(0, slack)
            fun_scope, arg_scope = _split(rng, scope, 2)
            fun = self.term(fun_ty, fun_scope, fun_budget)
            return ("app", fun, self.term(arg_ty, arg_scope, budget - 1 - fun_budget))
        branch = _min_size(goal)
        slack = budget - 2 - 2 * branch
        cond_budget = 1 + rng.randint(0, slack)
        then_budget = branch + rng.randint(0, slack - (cond_budget - 1))
        else_budget = budget - 1 - cond_budget - then_budget
        if self.affine:
            cond_scope, then_scope, else_scope = _split(rng, scope, 3)
        else:
            cond_scope, shared = _split(rng, scope, 2)
            then_scope = else_scope = shared
        return ("if", self.term(BOOL, cond_scope, cond_budget),
                self.term(goal, then_scope, then_budget),
                self.term(goal, else_scope, else_budget))


# ---------------------------------------------------------------------------
# Terms left out of the corpus
#
# lambcoin's `instantiate` substitutes the argument of a beta redex without
# shifting its de Bruijn indices, so `(\v1. (\v2. \v3. v2) v1) (\v4. 0)`
# explores to a wrong endpoint `\x0. x0` (see CHANGES.md). The fault needs
# a redex argument that mentions an enclosing binder and a function whose
# parameter occurs under a further binder. Correct steps create neither
# kind of node where none exists, so a term lacking either one never meets
# the fault. Terms with both are redrawn; about 0.4% of draws are.

def _loose_argument(t: tuple, bound: frozenset = frozenset()) -> bool:
    match t:
        case ("lam", name, body):
            return _loose_argument(body, bound | {name})
        case ("app", fun, arg):
            return (bool(free_names(arg) & bound) or _loose_argument(fun, bound)
                    or _loose_argument(arg, bound))
        case ("if", *parts):
            return any(_loose_argument(u, bound) for u in parts)
    return False


def _used_under_binder(t: tuple, name: str, inner: bool = False) -> bool:
    match t:
        case ("var", n):
            return inner and n == name
        case ("lam", n, body):
            return n != name and _used_under_binder(body, name, True)
        case ("app", *parts) | ("if", *parts):
            return any(_used_under_binder(u, name, inner) for u in parts)
    return False


def _nested_use(t: tuple, root: bool = True) -> bool:
    """Some lambda off the root spine uses its variable under another binder."""
    match t:
        case ("lam", name, body):
            return ((not root and _used_under_binder(body, name))
                    or _nested_use(body, root))
        case ("app", *parts) | ("if", *parts):
            return any(_nested_use(u, False) for u in parts)
    return False


def meets_shift_fault(t: tuple) -> bool:
    return _loose_argument(t) and _nested_use(t)


def _coins(t: tuple) -> int:
    if t[0] == "coin":
        return 1
    return sum(_coins(u) for u in t[1:] if isinstance(u, tuple))


def generate(rng: Random, count: int, max_size: int, max_coins: int) -> list[tuple[str, str, object]]:
    """`count` items (discipline, term text, goal type), alternating affine
    and sub-affine, with sizes drawn uniformly from 3 to `max_size`."""
    items = []
    while len(items) < count:
        affine = len(items) % 2 == 0
        goal = FIRST_ORDER[len(items) // 2 % 3]
        size = rng.randint(max(3, _min_size(goal)), max_size)
        term = _Generator(rng, affine).term(goal, [], size)
        if not meets_shift_fault(term) and _coins(term) <= max_coins:
            items.append(("affine" if affine else "subaffine", show(term), goal))
    return items
