"""Type checking under the simple, affine, and sub-affine disciplines.

The calculus is Curry-style, so `typecheck` verifies a term against an
optional caller-supplied goal type while `infer_simple` computes principal
simple types by first-order unification. Affinity is checked structurally:
variable usage is tracked per subterm and two sibling premises may not
consume the same hypothesis (the sub-affine discipline exempts the two
branches of a conditional, which may share).
"""

from __future__ import annotations

from enum import Enum

from .syntax import (
    App, Arrow, BOOL, Bool, Coin, FreeVar, If, Lam, One, Oplus, Term, Type,
    Var, Zero, format_type,
)

Path = tuple[str, ...]

TypingContext = dict[str, Type]


class Discipline(Enum):
    SIMPLE = "simple"
    AFFINE = "affine"
    SUBAFFINE = "subaffine"


class TypingError(Exception):
    """Base for all type errors; carries rule label, subterm path, and types."""

    def __init__(self, message: str, rule: str | None = None,
                 path: Path = (), expected: str | None = None,
                 actual: str | None = None):
        self.reason = message
        self.rule = rule
        self.path = path
        self.expected = expected
        self.actual = actual
        super().__init__(self.describe(self.record()))

    @staticmethod
    def describe(record: dict) -> str:
        """The one-line message of an error, from its `record()`."""
        detail = (f" (expected {record['expected']}, got {record['actual']})"
                  if record["expected"] else "")
        rule_tag = f" [{record['rule']}]" if record["rule"] else ""
        return f"{record['message']}{detail} at {record['path']}{rule_tag}"

    def record(self) -> dict:
        """Structured rendering of the error."""
        return {
            "error": type(self).__name__,
            "message": self.reason,
            "rule": self.rule,
            "path": ".".join(self.path) if self.path else "root",
            "expected": self.expected,
            "actual": self.actual,
        }


class UnboundVariable(TypingError):
    pass


class UnificationFailure(TypingError):
    pass


class OccursCheck(UnificationFailure):
    pass


class TypeMismatch(UnificationFailure):
    pass


class NonBoolCondition(UnificationFailure):
    pass


class NonFunctionApplied(UnificationFailure):
    pass


class AffinityViolation(TypingError):
    pass


# ---------------------------------------------------------------------------
# Unification

class TVar:
    """A mutable unification variable; may occur inside Arrow nodes."""

    __slots__ = ("binding", "id")
    _counter = 0

    def __init__(self) -> None:
        self.binding: Type | TVar | None = None
        TVar._counter += 1
        self.id = TVar._counter

    def __repr__(self) -> str:
        return f"TVar({self.id})"


InferredType = Type  # may additionally contain TVar nodes


def _resolve(ty):
    while isinstance(ty, TVar) and ty.binding is not None:
        ty = ty.binding
    return ty


def zonk(ty):
    """Chase bindings recursively; the result contains only unbound TVars."""
    ty = _resolve(ty)
    if isinstance(ty, Arrow):
        return Arrow(zonk(ty.arg), zonk(ty.result))
    return ty


def ground(ty) -> Type:
    """Instantiate every residual type variable at Bool."""
    ty = _resolve(ty)
    if isinstance(ty, TVar):
        return BOOL
    if isinstance(ty, Arrow):
        return Arrow(ground(ty.arg), ground(ty.result))
    return ty


def format_inferred(ty) -> str:
    """Like format_type but renders unification variables as 'a, 'b, ..."""
    names: dict[int, str] = {}

    def name_of(v: TVar) -> str:
        if v.id not in names:
            names[v.id] = "'" + chr(ord("a") + len(names))
        return names[v.id]

    def go(t, nested: bool) -> str:
        t = _resolve(t)
        if isinstance(t, TVar):
            return name_of(t)
        if isinstance(t, Arrow):
            s = f"{go(t.arg, True)} -> {go(t.result, False)}"
            return f"({s})" if nested else s
        return "B"

    return go(ty, False)


def _occurs(v: TVar, ty) -> bool:
    ty = _resolve(ty)
    if ty is v:
        return True
    if isinstance(ty, Arrow):
        return _occurs(v, ty.arg) or _occurs(v, ty.result)
    return False


def unify(a, b, path: Path = (), rule: str | None = None) -> None:
    a, b = _resolve(a), _resolve(b)
    if a is b:
        return
    if isinstance(a, TVar):
        if _occurs(a, b):
            raise OccursCheck("infinite type (occurs check)", rule, path,
                              actual=format_inferred(b))
        a.binding = b
        return
    if isinstance(b, TVar):
        unify(b, a, path, rule)
        return
    if isinstance(a, Bool) and isinstance(b, Bool):
        return
    if isinstance(a, Arrow) and isinstance(b, Arrow):
        unify(a.arg, b.arg, path, rule)
        unify(a.result, b.result, path, rule)
        return
    raise UnificationFailure("type constructors do not match", rule, path,
                             expected=format_inferred(a),
                             actual=format_inferred(b))


# ---------------------------------------------------------------------------
# Inference

def _infer(t: Term, ctx: TypingContext, bound: list, path: Path):
    match t:
        case Var(k):
            return bound[len(bound) - 1 - k]
        case FreeVar(name):
            if name not in ctx:
                raise UnboundVariable(f"unbound variable {name!r}", "ax", path)
            return ctx[name]
        case Zero():
            return BOOL
        case One():
            return BOOL
        case Coin():
            return BOOL
        case Lam(body):
            arg = TVar()
            bound.append(arg)
            result = _infer(body, ctx, bound, path + ("body",))
            bound.pop()
            return Arrow(arg, result)
        case App(fun, arg):
            fun_ty = _resolve(_infer(fun, ctx, bound, path + ("fun",)))
            arg_ty = _infer(arg, ctx, bound, path + ("arg",))
            if isinstance(fun_ty, Bool):
                raise NonFunctionApplied("a boolean cannot be applied", "->e",
                                         path, expected="a function type",
                                         actual="B")
            if isinstance(fun_ty, Arrow):
                try:
                    unify(fun_ty.arg, arg_ty, path + ("arg",), "->e")
                except UnificationFailure as exc:
                    raise TypeMismatch("argument type does not match", "->e",
                                       path + ("arg",),
                                       expected=format_inferred(fun_ty.arg),
                                       actual=format_inferred(arg_ty)) from exc
                return fun_ty.result
            result = TVar()
            unify(fun_ty, Arrow(arg_ty, result), path, "->e")
            return result
        case If(cond, then, orelse):
            cond_ty = _infer(cond, ctx, bound, path + ("cond",))
            try:
                unify(cond_ty, BOOL, path + ("cond",), "if")
            except UnificationFailure as exc:
                raise NonBoolCondition("condition is not a boolean", "if",
                                       path + ("cond",), expected="B",
                                       actual=format_inferred(cond_ty)) from exc
            then_ty = _infer(then, ctx, bound, path + ("then",))
            else_ty = _infer(orelse, ctx, bound, path + ("else",))
            try:
                unify(then_ty, else_ty, path, "if")
            except UnificationFailure as exc:
                raise TypeMismatch("branches have different types", "if", path,
                                   expected=format_inferred(then_ty),
                                   actual=format_inferred(else_ty)) from exc
            return then_ty
        case Oplus(_, left, right):
            left_ty = _infer(left, ctx, bound, path + ("oplus-left",))
            right_ty = _infer(right, ctx, bound, path + ("oplus-right",))
            try:
                unify(left_ty, right_ty, path, "oplus")
            except UnificationFailure as exc:
                raise TypeMismatch("choice alternatives have different types",
                                   "oplus", path,
                                   expected=format_inferred(left_ty),
                                   actual=format_inferred(right_ty)) from exc
            return left_ty
    raise TypeError(f"not a term: {t!r}")


def infer_simple(ctx: TypingContext, t: Term):
    """Principal simple type of `t` (may contain unification variables)."""
    return zonk(_infer(t, ctx, [], ()))


# ---------------------------------------------------------------------------
# Affinity

def _display_name(key, hints: list) -> str:
    if isinstance(key, str):
        return key
    hint = hints[key]
    return hint if hint is not None else f"x{key}"


def _usage(t: Term, discipline: Discipline, hints: list, path: Path) -> set:
    """Set of hypotheses consumed by `t`; bound vars keyed by binder depth."""

    def clash(used: set, node_rule: str) -> None:
        name = min(_display_name(k, hints) for k in used)
        raise AffinityViolation(
            f"variable {name!r} is used in two disjoint premises",
            node_rule, path)

    match t:
        case Var(k):
            return {len(hints) - 1 - k}
        case FreeVar(name):
            return {name}
        case Lam(body, hint):
            hints.append(hint)
            used = _usage(body, discipline, hints, path + ("body",))
            used.discard(len(hints) - 1)
            hints.pop()
            return used
        case App(fun, arg):
            fun_used = _usage(fun, discipline, hints, path + ("fun",))
            arg_used = _usage(arg, discipline, hints, path + ("arg",))
            if fun_used & arg_used:
                clash(fun_used & arg_used, "->e")
            return fun_used | arg_used
        case If(cond, then, orelse):
            cond_used = _usage(cond, discipline, hints, path + ("cond",))
            then_used = _usage(then, discipline, hints, path + ("then",))
            else_used = _usage(orelse, discipline, hints, path + ("else",))
            if discipline is Discipline.AFFINE:
                for a, b in ((cond_used, then_used), (cond_used, else_used),
                             (then_used, else_used)):
                    if a & b:
                        clash(a & b, "if")
            else:  # sub-affine: branches share, condition stays disjoint
                if cond_used & (then_used | else_used):
                    clash(cond_used & (then_used | else_used), "if_s")
            return cond_used | then_used | else_used
        case Oplus(_, left, right):
            # Choice alternatives share their context, like if_s branches.
            return (_usage(left, discipline, hints, path + ("oplus-left",))
                    | _usage(right, discipline, hints, path + ("oplus-right",)))
        case _:
            return set()


def check_affinity(t: Term, discipline: Discipline) -> None:
    """Raise AffinityViolation if `t` breaks the discipline's usage rules."""
    if discipline is not Discipline.SIMPLE:
        _usage(t, discipline, [], ())


# ---------------------------------------------------------------------------
# Entry point

def typecheck(ctx: TypingContext, t: Term,
              discipline: Discipline = Discipline.SIMPLE,
              goal: Type | None = None) -> Type:
    """Type of `t` in `ctx` under `discipline`, or a TypingError.

    With a `goal` the term is checked against it; without one the principal
    simple type is inferred and residual type variables are instantiated at
    Bool. Affine and sub-affine checking adds the structural usage analysis
    on top of the simple derivation.
    """
    principal = _infer(t, ctx, [], ())
    if goal is not None:
        try:
            unify(principal, goal)
        except UnificationFailure as exc:
            raise TypeMismatch("term does not have the requested type",
                               None, (), expected=format_type(goal),
                               actual=format_inferred(zonk(principal))) from exc
    check_affinity(t, discipline)
    return goal if goal is not None else ground(principal)
