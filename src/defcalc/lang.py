"""Abstract syntax, value domain, and static checks for the default calculus.

The language is a small, loop-free functional calculus whose distinguishing
construct is the default term ``<e1, ..., en | just :- cons>``: a base
consequence guarded by a boolean justification, overridable by exception
expressions.  Evaluation of a default can produce two special outcomes, the
empty value (no applicable rule) and the conflict value (two exceptions fired
at once); conflict doubles as the runtime-error value.

Programs are collections of enum/struct declarations, first-order
non-recursive functions, and scopes.  A scope is the testing entry point: it
declares typed inputs, assertions restricting the input space, a sequence of
bindings, and outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union


# ---------------------------------------------------------------------------
# Source positions


@dataclass(frozen=True)
class Span:
    start: int
    end: int

    def merge(self, other: "Span | None") -> "Span":
        if other is None:
            return self
        return Span(min(self.start, other.start), max(self.end, other.end))


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Optional[Span] = None

    def render(self, unit=None) -> str:
        if unit is not None and self.span is not None:
            line, col = unit.line_col(self.span.start)
            return f"{unit.path}:{line}:{col}: {self.message}"
        return self.message


# ---------------------------------------------------------------------------
# Semantic types


@dataclass(frozen=True)
class BoolT:
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntT:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class RatT:
    def __str__(self) -> str:
        return "rate"


@dataclass(frozen=True)
class MoneyT:
    def __str__(self) -> str:
        return "money"


@dataclass(frozen=True)
class EnumT:
    """An algebraic sum type.  Variants may carry one payload type."""

    name: str
    variants: tuple  # tuple[(variant name, SemType | None), ...]

    def __post_init__(self):
        if not self.variants:
            raise ValueError(f"enum {self.name} has no variants")
        names = [v for v, _ in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"enum {self.name} has duplicate variants")

    def variant_names(self) -> tuple:
        return tuple(v for v, _ in self.variants)

    def payload_of(self, variant: str):
        for v, ty in self.variants:
            if v == variant:
                return ty
        raise KeyError(variant)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class StructT:
    name: str
    fields: tuple  # tuple[(field name, SemType), ...]

    def __post_init__(self):
        names = [f for f, _ in self.fields]
        if len(set(names)) != len(names):
            raise ValueError(f"struct {self.name} has duplicate fields")

    def field_type(self, name: str):
        for f, ty in self.fields:
            if f == name:
                return ty
        raise KeyError(name)

    def __str__(self) -> str:
        return self.name


SemType = Union[BoolT, IntT, RatT, MoneyT, EnumT, StructT]

BOOL = BoolT()
INT = IntT()
RAT = RatT()
MONEY = MoneyT()


# ---------------------------------------------------------------------------
# Values

# Empty and Conflict are outcome-level values: they never appear inside a
# composite value.  The interpreter propagates them outward strictly.


@dataclass(frozen=True)
class VBool:
    b: bool


@dataclass(frozen=True)
class VInt:
    i: int


@dataclass(frozen=True)
class VRat:
    q: Fraction


@dataclass(frozen=True)
class VMoney:
    cents: int


@dataclass(frozen=True)
class VEnum:
    enum: str
    variant: str
    payload: Optional["Value"] = None


@dataclass(frozen=True)
class VStruct:
    struct: str
    fields: tuple  # tuple[(name, Value), ...] in declaration order

    def field(self, name: str) -> "Value":
        for f, v in self.fields:
            if f == name:
                return v
        raise KeyError(name)


@dataclass(frozen=True)
class VEmpty:
    pass


@dataclass(frozen=True)
class VConflict:
    # Spans of the first two non-empty exceptions (or the failing site);
    # excluded from equality so conflicts compare as a single outcome class.
    spans: tuple = field(default=(), compare=False)


Value = Union[VBool, VInt, VRat, VMoney, VEnum, VStruct, VEmpty, VConflict]

EMPTY = VEmpty()
CONFLICT = VConflict()


def is_error(v: Value) -> bool:
    return isinstance(v, (VEmpty, VConflict))


def rat(num: int, den: int = 1) -> VRat:
    return VRat(Fraction(num, den))


def money(dollars: int, cents: int = 0) -> VMoney:
    sign = -1 if dollars < 0 or cents < 0 else 1
    return VMoney(sign * (abs(dollars) * 100 + abs(cents)))


# ---------------------------------------------------------------------------
# Expressions


@dataclass(frozen=True)
class Var:
    name: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Lit:
    value: Value
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / = < <= > >= && ||
    lhs: "Expr"
    rhs: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Not:
    arg: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class If:
    cond: "Expr"
    then: "Expr"
    els: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class MatchArm:
    # variants is None for a wildcard arm; a folded arm carries several
    # variant names and may not bind a payload.
    variants: Optional[tuple]
    binder: Optional[str]
    body: "Expr"


@dataclass(frozen=True)
class Match:
    scrutinee: "Expr"
    arms: tuple  # tuple[MatchArm, ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class StructMake:
    struct: str
    fields: tuple  # tuple[(name, Expr), ...]
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class FieldGet:
    arg: "Expr"
    field_name: str
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EnumMake:
    enum: str
    variant: str
    payload: Optional["Expr"] = None
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Let:
    name: str
    bound: "Expr"
    body: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Default:
    exceptions: tuple
    just: "Expr"
    cons: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Assert:
    cond: "Expr"
    body: "Expr"
    span: Optional[Span] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Opaque:
    """A construct with concrete-only semantics, delegated to a registered
    handler.  The concolic evaluator never builds a symbolic form for it."""

    tag: str
    ty: SemType
    args: tuple
    span: Optional[Span] = field(default=None, compare=False, repr=False)


Expr = Union[
    Var, Lit, BinOp, Not, If, Match, StructMake, FieldGet, EnumMake, Let,
    Call, Default, Assert, Opaque,
]


# ---------------------------------------------------------------------------
# Programs


@dataclass(frozen=True)
class Binding:
    name: str
    ty: SemType
    expr: Expr


@dataclass(frozen=True)
class Scope:
    name: str
    inputs: tuple  # tuple[(name, SemType), ...]
    assertions: tuple  # tuple[Expr, ...]
    bindings: tuple  # tuple[Binding, ...]
    outputs: tuple  # tuple[str, ...]


@dataclass(frozen=True)
class Function:
    name: str
    params: tuple  # tuple[(name, SemType), ...]
    ret: SemType
    body: Expr


@dataclass(frozen=True)
class Program:
    enums: tuple = ()
    structs: tuple = ()
    functions: tuple = ()
    scopes: tuple = ()
    _diags = None  # `validate`'s errors, kept on first use

    def enum(self, name: str) -> EnumT:
        for e in self.enums:
            if e.name == name:
                return e
        raise KeyError(f"no enum {name}")

    def struct(self, name: str) -> StructT:
        for s in self.structs:
            if s.name == name:
                return s
        raise KeyError(f"no struct {name}")

    def function(self, name: str) -> Function:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(f"no function {name}")

    def scope(self, name: str) -> Scope:
        for s in self.scopes:
            if s.name == name:
                return s
        raise KeyError(f"no scope {name}")


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield expr and all sub-expressions, pre-order."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def children(expr: Expr) -> tuple:
    match expr:
        case Var() | Lit():
            return ()
        case BinOp(_, lhs, rhs):
            return (lhs, rhs)
        case Not(arg):
            return (arg,)
        case If(c, t, e):
            return (c, t, e)
        case Match(scrut, arms):
            return (scrut,) + tuple(a.body for a in arms)
        case StructMake(_, fields):
            return tuple(e for _, e in fields)
        case FieldGet(arg, _):
            return (arg,)
        case EnumMake(_, _, payload):
            return (payload,) if payload is not None else ()
        case Let(_, bound, body):
            return (bound, body)
        case Call(_, args):
            return tuple(args)
        case Default(excs, just, cons):
            return tuple(excs) + (just, cons)
        case Assert(cond, body):
            return (cond, body)
        case Opaque(_, _, args):
            return tuple(args)
    raise TypeError(f"not an expression: {expr!r}")


def rebuild(e: Expr, new_children) -> Expr:
    """A copy of e with its sub-expressions replaced, in `children` order."""
    it = iter(new_children)
    match e:
        case Var() | Lit():
            return e
        case BinOp(op, _, _):
            return BinOp(op, next(it), next(it), span=e.span)
        case Not(_):
            return Not(next(it), span=e.span)
        case If(_, _, _):
            return If(next(it), next(it), next(it), span=e.span)
        case Match(_, arms):
            scrut = next(it)
            new_arms = tuple(MatchArm(a.variants, a.binder, next(it)) for a in arms)
            return Match(scrut, new_arms, span=e.span)
        case StructMake(name, fields):
            return StructMake(name, tuple((f, next(it)) for f, _ in fields), span=e.span)
        case FieldGet(_, f):
            return FieldGet(next(it), f, span=e.span)
        case EnumMake(n, v, payload):
            return EnumMake(n, v, next(it) if payload is not None else None, span=e.span)
        case Let(n, _, _):
            return Let(n, next(it), next(it), span=e.span)
        case Call(f, args):
            return Call(f, tuple(next(it) for _ in args), span=e.span)
        case Default(excs, _, _):
            new_excs = tuple(next(it) for _ in excs)
            return Default(new_excs, next(it), next(it), span=e.span)
        case Assert(_, _):
            return Assert(next(it), next(it), span=e.span)
        case Opaque(tag, ty, args):
            return Opaque(tag, ty, tuple(next(it) for _ in args), span=e.span)
    raise TypeError(f"not an expression: {e!r}")


def map_bottom_up(expr: Expr, f) -> Expr:
    """Apply f to every node, children first.  A node is rebuilt only when
    some child came back as a different object; nodes are frozen, so the
    original stands in for an unchanged copy."""
    old = children(expr)
    new = [map_bottom_up(c, f) for c in old]
    if any(n is not o for n, o in zip(new, old)):
        expr = rebuild(expr, new)
    return f(expr)


# ---------------------------------------------------------------------------
# Static validation


class _Checker:
    def __init__(self, program: Program):
        self.program = program
        self.diags: list = []
        self.enums = {e.name: e for e in program.enums}
        self.structs = {s.name: s for s in program.structs}
        self.functions = {f.name: f for f in program.functions}
        self.variant_owner = {}
        for e in program.enums:
            for v, _ in e.variants:
                self.variant_owner.setdefault(v, e.name)

    def error(self, message: str, span: Optional[Span] = None):
        self.diags.append(Diagnostic(message, span))

    # -- expression typing ------------------------------------------------

    def infer(self, expr: Expr, env: dict) -> Optional[SemType]:
        match expr:
            case Var(name):
                if name not in env:
                    self.error(f"unbound variable {name}", expr.span)
                    return None
                return env[name]
            case Lit(value):
                return self.type_of_value(value, expr.span)
            case BinOp(op, lhs, rhs):
                lt = self.infer(lhs, env)
                rt = self.infer(rhs, env)
                if lt is None or rt is None:
                    return None
                res = binop_result(op, lt, rt)
                if res is None:
                    self.error(f"operator {op} not defined on {lt} and {rt}", expr.span)
                return res
            case Not(arg):
                t = self.infer(arg, env)
                if t is not None and t != BOOL:
                    self.error(f"not applied to {t}", expr.span)
                return BOOL
            case If(c, t, e):
                ct = self.infer(c, env)
                if ct is not None and ct != BOOL:
                    self.error(f"if condition has type {ct}, expected bool", expr.span)
                tt = self.infer(t, env)
                et = self.infer(e, env)
                if tt is not None and et is not None and tt != et:
                    self.error(f"if branches disagree: {tt} vs {et}", expr.span)
                return tt or et
            case Match():
                return self.infer_match(expr, env)
            case StructMake(name, fields):
                if name not in self.structs:
                    self.error(f"no struct {name}", expr.span)
                    return None
                st = self.structs[name]
                given = [f for f, _ in fields]
                expected = [f for f, _ in st.fields]
                if given != expected:
                    self.error(
                        f"struct {name} expects fields {expected}, got {given}",
                        expr.span,
                    )
                for f, e in fields:
                    ft = self.infer(e, env)
                    try:
                        want = st.field_type(f)
                    except KeyError:
                        continue
                    if ft is not None and ft != want:
                        self.error(f"field {f} of {name} has type {want}, got {ft}", expr.span)
                return st
            case FieldGet(arg, fname):
                at = self.infer(arg, env)
                if at is None:
                    return None
                if not isinstance(at, StructT):
                    self.error(f"field access on non-struct type {at}", expr.span)
                    return None
                try:
                    return at.field_type(fname)
                except KeyError:
                    self.error(f"struct {at.name} has no field {fname}", expr.span)
                    return None
            case EnumMake(ename, variant, payload):
                if ename not in self.enums:
                    self.error(f"no enum {ename}", expr.span)
                    return None
                et = self.enums[ename]
                if variant not in et.variant_names():
                    self.error(f"enum {ename} has no variant {variant}", expr.span)
                    return et
                pty = et.payload_of(variant)
                if pty is None and payload is not None:
                    self.error(f"variant {variant} carries no payload", expr.span)
                if pty is not None:
                    if payload is None:
                        self.error(f"variant {variant} requires a payload", expr.span)
                    else:
                        got = self.infer(payload, env)
                        if got is not None and got != pty:
                            self.error(f"payload of {variant} has type {pty}, got {got}", expr.span)
                return et
            case Let(name, bound, body):
                bt = self.infer(bound, env)
                if bt is None:
                    return None
                return self.infer(body, {**env, name: bt})
            case Call(fname, args):
                if fname not in self.functions:
                    self.error(f"no function {fname}", expr.span)
                    return None
                fn = self.functions[fname]
                if len(args) != len(fn.params):
                    self.error(
                        f"{fname} expects {len(fn.params)} arguments, got {len(args)}",
                        expr.span,
                    )
                for a, (pname, pty) in zip(args, fn.params):
                    at = self.infer(a, env)
                    if at is not None and at != pty:
                        self.error(f"argument {pname} of {fname} has type {pty}, got {at}", expr.span)
                return fn.ret
            case Default(excs, just, cons):
                jt = self.infer(just, env)
                if jt is not None and jt != BOOL:
                    self.error(f"default justification has type {jt}, expected bool", expr.span)
                ct = self.infer(cons, env)
                for e in excs:
                    et = self.infer(e, env)
                    if et is not None and ct is not None and et != ct:
                        self.error(
                            f"exception type {et} differs from consequence type {ct}",
                            expr.span,
                        )
                return ct
            case Assert(cond, body):
                ct = self.infer(cond, env)
                if ct is not None and ct != BOOL:
                    self.error(f"assert condition has type {ct}, expected bool", expr.span)
                return self.infer(body, env)
            case Opaque(_, ty, args):
                for a in args:
                    self.infer(a, env)
                return ty
        self.error(f"unknown expression {expr!r}", getattr(expr, "span", None))
        return None

    def infer_match(self, expr: Match, env: dict) -> Optional[SemType]:
        st = self.infer(expr.scrutinee, env)
        if st is not None and not isinstance(st, EnumT):
            self.error(f"match on non-enum type {st}", expr.span)
            st = None
        covered: set = set()
        body_ty = None
        saw_wildcard = False
        for arm in expr.arms:
            arm_env = dict(env)
            if arm.variants is None:
                if saw_wildcard:
                    self.error("duplicate wildcard arm", expr.span)
                saw_wildcard = True
                if arm.binder is not None:
                    self.error("wildcard arm may not bind a payload", expr.span)
            else:
                if saw_wildcard:
                    self.error("arm after wildcard is unreachable", expr.span)
                if arm.binder is not None and len(arm.variants) != 1:
                    self.error("folded arm may not bind a payload", expr.span)
                for v in arm.variants:
                    if st is not None and v not in st.variant_names():
                        self.error(f"enum {st.name} has no variant {v}", expr.span)
                    if v in covered:
                        self.error(f"variant {v} matched twice", expr.span)
                    covered.add(v)
                if arm.binder is not None and st is not None:
                    pty = None
                    if arm.variants[0] in st.variant_names():
                        pty = st.payload_of(arm.variants[0])
                    if pty is None:
                        self.error(f"variant {arm.variants[0]} carries no payload", expr.span)
                    else:
                        arm_env[arm.binder] = pty
            bt = self.infer(arm.body, arm_env)
            if bt is not None:
                if body_ty is None:
                    body_ty = bt
                elif bt != body_ty:
                    self.error(f"match arms disagree: {body_ty} vs {bt}", expr.span)
        if st is not None and not saw_wildcard:
            missing = [v for v in st.variant_names() if v not in covered]
            if missing:
                self.error(f"match does not cover variants {missing}", expr.span)
        return body_ty

    def type_of_value(self, v: Value, span=None) -> Optional[SemType]:
        match v:
            case VBool():
                return BOOL
            case VInt():
                return INT
            case VRat():
                return RAT
            case VMoney():
                return MONEY
            case VEnum(ename, variant, payload):
                if ename not in self.enums:
                    self.error(f"no enum {ename}", span)
                    return None
                et = self.enums[ename]
                if variant not in et.variant_names():
                    self.error(f"enum {ename} has no variant {variant}", span)
                    return et
                want = et.payload_of(variant)
                got = None if payload is None else self.type_of_value(payload, span)
                if got != want:
                    self.error(f"variant {ename}::{variant} carries "
                               f"{want or 'no payload'}, got {got or 'none'}", span)
                return et
            case VStruct(sname, _):
                if sname not in self.structs:
                    self.error(f"no struct {sname}", span)
                    return None
                return self.structs[sname]
            case VEmpty():
                # Internal marker produced by the frontend simplifier; it
                # behaves as an abstaining exception of any type.
                return None
            case VConflict():
                self.error("conflict literal not allowed in source", span)
                return None
        self.error(f"unknown value {v!r}", span)
        return None


def binop_result(op: str, lt: SemType, rt: SemType) -> Optional[SemType]:
    if op in ("&&", "||"):
        return BOOL if lt == BOOL and rt == BOOL else None
    if op == "=":
        return BOOL if lt == rt else None
    if op in ("<", "<=", ">", ">="):
        if lt == rt and lt in (INT, RAT, MONEY):
            return BOOL
        return None
    if op in ("+", "-"):
        if lt == rt and lt in (INT, RAT, MONEY):
            return lt
        return None
    if op == "*":
        if lt == rt and lt in (INT, RAT):
            return lt
        if (lt, rt) in ((MONEY, RAT), (RAT, MONEY)):
            return MONEY
        return None
    if op == "/":
        if lt == rt == INT:
            return RAT
        if lt == rt == RAT:
            return RAT
        if lt == rt == MONEY:
            return RAT
        if (lt, rt) == (MONEY, RAT):
            return MONEY
        return None
    return None


def validate(program: Program) -> list:
    """Check a program; returns a fresh list of its static errors (empty
    when well-formed).  Pure, and a `Program` is frozen all the way down,
    so the errors are found once and kept on the program, as symbolic
    nodes keep their hash."""
    if program._diags is None:
        object.__setattr__(program, "_diags", tuple(_check(program)))
    return list(program._diags)


def _check(program: Program) -> list:
    ck = _Checker(program)

    for table, kind in ((ck.enums, "enum"), (ck.structs, "struct"),
                        (ck.functions, "function")):
        names = [d.name for d in getattr(program, kind + "s")]
        if len(set(names)) != len(names):
            ck.error(f"duplicate {kind} declarations")

    scope_names = [s.name for s in program.scopes]
    if len(set(scope_names)) != len(scope_names):
        ck.error("duplicate scope declarations")

    # Function call graph must be acyclic; calls may only mention functions.
    order = {f.name: i for i, f in enumerate(program.functions)}
    for f in program.functions:
        env = dict(f.params)
        bt = ck.infer(f.body, env)
        if bt is not None and bt != f.ret:
            ck.error(f"function {f.name} declares {f.ret} but body has {bt}")
        for e in walk(f.body):
            if isinstance(e, Call):
                if e.func == f.name:
                    ck.error(f"function {f.name} calls itself (recursion is not allowed)", e.span)
                elif e.func in order and order[e.func] > order[f.name]:
                    ck.error(
                        f"function {f.name} calls {e.func} declared later "
                        "(call graph must be acyclic)",
                        e.span,
                    )

    for sc in program.scopes:
        if sc.name in ck.functions:
            ck.error(f"scope {sc.name} shares its name with a function")
        input_names = [n for n, _ in sc.inputs]
        if len(set(input_names)) != len(input_names):
            ck.error(f"scope {sc.name} has duplicate inputs")
        env = dict(sc.inputs)
        for a in sc.assertions:
            at = ck.infer(a, env)
            if at is not None and at != BOOL:
                ck.error(f"assertion in {sc.name} has type {at}, expected bool")
            extra = _plain_free_vars(a) - set(input_names)
            if extra:
                ck.error(
                    f"assertion in {sc.name} references non-input names {sorted(extra)}"
                )
        seen = set(input_names)
        for b in sc.bindings:
            if b.name in seen:
                ck.error(f"binding {b.name} in {sc.name} shadows an earlier name")
            bt = ck.infer(b.expr, env)
            if bt is not None and bt != b.ty:
                ck.error(f"binding {b.name} declares {b.ty} but expression has {bt}")
            env[b.name] = b.ty
            seen.add(b.name)
        for out in sc.outputs:
            if out not in env:
                ck.error(f"output {out} of {sc.name} is not defined")

    return ck.diags


def _plain_free_vars(expr: Expr, bound: frozenset = frozenset()) -> set:
    """Syntactically free variable names of an expression (no binding
    expansion; let and match binders respected)."""
    match expr:
        case Var(name):
            return set() if name in bound else {name}
        case Let(name, b, body):
            return _plain_free_vars(b, bound) | _plain_free_vars(body, bound | {name})
        case Match(scrut, arms):
            out = _plain_free_vars(scrut, bound)
            for arm in arms:
                b2 = bound | {arm.binder} if arm.binder else bound
                out |= _plain_free_vars(arm.body, b2)
            return out
        case _:
            out = set()
            for c in children(expr):
                out |= _plain_free_vars(c, bound)
            return out


def free_input_vars(expr: Expr, scope: Scope) -> set:
    """Scope inputs syntactically reachable from expr, expanding references
    to earlier bindings transitively."""
    inputs = {n for n, _ in scope.inputs}
    binding_map = {b.name: b.expr for b in scope.bindings}
    memo: dict = {}

    def of_binding(name: str) -> set:
        if name not in memo:
            memo[name] = set()  # cycle guard; validated programs have none
            memo[name] = go(binding_map[name], frozenset())
        return memo[name]

    def go(e: Expr, bound: frozenset) -> set:
        out: set = set()
        for name in _plain_free_vars(e, bound):
            if name in inputs:
                out.add(name)
            elif name in binding_map:
                out |= of_binding(name)
        return out

    return go(expr, frozenset())
