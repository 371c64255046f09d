"""Instrumented evaluator: concrete execution that collects an ordered trail
of branch constraints.

Every conditional site appends a *branch record* whose constraint is the
as-taken literal (already negated when the false side was taken), so the
explorer can flip a record by negating a single term.  All records go to
one trail, in the order execution produces them; a default term's
exceptions, justification and consequence append to it like any other
code.  Chronological order is what keeps the previous path a prefix of the
next one during depth-first exploration.

With the early-conflict option enabled, an exception that evaluates to the
conflict value cuts the trail back to where its default term started, so
the records of the exceptions before it are dropped and only the erroring
exception's own records stay.  Nested cuts compose: an inner default only
deletes records at or after the outer exception's start.  This prunes
redundant conflict paths but breaks the DFS prefix invariant, so the
explorer must be prepared to restart its bookkeeping (see explorer.py).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Union

from .lang import (
    CONFLICT, EMPTY,
    Assert, BinOp, Call, Default, EnumMake, EnumT, Expr, FieldGet, If, Let,
    Lit, Match, Not, Opaque, Program, Span, StructMake, StructT, Value, Var,
    VBool, VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct, is_error,
)
from .interp import OPAQUE_HANDLERS, Outcome, OutcomeKind, apply_binop, check_inputs
from .symbolic import (
    SymBin, SymConst, SymExpr, SymIsVariant, SymRound, SymVar, TRUE,
    sym_free_vars, sym_not,
)


class Origin(enum.Enum):
    JUSTIFICATION = "justification"
    IF_COND = "if"
    MATCH_ARM = "match"
    DIV_ZERO_CHECK = "div0"
    OPAQUE_CONCRETIZED = "opaque"
    ASSERTION = "assertion"


@dataclass(frozen=True)
class BranchRecord:
    constraint: SymExpr  # as-taken literal; satisfied by the current input
    taken: bool
    origin: Origin
    trivial: bool  # no input variables: recorded, never negated
    hard: bool = False  # assertion-derived: conjoined always, never negated
    span: Optional[Span] = field(default=None, compare=False, repr=False)

    def negated(self) -> "BranchRecord":
        return replace(self, constraint=sym_not(self.constraint), taken=not self.taken)


class ConcolicError(Exception):
    """Internal invariant violation; aborts the iteration rather than emit a
    wrong constraint."""


@dataclass(frozen=True)
class ConcolicOpts:
    lazy: bool = False
    early_error: bool = False


# ---------------------------------------------------------------------------
# Concolic values: a concrete value paired with what is known symbolically.


@dataclass
class CV:
    """Scalar (or fully concretized) value; sym is None when the symbolic
    side was lost to an opaque construct."""
    value: Value
    sym: Optional[SymExpr]


@dataclass
class CStruct:
    value: VStruct
    fields: dict  # name -> CVal


@dataclass
class CEnum:
    value: VEnum
    tag_sym: Optional[SymExpr]  # None: the variant is statically known
    payload: Optional["CVal"] = None


CVal = Union[CV, CStruct, CEnum]


def lift_value(v: Value) -> CVal:
    """Concolic view of a literal: constants stay symbolic as constants."""
    match v:
        case VStruct(_, fields):
            return CStruct(v, {f: lift_value(x) for f, x in fields})
        case VEnum(_, _, payload):
            return CEnum(v, None, lift_value(payload) if payload is not None else None)
        case _:
            return CV(v, SymConst(v))


def symbolic_input(name: str, ty, value: Value) -> CVal:
    """Concolic view of a scope input: leaves become symbolic variables."""
    match ty:
        case StructT(_, fields):
            assert isinstance(value, VStruct)
            return CStruct(value, {
                f: symbolic_input(f"{name}.{f}", fty, value.field(f))
                for f, fty in fields
            })
        case EnumT(_, _):
            assert isinstance(value, VEnum)
            pty = ty.payload_of(value.variant)
            payload = None
            if pty is not None and value.payload is not None:
                payload = symbolic_input(f"{name}::{value.variant}", pty, value.payload)
            return CEnum(value, SymVar(name, ty), payload)
        case _:
            return CV(value, SymVar(name, ty))


def eq_formula(a: CVal, b: CVal) -> Optional[SymExpr]:
    """Symbolic form of structural equality, or None when one side was
    concretized or needs unsupported payload reasoning."""
    match (a, b):
        case (CV(_, sa), CV(_, sb)):
            if sa is None or sb is None:
                return None
            return SymBin("=", sa, sb)
        case (CStruct(_, fa), CStruct(_, fb)):
            conj = None
            for name in fa:
                part = eq_formula(fa[name], fb[name])
                if part is None:
                    return None
                conj = part if conj is None else SymBin("&&", conj, part)
            return conj if conj is not None else TRUE
        case (CEnum(va, ta, pa), CEnum(vb, tb, pb)):
            has_payload = any(p is not None for _, p in _enum_ty_variants(a, b))
            if ta is None and tb is None:
                if va.variant != vb.variant:
                    return SymConst(VBool(False))
                if pa is None and pb is None:
                    return TRUE
                return eq_formula(pa, pb) if pa is not None and pb is not None else None
            if not has_payload:
                if ta is not None and tb is None:
                    return SymIsVariant(ta, vb.variant)
                if tb is not None and ta is None:
                    return SymIsVariant(tb, va.variant)
                return SymBin("=", ta, tb)
            return None  # symbolic tag with payloads: concretize
    return None


def _enum_ty_variants(a: CEnum, b: CEnum):
    for side in (a.tag_sym, b.tag_sym):
        if isinstance(side, SymVar) and isinstance(side.ty, EnumT):
            return side.ty.variants
    return ()


# ---------------------------------------------------------------------------
# Evaluation state


class ConcolicState:
    """The branch trail of one run."""

    def __init__(self):
        self.path: list = []
        self.hard_mode = False

    def emit(self, record: BranchRecord) -> None:
        self.path.append(record)

    def emit_cond(self, sym: Optional[SymExpr], taken: bool, origin: Origin,
                  span: Optional[Span]) -> None:
        if sym is None:
            self.emit_concretized(span)
            return
        literal = sym if taken else sym_not(sym)
        self.emit(BranchRecord(
            constraint=literal,
            taken=taken,
            origin=origin,
            trivial=not sym_free_vars(literal),
            hard=self.hard_mode,
            span=span,
        ))

    def emit_concretized(self, span: Optional[Span]) -> None:
        # Documents incompleteness: the branch depends on inputs through a
        # construct with no symbolic form.
        self.emit(BranchRecord(TRUE, True, Origin.OPAQUE_CONCRETIZED,
                               trivial=True, hard=self.hard_mode, span=span))


@dataclass(frozen=True)
class _Ctx:
    program: Program
    opts: ConcolicOpts


def _conflict_cv(span: Optional[Span]) -> CV:
    return CV(VConflict(spans=(span,) if span else ()), None)


def ceval(expr: Expr, cenv: dict, state: ConcolicState, ctx: _Ctx) -> CVal:
    """Concolically evaluate: returns the same value the reference evaluator
    computes, and appends branch records to the state."""
    match expr:
        case Var(name):
            return cenv[name]
        case Lit(v):
            return lift_value(v)
        case BinOp():
            return _ceval_binop(expr, cenv, state, ctx)
        case Not(arg):
            cv = ceval(arg, cenv, state, ctx)
            v = cv.value
            if is_error(v):
                return cv
            assert isinstance(v, VBool) and isinstance(cv, CV)
            return CV(VBool(not v.b), sym_not(cv.sym) if cv.sym is not None else None)
        case If(cond, then, els):
            ccv = ceval(cond, cenv, state, ctx)
            v = ccv.value
            if is_error(v):
                return ccv
            assert isinstance(v, VBool)
            sym = ccv.sym if isinstance(ccv, CV) else None
            state.emit_cond(sym, v.b, Origin.IF_COND, expr.span)
            return ceval(then if v.b else els, cenv, state, ctx)
        case Match():
            return _ceval_match(expr, cenv, state, ctx)
        case StructMake(name, fields):
            out = {}
            vals = []
            for f, fe in fields:
                fcv = ceval(fe, cenv, state, ctx)
                fv = fcv.value
                if is_error(fv):
                    return fcv
                out[f] = fcv
                vals.append((f, fv))
            return CStruct(VStruct(name, tuple(vals)), out)
        case FieldGet(arg, fname):
            acv = ceval(arg, cenv, state, ctx)
            av = acv.value
            if is_error(av):
                return acv
            if isinstance(acv, CStruct):
                return acv.fields[fname]
            assert isinstance(av, VStruct)
            return CV(av.field(fname), None)  # concretized struct
        case EnumMake(ename, variant, payload):
            if payload is None:
                return CEnum(VEnum(ename, variant), None, None)
            pcv = ceval(payload, cenv, state, ctx)
            pv = pcv.value
            if is_error(pv):
                return pcv
            return CEnum(VEnum(ename, variant, pv), None, pcv)
        case Let(name, bound, body):
            bcv = ceval(bound, cenv, state, ctx)
            if is_error(bcv.value):
                return bcv
            return ceval(body, {**cenv, name: bcv}, state, ctx)
        case Call(fname, args):
            fn = ctx.program.function(fname)
            callee_env = {}
            for (pname, _), a in zip(fn.params, args):
                acv = ceval(a, cenv, state, ctx)
                if is_error(acv.value):
                    return acv
                callee_env[pname] = acv
            return ceval(fn.body, callee_env, state, ctx)
        case Default():
            return _ceval_default(expr, cenv, state, ctx)
        case Assert(cond, body):
            ccv = ceval(cond, cenv, state, ctx)
            v = ccv.value
            if is_error(v):
                return ccv
            assert isinstance(v, VBool)
            sym = ccv.sym if isinstance(ccv, CV) else None
            state.emit_cond(sym, v.b, Origin.IF_COND, expr.span)
            if not v.b:
                return _conflict_cv(expr.span)
            return ceval(body, cenv, state, ctx)
        case Opaque(tag, _, args):
            vals = []
            for a in args:
                acv = ceval(a, cenv, state, ctx)
                av = acv.value
                if is_error(av):
                    return acv
                vals.append(av)
            state.emit_concretized(expr.span)
            handler = OPAQUE_HANDLERS.get(tag)
            if handler is None:
                return _conflict_cv(expr.span)
            try:
                return CV(handler(vals), None)
            except Exception:
                return _conflict_cv(expr.span)
    raise ConcolicError(f"not an expression: {expr!r}")


def _ceval_binop(expr: BinOp, cenv: dict, state: ConcolicState, ctx: _Ctx) -> CVal:
    lcv = ceval(expr.lhs, cenv, state, ctx)
    lv = lcv.value
    if is_error(lv):
        return lcv
    rcv = ceval(expr.rhs, cenv, state, ctx)
    rv = rcv.value
    if is_error(rv):
        return rcv

    if expr.op == "/":
        # Division branches implicitly on the denominator being zero; the
        # check is recorded before dividing.
        rsym = rcv.sym if isinstance(rcv, CV) else None
        denom_zero = _is_zero(rv)
        if rsym is None:
            state.emit_concretized(expr.span)
        else:
            zero = SymBin("=", rsym, SymConst(_zero_like(rv)))
            state.emit_cond(zero, denom_zero, Origin.DIV_ZERO_CHECK, expr.span)

    value = apply_binop(expr.op, lv, rv)
    if isinstance(value, VConflict):
        return _conflict_cv(expr.span)

    if expr.op == "=":
        return CV(value, eq_formula(lcv, rcv))

    lsym = lcv.sym if isinstance(lcv, CV) else None
    rsym = rcv.sym if isinstance(rcv, CV) else None
    if lsym is None or rsym is None:
        return CV(value, None)

    sym: Optional[SymExpr]
    if expr.op == "*" and {type(lv), type(rv)} == {VMoney, VRat}:
        sym = SymRound(SymBin("*", lsym, rsym))
    elif expr.op == "/" and isinstance(lv, VMoney) and isinstance(rv, VRat):
        sym = SymRound(SymBin("/", lsym, rsym))
    else:
        sym = SymBin(expr.op, lsym, rsym)
    return CV(value, sym)


def _is_zero(v: Value) -> bool:
    match v:
        case VInt(i):
            return i == 0
        case VRat(q):
            return q == 0
        case VMoney(c):
            return c == 0
    return False


def _zero_like(v: Value) -> Value:
    match v:
        case VInt():
            return VInt(0)
        case VRat():
            return VRat(Fraction(0))
        case VMoney():
            return VMoney(0)
    raise ConcolicError(f"division by non-numeric {v!r}")


def _ceval_match(expr: Match, cenv: dict, state: ConcolicState, ctx: _Ctx) -> CVal:
    scv = ceval(expr.scrutinee, cenv, state, ctx)
    sv = scv.value
    if is_error(sv):
        return scv
    assert isinstance(sv, VEnum)

    if isinstance(scv, CEnum):
        tag_sym = scv.tag_sym
        payload_cv = scv.payload
    else:
        # Concretized enum: arm choice may depend on inputs invisibly.
        state.emit_concretized(expr.span)
        tag_sym = None
        payload_cv = CV(sv.payload, None) if sv.payload is not None else None

    match_idx = None
    for i, arm in enumerate(expr.arms):
        if arm.variants is None or sv.variant in arm.variants:
            match_idx = i
            break
    if match_idx is None:
        raise ConcolicError(f"match fell through on {sv!r}")

    if tag_sym is not None:
        # Arms test in order, like an if/elif cascade; the final arm's test
        # is implied by the negations before it and is not recorded.
        for i in range(match_idx + 1):
            arm = expr.arms[i]
            if arm.variants is None:
                continue  # wildcard: always last, nothing to test
            test = None
            for v in arm.variants:
                t = SymIsVariant(tag_sym, v)
                test = t if test is None else SymBin("||", test, t)
            if i < match_idx:
                state.emit_cond(test, False, Origin.MATCH_ARM, expr.span)
            elif i < len(expr.arms) - 1:
                state.emit_cond(test, True, Origin.MATCH_ARM, expr.span)

    arm = expr.arms[match_idx]
    env = cenv
    if arm.binder is not None:
        if payload_cv is None:
            raise ConcolicError(f"variant {sv.variant} bound with no payload")
        env = {**cenv, arm.binder: payload_cv}
    return ceval(arm.body, env, state, ctx)


def _ceval_default(expr: Default, cenv: dict, state: ConcolicState, ctx: _Ctx) -> CVal:
    start = len(state.path)
    non_empty: list = []

    for exc in expr.exceptions:
        mark = len(state.path)
        cv = ceval(exc, cenv, state, ctx)
        v = cv.value
        if isinstance(v, VConflict):
            if ctx.opts.early_error:
                del state.path[start:mark]  # keep only this exception's trail
            return cv
        if not isinstance(v, VEmpty):
            non_empty.append((cv, exc.span))
            if ctx.opts.lazy and len(non_empty) == 2:
                spans = tuple(s for _, s in non_empty if s)
                return CV(VConflict(spans=spans), None)

    if len(non_empty) >= 2:
        spans = tuple(s for _, s in non_empty[:2] if s)
        return CV(VConflict(spans=spans), None)
    if len(non_empty) == 1:
        return non_empty[0][0]

    # All exceptions abstained: branch on the justification.
    jcv = ceval(expr.just, cenv, state, ctx)
    jv = jcv.value
    if is_error(jv):
        return jcv
    assert isinstance(jv, VBool)
    jsym = jcv.sym if isinstance(jcv, CV) else None
    state.emit_cond(jsym, jv.b, Origin.JUSTIFICATION, expr.just.span or expr.span)
    if jv.b:
        return ceval(expr.cons, cenv, state, ctx)
    return CV(EMPTY, None)


# ---------------------------------------------------------------------------


def run_scope_concolic(program: Program, scope_name: str, inputs: dict,
                       opts: ConcolicOpts = ConcolicOpts()) -> tuple:
    """Run a scope concolically.  Returns (Outcome, branch record list).

    Assertions run first and contribute hard, never-negated prefix records;
    inputs that falsify an assertion give a precondition outcome."""
    scope = program.scope(scope_name)
    check_inputs(scope, inputs)
    ctx = _Ctx(program, opts)
    state = ConcolicState()
    cenv = {n: symbolic_input(n, ty, inputs[n]) for n, ty in scope.inputs}

    state.hard_mode = True
    for a in scope.assertions:
        ccv = ceval(a, cenv, state, ctx)
        v = ccv.value
        if isinstance(v, VBool):
            sym = ccv.sym if isinstance(ccv, CV) else None
            state.emit_cond(sym, v.b, Origin.ASSERTION, a.span)
            if not v.b:
                return Outcome(OutcomeKind.PRECONDITION, span=a.span), state.path
        else:
            # Assertion crashed or abstained: treat the input as invalid.
            return Outcome(OutcomeKind.PRECONDITION, span=a.span), state.path
    state.hard_mode = False

    env_for_output = {}
    for b in scope.bindings:
        cv = ceval(b.expr, cenv, state, ctx)
        v = cv.value
        if isinstance(v, VEmpty):
            return Outcome(OutcomeKind.EMPTY), state.path
        if isinstance(v, VConflict):
            span = v.spans[0] if v.spans else None
            return Outcome(OutcomeKind.CONFLICT, span=span), state.path
        cenv[b.name] = cv
        env_for_output[b.name] = v

    for n, ty in scope.inputs:
        env_for_output.setdefault(n, inputs[n])
    outcome = Outcome(OutcomeKind.VALUE,
                      tuple((o, env_for_output[o]) for o in scope.outputs))
    return outcome, state.path
