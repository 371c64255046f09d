"""Instrumented evaluator: concrete execution that collects an ordered trail
of branch constraints.  `compile_scope` turns a scope into nested closures
once per exploration, each holding its compiled children, span, operator and
literal; `run_scope_concolic` runs the closures on one input.

Every conditional site appends a *branch record* whose constraint is the
as-taken literal (already negated when the false side was taken), so the
explorer can flip a record by negating a single term.  All records go to
one trail, in the order execution produces them; a default term's
exceptions, justification and consequence append to it like any other
code.  Chronological order is what keeps the previous path a prefix of the
next one during depth-first exploration.  Which records are trivial is the
solver session's to say (`SolverSession.literal_key`).

An exploration runs one compiled scope many times, mostly over the same
terms, so each site keeps a one-entry cache of what it built on an earlier
run (an inline cache, after Deutsch and Schiffman, POPL 1984).  An operator
site (arithmetic, scalar `=`, a division's `= 0` check, a match arm's test)
keeps its last operand terms and the term it built from them, the Round
wrap included, and returns that term while the operands are the same
objects.  A recording site (if, justification, match arm, division check,
assertion) keeps, for each (taken, hard), the last condition and the record
it made, and appends that same record while the condition is the same
object.  Neither can go stale: a term is a function of its operand objects,
and the `Terms` table, which a miss still asks, holds one object per term
for the life of the compiled scope; a record is a function of its
condition, its `taken` and `hard`, and its site's origin and span, and
records are immutable.  Every run still evaluates every node; a cache only
saves the lookup and the allocation, and lets the paths of one explore
share their record objects.

A branch whose condition has no symbolic form (it tests an opaque call's
result, or compares enums that carry payloads, or matches on or divides
by such a value) appends a `CONCRETIZED` record whose constraint is true:
the explorer never flips it and marks the run incomplete at its span.  An
opaque call records nothing itself: its value alone decides no branch.

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
    Lit, Match, Not, Opaque, Program, Scope, Span, StructMake, StructT, Value,
    Var, VBool, VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct,
)
from .interp import BINOPS, OPAQUE_HANDLERS, Outcome, OutcomeKind, check_inputs
from .symbolic import (
    FALSE, SymBin, SymConst, SymExpr, SymIsVariant, SymRound, SymVar, TRUE, Terms,
    scope_leaves, sym_not,
)


class Origin(enum.Enum):
    JUSTIFICATION = "justification"
    IF_COND = "if"
    MATCH_ARM = "match"
    DIV_ZERO_CHECK = "div0"
    CONCRETIZED = "concretized"
    ASSERTION = "assertion"


@dataclass(frozen=True)
class BranchRecord:
    constraint: SymExpr  # as-taken literal; satisfied by the current input
    taken: bool
    origin: Origin
    hard: bool = False  # assertion-derived: conjoined always, never negated
    span: Optional[Span] = field(default=None, compare=False, repr=False)
    _fp = None  # `explorer.path_fingerprint`'s fragment, kept on first use

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
    """Scalar (or fully concretized) value; sym is None when it has no
    symbolic form (an opaque call's result, an equality of enums that
    carry payloads)."""
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


def symbolic_input(name: str, ty, value: Value, leaves: dict) -> CVal:
    """Concolic view of a scope input: leaves become the SymVars of `leaves`."""
    match ty:
        case StructT(_, fields):
            assert isinstance(value, VStruct)
            return CStruct(value, {
                f: symbolic_input(f"{name}.{f}", fty, value.field(f), leaves)
                for f, fty in fields
            })
        case EnumT(_, _):
            assert isinstance(value, VEnum)
            pty = ty.payload_of(value.variant)
            payload = None
            if pty is not None and value.payload is not None:
                payload = symbolic_input(f"{name}::{value.variant}", pty, value.payload,
                                         leaves)
            return CEnum(value, leaves[name], payload)
        case _:
            return CV(value, leaves[name])


def eq_formula(a: CVal, b: CVal, terms) -> Optional[SymExpr]:
    """Symbolic form of structural equality, built through `terms`, or None
    when one side was concretized or needs unsupported payload reasoning."""
    match (a, b):
        case (CV(_, sa), CV(_, sb)):
            if sa is None or sb is None:
                return None
            return terms(SymBin, "=", sa, sb)
        case (CStruct(_, fa), CStruct(_, fb)):
            conj = None
            for name in fa:
                part = eq_formula(fa[name], fb[name], terms)
                if part is None:
                    return None
                conj = part if conj is None else terms(SymBin, "&&", conj, part)
            return conj if conj is not None else TRUE
        case (CEnum(va, ta, pa), CEnum(vb, tb, pb)):
            has_payload = any(p is not None for _, p in _enum_ty_variants(a, b))
            if ta is None and tb is None:
                if va.variant != vb.variant:
                    return FALSE
                if pa is None and pb is None:
                    return TRUE
                return eq_formula(pa, pb, terms) if pa is not None and pb is not None \
                    else None
            if not has_payload:
                if ta is not None and tb is None:
                    return terms(SymIsVariant, ta, vb.variant)
                if tb is not None and ta is None:
                    return terms(SymIsVariant, tb, va.variant)
                return terms(SymBin, "=", ta, tb)
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


_UNSET = object()


def _recorder(origin: Origin, span: Optional[Span]):
    """The record emitter of one recording site: `record(st, sym, taken)`
    appends the record of the condition `sym` as taken (a `CONCRETIZED` one
    when `sym` is None).  It keeps, per (taken, hard), the last condition and
    the record it made, and appends that same record while the condition is
    the same object."""
    conds, records = [_UNSET] * 4, [None] * 4  # index: 2 * hard + taken

    def record(st: ConcolicState, sym: Optional[SymExpr], taken: bool) -> None:
        hard = st.hard_mode
        slot = 2 * hard + taken
        if conds[slot] is not sym:
            conds[slot] = sym
            # A branch whose condition has no symbolic form: the explorer
            # never flips it and marks the run incomplete, naming `span`.
            records[slot] = BranchRecord(TRUE, True, Origin.CONCRETIZED, hard, span) \
                if sym is None else \
                BranchRecord(sym if taken else sym_not(sym), taken, origin, hard, span)
        st.path.append(records[slot])
    return record


def _conflict_cv(span: Optional[Span]) -> CV:
    return CV(VConflict(spans=(span,) if span else ()), None)


# ---------------------------------------------------------------------------
# Compilation: each node becomes a closure run(env, state) -> CVal that holds
# its compiled children, its span and origin, its operator and its literal.

_ERRORS = (VEmpty, VConflict)
_ZERO = {VInt: SymConst(VInt(0)), VRat: SymConst(VRat(Fraction(0))),
         VMoney: SymConst(VMoney(0))}


@dataclass(frozen=True)
class _Ctx:
    program: Program
    opts: ConcolicOpts
    functions: dict  # name -> compiled body, compiled at its first call site
    terms: Terms  # every compound term the closures build


@dataclass(frozen=True)
class CompiledScope:
    """A scope compiled for one explore: run it with `run_scope_concolic`."""
    scope: Scope
    leaves: dict  # leaf name -> its SymVar, one per compile: declaration and term
    assertions: tuple  # ((run, record, span), ...)
    bindings: tuple  # ((name, run), ...)


def compile_scope(program: Program, scope_name: str,
                  opts: ConcolicOpts = ConcolicOpts()) -> CompiledScope:
    """Turn every assertion, binding and called function body of a
    validated scope into closures, once, sharing one `Terms` table."""
    scope = program.scope(scope_name)
    ctx = _Ctx(program, opts, {}, Terms())
    return CompiledScope(scope, {l.name: l for l in scope_leaves(scope)},
                         tuple((_compile(a, ctx), _recorder(Origin.ASSERTION, a.span),
                                a.span) for a in scope.assertions),
                         tuple((b.name, _compile(b.expr, ctx)) for b in scope.bindings))


def _run_all(runs: tuple, env: dict, state: ConcolicState):
    """Run closures in order: the list of their values, or the first error."""
    out = []
    for run in runs:
        cv = run(env, state)
        if isinstance(cv.value, _ERRORS):
            return cv
        out.append(cv)
    return out


def _compile(expr: Expr, ctx: _Ctx):
    span = expr.span
    match expr:
        case Var(name):
            return lambda env, st: env[name]
        case Lit(v):
            cv = lift_value(v)
            return lambda env, st: cv
        case BinOp():
            return _compile_binop(expr, ctx)
        case Not(arg):
            run = _compile(arg, ctx)

            def not_(env, st):
                cv = run(env, st)
                if isinstance(cv.value, _ERRORS):
                    return cv
                return CV(VBool(not cv.value.b), sym_not(cv.sym) if cv.sym is not None else None)
            return not_
        case If(cond, then, els):
            return _compile_branch(cond, _compile(then, ctx), _compile(els, ctx), span, ctx)
        case Assert(cond, body):
            return _compile_branch(cond, _compile(body, ctx),
                                   lambda env, st: _conflict_cv(span), span, ctx)
        case Match():
            return _compile_match(expr, ctx)
        case StructMake(name, fields):
            names = tuple(f for f, _ in fields)
            runs = tuple(_compile(fe, ctx) for _, fe in fields)

            def struct(env, st):
                cvs = _run_all(runs, env, st)
                if not isinstance(cvs, list):
                    return cvs
                return CStruct(VStruct(name, tuple(zip(names, (cv.value for cv in cvs)))),
                               dict(zip(names, cvs)))
            return struct
        case FieldGet(arg, fname):
            run = _compile(arg, ctx)

            def field_get(env, st):
                acv = run(env, st)
                if isinstance(acv.value, _ERRORS):
                    return acv
                if isinstance(acv, CStruct):
                    return acv.fields[fname]
                return CV(acv.value.field(fname), None)  # concretized struct
            return field_get
        case EnumMake(ename, variant, None):
            return lambda env, st: CEnum(VEnum(ename, variant), None, None)
        case EnumMake(ename, variant, payload):
            run = _compile(payload, ctx)

            def enum(env, st):
                pcv = run(env, st)
                if isinstance(pcv.value, _ERRORS):
                    return pcv
                return CEnum(VEnum(ename, variant, pcv.value), None, pcv)
            return enum
        case Let(name, bound, body):
            run_bound, run_body = _compile(bound, ctx), _compile(body, ctx)

            def let(env, st):
                bcv = run_bound(env, st)
                if isinstance(bcv.value, _ERRORS):
                    return bcv
                return run_body({**env, name: bcv}, st)
            return let
        case Call(fname, args):
            fn = ctx.program.function(fname)
            if fname not in ctx.functions:
                ctx.functions[fname] = _compile(fn.body, ctx)
            run_body = ctx.functions[fname]
            params = tuple(p for p, _ in fn.params)
            runs = tuple(_compile(a, ctx) for a in args)

            def call(env, st):
                cvs = _run_all(runs, env, st)
                if not isinstance(cvs, list):
                    return cvs
                return run_body(dict(zip(params, cvs)), st)
            return call
        case Default():
            return _compile_default(expr, ctx)
        case Opaque(tag, _, args):
            runs = tuple(_compile(a, ctx) for a in args)

            def opaque(env, st):
                cvs = _run_all(runs, env, st)
                if not isinstance(cvs, list):
                    return cvs
                handler = OPAQUE_HANDLERS.get(tag)
                if handler is None:
                    return _conflict_cv(span)
                try:
                    return CV(handler([cv.value for cv in cvs]), None)
                except Exception:
                    return _conflict_cv(span)
            return opaque
    raise ConcolicError(f"not an expression: {expr!r}")


def _compile_branch(cond: Expr, then, els, span: Optional[Span], ctx: _Ctx):
    """An if, or an inline assertion whose else side is the conflict."""
    run, record = _compile(cond, ctx), _recorder(Origin.IF_COND, span)

    def branch(env, st):
        ccv = run(env, st)
        v = ccv.value
        if isinstance(v, _ERRORS):
            return ccv
        record(st, ccv.sym, v.b)
        return (then if v.b else els)(env, st)
    return branch


def _compile_binop(expr: BinOp, ctx: _Ctx):
    """An operator site keeps its last operand terms and the term it built
    from them, and returns that term while the operands are the same objects;
    a miss asks the table, so the kept term is the one the table holds."""
    op, span, table, terms = expr.op, expr.span, BINOPS[expr.op], ctx.terms
    run_l, run_r = _compile(expr.lhs, ctx), _compile(expr.rhs, ctx)
    last_l = last_r = last = None  # None operands have no term: a valid entry

    if op == "=":
        def eq(env, st):
            nonlocal last_l, last_r, last
            lcv = run_l(env, st)
            if isinstance(lcv.value, _ERRORS):
                return lcv
            rcv = run_r(env, st)
            if isinstance(rcv.value, _ERRORS):
                return rcv
            lv, rv = lcv.value, rcv.value
            value = table[lv.__class__, rv.__class__](lv, rv)
            if lcv.__class__ is not CV or rcv.__class__ is not CV:
                return CV(value, eq_formula(lcv, rcv, terms))
            lsym, rsym = lcv.sym, rcv.sym
            if lsym is not last_l or rsym is not last_r:
                last_l, last_r = lsym, rsym
                last = None if lsym is None or rsym is None \
                    else terms(SymBin, "=", lsym, rsym)
            return CV(value, last)
        return eq

    divides = op == "/"
    if divides:
        # Division branches implicitly on the denominator being zero; the
        # check is recorded before dividing.
        record = _recorder(Origin.DIV_ZERO_CHECK, span)
        last_den = last_check = None

    def arith(env, st):
        nonlocal last_l, last_r, last, last_den, last_check
        lcv = run_l(env, st)
        if isinstance(lcv.value, _ERRORS):
            return lcv
        rcv = run_r(env, st)
        if isinstance(rcv.value, _ERRORS):
            return rcv
        lv, rv, lsym, rsym = lcv.value, rcv.value, lcv.sym, rcv.sym
        if divides:
            zero = _ZERO[rv.__class__]
            if rsym is not last_den:
                last_den = rsym
                last_check = None if rsym is None else terms(SymBin, "=", rsym, zero)
            record(st, last_check, rv == zero.value)
        value = table[lv.__class__, rv.__class__](lv, rv)
        if value is CONFLICT:
            return _conflict_cv(span)
        if lsym is not last_l or rsym is not last_r:
            last_l, last_r = lsym, rsym
            if lsym is None or rsym is None:
                last = None
            else:
                sym = terms(SymBin, op, lsym, rsym)
                # The only mixed operand types are money and rate under * and
                # /, whose result is rounded to the cent.
                last = sym if lv.__class__ is rv.__class__ else terms(SymRound, sym)
        return CV(value, last)
    return arith


def _compile_match(expr: Match, ctx: _Ctx):
    run = _compile(expr.scrutinee, ctx)
    span, terms = expr.span, ctx.terms
    variants = tuple(arm.variants for arm in expr.arms)
    bodies = tuple((arm.binder, _compile(arm.body, ctx)) for arm in expr.arms)
    records = tuple(_recorder(Origin.MATCH_ARM, span) for _ in variants)
    record_concretized = _recorder(Origin.CONCRETIZED, span)
    first_arm = {}
    for i, vs in enumerate(variants):
        for v in vs or ():
            first_arm.setdefault(v, i)
    wildcard = next((i for i, vs in enumerate(variants) if vs is None), None)
    last_arm = len(variants) - 1
    # The arm tests built for `last_tag`, each made on first use.
    last_tag, tests = None, [None] * len(variants)

    def match(env, st):
        nonlocal last_tag, tests
        scv = run(env, st)
        sv = scv.value
        if isinstance(sv, _ERRORS):
            return scv
        if isinstance(scv, CEnum):
            tag_sym = scv.tag_sym
            payload_cv = scv.payload
        else:
            # Concretized enum: arm choice may depend on inputs invisibly.
            record_concretized(st, None, True)
            tag_sym = None
            payload_cv = CV(sv.payload, None) if sv.payload is not None else None
        k = first_arm.get(sv.variant, wildcard)
        if k is None:
            raise ConcolicError(f"match fell through on {sv!r}")
        if tag_sym is not None:
            if tag_sym is not last_tag:
                last_tag, tests = tag_sym, [None] * len(variants)
            # Arms test in order, like an if/elif cascade; the final arm's
            # test is implied by the negations before it and is not recorded.
            for i in range(k + 1):
                if variants[i] is None:
                    continue  # wildcard: always last, nothing to test
                test = tests[i]
                if test is None:
                    for v in variants[i]:
                        t = terms(SymIsVariant, tag_sym, v)
                        test = t if test is None else terms(SymBin, "||", test, t)
                    tests[i] = test
                if i < k:
                    records[i](st, test, False)
                elif i < last_arm:
                    records[i](st, test, True)
        binder, body = bodies[k]
        if binder is None:
            return body(env, st)
        if payload_cv is None:
            raise ConcolicError(f"variant {sv.variant} bound with no payload")
        return body({**env, binder: payload_cv}, st)
    return match


def _compile_default(expr: Default, ctx: _Ctx):
    excs = tuple((_compile(e, ctx), e.span) for e in expr.exceptions)
    run_just, run_cons = _compile(expr.just, ctx), _compile(expr.cons, ctx)
    record = _recorder(Origin.JUSTIFICATION, expr.just.span or expr.span)
    lazy, early_error = ctx.opts.lazy, ctx.opts.early_error

    def default(env, st):
        path = st.path
        start = len(path)
        non_empty: list = []
        for run, span in excs:
            mark = len(path)
            cv = run(env, st)
            v = cv.value
            if isinstance(v, VConflict):
                if early_error:
                    del path[start:mark]  # keep only this exception's trail
                return cv
            if not isinstance(v, VEmpty):
                non_empty.append((cv, span))
                if lazy and len(non_empty) == 2:
                    break
        if len(non_empty) >= 2:
            spans = tuple(s for _, s in non_empty[:2] if s)
            return CV(VConflict(spans=spans), None)
        if non_empty:
            return non_empty[0][0]

        # All exceptions abstained: branch on the justification.
        jcv = run_just(env, st)
        jv = jcv.value
        if isinstance(jv, _ERRORS):
            return jcv
        record(st, jcv.sym, jv.b)
        if jv.b:
            return run_cons(env, st)
        return CV(EMPTY, None)
    return default


# ---------------------------------------------------------------------------


def run_scope_concolic(compiled: CompiledScope, inputs: dict) -> tuple:
    """Run a compiled scope concolically.  Returns (Outcome, branch record
    list).

    Assertions run first and contribute hard, never-negated prefix records;
    inputs that falsify an assertion give a precondition outcome."""
    scope = compiled.scope
    check_inputs(scope, inputs)
    state = ConcolicState()
    cenv = {n: symbolic_input(n, ty, inputs[n], compiled.leaves) for n, ty in scope.inputs}

    state.hard_mode = True
    for run, record, span in compiled.assertions:
        ccv = run(cenv, state)
        v = ccv.value
        if isinstance(v, VBool):
            record(state, ccv.sym, v.b)
            if not v.b:
                return Outcome(OutcomeKind.PRECONDITION, span=span), state.path
        else:
            # Assertion crashed or abstained: treat the input as invalid.
            return Outcome(OutcomeKind.PRECONDITION, span=span), state.path
    state.hard_mode = False

    env_for_output = {}
    for name, run in compiled.bindings:
        cv = run(cenv, state)
        v = cv.value
        if isinstance(v, VEmpty):
            return Outcome(OutcomeKind.EMPTY), state.path
        if isinstance(v, VConflict):
            span = v.spans[0] if v.spans else None
            return Outcome(OutcomeKind.CONFLICT, span=span), state.path
        cenv[name] = cv
        env_for_output[name] = v

    for n, ty in scope.inputs:
        env_for_output.setdefault(n, inputs[n])
    outcome = Outcome(OutcomeKind.VALUE,
                      tuple((o, env_for_output[o]) for o in scope.outputs))
    return outcome, state.path
