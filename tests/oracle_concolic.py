"""The tree-walking concolic evaluator that closure compilation replaced,
kept as a differential oracle, together with the two older mechanisms it
ran on.

`ceval` walks the AST on every run and dispatches on each node; the engine
in `defcalc.concolic` compiles each scope into closures once instead.  For
default terms the walker keeps the local-constraint stack that the single
branch trail replaced: a default term pushes one list for its exceptions,
each exception pushes one for its own trail, and every popped list is
flushed into its parent in order, except that an early-error conflict drops
the default's local list and keeps only the erroring exception's trail.
Operators go through `apply_binop`, the table before ints and cents were
compared and rounded as ints: every number is lifted to a `Fraction`, all
four comparisons are computed, and money times a rate is rounded with
`Fraction` arithmetic.

`run_scope` is the engine's former entry point; it returns the same
(Outcome, record list) as `defcalc.concolic.run_scope_concolic`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from defcalc.concolic import (
    CV, BranchRecord, CEnum, CStruct, ConcolicError, ConcolicOpts, Origin,
    _conflict_cv, eq_formula, lift_value, symbolic_input,
)
from defcalc.interp import OPAQUE_HANDLERS, Outcome, OutcomeKind, check_inputs
from defcalc.lang import (
    CONFLICT, EMPTY,
    Assert, BinOp, Call, Default, EnumMake, Expr, FieldGet, If, Let, Lit,
    Match, Not, Opaque, Program, Span, StructMake, Value, Var, VBool,
    VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct, is_error,
)
from defcalc.symbolic import (
    TRUE, SymBin, SymConst, SymExpr, SymIsVariant, SymRound, SymVar, scope_leaves,
    sym_not,
)


def _plain(cls, *args):
    """Build a term with its constructor, with no intern table: the walker
    makes every run's terms afresh."""
    return cls(*args)


# ---------------------------------------------------------------------------
# The Fraction-based operator table


def round_rat(q: Fraction) -> int:
    """Round to the nearest integer; ties go away from zero."""
    if q >= 0:
        return int((q + Fraction(1, 2)).__floor__())
    return -int((-q + Fraction(1, 2)).__floor__())


def apply_binop(op: str, lv: Value, rv: Value) -> Value:
    match (op, lv, rv):
        case ("&&", VBool(a), VBool(b)):
            return VBool(a and b)
        case ("||", VBool(a), VBool(b)):
            return VBool(a or b)
        case ("=", _, _):
            return VBool(lv == rv)
        case ("<" | "<=" | ">" | ">=", _, _):
            a, b = _numeric(lv), _numeric(rv)
            if a is None or b is None:
                raise TypeError(f"comparison {op} on {lv!r}, {rv!r}")
            return VBool({"<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b}[op])
        case ("+" | "-", VInt(a), VInt(b)):
            return VInt(a + b if op == "+" else a - b)
        case ("+" | "-", VRat(a), VRat(b)):
            return VRat(a + b if op == "+" else a - b)
        case ("+" | "-", VMoney(a), VMoney(b)):
            return VMoney(a + b if op == "+" else a - b)
        case ("*", VInt(a), VInt(b)):
            return VInt(a * b)
        case ("*", VRat(a), VRat(b)):
            return VRat(a * b)
        case ("*", VMoney(c), VRat(r)):
            return VMoney(round_rat(c * r))
        case ("*", VRat(r), VMoney(c)):
            return VMoney(round_rat(c * r))
        case ("/", VInt(a), VInt(b)):
            return CONFLICT if b == 0 else VRat(Fraction(a, b))
        case ("/", VRat(a), VRat(b)):
            return CONFLICT if b == 0 else VRat(a / b)
        case ("/", VMoney(a), VMoney(b)):
            return CONFLICT if b == 0 else VRat(Fraction(a, b))
        case ("/", VMoney(c), VRat(r)):
            return CONFLICT if r == 0 else VMoney(round_rat(c / r))
    raise TypeError(f"operator {op} on {lv!r}, {rv!r}")


def _numeric(v: Value):
    match v:
        case VInt(i):
            return Fraction(i)
        case VRat(q):
            return q
        case VMoney(c):
            return Fraction(c)
    return None


# ---------------------------------------------------------------------------
# The trail with its stack of local constraint lists


class ConcolicState:
    """Path trail plus the stack of local constraint lists.  At the top
    level the stack is empty and records append straight to the path."""

    def __init__(self):
        self.path: list = []
        self.frames: list = []
        self.hard_mode = False

    def emit(self, record: BranchRecord) -> None:
        (self.frames[-1] if self.frames else self.path).append(record)

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
            hard=self.hard_mode,
            span=span,
        ))

    def emit_concretized(self, span: Optional[Span]) -> None:
        self.emit(BranchRecord(TRUE, True, Origin.CONCRETIZED,
                               hard=self.hard_mode, span=span))

    def push_frame(self) -> None:
        self.frames.append([])

    def pop_frame(self) -> list:
        return self.frames.pop()

    def extend(self, records: list) -> None:
        for r in records:
            self.emit(r)


# ---------------------------------------------------------------------------
# The walker


def ceval(expr: Expr, cenv: dict, state: ConcolicState, ctx: tuple):
    """Concolically evaluate under ctx = (program, opts): returns the value
    the reference evaluator computes, and appends branch records."""
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
            fn = ctx[0].function(fname)
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
            handler = OPAQUE_HANDLERS.get(tag)
            if handler is None:
                return _conflict_cv(expr.span)
            try:
                return CV(handler(vals), None)
            except Exception:
                return _conflict_cv(expr.span)
    raise ConcolicError(f"not an expression: {expr!r}")


def _ceval_binop(expr: BinOp, cenv: dict, state: ConcolicState, ctx: tuple):
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
        return CV(value, eq_formula(lcv, rcv, _plain))

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


def _ceval_match(expr: Match, cenv: dict, state: ConcolicState, ctx: tuple):
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


def _ceval_default(expr: Default, cenv: dict, state: ConcolicState, ctx: tuple):
    opts = ctx[1]
    state.push_frame()  # local constraints C for this default term
    non_empty: list = []

    for exc in expr.exceptions:
        state.push_frame()  # this exception's own trail χ'
        cv = ceval(exc, cenv, state, ctx)
        kappa = state.pop_frame()
        v = cv.value
        if isinstance(v, VConflict):
            local = state.pop_frame()
            if not opts.early_error:
                state.extend(local)
            state.extend(kappa)
            return cv
        if not isinstance(v, VEmpty):
            non_empty.append((cv, exc.span))
            if opts.lazy and len(non_empty) == 2:
                local = state.pop_frame()
                state.extend(local)
                state.extend(kappa)
                spans = tuple(s for _, s in non_empty if s)
                return CV(VConflict(spans=spans), None)
        state.extend([*kappa])  # merge into C (frame still on top)

    if len(non_empty) >= 2:
        local = state.pop_frame()
        state.extend(local)
        spans = tuple(s for _, s in non_empty[:2] if s)
        return CV(VConflict(spans=spans), None)
    if len(non_empty) == 1:
        local = state.pop_frame()
        state.extend(local)
        return non_empty[0][0]

    # All exceptions abstained: branch on the justification.
    jcv = ceval(expr.just, cenv, state, ctx)
    jv = jcv.value
    if is_error(jv):
        local = state.pop_frame()
        state.extend(local)
        return jcv
    assert isinstance(jv, VBool)
    jsym = jcv.sym if isinstance(jcv, CV) else None
    state.emit_cond(jsym, jv.b, Origin.JUSTIFICATION, expr.just.span or expr.span)
    local = state.pop_frame()
    state.extend(local)
    if jv.b:
        return ceval(expr.cons, cenv, state, ctx)
    return CV(EMPTY, None)


# ---------------------------------------------------------------------------


def run_scope(program: Program, scope_name: str, inputs: dict,
              opts: ConcolicOpts = ConcolicOpts()) -> tuple:
    """Walk a scope concolically.  Returns (Outcome, branch record list);
    every default term has popped the frames it pushed."""
    state = ConcolicState()
    result = _run(program, scope_name, inputs, opts, state)
    assert not state.frames
    return result


def _run(program: Program, scope_name: str, inputs: dict, opts: ConcolicOpts,
         state: ConcolicState) -> tuple:
    scope = program.scope(scope_name)
    check_inputs(scope, inputs)
    ctx = (program, opts)
    leaves = {l.name: SymVar(l.name, l.ty) for l in scope_leaves(scope)}
    cenv = {n: symbolic_input(n, ty, inputs[n], leaves) for n, ty in scope.inputs}

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
