"""Reference evaluator for the default calculus.

Two evaluation modes exist for default terms.  Eager mode evaluates every
exception left to right and reports a conflict carrying the spans of the
first two non-empty exceptions, which is the mode used for replay and error
reporting.  Lazy mode stops evaluating exceptions as soon as a second
non-empty value appears.  Both modes always compute the same value; the lazy
rules only matter for the concolic instrumentation, where they shrink the
constraint trail of conflicting runs.

All runtime failures (division by zero, failed inline assertion, opaque
handler failure, two raised exceptions) are the conflict value; there is no
exception-based error channel.  Empty and conflict propagate strictly
through every construct except the exception slots of a default term, where
empty means the exception abstains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .lang import (
    CONFLICT, EMPTY,
    Assert, BinOp, Call, Default, EnumMake, Expr, FieldGet, If, Let,
    Lit, Match, Not, Opaque, Program, Scope, Span, StructMake, Value, Var,
    VBool, VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct, is_error,
)


class Mode(enum.Enum):
    EAGER = "eager"
    LAZY = "lazy"


class OutcomeKind(enum.Enum):
    VALUE = "value"
    EMPTY = "empty"
    CONFLICT = "conflict"
    PRECONDITION = "precondition"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    outputs: tuple = ()  # tuple[(name, Value), ...] when kind == VALUE
    span: Optional[Span] = field(default=None, compare=False)

    def output(self, name: str) -> Value:
        for n, v in self.outputs:
            if n == name:
                return v
        raise KeyError(name)


OK = OutcomeKind.VALUE


# Handlers for opaque constructs: tag -> callable(list[Value]) -> Value.
# A handler that raises, or an unregistered tag, yields the conflict value.
OPAQUE_HANDLERS: dict = {}


def register_opaque(tag: str, handler: Callable) -> None:
    OPAQUE_HANDLERS[tag] = handler


def round_rat(q: Fraction) -> int:
    """Round to the nearest integer; ties go away from zero."""
    return _round_div(q.numerator, q.denominator)


def _round_div(x: int, d: int) -> int:
    """x / d rounded to the nearest integer, ties away from zero (d != 0)."""
    if d < 0:
        x, d = -x, -d
    q = (2 * abs(x) + d) // (2 * d)
    return q if x >= 0 else -q


_BOOL = (VBool(False), VBool(True))  # indexed by a Python bool


def _eq(a: Value, b: Value) -> VBool:
    return _BOOL[a == b]


# op -> (type of lhs, type of rhs) -> function of the two values.  Each pair
# is one the validator admits (`lang.binop_result`); ints and cents stay
# ints, only rates are Fractions.
BINOPS = {
    "&&": {(VBool, VBool): lambda a, b: _BOOL[a.b and b.b]},
    "||": {(VBool, VBool): lambda a, b: _BOOL[a.b or b.b]},
    "=": {(VInt, VInt): lambda a, b: _BOOL[a.i == b.i],
          (VMoney, VMoney): lambda a, b: _BOOL[a.cents == b.cents],
          (VBool, VBool): _eq, (VRat, VRat): _eq, (VEnum, VEnum): _eq,
          (VStruct, VStruct): _eq},
    "<": {(VInt, VInt): lambda a, b: _BOOL[a.i < b.i],
          (VRat, VRat): lambda a, b: _BOOL[a.q < b.q],
          (VMoney, VMoney): lambda a, b: _BOOL[a.cents < b.cents]},
    "<=": {(VInt, VInt): lambda a, b: _BOOL[a.i <= b.i],
           (VRat, VRat): lambda a, b: _BOOL[a.q <= b.q],
           (VMoney, VMoney): lambda a, b: _BOOL[a.cents <= b.cents]},
    ">": {(VInt, VInt): lambda a, b: _BOOL[a.i > b.i],
          (VRat, VRat): lambda a, b: _BOOL[a.q > b.q],
          (VMoney, VMoney): lambda a, b: _BOOL[a.cents > b.cents]},
    ">=": {(VInt, VInt): lambda a, b: _BOOL[a.i >= b.i],
           (VRat, VRat): lambda a, b: _BOOL[a.q >= b.q],
           (VMoney, VMoney): lambda a, b: _BOOL[a.cents >= b.cents]},
    "+": {(VInt, VInt): lambda a, b: VInt(a.i + b.i),
          (VRat, VRat): lambda a, b: VRat(a.q + b.q),
          (VMoney, VMoney): lambda a, b: VMoney(a.cents + b.cents)},
    "-": {(VInt, VInt): lambda a, b: VInt(a.i - b.i),
          (VRat, VRat): lambda a, b: VRat(a.q - b.q),
          (VMoney, VMoney): lambda a, b: VMoney(a.cents - b.cents)},
    "*": {(VInt, VInt): lambda a, b: VInt(a.i * b.i),
          (VRat, VRat): lambda a, b: VRat(a.q * b.q),
          (VMoney, VRat): lambda m, r: VMoney(
              _round_div(m.cents * r.q.numerator, r.q.denominator)),
          (VRat, VMoney): lambda r, m: VMoney(
              _round_div(m.cents * r.q.numerator, r.q.denominator))},
    "/": {(VInt, VInt): lambda a, b: VRat(Fraction(a.i, b.i)) if b.i else CONFLICT,
          (VRat, VRat): lambda a, b: VRat(a.q / b.q) if b.q else CONFLICT,
          (VMoney, VMoney): lambda a, b:
              VRat(Fraction(a.cents, b.cents)) if b.cents else CONFLICT,
          (VMoney, VRat): lambda m, r: VMoney(
              _round_div(m.cents * r.q.denominator, r.q.numerator)) if r.q else CONFLICT},
}


def apply_binop(op: str, lv: Value, rv: Value) -> Value:
    """Total operator table shared by the interpreter and the concolic
    engine.  Returns the conflict value on division by zero."""
    fn = BINOPS[op].get((type(lv), type(rv)))
    if fn is None:
        raise TypeError(f"operator {op} on {lv!r}, {rv!r}")
    return fn(lv, rv)


def eval_expr(expr: Expr, env: dict, program: Program = Program(),
              mode: Mode = Mode.EAGER) -> Value:
    """Evaluate a validated expression under a total environment."""
    match expr:
        case Var(name):
            return env[name]
        case Lit(v):
            return v
        case BinOp(op, lhs, rhs):
            lv = eval_expr(lhs, env, program, mode)
            if is_error(lv):
                return lv
            rv = eval_expr(rhs, env, program, mode)
            if is_error(rv):
                return rv
            return apply_binop(op, lv, rv)
        case Not(arg):
            v = eval_expr(arg, env, program, mode)
            if is_error(v):
                return v
            assert isinstance(v, VBool)
            return VBool(not v.b)
        case If(c, t, e):
            cv = eval_expr(c, env, program, mode)
            if is_error(cv):
                return cv
            assert isinstance(cv, VBool)
            return eval_expr(t if cv.b else e, env, program, mode)
        case Match(scrut, arms):
            sv = eval_expr(scrut, env, program, mode)
            if is_error(sv):
                return sv
            assert isinstance(sv, VEnum)
            return eval_match_arm(sv, arms, env, program, mode)
        case StructMake(name, fields):
            out = []
            for f, fe in fields:
                fv = eval_expr(fe, env, program, mode)
                if is_error(fv):
                    return fv
                out.append((f, fv))
            return VStruct(name, tuple(out))
        case FieldGet(arg, fname):
            av = eval_expr(arg, env, program, mode)
            if is_error(av):
                return av
            assert isinstance(av, VStruct)
            return av.field(fname)
        case EnumMake(ename, variant, payload):
            if payload is None:
                return VEnum(ename, variant)
            pv = eval_expr(payload, env, program, mode)
            if is_error(pv):
                return pv
            return VEnum(ename, variant, pv)
        case Let(name, bound, body):
            bv = eval_expr(bound, env, program, mode)
            if is_error(bv):
                return bv
            return eval_expr(body, {**env, name: bv}, program, mode)
        case Call(fname, args):
            fn = program.function(fname)
            callee_env = {}
            for (pname, _), a in zip(fn.params, args):
                av = eval_expr(a, env, program, mode)
                if is_error(av):
                    return av
                callee_env[pname] = av
            return eval_expr(fn.body, callee_env, program, mode)
        case Default():
            return eval_default(expr, env, program, mode)
        case Assert(cond, body):
            cv = eval_expr(cond, env, program, mode)
            if is_error(cv):
                return cv
            assert isinstance(cv, VBool)
            if not cv.b:
                return VConflict(spans=(expr.span,) if expr.span else ())
            return eval_expr(body, env, program, mode)
        case Opaque(tag, _, args):
            vals = []
            for a in args:
                av = eval_expr(a, env, program, mode)
                if is_error(av):
                    return av
                vals.append(av)
            handler = OPAQUE_HANDLERS.get(tag)
            if handler is None:
                return VConflict(spans=(expr.span,) if expr.span else ())
            try:
                return handler(vals)
            except Exception:
                return VConflict(spans=(expr.span,) if expr.span else ())
    raise TypeError(f"not an expression: {expr!r}")


def eval_match_arm(sv: VEnum, arms: tuple, env: dict, program: Program,
                   mode: Mode) -> Value:
    for arm in arms:
        if arm.variants is None or sv.variant in arm.variants:
            if arm.binder is not None:
                return eval_expr(arm.body, {**env, arm.binder: sv.payload}, program, mode)
            return eval_expr(arm.body, env, program, mode)
    # Unreachable on validated programs (match exhaustiveness).
    return VConflict()


def eval_default(expr: Default, env: dict, program: Program, mode: Mode) -> Value:
    non_empty: list = []
    for exc in expr.exceptions:
        v = eval_expr(exc, env, program, mode)
        if isinstance(v, VConflict):
            return v
        if not isinstance(v, VEmpty):
            non_empty.append((v, exc.span))
            if mode is Mode.LAZY and len(non_empty) == 2:
                # Stop at the second raised exception; the remaining
                # exceptions cannot change the conflict.
                return VConflict(spans=tuple(s for _, s in non_empty if s))
    if len(non_empty) >= 2:
        # Two raised exceptions conflict even when they agree on the value.
        return VConflict(spans=tuple(s for _, s in non_empty[:2] if s))
    if len(non_empty) == 1:
        return non_empty[0][0]
    jv = eval_expr(expr.just, env, program, mode)
    if is_error(jv):
        return jv
    assert isinstance(jv, VBool)
    if jv.b:
        return eval_expr(expr.cons, env, program, mode)
    return EMPTY


def check_inputs(scope: Scope, inputs: dict) -> None:
    declared = {n for n, _ in scope.inputs}
    given = set(inputs)
    if declared != given:
        missing = sorted(declared - given)
        extra = sorted(given - declared)
        raise ValueError(
            f"scope {scope.name}: missing inputs {missing}, unexpected {extra}")


def run_scope(program: Program, scope_name: str, inputs: dict,
              mode: Mode = Mode.EAGER) -> Outcome:
    """Run a scope: check assertions, evaluate bindings in order, collect
    outputs.  A false (or failing) assertion marks the inputs invalid rather
    than producing an empty/conflict outcome."""
    scope = program.scope(scope_name)
    check_inputs(scope, inputs)
    env = dict(inputs)
    for a in scope.assertions:
        av = eval_expr(a, env, program, mode)
        if not (isinstance(av, VBool) and av.b):
            return Outcome(OutcomeKind.PRECONDITION, span=a.span)
    for b in scope.bindings:
        v = eval_expr(b.expr, env, program, mode)
        if isinstance(v, VEmpty):
            return Outcome(OutcomeKind.EMPTY)
        if isinstance(v, VConflict):
            return Outcome(OutcomeKind.CONFLICT, span=v.spans[0] if v.spans else None)
        env[b.name] = v
    return Outcome(OK, tuple((o, env[o]) for o in scope.outputs))
