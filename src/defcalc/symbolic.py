"""Symbolic terms over scope inputs.

Scope inputs are flattened into scalar *leaves* before instrumentation:
a struct input ``h`` contributes ``h.income``, ``h.kids``, ...; an enum input
``z`` contributes a tag leaf ``z`` plus one payload leaf ``z::Variant`` per
payload-carrying variant.  Symbolic terms mention only leaves, which keeps
the solver first-order: booleans, integers (ints and money in cents), exact
rationals, and finite enum tags, combined by linear arithmetic, comparisons,
connectives, and the rounding operators.  A leaf is a `SymVar`, one object
per compiled scope (`scope_leaves`, kept as `CompiledScope.leaves`): the
solver session declares the very objects the terms mention.

`SYM_OPS` is the one statement of each binary operator's meaning on ground
values (bools, and ints or Fractions): `sym_eval` dispatches through it, and
the solver's ground folding and row tests read it.

Terms are hash-consed per exploration: `compile_scope` owns one `Terms`
table, its closures build every compound term through it, and it dies with
the compiled scope, so a term two runs build is one object for one
`explore`.  A term keeps its hash, free variables, text and negation (see
`_Compound`).  Hash and equality stay structural, so no set or dict order
depends on addresses, and terms built outside a table (the simplifier's,
the shim's, the tests') still meet interned ones.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .lang import (
    BoolT, IntT, MoneyT, RatT, VStruct,
    EnumT, SemType, StructT, Value, VBool, VEnum, VInt, VMoney, VRat,
)
from .interp import round_rat
from .parser import print_value


@dataclass(frozen=True)
class SymVar:
    name: str
    ty: SemType  # BOOL | INT | RAT | MONEY | EnumT (tag leaf)
    _hash = _neg = None  # kept, as on a compound term

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash((self.name, self.ty)))


@dataclass(frozen=True)
class SymConst:
    value: Value
    _hash = None

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash((self.value,)))


class _Compound:
    """A compound node computes its hash, free-variable set, rendering and
    negation on first use and keeps them, so that later lookups, queries,
    fingerprints and flips read them instead of walking the term.  The hash
    is structural, not the identity: equal terms from any table or none hash
    alike, and no set or dict order depends on addresses.  A kept hash is
    valid only in the process that computed it (string hashes are salted per
    process); no SymExpr is pickled across processes."""
    _hash = None
    _free = None
    _text = None
    _neg = None


def _kept(node, attr: str, value):
    object.__setattr__(node, attr, value)
    return value


@dataclass(frozen=True)
class SymBin(_Compound):
    op: str  # + - * / = < <= > >= && ||
    lhs: "SymExpr"
    rhs: "SymExpr"

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash((self.op, self.lhs, self.rhs)))


@dataclass(frozen=True)
class SymNot(_Compound):
    arg: "SymExpr"

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash(("!", self.arg)))


@dataclass(frozen=True)
class SymRound(_Compound):
    """Round-to-nearest, ties away from zero; rational in, integer out."""
    arg: "SymExpr"

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash(("round", self.arg)))


@dataclass(frozen=True)
class SymIsVariant(_Compound):
    arg: "SymExpr"  # an enum tag leaf
    variant: str

    def __hash__(self):
        return self._hash or _kept(self, "_hash", hash((self.arg, self.variant)))


SymExpr = Union[SymVar, SymConst, SymBin, SymNot, SymRound, SymIsVariant]

TRUE = SymConst(VBool(True))
FALSE = SymConst(VBool(False))


class Terms(dict):
    """A hash-consing table: `terms(SymBin, op, lhs, rhs)` is the one such
    term built through it.  Keys are structural, so equal children from
    different sites meet; one compiled scope's closures hold the table."""

    def __call__(self, cls, *args):
        key = (cls, *args)
        return self.get(key) or self.setdefault(key, cls(*args))


def sym_not(e: SymExpr) -> SymExpr:
    """Negate, normalizing double negation away; a variable's or compound
    term's negation is made once and kept on it."""
    if isinstance(e, SymNot):
        return e.arg
    if e == TRUE:
        return FALSE
    if e == FALSE:
        return TRUE
    return e._neg or _kept(e, "_neg", SymNot(e))


def shared_prefix(old, new) -> int:
    """How many leading literals two sequences share, a literal kept when it
    is the same object as the other's or an equal one.  Within one explore
    the concolic runs' literals are interned, so the identity test decides
    almost every pair."""
    n = 0
    for a, b in zip(old, new):
        if a is not b and a != b:
            break
        n += 1
    return n


def sym_children(e: SymExpr) -> tuple:
    match e:
        case SymVar() | SymConst():
            return ()
        case SymBin(_, lhs, rhs):
            return (lhs, rhs)
        case SymNot(a) | SymRound(a):
            return (a,)
        case SymIsVariant(a, _):
            return (a,)
    raise TypeError(f"not a symbolic term: {e!r}")


def sym_free_vars(e: SymExpr) -> frozenset:
    match e:
        case SymVar(name, _):
            return frozenset((name,))
        case SymConst():
            return frozenset()
    if e._free is not None:
        return e._free
    free = frozenset()
    for c in sym_children(e):
        f = sym_free_vars(c)
        if not f <= free:
            free = f if free <= f else free | f
    return _kept(e, "_free", free)


def sym_sort(e: SymExpr) -> str:
    """The SMT-LIB sort of a term: "Bool", "Enum" (a tag), "Int" (ints and
    money in cents) or "Real"; a sum, difference or product is Real when
    either side is, a quotient always."""
    match e:
        case SymBin(op, a, b):
            if op in ("&&", "||", "=", "<", "<=", ">", ">="):
                return "Bool"
            return "Real" if op == "/" or sym_sort(a) == "Real" or sym_sort(b) == "Real" \
                else "Int"
        case SymVar(_, t) | SymConst(t):  # a leaf's type, a constant's value
            match t:
                case BoolT() | VBool():
                    return "Bool"
                case EnumT() | VEnum():
                    return "Enum"
                case RatT() | VRat():
                    return "Real"
            return "Int"
        case SymNot() | SymIsVariant():
            return "Bool"
        case SymRound():
            return "Int"
    raise TypeError(f"not a symbolic term: {e!r}")


def render(e: SymExpr) -> str:
    """Deterministic rendering used for display, fingerprints, and the
    negation-of-earlier check; a compound term keeps its text."""
    match e:
        case SymVar(name, _):
            return name
        case SymConst(v):
            return print_value(v)
    return e._text or _kept(e, "_text", _render(e))


def _render(e: SymExpr) -> str:
    match e:
        case SymBin(op, lhs, rhs):
            return f"({render(lhs)} {op} {render(rhs)})"
        case SymNot(a):
            return f"!{render(a)}"
        case SymRound(a):
            return f"round({render(a)})"
        case SymIsVariant(a, v):
            return f"({render(a)} is {v})"
    raise TypeError(f"not a symbolic term: {e!r}")


# op -> its function on ground values: bools for the connectives, ints or
# Fractions (money read as cents) for the rest.  `/` is the one operator that
# makes a Fraction of two ints, and raises ZeroDivisionError on zero.
SYM_OPS = {
    "&&": lambda a, b: a and b, "||": lambda a, b: a or b,
    "=": operator.eq, "<": operator.lt, "<=": operator.le,
    ">": operator.gt, ">=": operator.ge,
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": Fraction,
}


def sym_eval(e: SymExpr, env: dict):
    """Evaluate a symbolic term under a leaf environment.

    Symbolic arithmetic is exact rational arithmetic with money read as its
    cent count: ints and money stay ints until a rational or a quotient
    enters; rounding is explicit via the Round node (round_rat is the same
    function the interpreter rounds with).  Returns a bool, an int or
    Fraction, or a VEnum tag.  Raises ZeroDivisionError on division by
    zero, which callers treat as an unsatisfied term.
    """
    match e:
        case SymVar(name, _):
            return _ground(env[name])
        case SymConst(v):
            return _ground(v)
        case SymBin(op, lhs, rhs):
            a = sym_eval(lhs, env)
            b = sym_eval(rhs, env)
            if op == "=" and (isinstance(a, VEnum) or isinstance(b, VEnum)):
                return a.variant == b.variant
            if (fn := SYM_OPS.get(op)) is None:
                raise TypeError(f"unknown operator {op}")
            return fn(a, b)
        case SymNot(a):
            return not sym_eval(a, env)
        case SymRound(a):
            return round_rat(sym_eval(a, env))
        case SymIsVariant(a, variant):
            v = sym_eval(a, env)
            assert isinstance(v, VEnum)
            return v.variant == variant
    raise TypeError(f"not a symbolic term: {e!r}")


def sym_eval_bool(e: SymExpr, env: dict) -> bool:
    v = sym_eval(e, env)
    assert isinstance(v, bool), f"literal {render(e)} is not boolean"
    return v


def _ground(v: Value):
    match v:
        case VBool(b):
            return b
        case VInt(i) | VMoney(i):
            return i
        case VRat(q):
            return q
        case VEnum():
            return v
    raise TypeError(f"not a scalar value: {v!r}")


# ---------------------------------------------------------------------------
# Input flattening


def scope_leaves(scope) -> list:
    """The scope's leaves, a fresh `SymVar` each, in declaration order."""
    return [leaf for n, ty in scope.inputs
            for leaf, _ in _input_leaves(n, ty, default_value(ty))]


def default_value(ty: SemType) -> Value:
    """Deterministic initial value per type: false, 0, 0/1, $0.00, first
    declared enum variant with a defaulted payload."""
    match ty:
        case BoolT():
            return VBool(False)
        case IntT():
            return VInt(0)
        case RatT():
            return VRat(Fraction(0, 1))
        case MoneyT():
            return VMoney(0)
        case EnumT(name, variants):
            v, pty = variants[0]
            return VEnum(name, v, default_value(pty) if pty is not None else None)
        case StructT(name, fields):
            return VStruct(name, tuple((f, default_value(t)) for f, t in fields))
    raise TypeError(f"no default for type {ty}")


def _input_leaves(name: str, ty: SemType, v: Value):
    """(leaf, value) for each leaf of the input `name` of type `ty` holding
    `v`: depth first, in declaration order.  Payload leaves of the variants
    `v` does not select hold their type's default."""
    match ty:
        case StructT(_, fields):
            for f, fty in fields:
                yield from _input_leaves(f"{name}.{f}", fty, v.field(f))
        case EnumT(_, variants):
            yield SymVar(name, ty), VEnum(ty.name, v.variant)
            for variant, pty in variants:
                if pty is not None:
                    held = variant == v.variant and v.payload is not None
                    yield from _input_leaves(f"{name}::{variant}", pty,
                                             v.payload if held else default_value(pty))
        case _:
            yield SymVar(name, ty), v


def leaf_env_of_inputs(scope, inputs: dict) -> dict:
    """Flatten a concrete input environment to leaf values, total over
    `scope_leaves`."""
    return {leaf.name: x for n, ty in scope.inputs
            for leaf, x in _input_leaves(n, ty, inputs[n])}


def inputs_of_leaf_env(scope, leaf_env: dict) -> dict:
    """Rebuild the nested input environment from leaf values (the inverse of
    leaf_env_of_inputs up to unused payload leaves)."""

    def go(name: str, ty: SemType) -> Value:
        match ty:
            case StructT(sname, fields):
                return VStruct(sname, tuple((f, go(f"{name}.{f}", fty)) for f, fty in fields))
            case EnumT(ename, variants):
                tag = leaf_env[name]
                assert isinstance(tag, VEnum)
                pty = ty.payload_of(tag.variant)
                payload = go(f"{name}::{tag.variant}", pty) if pty is not None else None
                return VEnum(ename, tag.variant, payload)
            case _:
                return leaf_env[name]

    return {n: go(n, ty) for n, ty in scope.inputs}
