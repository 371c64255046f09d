"""Satisfiability backend for path queries.

The builtin procedure decides conjunctions of quantifier-free constraints
over exact rationals, integers, money (integer cents), booleans, and finite
enum tags, with Round occurrences.  The pipeline is:

1. simplify each literal (ground folding and linear-difference folding,
   both reading `symbolic.SYM_OPS` for each operator's truth; double
   negation) and list its case-split alternatives (disjunctions, disequalities,
   bool and enum equalities) with their atoms' linear forms, once a session,
   and add it to the conjunction's frames (`_Frames`): a literal with one
   alternative adds the unit facts it fixes (a boolean's value, an enum's
   allowed variants, a numeric variable's bounds from a one-variable row),
   which makes the conjunction false as it is pushed if they clash, and its
   other rows to the root system; one with more becomes a choice;
2. search the choices depth first, with the unit atoms joined in between,
   so complete branches come in DNF order.  The root system is tested once
   before the first choice; each choice then adds its alternative's facts
   and rows to those of the root and the choices above it, and cuts it when
   the facts clash or the rows with two or more variables have no rational
   solution within the bounds (`_feasible`; Round atoms left out), which
   loses no solution.  A conflict with a unit literal is thus found once,
   at the first choice it refutes, and every branch's facts agree;
3. per branch, replace Round terms with integer auxiliaries, split once
   per Round occurrence on its sign, and for each sign case add the defining
   inequalities, built for both signs once per branch from one linear form
   of the Round's argument (`_round_rows`), and solve the linear core over
   primitive integer rows (`_row`).  A variable that shares no row with
   another is decided once, from its own rows: an empty window answers the
   case before any search, and after it the variable takes its window's
   value of least magnitude.
   The others, tied, are searched over their rows and the ground rows, with
   equalities over the integers presolved as in the Omega test
   (`_int_unsolvable`).  Fourier-Motzkin combines rows in ints and keeps
   only the tightest of parallel inequalities (`_prune`).  One pass of
   eliminations decides rational feasibility and keeps, for every window
   the search reads, the projected rows it is read from (`_window_rows`).
   Interval propagation with integer rounding over the integer-only rows
   bounds every tied integer (`_int_bounds`), and each integer window is
   clipped to its bounds.  Variables are then fixed in order, integers
   by branch-and-bound over their window, and a candidate reads each window
   straight from its rows at the values fixed so far (`_window`).  A value
   inside a projected window always extends over the rationals, so only
   integrality forces a backtrack; a rational variable takes one value of
   its window, and when no integer completion follows a value its window
   did not force and a later integer window depends on, the same rows are
   searched again with every integer first, so the branch is decided.

Model selection is deterministic: variables are assigned in declaration
order with the smallest feasible absolute value (ties toward nonnegative);
variables not mentioned by any literal keep their retained value (the
session holds the exploration's initial input for this, and gives it to an
external model's unmentioned variables too), so models stay close to the
user's starting point.  One budget bounds the whole search:
every complete branch, every cut, every Round sign case and every integer
candidate costs one unit.  When it runs out the answer is Unknown, never a
wrong model.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .lang import (
    BOOL, INT, MONEY,
    EnumT, Value, VBool, VEnum, VInt, VMoney, VRat,
)
from .symbolic import (
    FALSE, SYM_OPS, SymBin, SymConst, SymExpr, SymIsVariant, SymNot,
    SymRound, SymVar, TRUE, default_value, render, sym_eval, sym_eval_bool,
    sym_free_vars, sym_not, sym_sort,
)

DEFAULT_BUDGET = 1 << 16


class SolverUsageError(Exception):
    pass


class SolverFailure(Exception):
    """External backend failed (process error, unparsable reply)."""


@dataclass(frozen=True)
class Sat:
    """A model; its soft tier, if any, is `SolverSession.tier_of(model)`."""
    model: dict  # leaf name -> Value, total over declarations


@dataclass(frozen=True)
class Unsat:
    pass


@dataclass(frozen=True)
class Unknown:
    reason: str = ""


UNSAT = Unsat()


@dataclass
class SolverStats:
    solver_calls: int = 0  # sat + unsat + unknown + solver_failures
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    solver_failures: int = 0  # SolverFailure from the backend or its model check
    pushes: int = 0
    pops: int = 0


@dataclass(frozen=True)
class Query:
    """One self-contained satisfiability question.  `decls` are the leaves
    themselves, the `SymVar`s the literals mention, in declaration order."""
    decls: tuple  # tuple[SymVar, ...]
    literals: tuple  # tuple[SymExpr, ...] conjunction

    def __post_init__(self):
        declared = {l.name for l in self.decls}
        for lit in self.literals:
            undeclared = sym_free_vars(lit) - declared
            if undeclared:
                raise SolverUsageError(f"undeclared variables {sorted(undeclared)}")


# ---------------------------------------------------------------------------
# Literal simplification


class NonLinear(Exception):
    pass


def linearize(e: SymExpr) -> tuple:
    """Linear normal form of a numeric term: (coeffs, const) meaning
    sum(coeffs[v]*v) + const.  Entries stay ints until a rational constant
    or a `/` enters, which makes a Fraction as `SYM_OPS["/"]` does.  Raises
    NonLinear on products of variables, division by a non-ground term, or
    leftover Round nodes."""
    match e:
        case SymVar(name, ty):
            if ty == BOOL or isinstance(ty, EnumT):
                raise NonLinear("boolean/enum term in numeric position")
            return {name: 1}, 0
        case SymConst(v):
            match v:
                case VInt(i) | VMoney(i):
                    return {}, i
                case VRat(q):
                    return {}, q
            raise NonLinear(f"non-numeric constant {v!r}")
        case SymBin("+" | "-" as op, lhs, rhs):
            return _lin_sum(linearize(lhs), linearize(rhs), op)
        case SymBin("*", lhs, rhs):
            c1, k1 = linearize(lhs)
            c2, k2 = linearize(rhs)
            if not c1:
                return {n: k1 * c for n, c in c2.items() if k1 * c != 0}, k1 * k2
            if not c2:
                return {n: k2 * c for n, c in c1.items() if k2 * c != 0}, k2 * k1
            raise NonLinear("product of two non-ground terms")
        case SymBin("/", lhs, rhs):
            c2, k2 = linearize(rhs)
            if c2 or k2 == 0:
                raise NonLinear("division by a non-ground or zero term")
            c1, k1 = linearize(lhs)
            return {n: Fraction(c, k2) for n, c in c1.items()}, Fraction(k1, k2)
    raise NonLinear(f"not linear: {render(e)}")


def _lin_sum(a: tuple, b: tuple, op: str) -> tuple:
    """The linear form a + b, or a - b when `op` is "-"; zeros are dropped."""
    fn = SYM_OPS[op]
    coeffs = dict(a[0])
    for n, c in b[0].items():
        if n not in coeffs:
            coeffs[n] = c if op == "+" else -c
        elif d := fn(coeffs[n], c):
            coeffs[n] = d
        else:
            del coeffs[n]
    return coeffs, fn(a[1], b[1])


def simplify(e: SymExpr) -> SymExpr:
    """Sound rewriting: constant folding, double negation, ground-term
    evaluation, and linear-difference folding for comparisons (so that
    ``x + 0 = x`` becomes true).  The result is equivalent to the input
    under every assignment."""
    if not sym_free_vars(e):
        try:
            v = sym_eval(e, {})
        except (ZeroDivisionError, AssertionError, TypeError):
            return e
        if isinstance(v, bool):
            return TRUE if v else FALSE
        if isinstance(v, (int, Fraction)):
            return SymConst(VInt(v.numerator) if v.denominator == 1 else VRat(v))
        return e
    match e:
        case SymNot(a):
            return sym_not(simplify(a))
        case SymBin("&&" | "||" as op, a, b):
            sa, sb = simplify(a), simplify(b)
            unit, absorb = (TRUE, FALSE) if op == "&&" else (FALSE, TRUE)
            if sa == absorb or sb == absorb:
                return absorb
            if sa == unit:
                return sb
            if sb == unit:
                return sa
            return SymBin(op, sa, sb)
        case SymBin(op, a, b) if op in ("=", "<", "<=", ">", ">=") and \
                sym_sort(a) in ("Int", "Real"):
            sa, sb = simplify(a), simplify(b)
            try:
                diff, k = _lin_sum(linearize(sa), linearize(sb), "-")  # lhs - rhs
            except NonLinear:
                return SymBin(op, sa, sb)
            if not diff:
                return TRUE if SYM_OPS[op](k, 0) else FALSE
            return SymBin(op, sa, sb)
        case SymBin(op, a, b):
            return SymBin(op, simplify(a), simplify(b))
        case SymRound(a):
            return SymRound(simplify(a))
        case _:
            return e


# ---------------------------------------------------------------------------
# Case-split branch enumeration

# Branch atoms:
#   ("bool", name, polarity)
#   ("variant", name, variant, polarity)
#   ("num", op, lhs_sym, rhs_sym)  with op in {"=", "<", "<="}


class _Budget:
    """The units a search may still spend (`left`)."""

    def __init__(self, limit: int):
        self.left = limit

    def spend(self, n: int = 1):
        self.left -= n
        if self.left < 0:
            raise _OutOfBudget()


class _OutOfBudget(Exception):
    pass


def _branches(e: SymExpr, pol: bool) -> Iterator[list]:
    match e:
        case SymConst(VBool(b)):
            if b == pol:
                yield []
            return
        case SymVar(name, ty) if ty == BOOL:
            yield [("bool", name, pol)]
            return
        case SymNot(a):
            yield from _branches(a, not pol)
            return
        case SymIsVariant(SymVar(name, _), variant):
            yield [("variant", name, variant, pol)]
            return
        case SymBin("&&" | "||" as op, a, b):
            # A true && or a false || needs both sides; the other two need either.
            if (op == "&&") == pol:
                yield from _product(a, pol, b, pol)
            else:
                yield from itertools.chain(_branches(a, pol), _branches(b, pol))
            return
        case SymBin("=", a, b) if sym_sort(a) == "Bool" or sym_sort(b) == "Bool":
            yield from itertools.chain(_product(a, True, b, pol), _product(a, False, b, not pol))
            return
        case SymBin("=", a, b) if sym_sort(a) == "Enum" or sym_sort(b) == "Enum":
            expanded = _expand_enum_eq(a, b)
            yield from _branches(expanded, pol)
            return
        case SymBin(op, a, b) if op in ("=", "<", "<=", ">", ">="):
            if op == ">":
                op, a, b = "<", b, a
            elif op == ">=":
                op, a, b = "<=", b, a
            if pol:
                yield [("num", op, a, b)]
            elif op == "=":
                yield [("num", "<", a, b)]
                yield [("num", "<", b, a)]
            else:  # !(a < b) is b <= a, !(a <= b) is b < a
                yield [("num", "<=" if op == "<" else "<", b, a)]
            return
    raise NonLinear(f"not a boolean term: {render(e)}")


def _product(a: SymExpr, pa: bool, b: SymExpr, pb: bool) -> Iterator[list]:
    for left in _branches(a, pa):
        for right in _branches(b, pb):
            yield left + right


def _expand_enum_eq(a: SymExpr, b: SymExpr) -> SymExpr:
    ety = None
    for side in (a, b):
        if isinstance(side, SymVar) and isinstance(side.ty, EnumT):
            ety = side.ty
    if ety is None:
        # Both sides constant tags.
        va = a.value.variant if isinstance(a, SymConst) else None
        vb = b.value.variant if isinstance(b, SymConst) else None
        return TRUE if va == vb else FALSE

    def is_v(side: SymExpr, v: str) -> SymExpr:
        if isinstance(side, SymVar):
            return SymIsVariant(side, v)
        assert isinstance(side, SymConst) and isinstance(side.value, VEnum)
        return TRUE if side.value.variant == v else FALSE

    out: Optional[SymExpr] = None
    for v in ety.variant_names():
        both = SymBin("&&", is_v(a, v), is_v(b, v))
        out = both if out is None else SymBin("||", out, both)
    assert out is not None
    return out


# ---------------------------------------------------------------------------
# Round elimination


def _strip_rounds(atoms: list) -> tuple:
    """Replace Round subterms across the branch's numeric atoms with
    integer auxiliaries.  Returns (rewritten atoms, specs) where each spec is
    (aux name, argument term with deeper rounds already stripped)."""
    table: dict = {}
    specs: list = []

    def rewrite(e: SymExpr) -> SymExpr:
        match e:
            case SymRound(arg):
                inner = rewrite(arg)
                if inner not in table:
                    aux = f".round{len(specs)}"
                    table[inner] = SymVar(aux, INT)
                    specs.append((aux, inner))
                return table[inner]
            case SymBin(op, a, b):
                ra, rb = rewrite(a), rewrite(b)
                return e if ra is a and rb is b else SymBin(op, ra, rb)
            case _:
                return e

    return [("num", op, rewrite(a), rewrite(b)) for _, op, a, b in atoms], specs


_HALF = Fraction(1, 2)


def _round_rows(aux: str, arg: SymExpr) -> tuple:
    """The rows defining aux = round(t), t the term `arg`, for t >= 0 and for
    t < 0, each case's three in the order 0 <= t (t < 0), aux - 1/2 <= t
    (<), t < aux + 1/2 (<=), from one linear form of t.  A t that does not
    linearize raises NonLinear naming the first of them."""
    try:
        coeffs, k = linearize(arg)
    except NonLinear:
        raise NonLinear(f"not linear: {render(SymBin('<=', SymConst(VInt(0)), arg))}")
    neg = {n: -c for n, c in coeffs.items()}
    below = _row({aux: 1, **neg}, -_HALF - k, "<=")
    above = _row({**coeffs, aux: -1}, k - _HALF, "<")
    return ([_row(neg, -k, "<="), below, above],
            [_row(coeffs, k, "<"), (*below[:2], "<"), (*above[:2], "<=")])


# ---------------------------------------------------------------------------
# Linear core: integer-row Fourier-Motzkin + branch-and-bound over the integers

# A row is (coeffs: dict, const: int, op: str) standing for
# sum(coeffs[v]*v) + const OP 0, op in {"=", "<=", "<"}, with integer
# entries whose gcd is 1.  A positive multiple of a row stands for the same
# atom, so elimination combines rows in ints, divides by the gcd and keeps
# the tightest of parallel inequalities.  A window is read off by evaluating
# its rows at the values fixed so far: in ints for an integer variable until
# a rational value enters, in Fractions otherwise.


class _Infeasible(Exception):
    pass


def _row(coeffs: dict, const, op: str) -> tuple:
    """The row of sum(coeffs[v]*v) + const OP 0 over rationals: denominators
    cleared with their lcm, then divided by the gcd of the entries."""
    m = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    ints = {n: c.numerator * (m // c.denominator) for n, c in coeffs.items()}
    k = const.numerator * (m // const.denominator)
    g = math.gcd(k, *ints.values()) or 1
    return {n: c // g for n, c in ints.items()}, k // g, op


def _lin_form(atom: tuple, memo: dict) -> Optional[tuple]:
    """The row of a numeric branch atom, None when it does not linearize;
    computed once per memo."""
    if atom not in memo:
        try:
            memo[atom] = _row(*_lin_sum(linearize(atom[2]), linearize(atom[3]), "-"), atom[1])
        except NonLinear:
            memo[atom] = None
    return memo[atom]


def _holds(const: int, op: str) -> bool:
    return SYM_OPS[op](const, 0)


def _combine(a: int, r: tuple, b: int, s: tuple, op: str) -> Optional[tuple]:
    """The row a*r + b*s under `op`, b nonzero.  None when it is ground and
    true; a ground false one raises _Infeasible."""
    coeffs = {n: a * c for n, c in r[0].items()}
    for n, c in s[0].items():
        if d := coeffs.get(n, 0) + b * c:
            coeffs[n] = d
        else:
            del coeffs[n]
    k = a * r[1] + b * s[1]
    if not coeffs:
        if _holds(k, op):
            return None
        raise _Infeasible()
    g = math.gcd(k, *coeffs.values())
    if g > 1:
        coeffs, k = {n: c // g for n, c in coeffs.items()}, k // g
    return coeffs, k, op


def _substitute(rows: list, name: str, eq: tuple) -> list:
    """Eliminate `name` with the equality row `eq`: each row r holding it
    becomes |cv|*r - sign(cv)*c*eq, c its coefficient and cv eq's."""
    cv = eq[0][name]
    out = []
    for r in rows:
        if name in r[0]:
            r = _combine(abs(cv), r, -r[0][name] if cv > 0 else r[0][name], eq, r[2])
            if r is None:
                continue
        out.append(r)
    return out


def _eliminate(rows: list, name: str) -> list:
    """Project `name` out of the system (exact FM; equalities substitute)."""
    for i, r in enumerate(rows):
        if r[2] == "=" and name in r[0]:
            return _prune(_substitute(rows[:i] + rows[i + 1:], name, r))
    uppers, lowers, rest = [], [], []
    for r in rows:
        c = r[0].get(name, 0)
        (uppers if c > 0 else lowers if c < 0 else rest).append(r)
    for u in uppers:
        for l in lowers:
            op = "<" if "<" in (u[2], l[2]) else "<="
            if (r := _combine(-l[0][name], u, u[0][name], l, op)) is not None:
                rest.append(r)
    return _prune(rest)


def _prune(rows: list) -> list:
    """Drop every inequality implied by a parallel one: of the rows c.x + k OP 0
    with one direction c/g (g = gcd(c)), the largest k/g, strict on a tie,
    takes the first one's place.  The polyhedron stays as it is."""
    out, best = [], {}
    for r in rows:
        coeffs, k, op = r
        if op != "=" and coeffs:
            g = math.gcd(*coeffs.values())
            key = frozenset(coeffs.items() if g == 1 else
                            [(n, c // g) for n, c in coeffs.items()])
            if key in best:
                i, g0 = best[key]
                if (d := k * g0 - out[i][1] * g) > 0 or d == 0 and op == "<":
                    best[key], out[i] = (i, g), r
                continue
            best[key] = len(out), g
        out.append(r)
    return out


def _project(rows: list, order=None) -> list:
    """Eliminate every variable the rows mention, in the order of `order`
    (name order when None), and return the chain [rows, rows without the
    first, ..., the ground rows].  Raises _Infeasible when the system has
    no rational solution."""
    if order is None:
        order = sorted({n for coeffs, _, _ in rows for n in coeffs})
    chain = [rows]
    for v in order:
        chain.append(_eliminate(chain[-1], v))
    if not all(_holds(k, op) for _, k, op in chain[-1]):
        raise _Infeasible()
    return chain


def _window(rows: list, name: str, vals: dict, is_int: bool):
    """The window of `name` in rows that mention no other variable than it
    and those fixed in `vals`: (lo, lo_strict, hi, hi_strict), None meaning
    unbounded; with `is_int`, the integers in it as (ilo, ihi), computed in
    ints while the values are ints.  None if it is empty."""
    lo = hi = None
    window = (None, False, None, False)
    for coeffs, t, op in rows:
        for n, a in coeffs.items():  # a loop, not sum(): no generator per row
            if n != name:
                t += a * vals[n]
        c = coeffs[name]
        if not is_int:
            if (window := _tighten(window, c, t, op)) is None:
                return None
            continue
        # c*x + t OP 0 for an integer x is c*x + t' <= 0 (or = 0) for an
        # integer t': t rounded up, or rounded down plus one if strict.
        if type(t) is not int:
            if op == "=" and t.denominator != 1:
                return None
            t = math.floor(t) + 1 if op == "<" else math.ceil(t)
        elif op == "<":
            t += 1
        if c > 0 or op == "=":
            hi = -t // c if hi is None else min(hi, -t // c)
        if c < 0 or op == "=":
            lo = -(t // c) if lo is None else max(lo, -(t // c))
    if is_int:
        return None if lo is not None and hi is not None and lo > hi else (lo, hi)
    return window


def _tighten(window: tuple, c: int, t, op: str) -> Optional[tuple]:
    """`window` (lo, lo_strict, hi, hi_strict) of x narrowed by c*x + t OP 0,
    None when that leaves it empty.  A bound stays an int when c divides an
    int t, as it does in every one-variable row of a threshold (c = 1 or -1)."""
    lo, lo_strict, hi, hi_strict = window
    bound = -t // c if type(t) is int and t % c == 0 else Fraction(-t, c)
    strict = op == "<"
    if c > 0 or op == "=":  # x <= bound
        if hi is None or bound < hi or (bound == hi and strict):
            hi, hi_strict = bound, strict
    if c < 0 or op == "=":  # x >= bound
        if lo is None or bound > lo or (bound == lo and strict):
            lo, lo_strict = bound, strict
    if lo is not None and hi is not None and (lo > hi or lo == hi and (lo_strict or hi_strict)):
        return None
    return lo, lo_strict, hi, hi_strict


def _int_candidates(ilo, ihi, budget: _Budget) -> Iterator[int]:
    """Integers within a nonempty window in order of |x|, ties toward
    nonnegative: k counts up from the least magnitude in the window, each
    k gives k and then -k where they are inside, and the first k with
    neither ends the walk."""
    k = ilo if ilo is not None and ilo > 0 else -ihi if ihi is not None and ihi < 0 else 0
    while True:
        hit = False
        for x in (k, -k) if k else (0,):
            if (ilo is None or x >= ilo) and (ihi is None or x <= ihi):
                budget.spend()
                yield x
                hit = True
        if not hit:
            return
        k += 1


def _pick_rational(rows: list, name: str, vals: dict) -> Fraction:
    """The value of least magnitude among 0 and the integers inside the
    nonempty window of `_window(rows, name, vals, ...)`, else its midpoint."""
    window = _window(rows, name, vals, True)
    if window is None:
        lo, _, hi, _ = _window(rows, name, vals, False)
        return Fraction(lo + hi, 2)
    ilo, ihi = window
    k = 0 if ilo is None else max(0, ilo)
    return Fraction(k if ihi is None else min(k, ihi))


def _window_rows(rows: list, todo: list) -> Optional[list]:
    """The rows each window of `_solve_linear` is read from, None when the
    rows have no rational solution.  Item d lists the windows read with the
    first d variables of `todo` (`[(name, is_int), ...]`, all mentioned)
    fixed: the d-th variable's own, then every later integer's, each as
    (name, is_int, rows), and item k none.  Each is read from the
    projection of the rows onto the fixed variables and it (k variables
    take at most k(k+1)/2 eliminations)."""
    try:
        proj = _project(rows, [n for n, _ in reversed(todo)])[::-1] if rows else ()
    except _Infeasible:
        return None
    reads = [[] for _ in range(len(todo) + 1)]
    for j, (name, is_int) in enumerate(todo):
        system = proj[j + 1]
        for d in range(j, -1 if is_int else j - 1, -1):
            if d < j:
                system = _eliminate(system, todo[d][0])
            reads[d].append((name, is_int, [r for r in system if name in r[0]]))
    return reads


def _int_unsolvable(rows: list, todo: list) -> bool:
    """Whether the equality rows over integers of `todo` alone have no
    integer solution, by the Omega test's equality step (Pugh, CACM 1992):
    substitute away each variable with a coefficient of 1 or -1, then look
    for a row whose coefficients' gcd does not divide its constant.  False
    at once when no such row has two variables (`_window` decides one)."""
    ints = {n for n, is_int in todo if is_int}
    eqs = [r for r in rows if r[2] == "=" and r[0] and ints.issuperset(r[0])]
    if all(len(r[0]) == 1 for r in eqs):
        return False
    try:
        while unit := next(((i, n) for i, r in enumerate(eqs)
                            for n, c in r[0].items() if c in (1, -1)), None):
            i, n = unit
            eqs = _substitute(eqs[:i] + eqs[i + 1:], n, eqs[i])
    except _Infeasible:
        return True
    return any(k % math.gcd(*coeffs.values()) for coeffs, k, _ in eqs)


def _int_bounds(rows: list, todo: list) -> Optional[dict]:
    """Bounds lo <= v <= hi that every integer solution of `rows` satisfies,
    as {v: its rows lo - v <= 0 and v - hi <= 0 that are finite}: interval
    propagation with integer rounding over the rows whose variables are all
    integers in `todo`, at most one sweep per integer of `todo` and one
    more.  None when two bounds cross."""
    ints = {n for n, is_int in todo if is_int}
    les = []  # sum(c*v) <= r as (items, r); over integers, c.v + k < 0 is c.v <= -k - 1
    for coeffs, k, op in rows:
        if coeffs and ints.issuperset(coeffs):
            items = list(coeffs.items())
            les.append((items, -k - (op == "<")))
            if op == "=":
                les.append(([(n, -c) for n, c in items], k))
    lo: dict = {}
    hi: dict = {}
    for _ in range(len(ints) + 1):
        changed = False
        for items, r in les:
            # r less each term's least value; at most one term, `free`, has none.
            free = None
            for n, c in items:
                if (b := (lo if c > 0 else hi).get(n)) is not None:
                    r -= c * b
                elif free is None:
                    free = n
                else:
                    break
            else:
                for n, c in items:
                    if free is None:
                        s = r + c * (lo if c > 0 else hi)[n]
                    elif n == free:
                        s = r
                    else:
                        continue
                    if c > 0:
                        if (b := s // c) < hi.get(n, b + 1):
                            hi[n], changed = b, True
                    elif (b := -(s // -c)) > lo.get(n, b - 1):
                        lo[n], changed = b, True
                    if n in lo and n in hi and lo[n] > hi[n]:
                        return None
        if not changed:
            break
    clip: dict = {n: [({n: -1}, b, "<=")] for n, b in lo.items()}
    for n, b in hi.items():
        clip.setdefault(n, []).append(({n: 1}, -b, "<="))
    return clip


def _solve_linear(rows: list, order: list, budget: _Budget) -> Optional[dict]:
    """Assign the ordered variables; `order` is [(name, is_int), ...].
    Returns a partial model over mentioned variables, or None when the rows
    have no solution with the integers integral.  Only the variables that
    some row holds with another (tied) are searched, over the rows that
    hold them and the ground rows.  Any other's window depends on no value
    (constraint independence, as in KLEE): an empty one answers None before
    the search, and after it the variable takes the window's value of least
    magnitude: for an integer, its first candidate, at one unit.  A None
    that follows a value a rational variable took, that its window did not
    force and that a later integer window depends on, proves nothing:
    another value might have completed.  Then the same rows are searched
    again, on the same budget, with every integer before every rational,
    where a rational is fixed only once the integers are and always
    extends."""
    mentioned = {n for coeffs, _, _ in rows for n in coeffs}
    tied = {n for coeffs, _, _ in rows if len(coeffs) > 1 for n in coeffs}
    variables = [(n, is_int) for n, is_int in order if n in mentioned]
    todo = [(n, is_int) for n, is_int in variables if n in tied]
    untied = [(n, is_int, [r for r in rows if n in r[0]])
              for n, is_int in variables if n not in tied]
    system = [r for r in rows if not r[0] or not tied.isdisjoint(r[0])]
    own_windows = [_window(own, n, {}, is_int) for n, is_int, own in untied]
    # `_int_bounds` sweeps once per integer of `variables`, not of `todo`:
    # fewer sweeps can leave looser bounds and more candidates.
    if None in own_windows or (clip := _int_bounds(system, variables)) is None or \
            _int_unsolvable(system, todo) or (reads := _window_rows(system, todo)) is None:
        return None
    if clip:
        # Every integer solution lies within the bounds, so clipping each
        # integer window to them only drops candidates and completions that
        # have no solution; rational windows stay as projected.
        reads = [[(n, is_int, rs + clip[n] if n in clip else rs) for n, is_int, rs in read]
                 for read in reads]
    vals: dict = {}

    # Invariant: the rows have a rational solution with the first d
    # variables at their values in `vals`.  A projection onto variables it
    # keeps commutes with fixing them, so its rows, read at those values,
    # give the exact window, and a value inside it keeps the invariant.
    # Only integrality can fail, which the window pruning and the candidate
    # backtracking handle.
    def go(d: int) -> Optional[dict]:
        if d == len(todo):
            return dict(vals)
        # Integral-emptiness pruning: if any pending integer variable's
        # window holds no integer, the fixed values have no integer
        # completion.  No window costs budget.
        windows = [_window(rs, n, vals, True) for n, n_int, rs in reads[d] if n_int]
        if None in windows:
            return None
        name, is_int = todo[d]
        own = reads[d][0][2]
        for c in (_int_candidates(*windows[0], budget) if is_int
                  else [_pick_rational(own, name, vals)]):
            vals[name] = c
            if (out := go(d + 1)) is not None:
                return out
        if not is_int:
            # Another value of the window might complete, if an integer
            # window read below depends on it.
            lo, _, hi, _ = _window(own, name, vals, False)
            if (lo is None or lo != hi) and any(
                    name in coeffs for later in reads[d + 1:]
                    for _, n_int, rs in later if n_int for coeffs, _, _ in rs):
                untried.append(name)
        return None

    untried: list = []
    if (out := go(0)) is None:
        return _solve_linear(rows, sorted(variables, key=lambda v: not v[1]), budget) \
            if untried else None
    for (name, is_int, own), window in zip(untied, own_windows):
        out[name] = next(_int_candidates(*window, budget)) if is_int \
            else _pick_rational(own, name, {})
    return out


# ---------------------------------------------------------------------------
# Full builtin check


def _prepared(lit: SymExpr, memo: dict) -> list:
    """The literal's memo entry [simplify(lit), alternatives or None], made once
    per memo; a negation's reuses its argument's: simplify(!a) is !simplify(a)."""
    entry = memo.get(lit)
    if entry is None:
        s = sym_not(_prepared(lit.arg, memo)[0]) if isinstance(lit, SymNot) \
            else simplify(lit)
        entry = memo[lit] = [s, None]
    return entry


def _alternatives(lit: SymExpr, memo: dict) -> list:
    """The simplified literal's case-split alternatives in DNF order, each
    paired with the linear forms of its numeric atoms that linearize."""
    entry = _prepared(lit, memo)
    if entry[1] is None:
        entry[1] = [
            (alt, [f for a in alt if a[0] == "num" and (f := _lin_form(a, memo))])
            for alt in _branches(entry[0], True)]
    return entry[1]


def _assume(facts: tuple, alt: list, forms: list) -> Optional[tuple]:
    """Unit facts (bools, tags, bounds), each boolean's value, each enum's
    allowed variants and each numeric variable's window, with those that an
    alternative's atoms `alt` and one-variable rows in `forms` fix added;
    None when they clash.  The dicts are replaced, never changed."""
    bools, tags, bounds = facts
    for atom in alt:
        if atom[0] == "bool":
            if bools.get(atom[1], atom[2]) != atom[2]:
                return None
            bools = {**bools, atom[1]: atom[2]}
        elif atom[0] == "variant":
            _, name, variant, pol = atom
            if not (allowed := tags[name] & {variant} if pol else tags[name] - {variant}):
                return None
            tags = {**tags, name: allowed}
    for row in forms:
        if len(row[0]) == 1:
            ((name, c),) = row[0].items()
            if (window := _tighten(bounds.get(name, (None, False, None, False)), c,
                                   row[1], row[2])) is None:
                return None
            bounds = {**bounds, name: window}
    return bools, tags, bounds


def _feasible(rows: list, bounds: dict) -> bool:
    """Whether `rows` and the windows in `bounds` of the variables they
    mention have a rational solution (Fourier-Motzkin)."""
    for n in sorted({n for coeffs, _, _ in rows for n in coeffs} & bounds.keys()):
        lo, lo_strict, hi, hi_strict = bounds[n]
        rows = rows + [_row({n: s}, -s * b, "<" if strict else "<=") for s, b, strict
                       in ((-1, lo, lo_strict), (1, hi, hi_strict)) if b is not None]
    try:
        _project(rows)
    except _Infeasible:
        return False
    return True


class _Frames:
    """A conjunction prepared one literal (frame) at a time.  A literal with
    one alternative adds its atoms to `units`, its facts to `facts` and its
    rows of other than one variable to `root`; one with more is a choice,
    kept with the number of unit atoms before it.  `status` is what the
    frames decide before any search: the first undeclared-variable error,
    the first literal that is not a boolean term (NonLinear), and whether
    one simplified to false or clashed with the facts, in that precedence.
    `truncate` cuts every list back to its length at a depth, facts too."""

    def __init__(self, memo: dict, decls: tuple):
        self.memo = memo
        self.root: list = []
        self.units: list = []
        self.choices: list = []  # (len(units) before it, alternatives)
        self.marks: list = []  # per frame: the lengths, status and facts before it
        self.status = (None, None, False)
        self.facts = ({}, {l.name: frozenset(l.ty.variant_names()) for l in decls
                           if isinstance(l.ty, EnumT)}, {})

    def push(self, lit: SymExpr, declared) -> None:
        usage, reason, false = status = self.status
        if usage is None and (undeclared := sym_free_vars(lit) - declared):
            usage = f"undeclared variables {sorted(undeclared)}"
        try:
            alts = _alternatives(lit, self.memo)
        except NonLinear as e:
            alts = None
            if reason is None:
                reason = str(e)
        self.marks.append((len(self.root), len(self.units), len(self.choices), status,
                           self.facts))
        if alts is not None:
            if not alts:
                false = True
            elif len(alts) == 1:
                alt, forms = alts[0]
                self.root += [f for f in forms if len(f[0]) != 1]
                self.units += alt
                # Once the status decides the check, the facts are not read.
                if usage is None and reason is None and not false:
                    facts = _assume(self.facts, alt, forms)
                    false = facts is None
                    self.facts = facts or self.facts
            else:
                self.choices.append((len(self.units), alts))
        self.status = usage, reason, false

    def truncate(self, depth: int) -> None:
        if depth < len(self.marks):
            r, u, c, self.status, self.facts = self.marks[depth]
            del self.root[r:], self.units[u:], self.choices[c:], self.marks[depth:]

    def check(self, decls: tuple, retain: dict, budget_limit: int) -> object:
        """Decide the conjunction of the frames' literals."""
        usage, reason, false = self.status
        if usage is not None:
            raise SolverUsageError(usage)
        if reason is not None:
            return Unknown(reason)
        if false:
            return UNSAT
        budget = _Budget(budget_limit)
        # From here `reason` says why the search cannot answer Unsat, if it
        # cannot.  Every literal with one alternative holds on every branch:
        # its facts agree, and its rows make one root system, tested once
        # before any choice.
        try:
            if self.root and not _feasible(self.root, self.facts[2]):
                budget.spend()
                return UNSAT
            for branch, facts in _search(self.choices, self.units, 0, 0, [], self.root,
                                         self.facts, budget):
                budget.spend()
                try:
                    result = _solve_branch(branch, facts, decls, retain, budget, self.memo)
                except NonLinear as e:
                    reason = reason or str(e)
                    continue
                if result is not None:
                    return Sat(result)
        except _OutOfBudget:
            reason = reason or "case-split budget exhausted"
        return UNSAT if reason is None else Unknown(reason)


def _search(choices: list, units: list, j: int, start: int, branch: list,
            root: list, facts: tuple, budget: _Budget) -> Iterator[tuple]:
    """The complete branches that extend `branch` (the atoms of every
    literal before choice `j`, up to `units[start]`) in DNF order, with
    their facts; the unit atoms between two choices are joined in as they
    come.  `root` and `facts` include the choices made above.  An
    alternative whose facts clash, or whose rows have no rational solution
    with them, is cut for one unit of budget, which each branch it stands
    for would cost at least."""
    if j == len(choices):
        yield branch + units[start:], facts
        return
    pos, alts = choices[j]
    branch = branch + units[start:pos]
    for alt, forms in alts:
        joint = [f for f in forms if len(f[0]) != 1]
        system = root + joint if joint else root
        if (found := _assume(facts, alt, forms)) is None or \
                forms and system and not _feasible(system, found[2]):
            budget.spend()
            continue
        yield from _search(choices, units, j + 1, pos, branch + alt, system, found, budget)


def _solve_branch(branch: list, facts: tuple, decls: tuple, retain: dict,
                  budget: _Budget, memo: dict) -> Optional[dict]:
    """A model of a branch whose `facts` agree, None if its rows have none."""
    num_atoms, specs = _strip_rounds([a for a in branch if a[0] == "num"])
    order = [(l.name, l.ty in (INT, MONEY)) for l in decls
             if l.ty != BOOL and not isinstance(l.ty, EnumT)]
    order += [(aux, True) for aux, _ in specs]

    # Each Round sign case costs one unit of budget; the first is charged
    # before the branch's atoms are linearized (a NonLinear atom still pays
    # for it).  Every case reads the rows built here, once per branch.
    if specs:
        budget.spend()
    system = [_lin_form(a, memo) for a in num_atoms]
    if None in system:
        _, op, a, b = num_atoms[system.index(None)]
        raise NonLinear(f"not linear: {render(SymBin(op, a, b))}")
    for i, case in enumerate(itertools.product(*(_round_rows(*s) for s in specs))):
        if i:
            budget.spend()
        solution = _solve_linear(system + [r for rows in case for r in rows], order, budget)
        if solution is not None:
            return _fill_model(decls, facts[0], facts[1], solution, retain)
    return None


def _fill_model(decls: tuple, bools: dict, allowed: dict, nums: dict,
                retain: dict) -> dict:
    model: dict = {}
    for leaf in decls:
        name, ty = leaf.name, leaf.ty
        if isinstance(ty, EnumT):
            sets = allowed.get(name, set(ty.variant_names()))
            retained = retain.get(name)
            if isinstance(retained, VEnum) and retained.variant in sets:
                model[name] = VEnum(ty.name, retained.variant)
            else:
                pick = next(v for v in ty.variant_names() if v in sets)
                model[name] = VEnum(ty.name, pick)
        elif ty == BOOL:
            if name in bools:
                model[name] = VBool(bools[name])
            else:
                model[name] = retain.get(name, VBool(False))
        else:
            if name in nums:
                model[name] = _num_value(ty, nums[name])
            else:
                model[name] = retain.get(name, default_value(ty))
    return model


def _num_value(ty, f: int | Fraction) -> Value:
    """The value of a numeric variable solved as `f`, which is integral (an
    int, or a Fraction of denominator 1) for an integer or money variable."""
    if ty == INT:
        assert f.denominator == 1
        return VInt(f.numerator)
    if ty == MONEY:
        assert f.denominator == 1
        return VMoney(f.numerator)
    return VRat(f)


# ---------------------------------------------------------------------------
# Sessions

SOFT_TIERS = (("T100", 10000), ("T10", 1000), ("T1", 100))


def divisibility_constraints(decls, money_vars, unit: int) -> tuple:
    """Extend declarations and literals so every named money variable is a
    multiple of `unit` cents.  Each fresh multiplier is inserted immediately
    before its money variable so the minimal-|money| enumeration walks
    multiples of the unit instead of single cents.  A literal's terms are
    the declarations themselves: the money variable's and its multiplier's."""
    decls = list(decls)
    lits = []
    for m in money_vars:
        idx = next(i for i, l in enumerate(decls) if l.name == m)
        aux = SymVar(f".mult{unit}.{m}", INT)
        lits.append(SymBin("=", decls[idx], SymBin("*", SymConst(VInt(unit)), aux)))
        decls.insert(idx, aux)
    return tuple(decls), tuple(lits)


class SolverSession:
    """An assertion stack, one literal per `push`, over fixed declarations.

    `check(extra)` decides the stack's literals and `extra` as one whole
    query, so a check's answer depends on its literals alone.  The builtin
    backend keeps the stack prepared frame by frame (`_Frames`): a literal
    is checked for undeclared variables and its alternatives are looked up
    once, at the first check after its push, and `pop` cuts the frames back,
    so a check prepares only its `extra` literals however deep the prefix
    is.  The frames are built only for the builtin backend; a `Query` only
    for `on_query` or an external backend.  `_memo` keeps what is derived
    from one literal alone (simplification, alternatives, linear forms) for
    the session's life, so neither a frame nor `literal_key` prepares a
    literal, or its negation, a second time.  What a check still pays for is
    its root test and case splits.  The soft ladder over the money
    declarations is the session's too, built once: `check_soft` walks it
    and `tier_of` places a model on it.
    """

    def __init__(self, decls, backend=None, budget: int = DEFAULT_BUDGET,
                 on_query=None, retain=None):
        self.decls = tuple(decls)
        self.stack: list = []
        self.retain: dict = {} if retain is None else retain
        self.backend = backend  # None -> builtin; else an ExternalSolver
        self.budget = budget
        self.stats = SolverStats()
        self.on_query = on_query  # callback(Query) for SMT-LIB emission
        self._memo: dict = {}
        self._frames = _Frames(self._memo, self.decls)  # of a prefix of `stack`
        self._money = [l.name for l in self.decls if l.ty == MONEY]
        # The soft ladder: the leaves with every tier's multipliers; each tier's literals.
        self._ladder, self._tiers = self.decls, []
        for _, unit in SOFT_TIERS if self._money else ():
            self._ladder, lits = divisibility_constraints(self._ladder, self._money, unit)
            self._tiers.append(lits)

    # -- stack ------------------------------------------------------------

    def push(self, literal) -> None:
        self.stack.append(literal)
        self.stats.pushes += 1

    def pop(self) -> None:
        if not self.stack:
            raise SolverUsageError("pop on empty assertion stack")
        self.stack.pop()
        self._frames.truncate(len(self.stack))
        self.stats.pops += 1

    def literal_key(self, literal) -> Optional[str]:
        """Rendering of the simplified literal, under which repeated literals
        are found; None when it simplifies to a boolean constant."""
        s = _prepared(literal, self._memo)[0]
        return None if s in (TRUE, FALSE) else render(s)

    # -- solving ----------------------------------------------------------

    def _decide(self, decls: tuple, extra: tuple) -> object:
        """Issue one query, the stack and `extra` over `decls`: emit it, solve
        it, model-check a Sat and count the verdict, or the `SolverFailure`
        that ended it, so `solver_calls` is always sat + unsat + unknown +
        solver_failures.  In an external model, every declaration that no
        literal mentions takes its retained value, as in a builtin one,
        before the model is checked.  A builtin model that violates the
        query is a bug here (AssertionError); an external one is a
        `SolverFailure`."""
        if self.backend is not None or self.on_query is not None:
            query = Query(decls, (*self.stack, *extra))
            if self.on_query is not None:
                self.on_query(query)
        if self.backend is not None:
            self.stats.solver_calls += 1
            try:
                res = self.backend.check(query, session=self)
                if isinstance(res, Sat):
                    mentioned = set().union(*map(sym_free_vars, query.literals))
                    res = Sat({n: v if n in mentioned else self.retain.get(n, v)
                               for n, v in res.model.items()})
                    _assert_model(res.model, query.literals, SolverFailure)
            except SolverFailure:
                self.stats.solver_failures += 1
                raise
        else:
            frames, depth = self._frames, len(self.stack)
            declared = {l.name for l in decls}
            for lit in self.stack[len(frames.marks):]:
                frames.push(lit, declared)
            try:
                for lit in extra:
                    frames.push(lit, declared)
                res = frames.check(decls, self.retain, self.budget)
            finally:
                frames.truncate(depth)
            self.stats.solver_calls += 1
            if isinstance(res, Sat):
                _assert_model(res.model, (*self.stack, *extra))
        if isinstance(res, Sat):
            self.stats.sat += 1
        elif isinstance(res, Unsat):
            self.stats.unsat += 1
        else:
            self.stats.unknown += 1
        return res

    def check(self, extra=()) -> object:
        return self._decide(self.decls, extra)

    def check_soft(self, extra=()) -> object:
        """Hard check first; on Sat, walk the soft ladder for the session's
        money variables jointly (multiples of $100, $10, $1) and return the
        first satisfiable tier's model, else the hard one, either over the
        leaves alone; `tier_of` names its tier.  The hard check and every
        tier are asked over the one declaration set built in `__init__`, so
        an external backend keeps them incremental.  With no money variable,
        the hard check's answer as it is."""
        hard = self._decide(self._ladder, extra)
        if not isinstance(hard, Sat) or not self._tiers:
            return hard
        for tier_lits in self._tiers:
            res = self._decide(self._ladder, (*extra, *tier_lits))
            if isinstance(res, Sat):
                hard = res
                break
        return Sat({l.name: hard.model[l.name] for l in self.decls})

    def tier_of(self, leaf_env: dict) -> Optional[str]:
        """A model's tier: the first soft tier whose unit divides every money
        variable's value in `leaf_env`, None if none or no money variable."""
        if self._money:
            for tier_name, unit in SOFT_TIERS:
                if all(leaf_env[m].cents % unit == 0 for m in self._money):
                    return tier_name
        return None


def _assert_model(model: dict, literals, error=AssertionError) -> None:
    for lit in literals:
        try:
            ok = sym_eval_bool(lit, model)
        except ZeroDivisionError:
            ok = False
        if not ok:
            raise error(f"solver produced a model violating {render(lit)}")
