"""Differential oracle: the builtin solver's Fourier-Motzkin linear core as
it stood before the core was reduced to one projection, one substitution and
one integer window, together with the branch pipeline that drives it.

The code below `_BRANCH_CAP` is kept verbatim so that tests can require the
live solver to return the same verdicts, models and budget exhaustion.  Do
not edit it to follow changes in `defcalc.solver`; a difference is the
thing the tests look for.  `_BRANCH_CAP` itself came from `defcalc.solver`
until the live search dropped the cap and kept one budget, and
`_round_cases` until the live branch built each Round's rows from one
linear form of its argument.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator, Optional

from defcalc.lang import BOOL, INT, MONEY, EnumT, VInt, VRat
from defcalc.solver import (
    DEFAULT_BUDGET, UNSAT, NonLinear, Sat, Unknown, _branches, _Budget,
    _fill_model, _OutOfBudget, _strip_rounds, linearize, simplify,
)
from defcalc.symbolic import FALSE, TRUE, SymBin, SymConst, SymExpr, SymVar

_BRANCH_CAP = 4096

# ---------------------------------------------------------------------------
# Round sign cases as atoms, as `defcalc.solver` built them before it built
# each case's rows straight from one linear form of the Round argument.

_HALF = Fraction(1, 2)


def _round_cases(specs: list) -> Iterator[list]:
    """All sign-split assignments for the round specs, each yielding the
    defining linear atoms."""
    per_spec = []
    half = SymConst(VRat(_HALF))
    for aux, arg in specs:
        v = SymVar(aux, INT)
        nonneg = [
            ("num", "<=", SymConst(VInt(0)), arg),
            ("num", "<=", SymBin("-", v, half), arg),   # aux - 1/2 <= t
            ("num", "<", arg, SymBin("+", v, half)),     # t < aux + 1/2
        ]
        negative = [
            ("num", "<", arg, SymConst(VInt(0))),
            ("num", "<", SymBin("-", v, half), arg),     # aux - 1/2 < t
            ("num", "<=", arg, SymBin("+", v, half)),    # t <= aux + 1/2
        ]
        per_spec.append([nonneg, negative])
    for combo in itertools.product(*per_spec):
        yield [a for case in combo for a in case]


# ---------------------------------------------------------------------------
# Linear core: Fourier-Motzkin + branch-and-bound over the integers

# A linear atom is (coeffs: dict, const: Fraction, op: str) standing for
# sum(coeffs[v]*v) + const OP 0, op in {"=", "<=", "<"}.


class _Infeasible(Exception):
    pass


def _lin_atoms(atoms: list) -> list:
    out = []
    for _, op, a, b in atoms:
        c1, k1 = _fractions(linearize(a))
        c2, k2 = _fractions(linearize(b))
        coeffs = dict(c1)
        for n, c in c2.items():
            coeffs[n] = coeffs.get(n, Fraction(0)) - c
            if coeffs[n] == 0:
                del coeffs[n]
        out.append((coeffs, k1 - k2, op))
    return out


def _fractions(form: tuple) -> tuple:
    """`linearize`'s form with every entry a Fraction: it keeps integral
    entries as ints, and this oracle's arithmetic divides them."""
    coeffs, const = form
    return {n: Fraction(c) for n, c in coeffs.items()}, Fraction(const)


def _check_ground(coeffs: dict, const: Fraction, op: str) -> Optional[bool]:
    if coeffs:
        return None
    return {"=": const == 0, "<=": const <= 0, "<": const < 0}[op]


def _substitute(atoms: list, name: str, value: Fraction) -> list:
    out = []
    for coeffs, const, op in atoms:
        if name in coeffs:
            coeffs = dict(coeffs)
            const = const + coeffs.pop(name) * value
        g = _check_ground(coeffs, const, op)
        if g is False:
            raise _Infeasible()
        if g is True:
            continue
        out.append((coeffs, const, op))
    return out


def _eliminate(atoms: list, name: str) -> list:
    """Project `name` out of the system (exact FM; equalities substitute)."""
    for i, (coeffs, const, op) in enumerate(atoms):
        if op == "=" and name in coeffs:
            cv = coeffs[name]
            rest = {n: -c / cv for n, c in coeffs.items() if n != name}
            rconst = -const / cv
            out = []
            for j, (c2, k2, op2) in enumerate(atoms):
                if j == i:
                    continue
                if name not in c2:
                    out.append((c2, k2, op2))
                    continue
                c = c2[name]
                merged = {n: v for n, v in c2.items() if n != name}
                for n, v in rest.items():
                    merged[n] = merged.get(n, Fraction(0)) + c * v
                    if merged[n] == 0:
                        del merged[n]
                k = k2 + c * rconst
                g = _check_ground(merged, k, op2)
                if g is False:
                    raise _Infeasible()
                if g is True:
                    continue
                out.append((merged, k, op2))
            return out
    uppers, lowers, rest = [], [], []
    for coeffs, const, op in atoms:
        c = coeffs.get(name, Fraction(0))
        if c > 0:
            uppers.append((coeffs, const, op))
        elif c < 0:
            lowers.append((coeffs, const, op))
        else:
            rest.append((coeffs, const, op))
    for (cu, ku, opu) in uppers:
        for (cl, kl, opl) in lowers:
            a, b = cu[name], -cl[name]  # a, b > 0
            merged: dict = {}
            for n, v in cu.items():
                if n != name:
                    merged[n] = merged.get(n, Fraction(0)) + b * v
            for n, v in cl.items():
                if n != name:
                    merged[n] = merged.get(n, Fraction(0)) + a * v
            merged = {n: v for n, v in merged.items() if v != 0}
            k = b * ku + a * kl
            op = "<" if "<" in (opu, opl) and (opu == "<" or opl == "<") else "<="
            g = _check_ground(merged, k, op)
            if g is False:
                raise _Infeasible()
            if g is True:
                continue
            rest.append((merged, k, op))
    return rest


def _bounds_of(atoms: list, name: str) -> tuple:
    """Project all other variables away and read off bounds for `name`:
    (lo, lo_strict, hi, hi_strict), None meaning unbounded."""
    sys = atoms
    others = sorted({n for coeffs, _, _ in atoms for n in coeffs} - {name})
    for v in others:
        sys = _eliminate(sys, v)
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for coeffs, const, op in sys:
        if name not in coeffs:
            g = _check_ground(coeffs, const, op)
            if g is False:
                raise _Infeasible()
            continue
        c = coeffs[name]
        bound = -const / c
        if op == "=":
            if (lo is None or bound > lo or (bound == lo and not lo_strict)):
                lo, lo_strict = bound, False
            if (hi is None or bound < hi or (bound == hi and not hi_strict)):
                hi, hi_strict = bound, False
            continue
        strict = op == "<"
        if c > 0:  # name <= bound
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
        else:  # name >= bound
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            raise _Infeasible()
    return lo, lo_strict, hi, hi_strict


def _feasible(atoms: list) -> bool:
    sys = atoms
    try:
        for v in sorted({n for coeffs, _, _ in atoms for n in coeffs}):
            sys = _eliminate(sys, v)
        for coeffs, const, op in sys:
            if _check_ground(coeffs, const, op) is False:
                return False
        return True
    except _Infeasible:
        return False


def _int_window_empty(lo, lo_strict, hi, hi_strict) -> bool:
    if lo is None or hi is None:
        return False
    ilo = (lo.numerator + (1 if lo_strict else 0)) if lo.denominator == 1 \
        else int(lo.__ceil__())
    ihi = (hi.numerator - (1 if hi_strict else 0)) if hi.denominator == 1 \
        else int(hi.__floor__())
    return ilo > ihi


def _int_candidates(lo, lo_strict, hi, hi_strict, budget: _Budget) -> Iterator[int]:
    """Integers within the bounds in order of |x|, ties toward nonnegative."""
    if lo is None:
        ilo = None
    elif lo.denominator == 1:
        ilo = lo.numerator + 1 if lo_strict else lo.numerator
    else:
        ilo = int(lo.__ceil__())
    if hi is None:
        ihi = None
    elif hi.denominator == 1:
        ihi = hi.numerator - 1 if hi_strict else hi.numerator
    else:
        ihi = int(hi.__floor__())
    if ilo is not None and ihi is not None and ilo > ihi:
        return
    if ilo is not None and ilo > 0:
        k = ilo
        while ihi is None or k <= ihi:
            budget.spend()
            yield k
            k += 1
        return
    if ihi is not None and ihi < 0:
        k = ihi
        while ilo is None or k >= ilo:
            budget.spend()
            yield k
            k -= 1
        return
    k = 0
    while True:
        hit = False
        if (ihi is None or k <= ihi) and (ilo is None or k >= ilo):
            budget.spend()
            yield k
            hit = True
        if k > 0 and (ilo is None or -k >= ilo) and (ihi is None or -k <= ihi):
            budget.spend()
            yield -k
            hit = True
        if not hit and k > 0:
            return
        k += 1


def _pick_rational(lo, lo_strict, hi, hi_strict) -> Fraction:
    def inside(x: Fraction) -> bool:
        if lo is not None and (x < lo or (x == lo and lo_strict)):
            return False
        if hi is not None and (x > hi or (x == hi and hi_strict)):
            return False
        return True

    if inside(Fraction(0)):
        return Fraction(0)
    # Prefer the integer of least magnitude inside the interval.
    if lo is not None and (hi is None or lo >= 0):
        i = Fraction(int(lo.__ceil__()))
        if i == lo and lo_strict:
            i += 1
        if inside(i):
            return i
    if hi is not None and (lo is None or hi <= 0):
        i = Fraction(int(hi.__floor__()))
        if i == hi and hi_strict:
            i -= 1
        if inside(i):
            return i
    if lo is not None and hi is not None:
        return (lo + hi) / 2
    if lo is not None:
        return lo + 1
    assert hi is not None
    return hi - 1


def _solve_linear(atoms: list, order: list, budget: _Budget) -> Optional[dict]:
    """Assign the ordered variables; `order` is [(name, is_int), ...].
    Returns a partial model over mentioned variables, or None."""
    mentioned = {n for coeffs, _, _ in atoms for n in coeffs}
    for coeffs, const, op in atoms:
        if _check_ground(coeffs, const, op) is False:
            return None
    if not _feasible(atoms):
        return None
    todo = [(n, is_int) for n, is_int in order if n in mentioned]

    def go(system: list, pending: list, acc: dict) -> Optional[dict]:
        if not pending:
            return acc
        still = {n for coeffs, _, _ in system for n in coeffs}
        # Integral-emptiness pruning: if any pending integer variable's
        # projected window holds no integer, the branch is infeasible no
        # matter what the enumeration on earlier variables does.
        windows = {}
        for n, n_int in pending:
            if not n_int or n not in still:
                continue
            try:
                b = _bounds_of(system, n)
            except _Infeasible:
                return None
            windows[n] = b
            if _int_window_empty(*b):
                return None
        name, is_int = pending[0]
        if name not in still:
            # Dropped by simplification along the way; value is free.
            return go(system, pending[1:], acc)
        try:
            lo, los, hi, his = windows.get(name) or _bounds_of(system, name)
        except _Infeasible:
            return None
        if is_int:
            for c in _int_candidates(lo, los, hi, his, budget):
                try:
                    nxt = _substitute(system, name, Fraction(c))
                except _Infeasible:
                    continue
                if not _feasible(nxt):
                    continue
                out = go(nxt, pending[1:], {**acc, name: Fraction(c)})
                if out is not None:
                    return out
            return None
        x = _pick_rational(lo, los, hi, his)
        try:
            nxt = _substitute(system, name, x)
        except _Infeasible:
            return None
        return go(nxt, pending[1:], {**acc, name: x})

    return go(atoms, todo, {})


# ---------------------------------------------------------------------------
# Full builtin check


def _builtin_check(decls: tuple, literals: tuple, retain: dict,
                   budget_limit: int = DEFAULT_BUDGET) -> object:
    budget = _Budget(budget_limit)
    literals = tuple(simplify(l) for l in literals)
    if any(l == FALSE for l in literals):
        return UNSAT
    literals = tuple(l for l in literals if l != TRUE)

    leaf_by_name = {l.name: l for l in decls}
    enum_decls = {l.name: l.ty for l in decls if isinstance(l.ty, EnumT)}

    conj: Optional[SymExpr] = None
    for l in literals:
        conj = l if conj is None else SymBin("&&", conj, l)
    if conj is None:
        return Sat(_fill_model(decls, {}, {}, {}, retain))

    had_unknown = False
    try:
        branch_iter = _branches(conj, True)
    except NonLinear as e:
        return Unknown(str(e))

    count = 0
    while True:
        try:
            branch = next(branch_iter)
        except StopIteration:
            break
        except NonLinear as e:
            return Unknown(str(e))
        count += 1
        if count > _BRANCH_CAP:
            had_unknown = True
            break
        try:
            budget.spend()
            result = _solve_branch(branch, decls, enum_decls, retain, budget)
        except _OutOfBudget:
            had_unknown = True
            break
        except NonLinear:
            had_unknown = True
            continue
        if result is not None:
            return Sat(result)
    if had_unknown:
        return Unknown("case-split budget exhausted")
    return UNSAT


def _solve_branch(branch: list, decls: tuple, enum_decls: dict,
                  retain: dict, budget: _Budget) -> Optional[dict]:
    bools: dict = {}
    allowed = {n: set(t.variant_names()) for n, t in enum_decls.items()}
    num_atoms = []
    for atom in branch:
        match atom:
            case ("bool", name, pol):
                if bools.get(name, pol) != pol:
                    return None
                bools[name] = pol
            case ("variant", name, variant, pol):
                if pol:
                    if variant not in allowed[name]:
                        return None
                    allowed[name] = {variant}
                else:
                    allowed[name].discard(variant)
                    if not allowed[name]:
                        return None
            case ("num", _, _, _):
                num_atoms.append(atom)

    num_atoms, specs = _strip_rounds(num_atoms)
    order = [(l.name, l.ty in (INT, MONEY)) for l in decls
             if l.ty != BOOL and not isinstance(l.ty, EnumT)]
    order += [(aux, True) for aux, _ in specs]

    solution: Optional[dict] = None
    if specs:
        for case in _round_cases(specs):
            budget.spend()
            sol = _solve_linear(_lin_atoms(num_atoms + case), order, budget)
            if sol is not None:
                solution = sol
                break
        if solution is None:
            return None
    else:
        solution = _solve_linear(_lin_atoms(num_atoms), order, budget)
        if solution is None:
            return None

    return _fill_model(decls, bools, allowed, solution, retain)

