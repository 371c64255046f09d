import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle_fm
from defcalc import solver
from defcalc.explorer import explore
from defcalc.interp import run_scope
from defcalc.lang import (
    BOOL, INT, MONEY, RAT,
    EnumT, VBool, VEnum, VInt, VMoney, VRat,
)
from defcalc.parser import parse_or_raise
from defcalc.solver import (
    Query, Sat, SolverSession, SolverUsageError, Unknown, Unsat, simplify,
)
from defcalc.symbolic import (
    FALSE, SymBin, SymConst, SymIsVariant, SymNot, SymRound,
    SymVar, TRUE, render, sym_eval, sym_eval_bool,
)


def v(name, ty=INT):
    return SymVar(name, ty)


def c(x):
    if isinstance(x, bool):
        return SymConst(VBool(x))
    if isinstance(x, Fraction):
        return SymConst(VRat(x))
    return SymConst(VInt(x))


def session(*leaves):
    return SolverSession(tuple(leaves))


def _fresh_check(decls, lits, retain=None, limit=solver.DEFAULT_BUDGET):
    """The conjunction of `lits` decided by a fresh session."""
    return SolverSession(decls, budget=limit, retain=retain).check(lits)


B = SymVar("b", BOOL)
X = SymVar("x", INT)


# -- check -----------------------------------------------------------------


def test_check_b_and_x_equals_zero():
    s = session(B, X)
    s.push(v("b", BOOL))
    s.push(SymBin("=", v("x"), c(0)))
    res = s.check()
    assert isinstance(res, Sat)
    assert res.model == {"b": VBool(True), "x": VInt(0)}


def test_contradiction_is_unsat():
    s = session(X)
    s.push(SymBin(">", v("x"), c(0)))
    assert isinstance(s.check([SymNot(SymBin(">", v("x"), c(0)))]), Unsat)


def test_money_strict_threshold_minimal_model():
    m = SymVar("x", MONEY)
    s = session(m)
    s.push(SymNot(SymBin("<=", SymVar("x", MONEY), SymConst(VMoney(1000000)))))
    res = s.check()
    assert isinstance(res, Sat)
    assert res.model["x"].cents >= 1000001
    assert res.model["x"] == VMoney(1000001)  # deterministic minimal choice


def test_model_determinism_same_stack_same_model():
    for _ in range(3):
        s = session(B, X)
        s.push(SymBin("<", c(2), v("x")))
        r1 = s.check()
        s2 = session(B, X)
        s2.push(SymBin("<", c(2), v("x")))
        r2 = s2.check()
        assert r1.model == r2.model == {"b": VBool(False), "x": VInt(3)}


def test_retained_values_survive_when_unconstrained():
    s = session(B, X)
    s.retain = {"b": VBool(True), "x": VInt(3)}
    s.push(SymNot(v("b", BOOL)))
    res = s.check()
    assert res.model == {"b": VBool(False), "x": VInt(3)}


def test_enum_constraints():
    zone = EnumT("Zone", (("A", None), ("B", None), ("C", None)))
    z = SymVar("z", zone)
    s = session(z)
    s.push(SymNot(SymIsVariant(SymVar("z", zone), "A")))
    res = s.check()
    assert res.model["z"] == VEnum("Zone", "B")
    s.push(SymNot(SymIsVariant(SymVar("z", zone), "B")))
    s.push(SymNot(SymIsVariant(SymVar("z", zone), "C")))
    assert isinstance(s.check(), Unsat)


def test_rational_variable_solution_is_exact():
    r = SymVar("r", RAT)
    s = session(r)
    s.push(SymBin("<", c(Fraction(1, 3)), SymVar("r", RAT)))
    s.push(SymBin("<", SymVar("r", RAT), c(Fraction(2, 3))))
    res = s.check()
    q = res.model["r"].q
    assert Fraction(1, 3) < q < Fraction(2, 3)


def test_round_term_solved_consistently_with_evaluator():
    # round(x * 1/5) = 7 has integer solutions near 35
    x = SymVar("x", INT)
    s = session(x)
    lit = SymBin("=", SymRound(SymBin("*", v("x"), c(Fraction(1, 5)))), c(7))
    s.push(lit)
    res = s.check()
    assert isinstance(res, Sat)
    assert sym_eval_bool(lit, res.model)


def test_nonlinear_returns_unknown():
    xy = SymBin("*", v("x"), v("y"))
    for lit in (SymBin("=", xy, c(6)), SymBin(">", xy, c(1))):
        res = session(X, SymVar("y", INT)).check([lit])
        assert isinstance(res, Unknown)
        # the reason names the atom that failed to linearize, not the budget
        assert "x * y" in res.reason and "budget" not in res.reason


def test_undeclared_variable_rejected():
    with pytest.raises(SolverUsageError):
        Query((X,), (v("nope"),))


# -- push/pop ----------------------------------------------------------------


def test_push_pop_restores_exactly():
    s = session(B, X)
    s.push(v("b", BOOL))
    s.push(SymBin("=", v("x"), c(0)))
    s.pop()
    res = s.check()
    fresh = session(B, X)
    fresh.push(v("b", BOOL))
    assert res.model == fresh.check().model


def test_pop_on_empty_stack_is_usage_error():
    s = session(B)
    with pytest.raises(SolverUsageError):
        s.pop()


def test_incremental_equals_fresh_over_random_sequences():
    rng = random.Random(1234)
    lits = [v("b", BOOL), SymNot(v("b", BOOL)),
            SymBin("<", v("x"), c(5)), SymBin(">", v("x"), c(-5)),
            SymBin("=", v("x"), c(2))]
    s = session(B, X)
    stack = []
    for _ in range(60):
        action = rng.random()
        if action < 0.45 or not stack:
            chosen = rng.choice(lits)
            s.push(chosen)
            stack.append(chosen)
        elif action < 0.7:
            s.pop()
            stack.pop()
        else:
            res = s.check()
            fresh = session(B, X)
            for lit in stack:
                fresh.push(lit)
            ref = fresh.check()
            assert type(res) is type(ref)
            if isinstance(res, Sat):
                assert res.model == ref.model


# -- soft tiers ----------------------------------------------------------------


M = SymVar("x", MONEY)


def money_sym():
    return SymVar("x", MONEY)


def test_soft_tier_t100_when_satisfiable():
    s = session(M)
    s.push(SymBin(">", money_sym(), SymConst(VMoney(1000000))))
    res = s.check_soft()
    assert isinstance(res, Sat) and s.tier_of(res.model) == "T100"
    assert res.model["x"].cents % 10000 == 0
    assert res.model["x"].cents > 1000000


def test_soft_tier_none_when_pinned_to_cents():
    s = session(M)
    s.push(SymBin("=", money_sym(), SymConst(VMoney(1000001))))
    res = s.check_soft()
    assert isinstance(res, Sat) and s.tier_of(res.model) is None
    assert res.model["x"] == VMoney(1000001)


def test_soft_tier_narrow_window_falls_to_t1():
    # every cent value in (1000000, 1000500) checked against each tier's
    # predicate: no multiple of 1000 or 10000 cents, but $10,001.00 works
    cents = range(1000001, 1000500)
    assert not any(x % 10000 == 0 for x in cents)
    assert not any(x % 1000 == 0 for x in cents)
    t1 = [x for x in cents if x % 100 == 0]
    assert t1 and min(t1) == 1000100
    s = session(M)
    s.push(SymBin(">", money_sym(), SymConst(VMoney(1000000))))
    s.push(SymBin("<", money_sym(), SymConst(VMoney(1000500))))
    res = s.check_soft()
    assert s.tier_of(res.model) == "T1"
    assert res.model["x"] == VMoney(1000100)


def test_soft_tier_maximality_independent_check():
    from defcalc.solver import divisibility_constraints
    s = session(M)
    s.push(SymBin(">", money_sym(), SymConst(VMoney(1000000))))
    s.push(SymBin("<", money_sym(), SymConst(VMoney(1010000))))
    res = s.check_soft()
    assert s.tier_of(res.model) == "T10"  # no multiple of $100 inside the open window
    decls, lits = divisibility_constraints(s.decls, ["x"], 10000)
    assert isinstance(SolverSession(decls).check((*s.stack, *lits)), Unsat)


# Cent amounts, multiples of 1 cent, $1, $10 or $100 alike, so that every
# tier of the ladder is reached.
_cents = st.builds(lambda k, unit: k * unit, st.integers(-30_000, 30_000),
                   st.sampled_from([1, 100, 1000, 10000]))


@st.composite
def _money_queries(draw):
    """Sessions over one or two money leaves, each leaf pinned, in a window
    of 1 cent to $300, bounded on one side, or free, the two sometimes tied
    by a sum or a difference."""
    names = ["m", "n"][:draw(st.integers(1, 2))]
    s = SolverSession([SymVar(name, MONEY) for name in names])
    for name in names:
        var = SymVar(name, MONEY)
        kind = draw(st.sampled_from(["pin", "window", "above", "below", "free"]))
        lo = draw(_cents)
        if kind == "pin":
            s.push(SymBin("=", var, SymConst(VMoney(lo))))
        if kind in ("window", "above"):
            s.push(SymBin(draw(st.sampled_from([">", ">="])), var, SymConst(VMoney(lo))))
        if kind in ("window", "below"):
            hi = lo + draw(st.integers(1, 30_000)) if kind == "window" else lo
            s.push(SymBin(draw(st.sampled_from(["<", "<="])), var, SymConst(VMoney(hi))))
    if len(names) == 2 and draw(st.booleans()):
        op = draw(st.sampled_from(["+", "-"]))
        s.push(SymBin(draw(st.sampled_from(["=", "<=", ">"])),
                      SymBin(op, SymVar("m", MONEY), SymVar("n", MONEY)),
                      SymConst(VMoney(draw(_cents)))))
    return s


def _tiers_refuted_by_divisibility():
    """m > $1,000.00, n > -$265,420.00 and m - n = -$97.30: every soft tier
    is infeasible only because no two multiples of $1 differ by $97.30."""
    s = SolverSession([SymVar("m", MONEY), SymVar("n", MONEY)])
    m, n = SymVar("m", MONEY), SymVar("n", MONEY)
    s.push(SymBin(">", m, SymConst(VMoney(100_000))))
    s.push(SymBin(">", n, SymConst(VMoney(-26_542_000))))
    s.push(SymBin("=", SymBin("-", m, n), SymConst(VMoney(-9_730))))
    return s


@settings(max_examples=200, deadline=None)
@given(_money_queries())
@example(_tiers_refuted_by_divisibility())
def test_soft_tier_is_the_tier_of_its_model(s):
    # The ladder is maximal: on a fresh session, every tier before the
    # model's tier (every tier, when the model has none) is Unsat, or
    # Unknown where the case-split budget runs out, and never Sat.
    res = s.check_soft()
    if isinstance(res, Sat):
        assert set(res.model) == {leaf.name for leaf in s.decls}
        tier = s.tier_of(res.model)
        money = [leaf.name for leaf in s.decls]
        for name, unit in solver.SOFT_TIERS:
            if name == tier:
                break
            decls, lits = solver.divisibility_constraints(s.decls, money, unit)
            assert not isinstance(SolverSession(decls).check((*s.stack, *lits)), Sat)


def test_soft_check_without_money_is_the_hard_check():
    s = session(X)
    s.push(SymBin(">", v("x"), c(7)))
    res = s.check_soft()
    assert res == Sat({"x": VInt(8)}) and s.stats.solver_calls == 1
    assert s.tier_of(res.model) is None


# -- simplify ---------------------------------------------------------------


def test_simplify_double_negation():
    lit = SymNot(SymNot(SymBin(">", v("x"), c(0))))
    assert simplify(lit) == SymBin(">", v("x"), c(0))


def test_simplify_ground_comparison():
    assert simplify(SymBin("<=", c(3), c(5))) == TRUE
    assert simplify(SymBin("<", c(5), c(3))) == FALSE


def test_simplify_x_plus_zero_equals_x():
    lit = SymBin("=", SymBin("+", v("x"), c(0)), v("x"))
    # brute-check the rewrite on sample points before trusting it
    for k in range(-5, 6):
        assert sym_eval_bool(lit, {"x": VInt(k)})
    assert simplify(lit) == TRUE


def test_simplify_is_sound_on_random_literals():
    rng = random.Random(77)
    ops = ["=", "<", "<=", ">", ">="]
    for _ in range(200):
        lhs = SymBin(rng.choice(["+", "-", "*"]), v("x"),
                     c(rng.randrange(-3, 4)))
        lit = SymBin(rng.choice(ops), lhs, c(rng.randrange(-3, 4)))
        if rng.random() < 0.5:
            lit = SymNot(lit)
        slit = simplify(lit)
        for k in range(-4, 5):
            env = {"x": VInt(k)}
            assert sym_eval_bool(lit, env) == sym_eval_bool(slit, env)


# -- completeness against enumeration -----------------------------------------


def _enum_models(leaves, bounds=(-8, 8)):
    axes = []
    for leaf in leaves:
        if leaf.ty == BOOL:
            axes.append([(leaf.name, VBool(False)), (leaf.name, VBool(True))])
        elif leaf.ty == INT:
            axes.append([(leaf.name, VInt(i)) for i in range(bounds[0], bounds[1] + 1)])
        else:
            raise ValueError(leaf.ty)
    for combo in itertools.product(*axes):
        yield dict(combo)


def _random_literal(rng):
    def atom():
        kind = rng.random()
        if kind < 0.25:
            return v("b", BOOL) if rng.random() < 0.5 else SymNot(v("b", BOOL))
        lhs = v("x") if rng.random() < 0.6 else \
            SymBin(rng.choice(["+", "-"]), v("x"), v("y"))
        op = rng.choice(["=", "<", "<=", ">", ">="])
        lit = SymBin(op, lhs, c(rng.randrange(-6, 7)))
        return SymNot(lit) if rng.random() < 0.4 else lit

    out = atom()
    for _ in range(rng.randrange(0, 2)):
        out = SymBin(rng.choice(["&&", "||"]), out, atom())
    return out


def test_builtin_matches_brute_force_on_small_domains():
    rng = random.Random(31337)
    leaves = (SymVar("b", BOOL), SymVar("x", INT), SymVar("y", INT))
    bound_lits = [SymBin(">=", v(n), c(-8)) for n in ("x", "y")] + \
                 [SymBin("<=", v(n), c(8)) for n in ("x", "y")]
    for _ in range(120):
        lits = tuple(bound_lits + [_random_literal(rng)
                                   for _ in range(rng.randrange(1, 4))])
        res = SolverSession(leaves).check(lits)
        expected_sat = any(
            all(sym_eval_bool(l, m) for l in lits) for m in _enum_models(leaves))
        assert not isinstance(res, Unknown)
        assert isinstance(res, Sat) == expected_sat
        if isinstance(res, Sat):
            assert all(sym_eval_bool(l, res.model) for l in lits)


def test_stats_count_checks():
    s = session(B)
    s.push(v("b", BOOL))
    s.check()
    s.check()
    assert s.stats.solver_calls == 2
    assert s.stats.sat == 2


def test_unsat_past_four_thousand_branches():
    # 2**13 case-split branches, each refuted by the first literal: too many
    # to enumerate one by one, so the answer needs the search's cuts.
    def both_above(i):
        return SymBin("&&", SymBin(">", v("x"), c(i)), SymBin(">", v("y"), c(i)))
    lits = (both_above(20),) + tuple(SymNot(both_above(i)) for i in range(1, 14))
    assert _fresh_check((X, SymVar("y", INT)), lits) == solver.UNSAT


def test_unit_literals_bound_the_search_from_the_root():
    # 2**20 branches above a conjunctive last literal that refutes every
    # one: the root system refutes each choice at the first literal.
    def both_above(i):
        return SymBin("&&", SymBin(">", v("x"), c(i)), SymBin(">", v("y"), c(i)))
    lits = tuple(SymNot(both_above(i)) for i in range(1, 21)) + (both_above(30),)
    decls = (X, SymVar("y", INT))
    assert _fresh_check(decls, lits, limit=64) == solver.UNSAT
    # Unit bounds that clash decide the check on the frames, for no budget.
    lits = (SymBin(">", v("x"), c(3)), SymNot(both_above(1)), SymBin("<", v("x"), c(2)))
    assert _fresh_check(decls, lits, limit=0) == solver.UNSAT
    # A root infeasible only through a row of two variables is one cut.
    lits = (SymBin(">", v("x"), v("y")), SymNot(both_above(1)), SymBin(">", v("y"), c(5)),
            SymBin("<", v("x"), c(4)))
    assert _fresh_check(decls, lits, limit=1) == solver.UNSAT
    assert isinstance(_fresh_check(decls, lits, limit=0), Unknown)
    # The root's linear atoms refute it beside one that does not linearize.
    lits = (SymBin(">", v("x"), c(5)), SymBin(">", SymBin("*", v("x"), v("y")), c(1)),
            SymBin("<", v("x"), c(3)))
    assert _fresh_check(decls, lits) == solver.UNSAT


def test_session_prepares_each_literal_once(monkeypatch):
    from defcalc import symbolic
    calls = []
    real = solver.simplify
    monkeypatch.setattr(solver, "simplify", lambda e: calls.append(e) or real(e))
    walks = []
    real_children = symbolic.sym_children
    monkeypatch.setattr(symbolic, "sym_children",
                        lambda e: walks.append(e) or real_children(e))
    s = session(X, SymVar("y", INT))
    s.push(SymBin(">", v("x"), c(3)))
    s.push(SymNot(SymBin("=", v("x"), v("y"))))
    first = s.check()
    assert isinstance(first, Sat) and calls
    calls.clear()
    walks.clear()
    assert s.check() == first
    assert calls == [] and walks == []


def test_budget_exhaustion_returns_unknown():
    # forcing a huge enumeration with a tiny budget must degrade to Unknown,
    # never to a wrong verdict
    s = SolverSession((X, SymVar("y", INT)), budget=16)
    res = s.check([SymBin(">", v("x"), c(10 ** 7)),
                   SymBin("=", SymBin("+", v("x"), v("y")), c(3)),
                   SymBin(">", v("y"), c(0))])
    assert isinstance(res, (Unknown, Unsat))
    assert not isinstance(res, Sat)


def _add(a, b):
    return SymBin("+", a, b)


def _sub(a, b):
    return SymBin("-", a, b)


def test_linearize_nested_sums_and_differences_cancel():
    x, y = v("x"), v("y", RAT)
    assert solver.linearize(_sub(x, x)) == ({}, 0)
    assert solver.linearize(_add(x, _sub(y, _add(x, y)))) == ({}, 0)
    # (x + 2y) - ((3 - x) + y) = 2x + y - 3
    lin = solver.linearize(_sub(_add(x, SymBin("*", c(2), y)), _add(_sub(c(3), x), y)))
    assert lin == ({"x": 2, "y": 1}, -3)
    # (x/2 - y) + (y + x/2) = x
    half_x = SymBin("/", x, c(2))
    assert solver.linearize(_add(_sub(half_x, y), _add(y, half_x))) == ({"x": 1}, 0)


def _random_sum(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([v("x"), v("y"), v("q", RAT),
                           c(Fraction(rng.randrange(-3, 4), rng.randrange(1, 3)))])
    if rng.random() < 0.2:
        return SymBin("*", c(rng.randrange(-2, 3)), _random_sum(rng, depth - 1))
    op = rng.choice([_add, _sub])
    return op(_random_sum(rng, depth - 1), _random_sum(rng, depth - 1))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_linearize_agrees_with_evaluation(rng):
    e = _random_sum(rng, 5)
    coeffs, const = solver.linearize(e)
    assert all(coeffs.values())
    env = {"x": VInt(rng.randrange(-9, 10)), "y": VInt(rng.randrange(-9, 10)),
           "q": VRat(Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)))}
    value = {n: sym_eval(v(n), env) for n in env}
    assert sum((k * value[n] for n, k in coeffs.items()), const) == sym_eval(e, env)


# -- differential against the pre-refactor Fourier-Motzkin core ----------------


_coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def _linear_systems(draw):
    names = "abcd"[:draw(st.integers(2, 4))]
    order = [(n, draw(st.booleans())) for n in names]
    atom = st.tuples(st.dictionaries(st.sampled_from(names), _coeff),
                     _coeff, st.sampled_from(["=", "<=", "<"]))
    atoms = [({n: k for n, k in coeffs.items() if k}, const, op)
             for coeffs, const, op in draw(st.lists(atom, min_size=1, max_size=5))]
    return atoms, order, draw(st.integers(1, 24))


_ORACLE_SOLVE, _ORACLE_BOUNDS = oracle_fm._solve_linear, oracle_fm._bounds_of


def _oracle_within_int_bounds(atoms, order, budget):
    """The oracle's linear core with each integer window clipped to the
    bounds `solver._int_bounds` derives, None when those cross or when
    `solver._int_unsolvable` refutes the integer equalities, as the linear
    core is.  Every integer solution lies within the bounds and solves the
    equalities, so it answers as the oracle does wherever the oracle's
    search ends; where it does not
    (`test_bounds_refute_what_the_oracle_search_never_ends`), this one ends
    with the linear core's."""
    rows = [solver._row(c, k, op) for c, k, op in atoms]
    mentioned = {n for coeffs, _, _ in atoms for n in coeffs}
    todo = [(n, i) for n, i in order if n in mentioned]
    clip = solver._int_bounds(rows, todo)
    if clip is None or solver._int_unsolvable(rows, todo):
        return None
    box = {n: {("lo" if coeffs[n] < 0 else "hi"): -Fraction(k, coeffs[n])
               for coeffs, k, _ in rs} for n, rs in clip.items()}

    def bounds_of(system, name):
        lo, lo_strict, hi, hi_strict = _ORACLE_BOUNDS(system, name)
        if (b := box.get(name, {}).get("lo")) is not None and (lo is None or b > lo):
            lo, lo_strict = b, False
        if (b := box.get(name, {}).get("hi")) is not None and (hi is None or b < hi):
            hi, hi_strict = b, False
        return lo, lo_strict, hi, hi_strict
    with mock.patch.object(oracle_fm, "_bounds_of", bounds_of):
        return _ORACLE_SOLVE(atoms, order, budget)


def _run_linear(solve, atoms, order, limit):
    """(model or None, budget left), or "out of budget"."""
    budget = solver._Budget(limit)
    try:
        out = solve(atoms, order, budget)
    except solver._OutOfBudget:
        return "out of budget"
    return out, budget.left


def _deciding(solve):
    """`solve(atoms, order, budget)`, and on None `solve` again on the same
    budget with every integer first: the oracle fixes a rational at one
    value, which may strand a later integer, but once the integers come
    first its None is a proof."""
    def decide(atoms, order, budget):
        out = solve(atoms, order, budget)
        if out is None:
            out = solve(atoms, sorted(order, key=lambda v: not v[1]), budget)
        return out
    return decide


def _by_parts(solve):
    """`solve(atoms, order, budget)` on each variable that shares no atom
    with another, alone, then on the other variables and the ground atoms
    as one system, all on one budget: None when a part has none, else the
    parts' models joined.  It answers as `solve` on the whole, since
    there are x and y with P(x) and Q(y) exactly when there are both."""
    def solve_parts(atoms, order, budget):
        tied = {n for coeffs, _, _ in atoms if len(coeffs) > 1 for n in coeffs}
        untied = sorted({n for coeffs, _, _ in atoms for n in coeffs} - tied)
        model = {}
        for part in [[a for a in atoms if n in a[0]] for n in untied] + \
                [[a for a in atoms if not a[0] or not tied.isdisjoint(a[0])]]:
            if (out := solve(part, order, budget)) is None:
                return None
            model.update(out)
        return model
    return solve_parts


# What the oracle falls back to where it runs out of budget.
_FALLBACK = _by_parts(_deciding(_oracle_within_int_bounds))


def _assert_matches_oracle(rows, atoms, order, limit):
    """The linear core on `rows` against the deciding FM oracle on the same
    `atoms`.  Where the oracle decides within `limit`, the same model or
    None for no more budget; where it runs out, the core runs out or
    answers as `_FALLBACK` does with the default budget, which must
    decide."""
    got = _run_linear(solver._solve_linear, rows, order, limit)
    want = _run_linear(_deciding(oracle_fm._solve_linear), atoms, order, limit)
    if want == "out of budget":
        if got == "out of budget":
            return
        want = _run_linear(_FALLBACK, atoms, order, solver.DEFAULT_BUDGET)
        assert want != "out of budget", f"the fallback runs out on {atoms}, {order}"
        want = want[0], 0
    assert got != "out of budget" and got[0] == want[0] and got[1] >= want[1]


@settings(max_examples=400, deadline=None)
@given(_linear_systems())
def test_linear_core_matches_fm_oracle(system):
    atoms, order, limit = system
    rows = [solver._row(c, k, op) for c, k, op in atoms]
    _assert_matches_oracle(rows, [(dict(c), k, op) for c, k, op in atoms], order, limit)


@settings(max_examples=300, deadline=None)
@given(_linear_systems())
def test_clipped_oracle_answers_as_the_oracle(system):
    # The re-run above clips the oracle's integer windows to the bounds;
    # wherever the oracle decides, that changes neither its model nor None,
    # and spends no more budget.
    atoms, order, limit = system
    atoms = [(dict(c), k, op) for c, k, op in atoms]
    want = _run_linear(oracle_fm._solve_linear, atoms, order, limit)
    if want != "out of budget":
        got = _run_linear(_oracle_within_int_bounds, atoms, order, limit)
        assert got[0] == want[0] and got[1] >= want[1]


@st.composite
def _feasible_systems(draw):
    """Atoms over 2-5 variables that all hold at one drawn rational point,
    with the point and an order of the variables, each int or not."""
    names = "abcde"[:draw(st.integers(2, 5))]
    point = {n: draw(_coeff) for n in names}
    atoms = []
    for _ in range(draw(st.integers(1, 7))):
        coeffs = {n: k for n, k in draw(st.dictionaries(st.sampled_from(names), _coeff)).items()
                  if k}
        op = draw(st.sampled_from(["=", "<=", "<"]))
        slack = Fraction(0) if op == "=" else draw(
            st.fractions(min_value=0, max_value=2, max_denominator=3).filter(
                lambda x: x > 0 or op == "<="))
        value = sum((k * point[n] for n, k in coeffs.items()), Fraction(0))
        atoms.append((coeffs, -value - slack, op))
    order = [(n, draw(st.booleans())) for n in draw(st.permutations(names))]
    return atoms, point, order


def _integers_within(lo, lo_strict, hi, hi_strict):
    """The integers within the bounds as (ilo, ihi), None meaning unbounded;
    None in place of the pair when the bounds hold no integer."""
    ilo = None if lo is None else math.floor(lo) + 1 if lo_strict else math.ceil(lo)
    ihi = None if hi is None else math.ceil(hi) - 1 if hi_strict else math.floor(hi)
    return None if ilo is not None and ihi is not None and ilo > ihi else (ilo, ihi)


@settings(max_examples=200, deadline=None)
@given(_feasible_systems())
def test_one_pass_windows_match_fm_oracle_bounds(system):
    # The window read at depth d, with the point's first d values fixed
    # (as Fractions, and with integral ones as ints as the search fixes
    # them), is the oracle's window of the system with them substituted.
    atoms, point, order = system
    mentioned = {n for coeffs, _, _ in atoms for n in coeffs}
    todo = [(n, is_int) for n, is_int in order if n in mentioned]
    reads = solver._window_rows([solver._row(c, k, op) for c, k, op in atoms], todo)
    assert reads is not None and len(reads) == len(todo) + 1 and reads[-1] == []
    for d, (name, _) in enumerate(todo):
        fixed = {n: point[n] for n, _ in todo[:d]}
        prefix = atoms
        for n, x in fixed.items():
            prefix = oracle_fm._substitute(prefix, n, x)
        ints = {n: x.numerator if x.denominator == 1 else x for n, x in fixed.items()}
        assert [n for n, _, _ in reads[d]] == [name] + [n for n, i in todo[d + 1:] if i]
        for vals in (fixed, ints):
            for n, _, rows in reads[d]:
                bounds = oracle_fm._bounds_of(prefix, n)
                assert solver._window(rows, n, vals, False) == bounds
                assert solver._window(rows, n, vals, True) == _integers_within(*bounds)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from("xyz"), _coeff), _coeff,
       st.sampled_from(["=", "<=", "<"]),
       st.fixed_dictionaries({n: st.fractions(-5, 5, max_denominator=6) for n in "xyz"}))
def test_row_keeps_truth_value(coeffs, const, op, point):
    coeffs = {n: k for n, k in coeffs.items() if k}
    row_coeffs, row_const, row_op = solver._row(coeffs, const, op)
    assert row_op == op and set(row_coeffs) == set(coeffs)
    assert all(isinstance(k, int) for k in (row_const, *row_coeffs.values()))
    assert math.gcd(row_const, *row_coeffs.values()) in (0, 1)

    def holds(coeffs, const):
        total = sum((k * point[n] for n, k in coeffs.items()), const)
        return {"=": total == 0, "<=": total <= 0, "<": total < 0}[op]

    assert holds(row_coeffs, row_const) == holds(coeffs, const)


_directions = st.sampled_from([{}, {"x": 1}, {"x": -1}, {"x": 2, "y": -1},
                               {"x": 1, "y": 1}, {"y": 3}, {"x": -2, "y": 4, "z": 1}])


@st.composite
def _parallel_rows(draw):
    """Primitive rows over few directions and bounds, each a positive
    multiple of one of them, so many are parallel and some tie; ground rows
    and equalities among them."""
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        scale = draw(st.integers(1, 3))
        coeffs = {n: Fraction(scale * k) for n, k in draw(_directions).items()}
        const = scale * draw(st.sampled_from([Fraction(-1), Fraction(0), Fraction(1, 2),
                                              Fraction(1), Fraction(5, 3)]))
        rows.append(solver._row(coeffs, const, draw(st.sampled_from(["=", "<=", "<"]))))
    return rows


@settings(max_examples=300, deadline=None)
@given(_parallel_rows(),
       st.lists(st.fixed_dictionaries({n: st.fractions(-4, 4, max_denominator=4)
                                       for n in "xyz"}), min_size=1, max_size=8))
def test_prune_keeps_one_inequality_per_direction_and_the_same_points(rows, points):
    pruned = solver._prune(rows)
    assert solver._eliminate(rows, "w") == pruned  # `w` is in no row
    kept = [r for r in rows if r[2] == "=" or not r[0]]
    assert [r for r in pruned if r[2] == "=" or not r[0]] == kept
    groups = {}  # direction -> (its rows, its pruned rows)
    for side, system in enumerate((rows, pruned)):
        for r in system:
            if r[2] != "=" and r[0]:
                g = math.gcd(*r[0].values())
                direction = frozenset((n, k // g) for n, k in r[0].items())
                groups.setdefault(direction, ([], []))[side].append(r)
    assert all(len(left) == 1 for _, left in groups.values())

    def holds(system, point):
        return all(solver._holds(sum((k * point[n] for n, k in coeffs.items()), Fraction(const)),
                                 op) for coeffs, const, op in system)

    def on_boundary(row, point):  # `point` moved along one variable onto c.x + k = 0
        (n, c), *others = row[0].items()
        return {**point, n: -Fraction(row[1] + sum(a * point[m] for m, a in others)) / c}

    for point in points:
        assert holds(rows, point) == holds(pruned, point)
    for group, left in groups.values():
        for point in points + [on_boundary(r, p) for r in group for p in points[:2]]:
            assert holds(group, point) == holds(left, point)


def test_prune_keeps_a_ground_row():
    # A true ground row has no coefficient to take a gcd of.
    rows = [({}, 0, "<="), ({"x": 2}, 1, "<="), ({"x": 1}, 0, "<")]
    assert solver._prune(rows) == [({}, 0, "<="), ({"x": 2}, 1, "<=")]
    assert solver._eliminate(rows + [({"x": -1, "y": 1}, 0, "<=")], "x") == \
        [({}, 0, "<="), ({"y": 2}, 1, "<=")]


ZONE = EnumT("Zone", (("A", None), ("B", None), ("C", None)))
_MIXED_LEAVES = (SymVar("b", BOOL), SymVar("x", INT), SymVar("y", INT),
                 SymVar("q", RAT), SymVar("m", MONEY), SymVar("z", ZONE))


def _random_mixed_literal(rng):
    """`_random_literal` plus Round, rational, money and enum atoms."""
    kind = rng.random()
    if kind < 0.4:
        return _random_literal(rng)
    if kind < 0.55:
        tag = SymIsVariant(SymVar("z", ZONE), rng.choice("ABC"))
        return SymNot(tag) if rng.random() < 0.5 else tag
    if kind < 0.65:
        return SymBin("=", SymVar("z", ZONE), SymConst(VEnum("Zone", rng.choice("ABC"))))
    arg = SymBin(rng.choice(["*", "/"]), rng.choice([v("x"), v("q", RAT), v("m", MONEY)]),
                 c(Fraction(rng.randrange(1, 8), rng.randrange(1, 4))))
    if rng.random() < 0.5:
        arg = SymBin("+", arg, v("y"))
    lit = SymBin(rng.choice(["=", "<", "<=", ">", ">="]), SymRound(arg),
                 c(rng.randrange(-5, 6)))
    return SymNot(lit) if rng.random() < 0.3 else lit


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([4, 16, 64, 4096]))
def test_builtin_check_matches_fm_oracle_pipeline(rng, limit):
    lits = tuple(_random_mixed_literal(rng) for _ in range(rng.randrange(1, 7)))
    retain = {"x": VInt(rng.randrange(-3, 4)), "z": VEnum("Zone", "C")}
    got = _fresh_check(_MIXED_LEAVES, lits, retain, limit)
    with mock.patch.object(oracle_fm, "_solve_linear", _deciding(_ORACLE_SOLVE)):
        want = oracle_fm._builtin_check(_MIXED_LEAVES, lits, retain, limit)
    if isinstance(want, Unknown) and got != want:
        # The search skips branches and candidates the oracle pays for, so
        # it may decide what the oracle leaves Unknown: then as the oracle
        # does with the default budget and its linear core `_FALLBACK`.
        with mock.patch.object(oracle_fm, "_solve_linear", _FALLBACK):
            want = oracle_fm._builtin_check(_MIXED_LEAVES, lits, retain, solver.DEFAULT_BUDGET)
    assert got == want


# Literals the frames must keep apart: one that does not linearize, one that
# simplifies to false, one over an undeclared variable, one that is not a
# boolean term at all (NonLinear before any false literal), and plain money.
_ODD_LITERALS = (
    SymBin(">", SymBin("*", v("x"), v("y")), c(1)),
    SymBin("<", SymBin("+", v("x"), c(0)), v("x")),
    SymBin(">", v("nope"), c(0)),
    v("x"),
    SymBin(">=", v("m", MONEY), SymConst(VMoney(250))),
    SymNot(SymBin("=", v("m", MONEY), SymConst(VMoney(-300)))),
)


def _check_soft(check, lits):
    """`SolverSession.check_soft()` over `_MIXED_LEAVES`, whose one money leaf is
    "m", with `check(decls, lits)` for each query."""
    hard = check(_MIXED_LEAVES, lits)
    if not isinstance(hard, Sat):
        return hard
    for _, unit in solver.SOFT_TIERS:
        decls, tier_lits = solver.divisibility_constraints(_MIXED_LEAVES, ["m"], unit)
        res = check(decls, lits + tier_lits)
        if isinstance(res, Sat):
            return Sat({k: x for k, x in res.model.items() if not k.startswith(".mult")})
    return hard


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([4, 16, 64, 4096]))
def test_session_frames_match_fresh_builtin_checks(rng, limit):
    # A session keeps its stack prepared frame by frame across pushes, pops
    # and checks; each check must answer as a fresh session's check of the
    # whole conjunction, down to the Unknown reason and the budget spent.
    budgets, fresh_checks = [], []

    class Recorded(solver._Budget):
        def __init__(self, budget_limit):
            super().__init__(budget_limit)
            budgets.append(self)

    def run(ask):
        budgets.clear()
        try:
            out = ask()
        except SolverUsageError as e:
            out = SolverUsageError, str(e)
        return out, [limit - b.left for b in budgets]

    def fresh(decls, lits):
        res = _fresh_check(decls, lits, retain, limit)
        fresh_checks.append(res)
        return res

    def literal():
        return rng.choice(_ODD_LITERALS) if rng.random() < 0.2 else _random_mixed_literal(rng)

    retain = {"x": VInt(rng.randrange(-3, 4)), "z": VEnum("Zone", "C")}
    s = SolverSession(_MIXED_LEAVES, budget=limit, retain=retain)
    stack = []
    with mock.patch.object(solver, "_Budget", Recorded):
        for _ in range(rng.randrange(1, 30)):
            action = rng.random()
            if action < 0.4:
                stack.append(literal())
                s.push(stack[-1])
            elif action < 0.6 and stack:
                stack.pop()
                s.pop()
            else:
                extra = tuple(literal() for _ in range(rng.randrange(0, 3)))
                lits = (*stack, *extra)
                if rng.random() < 0.7:
                    got = run(lambda: s.check(extra))
                    want = run(lambda: fresh(_MIXED_LEAVES, lits))
                else:
                    got = run(lambda: s.check_soft(extra))
                    want = run(lambda: _check_soft(fresh, lits))
                assert got == want
    assert s.stack == stack
    assert s.stats.solver_calls == len(fresh_checks)
    assert s.stats.sat == sum(isinstance(r, Sat) for r in fresh_checks)
    assert s.stats.unknown == sum(isinstance(r, Unknown) for r in fresh_checks)


@st.composite
def _fact_queries(draw):
    """Conjunctions over `_MIXED_LEAVES` of unit literals (a boolean, an enum
    tag, a one-variable bound) and of choices among such atoms, so that the
    unit facts of some literals refute the alternatives of later choices;
    in half of them some atoms bound x - y or x + y instead, rows with two
    variables beside the bound-only ones."""
    joint = draw(st.booleans())
    consts = {"x": c, "y": c, "q": lambda k: c(Fraction(k, 2)),
              "m": lambda k: SymConst(VMoney(k))}

    def atom():
        kind = draw(st.sampled_from(["bool", "tag", "bound", "bound"]))
        if kind == "bool":
            out = v("b", BOOL)
        elif kind == "tag":
            out = SymIsVariant(SymVar("z", ZONE), draw(st.sampled_from("ABC")))
        else:
            name = draw(st.sampled_from("xyqm"))
            leaf = next(leaf for leaf in _MIXED_LEAVES if leaf.name == name)
            term = v(name, leaf.ty)
            if joint and name in "xy" and draw(st.booleans()):
                term, name = SymBin(draw(st.sampled_from("+-")), v("x"), v("y")), "x"
            out = SymBin(draw(st.sampled_from(["=", "<", "<=", ">", ">="])), term,
                         consts[name](draw(st.integers(-3, 3))))
        return SymNot(out) if draw(st.booleans()) else out

    def literal():
        if draw(st.booleans()):
            return atom()
        lit = SymBin(draw(st.sampled_from(["&&", "||"])), atom(), atom())
        return SymNot(lit) if draw(st.booleans()) else lit

    return tuple(literal() for _ in range(draw(st.integers(1, 8))))


@settings(max_examples=300, deadline=None)
@given(_fact_queries())
def test_unit_facts_answer_as_the_fm_oracle(lits):
    # Cuts against the unit facts and projections over the rows with two or
    # more variables give the oracle's verdict and model, and every cut
    # stands for branches the oracle pays for, so no more budget is spent.
    limit = 1 << 10
    spent = {}

    def recording(key):
        class Recorded(solver._Budget):
            def __init__(self, budget_limit):
                super().__init__(budget_limit)
                spent[key] = self
        return Recorded

    retain = {"x": VInt(1), "z": VEnum("Zone", "B")}
    with mock.patch.object(solver, "_Budget", recording("got")):
        got = _fresh_check(_MIXED_LEAVES, lits, retain, limit)
    with mock.patch.object(oracle_fm, "_solve_linear", _deciding(_ORACLE_SOLVE)), \
            mock.patch.object(oracle_fm, "_Budget", recording("want")):
        want = oracle_fm._builtin_check(_MIXED_LEAVES, lits, retain, limit)
    if isinstance(want, Unknown):
        return  # the oracle's integer search ran out where the core's may not
    assert got == want
    used = {key: limit - budget.left for key, budget in spent.items()}
    assert used.get("got", 0) <= used["want"]  # none when the frames decide


def test_an_enum_clash_among_unit_atoms_makes_no_branch(monkeypatch):
    calls = []
    real = solver._solve_branch
    monkeypatch.setattr(solver, "_solve_branch", lambda *a: calls.append(a) or real(*a))
    z = SymVar("z", ZONE)
    either = SymBin("||", SymBin(">", v("x"), c(0)), SymBin("<", v("y"), c(0)))
    lits = (SymNot(SymIsVariant(z, "A")), either, SymNot(SymIsVariant(z, "B")),
            SymNot(SymIsVariant(z, "C")))
    assert _fresh_check(_MIXED_LEAVES, lits, limit=0) == solver.UNSAT
    # A unit tag refutes each alternative of a later choice: two cuts.
    lits = (SymIsVariant(z, "A"),
            SymBin("||", SymBin("&&", SymIsVariant(z, "B"), SymBin(">", v("x"), c(0))),
                   SymBin("&&", SymIsVariant(z, "C"), SymBin("<", v("x"), c(0)))))
    assert _fresh_check(_MIXED_LEAVES, lits, limit=2) == solver.UNSAT
    assert isinstance(_fresh_check(_MIXED_LEAVES, lits, limit=1), Unknown)
    assert calls == []


def _round_chain(n):
    """a_i = a_{i-1} * 3/7 over money, i = 1..n, under one `if` on a_n."""
    lines = ["scope Chain {", "  input x: money;", "  def a0: money = x;"]
    lines += [f"  def a{i}: money = a{i - 1} * 3/7;" for i in range(1, n + 1)]
    lines += [f"  def out: int = if a{n} > $1,000.00 then 1 else 0;", "  output out;", "}"]
    return parse_or_raise("\n".join(lines) + "\n")


def _round_chain_query(n, monkeypatch):
    """The one query `explore` sends for `_round_chain(n)`, with the rows and
    variable order of its one linear-core call: an integer search that,
    without the integer bounds, backtracks deeply."""
    checks, cores = [], []
    decide, core = solver.SolverSession._decide, solver._solve_linear

    def capture(session, decls, extra):
        checks.append((decls, (*session.stack, *extra), session.retain, session.budget))
        return decide(session, decls, extra)
    monkeypatch.setattr(solver.SolverSession, "_decide", capture)
    monkeypatch.setattr(solver, "_solve_linear", lambda *a: cores.append(a[:2]) or core(*a))
    explore(_round_chain(n), "Chain")
    monkeypatch.undo()
    assert len(checks) == 1 and len(cores) == 1
    return checks[0], cores[0]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_round_chain_query_matches_fm_oracle(n, monkeypatch):
    (decls, lits, retain, limit), (rows, order) = _round_chain_query(n, monkeypatch)
    got = _fresh_check(decls, lits, retain, limit)
    assert isinstance(got, Sat)
    assert got == oracle_fm._builtin_check(decls, lits, retain, limit)
    atoms = [({v: Fraction(k) for v, k in coeffs.items()}, Fraction(const), op)
             for coeffs, const, op in rows]
    _assert_matches_oracle(rows, atoms, order, limit)


def test_round_chain_linear_core_projects_once(monkeypatch):
    # round-chain-6: 7 variables and 7 integer candidates (580 before the
    # integer bounds clipped the windows); re-projecting per candidate took
    # 5,684 eliminations.
    _, (rows, order) = _round_chain_query(6, monkeypatch)
    k = len({v for coeffs, _, _ in rows for v in coeffs})
    calls = []
    real = solver._eliminate
    monkeypatch.setattr(solver, "_eliminate", lambda *a: calls.append(1) or real(*a))
    budget = solver._Budget(solver.DEFAULT_BUDGET)
    assert solver._solve_linear(rows, order, budget) is not None
    assert (k, solver.DEFAULT_BUDGET - budget.left) == (7, 7)
    assert len(calls) <= k * (k + 1) // 2 + k


def test_round_chain_windows_read_pruned_rows(monkeypatch):
    # round-chain-6: every window read from the projections holds at most
    # 70 rows in all (252 with the parallel inequalities kept), and the
    # search spends 7 candidates.
    _, (rows, order) = _round_chain_query(6, monkeypatch)
    mentioned = {v for coeffs, _, _ in rows for v in coeffs}
    reads = solver._window_rows(rows, [(n, i) for n, i in order if n in mentioned])
    assert sum(len(rs) for read in reads for _, _, rs in read) <= 70
    budget = solver._Budget(solver.DEFAULT_BUDGET)
    assert solver._solve_linear(rows, order, budget) is not None
    assert solver.DEFAULT_BUDGET - budget.left == 7


@pytest.mark.parametrize("n", [12, 16])
def test_round_chain_completes_with_the_least_x(n):
    # The candidates grew about 2.5x per step and round-chain-12 ran out of
    # the whole budget; the integer bounds leave n + 1 candidates.
    start = time.perf_counter()
    suite = explore(_round_chain(n), "Chain")
    assert time.perf_counter() - start < 1
    assert suite.complete and suite.stats.unknown == 0
    x = next(t.inputs["x"] for t in suite.testcases
             if t.outcome.output("out") == VInt(1))
    for cents, out in ((x.cents - 1, 0), (x.cents, 1)):
        got = run_scope(_round_chain(n), "Chain", {"x": VMoney(cents)})
        assert got.output("out") == VInt(out)


def test_round_chain_branch_linearizes_each_round_argument_once(monkeypatch):
    # round-chain-6's one branch: one call per side of its one atom and one
    # per Round argument (38 when each sign case linearized its own atoms).
    state = {"branches": 0, "inside": False, "depth": 0, "calls": 0}
    lin, branch = solver.linearize, solver._solve_branch

    def counted_lin(e):
        state["calls"] += state["inside"] and not state["depth"]
        state["depth"] += 1
        try:
            return lin(e)
        finally:
            state["depth"] -= 1

    def counted_branch(*a):
        state["branches"] += 1
        state["inside"] = True
        try:
            return branch(*a)
        finally:
            state["inside"] = False
    monkeypatch.setattr(solver, "linearize", counted_lin)
    monkeypatch.setattr(solver, "_solve_branch", counted_branch)
    explore(_round_chain(6), "Chain")
    assert (state["branches"], state["calls"]) == (1, 8)


_ROUND_LEAVES = (v("x"), SymVar("q", RAT), SymVar("m", MONEY))


@st.composite
def _round_branches(draw):
    """A branch of one atom, the sum of 1-3 Rounds below a constant; each
    Round's argument is linear over 1-3 leaves with rational coefficients,
    and may hold the Round before it."""
    def q():
        return c(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 7))))
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        leaves = draw(st.lists(st.sampled_from(_ROUND_LEAVES), min_size=1, max_size=3,
                               unique=True))
        terms = [SymBin("*", q(), leaf) for leaf in leaves]
        if rounds and draw(st.booleans()):
            terms.append(rounds[-1])
        arg = q()
        for t in terms:
            arg = SymBin(draw(st.sampled_from("+-")), arg, t)
        rounds.append(SymRound(arg))
    total = rounds[0]
    for r in rounds[1:]:
        total = SymBin("+", total, r)
    return [("num", "<", total, q())]


@settings(max_examples=200, deadline=None)
@given(_round_branches())
def test_round_rows_are_the_rows_of_the_oracle_atoms(branch):
    # Every sign case's rows, row for row and entry for entry, are those
    # that `_row` makes of the pre-rewrite case atoms' linear forms.
    got = []
    with mock.patch.object(solver, "_solve_linear", lambda rows, *_: got.append(rows)):
        assert solver._solve_branch(branch, ({}, {}, {}), _ROUND_LEAVES, {},
                                    solver._Budget(solver.DEFAULT_BUDGET), {}) is None
    atoms, specs = solver._strip_rounds(branch)
    want = [[solver._lin_form(a, {}) for a in atoms + case]
            for case in oracle_fm._round_cases(specs)]
    assert len(got) == 2 ** len(specs)
    assert [[(list(r[0].items()), *r[1:]) for r in rows] for rows in got] == \
        [[(list(r[0].items()), *r[1:]) for r in rows] for rows in want]


def test_integral_values_stay_ints_and_quotients_exact():
    # 0 < q < 1 holds no integer: q takes the midpoint of its int bounds.
    q = SymVar("q", RAT)
    res = session(q).check([SymBin("<", c(0), q), SymBin("<", q, c(1))])
    assert type(res.model["q"].q) is Fraction and res.model["q"].q == Fraction(1, 2)
    half = sym_eval(SymBin("/", v("x"), c(2)), {"x": VInt(1)})
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(sym_eval(SymBin("+", v("x"), c(2)), {"x": VInt(1)})) is int
    assert simplify(SymBin("+", c(2), c(3))) == SymConst(VInt(5))


_BOX = 6


@st.composite
def _boxed_int_systems(draw):
    """Integer rows over 1-3 variables, each within |v| <= _BOX."""
    names = "abc"[:draw(st.integers(1, 3))]
    rows = [({n: 1}, -_BOX, "<=") for n in names] + [({n: -1}, -_BOX, "<=") for n in names]
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {n: k for n, k in draw(st.dictionaries(
            st.sampled_from(names), st.integers(-4, 4))).items() if k}
        rows.append(solver._row({n: Fraction(k) for n, k in coeffs.items()},
                                Fraction(draw(st.integers(-12, 12))),
                                draw(st.sampled_from(["=", "<=", "<"]))))
    return rows, [(n, True) for n in draw(st.permutations(names))]


@settings(max_examples=300, deadline=None)
@given(_boxed_int_systems())
def test_clipped_search_finds_the_first_box_point(system):
    # The search's candidates run in order of |v|, ties toward nonnegative,
    # in the variable order, so its model is the first point of the box in
    # that lexicographic order that satisfies every row.
    rows, order = system
    mentioned = {n for coeffs, _, _ in rows for n in coeffs}
    names = [n for n, _ in order if n in mentioned]
    values = sorted(range(-_BOX, _BOX + 1), key=lambda k: (abs(k), k < 0))
    want = next(({n: Fraction(k) for n, k in zip(names, point)}
                 for point in itertools.product(values, repeat=len(names))
                 if all(solver._holds(sum((c * point[names.index(n)]
                                           for n, c in coeffs.items()), k), op)
                        for coeffs, k, op in rows)), None)
    assert solver._solve_linear(rows, order, solver._Budget(1 << 20)) == want


def test_bounds_refute_what_the_oracle_search_never_ends():
    # 3b - 3c = 1 has no integer solution.  With 0 <= b <= 1 the bounds
    # cross (c = 0, then 1/3 <= b <= 1/3) before any candidate; the oracle
    # walks a >= b upward forever, each a refuted only below it.
    atoms = [({"b": Fraction(1), "a": Fraction(-1)}, Fraction(0), "<="),
             ({"b": Fraction(-1)}, Fraction(0), "<="), ({"b": Fraction(1)}, Fraction(-1), "<="),
             ({"b": Fraction(3), "c": Fraction(-3)}, Fraction(-1), "=")]
    order = [("a", True), ("b", True), ("c", True)]
    rows = [solver._row(c, k, op) for c, k, op in atoms]
    assert _run_linear(solver._solve_linear, rows, order, 1) == (None, 1)
    assert _run_linear(oracle_fm._solve_linear, atoms, order, 1 << 8) == "out of budget"
    assert _run_linear(_oracle_within_int_bounds, atoms, order, 1) == (None, 1)


@st.composite
def _int_equalities(draw):
    """1-3 equality rows over 2-3 integers, coefficients and constants small."""
    names = "abc"[:draw(st.integers(2, 3))]
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {n: Fraction(k) for n in names if (k := draw(st.integers(-6, 6)))}
        rows.append(solver._row(coeffs, Fraction(draw(st.integers(-12, 12))), "="))
    return rows, [(n, True) for n in names]


@settings(max_examples=150, deadline=None)
@given(_int_equalities())
def test_integer_presolve_refutes_only_systems_without_integer_points(system):
    rows, order = system
    names = [n for n, _ in order]
    points = itertools.product(range(-8, 9), repeat=len(names))
    if solver._int_unsolvable(rows, order):
        assert not any(all(sum(c * point[names.index(n)] for n, c in coeffs.items()) + k == 0
                           for coeffs, k, _ in rows) for point in points)


def test_integer_presolve_decides_by_divisibility():
    ints = [("m", True), ("n", True), ("i", True), ("j", True)]
    # m - n = -9730 with m = 100i and n = 100j: 100(i - j) = -9730.
    rows = [({"m": 1, "n": -1}, 9730, "="), ({"m": 1, "i": -100}, 0, "="),
            ({"n": 1, "j": -100}, 0, "=")]
    assert solver._int_unsolvable(rows, ints)
    assert not solver._int_unsolvable(rows[:2], ints)
    assert solver._int_unsolvable([({"m": 3, "n": -3}, -1, "=")], ints)
    assert not solver._int_unsolvable([({"m": 2, "n": 3}, 1, "=")], ints)  # m = 1, n = -1
    # A rational variable, an inequality or one variable per row: no test.
    assert not solver._int_unsolvable([({"m": 3, "q": -3}, -1, "=")], ints + [("q", False)])
    assert not solver._int_unsolvable([({"m": 3, "n": -3}, -1, "<=")], ints)
    assert not solver._int_unsolvable([({"m": 3}, -1, "=")], ints)


_MIXED_BOX = 4


@st.composite
def _boxed_mixed_systems(draw):
    """Rows over 2-4 variables, each within |v| <= _MIXED_BOX, integers and
    rationals in a drawn order, and 1-4 drawn rows over them."""
    names = "abcd"[:draw(st.integers(2, 4))]
    rows = [({n: 1}, -_MIXED_BOX, "<=") for n in names] + \
        [({n: -1}, -_MIXED_BOX, "<=") for n in names]
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {n: k for n, k in draw(st.dictionaries(st.sampled_from(names), _coeff)).items()
                  if k}
        rows.append(solver._row(coeffs, draw(st.fractions(-6, 6, max_denominator=3)),
                                draw(st.sampled_from(["=", "<=", "<"]))))
    return rows, [(n, draw(st.booleans())) for n in draw(st.permutations(names))]


@settings(max_examples=400, deadline=None)
@given(_boxed_mixed_systems())
def test_linear_core_decides_boxed_mixed_systems(system):
    # Brute force: the rows have a solution with the integers integral iff
    # fixing the integers at some point of the box leaves rows with a
    # rational solution.
    rows, order = system
    ints = [n for n, is_int in order if is_int]

    def feasible_at(point):
        fixed = []
        for coeffs, k, op in rows:
            k += sum(c * point[n] for n, c in coeffs.items() if n in point)
            fixed.append(({n: c for n, c in coeffs.items() if n not in point}, k, op))
        try:
            solver._project(fixed)
        except solver._Infeasible:
            return False
        return True
    box = range(-_MIXED_BOX, _MIXED_BOX + 1)
    solvable = any(feasible_at(dict(zip(ints, p))) for p in itertools.product(box, repeat=len(ints)))
    model = solver._solve_linear(rows, order, solver._Budget(1 << 20))
    if not solvable:
        assert model is None
        return
    assert model is not None
    assert all(model[n].denominator == 1 for n in ints)
    assert all(solver._holds(sum((c * model[n] for n, c in coeffs.items()), Fraction(k)), op)
               for coeffs, k, op in rows)


def _linear_entries(rows, order, limit=64):
    """The model or None of `solver._solve_linear`, and how often it was
    entered: twice when it searched the rows again with the integers first."""
    with mock.patch.object(solver, "_solve_linear", wraps=solver._solve_linear) as spy:
        out = solver._solve_linear(rows, order, solver._Budget(limit))
    return out, spy.call_count


def test_rational_pick_without_integer_completion_is_decided():
    # 10q - x = 0 and 1 <= x <= 8: q is fixed first, at the midpoint 9/20 of
    # its window [1/10, 4/5], and x = 9/2 is no integer; searched again with
    # x first, x = 1 gives q = 1/10.
    rows = [({"q": 10, "x": -1}, 0, "="), ({"x": -1}, 1, "<="), ({"x": 1}, -8, "<=")]
    assert _linear_entries(rows, [("q", False), ("x", True)]) == \
        ({"q": Fraction(1, 10), "x": Fraction(1)}, 2)
    # A pick its window forces is no guess: 2q = 1 leaves x = q no integer.
    rows = [({"q": 2}, -1, "="), ({"q": 1, "x": -1}, 0, "=")]
    assert _linear_entries(rows, [("q", False), ("x", True)]) == (None, 1)
    q, x = v("q", RAT), v("x")
    lits = (SymBin("=", q, SymBin("/", x, c(10))), SymBin(">=", x, c(1)),
            SymBin("<=", x, c(8)))
    assert _fresh_check((SymVar("q", RAT), X), lits) == \
        Sat({"q": VRat(Fraction(1, 10)), "x": VInt(1)})


def test_rational_pick_no_integer_window_reads_is_exact():
    # q in [0, 1] is picked at 0 and every b is refuted below it (3b - 3c = 1
    # has no integer solution, though three sweeps leave the bounds apart),
    # but q is in no row with b or c, so no other value of q could help and
    # the rows are not searched again.
    rows = [({"q": -1}, 0, "<="), ({"q": 1}, -1, "<="), ({"b": 3, "c": -3}, -1, "="),
            ({"b": -1}, 0, "<="), ({"b": 1}, -10, "<="),
            ({"c": -1}, 0, "<="), ({"c": 1}, -10, "<=")]
    order = [("q", False), ("b", True), ("c", True)]
    assert solver._int_bounds(rows, order) is not None
    assert _linear_entries(rows, order, 1 << 10) == (None, 1)


def test_a_branch_below_a_rational_pick_is_decided_within_budget():
    # The first branch fixes q before an integer that depends on it, finds
    # no integer completion and is searched again with the integers first,
    # which decides it within a budget of 16: the answer is that branch's
    # model, the first in DNF order, whatever budget is left over.
    x, y = v("x"), v("y")
    lits = (SymBin("=", SymRound(SymBin("+", SymBin("*", x, c(1)), y)), c(3)),
            SymBin("<", x, c(2)),
            SymNot(SymBin("=", SymRound(SymBin("+", SymBin("/", v("q", RAT), c(2)), y)),
                          c(-4))),
            SymBin("&&", SymNot(v("b", BOOL)), SymNot(SymBin("<", SymBin("-", x, y), c(-5)))))
    small = _fresh_check(_MIXED_LEAVES, lits, limit=16)
    assert isinstance(small, Sat) and small.model["q"] == VRat(Fraction(-15))
    assert _fresh_check(_MIXED_LEAVES, lits, limit=256) == small


# x >= -5, 0 <= y <= 10, 0 <= z <= 10 and 1 <= 3y - 3z <= 2: no integer y
# and z, and no row holds x with another variable.
_UNTIED_ROWS = [({"x": -1}, -5, "<="), ({"y": -1}, 0, "<="), ({"y": 1}, -10, "<="),
                ({"z": -1}, 0, "<="), ({"z": 1}, -10, "<="),
                ({"y": -3, "z": 3}, 1, "<="), ({"y": 3, "z": -3}, -2, "<=")]


@pytest.mark.parametrize("names", ["xyz", "yzx"])
def test_a_variable_in_no_row_with_another_is_not_searched(names):
    # Searched first, x's unbounded candidates were walked under each
    # refuted y until the budget ran out.  The FM oracle still runs out at
    # a budget of 8, and its fallback decides each part at once.
    order = [(n, True) for n in names]
    assert _run_linear(solver._solve_linear, _UNTIED_ROWS, order, solver.DEFAULT_BUDGET) == \
        (None, solver.DEFAULT_BUDGET - 3)
    atoms = [({n: Fraction(k) for n, k in coeffs.items()}, Fraction(k), op)
             for coeffs, k, op in _UNTIED_ROWS]
    start = time.perf_counter()
    _assert_matches_oracle(_UNTIED_ROWS, atoms, order, 8)
    assert time.perf_counter() - start < 1


@st.composite
def _untied_extensions(draw):
    """A `_linear_systems` draw, and 1-3 variables e, f, g inserted at
    drawn places in its order, each with one or two rows over it alone that
    hold at a drawn point: an integer one for an integer variable."""
    atoms, order, limit = draw(_linear_systems())
    order, extra = list(order), []
    for name in "efg"[:draw(st.integers(1, 3))]:
        is_int = draw(st.booleans())
        point = Fraction(draw(st.integers(-4, 4))) if is_int else draw(_coeff)
        for _ in range(draw(st.integers(1, 2))):
            k = draw(_coeff.filter(bool))
            op = draw(st.sampled_from(["=", "<=", "<"]))
            slack = Fraction(0) if op == "=" else draw(
                st.fractions(min_value=0, max_value=2, max_denominator=3).filter(
                    lambda x: x > 0 or op == "<="))
            extra.append(({name: k}, -k * point - slack, op))
        order.insert(draw(st.integers(0, len(order))), (name, is_int))
    return atoms, extra, order, limit


@settings(max_examples=300, deadline=None)
@given(_untied_extensions())
def test_untied_variables_keep_the_rest_of_the_model(system):
    # Wherever the core decides the drawn system, the inserted variables
    # leave its answer and every other value as they were, and each takes
    # the value of least magnitude in its window: an integer for one more
    # unit of budget.
    atoms, extra, order, limit = system
    new = {n: is_int for n, is_int in order if n in "efg"}
    rows = [solver._row(c, k, op) for c, k, op in atoms]
    want = _run_linear(solver._solve_linear, rows, [v for v in order if v[0] not in new], limit)
    if want == "out of budget":
        return
    ints = sum(new.values())
    got = _run_linear(solver._solve_linear, rows + [solver._row(c, k, op) for c, k, op in extra],
                      order, limit + ints)
    assert got != "out of budget"
    spent = limit + ints - got[1] - (limit - want[1])
    if want[0] is None:
        assert got[0] is None and spent <= 0
        return
    assert {n: x for n, x in got[0].items() if n not in new} == want[0] and spent <= ints
    for n, is_int in new.items():
        own = [a for a in extra if n in a[0]]
        if is_int:
            ilo, ihi = _integers_within(*oracle_fm._bounds_of(own, n))
            assert got[0][n] == min((k for k in range(-4, 5) if (ilo is None or k >= ilo)
                                     and (ihi is None or k <= ihi)),
                                    key=lambda k: (abs(k), k < 0))
        else:
            assert got[0][n] == solver._pick_rational(
                [solver._row(c, k, op) for c, k, op in own], n, {})
