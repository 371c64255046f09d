import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defcalc.lang import (
    BOOL, INT, MONEY, RAT,
    Assert, BinOp, Binding, Default, EnumT, Lit, Program, Scope, StructT, Var,
    VBool, VConflict, VEmpty, VEnum, VInt, VMoney, VRat, VStruct, binop_result,
)
from defcalc.interp import (
    Mode, OutcomeKind, apply_binop, eval_expr, register_opaque, round_rat,
    run_scope,
)
from defcalc.lang import Opaque

import oracle_concolic
from genutil import gen_default_term, gen_env, term_program


def rule(j, c):
    return Default((), j, c)


def test_bare_default_false_justification_is_empty():
    assert eval_expr(rule(Lit(VBool(False)), Lit(VInt(1))), {}) == VEmpty()


def test_single_firing_exception_wins():
    term = Default((rule(Lit(VBool(True)), Lit(VInt(1))),
                    rule(Lit(VBool(False)), Lit(VInt(2)))),
                   Lit(VBool(True)), Lit(VInt(3)))
    assert eval_expr(term, {}) == VInt(1)


def test_two_firing_exceptions_conflict():
    term = Default((rule(Lit(VBool(True)), Lit(VInt(1))),
                    rule(Lit(VBool(True)), Lit(VInt(2)))),
                   Lit(VBool(True)), Lit(VInt(3)))
    assert eval_expr(term, {}) == VConflict()


def test_two_firing_exceptions_conflict_even_when_equal():
    term = Default((rule(Lit(VBool(True)), Lit(VInt(7))),
                    rule(Lit(VBool(True)), Lit(VInt(7)))),
                   Lit(VBool(True)), Lit(VInt(0)))
    assert eval_expr(term, {}) == VConflict()
    assert eval_expr(term, {}, mode=Mode.LAZY) == VConflict()


def test_division_by_zero_is_conflict():
    assert eval_expr(BinOp("/", Lit(VInt(1)), Lit(VInt(0))), {}) == VConflict()


def test_money_rate_product_rounds_to_cent():
    e = BinOp("*", Lit(VMoney(1000001)), Lit(VRat(Fraction(1, 5))))
    assert eval_expr(e, {}) == VMoney(200000)
    e = BinOp("*", Lit(VMoney(1000001)), Lit(VRat(Fraction(3, 20))))
    assert eval_expr(e, {}) == VMoney(150000)


def test_int_division_produces_rational():
    assert eval_expr(BinOp("/", Lit(VInt(1)), Lit(VInt(3))), {}) == VRat(Fraction(1, 3))


def test_inline_assert_failure_is_conflict():
    e = Assert(Lit(VBool(False)), Lit(VInt(1)))
    assert eval_expr(e, {}) == VConflict()


def test_opaque_without_handler_is_conflict():
    assert eval_expr(Opaque("nosuch", INT, ()), {}) == VConflict()


def test_opaque_handler_runs_concretely():
    register_opaque("triple", lambda vals: VInt(vals[0].i * 3))
    assert eval_expr(Opaque("triple", INT, (Lit(VInt(4)),)), {}) == VInt(12)


# -- round_rat ---------------------------------------------------------------


@pytest.mark.parametrize("q,expected", [
    (Fraction(5, 2), 3),
    (Fraction(-1, 2), -1),
    (Fraction(0), 0),
    (Fraction(1, 2), 1),
    (Fraction(7, 3), 2),
    (Fraction(-7, 3), -2),
])
def test_round_rat_cases(q, expected):
    assert round_rat(q) == expected


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_round_rat_odd_symmetry(q):
    assert round_rat(q) + round_rat(-q) == 0


@settings(max_examples=300, deadline=None)
@given(st.fractions())
def test_round_rat_within_half(q):
    assert abs(Fraction(round_rat(q)) - q) <= Fraction(1, 2)


# -- the operator table against the Fraction oracle --------------------------

_ENUM = EnumT("E", (("A", None), ("B", INT)))
_STRUCT = StructT("P", (("n", INT), ("m", MONEY)))
_INTS = st.one_of(st.integers(-12, 12), st.integers(-10**12, 10**12))
_RATS = st.fractions(min_value=-50, max_value=50, max_denominator=400)
VALUES = {
    BOOL: st.booleans().map(VBool),
    INT: _INTS.map(VInt),
    MONEY: _INTS.map(VMoney),
    RAT: _RATS.map(VRat),
    _ENUM: st.one_of(st.just(VEnum("E", "A")),
                     st.integers(-2, 2).map(lambda i: VEnum("E", "B", VInt(i)))),
    _STRUCT: st.tuples(st.integers(-2, 2), st.integers(-2, 2)).map(
        lambda nm: VStruct("P", (("n", VInt(nm[0])), ("m", VMoney(nm[1]))))),
}
# Every kind of value type, so every pair the validator admits: 34 of them.
ADMITTED = [(op, lt, rt)
            for op in ("&&", "||", "=", "<", "<=", ">", ">=", "+", "-", "*", "/")
            for lt in VALUES for rt in VALUES if binop_result(op, lt, rt) is not None]
_ZEROS = {INT: VInt(0), MONEY: VMoney(0), RAT: VRat(Fraction(0))}


@pytest.mark.parametrize("op,lt,rt", ADMITTED, ids=lambda x: str(x))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_operator_table_matches_the_fraction_oracle(op, lt, rt, data):
    lv = data.draw(VALUES[lt])
    rv = data.draw(st.one_of(st.just(_ZEROS[rt]), VALUES[rt]) if op == "/" else VALUES[rt])
    got = apply_binop(op, lv, rv)
    assert got == oracle_concolic.apply_binop(op, lv, rv)
    if op == "/" and rv == _ZEROS[rt]:
        assert isinstance(got, VConflict)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**9, 10**9).filter(bool), st.integers(-10**6, 10**6))
def test_money_rate_rounding_ties_match_the_fraction_oracle(cents, n):
    # c * r and c / r land exactly on n + 1/2, with the money positive and
    # negative.
    tie = Fraction(2 * n + 1, 2)
    for c in (cents, -cents):
        product = (VMoney(c), VRat(tie / c))
        quotient = (VMoney(c), VRat(c / tie))
        for op, lv, rv in (("*", *product), ("*", *reversed(product)), ("/", *quotient)):
            got = apply_binop(op, lv, rv)
            assert got == oracle_concolic.apply_binop(op, lv, rv)
            assert abs(got.cents) == abs(n + (n >= 0))  # away from zero


# -- scope runs ---------------------------------------------------------------


def tax_inputs(cents, children):
    return {"income": VMoney(cents), "nb_children": VInt(children)}


def test_income_tax_cases(income_tax):
    o = run_scope(income_tax, "IncomeTax", tax_inputs(0, 0))
    assert o.output("income_tax") == VMoney(0)
    o = run_scope(income_tax, "IncomeTax", tax_inputs(0, 3))
    assert o.kind is OutcomeKind.CONFLICT
    o = run_scope(income_tax, "IncomeTax", tax_inputs(1000001, 2))
    assert o.output("income_tax") == VMoney(200000)
    o = run_scope(income_tax, "IncomeTax", tax_inputs(1000001, 3))
    assert o.output("income_tax") == VMoney(150000)


def test_violated_assertion_is_precondition_not_conflict(benefits_medium):
    inputs = {
        "zone": VEnum("Zone", "Z1"),
        "couple": VBool(False), "disabled": VBool(False),
        "student": VBool(False), "dependents": VInt(-1),
    }
    o = run_scope(benefits_medium, "Benefits", inputs)
    assert o.kind is OutcomeKind.PRECONDITION


def test_scope_empty_outcome():
    term = rule(Var("b"), Lit(VInt(1)))
    prog = Program(scopes=(Scope("S", (("b", BOOL),), (),
                                 (Binding("y", INT, term),), ("y",)),))
    o = run_scope(prog, "S", {"b": VBool(False)})
    assert o.kind is OutcomeKind.EMPTY


def test_run_scope_rejects_wrong_inputs(income_tax):
    with pytest.raises(ValueError):
        run_scope(income_tax, "IncomeTax", {"income": VMoney(0)})


# -- semantic properties -------------------------------------------------------


def test_exception_order_independence_sample():
    rng = random.Random(99)
    prog_cache = {}
    for _ in range(200):
        term = gen_default_term(rng)
        if len(term.exceptions) < 2:
            continue
        prog = term_program(term)
        perm = list(term.exceptions)
        rng.shuffle(perm)
        permuted = Default(tuple(perm), term.just, term.cons)
        for _ in range(5):
            env = gen_env(rng)
            assert eval_expr(term, env, prog) == eval_expr(permuted, env, prog)


def test_mode_equivalence_sample():
    rng = random.Random(100)
    for _ in range(200):
        term = gen_default_term(rng)
        prog = term_program(term)
        for _ in range(5):
            env = gen_env(rng)
            assert eval_expr(term, env, prog, Mode.EAGER) == \
                eval_expr(term, env, prog, Mode.LAZY)


def test_determinism():
    rng = random.Random(7)
    term = gen_default_term(rng)
    prog = term_program(term)
    env = gen_env(rng)
    assert eval_expr(term, env, prog) == eval_expr(term, env, prog)


def test_validated_fuzz_terms_evaluate_without_python_errors():
    from defcalc.lang import validate
    rng = random.Random(4242)
    for _ in range(150):
        prog = term_program(gen_default_term(rng))
        assert validate(prog) == []
        for _ in range(3):
            eval_expr(prog.scopes[0].bindings[0].expr, gen_env(rng), prog)
