from typing import get_args

import pytest

from defcalc.lang import (
    BOOL, INT, MONEY, RAT,
    Assert, BinOp, Binding, Call, Default, EnumMake, EnumT, Expr, FieldGet,
    Function, If, Let, Lit, Match, MatchArm, Not, Opaque, Program, Scope,
    Span, StructMake, StructT, Var, VBool, VInt, VMoney, children,
    free_input_vars, map_bottom_up, rebuild, validate,
)


def test_enum_variants_must_be_unique():
    with pytest.raises(ValueError):
        EnumT("E", (("A", None), ("A", None)))
    with pytest.raises(ValueError):
        EnumT("E", ())


def test_struct_fields_must_be_unique():
    with pytest.raises(ValueError):
        StructT("S", (("f", INT), ("f", BOOL)))


def test_validate_running_example_is_clean(income_tax):
    assert validate(income_tax) == []


def test_validate_is_pure_and_idempotent(income_tax):
    assert validate(income_tax) == validate(income_tax)


def test_validate_checks_a_program_once(monkeypatch):
    # The errors are kept on the program: each call returns a fresh list,
    # `explore`'s own call on a validated program checks nothing again, and
    # `explore` still refuses an invalid program before the engine runs.
    from defcalc import explorer, lang
    from defcalc.parser import parse_or_raise
    checks = []
    real = lang._Checker
    monkeypatch.setattr(lang, "_Checker", lambda p: checks.append(p) or real(p))
    good = parse_or_raise("scope S { input x: int; def y: int = x + 1; output y; }")
    assert validate(good) == [] and len(checks) == 1
    explorer.explore(good, "S")
    assert len(checks) == 1
    bad = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", INT, Var("z")),), ("y",)),))
    validate(bad).clear()
    assert validate(bad) == validate(bad) != [] and len(checks) == 2
    monkeypatch.setattr(explorer, "_prepare", lambda *a: pytest.fail("the engine ran"))
    with pytest.raises(ValueError, match="unbound"):
        explorer.explore(bad, "S")
    assert len(checks) == 2


def test_default_with_int_justification_is_type_error():
    bad = Default((), Lit(VInt(1)), Lit(VInt(2)))
    prog = Program(scopes=(Scope("S", (), (), (Binding("y", INT, bad),), ("y",)),))
    errors = validate(prog)
    assert any("justification" in e.message for e in errors)


def test_recursive_function_is_rejected():
    f = Function("f", (("n", INT),), INT, Call("f", (Var("n"),)))
    prog = Program(functions=(f,))
    errors = validate(prog)
    assert any("recursion" in e.message for e in errors)


def test_call_cycle_between_functions_is_rejected():
    f = Function("f", (("n", INT),), INT, Call("g", (Var("n"),)))
    g = Function("g", (("n", INT),), INT, BinOp("+", Var("n"), Lit(VInt(1))))
    # f calls g declared later: the declaration order induces the acyclicity
    prog = Program(functions=(f, g))
    errors = validate(prog)
    assert any("acyclic" in e.message for e in errors)
    assert validate(Program(functions=(g, f))) == []


def test_unbound_variable_reported():
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", INT, Var("z")),), ("y",)),))
    errors = validate(prog)
    assert any("unbound" in e.message for e in errors)


def test_assertions_must_only_mention_inputs():
    sc = Scope("S", (("x", INT),), (BinOp(">", Var("y"), Lit(VInt(0))),),
               (Binding("y", INT, Var("x")),), ("y",))
    errors = validate(Program(scopes=(sc,)))
    assert any("non-input" in e.message for e in errors)


def test_binop_money_typing():
    sc = Scope("S", (("m", MONEY),), (),
               (Binding("y", MONEY, BinOp("+", Var("m"), Lit(VInt(1)))),), ("y",))
    errors = validate(Program(scopes=(sc,)))
    assert errors, "money + int must not type-check"


# -- free_input_vars -------------------------------------------------------


def test_free_input_vars_of_running_example_rate(income_tax):
    scope = income_tax.scope("IncomeTax")
    rate = scope.bindings[0].expr
    assert free_input_vars(rate, scope) == {"income", "nb_children"}


def test_free_input_vars_literal_is_empty(income_tax):
    scope = income_tax.scope("IncomeTax")
    assert free_input_vars(Lit(VMoney(0)), scope) == set()


def test_free_input_vars_let_shadowing():
    scope = Scope("S", (("x", INT), ("y", INT)), (), (), ())
    expr = Let("y", Var("x"), Var("y"))
    assert free_input_vars(expr, scope) == {"x"}


def test_free_input_vars_expand_bindings_transitively(income_tax):
    scope = income_tax.scope("IncomeTax")
    tax = scope.bindings[1].expr  # income * tax_rate
    assert free_input_vars(tax, scope) == {"income", "nb_children"}


def test_free_input_vars_subset_of_inputs(income_tax):
    scope = income_tax.scope("IncomeTax")
    declared = {n for n, _ in scope.inputs}
    for b in scope.bindings:
        assert free_input_vars(b.expr, scope) <= declared


# -- children / rebuild ------------------------------------------------------

_X, _ONE = Var("x", span=Span(0, 1)), Lit(VInt(1), span=Span(2, 3))
ONE_OF_EACH_KIND = [
    _X,
    _ONE,
    BinOp("+", _X, _ONE, span=Span(0, 3)),
    Not(Lit(VBool(True)), span=Span(0, 8)),
    If(Var("b"), _X, _ONE),
    Match(Var("o"), (MatchArm(("Some",), "n", Var("n")),
                     MatchArm(None, None, _ONE)), span=Span(4, 9)),
    StructMake("Pair", (("a", _X), ("b", _ONE))),
    FieldGet(Var("p"), "a"),
    EnumMake("Opt", "None_"),
    EnumMake("Opt", "Some", _ONE),
    Let("t", _X, BinOp("*", Var("t"), _ONE)),
    Call("f", (_X, _ONE)),
    Default((Default((), Var("b"), _ONE),), Lit(VBool(True)), _X),
    Assert(Var("b"), _X),
    Opaque("mystery", INT, (_X, _ONE), span=Span(1, 2)),
]


@pytest.mark.parametrize("e", ONE_OF_EACH_KIND, ids=lambda e: type(e).__name__)
def test_rebuild_with_own_children_is_identity(e):
    for out in (rebuild(e, children(e)), map_bottom_up(e, lambda x: x)):
        assert out == e and out.span == e.span


def test_one_of_each_kind_covers_every_expression_kind():
    assert {type(e) for e in ONE_OF_EACH_KIND} == set(get_args(Expr))


def test_map_bottom_up_visits_children_first():
    seen = []
    map_bottom_up(BinOp("+", Not(_X), _ONE),
                  lambda x: seen.append(type(x).__name__) or x)
    assert seen == ["Var", "Not", "Lit", "BinOp"]
