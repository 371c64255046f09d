import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from defcalc.lang import (
    BOOL, INT, MONEY, RAT,
    BinOp, Binding, Default, Lit, Not, Program, Scope, VBool, VInt, VMoney, VRat,
    Var, validate,
)
from defcalc.parser import (
    _PREC, parse, parse_literal, parse_or_raise, print_expr, print_money, print_program,
)
from fractions import Fraction

from genutil import gen_default_term, term_program


def parses_clean(text):
    res = parse(text)
    assert not res.diagnostics, res.diagnostics
    return res.program


# -- literals ----------------------------------------------------------------


def test_money_literal_is_exact_cents():
    p = parses_clean("scope S { def y: money = $1,234.56; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VMoney(123456))


def test_money_literal_without_cents():
    p = parses_clean("scope S { def y: money = $0; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VMoney(0))


def test_money_literal_comma_only_before_three_digits():
    # A comma after a money literal separates list items unless exactly
    # three digits follow it.
    p = parses_clean("fn f(a: money, b: int) -> int = b\n"
                     "scope S { input x: int; def y: int = f($1, x); output y; }")
    assert p.scopes[0].bindings[0].expr.args[0] == Lit(VMoney(100))
    p = parses_clean("scope S { def y: money = $1,000,000.05; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VMoney(100000005))
    assert print_money(100000005) == "$1,000,000.05"
    assert parse("scope S { def y: money = $1,0000; output y; }").diagnostics


def test_rational_literal_no_spaces():
    p = parses_clean("scope S { def y: rate = 3/2; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VRat(Fraction(3, 2)))


def test_spaced_slash_is_division():
    p = parses_clean("scope S { def y: rate = 3 / 2; output y; }")
    expr = p.scopes[0].bindings[0].expr
    assert not isinstance(expr, Lit)


def test_percent_literal_sugar():
    p = parses_clean("scope S { def y: rate = 20%; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VRat(Fraction(1, 5)))


def test_negative_literals():
    p = parses_clean("scope S { def y: int = -42; output y; }")
    assert p.scopes[0].bindings[0].expr == Lit(VInt(-42))


def test_parse_literal_helper():
    assert parse_literal("$10,000.01") == VMoney(1000001)
    assert parse_literal("true") == VBool(True)
    assert parse_literal("-3/2") == VRat(Fraction(-3, 2))


# -- default terms -------------------------------------------------------------


def test_rule_abbreviates_empty_default():
    p = parses_clean("scope S { def y: money = rule (true :- $0); output y; }")
    expr = p.scopes[0].bindings[0].expr
    assert expr == Default((), Lit(VBool(True)), Lit(VMoney(0)))


def test_empty_exception_list():
    p = parses_clean("scope S { def y: int = default <> (false :- 1); output y; }")
    expr = p.scopes[0].bindings[0].expr
    assert expr == Default((), Lit(VBool(False)), Lit(VInt(1)))


def test_canonical_print_of_bare_default():
    assert print_expr(Default((), Lit(VBool(True)), Lit(VInt(1)))) == \
        "default <> (true :- 1)"


def test_running_example_structure(income_tax):
    scope = income_tax.scope("IncomeTax")
    assert len(scope.inputs) == 2
    rate = scope.bindings[0].expr
    assert isinstance(rate, Default)
    assert len(rate.exceptions) == 2


# -- round trips ----------------------------------------------------------------


@pytest.mark.parametrize("name", [
    "fig5.dfc", "income_tax.dfc", "geo_match.dfc", "trivial_just.dfc",
    "soft_money.dfc", "benefits_medium.dfc",
])
def test_bundled_programs_round_trip(programs_dir, name):
    prog = parse_or_raise((programs_dir / name).read_text())
    assert validate(prog) == []
    assert parse_or_raise(print_program(prog)) == prog


def test_round_trip_nine_arm_match(geo_match):
    assert parse_or_raise(print_program(geo_match)) == geo_match


def test_round_trip_random_default_terms():
    rng = random.Random(20240917)
    for _ in range(300):
        prog = term_program(gen_default_term(rng))
        assert validate(prog) == []
        printed = print_program(prog)
        assert parse_or_raise(printed) == prog, printed


def _binary(op, lhs, rhs):
    return Not(BinOp("=", lhs, rhs)) if op == "!=" else BinOp(op, lhs, rhs)


@pytest.mark.parametrize("outer,inner", list(itertools.product(_PREC, repeat=2)))
def test_round_trip_every_operator_pair(outer, inner):
    # Each operator of the precedence table nested under each one, on the
    # left and on the right; `(a = b) = c` needs its parentheses too.
    a, b, c = Var("a"), Var("b"), Var("c")
    for expr in (_binary(outer, _binary(inner, a, b), c),
                 _binary(outer, a, _binary(inner, b, c))):
        printed = print_expr(expr)
        prog = parse_or_raise(f"scope S {{ def y: bool = {printed}; }}")
        assert prog.scopes[0].bindings[0].expr == expr, printed


def test_round_trip_struct_enum_opaque():
    src = """
enum Opt { NoUnit, SomeUnit(int) }
struct Pair { a: int, b: money }
fn bump(v: int) -> int = v + 1
scope S {
  input p: Pair;
  input o: Opt;
  def q: int = match o { NoUnit => 0, SomeUnit n => bump(n) };
  def r: int = let t = q * 2 in t - 1;
  def s: int = assert(r >= 0, r);
  def w: int = opaque mystery : int (r, q);
  output w;
}
"""
    prog = parse_or_raise(src)
    assert parse_or_raise(print_program(prog)) == prog


# -- robustness -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_never_raises_on_arbitrary_text(text):
    res = parse(text)
    assert res.diagnostics is not None


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=200))
def test_parser_never_raises_on_bytes(data):
    res = parse(data.decode("utf-8", errors="replace"))
    assert res.diagnostics is not None


def test_error_recovery_continues_at_semicolon():
    src = """
scope S {
  input x: int;
  def y: int = ((;
  def z: int = x + 1;
  output z;
}
"""
    res = parse(src)
    assert res.diagnostics
    assert res.program.scopes, "later items still parsed"
    names = [b.name for b in res.program.scopes[0].bindings]
    assert "z" in names


def test_diagnostics_carry_positions():
    res = parse("scope S {\n  input x: int\n  output x;\n}")
    assert res.diagnostics
    d = res.diagnostics[0]
    assert d.span is not None
    line, col = res.unit.line_col(d.span.start)
    assert line >= 2


def test_unknown_type_diagnostics_follow_source_order():
    res = parse("scope S { input x: int;"
                " def y: int = opaque f : Foo (opaque g : Bar (x), opaque h : Baz (x));"
                " output y; }")
    assert [d.message for d in res.diagnostics] == [
        "unknown type Foo", "unknown type Bar", "unknown type Baz"]


@pytest.mark.parametrize("text,message,at", [
    ("enum E { }", "enum E has no variants", "enum"),
    ("enum E { A, A }", "enum E has duplicate variants", "enum"),
    ("struct S { a: int, a: int }", "struct S has duplicate fields", "struct"),
    ("scope S { def y: int = " + "1" * 5000 + "; }", "numeric literal too long", "1" * 5000),
])
def test_invalid_declarations_and_literals_are_diagnostics(text, message, at):
    # Each of these raised ValueError from EnumT, StructT or int().
    res = parse(text + "\nscope T { input x: int; output x; }")
    start = text.rindex(at)
    assert [(d.message, d.span.start) for d in res.diagnostics] == [(message, start)]
    assert [s.name for s in res.program.scopes][-1] == "T"  # parsing went on
