import itertools
import random

import pytest

from defcalc.lang import (
    BOOL, INT,
    BinOp, Binding, Default, If, Let, Lit, Match, MatchArm, Not, Program,
    Scope, Span, Var, VBool, VEmpty, VInt, children, map_bottom_up, validate,
)
from defcalc.interp import OutcomeKind, run_scope
from defcalc.concolic import compile_scope, run_scope_concolic
from defcalc.transforms import (
    fold_match_cases, fold_program, reorder_exceptions, reorder_program,
    TransformReport, _is_total, simplify_frontend, simplify_frontend_expr,
)

from conftest import load_program
from genutil import enumerate_inputs, gen_bool_expr, gen_default_term, gen_scope_program

BUNDLED_FILES = ("fig5.dfc", "income_tax.dfc", "geo_match.dfc", "trivial_just.dfc",
                 "soft_money.dfc", "benefits_medium.dfc")


def rule(j, c):
    return Default((), j, c)


# -- match folding -----------------------------------------------------------


def test_nine_variant_match_folds_to_two_arms(geo_match):
    scope = geo_match.scope("Housing")
    match = scope.bindings[0].expr
    folded, report = fold_match_cases(match)
    assert len(folded.arms) == 2
    assert report.arms_folded == 7
    true_arm = folded.arms[0]
    assert true_arm.variants == ("Mainland", "Corsica")
    false_arm = folded.arms[1]
    assert len(false_arm.variants) == 7


def test_distinct_bodies_unchanged():
    arms = tuple(MatchArm((v,), None, Lit(VInt(i)))
                 for i, v in enumerate(["A", "B", "C"]))
    m = Match(Var("k"), arms)
    folded, report = fold_match_cases(m)
    assert folded == m
    assert report.arms_folded == 0


def test_total_fold_gives_single_wildcard():
    arms = tuple(MatchArm((v,), None, Lit(VInt(1))) for v in ["A", "B", "C"])
    folded, report = fold_match_cases(Match(Var("k"), arms))
    assert len(folded.arms) == 1
    assert folded.arms[0].variants is None


def test_payload_binder_used_blocks_folding():
    arms = (MatchArm(("A",), "p", BinOp("+", Var("p"), Lit(VInt(1)))),
            MatchArm(("B",), "q", BinOp("+", Var("q"), Lit(VInt(1)))),
            MatchArm(("C",), None, Lit(VInt(0))))
    folded, report = fold_match_cases(Match(Var("k"), arms))
    assert report.arms_folded == 0


def test_unused_binder_folds_by_alpha_equivalence():
    arms = (MatchArm(("A",), "p", Lit(VInt(1))),
            MatchArm(("B",), "q", Lit(VInt(1))),
            MatchArm(("C",), None, Lit(VInt(0))))
    folded, _ = fold_match_cases(Match(Var("k"), arms))
    assert len(folded.arms) == 2
    assert folded.arms[0].variants == ("A", "B")
    assert folded.arms[0].binder is None


def test_folding_preserves_semantics(geo_match):
    folded, _ = fold_program(geo_match)
    assert validate(folded) == []
    for inputs in enumerate_inputs(geo_match.scope("Housing")):
        assert run_scope(folded, "Housing", inputs) == \
            run_scope(geo_match, "Housing", inputs)


def test_folding_idempotent(geo_match):
    once, _ = fold_program(geo_match)
    twice, rep = fold_program(once)
    assert twice == once and rep.arms_folded == 0


# -- exception reordering --------------------------------------------------------


def _scope_with(inputs, term):
    return Scope("S", tuple(inputs), (), (Binding("out", INT, term),), ("out",))


def test_reorder_groups_by_free_vars():
    term = Default((
        rule(BinOp(">", Var("a"), Lit(VInt(0))), Lit(VInt(1))),
        rule(BinOp(">", Var("b"), Lit(VInt(0))), Lit(VInt(2))),
        rule(BinOp("<", Var("a"), Lit(VInt(0))), Lit(VInt(3))),
    ), Lit(VBool(True)), Lit(VInt(0)))
    scope = _scope_with([("a", INT), ("b", INT)], term)
    out, report = reorder_exceptions(term, scope)
    assert report.exceptions_regrouped == 1
    # {a} group first (lexicographic), original order within the group kept
    assert out.exceptions[0] == term.exceptions[0]
    assert out.exceptions[1] == term.exceptions[2]
    assert out.exceptions[2] == term.exceptions[1]


def test_reorder_single_exception_unchanged():
    term = Default((rule(Var("p"), Lit(VInt(1))),), Lit(VBool(True)), Lit(VInt(0)))
    scope = _scope_with([("p", BOOL)], term)
    out, report = reorder_exceptions(term, scope)
    assert out == term and report.exceptions_regrouped == 0


def test_reorder_running_example_already_grouped(income_tax):
    scope = income_tax.scope("IncomeTax")
    term = scope.bindings[0].expr
    out, report = reorder_exceptions(term, scope)
    assert out == term
    assert report.exceptions_regrouped == 0


def test_reorder_preserves_results_by_order_independence():
    rng = random.Random(808)
    for _ in range(30):
        prog = gen_scope_program(rng)
        re_prog, _ = reorder_program(prog)
        assert validate(re_prog) == []
        for inputs in list(enumerate_inputs(prog.scopes[0]))[::7]:
            assert run_scope(prog, "Rand", inputs) == \
                run_scope(re_prog, "Rand", inputs)


# -- frontend simplification ------------------------------------------------------


def test_trivial_default_true_becomes_consequence():
    e, report = simplify_frontend_expr(rule(Lit(VBool(True)), Lit(VInt(42))))
    assert e == Lit(VInt(42))
    assert report.defaults_simplified == 1


def test_trivial_default_false_becomes_empty_marker():
    e, _ = simplify_frontend_expr(rule(Lit(VBool(False)), Lit(VInt(1))))
    assert e == Lit(VEmpty())


def test_if_true_partial_evaluation():
    e, _ = simplify_frontend_expr(If(Lit(VBool(True)), Var("a"), Var("b")))
    assert e == Var("a")


def test_default_with_exception_not_simplified():
    term = Default((rule(Lit(VBool(True)), Lit(VInt(1))),),
                   Lit(VBool(True)), Lit(VInt(2)))
    e, _ = simplify_frontend_expr(term)
    assert isinstance(e, Default)
    assert len(e.exceptions) == 1


def test_false_conjunction_folds_only_when_total():
    total = BinOp("&&", Lit(VBool(False)), BinOp(">", Var("x"), Lit(VInt(0))))
    e, _ = simplify_frontend_expr(total)
    assert e == Lit(VBool(False))
    failing = BinOp("&&", Lit(VBool(False)),
                    BinOp("=", BinOp("/", Lit(VInt(1)), Var("x")), Lit(VInt(1))))
    e, _ = simplify_frontend_expr(failing)
    assert isinstance(e, BinOp) and e.op == "&&"


def test_empty_marker_propagates_in_enclosing_default():
    inner = rule(Lit(VBool(False)), Lit(VInt(7)))
    term = Default((inner,), Lit(VBool(False)), Lit(VInt(3)))
    prog = Program(scopes=(_scope_with([("p", BOOL)], term),))
    simplified, _ = simplify_frontend(prog)
    env = {"p": VBool(False)}
    assert run_scope(prog, "S", env) == run_scope(simplified, "S", env)
    assert run_scope(simplified, "S", env).kind is OutcomeKind.EMPTY


def test_frontend_idempotent(trivial_just):
    once, _ = simplify_frontend(trivial_just)
    twice, rep = simplify_frontend(once)
    assert twice == once
    assert rep.defaults_simplified == 0 and rep.booleans_folded == 0


def _pass_until_equal(expr):
    """The former `simplify_frontend_expr`: bottom-up passes, each adding
    to one report, until a pass returns an equal expression; then the
    expression before that pass."""
    out, report = simplify_frontend_expr(expr)
    while True:
        again, more = simplify_frontend_expr(out)
        report.merge(more)
        if again == out:
            return out, report
        out = again


def test_one_frontend_pass_matches_passing_until_equal():
    rng = random.Random(1515)
    exprs = [gen_default_term(rng) for _ in range(300)]
    exprs += [gen_bool_expr(rng, 4) for _ in range(300)]
    progs = [load_program(name) for name in BUNDLED_FILES]
    progs += [gen_scope_program(rng) for _ in range(100)]
    for prog in progs:
        exprs += [f.body for f in prog.functions]
        for sc in prog.scopes:
            exprs += [*sc.assertions, *(b.expr for b in sc.bindings)]
    rewritten = 0
    for expr in exprs:
        out, report = simplify_frontend_expr(expr)
        assert (out, report) == _pass_until_equal(expr)
        assert simplify_frontend_expr(out)[0] is out
        rewritten += report != TransformReport()
    assert rewritten >= 200


def _eight_case_frontend_expr(expr):
    """`simplify_frontend_expr` as it was with eight spelled-out `&&`/`||`
    cases, kept as the reference for the one rule that replaced them."""
    report = TransformReport()
    t, f = Lit(VBool(True)), Lit(VBool(False))

    def simp(e):
        match e:
            case Default((), Lit(VBool(True)), cons):
                report.defaults_simplified += 1
                return cons
            case Default((), Lit(VBool(False)), _):
                report.defaults_simplified += 1
                return Lit(VEmpty(), span=e.span)
            case If(Lit(VBool(b)), then, els):
                report.booleans_folded += 1
                return then if b else els
            case Not(Lit(VBool(b))):
                report.booleans_folded += 1
                return f if b else t
            case BinOp("&&", Lit(VBool(True)), rhs):
                report.booleans_folded += 1
                return rhs
            case BinOp("&&", lhs, Lit(VBool(True))):
                report.booleans_folded += 1
                return lhs
            case BinOp("&&", Lit(VBool(False)), rhs) if _is_total(rhs):
                report.booleans_folded += 1
                return f
            case BinOp("&&", lhs, Lit(VBool(False))) if _is_total(lhs):
                report.booleans_folded += 1
                return f
            case BinOp("||", Lit(VBool(False)), rhs):
                report.booleans_folded += 1
                return rhs
            case BinOp("||", lhs, Lit(VBool(False))):
                report.booleans_folded += 1
                return lhs
            case BinOp("||", Lit(VBool(True)), rhs) if _is_total(rhs):
                report.booleans_folded += 1
                return t
            case BinOp("||", lhs, Lit(VBool(True))) if _is_total(lhs):
                report.booleans_folded += 1
                return t
            case _:
                return e

    return map_bottom_up(expr, simp), report


def _random_connectives(rng, depth, spans):
    """A boolean expression of `&&`, `||` and `not` over `true`/`false`
    literals, variables, a total comparison and two operands that are not
    total (a `/`, a default); every literal has a span of its own."""
    def lit(b):
        return Lit(VBool(b), span=Span(next(spans), 0))

    kind = rng.choice(["lit", "lit", "var", "cmp", "div", "default"]
                      + ["&&", "||", "&&", "||", "not"] * (depth > 0))
    match kind:
        case "lit":
            return lit(rng.random() < 0.5)
        case "var":
            return Var(rng.choice(["p", "q"]))
        case "cmp":
            return BinOp(">", Var("x"), Lit(VInt(0)))
        case "div":
            return BinOp("=", BinOp("/", Lit(VInt(1)), Var("x")), Lit(VInt(1)))
        case "default":  # with a literal justification it folds away
            just = lit(rng.random() < 0.5) if rng.random() < 0.5 else Var("p")
            return Default((), just, lit(rng.random() < 0.5))
        case "not":
            return Not(_random_connectives(rng, depth - 1, spans))
    return BinOp(kind, _random_connectives(rng, depth - 1, spans),
                 _random_connectives(rng, depth - 1, spans))


def _spans(e):
    """The spans of `e`'s nodes in preorder, which `==` does not compare."""
    return [e.span, *(s for c in children(e) for s in _spans(c))]


def test_one_connective_rule_matches_the_eight_cases():
    # Equal results with equal spans: the unit case returns the other
    # operand, literal spans included, and the absorbing case a fresh literal.
    rng, spans = random.Random(2522), itertools.count(1)
    folded = 0
    for _ in range(3000):
        expr = _random_connectives(rng, rng.randrange(1, 5), spans)
        out, report = simplify_frontend_expr(expr)
        want, want_report = _eight_case_frontend_expr(expr)
        assert (out, report) == (want, want_report), expr
        assert _spans(out) == _spans(want), expr
        folded += report.booleans_folded
    assert folded >= 1000


# -- whole-pass properties -----------------------------------------------------


@pytest.mark.parametrize("pass_fn", [fold_program, reorder_program, simplify_frontend])
def test_passes_preserve_outcomes_on_random_scopes(pass_fn):
    rng = random.Random(909)
    for _ in range(25):
        prog = gen_scope_program(rng)
        out, _ = pass_fn(prog)
        assert validate(out) == []
        for inputs in list(enumerate_inputs(prog.scopes[0]))[::11]:
            assert run_scope(prog, "Rand", inputs) == run_scope(out, "Rand", inputs)


@pytest.mark.parametrize("pass_fn", [fold_program, reorder_program, simplify_frontend])
def test_passes_never_lengthen_the_path(pass_fn):
    rng = random.Random(910)
    for _ in range(15):
        prog = gen_scope_program(rng)
        out, _ = pass_fn(prog)
        before, after = compile_scope(prog, "Rand"), compile_scope(out, "Rand")
        for inputs in list(enumerate_inputs(prog.scopes[0]))[::13]:
            o1, p1 = run_scope_concolic(before, inputs)
            o2, p2 = run_scope_concolic(after, inputs)
            assert o1 == o2
            assert len(p2) <= len(p1)


@pytest.mark.parametrize("pass_fn", [fold_program, reorder_program, simplify_frontend])
def test_a_pass_that_changes_nothing_returns_the_same_expressions(pass_fn):
    # Unchanged nodes are reused, not rebuilt: with a zero report every
    # assertion, binding and function body comes back as the same object.
    rng = random.Random(4242)
    progs = [load_program(name) for name in BUNDLED_FILES]
    progs += [gen_scope_program(rng) for _ in range(40)]
    unchanged = 0
    for prog in progs:
        out, report = pass_fn(prog)
        if report != TransformReport():
            continue
        unchanged += 1
        assert all(g.body is f.body for f, g in zip(prog.functions, out.functions))
        for sc, sc_out in zip(prog.scopes, out.scopes):
            assert all(b is a for a, b in zip(sc.assertions, sc_out.assertions))
            assert all(b.expr is a.expr for a, b in zip(sc.bindings, sc_out.bindings))
    assert unchanged >= 10
