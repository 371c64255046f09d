import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defcalc.lang import (
    BOOL, CONFLICT, INT, EnumT,
    BinOp, Binding, Default, If, Lit, Opaque, Program, Scope, Var, VBool, VEnum,
    VInt, VMoney, VRat, VStruct,
)
from defcalc.concolic import (
    BranchRecord, ConcolicOpts, Origin, compile_scope, run_scope_concolic,
)
from defcalc.interp import BINOPS, Mode, OutcomeKind, apply_binop, eval_expr, run_scope
from defcalc.parser import parse_or_raise
from defcalc.solver import SolverSession
from defcalc.symbolic import (
    SymBin, SymConst, SymIsVariant, SymNot, SymRound, SymVar, Terms, leaf_env_of_inputs,
    render, sym_children, sym_eval, sym_eval_bool, sym_free_vars, sym_not,
)

from conftest import load_program
from genutil import (
    enumerate_inputs, gen_default_term, gen_env, gen_scope_program, term_program,
    TERM_VARS,
)


def rule(j, c):
    return Default((), j, c)


def literal_key(record):
    return SolverSession(()).literal_key(record.constraint)


def fig5_term():
    return Default(
        (rule(Var("b"), Lit(VInt(1))),
         rule(BinOp("=", Var("x"), Lit(VInt(0))), Lit(VInt(2)))),
        BinOp(">", Var("x"), Lit(VInt(0))),
        Lit(VInt(3)))


def fig5_program():
    scope = Scope("Main", (("b", BOOL), ("x", INT)), (),
                  (Binding("y", INT, fig5_term()),), ("y",))
    return Program(scopes=(scope,))


def run(prog, scope, inputs, **opts):
    return run_scope_concolic(compile_scope(prog, scope, ConcolicOpts(**opts)), inputs)


def rendered(path):
    return [render(r.constraint) for r in path]


# -- the worked example at three inputs --------------------------------------


def test_trace_value_one():
    out, path = run(fig5_program(), "Main", {"b": VBool(True), "x": VInt(3)})
    assert out.output("y") == VInt(1)
    assert rendered(path) == ["b", "!(x = 0)"]
    assert [r.taken for r in path] == [True, False]


def test_trace_conflict():
    out, path = run(fig5_program(), "Main", {"b": VBool(True), "x": VInt(0)})
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["b", "(x = 0)"]


def test_trace_empty():
    out, path = run(fig5_program(), "Main", {"b": VBool(False), "x": VInt(-1)})
    assert out.kind is OutcomeKind.EMPTY
    assert rendered(path) == ["!b", "!(x = 0)", "!(x > 0)"]


def test_trace_base_case():
    out, path = run(fig5_program(), "Main", {"b": VBool(False), "x": VInt(3)})
    assert out.output("y") == VInt(3)
    assert rendered(path) == ["!b", "!(x = 0)", "(x > 0)"]


def test_literal_adds_no_record():
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", INT, Lit(VInt(7))),), ("y",)),))
    out, path = run(prog, "S", {"x": VInt(0)})
    assert out.output("y") == VInt(7)
    assert path == []


# -- record structure ----------------------------------------------------------


def test_division_records_denominator_check():
    from defcalc.lang import RAT
    expr = BinOp("/", Lit(VInt(100)), Var("x"))
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", RAT, expr),), ("y",)),))
    out, path = run(prog, "S", {"x": VInt(5)})
    assert [r.origin for r in path] == [Origin.DIV_ZERO_CHECK]
    assert rendered(path) == ["!(x = 0)"]
    out, path = run(prog, "S", {"x": VInt(0)})
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["(x = 0)"]


def test_ground_division_check_is_trivial():
    expr = BinOp("/", Var("x"), Lit(VInt(2)))
    from defcalc.lang import RAT
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", RAT, expr),), ("y",)),))
    _, path = run(prog, "S", {"x": VInt(4)})
    assert len(path) == 1 and literal_key(path[0]) is None


def test_opaque_emits_concretization_marker():
    # The opaque value alone decides no branch and adds no record; an if on
    # it adds one, with no literal to flip.
    from defcalc.interp import register_opaque
    register_opaque("ident", lambda vals: vals[0])
    expr = Opaque("ident", INT, (Var("x"),))
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", INT, expr),), ("y",)),))
    out, path = run(prog, "S", {"x": VInt(3)})
    assert out.output("y") == VInt(3) and path == []
    cond = If(BinOp(">", expr, Lit(VInt(5))), Lit(VInt(1)), Lit(VInt(0)))
    prog = Program(scopes=(Scope(
        "S", (("x", INT),), (), (Binding("y", INT, cond),), ("y",)),))
    out, path = run(prog, "S", {"x": VInt(3)})
    assert out.output("y") == VInt(0)
    assert [r.origin for r in path] == [Origin.CONCRETIZED]
    assert literal_key(path[0]) is None


def test_trivial_flag_set_on_constant_justification(income_tax):
    out, path = run(income_tax, "IncomeTax",
                    {"income": VMoney(1000001), "nb_children": VInt(0)})
    j = [r for r in path if r.origin is Origin.JUSTIFICATION and literal_key(r) is None]
    assert j, "the base case's `true` justification is a trivial record"


def test_assertion_records_are_hard(benefits_medium):
    from defcalc.lang import VEnum
    inputs = {"zone": VEnum("Zone", "Z1"), "couple": VBool(False),
              "disabled": VBool(False), "student": VBool(False),
              "dependents": VInt(2)}
    _, path = run(benefits_medium, "Benefits", inputs)
    hard = [r for r in path if r.hard]
    assert len(hard) == 2
    assert all(r.origin is Origin.ASSERTION for r in hard)
    assert path[0].hard and path[1].hard, "assertions are a prefix"


# -- local constraint flush ordering --------------------------------------------


def nested_conflict_program():
    # first exception abstains, second exception is an inner conflict
    term = Default((
        rule(Var("a"), Lit(VInt(9))),
        Default((rule(Var("b"), Lit(VInt(1))), rule(Var("b"), Lit(VInt(2)))),
                Lit(VBool(False)), Lit(VInt(0))),
        rule(Var("c"), Lit(VInt(3))),
    ), Lit(VBool(True)), Lit(VInt(4)))
    scope = Scope("M", (("a", BOOL), ("b", BOOL), ("c", BOOL)), (),
                  (Binding("y", INT, term),), ("y",))
    return Program(scopes=(scope,))


NESTED_ENV = {"a": VBool(False), "b": VBool(True), "c": VBool(True)}


def test_error_flush_is_chronological():
    out, path = run(nested_conflict_program(), "M", NESTED_ENV)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["!a", "b", "b"]


def test_early_error_drops_exactly_the_local_constraints():
    out, path = run(nested_conflict_program(), "M", NESTED_ENV, early_error=True)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["b", "b"]


def pair_conflict(var):
    # two firing exceptions: a conflict that is not an erroring exception
    return Default((rule(Var(var), Lit(VInt(1))), rule(Var(var), Lit(VInt(2)))),
                   Lit(VBool(False)), Lit(VInt(0)))


def bools_program(names, bindings):
    scope = Scope("M", tuple((n, BOOL) for n in names), (),
                  tuple(Binding(n, INT, e) for n, e in bindings),
                  (bindings[-1][0],))
    return Program(scopes=(scope,))


def test_early_error_cuts_an_earlier_exceptions_nested_default():
    # y's second exception is a default whose first exception (itself a
    # default) fires and whose second conflicts: both cuts drop everything
    # y recorded before the conflict, and z's record before y stays.
    inner = Default((Default((rule(Var("a"), Lit(VInt(1))),), Var("b"), Lit(VInt(5))),
                     pair_conflict("c")),
                    Lit(VBool(True)), Lit(VInt(4)))
    y = Default((rule(Var("d"), Lit(VInt(7))), inner), Lit(VBool(True)), Lit(VInt(0)))
    prog = bools_program("abcde", [("z", If(Var("e"), Lit(VInt(1)), Lit(VInt(2)))),
                                   ("y", y)])
    env = {"a": VBool(False), "b": VBool(True), "c": VBool(True),
           "d": VBool(False), "e": VBool(True)}
    out, path = run(prog, "M", env)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["e", "!d", "!a", "b", "c", "c"]
    out, path = run(prog, "M", env, early_error=True)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["e", "c", "c"]


def test_early_error_nested_cut_inside_the_erroring_exception_goes_first():
    # The erroring exception records e, then its own nested default cuts !b
    # before the outer default cuts !a: e, recorded by the erroring
    # exception before its nested default started, stays.
    nested = Default((rule(Var("b"), Lit(VInt(1))), pair_conflict("c")),
                     Lit(VBool(True)), Lit(VInt(3)))
    y = Default((rule(Var("a"), Lit(VInt(1))), If(Var("e"), nested, Lit(VInt(0)))),
                Lit(VBool(True)), Lit(VInt(0)))
    prog = bools_program("abce", [("y", y)])
    env = {"a": VBool(False), "b": VBool(False), "c": VBool(True), "e": VBool(True)}
    out, path = run(prog, "M", env)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["!a", "e", "!b", "c", "c"]
    out, path = run(prog, "M", env, early_error=True)
    assert out.kind is OutcomeKind.CONFLICT
    assert rendered(path) == ["e", "c", "c"]


def test_lazy_conflict_stops_at_second_firing_exception():
    term = Default((rule(Var("a"), Lit(VInt(1))),
                    rule(Var("b"), Lit(VInt(2))),
                    rule(Var("c"), Lit(VInt(3)))),
                   Lit(VBool(True)), Lit(VInt(0)))
    prog = Program(scopes=(Scope("M", (("a", BOOL), ("b", BOOL), ("c", BOOL)), (),
                                 (Binding("y", INT, term),), ("y",)),))
    env = {"a": VBool(True), "b": VBool(True), "c": VBool(True)}
    out_e, path_e = run(prog, "M", env)
    out_l, path_l = run(prog, "M", env, lazy=True)
    assert out_e.kind is out_l.kind is OutcomeKind.CONFLICT
    assert rendered(path_e) == ["a", "b", "c"]
    assert rendered(path_l) == ["a", "b"]


# -- properties over the random corpus -------------------------------------------


def _leaf_env(prog, inputs):
    return leaf_env_of_inputs(prog.scopes[0], inputs)


@pytest.mark.parametrize("lazy", [False, True])
def test_soundness_against_reference(lazy):
    rng = random.Random(2025)
    for _ in range(150):
        prog = term_program(gen_default_term(rng))
        for _ in range(4):
            env = gen_env(rng)
            ref = run_scope(prog, "T", env,
                            Mode.LAZY if lazy else Mode.EAGER)
            got, _ = run(prog, "T", env, lazy=lazy)
            assert got == ref


def test_path_fidelity():
    rng = random.Random(2026)
    for _ in range(150):
        prog = term_program(gen_default_term(rng))
        env = gen_env(rng)
        _, path = run(prog, "T", env)
        leaf_env = _leaf_env(prog, env)
        for r in path:
            assert sym_eval_bool(r.constraint, leaf_env), render(r.constraint)


def test_lazy_path_is_prefix_of_eager_on_conflicts():
    rng = random.Random(2027)
    checked = 0
    for _ in range(400):
        prog = term_program(gen_default_term(rng))
        env = gen_env(rng)
        out_e, path_e = run(prog, "T", env)
        out_l, path_l = run(prog, "T", env, lazy=True)
        assert out_e == out_l
        re_, rl = rendered(path_e), rendered(path_l)
        if out_e.kind is OutcomeKind.CONFLICT:
            checked += 1
            assert rl == re_[:len(rl)]
        else:
            assert rl == re_
    assert checked > 10, "corpus should include conflicting runs"


def _records(path):
    return [(r.constraint, r.taken, r.origin, r.hard, r.span) for r in path]


def _holds_round(e) -> bool:
    return isinstance(e, SymRound) or any(_holds_round(c) for c in sym_children(e))


# round-chain-2: money times a rate, rounded to the cent at each step.
ROUND_CHAIN = """
scope Chain {
  input x: money;
  def a0: money = x;
  def a1: money = a0 * 3/7;
  def a2: money = a1 * 3/7;
  def out: int = if a2 > $1,000.00 then 1 else 0;
  output out;
}
"""


BUNDLED = (("fig5.dfc", "Main"), ("income_tax.dfc", "IncomeTax"),
           ("geo_match.dfc", "Housing"), ("trivial_just.dfc", "Fees"),
           ("soft_money.dfc", "Subsidy"), ("benefits_medium.dfc", "Benefits"))


def test_trail_matches_the_frame_stack_oracle():
    """The compiled one-trail engine gives the same outcome and the same
    records, spans included, as the tree walker on the local-constraint
    stack and the Fraction operator table, on random default terms, random
    scopes with assertions, and the bundled programs at their explored
    inputs, with lazy and early-error on and off."""
    import oracle_concolic
    from defcalc.explorer import explore

    rng = random.Random(2028)
    cases = []
    for _ in range(500):
        prog = term_program(gen_default_term(rng))
        cases += [(prog, "T", gen_env(rng)) for _ in range(4)]
    for _ in range(100):
        prog = gen_scope_program(rng)
        grid = list(enumerate_inputs(prog.scopes[0]))
        cases += [(prog, "Rand", env) for env in rng.sample(grid, 4)]
    for name, scope in BUNDLED:
        prog = load_program(name)
        cases += [(prog, scope, tc.inputs) for tc in explore(prog, scope).testcases]
    chain = parse_or_raise(ROUND_CHAIN)
    cases += [(chain, "Chain", {"x": VMoney(c)})
              for c in (0, -1, 544_444, 544_450, 1_000_000, -544_450)]
    opts = [ConcolicOpts(lazy=lazy, early_error=early)
            for lazy in (False, True) for early in (False, True)]

    want = [run_scope_concolic(compile_scope(p, s, o), env)
            for p, s, env in cases for o in opts]
    got = [oracle_concolic.run_scope(p, s, env, o) for p, s, env in cases for o in opts]
    for (out_w, path_w), (out_g, path_g) in zip(want, got, strict=True):
        assert (out_w, out_w.span) == (out_g, out_g.span)
        assert _records(path_w) == _records(path_g)
    # opts[0] is eager, opts[1] the same with early-error
    cut = sum(len(want[i + 1][1]) < len(want[i][1]) for i in range(0, len(want), len(opts)))
    assert cut > 50, "the corpus should exercise early-error cuts"
    assert any(r.hard for _, path in want for r in path)
    assert any(r.span is not None for _, path in want for r in path)
    assert any(_holds_round(r.constraint) for _, path in want for r in path)
    # A record over no input has no key, so the trivial filter skips it.
    session = SolverSession(())
    assert all(session.literal_key(r.constraint) is None
               for _, path in want for r in path if not sym_free_vars(r.constraint))


def _brackets(n: int):
    """brackets-N: N rate brackets whose justifications are conjunctions."""
    rules = "".join(
        f"def b{i}: rate = default <rule (income > ${i},000.00 && kids >= {i % 4}"
        f" :- {i + 1}%)> (true :- 0%);\n" for i in range(1, n + 1))
    total = " + ".join(f"income * b{i}" for i in range(1, n + 1))
    return parse_or_raise("scope Brackets { input income: money; input kids: int;\n"
                          f"{rules}def tax: money = {total}; output tax; }}")


# One function body, so one set of sites, runs under an assertion (hard
# records) and under a binding (soft ones) with the same conditions.
SHARED_BODY = """
fn pos(n: int) -> bool = if n > 0 then true else false
scope S {
  input x: int;
  assert pos(x) || x = -3;
  def y: int = if pos(x) then 1 else 0;
  output y;
}
"""


def test_warm_sites_match_the_frame_stack_oracle():
    """One compiled scope per program and setting runs a sequence of inputs
    and then the same sequence reversed, so its operator and recording sites
    meet both operands and conditions they kept from the run before and new
    ones.  Every run's outcome and records, spans and `hard` included, equal
    the tree walker's on that input."""
    import oracle_concolic
    from defcalc.explorer import explore

    rng = random.Random(3031)
    programs = []
    for _ in range(12):
        prog = gen_scope_program(rng)
        programs.append((prog, "Rand", list(enumerate_inputs(prog.scopes[0]))))
    for name, scope in BUNDLED:
        prog = load_program(name)
        programs.append((prog, scope, [tc.inputs for tc in explore(prog, scope).testcases]))
    for n in (3, 4, 5):
        incomes = [i * 100_000 + d for i in range(n + 1) for d in (-1, 0, 1)]
        programs.append((_brackets(n), "Brackets", [{"income": VMoney(c), "kids": VInt(k)}
                                                    for c in incomes for k in range(4)]))
    programs.append((parse_or_raise(ROUND_CHAIN), "Chain", [
        {"x": VMoney(c)} for c in (0, -1, 544_444, 544_450, 1_000_000, -544_450, 0)]))
    programs.append((parse_or_raise(SHARED_BODY), "S",
                     [{"x": VInt(x)} for x in (3, 3, -3, 0, 1, -3, -1, 2)]))
    opts = [ConcolicOpts(lazy=lazy, early_error=early)
            for lazy in (False, True) for early in (False, True)]
    runs = 0
    for prog, scope, inputs in programs:
        for o in opts:
            compiled = compile_scope(prog, scope, o)
            for env in inputs + inputs[::-1]:
                out_w, path_w = run_scope_concolic(compiled, env)
                out_g, path_g = oracle_concolic.run_scope(prog, scope, env, o)
                assert (out_w, out_w.span) == (out_g, out_g.span)
                assert _records(path_w) == _records(path_g)
                runs += 1
    assert runs > 20_000


def _articles(n: int):
    """articles-N: N int inputs, each refined by two exceptions over a base
    case, summed into one output; 3^N paths."""
    defs = "".join(f"def a{i}: int = default <rule (x{i} > {i} :- {i + 1}), "
                   f"rule (x{i} < -{i} :- 2)> (true :- 0);\n" for i in range(1, n + 1))
    inputs = "".join(f"input x{i}: int;\n" for i in range(1, n + 1))
    total = " + ".join(f"a{i}" for i in range(1, n + 1))
    return parse_or_raise(f"scope Articles {{\n{inputs}{defs}def total: int = {total};\n"
                          "output total; }")


def test_testcase_paths_share_their_records():
    """A recording site appends the record it made before when the condition
    is the same object, so articles-6's 729 paths hold about as many record
    objects as distinct records, and a function body's site keeps its hard
    records (under an assertion) apart from its soft ones (under a binding)."""
    from defcalc.explorer import explore
    suite = explore(_articles(6), "Articles")
    assert len(suite.testcases) == 729
    records = [r for tc in suite.testcases for r in tc.path]
    assert len(set(records)) == 25 and len({id(r) for r in records}) <= 50

    compiled = compile_scope(parse_or_raise(SHARED_BODY), "S")
    paths = [run_scope_concolic(compiled, {"x": VInt(x)})[1] for x in (3, -3, 3)]
    # pos(x)'s test, the assertion, then pos(x)'s test again and the if on it
    assert [(r.origin, r.hard) for r in paths[0]] == [
        (Origin.IF_COND, True), (Origin.ASSERTION, True),
        (Origin.IF_COND, False), (Origin.IF_COND, False)]
    hard_test, _, soft_test, _ = paths[0]
    assert hard_test.constraint is soft_test.constraint and hard_test is not soft_test
    assert paths[1][0].hard and not paths[1][0].taken and not paths[1][2].hard
    # The taken side's records outlive a run that took the other side.
    assert paths[2] == paths[0] and paths[2][0] is hard_test and paths[2][2] is soft_test


def test_income_tax_zero_inputs_path(income_tax):
    out, path = run(income_tax, "IncomeTax",
                    {"income": VMoney(0), "nb_children": VInt(0)})
    assert out.output("income_tax") == VMoney(0)
    non_trivial = [(render(r.constraint), r.taken) for r in path
                   if literal_key(r) is not None]
    assert non_trivial == [
        ("(income <= $10,000.00)", True),
        ("!(nb_children >= 3)", False),
    ]


# -- the symbolic operators against the reference evaluator ---------------------


def _small(rng, span):
    """An integer in [-span, span], one time in four within 2 of zero."""
    return rng.randint(-2, 2) if rng.random() < 0.25 else rng.randint(-span, span)


def _ground_operand(cls, rng):
    """A value of `cls`; an enum value is a tag with no payload, as a tag
    leaf holds."""
    if cls is VBool:
        return VBool(rng.random() < 0.5)
    if cls is VInt:
        return VInt(_small(rng, 50))
    if cls is VMoney:
        return VMoney(_small(rng, 100_000))
    if cls is VRat:
        return VRat(Fraction(_small(rng, 30), rng.randint(1, 12)))
    assert cls is VEnum
    return VEnum("Zone", rng.choice(("North", "South", "East")))


@pytest.mark.parametrize("op, lcls, rcls", [
    (op, lcls, rcls) for op, fns in BINOPS.items() for lcls, rcls in fns
    if lcls is not VStruct])
def test_symbolic_operators_agree_with_the_reference_evaluator(op, lcls, rcls):
    """`sym_eval` of an operator on two constants is `apply_binop` read as a
    ground value; the mixed money and rate products and quotients are read
    under the Round the concolic engine puts around them, and a division by
    zero raises exactly where the evaluator gives the conflict value."""
    rng = random.Random(f"{op} {lcls.__name__} {rcls.__name__}")
    for _ in range(200):
        a, b = _ground_operand(lcls, rng), _ground_operand(rcls, rng)
        term = SymBin(op, SymConst(a), SymConst(b))
        want = apply_binop(op, a, b)
        try:
            got = sym_eval(term if lcls is rcls else SymRound(term), {})
        except ZeroDivisionError:
            assert want is CONFLICT, (a, b)
            continue
        assert want is not CONFLICT and got == sym_eval(SymConst(want), {}), (a, b, got, want)


# -- hash-consed terms ----------------------------------------------------------


def _interning_programs():
    """The bundled scopes and twenty random ones, as (program, scope, inputs)."""
    from defcalc.symbolic import default_value
    rng = random.Random(1618)
    runs = [(load_program(name), scope)
            for name, scope in (("fig5.dfc", "Main"), ("income_tax.dfc", "IncomeTax"),
                                ("geo_match.dfc", "Housing"), ("soft_money.dfc", "Subsidy"),
                                ("benefits_medium.dfc", "Benefits"))]
    runs += [(gen_scope_program(rng), "Rand") for _ in range(20)]
    for prog, scope in runs:
        ins = prog.scope(scope).inputs
        yield prog, scope, {n: default_value(ty) for n, ty in ins}


def test_runs_of_one_compiled_scope_share_their_constraint_objects():
    """Two runs of one compiled scope on one input record the same objects,
    and so do runs on every grid input that take the same branches."""
    for prog, scope, inputs in _interning_programs():
        compiled = compile_scope(prog, scope)
        _, first = run_scope_concolic(compiled, inputs)
        _, second = run_scope_concolic(compiled, inputs)
        assert first and len(first) == len(second)
        assert all(a.constraint is b.constraint for a, b in zip(first, second))
    prog = gen_scope_program(random.Random(7))
    compiled = compile_scope(prog, "Rand")
    by_text = {}
    for inputs in enumerate_inputs(prog.scopes[0]):
        for r in run_scope_concolic(compiled, inputs)[1]:
            assert by_text.setdefault(render(r.constraint), r.constraint) is r.constraint


def test_a_flipped_literal_is_the_next_runs_record(monkeypatch):
    """After a Sat flip at depth k, the next run records at depth k the very
    object the frontier flipped to (and queried the negation with)."""
    from defcalc.explorer import ExploreConfig, Frontier, explore
    flips, checked = [], []
    real_flip, real_reconcile = Frontier.flip, Frontier.reconcile

    def flip(self, k):
        real_flip(self, k)
        flips.append((k, self.entries[k].record.constraint))

    def reconcile(self, path, early_error):
        if flips:
            k, flipped = flips.pop()
            checked.append(path[k].constraint is flipped)
        return real_reconcile(self, path, early_error)

    monkeypatch.setattr(Frontier, "flip", flip)
    monkeypatch.setattr(Frontier, "reconcile", reconcile)
    for prog, scope, _ in _interning_programs():
        explore(prog, scope, ExploreConfig(trivial=True))
    assert len(checked) > 100 and all(checked)


_ENUM = EnumT("Zone", (("North", None), ("South", None), ("East", None)))
_TERM_LEAVES = (
    ("var", "x", INT), ("var", "y", INT), ("var", "b", BOOL),
    ("const", VInt(0)), ("const", VInt(3)), ("const", VBool(True)))
_TERM_RECIPES = st.recursive(
    st.sampled_from(_TERM_LEAVES) | st.sampled_from(
        [("is", v) for v, _ in _ENUM.variants]),
    lambda kids: st.tuples(st.just("bin"), st.sampled_from(("+", "*", "=", "<", "&&", "||")),
                           kids, kids)
    | st.tuples(st.just("round"), kids)
    | st.tuples(st.just("not"), kids.filter(lambda r: r[0] != "const")),
    max_leaves=12)


def _build(recipe, terms, var):
    """The term `recipe` describes: compound nodes made by `terms`, variables
    by `var` and constants afresh, as a compiled scope makes its leaves once
    and each literal site its own constant."""
    match recipe:
        case ("var", name, ty):
            return var(name, ty)
        case ("const", v):
            return SymConst(v)
        case ("is", variant):
            return terms(SymIsVariant, var("z", _ENUM), variant)
        case ("bin", op, a, b):
            return terms(SymBin, op, _build(a, terms, var), _build(b, terms, var))
        case ("round", a):
            return terms(SymRound, _build(a, terms, var))
        case ("not", a):
            return sym_not(_build(a, terms, var))


def _constructed(cls, *args):
    return cls(*args)


@settings(max_examples=300, deadline=None)
@given(_TERM_RECIPES)
def test_one_table_builds_one_object_with_the_structural_hash(recipe):
    """A term built twice through one table is one object, and its negation
    is one object too; its hash is that of the same term built with plain
    constructors, so interning changes no set or dict order."""
    table, leaves = Terms(), {}

    def var(name, ty):
        return leaves.setdefault(name, SymVar(name, ty))
    first, again = _build(recipe, table, var), _build(recipe, table, var)
    plain = _build(recipe, _constructed, SymVar)
    if isinstance(first, (SymVar, SymConst)):
        assert first == again == plain
        return
    assert first is again and first == plain and hash(first) == hash(plain)
    assert render(first) is render(again) and render(first) == render(plain)
    assert sym_not(first) is sym_not(again) and sym_not(first) == sym_not(plain)
    if not isinstance(first, SymNot):
        assert sym_not(sym_not(first)) is first
