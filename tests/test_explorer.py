import random
from fractions import Fraction

import pytest

from defcalc.lang import (
    BOOL, INT, RAT,
    BinOp, Binding, Default, Lit, Program, Scope, StructT, Var, VBool, VInt,
    VMoney, VRat, VEnum, MONEY,
)
from defcalc.concolic import BranchRecord, Origin, compile_scope
from defcalc import explorer
from defcalc.explorer import (
    ExploreConfig, Frontier, PrefixInvariantViolation, explore, filter_trivial,
    path_fingerprint,
)
from defcalc.interp import OutcomeKind
from defcalc import solver
from defcalc.solver import SolverSession
from defcalc.symbolic import (
    SymBin, SymConst, SymNot, SymVar, TRUE, render, sym_children,
)

from genutil import (
    brute_force_classes, gen_default_term, gen_scope_program, outcome_class,
    term_program,
)


def outputs_value(tc):
    if tc.outcome.kind is OutcomeKind.VALUE:
        return tc.outcome.outputs[0][1]
    return tc.outcome.kind.value


# -- the golden five-row exploration ------------------------------------------


def test_worked_example_exploration(fig5):
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)})
    suite = explore(fig5, "Main", cfg)
    rows = [(tc.inputs["b"].b, tc.inputs["x"].i, outputs_value(tc))
            for tc in suite.testcases]
    assert rows == [
        (True, 3, VInt(1)),
        (True, 0, "conflict"),
        (False, 3, VInt(3)),
        (False, -1, "empty"),
        (False, 0, VInt(2)),
    ]
    paths = [[render(r.constraint) for r in tc.path] for tc in suite.testcases]
    assert paths == [
        ["b", "!(x = 0)"],
        ["b", "(x = 0)"],
        ["!b", "!(x = 0)", "(x > 0)"],
        ["!b", "!(x = 0)", "!(x > 0)"],
        ["!b", "(x = 0)"],
    ]
    assert suite.complete
    assert suite.depth_trace == [2, 2, 3, 3, 2]
    assert suite.stats.conflicts == 1 and suite.stats.empties == 1


def test_income_tax_four_cases(income_tax):
    suite = explore(income_tax, "IncomeTax", ExploreConfig())
    assert len(suite.testcases) == 4
    classes = {outcome_class(tc.outcome) for tc in suite.testcases}
    values = {tc.outcome.outputs[0][1] for tc in suite.testcases
              if tc.outcome.kind is OutcomeKind.VALUE}
    assert VMoney(0) in values
    assert VMoney(200000) in values  # 20% of $10,000.01 rounded to the cent
    assert VMoney(150000) in values  # 15% path
    assert any(cl == ("conflict",) for cl in classes)
    incomes = {tc.inputs["income"] for tc in suite.testcases
               if tc.outcome.kind is OutcomeKind.VALUE and
               tc.outcome.outputs[0][1] != VMoney(0)}
    assert incomes == {VMoney(1000001)}


def test_scope_with_no_inputs_has_one_testcase():
    prog = Program(scopes=(Scope(
        "S", (), (), (Binding("y", INT, Lit(VInt(5))),), ("y",)),))
    suite = explore(prog, "S", ExploreConfig())
    assert len(suite.testcases) == 1
    assert suite.complete
    assert suite.stats.solver_calls == 0


def test_no_duplicate_paths(fig5, geo_match, benefits_medium):
    for prog, scope in ((fig5, "Main"), (geo_match, "Housing"),
                        (benefits_medium, "Benefits")):
        suite = explore(prog, scope, ExploreConfig())
        fps = [tc.path_fp for tc in suite.testcases]
        assert len(fps) == len(set(fps))


def test_budget_truncation_flagged(benefits_medium):
    suite = explore(benefits_medium, "Benefits", ExploreConfig(max_iters=5))
    assert not suite.complete
    assert len(suite.testcases) <= 5


def test_budget_monotonicity(benefits_medium):
    small = explore(benefits_medium, "Benefits", ExploreConfig(max_iters=10))
    big = explore(benefits_medium, "Benefits", ExploreConfig(max_iters=100))
    small_fps = [tc.path_fp for tc in small.testcases]
    big_fps = [tc.path_fp for tc in big.testcases]
    assert big_fps[:len(small_fps)] == small_fps


def test_division_branch_is_explored():
    prog_src = Program(scopes=(Scope(
        "S", (("x", INT),), (),
        (Binding("y", RAT, BinOp("/", Lit(VInt(100)), Var("x"))),), ("y",)),))
    suite = explore(prog_src, "S", ExploreConfig())
    kinds = {tc.outcome.kind for tc in suite.testcases}
    assert OutcomeKind.CONFLICT in kinds  # x = 0 found
    assert OutcomeKind.VALUE in kinds


def test_assertions_restrict_without_testcases():
    # assertion carves the space; explorer bootstraps a valid start from the
    # violating default input
    sc = Scope("S", (("x", INT),),
               (BinOp(">", Var("x"), Lit(VInt(2))),),
               (Binding("y", INT, Var("x")),), ("y",))
    prog = Program(scopes=(sc,))
    suite = explore(prog, "S", ExploreConfig())
    assert suite.complete
    assert all(tc.inputs["x"].i > 2 for tc in suite.testcases)
    assert all(tc.outcome.kind is not OutcomeKind.PRECONDITION
               for tc in suite.testcases)


def test_unsatisfiable_assertions_give_empty_complete_suite():
    sc = Scope("S", (("x", INT),),
               (BinOp(">", Var("x"), Lit(VInt(2))),
                BinOp("<", Var("x"), Lit(VInt(0))),),
               (Binding("y", INT, Var("x")),), ("y",))
    prog = Program(scopes=(sc,))
    suite = explore(prog, "S", ExploreConfig())
    assert suite.complete and suite.testcases == []


def test_progress_callback_receives_iterations(fig5):
    lines = []
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)},
                        progress=lambda i, st, d, t: lines.append((i, st, d, t)))
    explore(fig5, "Main", cfg)
    assert len(lines) == 5
    assert lines[0][1] == "sat" and lines[-1][1] == "none"


@pytest.mark.parametrize("src,verdicts", [
    # The enum equality has no symbolic form: no target is left to try.
    ("enum Zone { Mainland, Overseas(int) } scope S { input z: Zone;"
     " def out: int = if z = Zone::Overseas(3) then 1 else 0; output out; }",
     ["none"]),
    # The last iteration's one target, x > 3 false under x > 5, is Unsat.
    ("scope S { input x: int; def a: int = if x > 5 then 1 else 0;"
     " def b: int = if x > 3 then 1 else 0; def out: int = a + b; output out; }",
     ["sat", "sat", "unsat"]),
])
def test_progress_verdict_says_whether_a_target_was_tried(src, verdicts):
    from defcalc.parser import parse_or_raise
    lines = []
    explore(parse_or_raise(src), "S",
            ExploreConfig(progress=lambda i, st, d, t: lines.append(st)))
    assert lines == verdicts


# -- frontier bookkeeping -------------------------------------------------------


def rec(lit, taken=True, origin=Origin.JUSTIFICATION, hard=False):
    return BranchRecord(lit, taken, origin, hard)


B = SymVar("b", BOOL)
X = SymVar("x", INT)
XEQ0 = SymBin("=", X, SymConst(VInt(0)))
LEAVES = (SymVar("b", BOOL), SymVar("x", INT))


def literal_key(lit):
    return SolverSession(LEAVES).literal_key(lit)


def test_next_target_flips_deepest_unflipped():
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(B), rec(SymNot(XEQ0), taken=False)], early_error=False)
    assert f.next_target(True) == 1
    f.flip(1)
    f.reconcile([rec(B), rec(XEQ0)], early_error=False)
    assert f.next_target(True) == 0  # deepest already negated: go shallower


def test_next_target_exhausted_when_all_done():
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(B)], early_error=False)
    f.flip(0)
    f.reconcile([rec(SymNot(B), taken=False)], early_error=False)
    assert f.next_target(True) is None


def test_prefix_divergence_raises_without_early_error():
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(B), rec(XEQ0)], early_error=False)
    with pytest.raises(PrefixInvariantViolation):
        f.reconcile([rec(XEQ0)], early_error=False)


def test_prefix_divergence_restarts_with_early_error():
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(B), rec(XEQ0)], early_error=False)
    f.reconcile([rec(B), rec(SymNot(XEQ0), taken=False), rec(B)], early_error=True)
    assert [e.record.constraint for e in f.entries] == [B, SymNot(XEQ0), B]


def test_early_error_cut_pops_the_session_below_it():
    queries = []
    session = SolverSession((SymVar("b", BOOL), SymVar("x", INT)),
                            on_query=lambda q: queries.append(list(q.literals)))
    f = Frontier(session)
    gt = SymBin(">", X, SymConst(VInt(0)))
    f.reconcile([rec(B), rec(SymNot(XEQ0), taken=False), rec(gt)], early_error=False)
    f.query(2, session.check)
    assert session.stack == [B, SymNot(XEQ0)]
    d = 1  # the early-error path leaves the prefix at depth 1 < 2
    f.reconcile([rec(B), rec(XEQ0), rec(gt)], early_error=True)
    assert len(session.stack) <= d
    assert session.stack == [e.record.constraint for e in f.entries[:len(session.stack)]]
    f.query(2, session.check)
    assert queries[-1] == [B, XEQ0, SymNot(gt)]
    f.flip(1)  # so does the cut that flips a shallower record
    assert session.stack == [B]


# -- trivial filtering -----------------------------------------------------------


def test_filter_trivial_drops_constant_true():
    assert filter_trivial(literal_key(TRUE), False) is False


def test_filter_trivial_drops_repeat_of_earlier():
    gt = SymBin(">", X, SymConst(VInt(0)))
    assert filter_trivial(literal_key(gt), True) is False
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(gt), rec(gt)], early_error=False)
    assert f.next_target(True) == 0


def test_filter_trivial_keeps_input_dependent():
    lit = SymNot(XEQ0)
    assert filter_trivial(literal_key(lit), False) is True


def test_filter_trivial_drops_ground_simplifiable():
    lit = SymBin("=", SymBin("+", X, SymConst(VInt(0))), X)
    assert literal_key(lit) is None
    assert filter_trivial(literal_key(lit), False) is False


def test_trivial_filter_keys_follow_replaced_entries():
    # Every key is cached by the first next_target; flip and a truncating
    # early-error reconcile then put new records at those positions.
    gt = SymBin(">", X, SymConst(VInt(0)))
    f = Frontier(SolverSession(LEAVES))
    f.reconcile([rec(gt), rec(XEQ0)], early_error=False)
    assert f.next_target(True) == 1
    f.flip(1)  # position 1 now holds !(x = 0)
    f.reconcile([rec(gt), rec(SymNot(XEQ0), taken=False), rec(XEQ0)],
                early_error=False)
    assert f.next_target(True) == 2  # x = 0 repeats no earlier literal now
    f.reconcile([rec(gt), rec(B), rec(XEQ0), rec(B)], early_error=True)
    assert [e.record.constraint for e in f.entries] == [gt, B, XEQ0, B]
    assert f.next_target(True) == 2  # the second b repeats position 1
    assert f.entries[3].done


@pytest.mark.parametrize("incremental", [True, False])
def test_a_keyed_and_queried_literal_is_simplified_once(monkeypatch, incremental):
    # The frontier keys x > 0, a query pushes it (or passes it) as prefix,
    # and another negates it: the session simplifies it once for all three.
    seen = []
    simplify = solver.simplify
    monkeypatch.setattr(solver, "simplify", lambda e: seen.append(e) or simplify(e))
    session = SolverSession(LEAVES)
    gt = SymBin(">", X, SymConst(VInt(0)))
    f = Frontier(session, incremental)
    f.reconcile([rec(gt), rec(B)], early_error=False)
    assert f.next_target(True) == 1
    assert isinstance(f.query(1, session.check), solver.Sat)
    assert isinstance(f.query(0, session.check), solver.Sat)
    assert session.stats.solver_calls == 2
    assert [e for e in seen if e in (gt, SymNot(gt))] == [gt]
    assert [e for e in seen if e in (B, SymNot(B))] == [B]


def test_trivial_repeat_site_saves_solver_calls():
    # the same condition branches twice; negating the second is pointless
    cond = BinOp(">", Var("x"), Lit(VInt(0)))
    from defcalc.lang import If
    e = BinOp("+",
              If(cond, Lit(VInt(1)), Lit(VInt(2))),
              If(cond, Lit(VInt(10)), Lit(VInt(20))))
    prog = Program(scopes=(Scope("S", (("x", INT),), (),
                                 (Binding("y", INT, e),), ("y",)),))
    s_off = explore(prog, "S", ExploreConfig())
    s_on = explore(prog, "S", ExploreConfig(trivial=True))
    assert {outcome_class(tc.outcome) for tc in s_off.testcases} == \
        {outcome_class(tc.outcome) for tc in s_on.testcases}
    assert s_on.stats.solver_calls < s_off.stats.solver_calls


# -- struct and enum inputs -------------------------------------------------------


def test_struct_input_exploration():
    house = StructT("House", (("income", MONEY), ("kids", INT)))
    body = BinOp(">", BinOp(".", Var("h"), Var("_")), Lit(VMoney(0)))
    # build via parser instead: simpler and closer to use
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
struct House { income: money, kids: int }
scope S {
  input h: House;
  def rich: bool = h.income > $100.00;
  def out: int = if rich then h.kids else 0 - 1;
  output out;
}
""")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.complete
    assert len(suite.testcases) == 2
    assert {tc.outcome.outputs[0][1] for tc in suite.testcases} == \
        {VInt(0), VInt(-1)}


def test_enum_payload_exploration():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
enum Opt { NoUnit, SomeUnit(int) }
scope S {
  input o: Opt;
  def out: int = match o { NoUnit => 0, SomeUnit n => if n > 5 then 1 else 2 };
  output out;
}
""")
    suite = explore(prog, "S", ExploreConfig())
    values = {tc.outcome.outputs[0][1] for tc in suite.testcases}
    assert values == {VInt(0), VInt(1), VInt(2)}
    assert suite.complete


def test_early_error_preserves_outcome_classes():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
scope S {
  input a: bool;
  input b: bool;
  def y: int = default <
      rule (a :- 9),
      default <rule (b :- 1), rule (b :- 2)> (false :- 0)
    > (true :- 4);
  output y;
}
""")
    base = explore(prog, "S", ExploreConfig())
    early = explore(prog, "S", ExploreConfig(early_error=True))
    base_classes = {outcome_class(tc.outcome) for tc in base.testcases}
    early_classes = {outcome_class(tc.outcome) for tc in early.testcases}
    assert base_classes == early_classes
    assert brute_force_classes(prog, "S") == base_classes


# -- oracle equivalence on random scopes -----------------------------------------


def test_exploration_matches_brute_force_on_random_scopes():
    rng = random.Random(555)
    for i in range(40):
        prog = gen_scope_program(rng)
        suite = explore(prog, "Rand", ExploreConfig())
        assert suite.complete, f"scope {i} incomplete"
        got = {outcome_class(tc.outcome) for tc in suite.testcases}
        want = brute_force_classes(prog, "Rand")
        assert got == want, f"scope {i}: {got ^ want}"


class _BrokenBackend:
    def check(self, query, session=None):
        from defcalc.solver import SolverFailure
        raise SolverFailure("backend crashed")


def test_solver_failure_is_recorded_and_exploration_continues(fig5):
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)},
                        backend=_BrokenBackend())
    suite = explore(fig5, "Main", cfg)
    assert not suite.complete
    assert suite.stats.solver_failures > 0
    assert len(suite.testcases) == 1  # the initial run still counts


def test_bootstrap_solver_failure_gives_incomplete_suite():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise(
        "scope S { input x: int; assert x > 5; def y: int = x; output y; }")
    suite = explore(prog, "S", ExploreConfig(backend=_BrokenBackend()))
    assert not suite.complete and suite.testcases == []
    assert suite.incomplete_reason == "backend crashed"
    s = suite.stats
    assert s.solver_failures == s.solver_calls == 1
    assert s.solver_calls == s.sat + s.unsat + s.unknown + s.solver_failures


def test_bootstrap_leaves_the_assertion_stack_empty():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("scope S { input x: int; assert x > 5; "
                          "def y: int = if x > 10 then 1 else 0; output y; }")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.testcases[0].inputs["x"].i > 5
    # the bootstrap's check pushes nothing: the one flip after it pushes the
    # hard prefix and the negation
    s = suite.stats
    assert (s.pushes, s.pops, s.solver_calls) == (2, 1, 2)


def test_bootstrap_run_is_the_first_iteration(fig5, monkeypatch):
    from defcalc import explorer
    from defcalc.parser import parse_or_raise
    runs = []
    real = explorer.run_scope_concolic
    monkeypatch.setattr(explorer, "run_scope_concolic",
                        lambda *a: runs.append(a) or real(*a))
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)})
    assert explore(fig5, "Main", cfg).stats.iterations == len(runs) == 5
    runs.clear()
    # x = 0 violates the assertion: one rejected run, then the accepted
    # run is iteration 1.
    prog = parse_or_raise("scope S { input x: int; assert x > 5; "
                          "def y: int = if x > 10 then 1 else 0; output y; }")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.stats.iterations == 2 and len(runs) == 3
    assert [tc.iteration for tc in suite.testcases] == [1, 2]


@pytest.mark.parametrize("n, reason, xs", [
    (7, None, [7]),
    (8, "no input satisfying the scope assertions after 8 bootstrap runs", []),
])
def test_bootstrap_runs_at_most_eight_times(n, reason, xs):
    # With assertions x > 0 ... x > n-1, the runs at x = 0, 1, ... each fail
    # one, and each bootstrap check moves x up by one: x = 7 passes seven
    # assertions on the eighth run, and an eighth assertion is past the cap.
    from defcalc.parser import parse_or_raise
    asserts = " ".join(f"assert x > {i};" for i in range(n))
    prog = parse_or_raise(f"scope S {{ input x: int; {asserts} def y: int = x; output y; }}")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.incomplete_reason == reason and suite.complete == (reason is None)
    assert suite.stats.solver_calls == n
    assert [tc.inputs["x"].i for tc in suite.testcases] == xs


def test_timeout_bounds_the_bootstrap():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise(
        "scope S { input x: int; assert x > 5; def y: int = x; output y; }")
    suite = explore(prog, "S", ExploreConfig(timeout=0.0))
    assert not suite.complete and suite.testcases == []
    assert suite.incomplete_reason == "timeout of 0.0 s reached"
    assert suite.stats.solver_calls == 0


def test_each_explore_compiles_its_scope_once(fig5, monkeypatch):
    # Every concolic run of one explore, the bootstrap's included, reuses
    # the closures compiled after the transforms.
    from defcalc import explorer
    from defcalc.parser import parse_or_raise
    compiled, runs = [], []
    real_compile, real_run = explorer.compile_scope, explorer.run_scope_concolic
    monkeypatch.setattr(explorer, "compile_scope",
                        lambda *a: compiled.append(real_compile(*a)) or compiled[-1])
    monkeypatch.setattr(explorer, "run_scope_concolic",
                        lambda c, i: runs.append(c) or real_run(c, i))
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)}, early_error=True)
    assert explore(fig5, "Main", cfg).stats.iterations == 5
    assert len(compiled) == len(runs) - 4 == 1 and all(c is compiled[0] for c in runs)
    compiled.clear()
    runs.clear()
    # x = 0 violates the assertion: the rejected bootstrap run and the two
    # iterations share one compilation.
    prog = parse_or_raise("scope S { input x: int; assert x > 5; "
                          "def y: int = if x > 10 then 1 else 0; output y; }")
    assert explore(prog, "S", ExploreConfig()).stats.iterations == 2
    assert len(compiled) == len(runs) - 2 == 1 and all(c is compiled[0] for c in runs)


def test_brackets_check_cost_does_not_grow_with_the_prefix(monkeypatch):
    # Every justification is a conjunction, so each explored path is a
    # prefix of two-way disjunctions closed by a conjunctive flip target.
    from defcalc import solver
    from defcalc.parser import parse_or_raise
    n = 16
    rules = "".join(
        f"def b{i}: rate = default <rule (income > ${i},000.00 && kids >= {i % 4}"
        f" :- {i + 1}%)> (true :- 0%);\n" for i in range(1, n + 1))
    total = " + ".join(f"income * b{i}" for i in range(1, n + 1))
    prog = parse_or_raise("scope Brackets { input income: money; input kids: int;\n"
                          f"{rules}def tax: money = {total}; output tax; }}")
    calls = []
    real = solver._project
    monkeypatch.setattr(solver, "_project", lambda *a: calls.append(1) or real(*a))
    suite = explore(prog, "Brackets", ExploreConfig())
    assert suite.complete and suite.stats.unknown == 0
    assert len(calls) < 8 * suite.stats.solver_calls


def test_brackets_bounds_need_no_projection(monkeypatch):
    # The brackets-16 program above: every row bounds one variable, so the
    # unit facts and each variable's own rows decide every check, and
    # Fourier-Motzkin is never called.
    from defcalc import solver
    from defcalc.parser import parse_or_raise
    n = 16
    rules = "".join(
        f"def b{i}: rate = default <rule (income > ${i},000.00 && kids >= {i % 4}"
        f" :- {i + 1}%)> (true :- 0%);\n" for i in range(1, n + 1))
    total = " + ".join(f"income * b{i}" for i in range(1, n + 1))
    prog = parse_or_raise("scope Brackets { input income: money; input kids: int;\n"
                          f"{rules}def tax: money = {total}; output tax; }}")
    calls = []
    real = solver._project
    monkeypatch.setattr(solver, "_project", lambda *a: calls.append(1) or real(*a))
    suite = explore(prog, "Brackets", ExploreConfig())
    assert suite.complete and suite.stats.unknown == 0 and suite.stats.solver_calls > 500
    assert calls == []


def test_wall_clock_timeout_flags_incomplete(benefits_medium):
    suite = explore(benefits_medium, "Benefits", ExploreConfig(timeout=0.0))
    assert not suite.complete
    assert suite.incomplete_reason == "timeout of 0.0 s reached"


def test_incremental_mode_drives_the_assertion_stack(fig5):
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)})
    inc = explore(fig5, "Main", cfg)
    assert (inc.stats.pushes, inc.stats.pops, inc.stats.solver_calls) == (7, 6, 4)
    one = explore(fig5, "Main",
                  ExploreConfig(initial={"b": VBool(True), "x": VInt(3)},
                                incremental=False))
    assert one.stats.pushes == 0
    assert inc.stats.solver_calls == one.stats.solver_calls


def test_query_sequence_matches_trace_negotiation(fig5):
    # the four negotiation queries: prefix literals plus the negated record
    queries = []
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)},
                        on_query=lambda q: queries.append(
                            [render(l) for l in q.literals]))
    explore(fig5, "Main", cfg)
    assert queries == [
        ["b", "(x = 0)"],
        ["!b"],
        ["!b", "!(x = 0)", "!(x > 0)"],
        ["!b", "(x = 0)"],
    ]


def test_enum_variable_equality_is_explored():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
enum Kind { A, B, C }
scope S {
  input k1: Kind;
  input k2: Kind;
  def same: bool = k1 = k2;
  def out: int = if same then 1 else 0;
  output out;
}
""")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.complete
    values = {tc.outcome.outputs[0][1] for tc in suite.testcases}
    assert values == {VInt(0), VInt(1)}
    for tc in suite.testcases:
        want = tc.inputs["k1"].variant == tc.inputs["k2"].variant
        assert tc.outcome.outputs[0][1] == VInt(1 if want else 0)


def test_rational_input_exploration():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
scope S {
  input r: rate;
  def out: int = if r > 1/2 then 1 else 0;
  output out;
}
""")
    suite = explore(prog, "S", ExploreConfig())
    assert suite.complete
    assert {tc.outcome.outputs[0][1] for tc in suite.testcases} == {VInt(0), VInt(1)}
    for tc in suite.testcases:
        q = tc.inputs["r"].q
        assert (q > Fraction(1, 2)) == (tc.outcome.outputs[0][1] == VInt(1))


_CONCRETIZED = "a branch with no symbolic form: its other side is never tried"


@pytest.mark.parametrize("body,site,tests,calls", [
    # The if on the opaque value is never flipped, so y > 5 is not reached.
    ("def y: int = opaque ident : int (x);"
     " def out: int = if y > 5 then 1 else 0; output out;", "if y > 5", 1, 0),
    # x = 0 fails an assertion the solver cannot see; the bootstrap's model
    # repeats x = 0, so it stops after one call, and the reason kept is the
    # assertion's branch.
    ("assert (opaque ident : int (x)) > 3; def out: int = x; output out;",
     "opaque ident : int (x)) > 3", 0, 1),
    # x = 0 fails x > 5; the model x = 6 then fails the opaque assertion and
    # is the next model too.
    ("assert x > 5; assert (opaque ident : int (x)) > 10; def out: int = x;"
     " output out;", "opaque ident : int (x)) > 10", 0, 2),
    # x = 6 reaches out = 1 but fails the assertion it never saw.
    ("assert (opaque ident : int (x)) < 3;"
     " def out: int = if x > 5 then 1 else 0; output out;",
     "opaque ident : int (x)) < 3", 1, 1),
])
def test_branch_on_an_opaque_value_makes_the_run_incomplete(body, site, tests, calls):
    from defcalc.interp import register_opaque
    from defcalc.parser import parse_or_raise
    register_opaque("ident", lambda vals: vals[0])
    src = "scope S { input x: int; " + body + " }"
    suite = explore(parse_or_raise(src), "S")
    assert not suite.complete and suite.incomplete_reason == _CONCRETIZED
    assert src[suite.incomplete_span.start:].startswith(site)
    assert (len(suite.testcases), suite.stats.solver_calls) == (tests, calls)


def test_opaque_value_that_no_branch_tests_leaves_the_run_complete():
    # An opaque with no handler conflicts; its value decides no branch.
    from defcalc.parser import parse_or_raise
    suite = explore(parse_or_raise(
        "scope S { input x: int; def y: int = opaque nohandler : int (x); output y; }"), "S")
    assert suite.complete and suite.incomplete_span is None
    assert [tc.outcome.kind for tc in suite.testcases] == [OutcomeKind.CONFLICT]
    assert suite.stats.solver_calls == 0


def test_nonlinear_program_degrades_to_incomplete():
    # money divided by a symbolic rate leaves the linear fragment; the
    # engine must flag incompleteness rather than mis-explore
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
scope S {
  input r: rate;
  def out: money = $10.00 / r;
  def flag: bool = out > $3.00;
  def res: int = if flag then 1 else 0;
  output res;
}
""")
    progress = []
    suite = explore(prog, "S", ExploreConfig(progress=lambda *a: progress.append(a)))
    assert suite.testcases  # the concrete side still runs
    assert not suite.complete
    # The first Unknown names the term, and its iteration's verdict says so.
    assert suite.incomplete_reason == "not linear: (0 <= (1000 / r))"
    assert progress[-1][1] == "unknown"


def test_all_opts_match_brute_force_on_random_scopes():
    from defcalc.explorer import OPT_NAMES
    rng = random.Random(2525)
    for i in range(30):
        prog = gen_scope_program(rng)
        cfg = ExploreConfig.from_opt_names(list(OPT_NAMES))
        suite = explore(prog, "Rand", cfg)
        got = {outcome_class(tc.outcome) for tc in suite.testcases}
        want = brute_force_classes(prog, "Rand")
        assert got == want, f"scope {i}"


def test_exploration_covers_every_reachable_path():
    # stronger than outcome classes: the fingerprints of the explored paths
    # must cover the concolic trail of every valid grid input
    from genutil import enumerate_inputs
    from defcalc.concolic import compile_scope, run_scope_concolic
    rng = random.Random(31415)
    for i in range(15):
        prog = gen_scope_program(rng)
        suite = explore(prog, "Rand", ExploreConfig())
        explored = {tc.path_fp for tc in suite.testcases}
        reachable = set()
        compiled = compile_scope(prog, "Rand")
        for inputs in enumerate_inputs(prog.scopes[0]):
            outcome, path = run_scope_concolic(compiled, inputs)
            if outcome.kind is not OutcomeKind.PRECONDITION:
                reachable.add(path_fingerprint(path))
        assert explored == reachable, f"scope {i}"


def test_entry_fingerprints_equal_the_full_path_fingerprint(monkeypatch):
    # `explore` fingerprints a path after reconciling it, from texts its
    # interned terms keep; every testcase's must be the one of its whole
    # path, also when early-error cuts the frontier at a divergence.
    from conftest import load_program
    diverged = []
    real = Frontier.reconcile

    def reconcile(self, path, early_error):
        diverged.append(len(path) < len(self.entries) or any(
            e.record.constraint != r.constraint for e, r in zip(self.entries, path)))
        return real(self, path, early_error)

    monkeypatch.setattr(Frontier, "reconcile", reconcile)
    bundled = (("fig5.dfc", "Main"), ("income_tax.dfc", "IncomeTax"),
               ("geo_match.dfc", "Housing"), ("trivial_just.dfc", "Fees"),
               ("soft_money.dfc", "Subsidy"), ("benefits_medium.dfc", "Benefits"))
    runs = [(load_program(name), scope, ExploreConfig(lazy=lazy, early_error=early))
            for name, scope in bundled for lazy in (False, True) for early in (False, True)]
    rng = random.Random(2718)
    runs += [(gen_scope_program(rng), "Rand", ExploreConfig(lazy=i % 2 == 1))
             for i in range(30)]
    # Random default terms are where early-error paths diverge; some cycle
    # until the iteration cap.
    rng = random.Random(5)
    runs += [(term_program(gen_default_term(rng)), "T",
              ExploreConfig(lazy=i % 2 == 1, early_error=True, max_iters=200))
             for i in range(160)]
    tests = 0
    for prog, scope, config in runs:
        for tc in explore(prog, scope, config).testcases:
            assert tc.path_fp == path_fingerprint(tc.path)
            tests += 1
    assert tests > 200 and any(diverged)


def test_no_term_table_outlives_an_explore():
    # Each explore compiles its scope with a table of its own: two explores
    # of one program share no constraint object but the module's constants.
    from conftest import load_program
    from defcalc.symbolic import FALSE
    for name, scope in (("fig5.dfc", "Main"), ("geo_match.dfc", "Housing"),
                        ("benefits_medium.dfc", "Benefits")):
        prog = load_program(name)
        first, second = explore(prog, scope), explore(prog, scope)
        objects = [{id(r.constraint) for tc in s.testcases for r in tc.path}
                   - {id(TRUE), id(FALSE)} for s in (first, second)]
        assert len(objects[0]) > 1 and not objects[0] & objects[1]


def _mentioned(e):
    """Every SymVar object in `e`, with repeats."""
    if isinstance(e, SymVar):
        return [e]
    return [v for c in sym_children(e) for v in _mentioned(c)]


def test_one_object_per_solver_variable(monkeypatch):
    # The session declares the compiled scope's leaves themselves, and every
    # variable of every query, a soft tier's money term included, is the
    # object the query declares under its name.
    from conftest import load_program
    def keeping(make, made):
        def wrapper(*args, **kw):
            made.append(make(*args, **kw))
            return made[-1]
        return wrapper
    compiled, sessions, queries = [], [], []
    monkeypatch.setattr(explorer, "compile_scope", keeping(compile_scope, compiled))
    monkeypatch.setattr(explorer, "SolverSession", keeping(SolverSession, sessions))
    suite = explore(load_program("soft_money.dfc"), "Subsidy", ExploreConfig.from_opt_names(
        ["soft"], on_query=queries.append))
    (leaves,), (session,) = [c.leaves for c in compiled], sessions
    assert suite.complete and len(queries) == suite.stats.solver_calls > 1
    assert len(session.decls) == len(leaves)
    assert all(d is leaves[d.name] for d in session.decls)
    tier_lits = [lit for tier in session._tiers for lit in tier]
    assert tier_lits and all(lit.lhs is leaves[lit.lhs.name] for lit in tier_lits)
    for q in queries:
        declared = {d.name: d for d in q.decls}
        assert all(declared[n] is leaf for n, leaf in leaves.items())
        assert all(declared[v.name] is v for lit in q.literals for v in _mentioned(lit))


def test_entry_fingerprint_takes_taken_from_the_path():
    # reconcile keeps an entry whose constraint equals the new record's, so
    # the `taken` flag must come from the path, not from the entry.
    f = Frontier(SolverSession(LEAVES))
    first = [rec(B, taken=True), rec(XEQ0, taken=True)]
    second = [rec(B, taken=True), rec(XEQ0, taken=False)]
    f.reconcile(first, early_error=False)
    f.reconcile(second, early_error=False)
    assert f.entries[1].record.taken
    assert path_fingerprint(second) != path_fingerprint(first)
