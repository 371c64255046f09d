"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from defcalc.lang import (
    INT, MONEY,
    Default, VBool, VEnum, VInt, VMoney, validate,
)
from defcalc.explorer import ExploreConfig, explore
from defcalc.interp import Mode, OutcomeKind, eval_expr, run_scope
from defcalc.solver import (
    SOFT_TIERS, SolverSession, Unsat, divisibility_constraints,
)
from defcalc.symbolic import (
    leaf_env_of_inputs, render, scope_leaves, sym_eval_bool,
)
from defcalc.testkit import emit_suite, mutation_campaign, replay_dir
from defcalc.transforms import fold_program

from genutil import (
    brute_force_classes, enumerate_inputs, gen_default_term, gen_env,
    gen_scope_program, outcome_class, term_program,
)

_EMITTED = []  # (program, suite directory) pairs replayed by criterion 11


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status}{suffix}", flush=True)
    assert ok, f"{criterion} failed {suffix}"


def out_value(tc):
    if tc.outcome.kind is OutcomeKind.VALUE:
        return tc.outcome.outputs[0][1]
    return tc.outcome.kind.value


# -- criterion 1: golden five-row trace ----------------------------------------


def test_c1_fig5_golden_trace(fig5, tmp_path_factory):
    t0 = time.monotonic()
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)})
    suite = explore(fig5, "Main", cfg)
    elapsed = time.monotonic() - t0

    ok = len(suite.testcases) == 5 and suite.complete
    rows = [(tc.inputs["b"].b, tc.inputs["x"].i, out_value(tc))
            for tc in suite.testcases]
    paths = [[render(r.constraint) for r in tc.path] for tc in suite.testcases]
    ok = ok and rows[0] == (True, 3, VInt(1))
    ok = ok and rows[1] == (True, 0, "conflict")
    ok = ok and rows[2] == (False, 3, VInt(3))
    ok = ok and rows[3][0] is False and rows[3][2] == "empty"
    ok = ok and rows[3][1] != 0 and rows[3][1] <= 0  # any model of the row
    ok = ok and rows[4] == (False, 0, VInt(2))
    ok = ok and paths == [
        ["b", "!(x = 0)"],
        ["b", "(x = 0)"],
        ["!b", "!(x = 0)", "(x > 0)"],
        ["!b", "!(x = 0)", "!(x > 0)"],
        ["!b", "(x = 0)"],
    ]
    # every recorded literal is satisfied by the row's concrete inputs
    scope = fig5.scope("Main")
    for tc in suite.testcases:
        leaf_env = leaf_env_of_inputs(scope, tc.inputs)
        ok = ok and all(sym_eval_bool(r.constraint, leaf_env) for r in tc.path)
    ok = ok and elapsed < 1.0

    d = tmp_path_factory.mktemp("c1")
    emit_suite(suite, str(d))
    _EMITTED.append((fig5, d))
    report("C1 five-row golden trace", ok, f"{elapsed:.3f}s")


# -- criterion 2: income-tax enumeration -----------------------------------------


def test_c2_income_tax_enumeration(income_tax, tmp_path_factory):
    t0 = time.monotonic()
    suite = explore(income_tax, "IncomeTax", ExploreConfig())
    elapsed = time.monotonic() - t0

    ok = len(suite.testcases) == 4 and suite.complete
    low = VMoney(1000000)
    classes = set()
    for tc in suite.testcases:
        income = tc.inputs["income"]
        kids = tc.inputs["nb_children"].i
        if tc.outcome.kind is OutcomeKind.CONFLICT:
            classes.add("conflict")
            ok = ok and income.cents <= low.cents and kids >= 3
        else:
            tax = tc.outcome.outputs[0][1]
            if income.cents <= low.cents:
                classes.add("reduced")
                ok = ok and kids < 3
            elif kids >= 3:
                classes.add("families")
                ok = ok and tax == VMoney(round(income.cents * 0.15))
            else:
                classes.add("general")
    ok = ok and classes == {"conflict", "reduced", "families", "general"}
    by_kind = {}
    for tc in suite.testcases:
        if tc.outcome.kind is OutcomeKind.VALUE:
            by_kind[tc.inputs["nb_children"].i >= 3] = tc
    # the $10,000.01 models reproduce the exact cent values
    ok = ok and by_kind[False].inputs["income"] == VMoney(1000001)
    ok = ok and by_kind[False].outcome.outputs[0][1] == VMoney(200000)
    ok = ok and by_kind[True].inputs["income"] == VMoney(1000001)
    ok = ok and by_kind[True].outcome.outputs[0][1] == VMoney(150000)
    ok = ok and elapsed < 1.0

    d = tmp_path_factory.mktemp("c2")
    emit_suite(suite, str(d))
    _EMITTED.append((income_tax, d))
    report("C2 income-tax enumeration", ok, f"{elapsed:.3f}s")


# -- criteria 3 and 4: order independence and mode equivalence --------------------


@pytest.fixture(scope="module")
def term_corpus():
    rng = random.Random(0xD0_0D)
    corpus = []
    for _ in range(1000):
        term = gen_default_term(rng, depth=3, max_exceptions=4)
        envs = [gen_env(rng) for _ in range(20)]
        perm = list(range(len(term.exceptions)))
        rng.shuffle(perm)
        corpus.append((term, tuple(perm), envs))
    return corpus


def test_c3_exception_order_independence(term_corpus):
    failures = 0
    for term, perm, envs in term_corpus:
        prog = term_program(term)
        permuted = Default(tuple(term.exceptions[i] for i in perm),
                           term.just, term.cons)
        for env in envs:
            if eval_expr(term, env, prog) != eval_expr(permuted, env, prog):
                failures += 1
    report("C3 exception-order independence (1000x20)", failures == 0,
           f"{failures} failures")


def test_c4_mode_equivalence(term_corpus):
    failures = 0
    for term, _, envs in term_corpus:
        prog = term_program(term)
        for env in envs:
            if eval_expr(term, env, prog, Mode.EAGER) != \
                    eval_expr(term, env, prog, Mode.LAZY):
                failures += 1
    report("C4 eager/lazy mode equivalence (1000x20)", failures == 0,
           f"{failures} failures")


# -- criterion 5: oracle exhaustiveness --------------------------------------------


def test_c5_exploration_matches_brute_force():
    rng = random.Random(0xACE)
    t0 = time.monotonic()
    misses = 0
    for i in range(200):
        prog = gen_scope_program(rng)
        suite = explore(prog, "Rand", ExploreConfig())
        got = {outcome_class(tc.outcome) for tc in suite.testcases}
        want = brute_force_classes(prog, "Rand")
        if got != want or not suite.complete:
            misses += 1
    elapsed = time.monotonic() - t0
    report("C5 oracle exhaustiveness (200 scopes)",
           misses == 0 and elapsed < 60.0, f"{misses} misses, {elapsed:.1f}s")


# -- criterion 6: mutation campaign ------------------------------------------------


def test_c6_mutation_campaign(benefits_medium):
    report_ = mutation_campaign(benefits_medium, 20, seed=0xBEEF)
    found = report_.found
    slowest = max((m.elapsed for m in report_.mutants), default=0.0)
    ok = len(report_.mutants) == 20 and found == 20 and slowest < 5.0
    report("C6 mutation campaign (20 mutants)", ok,
           f"{found}/20 found, slowest {slowest:.2f}s")


# -- criterion 7: match folding ------------------------------------------------------


def test_c7_match_folding(geo_match, tmp_path_factory):
    off = explore(geo_match, "Housing", ExploreConfig())
    on = explore(geo_match, "Housing", ExploreConfig(folding=True))
    ok = len(off.testcases) == 9 and len(on.testcases) == 2
    d_off = tmp_path_factory.mktemp("c7off")
    d_on = tmp_path_factory.mktemp("c7on")
    emit_suite(off, str(d_off))
    emit_suite(on, str(d_on))
    ok = ok and all(r.passed for _, r in replay_dir(geo_match, str(d_off)))
    ok = ok and all(r.passed for _, r in replay_dir(geo_match, str(d_on)))
    off_out = {(tc.inputs["zone"].variant, out_value(tc)) for tc in off.testcases}
    on_classes = {out_value(tc) for tc in on.testcases}
    ok = ok and {v for _, v in off_out} == on_classes
    _EMITTED.append((geo_match, d_off))
    _EMITTED.append((geo_match, d_on))
    report("C7 match folding 9 -> 2 paths", ok,
           f"off={len(off.testcases)} on={len(on.testcases)}")


# -- criterion 8: trivial filtering ---------------------------------------------------


def test_c8_trivial_filtering(trivial_just):
    off = explore(trivial_just, "Fees", ExploreConfig())
    on = explore(trivial_just, "Fees", ExploreConfig(trivial=True))
    classes_off = {outcome_class(tc.outcome) for tc in off.testcases}
    classes_on = {outcome_class(tc.outcome) for tc in on.testcases}
    ok = on.stats.solver_calls < off.stats.solver_calls
    ok = ok and classes_on == classes_off
    report("C8 trivial-constraint filtering", ok,
           f"calls {off.stats.solver_calls} -> {on.stats.solver_calls}")


# -- criterion 9: incremental equivalence ----------------------------------------------


def test_c9_incremental_equals_oneshot(fig5, income_tax, geo_match, soft_money,
                                       tmp_path_factory):
    ok = True
    cases = [
        (fig5, "Main", {"initial": {"b": VBool(True), "x": VInt(3)}}),
        (income_tax, "IncomeTax", {}),
        (geo_match, "Housing", {}),
        (geo_match, "Housing", {"folding": True}),
        (soft_money, "Subsidy", {"soft": True}),
    ]
    for idx, (prog, scope, kw) in enumerate(cases):
        inc = explore(prog, scope, ExploreConfig(incremental=True, **kw))
        one = explore(prog, scope, ExploreConfig(incremental=False, **kw))
        d1 = tmp_path_factory.mktemp(f"c9inc{idx}")
        d2 = tmp_path_factory.mktemp(f"c9one{idx}")
        emit_suite(inc, str(d1))
        emit_suite(one, str(d2))
        for name in sorted(p.name for p in d1.iterdir()):
            if (d1 / name).read_bytes() != (d2 / name).read_bytes():
                ok = False
    report("C9 incremental == one-shot suites", ok)


# -- criterion 10: soft-constraint ladder -----------------------------------------------


def _tier_unit(name):
    return dict(SOFT_TIERS)[name]


def _next_tier(name):
    order = [None, "T1", "T10", "T100"]
    i = order.index(name)
    return order[i + 1] if i + 1 < len(order) else None


def test_c10_soft_constraint_ladder(soft_money, tmp_path_factory):
    suite = explore(soft_money, "Subsidy", ExploreConfig(soft=True))
    scope = soft_money.scope("Subsidy")
    money_leaves = [l for l in scope_leaves(scope) if l.ty == MONEY]
    tiered = [tc for tc in suite.testcases if tc.soft_tier is not None]
    ok = suite.complete and len(suite.testcases) >= 3
    ok = ok and len(tiered) / len(suite.testcases) >= 0.9

    for tc in suite.testcases:
        if tc.soft_tier is not None:
            unit = _tier_unit(tc.soft_tier)
            for leaf in money_leaves:
                ok = ok and tc.inputs[leaf.name].cents % unit == 0
        nxt = _next_tier(tc.soft_tier)
        if nxt is None:
            continue  # already at the top tier
        # independent maximality check: the next-higher tier is unsat under
        # the recorded path condition
        decls, tier_lits = divisibility_constraints(
            scope_leaves(scope), [l.name for l in money_leaves], _tier_unit(nxt))
        verdict = SolverSession(decls).check(
            [r.constraint for r in tc.path] + list(tier_lits))
        ok = ok and isinstance(verdict, Unsat)

    d = tmp_path_factory.mktemp("c10")
    emit_suite(suite, str(d))
    _EMITTED.append((soft_money, d))
    report("C10 soft-constraint ladder", ok,
           f"{len(tiered)}/{len(suite.testcases)} tiered")


# -- criterion 11: replay closure ---------------------------------------------------------


def test_c11_replay_closure():
    total = passed = 0
    for prog, directory in _EMITTED:
        for _, result in replay_dir(prog, str(directory)):
            total += 1
            passed += bool(result.passed)
    ok = total > 0 and passed == total
    report("C11 replay closure", ok, f"{passed}/{total} pass")
