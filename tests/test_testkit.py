import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from defcalc.lang import (
    BOOL, INT, MONEY, RAT,
    Default, Not, VBool, VEnum, VInt, VMoney, VRat, VStruct, validate, walk,
)
from defcalc.explorer import ExploreConfig, explore
from defcalc.interp import OutcomeKind, run_scope
from defcalc.testkit import (
    CampaignReport, MutationOp, Mutant, NoEligibleDefaultTerm, _write_json,
    emit_suite, find_issue, input_grid, mutate, mutation_campaign, replay,
    replay_dir, screen_mutant, value_from_json, value_to_json,
)


# -- value encoding ------------------------------------------------------------


@pytest.mark.parametrize("value,ty", [
    (VBool(True), BOOL),
    (VInt(-7), INT),
    (VMoney(1000001), MONEY),
    (VRat(Fraction(-3, 7)), RAT),
])
def test_value_json_round_trip(value, ty):
    assert value_from_json(value_to_json(value), ty) == value


def test_money_encoded_as_cents():
    assert value_to_json(VMoney(123456)) == {"cents": 123456}


def test_rational_encoded_as_fraction():
    assert value_to_json(VRat(Fraction(1, 3))) == {"num": 1, "den": 3}


# -- suite emission and replay ---------------------------------------------------


_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", '"', "\\", "\x00", "\x1f\x7f", "\n\t", "é", "\u2028", "\U0001f600", "\ud800"])
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(-10**40, 10**40) | _TEXT)
_VALUES = st.recursive(
    _SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_written_text_is_json_dumps(tmp_path_factory, value):
    path = tmp_path_factory.mktemp("json") / "doc.json"
    _write_json(str(path), value)
    assert path.read_bytes() == \
        (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, [{"b": float("nan")}],
                                   {1: 2}, (1, 2)])
def test_writer_rejects_other_types_and_writes_nothing(tmp_path, value):
    with pytest.raises(TypeError):
        _write_json(str(tmp_path / "doc.json"), value)
    assert not (tmp_path / "doc.json").exists()


def fig5_suite(fig5):
    cfg = ExploreConfig(initial={"b": VBool(True), "x": VInt(3)})
    return explore(fig5, "Main", cfg)


def test_emit_fig5_suite_and_manifest(fig5, tmp_path):
    suite = fig5_suite(fig5)
    files = emit_suite(suite, str(tmp_path))
    tc_files = [f for f in files if "tc" in f]
    assert len(tc_files) == 5
    manifest = json.loads((tmp_path / "suite.json").read_text())
    assert manifest["stats"]["tests"] == 5
    assert manifest["stats"]["conflicts"] == 1
    assert manifest["stats"]["empties"] == 1
    # manifest statistics equal recomputation from the testcase files
    kinds = []
    for name in manifest["files"]:
        kinds.append(json.loads((tmp_path / name).read_text())["outcome"]["kind"])
    assert kinds.count("conflict") == manifest["stats"]["conflicts"]
    assert kinds.count("empty") == manifest["stats"]["empties"]
    assert len(kinds) == manifest["stats"]["tests"]


def test_emission_is_byte_stable(fig5, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_suite(fig5_suite(fig5), str(a))
    emit_suite(fig5_suite(fig5), str(b))
    for name in sorted(p.name for p in a.iterdir()):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_zero_budget_manifest_flags_incomplete(fig5, tmp_path):
    suite = explore(fig5, "Main", ExploreConfig(max_iters=0))
    emit_suite(suite, str(tmp_path))
    manifest = json.loads((tmp_path / "suite.json").read_text())
    assert manifest["stats"]["tests"] == 0
    assert manifest["complete"] is False


def test_replay_round_trip(fig5, tmp_path):
    suite = fig5_suite(fig5)
    emit_suite(suite, str(tmp_path))
    results = replay_dir(fig5, str(tmp_path))
    assert len(results) == 5
    assert all(r.passed for _, r in results)


def test_reemission_removes_stale_testcases(fig5, trivial_just, tmp_path):
    # fig5's five testcases, then trivial_just's four into the same directory:
    # the fifth file would replay against a scope trivial_just does not have.
    # Files not named like a testcase stay, and replay skips them.
    for name in ("notes.json", "tcnotes.json", "tc12.json"):
        (tmp_path / name).write_text("{}")
    emit_suite(fig5_suite(fig5), str(tmp_path))
    other = tmp_path / "other"
    written = emit_suite(explore(trivial_just, "Fees", ExploreConfig()), str(other))
    assert emit_suite(explore(trivial_just, "Fees", ExploreConfig()), str(tmp_path)) == \
        [str(tmp_path / os.path.basename(p)) for p in written]
    results = replay_dir(trivial_just, str(tmp_path))
    assert [name for name, _ in results] == [f"tc000{i}.json" for i in range(1, 5)]
    assert all(r.passed for _, r in results)
    assert all((tmp_path / name).exists()
               for name in ("notes.json", "tcnotes.json", "tc12.json"))
    for p in written:  # the emitted bytes are as in a fresh directory
        assert (tmp_path / os.path.basename(p)).read_bytes() == open(p, "rb").read()


def test_replay_conflict_case(fig5, tmp_path):
    suite = fig5_suite(fig5)
    emit_suite(suite, str(tmp_path))
    conflict_file = None
    for name in sorted(p.name for p in tmp_path.iterdir()):
        if name.startswith("tc"):
            data = json.loads((tmp_path / name).read_text())
            if data["outcome"]["kind"] == "conflict":
                conflict_file = name
                assert data["inputs"] == {"b": True, "x": 0}
    assert conflict_file is not None
    assert replay(fig5, str(tmp_path / conflict_file)).passed


def test_replay_fails_on_mutated_program(fig5, tmp_path):
    suite = fig5_suite(fig5)
    emit_suite(suite, str(tmp_path))
    mutant = mutate(fig5, MutationOp("duplicate"), seed=3)
    results = replay_dir(mutant.program, str(tmp_path))
    assert any(not r.passed for _, r in results)


def test_income_tax_emits_four_files(income_tax, tmp_path):
    suite = explore(income_tax, "IncomeTax", ExploreConfig())
    files = emit_suite(suite, str(tmp_path))
    assert len([f for f in files if "tc" in f]) == 4


# -- mutation ----------------------------------------------------------------------


def test_mutants_validate(benefits_medium):
    for seed in range(12):
        for kind in ("remove", "duplicate", "negate"):
            m = mutate(benefits_medium, MutationOp(kind), seed)
            assert validate(m.program) == [], (kind, seed)


def test_mutation_deterministic(benefits_medium):
    a = mutate(benefits_medium, MutationOp("negate"), 5)
    b = mutate(benefits_medium, MutationOp("negate"), 5)
    assert a.program == b.program and a.target_index == b.target_index


def test_remove_two_exceptions_leaves_bare_default(fig5):
    # the outer default is the only one with exceptions; removing both
    # leaves a bare default that still validates
    m = mutate(fig5, MutationOp("remove", count=2), seed=1)
    outer = m.program.scopes[0].bindings[0].expr
    assert isinstance(outer, Default) and outer.exceptions == ()
    assert validate(m.program) == []


def test_duplicate_exception_creates_conflict(income_tax):
    # with the duplicated low-income exception, the $0 household conflicts
    m = None
    for seed in range(20):
        cand = mutate(income_tax, MutationOp("duplicate"), seed)
        out = run_scope(cand.program, "IncomeTax",
                        {"income": VMoney(0), "nb_children": VInt(0)})
        if out.kind is OutcomeKind.CONFLICT:
            m = cand
            break
    assert m is not None
    report = find_issue(m)
    assert report.found


def test_negate_justification_unhandled_case():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("""
scope S {
  input x: int;
  def y: rate = rule (true :- 20%);
  output y;
}
""")
    m = mutate(prog, MutationOp("negate"), seed=0)
    out = run_scope(m.program, "S", {"x": VInt(0)})
    assert out.kind is OutcomeKind.EMPTY


def test_mutate_requires_eligible_default():
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("scope S { input x: int; def y: int = x; output y; }")
    with pytest.raises(NoEligibleDefaultTerm):
        mutate(prog, MutationOp("negate"), seed=0)


def test_input_grid_sizes(benefits_medium, soft_money):
    grid = input_grid(benefits_medium.scope("Benefits"), int_bounds=(0, 6))
    assert grid is not None
    assert len(grid) == 4 * 2 * 2 * 2 * 7
    assert input_grid(soft_money.scope("Subsidy")) is None  # money inputs


def test_screening_detects_manifest_and_silent_mutants(benefits_medium):
    # a duplicated exception manifests somewhere on the grid
    found_true = found_false = False
    for seed in range(30):
        m = mutate(benefits_medium, MutationOp("duplicate"), seed)
        s = screen_mutant(m)
        if s:
            found_true = True
        m2 = mutate(benefits_medium, MutationOp("remove"), seed)
        if screen_mutant(m2) is False:
            found_false = True
        if found_true and found_false:
            break
    assert found_true


def test_campaign_deterministic(benefits_medium):
    a = mutation_campaign(benefits_medium, 5, seed=11)
    b = mutation_campaign(benefits_medium, 5, seed=11)
    assert [(m.op, m.seed, m.found) for m in a.mutants] == \
        [(m.op, m.seed, m.found) for m in b.mutants]


def test_zero_mutants_requested(benefits_medium):
    report = mutation_campaign(benefits_medium, 0, seed=1)
    assert report.mutants == []


def test_found_mutants_genuinely_differ(benefits_medium):
    report = mutation_campaign(benefits_medium, 6, seed=3)
    # the witness input must reproduce the divergence on a fresh run
    for m in report.mutants:
        if m.found:
            assert m.witness is not None


def test_missed_mutant_notes_why_its_run_was_incomplete():
    # Money divided by a symbolic rate does not linearize: the mutant is
    # missed, and its note is the run's reason, not a guess at one.
    from defcalc.parser import parse_or_raise
    prog = parse_or_raise("scope S { input r: rate; def out: money = $10.00 / r;"
                          " def res: int = if out > $3.00 then 1 else 0; output res; }")
    report = find_issue(Mutant(prog, prog, MutationOp("negate"), "S", 0, 0))
    assert not report.found and report.note == "not linear: (0 <= (1000 / r))"
