import gc
import os
import select
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import load_program
from defcalc.explorer import OPT_NAMES, ExploreConfig, explore
from defcalc.lang import (
    BOOL, INT, MONEY, RAT, EnumT, VBool, VEnum, VInt, VMoney, VRat,
)
from defcalc.smtlib import (
    _ROUND_DEF, ExternalSolver, _const, _show, _sort_of_leaf, _symname, emit_smtlib,
    parse_model, read_sexpr,
)
from defcalc.solver import (
    Query, Sat, SolverFailure, SolverSession, Unknown, Unsat,
)
from defcalc.symbolic import (
    SymBin, SymConst, SymIsVariant, SymNot, SymRound, SymVar,
)
from defcalc.testkit import emit_suite


def q_simple():
    return Query((SymVar("x", INT),),
                 (SymBin(">", SymVar("x", INT), SymConst(VInt(0))),))


def model_of(reply: str, query: Query) -> dict:
    return parse_model(read_sexpr(reply)[0], query)


def test_emission_declares_and_asserts():
    text = emit_smtlib(q_simple())
    assert "(declare-const x Int)" in text
    assert "(assert (> x 0))" in text
    assert "(check-sat)" in text and "(get-model)" in text


def test_round_definition_present_iff_used():
    text = emit_smtlib(q_simple())
    assert "dfc_round" not in text
    q = Query((SymVar("x", INT),),
              (SymBin("=", SymRound(SymBin("*", SymVar("x", INT),
                                           SymConst(VRat(Fraction(1, 5))))),
                      SymConst(VInt(2))),))
    text = emit_smtlib(q)
    assert "(define-fun dfc_round ((q Real)) Int" in text
    assert "to_int" in text


def test_worked_example_query_emission():
    q = Query((SymVar("b", BOOL), SymVar("x", INT)),
              (SymVar("b", BOOL), SymBin("=", SymVar("x", INT), SymConst(VInt(0)))))
    text = emit_smtlib(q)
    assert "(declare-const b Bool)" in text
    assert "(declare-const x Int)" in text
    assert "(assert b)" in text
    assert "(assert (= x 0))" in text


def test_enum_emitted_as_datatype():
    zone = EnumT("Zone", (("A", None), ("B", None)))
    q = Query((SymVar("z", zone),),
              (SymIsVariant(SymVar("z", zone), "A"),))
    text = emit_smtlib(q)
    assert "(declare-datatypes ((Zone 0)) (((A) (B))))" in text
    assert "(assert ((_ is A) z))" in text


def test_money_and_dotted_names():
    q = Query((SymVar("h.income", MONEY),),
              (SymBin(">=", SymVar("h.income", MONEY), SymConst(VMoney(100))),))
    text = emit_smtlib(q)
    assert "(declare-const |h.income| Int)" in text


def test_int_real_mixing_inserts_to_real():
    q = Query((SymVar("x", INT), SymVar("r", RAT)),
              (SymBin("<", SymVar("x", INT), SymVar("r", RAT)),))
    text = emit_smtlib(q)
    assert "(to_real x)" in text


def test_sexpr_parser():
    text = "(model (define-fun x () Int (- 3)))"
    want = ["model", ["define-fun", "x", [], "Int", ["-", "3"]]]
    assert read_sexpr(text) == (want, len(text))


def test_model_parsing_covers_sorts():
    zone = EnumT("Zone", (("A", None), ("B", None)))
    q = Query((SymVar("x", INT), SymVar("m", MONEY), SymVar("r", RAT),
               SymVar("b", BOOL), SymVar("z", zone)), ())
    reply = """
    ( (define-fun x () Int (- 7))
      (define-fun m () Int 1000001)
      (define-fun r () Real (/ 21 2))
      (define-fun b () Bool true)
      (define-fun z () Zone B) )
    """
    model = model_of(reply, q)
    assert model["x"] == VInt(-7)
    assert model["m"] == VMoney(1000001)
    assert model["r"] == VRat(Fraction(21, 2))
    assert model["b"] == VBool(True)
    assert model["z"].variant == "B"


def test_error_reply_is_not_a_model():
    with pytest.raises(SolverFailure, match="model generation failed"):
        model_of('(error "model generation failed")', q_simple())


@pytest.mark.parametrize("value", ["((B))", "()", "C", '"A"'])
def test_unreadable_enum_value_is_a_solver_failure(value):
    zone = EnumT("Zone", (("A", None), ("B", None)))
    q = Query((SymVar("z", zone),), ())
    assert model_of("((define-fun z () Zone (B)))", q)["z"].variant == "B"
    with pytest.raises(SolverFailure, match="for enum Zone"):
        model_of(f"((define-fun z () Zone {value}))", q)


@pytest.mark.parametrize("ty, sort, value", [
    (INT, "Int", "(/ 7 2)"), (INT, "Int", "1.5"), (INT, "Int", "true"),
    (MONEY, "Int", "(/ 7 2)"), (BOOL, "Bool", "17"), (BOOL, "Bool", "(not true)")])
def test_model_value_outside_its_sort_is_a_solver_failure(ty, sort, value):
    q = Query((SymVar("v", ty),), ())
    with pytest.raises(SolverFailure, match=f"as the {ty} value of v"):
        model_of(f"((define-fun v () {sort} {value}))", q)


def test_integral_fraction_reads_as_an_int():
    q = Query((SymVar("x", INT), SymVar("m", MONEY)), ())
    reply = "((define-fun x () Int (/ 14 2)) (define-fun m () Int 3.0))"
    assert model_of(reply, q) == {"x": VInt(7), "m": VMoney(3)}


def test_missing_defs_fall_back_to_defaults():
    q = Query((SymVar("x", INT),), ())
    model = model_of("( )", q)
    assert model["x"] == VInt(0)
    # An entry that is not (define-fun NAME () SORT VALUE) defines nothing.
    assert model_of("((define-fun (x) () Int 5) (x 5))", q) == {"x": VInt(0)}


# -- the S-expression reader ------------------------------------------------------


def test_doubled_quote_is_a_quote_inside_one_string():
    text = '(error "a ""b"" c")'
    assert read_sexpr(text) == (["error", '"a ""b"" c"'], len(text))


def test_reader_waits_for_the_end_of_an_atom_and_rejects_a_stray_paren():
    assert read_sexpr("sat") is None  # "sat" may still become "satisfiable"
    assert read_sexpr("sat\n") == ("sat", 3)
    assert read_sexpr('"a"') is None and read_sexpr('"a""') is None
    assert read_sexpr("(a ; comment )\n b) c", 0) == (["a", "b"], 18)
    assert read_sexpr("(a) (b)", 3) == (["b"], 7)
    with pytest.raises(ValueError, match="unbalanced parenthesis"):
        read_sexpr(" ; comment )\n )")


def read_whole(text: str) -> list:
    nodes, end = [], 0
    while (got := read_sexpr(text, end)) is not None:
        node, end = got
        nodes.append(node)
    return nodes


def read_in_chunks(text: str, cuts) -> list:
    """What `ExternalSolver._ask` and the shim frame when `text` arrives in
    pieces cut at `cuts`."""
    nodes, pending, last = [], "", 0
    for cut in sorted(cuts) + [len(text)]:
        pending += text[last:cut]
        last = cut
        while (got := read_sexpr(pending)) is not None:
            node, end = got
            nodes.append(node)
            pending = pending[end:]
    return nodes


ZONE = EnumT("Zone", (("A", None), ("B", None)))
LEAVES = (SymVar("x", INT), SymVar("h.income", MONEY), SymVar("r", RAT),
          SymVar("b", BOOL), SymVar("z", ZONE))
VALUES = {
    INT: st.integers(-10**12, 10**12).map(VInt),
    MONEY: st.integers(-10**12, 10**12).map(VMoney),
    RAT: st.fractions(max_denominator=10**6).map(VRat),
    BOOL: st.booleans().map(VBool),
    ZONE: st.sampled_from(("A", "B")).map(lambda v: VEnum("Zone", v)),
}
_nums = st.recursive(
    st.one_of(st.sampled_from([SymVar(l.name, l.ty) for l in LEAVES[:3]]),
              VALUES[INT].map(SymConst), VALUES[RAT].map(SymConst)),
    lambda t: st.one_of(
        st.builds(SymBin, st.sampled_from("+-*/"), t, t),
        t.map(SymRound)),
    max_leaves=6)
_bools = st.recursive(
    st.one_of(st.just(SymVar("b", BOOL)), VALUES[BOOL].map(SymConst),
              st.builds(SymBin, st.sampled_from(["=", "<", "<=", ">", ">="]), _nums, _nums),
              st.sampled_from("AB").map(lambda v: SymIsVariant(SymVar("z", ZONE), v))),
    lambda t: st.one_of(t.map(SymNot), st.builds(SymBin, st.sampled_from(["&&", "||"]), t, t)),
    max_leaves=4)
QUERIES = st.lists(_bools, max_size=4).map(lambda lits: Query(LEAVES, tuple(lits)))
MODELS = st.fixed_dictionaries({l.name: VALUES[l.ty] for l in LEAVES})


def model_reply(model: dict) -> str:
    """A get-model reply, laid out as the bundled shim writes it."""
    rows = "".join(f"  (define-fun {_symname(l.name)} () {_sort_of_leaf(l.ty)} "
                   f"{_const(model[l.name])})\n" for l in LEAVES)
    return f"(\n{rows})\n"


@settings(max_examples=150, deadline=None)
@given(st.data(), QUERIES)
def test_emitted_scripts_frame_alike_whole_and_in_chunks(data, query):
    text = emit_smtlib(query)
    cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
    nodes = read_whole(text)
    assert len(nodes) == text.count("\n")  # one command a line
    assert read_in_chunks(text, cuts) == nodes


@settings(max_examples=150, deadline=None)
@given(st.data(), MODELS)
def test_model_replies_frame_alike_whole_and_in_chunks(data, model):
    text = "sat\n" + model_reply(model)
    cuts = data.draw(st.lists(st.integers(0, len(text)), max_size=8))
    nodes = read_whole(text)
    assert read_in_chunks(text, cuts) == nodes
    verdict, reply = nodes
    assert verdict == "sat"
    assert parse_model(reply, Query(LEAVES, ())) == model


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(st.sampled_from('()|"; \n\tab1-.'))),
       st.integers(0, 4))
def test_reader_on_arbitrary_text_gives_a_node_none_or_value_error(text, start):
    try:
        got = read_sexpr(text, start)
    except ValueError:
        return
    if got is not None:
        node, end = got
        assert start < end <= len(text)
        assert read_sexpr(_show(node) + "\n")[0] == node


# -- external backend through the bundled shim ---------------------------------


@pytest.fixture(scope="module")
def shim(scripts_dir):
    with ExternalSolver(f"{sys.executable} {scripts_dir / 'smtlib_solve.py'}") as ext:
        yield ext


def test_shim_agrees_with_builtin_on_sat(shim):
    q = Query((SymVar("b", BOOL), SymVar("x", INT)),
              (SymVar("b", BOOL), SymBin("=", SymVar("x", INT), SymConst(VInt(0)))))
    res = shim.check(q)
    assert isinstance(res, Sat)
    assert res.model["b"] == VBool(True)
    assert res.model["x"] == VInt(0)


def test_shim_agrees_with_builtin_on_unsat(shim):
    lit = SymBin(">", SymVar("x", INT), SymConst(VInt(0)))
    q = Query((SymVar("x", INT),), (lit, SymNot(lit)))
    assert isinstance(shim.check(q), Unsat)


def test_shim_handles_round_and_money(shim):
    q = Query((SymVar("m", MONEY),),
              (SymBin("=", SymRound(SymBin("*", SymVar("m", MONEY),
                                           SymConst(VRat(Fraction(1, 5))))),
                      SymConst(VInt(200000))),
               SymBin(">", SymVar("m", MONEY), SymConst(VMoney(0)))))
    res = shim.check(q)
    assert isinstance(res, Sat)
    cents = res.model["m"].cents
    from defcalc.interp import round_rat
    assert round_rat(Fraction(cents, 5)) == 200000


def test_empty_command_is_rejected_up_front():
    for command in ("", "  "):
        with pytest.raises(ValueError, match="empty solver command"):
            ExternalSolver(command)


def test_external_failure_raises(tmp_path):
    bad = ExternalSolver(f"{sys.executable} -c 'import sys; sys.exit(3)'")
    with pytest.raises(SolverFailure):
        bad.check(q_simple())


# -- one long-lived solver process ----------------------------------------------


def fake_solver(tmp_path, body: str, timeout: float = 30.0) -> ExternalSolver:
    """An ExternalSolver over a tiny Python script that logs its pid to
    `pids.txt` on start and then runs `body`."""
    script = tmp_path / "fake_solver.py"
    script.write_text(
        "import os, sys, time\n"
        f"with open({str(tmp_path / 'pids.txt')!r}, 'a') as fh:\n"
        "    fh.write(f'{os.getpid()}\\n')\n" + body)
    return ExternalSolver(f"{sys.executable} {script}", timeout=timeout)


def pids(tmp_path) -> list:
    return [int(p) for p in (tmp_path / "pids.txt").read_text().split()]


ANSWER_UNSAT = """
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print("unsat", flush=True)
    elif line.startswith("(get-model)"):
        print('(error "model is not available")', flush=True)
"""


def test_one_process_serves_every_check(tmp_path):
    with fake_solver(tmp_path, ANSWER_UNSAT) as ext:
        for _ in range(3):
            assert isinstance(ext.check(q_simple()), Unsat)
    assert len(pids(tmp_path)) == 1


def test_close_is_idempotent_and_a_dropped_solver_is_stopped(tmp_path):
    ext = fake_solver(tmp_path, ANSWER_UNSAT)
    ext.check(q_simple())
    ext.close()
    ext.close()
    assert isinstance(ext.check(q_simple()), Unsat)  # on a new process
    del ext  # never closed: dropping it must still stop its process
    gc.collect()
    first, second = pids(tmp_path)
    for pid in (first, second):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_solver_exiting_fails_one_check_then_restarts(tmp_path):
    body = """
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print("unsat", flush=True)
    elif line.startswith("(get-model)"):
        print('(error "model is not available")', flush=True)
        sys.exit(0)
"""
    with fake_solver(tmp_path, body) as ext:
        assert isinstance(ext.check(q_simple()), Unsat)
        with pytest.raises(SolverFailure):
            ext.check(q_simple())
        assert isinstance(ext.check(q_simple()), Unsat)
    first, second = pids(tmp_path)
    assert first != second


def test_silent_solver_times_out_and_is_killed(tmp_path):
    ext = fake_solver(tmp_path, "time.sleep(60)\n", timeout=0.5)
    t0 = time.monotonic()
    with pytest.raises(SolverFailure, match="no reply within"):
        ext.check(q_simple())
    assert time.monotonic() - t0 < 2.0
    (pid,) = pids(tmp_path)
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)  # killed and reaped, so not even a zombie is left
    ext.close()  # closing again is harmless


def test_unknown_verdict_word_fails_and_next_check_recovers(tmp_path):
    body = f"""
first = not os.path.exists({str(tmp_path / 'answered')!r})
open({str(tmp_path / 'answered')!r}, "w").close()
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print("maybe" if first else "unsat", flush=True)
    elif line.startswith("(get-model)"):
        print('(error "model is not available")', flush=True)
"""
    with fake_solver(tmp_path, body) as ext:
        with pytest.raises(SolverFailure, match="maybe"):
            ext.check(q_simple())
        assert isinstance(ext.check(q_simple()), Unsat)
    assert len(pids(tmp_path)) == 2


def test_failure_message_quotes_solver_stderr(tmp_path):
    body = "sys.stderr.write('bad licence file\\n')\nsys.exit(2)\n"
    with fake_solver(tmp_path, body) as ext:
        with pytest.raises(SolverFailure, match="bad licence file"):
            ext.check(q_simple())


# -- the incremental protocol ----------------------------------------------------


X = SymVar("x", INT)


def x_is(op: str, n: int):
    return SymBin(op, X, SymConst(VInt(n)))


def logging_solver(tmp_path, answers: str = "sat") -> ExternalSolver:
    """A fake that logs every line it reads to `log.txt` and answers the
    checks with the verdicts of `answers` in turn, and `(get-model)` with a
    model after ``sat`` and an error otherwise."""
    return fake_solver(tmp_path, f"""
log = open({str(tmp_path / 'log.txt')!r}, "a")
verdicts, verdict = {answers.split()!r}, None
for line in sys.stdin:
    log.write(line)
    log.flush()
    if line.startswith("(check-sat)"):
        verdict = verdicts[0]
        verdicts = verdicts[1:] + verdicts[:1]
        print(verdict, flush=True)
    elif line.startswith("(get-model)"):
        print("((define-fun x () Int 1) (define-fun m () Int 100000)"
              " (define-fun |.mult10000.m| () Int 10))" if verdict == "sat"
              else '(error "model is not available")', flush=True)
""")


def sent(tmp_path) -> list:
    """The lines the logging fake read, one list per check."""
    checks, lines = [], []
    for line in (tmp_path / "log.txt").read_text().splitlines():
        lines.append(line)
        if line == "(get-model)":
            checks.append(lines)
            lines = []
    return checks


def test_a_query_sharing_a_prefix_sends_only_its_difference(tmp_path):
    with logging_solver(tmp_path) as ext:
        sess = SolverSession((SymVar("x", INT),), backend=ext)
        sess.push(x_is(">", 0))
        sess.push(x_is("<", 5))
        assert isinstance(sess.check([x_is("<", 4)]), Sat)
        sess.pop()
        assert isinstance(sess.check([x_is("<", 3)]), Sat)
        assert isinstance(sess.check([x_is("<", 3)]), Sat)
    first, second, third = sent(tmp_path)
    assert first == [
        "(reset)", "(set-option :produce-models true)", "(set-logic ALL)",
        _ROUND_DEF, "(declare-const x Int)",
        "(push 1)", "(assert (> x 0))", "(push 1)", "(assert (< x 5))",
        "(push 1)", "(assert (< x 4))", "(check-sat)", "(get-model)"]
    assert second == ["(pop 2)", "(push 1)", "(assert (< x 3))",
                      "(check-sat)", "(get-model)"]
    assert third == ["(check-sat)", "(get-model)"]
    assert len(pids(tmp_path)) == 1


def test_other_declarations_and_a_new_session_start_from_reset(tmp_path):
    # A session's soft checks share one declaration set, the leaves and the
    # ladder's multipliers: after the first, they only pop, push and assert.
    # Its plain checks declare the leaves alone, so switching resets.
    positive = SymBin(">", SymVar("m", MONEY), SymConst(VMoney(0)))
    answers = "sat sat  sat unsat unsat unsat  sat  sat sat  sat  sat"
    with logging_solver(tmp_path, answers) as ext:
        sess = SolverSession((SymVar("x", INT), SymVar("m", MONEY)), backend=ext)
        sess.push(positive)
        models = [sess.check_soft().model,  # the hard query, then the $100 tier's
                  sess.check_soft([x_is(">", 0)]).model]  # no tier: the hard model
        sess.check()
        models.append(sess.check_soft().model)
        other = SolverSession((SymVar("m", MONEY),), backend=ext)
        other.push(positive)
        other.check()
        ext.check(Query((SymVar("x", INT),), (x_is(">", 0),)))  # no session
    assert models == [{"x": VInt(1), "m": VMoney(100000)}] * 3
    checks = sent(tmp_path)
    assert len(checks) == 11
    resets = [i for i, lines in enumerate(checks) if lines[0] == "(reset)"]
    assert resets == [0, 6, 7, 9, 10]
    for lines in checks[1:6] + checks[8:9]:
        assert lines[-2:] == ["(check-sat)", "(get-model)"]
        assert all(line.startswith(("(pop ", "(push 1)", "(assert ")) for line in lines[:-2])
    assert checks[2][:3] == ["(pop 1)", "(push 1)", "(assert (> x 0))"]
    ladder = [f"(declare-const |.mult{unit}.m| Int)" for unit in (10000, 1000, 100)]
    assert all(decl in checks[0] and decl in checks[7] for decl in ladder)
    assert not any(decl in checks[6] for decl in ladder)


def test_a_soft_exploration_resets_the_solver_once(scripts_dir):
    texts = []

    class Logged(ExternalSolver):
        def _reply(self, deadline, text=""):
            if text:
                texts.append(text)
            return super()._reply(deadline, text)

    with Logged(f"{sys.executable} {scripts_dir / 'smtlib_solve.py'}") as ext:
        suite = explore(load_program("soft_money.dfc"), "Subsidy",
                        ExploreConfig.from_opt_names(("soft",), backend=ext))
    assert suite.complete and len(texts) == suite.stats.solver_calls == 11
    assert [t.startswith("(reset)") for t in texts] == [True] + [False] * 10


def test_the_model_request_after_unsat_is_answered_and_read(tmp_path):
    with logging_solver(tmp_path, "unsat sat unknown sat") as ext:
        sess = SolverSession((SymVar("x", INT),), backend=ext)
        sess.push(x_is(">", 0))
        assert isinstance(sess.check(), Unsat)
        assert sess.check([x_is("<", 2)]).model == {"x": VInt(1)}
        assert isinstance(sess.check([x_is("<", 3)]), Unknown)
        assert sess.check([x_is("<", 4)]).model == {"x": VInt(1)}
    assert len(pids(tmp_path)) == 1


def test_a_reply_that_is_not_a_verdict_fails_at_once(tmp_path):
    body = """
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print('(error "no logic set")', flush=True)
"""
    with fake_solver(tmp_path, body, timeout=30.0) as ext:
        t0 = time.monotonic()
        with pytest.raises(SolverFailure, match="unexpected solver reply"):
            ext.check(q_simple())
        assert time.monotonic() - t0 < 10.0  # not the 30 s timeout


def test_reset_separates_queries_on_one_process(shim):
    zone = EnumT("Zone", (("A", None), ("B", None)))
    first = Query((SymVar("z", zone), SymVar("x", INT)),
                  (SymIsVariant(SymVar("z", zone), "A"),
                   SymBin(">", SymVar("x", INT), SymConst(VInt(2)))))
    # The same enum and the same name `x`, now a rational.
    second = Query((SymVar("z", zone), SymVar("x", RAT)),
                   (SymIsVariant(SymVar("z", zone), "B"),
                    SymBin("=", SymBin("*", SymConst(VInt(2)), SymVar("x", RAT)),
                           SymConst(VInt(1)))))
    a, b = shim.check(first), shim.check(second)
    assert (a.model["z"].variant, a.model["x"]) == ("A", VInt(3))
    assert (b.model["z"].variant, b.model["x"]) == ("B", VRat(Fraction(1, 2)))


def test_shim_answers_a_whole_script_piped_in(scripts_dir):
    p = subprocess.run([sys.executable, str(scripts_dir / "smtlib_solve.py")],
                       input=emit_smtlib(q_simple()), capture_output=True,
                       text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    verdict, model = p.stdout.split("\n", 1)
    assert verdict == "sat"
    assert model_of(model, q_simple()) == {"x": VInt(1)}


def test_shim_answers_unreadable_commands_with_errors_and_goes_on(scripts_dir):
    text = "(declare-const y Foo)\n)\n" + emit_smtlib(q_simple())
    p = subprocess.run([sys.executable, str(scripts_dir / "smtlib_solve.py")],
                       input=text, capture_output=True, text=True, timeout=60)
    assert p.returncode == 0, p.stderr
    lines = p.stdout.split("\n", 3)
    assert lines[0].startswith('(error "') and "unknown sort Foo" in lines[0]
    assert lines[1].startswith('(error "') and "unbalanced parenthesis" in lines[1]
    assert "solver reply" not in lines[1]
    assert lines[2] == "sat"
    assert model_of(lines[3], q_simple()) == {"x": VInt(1)}


def test_shim_answers_an_incomplete_last_command_with_an_error(scripts_dir):
    def answers(text):
        p = subprocess.run([sys.executable, str(scripts_dir / "smtlib_solve.py")],
                           input=text, capture_output=True, text=True, timeout=60)
        assert p.returncode == 0, p.stderr
        return p.stdout.splitlines()

    incomplete = '(error "incomplete command at end of input")'
    script = emit_smtlib(q_simple()).removesuffix("(get-model)\n")
    assert script.endswith("(check-sat)\n")
    assert answers(script + "(get-model") == ["sat", incomplete]
    # An unclosed | swallows the commands after it, which go unanswered.
    assert answers(script + "(declare-const |y Int)\n(check-sat)\n") == ["sat", incomplete]
    # A last atom or comment needs no newline.
    assert answers(script + "; done") == ["sat"]
    assert answers(script + "(reset) (check-sat) sat") == ["sat", "sat"]


def test_shim_refuses_a_model_after_unsat(scripts_dir):
    lit = SymBin(">", SymVar("x", INT), SymConst(VInt(0)))
    text = emit_smtlib(Query((SymVar("x", INT),), (lit, SymNot(lit))))
    p = subprocess.run([sys.executable, str(scripts_dir / "smtlib_solve.py")],
                       input=text, capture_output=True, text=True, timeout=60)
    assert p.stdout.split() == ["unsat", "(error", '"model', "is", "not", 'available")']


class ShimPipe:
    """One shim process, fed commands and read one reply at a time."""

    def __init__(self, scripts_dir):
        self.proc = subprocess.Popen(
            [sys.executable, str(scripts_dir / "smtlib_solve.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        self.out = ""

    def send(self, *commands: str) -> None:
        self.proc.stdin.write("".join(c + "\n" for c in commands).encode())
        self.proc.stdin.flush()

    def reply(self):
        while (got := read_sexpr(self.out)) is None:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            assert ready, "no reply within 60 s"
            chunk = os.read(self.proc.stdout.fileno(), 65536)
            assert chunk, "the shim closed its output"
            self.out += chunk.decode()
        node, end = got
        self.out = self.out[end:]
        return node

    def close(self) -> None:
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


@pytest.fixture(scope="module")
def shim_pipes(scripts_dir):
    pipes = ShimPipe(scripts_dir), ShimPipe(scripts_dir)
    yield pipes
    for pipe in pipes:
        pipe.close()


NO_MODEL = ["error", '"model is not available"']
SHIM_DECLS = ("(declare-datatypes ((Zone 0)) (((A) (B) (C))))", "(declare-const x Int)",
              "(declare-const y Int)", "(declare-const b Bool)", "(declare-const z Zone)")
_shim_terms = st.sampled_from(["x", "y", "(+ x y)", "(- x y)", "(* 2 x)", "(- 3)", "0", "4"])
_shim_atoms = st.one_of(
    st.builds("({} {} {})".format, st.sampled_from(["<", "<=", "=", ">=", ">"]),
              _shim_terms, _shim_terms),
    st.sampled_from(["b", "(not b)", "((_ is A) z)", "((_ is B) z)", "(not ((_ is C) z))",
                     "(frob x)"]))  # the shim cannot translate `frob`
_shim_literals = st.one_of(
    _shim_atoms,
    st.builds("({} {} {})".format, st.sampled_from(["and", "or"]), _shim_atoms, _shim_atoms))
_shim_assert = st.tuples(st.just("assert"), _shim_literals)
SHIM_STEPS = st.lists(st.one_of(  # asserts and checks twice as often as the rest
    _shim_assert, _shim_assert, st.just(("check-sat",)), st.just(("check-sat",)),
    st.tuples(st.just("push"), st.integers(0, 2)),
    st.tuples(st.just("pop"), st.integers(0, 3)), st.just(("get-model",))), max_size=30)


@settings(max_examples=300, deadline=None)
@given(SHIM_STEPS)
@example([("push", 1), ("assert", "b"), ("check-sat",), ("pop", 1),
          ("assert", "(not b)")])  # a level popped after a check, then reasserted
def test_shim_answers_each_check_as_a_fresh_script_would(shim_pipes, steps):
    """Push, pop and assert on one process; each check's verdict and model
    equal those of a fresh script of the assertions then in force."""
    shim, fresh = shim_pipes
    shim.send("(reset)", *SHIM_DECLS)
    levels, model = [[]], NO_MODEL
    for step in [*steps, ("check-sat",)]:
        match step:
            case ("push", n):
                shim.send(f"(push {n})")
                levels += [[] for _ in range(n)]
                model = NO_MODEL
            case ("pop", n) if n >= len(levels):
                shim.send(f"(pop {n})")
                assert shim.reply()[0] == "error"  # and nothing changes
            case ("pop", n):
                shim.send(f"(pop {n})")
                del levels[len(levels) - n:]
                model = NO_MODEL
            case ("assert", literal):
                shim.send(f"(assert {literal})")
                levels[-1].append(literal)
                model = NO_MODEL
            case ("get-model",):
                shim.send("(get-model)")
                assert shim.reply() == model
            case ("check-sat",):
                shim.send("(check-sat)", "(get-model)")
                got = shim.reply(), shim.reply()
                fresh.send("(reset)", *SHIM_DECLS,
                           *(f"(assert {lit})" for level in levels for lit in level),
                           "(check-sat)", "(get-model)")
                assert got == (fresh.reply(), fresh.reply())
                model = got[1]


def test_shim_refuses_an_over_deep_pop_and_recovers_from_an_untranslatable_assert(
        shim_pipes):
    shim, _ = shim_pipes
    x_is_3 = [["define-fun", "x", [], "Int", "3"]]
    shim.send("(reset)", "(declare-const x Int)", "(push 1)", "(assert (> x 2))", "(pop 2)")
    assert shim.reply()[0] == "error"
    shim.send("(check-sat)", "(get-model)")
    assert (shim.reply(), shim.reply()) == ("sat", x_is_3)
    shim.send("(push 1)", "(assert (frob x))", "(check-sat)", "(get-model)")
    assert (shim.reply(), shim.reply()) == ("unknown", NO_MODEL)
    shim.send("(pop 1)", "(check-sat)", "(get-model)")
    assert (shim.reply(), shim.reply()) == ("sat", x_is_3)


def test_emit_smtlib_is_the_script_plus_check_and_model():
    script = emit_smtlib(q_simple())
    assert script.endswith("(assert (> x 0))\n(check-sat)\n(get-model)\n")
    assert script.count("(check-sat)") == script.count("(get-model)") == 1


# -- external models are checked ------------------------------------------------


SAT_WITH_BAD_MODEL = """
for line in sys.stdin:
    if line.startswith("(check-sat)"):
        print("sat", flush=True)
    elif line.startswith("(get-model)"):
        print("((define-fun x () Int (- 5)))", flush=True)
"""


def test_external_model_violating_the_query_is_a_failure(tmp_path):
    with fake_solver(tmp_path, SAT_WITH_BAD_MODEL) as ext:
        sess = SolverSession((SymVar("x", INT),), backend=ext)
        lit = SymBin(">", SymVar("x", INT), SymConst(VInt(0)))
        with pytest.raises(SolverFailure, match="violating"):
            sess.check([lit])


def test_explore_counts_violating_external_models(tmp_path, fig5):
    with fake_solver(tmp_path, SAT_WITH_BAD_MODEL) as ext:
        suite = explore(fig5, "Main", ExploreConfig(backend=ext))
    assert not suite.complete
    s = suite.stats
    assert s.solver_failures > 0
    assert s.solver_calls == s.sat + s.unsat + s.unknown + s.solver_failures


# -- differential: the shim backend reproduces the builtin suites ---------------


# (program, scope, `--initial` hints).  The hinted fig5 run's first flip,
# `!b`, does not mention `x`, so its model must keep the hint `x = 3`.
BUNDLED = (("fig5.dfc", "Main", {}), ("income_tax.dfc", "IncomeTax", {}),
           ("geo_match.dfc", "Housing", {}), ("trivial_just.dfc", "Fees", {}),
           ("soft_money.dfc", "Subsidy", {}), ("benefits_medium.dfc", "Benefits", {}),
           ("fig5.dfc", "Main", {"b": VBool(True), "x": VInt(3)}))


def emitted(suite, directory) -> dict:
    emit_suite(suite, str(directory))
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("opts", [(), ("soft",), OPT_NAMES],
                         ids=["none", "soft", "all"])
def test_shim_suites_equal_builtin_suites(shim, opts, tmp_path):
    for i, (name, scope, initial) in enumerate(BUNDLED):
        prog = load_program(name)
        want = explore(prog, scope, ExploreConfig.from_opt_names(opts, initial=initial))
        got = explore(prog, scope, ExploreConfig.from_opt_names(
            opts, initial=initial, backend=shim))
        assert got.complete, name
        assert (emitted(got, tmp_path / f"{i}.shim")
                == emitted(want, tmp_path / f"{i}.builtin")), (name, initial)
