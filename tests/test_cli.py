import json
import os
import shlex
import subprocess
import sys

import pytest

from defcalc.cli import main


def run_cli(args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("DEFCALC_SOLVER", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "defcalc.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd,
    )
    return proc


def test_readme_run_example_prints_what_the_readme_shows(programs_dir):
    root = programs_dir.parent
    lines = (root / "README.md").read_text().splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("    defcalc run ") and "--stats" in l)
    shown = []
    for line in lines[start + 2:]:  # the block after the command's blank line
        if not line.startswith("    "):
            break
        shown.append(line[4:])
    p = run_cli(shlex.split(lines[start])[1:], cwd=root)
    assert p.returncode == 0, p.stderr
    assert shown and p.stdout.splitlines() == shown


def test_run_fig5_prints_five_tests(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--opts", "none", "--initial", "b=true", "x=3",
                 "--stats", "--quiet"])
    assert p.returncode == 0, p.stderr
    lines = [l for l in p.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 5
    assert "solver_calls=" in p.stdout


def test_progress_lines_on_stderr(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--initial", "b=true", "x=3"])
    assert p.returncode == 0
    progress = [l for l in p.stderr.splitlines() if l.startswith("iter=")]
    assert len(progress) == 5
    assert progress[0].startswith("iter=1 sat depth=2 tests=")


def test_stats_line_matches_manifest(income_tax, programs_dir, tmp_path):
    out = tmp_path / "suite"
    p = run_cli(["run", str(programs_dir / "income_tax.dfc"),
                 "--scope", "IncomeTax", "--opts", "all",
                 "--emit-tests", str(out), "--stats", "--quiet"])
    assert p.returncode == 0, p.stderr
    stats_line = [l for l in p.stdout.splitlines() if l.startswith("solver_calls=")][0]
    parts = dict(kv.split("=") for kv in stats_line.split())
    manifest = json.loads((out / "suite.json").read_text())
    assert int(parts["solver_calls"]) == manifest["stats"]["solver_calls"]
    assert int(parts["tests"]) == manifest["stats"]["tests"]
    assert int(parts["conflicts"]) == manifest["stats"]["conflicts"]
    assert int(parts["empties"]) == manifest["stats"]["empties"]
    assert int(parts["solver_calls"]) == sum(
        int(parts[k]) for k in ("sat", "unsat", "unknown", "solver_failures"))
    files = [f for f in os.listdir(out) if f.startswith("tc")]
    assert len(files) == 4


def _files(directory):
    return {f.name: f.read_bytes() for f in sorted(directory.iterdir())}


def test_no_incremental_prints_and_emits_the_same(programs_dir, tmp_path):
    runs = []
    for extra in ([], ["--no-incremental"]):
        out = tmp_path / f"suite{len(runs)}"
        p = run_cli(["run", str(programs_dir / "income_tax.dfc"), "--scope", "IncomeTax",
                     "--opts", "all", "--stats", "--quiet", "--emit-tests", str(out), *extra])
        assert p.returncode == 0, p.stderr
        runs.append((p.stdout, _files(out)))
    assert runs[0][1] and runs[0] == runs[1]


def test_soft_flag_is_opts_soft(programs_dir):
    args = ["run", str(programs_dir / "soft_money.dfc"), "--scope", "Subsidy",
            "--stats", "--quiet"]
    flag, opt, hard = (run_cli(args + extra) for extra in (["--soft"], ["--opts", "soft"], []))
    assert flag.returncode == opt.returncode == hard.returncode == 0, flag.stderr
    assert flag.stdout == opt.stdout != hard.stdout


def test_stats_line_counts_solver_failures(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--solver", "smtlib:false", "--stats", "--quiet"])
    assert p.returncode == 2, p.stderr
    stats_line = [l for l in p.stdout.splitlines() if l.startswith("solver_calls=")][0]
    parts = dict(kv.split("=") for kv in stats_line.split())
    assert parts["solver_calls"] == parts["solver_failures"] == "2"
    assert parts["unknown"] == "0"


def test_replay_subcommand(programs_dir, tmp_path):
    out = tmp_path / "suite"
    run_cli(["run", str(programs_dir / "income_tax.dfc"), "--scope", "IncomeTax",
             "--emit-tests", str(out), "--quiet"])
    p = run_cli(["replay", str(programs_dir / "income_tax.dfc"),
                 "--tests", str(out)])
    assert p.returncode == 0
    assert "4/4 pass" in p.stdout


def test_replay_missing_tests_dir_is_usage_error(programs_dir, tmp_path):
    missing = tmp_path / "missing"
    p = run_cli(["replay", str(programs_dir / "income_tax.dfc"),
                 "--tests", str(missing)])
    assert p.returncode == 1
    assert p.stderr.startswith(f"error: cannot read {missing}: ")
    assert "Traceback" not in p.stderr


@pytest.mark.parametrize("kind, reason", [
    ("bad-json", "JSONDecodeError: "),
    ("unknown-scope", "KeyError: 'no scope Nope'"),
    ("missing-inputs", "ValueError: scope IncomeTax: missing inputs ['nb_children']"),
], ids=["bad-json", "unknown-scope", "missing-inputs"])
def test_replay_reports_a_bad_testcase_file_as_a_failure(programs_dir, tmp_path,
                                                         kind, reason):
    out = tmp_path / "suite"
    run_cli(["run", str(programs_dir / "income_tax.dfc"), "--scope", "IncomeTax",
             "--emit-tests", str(out), "--quiet"])
    bad = out / "tc0002.json"
    data = json.loads(bad.read_text())
    if kind == "bad-json":
        bad.write_text("{not json")
    elif kind == "unknown-scope":
        bad.write_text(json.dumps(dict(data, scope="Nope")))
    else:
        del data["inputs"]["nb_children"]
        bad.write_text(json.dumps(data))
    p = run_cli(["replay", str(programs_dir / "income_tax.dfc"), "--tests", str(out)])
    assert p.returncode == 1
    assert "Traceback" not in p.stderr
    fails = [l for l in p.stdout.splitlines() if "FAIL" in l]
    assert len(fails) == 1 and fails[0].startswith(f"tc0002.json: FAIL {reason}")
    assert "3/4 pass" in p.stdout


def test_emit_smtlib_writes_query_files(programs_dir, tmp_path):
    out = tmp_path / "q"
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--initial", "b=true", "x=3", "--emit-smtlib", str(out),
                 "--quiet"])
    assert p.returncode == 0
    files = sorted(os.listdir(out))
    assert files[0] == "q000000.smt2"
    assert len(files) == 4
    text = (out / files[0]).read_text()
    assert "(check-sat)" in text


def test_emit_smtlib_removes_an_earlier_runs_queries(programs_dir, tmp_path):
    out = tmp_path / "q"
    out.mkdir()
    for name in ("q000004.smt2", "q1234567.smt2", "q12.smt2", "notes.smt2", "q000009.txt"):
        (out / name).write_text("")
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--initial", "b=true", "x=3", "--emit-smtlib", str(out),
                 "--quiet"])
    assert p.returncode == 0, p.stderr
    assert sorted(os.listdir(out)) == [
        "notes.smt2", "q000000.smt2", "q000001.smt2", "q000002.smt2",
        "q000003.smt2", "q000009.txt", "q12.smt2"]
    assert (out / "q000000.smt2").read_text().startswith(
        "(set-option :produce-models true)\n(set-logic ALL)\n")


@pytest.mark.parametrize("args", [
    ["run", "fig5.dfc", "--scope", "Main", "--quiet", "--emit-tests"],
    ["run", "fig5.dfc", "--scope", "Main", "--quiet", "--emit-smtlib"],
    ["mutate", "fig5.dfc", "--count", "2", "--out"],
])
def test_output_path_that_is_a_file_is_usage_error(args, programs_dir, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    p = run_cli([str(programs_dir / a) if a.endswith(".dfc") else a for a in args]
                + [str(taken)])
    assert p.returncode == 1
    assert p.stderr.startswith(f"error: cannot write {taken}: ")
    assert "Traceback" not in p.stderr and p.stdout == ""


@pytest.mark.parametrize("args, message", [
    (["run", "--max-iters", "-1"], "--max-iters must be positive, got -1"),
    (["run", "--max-iters", "0"], "--max-iters must be positive, got 0"),
    (["run", "--timeout", "-1"], "--timeout must be positive, got -1.0"),
    (["run", "--timeout", "0"], "--timeout must be positive, got 0.0"),
    (["mutate", "--count", "-2"], "--count must be positive, got -2"),
    (["mutate", "--count", "0"], "--count must be positive, got 0"),
    (["campaign", "--count", "-1"], "--count must be positive, got -1"),
])
def test_nonpositive_bound_or_count_is_usage_error(args, message, programs_dir, tmp_path):
    out = tmp_path / "mutants"
    extra = {"run": ["--scope", "Main", "--quiet"], "mutate": ["--out", str(out)],
             "campaign": []}[args[0]]
    p = run_cli([args[0], str(programs_dir / "fig5.dfc"), *args[1:], *extra])
    assert (p.returncode, p.stderr, p.stdout) == (1, f"error: {message}\n", "")
    assert not out.exists()


def test_unknown_opt_is_usage_error(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--opts", "warp-speed"])
    assert p.returncode == 1
    assert "unknown" in p.stderr.lower()


def test_unknown_scope_is_usage_error(programs_dir):
    path = programs_dir / "fig5.dfc"
    p = run_cli(["run", str(path), "--scope", "Nope", "--quiet"])
    assert p.returncode == 1
    assert p.stderr == f"error: no scope Nope in {path}\n"


def test_empty_smtlib_command_is_usage_error(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--solver", "smtlib:", "--quiet"])
    assert p.returncode == 1
    assert p.stderr == "error: empty solver command\n"


def test_budget_truncation_exit_code(programs_dir):
    p = run_cli(["run", str(programs_dir / "benefits_medium.dfc"),
                 "--scope", "Benefits", "--max-iters", "3", "--quiet"])
    assert p.returncode == 2


def test_conflict_findings_do_not_fail_exit_code(programs_dir):
    p = run_cli(["run", str(programs_dir / "income_tax.dfc"),
                 "--scope", "IncomeTax", "--quiet"])
    assert p.returncode == 0
    assert "conflict" in p.stdout


def test_env_var_overrides_solver(programs_dir, scripts_dir):
    shim = f"smtlib:{sys.executable} {scripts_dir / 'smtlib_solve.py'}"
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--solver", "builtin", "--quiet"],
                env_extra={"DEFCALC_SOLVER": shim})
    assert p.returncode == 0
    lines = [l for l in p.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 5


def test_mutate_subcommand_writes_valid_programs(programs_dir, tmp_path):
    out = tmp_path / "mutants"
    p = run_cli(["mutate", str(programs_dir / "benefits_medium.dfc"),
                 "--count", "3", "--ops", "remove,duplicate,negate",
                 "--seed", "1", "--out", str(out)])
    assert p.returncode == 0, p.stderr
    files = [f for f in os.listdir(out) if f.endswith(".dfc")]
    assert len(files) == 3
    from defcalc.parser import parse_or_raise
    from defcalc.lang import validate
    for f in files:
        prog = parse_or_raise((out / f).read_text())
        assert validate(prog) == []


def test_mutate_with_no_ops_is_usage_error(programs_dir, tmp_path):
    for ops in ("", " , "):
        p = run_cli(["mutate", str(programs_dir / "fig5.dfc"), "--ops", ops,
                     "--count", "2", "--out", str(tmp_path / "mutants")])
        assert p.returncode == 1
        assert p.stderr == "error: --ops names no mutation op\n"


def test_mutate_op_with_no_eligible_term_is_usage_error(tmp_path):
    # The one default term has no exception, so `remove` has nothing to
    # remove: no file is written, not even the `negate` mutant.
    src = tmp_path / "one.dfc"
    src.write_text("scope S { input x: int; def y: int = default <> (x > 0 :- 1); "
                   "output y; }")
    out = tmp_path / "mutants"
    p = run_cli(["mutate", str(src), "--count", "2", "--ops", "negate,remove",
                 "--out", str(out)])
    assert p.returncode == 1
    assert p.stderr == "error: no default term eligible for remove\n"
    assert p.stdout == "" and not out.exists()


def test_campaign_subcommand(programs_dir):
    p = run_cli(["campaign", str(programs_dir / "benefits_medium.dfc"),
                 "--count", "3", "--seed", "2"])
    assert p.returncode == 0, p.stderr
    assert "found 3/3" in p.stdout


def test_opts_none_and_all_cover_same_outcome_classes(programs_dir):
    for name, scope in (("fig5.dfc", "Main"), ("geo_match.dfc", "Housing"),
                        ("trivial_just.dfc", "Fees")):
        outs = {}
        for opts in ("none", "all"):
            p = run_cli(["run", str(programs_dir / name), "--scope", scope,
                         "--opts", opts, "--quiet"])
            assert p.returncode == 0, p.stderr
            kinds = set()
            for line in p.stdout.splitlines():
                if not line.startswith("["):
                    continue
                _, _, result = line.partition(" -> ")
                if result in ("conflict", "empty"):
                    kinds.add(result)
                else:
                    kinds.add("value")
            outs[opts] = kinds
        assert outs["none"] == outs["all"], name


def test_main_callable_directly(programs_dir, capsys):
    code = main(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--quiet"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("\n[") >= 4 or out.startswith("[")


def test_run_with_struct_and_enum_inputs(tmp_path):
    src = tmp_path / "composite.dfc"
    src.write_text("""
enum Opt { NoUnit, SomeUnit(int) }
struct House { income: money, kids: int }
scope S {
  input h: House;
  input o: Opt;
  def bonus: int = match o { NoUnit => 0, SomeUnit n => n + 1 };
  def big: bool = h.income > $100.00;
  def out: int = if big then bonus + h.kids else bonus;
  output out;
}
""")
    p = run_cli(["run", str(src), "--scope", "S", "--quiet", "--stats"])
    assert p.returncode == 0, p.stderr
    assert "House {" in p.stdout and "Opt::" in p.stdout


def test_run_rejects_invalid_program(tmp_path):
    src = tmp_path / "bad.dfc"
    src.write_text("scope S { def y: int = z; output y; }")
    p = run_cli(["run", str(src), "--scope", "S", "--quiet"])
    assert p.returncode == 1
    assert "unbound" in p.stderr


@pytest.mark.parametrize("decl,message", [
    ("enum E { }", "1:1: enum E has no variants"),
    ("enum E { A, A }", "1:1: enum E has duplicate variants"),
    ("struct T { a: int, a: int }", "1:1: struct T has duplicate fields"),
])
def test_invalid_declaration_is_an_error_not_a_traceback(tmp_path, decl, message):
    src = tmp_path / "bad.dfc"
    src.write_text(decl + "\nscope S { input x: int; output x; }\n")
    p = run_cli(["run", str(src), "--scope", "S", "--quiet"])
    assert (p.returncode, p.stderr) == (1, f"error: {src}:{message}\n")


def test_rational_pick_without_integer_completion_is_decided(tmp_path):
    # r = 1/10, n = 1 reaches out = 1.  The solver fixes r first at the
    # midpoint of its window [1/10, 4/5], where no integer n fits, and then
    # searches the same rows again with n first, which finds n = 1.
    src = tmp_path / "pick.dfc"
    src.write_text("scope S { input r: rate; input n: int; assert n >= 1; assert n <= 8;"
                   " def out: int = if r = n / 10 then 1 else 0; output out; }\n")
    p = run_cli(["run", str(src), "--scope", "S", "--stats"])
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines()[:2] == ["[1] r = 0/1, n = 1 -> out = 0",
                                         "[2] r = 1/10, n = 1 -> out = 1"]
    assert " unknown=0 " in p.stdout and "incomplete" not in p.stderr
    suite = tmp_path / "suite"
    assert main(["run", str(src), "--scope", "S", "--quiet", "--emit-tests", str(suite)]) == 0
    manifest = json.loads((suite / "suite.json").read_text())
    assert (manifest["complete"], manifest["stats"]["unknown"]) == (True, 0)


def test_branch_with_no_symbolic_form_is_named_and_never_flipped(tmp_path):
    # An equality of enums that carry payloads has no symbolic form, so
    # out = 1 cannot be reached: the run says where, and asks no solver.
    src = tmp_path / "zone.dfc"
    src.write_text("enum Zone { Mainland, Overseas(int) }\n"
                   "scope S { input z: Zone;\n"
                   "  def out: int = if z = Zone::Overseas(3) then 1 else 0; output out; }\n")
    p = run_cli(["run", str(src), "--scope", "S", "--stats"])
    assert p.returncode == 2, p.stderr
    assert p.stdout.splitlines() == [
        "[1] z = Zone::Mainland -> out = 0",
        "solver_calls=0 sat=0 unsat=0 unknown=0 solver_failures=0 tests=1 conflicts=0 empties=0"]
    assert p.stderr.splitlines()[-1] == (
        f"exploration incomplete: {src}:3:18: a branch with no symbolic form:"
        " its other side is never tried")


@pytest.mark.parametrize("args,reason", [
    (["--max-iters", "1"], "iteration limit of 1 reached"),
    # `true` exits at once: its output closes, or a write to it fails.
    (["--solver", "smtlib:true"], "external solver failed: "),
])
def test_incomplete_run_names_its_reason(programs_dir, args, reason):
    p = run_cli(["run", str(programs_dir / "income_tax.dfc"), "--scope", "IncomeTax", *args])
    assert p.returncode == 2, p.stderr
    assert p.stderr.splitlines()[-1].startswith(f"exploration incomplete: {reason}")


def test_initial_hint_type_mismatch_is_usage_error(programs_dir):
    p = run_cli(["run", str(programs_dir / "fig5.dfc"), "--scope", "Main",
                 "--initial", "x=true", "--quiet"])
    assert p.returncode == 1
    assert "type" in p.stderr


@pytest.mark.parametrize("value", [
    "Zone::Overseas",  # missing payload
    "Zone::Overseas($1.00)",  # payload of the wrong type
    "Zone::Mainland(3)",  # payload on a variant that carries none
])
def test_initial_hint_enum_payload_must_match_its_variant(tmp_path, value):
    src = tmp_path / "zone.dfc"
    src.write_text("enum Zone { Mainland, Overseas(int) }\n"
                   "scope S { input z: Zone;"
                   " def y: int = match z { Mainland => 0, Overseas n => n }; output y; }\n")
    p = run_cli(["run", str(src), "--scope", "S", "--initial", f"z={value}", "--quiet"])
    assert (p.returncode, p.stderr) == (1, f"error: input z has type Zone, got {value!r}\n")
