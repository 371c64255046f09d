#!/usr/bin/env python3
"""The benchmark's own tests, on reduced workload sizes (about 15 s):

    python3 bench/test_bench.py -v

Runs every workload once untraced and once traced, printing every metric
of BENCHMARK.json with its unit, and checks that the oracle catches a
corrupted testcase and a missing outcome class, and that a traced name
missing from the engine is reported as absent.  One test pins a known
engine defect that shapes the regulation-mix workload.
"""

from __future__ import annotations

import json
import shutil
import sys
import types
import unittest
from pathlib import Path

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _quick(workload: str, seed: int = 1) -> run.Bench:
    bench = run.Bench(workload, seed, "quick")
    bench.set_up(1)
    return bench


class EveryMetric(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.WORKLOADS))
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    bench = _quick(workload)
                    try:
                        result = bench.measure(0, trace)
                    finally:
                        bench.close()
                    run.print_table(bench, result, sys.stdout)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for m in result["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class Oracle(unittest.TestCase):
    def test_flipped_outcome_fails_the_job(self):
        bench = _quick("regulation-mix")
        emit = bench.engine.testkit.emit_suite

        def corrupt(suite, directory):
            files = emit(suite, directory)
            if suite.scope == bench.jobs[0].scope:
                path = Path(files[0])
                data = json.loads(path.read_text())
                kind = data["outcome"]["kind"]
                data["outcome"] = {"kind": "empty" if kind == "conflict" else "conflict"}
                path.write_text(json.dumps(data))
            return files

        bench.engine.testkit.emit_suite = corrupt
        try:
            result = bench.measure(0, False)
        finally:
            bench.engine.testkit.emit_suite = emit
            bench.close()
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertGreater(result["failed"] / result["attempted"], 0)
        self.assertTrue(any("reference evaluator" in f for f in bench.jobs[0].failures))

    def test_missing_outcome_class_is_caught(self):
        bench = _quick("regulation-mix")
        try:
            job = next(j for j in bench.jobs if j.scope == "Rand")
            suite = bench.engine.explorer.explore(job.program, job.scope)
            out = bench.workdir / "classes"
            files = bench.engine.testkit.emit_suite(suite, str(out))
            self.assertEqual(run.oracle.check_suite(job.program, job.scope, files), [])
            kinds = {}
            for f in files[:-1]:
                kinds.setdefault(json.loads(Path(f).read_text())["outcome"]["kind"], []).append(f)
            dropped = min(kinds, key=lambda k: len(kinds[k]))
            kept = [f for f in files if f not in kinds[dropped]]
            problems = run.oracle.check_suite(job.program, job.scope, kept)
            self.assertTrue(any("brute force" in p for p in problems), problems)
        finally:
            shutil.rmtree(bench.workdir / "classes", ignore_errors=True)
            bench.close()


class KnownDefect(unittest.TestCase):
    # A random scope on which the early-error option revisits the same
    # paths until the iteration budget runs out.  It is why the random
    # scopes of regulation-mix run `all` without early-error; when this
    # test fails because exploration completes, early-error can go back
    # into that workload.
    CYCLING_SCOPE = """
enum Kind { A, B, C, D }
scope Rand {
  input p0: bool;
  input k: Kind;
  input n: int;
  assert n >= -8;
  assert n <= 8;
  def v0: int = (default <rule ((k = Kind::A) :- n), rule (((n - n) = n) :-
    (if p0 then (default <rule ((k = Kind::D) :- n), rule (p0 :- n)>
    ((n = (-1)) :- n)) else (-1)))> (((false && true) || true) :-
    (if false then (n - n) else (3 + n))));
  output v0;
}
"""

    def test_early_error_exploration_cycles(self):
        bench = _quick("brackets")
        bench.close()
        parser, explorer = bench.engine.parser, bench.engine.explorer
        program = parser.parse_or_raise(self.CYCLING_SCOPE)
        for opts, complete in (([], True), (["early-error"], False)):
            config = explorer.ExploreConfig.from_opt_names(opts, max_iters=300)
            suite = explorer.explore(program, "Rand", config)
            self.assertEqual(suite.complete, complete, opts)


class Tracer(unittest.TestCase):
    def test_removed_name_is_reported_absent(self):
        bench = _quick("brackets")
        solver = bench.engine.solver
        linear, branch = solver._solve_linear, solver._solve_branch
        # Stand-in for a change that renames `_solve_linear`: the caller
        # keeps working through its own globals while the name is gone.
        solver._solve_branch = types.FunctionType(
            branch.__code__, dict(vars(solver), _solve_linear=linear),
            branch.__name__, branch.__defaults__, branch.__closure__)
        del solver._solve_linear
        try:
            result = bench.measure(0, True)
        finally:
            solver._solve_linear, solver._solve_branch = linear, branch
            bench.close()
        self.assertEqual(bench.tracer.absent, ["solver._solve_linear"])
        self.assertTrue(result["correct"])
        self.assertNotIn("solver.linear_s", result["metrics"])
        self.assertNotIn("solver.linear_calls", result["metrics"])
        self.assertIn("solver.branches", result["metrics"])


class Gauge(unittest.TestCase):
    def test_scale_uses_the_references_around_the_interval(self):
        gauge = run.hostspeed.Gauge(".")
        gauge.at, gauge.took, gauge.wrote = [1.0, 2.0, 3.0], [0.01, 0.03, 0.05], [0.004] * 3
        nominal, nominal_write = run.hostspeed.NOMINAL_S, run.hostspeed.NOMINAL_WRITE_S
        # Between the references ending at 1.0 and 2.0, which average 0.02.
        self.assertAlmostEqual(gauge.scale(1.2, 1.8, 0.6), 0.6 * nominal / 0.02)
        self.assertAlmostEqual(gauge.scale(1.2, 1.8, 0.6, write=True),
                               0.6 * nominal_write / 0.004)
        # After the last reference only that one applies.
        self.assertAlmostEqual(gauge.scale(3.5, 3.6, 0.1), 0.1 * nominal / 0.05)


if __name__ == "__main__":
    unittest.main()
