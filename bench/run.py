#!/usr/bin/env python3
"""The `explore` benchmark: job latency end to end, per-layer spans traced.

    python3 bench/run.py --workload regulation-mix --seed 1 --seconds 25 --trace 0

A job is `explorer.explore` on one parsed scope followed by
`testkit.emit_suite` into a fresh directory.  A run first sets the workload
up (import the engine, generate every program from the seed, then
`parser.parse_or_raise` and `lang.validate` each one), then cycles through
the workload's jobs in one process and one thread until `--seconds` have
passed and every job has run at least once.  Between jobs it times the
two fixed references of `hostspeed.py`, a computation and a small suite
write, and every time it reports is scaled to the speed at which the host
ran them at that moment: the rest of a shared host slows this process, CPU
time included, by up to twofold for minutes at a time.  A job's latency is
the median of its scaled runs; `wall_s` sums them over the jobs, and
`job_s.p50` and `job_s.p90` are quantiles over the distinct jobs.

Every job's first suite goes through the correctness oracle (`oracle.py`);
every later run of the job must reproduce its exact counters and the sha256
of its emitted bytes.  A job fails when it raises, when its suite is
incomplete or has an Unknown or a solver failure, when the oracle rejects
it, or when a repeat differs.

With `--trace 0` the last output line carries the end-to-end metrics; with
`--trace 1` every job also runs a second time with the tracing wrappers of
`spans.py` installed, and the line carries the per-layer metrics, the
tracing overhead and the check that self times account for each job's
root span.  A table of every metric with its unit goes to stderr, and the
per-job record (counters, digests, latencies, failures) to
`bench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import shlex
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENGINE_MODULES = ("parser", "lang", "interp", "concolic", "solver", "smtlib",
                  "explorer", "transforms", "testkit")
SETUP_REPEATS = 9
COUNTERS = ("iterations", "tests", "checks", "sat", "unsat", "unknown",
            "pushes", "pops")
TRACED_COUNTERS = {"solver.branches": "solver._solve_branch",
                   "solver.linearize_calls": "solver.linearize"}

# Per-layer metrics summed from the traced spans: self seconds of the named
# spans, their call counts, and the values recorded from their results.
# Every span a job can open is named in LAYER_TIMES.
LAYER_TIMES = {
    "parser.parse_s": ("parser.parse_or_raise",),
    "lang.validate_s": ("lang.validate",),
    "transforms.s": ("transforms.simplify_frontend", "transforms.fold_program",
                     "transforms.reorder_program"),
    "concolic.s": ("concolic.run_scope_concolic",),
    "explorer.self_s": ("explorer.explore",),
    "explorer.frontier_s": ("explorer.Frontier.reconcile", "explorer.Frontier.next_target",
                            "explorer.Frontier.flip", "explorer.filter_trivial"),
    "explorer.fingerprint_s": ("explorer.path_fingerprint",),
    "solver.check_s": ("solver.SolverSession.check", "solver.SolverSession.check_soft"),
    "solver.simplify_s": ("solver.simplify",),
    "solver.linearize_s": ("solver.linearize",),
    "solver.branch_s": ("solver._solve_branch",),
    "solver.linear_s": ("solver._solve_linear",),
    "solver.model_check_s": ("solver._assert_model",),
    "smtlib.emit_s": ("smtlib.emit_smtlib",),
    "smtlib.external_wait_s": ("smtlib.ExternalSolver.check",),
    "smtlib.parse_s": ("smtlib.parse_model",),
    "testkit.emit_s": ("testkit.emit_suite",),
    "bench.job_self_s": ("job",),
}
LAYER_CALLS = {
    "concolic.runs": "concolic.run_scope_concolic",
    "solver.simplify_calls": "solver.simplify",
    "solver.linearize_calls": "solver.linearize",
    "solver.branches": "solver._solve_branch",
    "solver.linear_calls": "solver._solve_linear",
    "smtlib.external_calls": "smtlib.ExternalSolver.check",
}
LAYER_VALUES = {
    "transforms.rewrites": ("transforms.simplify_frontend", "transforms.fold_program",
                            "transforms.reorder_program"),
    "concolic.records": ("concolic.run_scope_concolic",),
    "testkit.files": ("testkit.emit_suite",),
}


def _p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _digest(files: list) -> str:
    h = hashlib.sha256()
    for path in files:
        h.update(Path(path).name.encode() + b"\0")
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Job:
    """A job's record across its runs in one invocation."""

    def __init__(self, spec, program, scope: str):
        self.spec = spec
        self.program = program
        self.scope = scope
        self.untraced: list = []  # (start, end of explore, end) of each untraced run
        self.traced: list = []  # and of each traced run
        self.traced_totals: list = []  # per traced run: span name -> totals
        self.traced_root_s: list = []
        self.counters = None  # from the first run, traced counters added later
        self.digest = None
        self.failures: list = []
        self.runs = 0
        self.failed_runs = 0


class Bench:
    def __init__(self, workload: str, seed: int, size: str = "full"):
        if workload not in workloads.WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.size = size
        self.engine = None
        self.jobs: list = []
        self.setup: list = []  # (start, end) of each set-up
        self.tracer = spans.Tracer()
        self.oracle: list = []  # (start, end) of each oracle check
        self.setup_totals: dict = {}
        self.setup_traced = None  # (start, end) of the traced set-up
        work_root = BENCH_DIR / ".work"
        work_root.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(dir=work_root))
        self.gauge = hostspeed.Gauge(self.workdir)
        self._emits = 0
        self._trace = False
        self._roots: dict = {}  # root span id -> label
        src = str(ROOT / "src")
        if src not in sys.path:
            sys.path.insert(0, src)

    def close(self) -> None:
        self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- set-up -------------------------------------------------------------

    def _import_engine(self):
        for name in [n for n in sys.modules if n == "defcalc" or n.startswith("defcalc.")]:
            del sys.modules[name]
        mods = {m: importlib.import_module(f"defcalc.{m}") for m in ENGINE_MODULES}
        return types.SimpleNamespace(**mods)

    def _build(self, engine) -> list:
        sources, specs = workloads.build(self.workload, self.seed,
                                         ROOT / "programs", self.size)
        programs = {}
        for src in sources:
            program = engine.parser.parse_or_raise(src.text, src.name)
            errors = engine.lang.validate(program)
            if errors:
                raise ValueError(f"{src.name} does not validate: {errors[0].message}")
            programs[src.name] = (program, src.scope)
        return [Job(spec, *programs[spec.source]) for spec in specs]

    def set_up(self, repeats: int = SETUP_REPEATS) -> None:
        """Import the engine afresh and build the workload `repeats` times,
        timing each; the last build is the one the jobs run on."""
        self.gauge.sample()
        for _ in range(repeats):
            t0 = time.perf_counter()
            engine = self._import_engine()
            jobs = self._build(engine)
            self.setup.append((t0, time.perf_counter()))
            self.gauge.sample()
        self.engine, self.jobs = engine, jobs
        self._backend = None
        if any(j.spec.external for j in jobs):
            shim = ROOT / "scripts" / "smtlib_solve.py"
            if not shim.is_file():
                raise FileNotFoundError(shim)
            self._backend = engine.smtlib.ExternalSolver(
                f"{shlex.quote(sys.executable)} {shlex.quote(str(shim))}")

    def trace_set_up(self) -> None:
        """Build the workload once more with the wrappers installed, for the
        parse and validate shares of set-up."""
        self.gauge.sample()
        self.tracer.install()
        t0 = time.perf_counter()
        self.tracer.begin(self._root("setup"), "setup")
        try:
            self._build(self.engine)
        finally:
            _, self.setup_totals = self.tracer.end()
            self.setup_traced = (t0, time.perf_counter())
            self.tracer.uninstall()
        self.gauge.sample()

    def _root(self, label: str) -> int:
        root = len(self._roots) + 1
        self._roots[root] = label
        return root

    # -- jobs ---------------------------------------------------------------

    def _config(self, spec):
        explorer = self.engine.explorer
        names = explorer.OPT_NAMES if spec.opts == ("all",) else spec.opts
        names = [n for n in names if n not in spec.exclude]
        return explorer.ExploreConfig.from_opt_names(
            names, backend=self._backend if spec.external else None)

    def run_job(self, job: Job, traced: bool) -> None:
        """One run of a job: explore, emit, then the correctness checks."""
        job.runs += 1
        self._emits += 1
        out = self.workdir / f"e{self._emits}"
        config = self._config(job.spec)
        failures = []
        tracer = self.tracer
        try:
            if traced:
                tracer.install()
                tracer.begin(self._root(job.spec.name), "job",
                             keep_spans=not job.traced)
            try:
                t0 = time.perf_counter()
                suite = self.engine.explorer.explore(job.program, job.scope, config)
                t1 = time.perf_counter()
                files = self.engine.testkit.emit_suite(suite, str(out))
                t2 = time.perf_counter()
            finally:
                if traced:
                    root_s, totals = tracer.end()
                    tracer.uninstall()
            failures += self._check(job, suite, files, traced,
                                    totals if traced else None)
            (job.traced if traced else job.untraced).append((t0, t1, t2))
            if traced:
                job.traced_totals.append(totals)
                job.traced_root_s.append(root_s)
        except Exception:
            failures.append(traceback.format_exc())
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if failures:
            job.failed_runs += 1
            job.failures += failures
            for f in failures:
                print(f"FAIL {self.workload} {job.spec.name}: {f}", file=sys.stderr)

    def _check(self, job: Job, suite, files: list, traced: bool, totals) -> list:
        s = suite.stats
        problems = []
        if not suite.complete:
            problems.append("suite incomplete")
        if s.unknown or s.solver_failures:
            problems.append(f"{s.unknown} unknown, {s.solver_failures} solver failures")
        counters = dict(zip(COUNTERS, (s.iterations, s.tests, s.solver_calls, s.sat,
                                       s.unsat, s.unknown, s.pushes, s.pops)))
        if traced:
            for name, span in TRACED_COUNTERS.items():
                if span not in self.tracer.absent:
                    counters[name] = totals.get(span, [0])[0]
        digest = _digest(files)
        if job.digest is None or digest != job.digest:
            problems += self._oracle(job, files)
        if job.digest is None:
            job.digest, job.counters = digest, counters
            return problems
        if digest != job.digest:
            problems.append(f"suite digest {digest[:12]} differs from {job.digest[:12]}")
        for name, value in counters.items():
            want = job.counters.setdefault(name, value)
            if value != want:
                problems.append(f"{name} = {value}, first run gave {want}")
        return problems

    def _oracle(self, job: Job, files: list) -> list:
        traced = self._trace
        if traced:
            self.tracer.install()
            self.tracer.begin(self._root(f"oracle {job.spec.name}"), "oracle")
        t0 = time.perf_counter()
        try:
            return oracle.check_suite(job.program, job.scope, files)
        finally:
            self.oracle.append((t0, time.perf_counter()))
            if traced:
                self.tracer.end()
                self.tracer.uninstall()

    # -- the run ------------------------------------------------------------

    def run(self, seconds: float, trace: bool, results_dir=None) -> dict:
        self.set_up(1 if trace else SETUP_REPEATS)
        result = self.measure(seconds, trace)
        if results_dir is not None:
            self.write(Path(results_dir), trace, result)
        return result

    def measure(self, seconds: float, trace: bool) -> dict:
        """Cycle through the set-up jobs until `seconds` have passed and
        each job has run at least once."""
        self._trace = trace
        if trace:
            self.trace_set_up()
        gauge = self.gauge
        gauge.sample_if_due()
        deadline = time.perf_counter() + seconds
        i = 0
        while i < len(self.jobs) or time.perf_counter() < deadline:
            job = self.jobs[i % len(self.jobs)]
            self.run_job(job, traced=False)
            gauge.sample_if_due()
            if trace:
                self.run_job(job, traced=True)
                gauge.sample_if_due()
            i += 1
        gauge.sample()
        return self.result(trace)

    def result(self, trace: bool) -> dict:
        attempted = sum(j.runs for j in self.jobs)
        failed = sum(j.failed_runs for j in self.jobs)
        metrics = self.layer_metrics() if trace else self.end_to_end()
        correct = failed == 0
        if trace:
            share = metrics["trace.accounted_share"][0]
            correct = correct and abs(share - 1.0) < 1e-6
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def timed_jobs(self) -> list:
        return [j for j in self.jobs if j.untraced]

    def scaled(self, runs: list) -> list:
        """Seconds of each (start, end) interval at the references' speed;
        in a job run's (start, end of explore, end) the part after explore
        writes the suite, and is scaled by the write reference."""
        gauge, out = self.gauge, []
        for run in runs:
            t0, t1 = run[:2]
            s = gauge.scale(t0, t1, t1 - t0)
            if len(run) == 3:
                s += gauge.scale(t1, run[2], run[2] - t1, write=True)
            out.append(s)
        return out

    def latency(self, runs: list) -> float:
        return statistics.median(self.scaled(runs))

    def end_to_end(self) -> dict:
        """Each job's latency is the median of its scaled runs; the
        quantiles are over the workload's distinct jobs."""
        per_job = [self.latency(j.untraced) for j in self.timed_jobs()]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (statistics.median(self.scaled(self.setup)), "s"),
            "wall_s": (sum(per_job), "s"),
            "job_s.p50": (statistics.median(per_job), "s"),
            "job_s.p90": (_p90(per_job), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }

    def layer_metrics(self) -> dict:
        """Per-layer metrics for one pass over the jobs: each job's traced
        runs are averaged, so the layer self times add up to the traced
        job time, and the jobs are summed.  Self times are scaled by the
        factor of the run they belong to."""
        jobs = [j for j in self.jobs if j.traced_totals]
        absent = set(self.tracer.absent)
        factors = {id(j): [s / (run[-1] - run[0]) for s, run in
                           zip(self.scaled(j.traced), j.traced)] for j in jobs}

        def mean_total(job, names, field):
            scale = factors[id(job)] if field == 1 else [1] * len(job.traced_totals)
            return sum(f * sum(t.get(n, (0, 0.0, 0))[field] for n in names)
                       for f, t in zip(scale, job.traced_totals)) / len(job.traced_totals)

        def layer(names, field) -> float:
            return sum(mean_total(j, names, field) for j in jobs)

        out = {}
        for name, spans_of in LAYER_TIMES.items():
            if not absent & set(spans_of):
                out[name] = (layer(spans_of, 1), "s")
        for name, span in LAYER_CALLS.items():
            if span not in absent:
                out[name] = (layer((span,), 0), "count")
        for name, spans_of in LAYER_VALUES.items():
            if not absent & set(spans_of):
                out[name] = (layer(spans_of, 2), "count")
        setup = self.setup_totals
        t0, t1 = self.setup_traced
        setup_factor = self.scaled([(t0, t1)])[0] / (t1 - t0)
        if "parser.parse_s" in out:
            out["parser.parse_s"] = (
                setup_factor * setup.get("parser.parse_or_raise", [0, 0.0])[1], "s")
        if "lang.validate_s" in out:
            v = out["lang.validate_s"][0]
            out["lang.validate_s"] = (
                v + setup_factor * setup.get("lang.validate", [0, 0.0])[1], "s")

        counters = {c: sum(j.counters[c] for j in jobs) for c in COUNTERS}
        out["explorer.iterations"] = (counters["iterations"], "count")
        out["explorer.tests_per_iteration"] = (
            counters["tests"] / max(counters["iterations"], 1), "ratio")
        for c in ("checks", "sat", "unsat", "unknown", "pushes", "pops"):
            out[f"solver.{c}"] = (counters[c], "count")
        checks = max(counters["checks"], 1)
        out["solver.sat_ratio"] = (counters["sat"] / checks, "ratio")
        if "solver.branches" in out:
            out["solver.branches_per_check"] = (out["solver.branches"][0] / checks, "ratio")
        out["interp.oracle_s"] = (sum(self.scaled(self.oracle)), "s")
        out["host.reference_s"] = (statistics.median(self.gauge.took), "s")
        out["host.write_reference_s"] = (statistics.median(self.gauge.wrote), "s")

        traced = sum(self.latency(j.traced) for j in jobs)
        untraced = sum(self.latency(j.untraced) for j in jobs)
        root = sum(sum(f * r for f, r in zip(factors[id(j)], j.traced_root_s))
                   / len(j.traced_root_s) for j in jobs)
        # Every span under a job root, the root included, has one of the
        # LAYER_TIMES names; the time of an absent target stays in its
        # caller's self time, so the sum still covers the root.
        seen = {name for j in jobs for t in j.traced_totals for name in t}
        accounted = layer(seen, 1)
        out["trace.wall_s"] = (traced, "s")
        out["trace.untraced_wall_s"] = (untraced, "s")
        out["trace.overhead_s"] = (traced - untraced, "s")
        out["trace.overhead_ratio"] = ((traced - untraced) / untraced, "ratio")
        out["trace.accounted_share"] = (accounted / root, "ratio")
        out["trace.spans"] = (len(self.tracer.spans), "count")
        return out

    # -- output ---------------------------------------------------------------

    def write(self, results_dir: Path, trace: bool, result: dict) -> None:
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = f"{self.workload}-seed{self.seed}-trace{int(trace)}"
        record = {
            "workload": self.workload, "seed": self.seed, "trace": trace,
            "setup_s": [t1 - t0 for t0, t1 in self.setup],
            "setup_scaled_s": self.scaled(self.setup),
            "reference_s": self.gauge.took,
            "write_reference_s": self.gauge.wrote,
            "reference_at": self.gauge.at,
            "job_samples": len(self.timed_jobs()),
            "fail_ratio": result["failed"] / result["attempted"],
            "absent": self.tracer.absent,
            "result": result,
            "jobs": [{
                "name": j.spec.name, "counters": j.counters, "digest": j.digest,
                "untraced": j.untraced, "untraced_scaled_s": self.scaled(j.untraced),
                "traced": j.traced, "traced_scaled_s": self.scaled(j.traced),
                "runs": j.runs, "failed_runs": j.failed_runs, "failures": j.failures,
            } for j in self.jobs],
        }
        (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
        if trace:
            with open(results_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"roots": self._roots}) + "\n")
                for span in self.tracer.spans:
                    fh.write(json.dumps(span) + "\n")


def print_table(bench: Bench, result: dict, out=sys.stderr) -> None:
    print(f"# {bench.workload} seed {bench.seed}: {result['attempted']} job runs, "
          f"{result['failed']} failed, fail_ratio "
          f"{result['failed'] / result['attempted']:.4f}, "
          f"{len(bench.timed_jobs())} jobs in the latency samples", file=out)
    for name, m in result["metrics"].items():
        print(f"{name:32} {m['value']:>16.6g} {m['unit']}", file=out)
    for name in bench.tracer.absent:
        print(f"{'absent':32} {name}", file=out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for needed in (ROOT / "src" / "defcalc", ROOT / "programs"):
        if not needed.is_dir():
            print(f"error: {needed} not found: run from a full checkout", file=sys.stderr)
            return 2
    bench = Bench(args.workload, args.seed)
    try:
        result = bench.run(args.seconds, bool(args.trace), BENCH_DIR / "results")
    finally:
        bench.close()
    print_table(bench, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
