"""Command-line entry point.

Subcommands:

* ``run FILE --scope S`` explores a scope and prints/emits testcases;
* ``replay FILE --tests DIR`` re-runs a stored suite against the reference
  evaluator;
* ``mutate FILE --count K --ops remove,duplicate,negate --seed N --out DIR``
  writes mutated programs;
* ``campaign FILE --count K --seed N`` runs the mutation-testing loop.

Exit codes: 0 for a complete run, 2 when exploration was truncated by
budget, 1 for usage or internal errors.  Conflict/empty findings are
results, not failures, and do not affect the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import sys

from .lang import Diagnostic, _Checker, validate
from .parser import ParseError, parse, parse_literal, print_program, print_value
from .interp import OutcomeKind
from .explorer import OPT_NAMES, ExploreConfig, explore
from .smtlib import ExternalSolver, SmtlibEmitter
from .testkit import (
    MUTATION_OPS, MutationOp, NoEligibleDefaultTerm, emit_suite, mutate,
    mutation_campaign, replay_dir,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRUNCATED = 2


def _load(path: str):
    """The parse of a program file that parses and validates."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise SystemExit(f"error: cannot read {path}: {e}")
    result = parse(text, path)
    if result.diagnostics:
        for d in result.diagnostics:
            print(f"error: {d.render(result.unit)}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    errors = validate(result.program)
    if errors:
        for d in errors:
            print(f"error: {d.render(result.unit)}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)
    return result


@contextlib.contextmanager
def _writing(path: str):
    """Report an OSError from creating the output directory `path` as a
    usage error; create it before any work that would fill it."""
    try:
        yield
    except OSError as e:
        raise SystemExit(f"error: cannot write {path}: {e}")


def _positive(flag: str, value):
    """`value` (None meaning unset), unless it is not above zero, which a
    count or bound can only be by mistake."""
    if value is not None and not value > 0:
        raise SystemExit(f"error: {flag} must be positive, got {value}")
    return value


def _parse_opts(spec: str) -> list:
    if spec == "all":
        return list(OPT_NAMES)
    if spec == "none":
        return []
    return [n.strip() for n in spec.split(",") if n.strip()]


def _parse_initial(program, scope_name: str, pairs) -> dict:
    scope = program.scope(scope_name)
    types = dict(scope.inputs)
    checker = _Checker(program)
    out = {}
    for p in pairs or ():
        if "=" not in p:
            raise SystemExit(f"error: --initial expects name=value, got {p!r}")
        name, _, text = p.partition("=")
        if name not in types:
            raise SystemExit(f"error: scope {scope_name} has no input {name!r}")
        try:
            value = parse_literal(text)
        except ParseError as e:
            raise SystemExit(f"error: bad literal for {name}: {e}")
        got = checker.type_of_value(value)
        if checker.diags or got != types[name]:
            raise SystemExit(
                f"error: input {name} has type {types[name]}, got {text!r}")
        out[name] = value
    return out


def _solver_backend(spec: str):
    if spec == "builtin":
        return None
    if spec.startswith("smtlib:"):
        return ExternalSolver(spec[len("smtlib:"):])
    raise SystemExit(f"error: unknown solver {spec!r} (builtin | smtlib:CMD)")


def _outcome_summary(tc) -> str:
    k = tc.outcome.kind
    if k is OutcomeKind.CONFLICT:
        return "conflict"
    if k is OutcomeKind.EMPTY:
        return "empty"
    return ", ".join(f"{n} = {print_value(v)}" for n, v in tc.outcome.outputs)


def cmd_run(args) -> int:
    loaded = _load(args.file)
    program = loaded.program
    try:
        program.scope(args.scope)
    except KeyError:
        raise SystemExit(f"error: no scope {args.scope} in {args.file}")
    try:
        opts = _parse_opts(args.opts)
        if args.soft and "soft" not in opts:
            opts.append("soft")
        solver_spec = os.environ.get("DEFCALC_SOLVER", args.solver)
        config = ExploreConfig.from_opt_names(
            opts,
            incremental=not args.no_incremental,
            max_iters=_positive("--max-iters", args.max_iters),
            timeout=_positive("--timeout", args.timeout),
            backend=_solver_backend(solver_spec),
            initial=_parse_initial(program, args.scope, args.initial),
        )
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    if args.emit_tests:
        with _writing(args.emit_tests):
            os.makedirs(args.emit_tests, exist_ok=True)
    if args.emit_smtlib:
        with _writing(args.emit_smtlib):
            config.on_query = SmtlibEmitter(args.emit_smtlib)
    if not args.quiet:
        config.progress = lambda i, st, d, t: print(
            f"iter={i} {st} depth={d} tests={t}", file=sys.stderr)

    try:
        suite = explore(program, args.scope, config)
    finally:
        if config.backend is not None:
            config.backend.close()

    for tc in suite.testcases:
        ins = ", ".join(f"{n} = {print_value(v)}" for n, v in tc.inputs.items())
        print(f"[{tc.iteration}] {ins} -> {_outcome_summary(tc)}")
    if args.emit_tests:
        emit_suite(suite, args.emit_tests)
    if args.stats:
        s = suite.stats
        print(f"solver_calls={s.solver_calls} sat={s.sat} unsat={s.unsat} "
              f"unknown={s.unknown} solver_failures={s.solver_failures} "
              f"tests={s.tests} conflicts={s.conflicts} empties={s.empties}")
    if not suite.complete:
        reason = Diagnostic(suite.incomplete_reason, suite.incomplete_span)
        print(f"exploration incomplete: {reason.render(loaded.unit)}", file=sys.stderr)
        return EXIT_TRUNCATED
    return EXIT_OK


def cmd_replay(args) -> int:
    program = _load(args.file).program
    try:
        results = replay_dir(program, args.tests)
    except OSError as e:
        raise SystemExit(f"error: cannot read {args.tests}: {e}")
    passed = sum(1 for _, r in results if r.passed)
    for name, r in results:
        if not r.passed:
            print(f"{name}: FAIL {r.error or f'expected={r.expected} got={r.got}'}")
    print(f"{passed}/{len(results)} pass")
    return EXIT_OK if passed == len(results) else EXIT_ERROR


def cmd_mutate(args) -> int:
    program = _load(args.file).program
    _positive("--count", args.count)
    ops = [o.strip() for o in args.ops.split(",") if o.strip()]
    if not ops:
        raise SystemExit("error: --ops names no mutation op")
    unknown = set(ops) - set(MUTATION_OPS)
    if unknown:
        raise SystemExit(f"error: unknown mutation ops {sorted(unknown)}")
    for kind in dict.fromkeys(ops):  # before any file is written
        try:
            mutate(program, MutationOp(kind), 0)
        except NoEligibleDefaultTerm as e:
            raise SystemExit(f"error: {e}")
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    rng = random.Random(args.seed)
    for i in range(args.count):
        kind = ops[i % len(ops)]
        m = mutate(program, MutationOp.draw(kind, rng), rng.randrange(1 << 30))
        path = os.path.join(args.out, f"mutant{i:03d}_{kind}.dfc")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_program(m.program))
        print(f"{path}: {kind} on default #{m.target_index} of scope {m.scope}")
    return EXIT_OK


def cmd_campaign(args) -> int:
    program = _load(args.file).program
    report = mutation_campaign(program, _positive("--count", args.count), seed=args.seed)
    for i, m in enumerate(report.mutants):
        status = "found" if m.found else f"missed {m.note}".strip()
        print(f"mutant {i:02d} op={m.op} seed={m.seed} -> {status} "
              f"({m.elapsed:.2f}s, {m.iterations} iterations)")
    print(f"found {report.found}/{len(report.mutants)} "
          f"(generated {report.attempted} candidates)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="defcalc",
                                description="Concolic test generation for the default calculus")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="explore a scope and emit testcases")
    run.add_argument("file")
    run.add_argument("--scope", required=True)
    run.add_argument("--opts", default="none",
                     help="comma list of optimizations, or all/none")
    run.add_argument("--soft", action="store_true",
                     help="shorthand for adding `soft` to --opts")
    run.add_argument("--solver", default="builtin",
                     help="builtin | smtlib:CMD (DEFCALC_SOLVER overrides)")
    run.add_argument("--no-incremental", action="store_true")
    run.add_argument("--max-iters", type=int, default=10_000)
    run.add_argument("--timeout", type=float, default=None, metavar="SECS")
    run.add_argument("--initial", nargs="*", metavar="NAME=VALUE")
    run.add_argument("--emit-tests", metavar="DIR")
    run.add_argument("--emit-smtlib", metavar="DIR")
    run.add_argument("--stats", action="store_true")
    run.add_argument("--quiet", action="store_true",
                     help="suppress per-iteration progress lines")
    run.set_defaults(func=cmd_run)

    rep = sub.add_parser("replay", help="re-run stored testcases")
    rep.add_argument("file")
    rep.add_argument("--tests", required=True, metavar="DIR")
    rep.set_defaults(func=cmd_replay)

    mut = sub.add_parser("mutate", help="write mutated programs")
    mut.add_argument("file")
    mut.add_argument("--count", type=int, required=True)
    mut.add_argument("--ops", default=",".join(MUTATION_OPS))
    mut.add_argument("--seed", type=int, default=0)
    mut.add_argument("--out", required=True, metavar="DIR")
    mut.set_defaults(func=cmd_mutate)

    camp = sub.add_parser("campaign", help="mutation-testing campaign")
    camp.add_argument("file")
    camp.add_argument("--count", type=int, required=True)
    camp.add_argument("--seed", type=int, default=0)
    camp.set_defaults(func=cmd_campaign)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as e:
        if isinstance(e.code, str):
            print(e.code, file=sys.stderr)
            return EXIT_ERROR
        return e.code if e.code is not None else EXIT_OK
    except BrokenPipeError:
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
