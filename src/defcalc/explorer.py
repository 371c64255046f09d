"""Depth-first concolic exploration.

One iteration runs the scope concolically, records the branch trail, then
negates the deepest not-yet-negated non-trivial record and asks the solver
for an input satisfying the prefix plus the negation.  SAT continues the
descent with the model; UNSAT backtracks to the next shallower record.  Only
the last explored path is kept, with a per-position negated-already flag.

Scope assertions contribute hard prefix records that are conjoined to every
query through the prefix and are never negated.  The loop's first runs, while
none has passed the assertions, are the bootstrap: a run that fails one asks
the solver for inputs that take its path with every assertion held.  Eight
such runs, an Unknown or a model that repeats the inputs leave the suite
incomplete.  The deadline bounds these runs as it bounds every other; only
runs that pass the assertions count as iterations.

The early-conflict option breaks the prefix invariant by design; when the
observed path diverges from the expected prefix, bookkeeping restarts from
the longest common prefix and already-seen paths are deduplicated by
fingerprint.

The frontier owns the prefix and holds the solver session, which keys its
entries for the trivial filter (`SolverSession.literal_key`).  With
`incremental` on, the session's stack holds the literals of a prefix of the
frontier, one per entry: a query pops it to the flip point and pushes what
it lacks, and every cut of the frontier pops it below the cut, so the
session prepares a frame per entry, not per query.  With `incremental` off,
a query passes the prefix as extra literals, prepared at every check.

The concolic runs of one explore build their terms through one intern
table (`symbolic.Terms`), so the records of successive runs hold the same
constraint objects: `reconcile` matches the prefix by identity, and a flipped
entry's literal is the one the next run records.  Each recording site also
appends the record it made before when its condition is the same object
(see concolic.py), so successive runs, and the testcases' paths, share
record objects.  A path is fingerprinted from the fragment each record
keeps, `render(constraint)#taken`, made on the record's first fingerprint
as a term's text is on its first rendering.  The fingerprint reads the
`taken` flags of the path's own records, since `reconcile` keeps an entry
whose constraint equals the new record's whatever its flag.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Optional

from .lang import Program, Span, validate
from .interp import Outcome, OutcomeKind
from .concolic import (
    BranchRecord, ConcolicOpts, Origin, compile_scope, run_scope_concolic,
)
from .solver import Sat, SolverFailure, SolverSession, SolverStats, Unknown
from .symbolic import (
    default_value, inputs_of_leaf_env, leaf_env_of_inputs, render,
    shared_prefix, sym_not,
)
from . import transforms


class PrefixInvariantViolation(Exception):
    pass


OPT_NAMES = ("lazy", "folding", "trivial", "reorder", "frontend",
             "early-error", "soft")


@dataclass
class ExploreConfig:
    initial: dict = field(default_factory=dict)  # input name -> Value hints
    lazy: bool = False
    folding: bool = False
    trivial: bool = False
    reorder: bool = False
    frontend: bool = False
    early_error: bool = False
    soft: bool = False
    incremental: bool = True
    max_iters: int = 10_000
    timeout: Optional[float] = None
    backend: object = None  # None for builtin, else an ExternalSolver
    on_query: Optional[Callable] = None
    progress: Optional[Callable] = None

    @classmethod
    def from_opt_names(cls, names, **kw) -> "ExploreConfig":
        unknown = set(names) - set(OPT_NAMES)
        if unknown:
            raise ValueError(f"unknown optimization names: {sorted(unknown)}")
        flags = {n.replace("-", "_"): True for n in names}
        return cls(**flags, **kw)

    def opt_names(self) -> list:
        return [n for n in OPT_NAMES if getattr(self, n.replace("-", "_"))]


@dataclass
class Testcase:
    scope: str
    inputs: dict  # input name -> Value
    outcome: Outcome
    path: tuple  # tuple[BranchRecord, ...]
    soft_tier: Optional[str]
    iteration: int
    path_fp: str  # path_fingerprint(path)


@dataclass
class SuiteStats(SolverStats):
    """The session's solver counters and what the exploration counted."""
    iterations: int = 0
    tests: int = 0
    conflicts: int = 0
    empties: int = 0


@dataclass
class TestSuite:
    scope: str
    testcases: list
    stats: SuiteStats
    complete: bool
    opts: list
    depth_trace: list  # |path| per iteration
    incomplete_reason: Optional[str] = None  # the first, once not `complete`
    incomplete_span: Optional[Span] = None  # the branch it names, if any

    def give_up(self, reason: str, span: Optional[Span] = None) -> None:
        """Mark the suite incomplete; the first reason given is kept."""
        if self.complete:
            self.complete, self.incomplete_reason = False, reason
            self.incomplete_span = span


def path_fingerprint(path) -> str:
    """sha256 of the path's rendered constraints, each with its `taken` flag;
    a record keeps its fragment, as a term keeps its text."""
    text = ";".join([r._fp or _fragment(r) for r in path])
    return hashlib.sha256(text.encode()).hexdigest()


def _fragment(record: BranchRecord) -> str:
    fp = f"{render(record.constraint)}#{int(record.taken)}"
    object.__setattr__(record, "_fp", fp)
    return fp


_UNKEYED = object()
_CONSTRAINT, _ENTRY_CONSTRAINT = attrgetter("constraint"), attrgetter("record.constraint")


@dataclass
class _Entry:
    record: BranchRecord
    done: bool = False
    key: object = _UNKEYED  # the session's `literal_key`, filled on first use


class Frontier:
    """The last explored path with per-position negation bookkeeping; if
    `incremental`, the session's stack holds the literals of `entries[:len(stack)]`."""

    def __init__(self, session: SolverSession, incremental: bool = True):
        self.entries: list = []
        self.session = session
        self.incremental = incremental

    def reconcile(self, path: list, early_error: bool) -> None:
        """Match the new path against the expected prefix and absorb the new
        suffix.  Divergence raises unless the early-conflict rule is on, in
        which case bookkeeping restarts from the longest common prefix."""
        keep = shared_prefix(map(_ENTRY_CONSTRAINT, self.entries), map(_CONSTRAINT, path))
        if keep < len(self.entries):
            if not early_error:
                raise PrefixInvariantViolation(
                    f"path diverged from expected prefix at depth {keep}")
            del self.entries[keep:]
            self._pop_to(keep)
        for rec in path[len(self.entries):]:
            self.entries.append(_Entry(rec))

    def next_target(self, trivial_filter: bool) -> Optional[int]:
        """Deepest record not yet negated and eligible for negation."""
        first: dict = {}  # literal key -> index of its first record
        if trivial_filter:
            for i, e in enumerate(self.entries):
                if e.key is _UNKEYED:
                    e.key = self.session.literal_key(e.record.constraint)
                first.setdefault(e.key, i)
        for k in range(len(self.entries) - 1, -1, -1):
            e = self.entries[k]
            if e.done:
                continue
            if e.record.hard or e.record.origin is Origin.CONCRETIZED:
                e.done = True
                continue
            if trivial_filter and not filter_trivial(e.key, first[e.key] < k):
                e.done = True
                continue
            return k
        return None

    def flip(self, k: int) -> None:
        flipped = self.entries[k].record.negated()
        del self.entries[k:]
        self._pop_to(k)
        self.entries.append(_Entry(flipped, done=True))

    def query(self, k: int, decide: Callable):
        """Decide the literals of `entries[:k]` and the negation of entry `k`
        with `decide(extra)`, a session's `check` or `check_soft`."""
        negation = sym_not(self.entries[k].record.constraint)
        if not self.incremental:
            return decide([*(e.record.constraint for e in self.entries[:k]), negation])
        self._pop_to(k)
        for e in self.entries[len(self.session.stack):k]:
            self.session.push(e.record.constraint)
        self.session.push(negation)
        try:
            return decide()
        finally:
            self.session.pop()

    def _pop_to(self, n: int) -> None:
        while len(self.session.stack) > n:
            self.session.pop()


def filter_trivial(key: Optional[str], repeated: bool) -> bool:
    """Keep-for-negation predicate: False when the record's literal mentions
    no input or simplifies to a boolean constant (`key`, its `literal_key`, is
    None) or repeats an earlier one (`repeated`; its negation contradicts the prefix)."""
    return not (key is None or repeated)


def _prepare(program: Program, scope_name: str, config: ExploreConfig) -> Program:
    if config.frontend:
        program = transforms.simplify_frontend(program)[0]
    if config.folding:
        program = transforms.fold_program(program)[0]
    if config.reorder:
        program = transforms.reorder_program(program)[0]
    return program


def explore(program: Program, scope_name: str,
            config: Optional[ExploreConfig] = None) -> TestSuite:
    """Exhaustively explore a scope's paths (finite for loop-free programs),
    one testcase per executed input; `config` defaults to a fresh
    `ExploreConfig()`."""
    if config is None:
        config = ExploreConfig()
    errors = validate(program)
    if errors:
        raise ValueError(f"program does not validate: {errors[0].message}")
    work = _prepare(program, scope_name, config)
    scope = work.scope(scope_name)

    compiled = compile_scope(work, scope_name, ConcolicOpts(
        lazy=config.lazy, early_error=config.early_error))
    # `stats` is made once, when the loop ends, from what the run recorded.
    suite = TestSuite(scope_name, [], None, complete=True,
                      opts=config.opt_names(), depth_trace=[])

    inputs = {n: config.initial.get(n, default_value(ty)) for n, ty in scope.inputs}
    env = leaf_env_of_inputs(scope, inputs)  # the leaf values of `inputs`
    session = SolverSession(compiled.leaves.values(), backend=config.backend,
                            on_query=config.on_query, retain=env)
    frontier = Frontier(session, config.incremental)
    decide = session.check_soft if config.soft else session.check
    seen_fps = set()
    bootstrap_runs = 0
    deadline = None if config.timeout is None else time.monotonic() + config.timeout

    while True:
        if len(suite.depth_trace) >= config.max_iters:
            suite.give_up(f"iteration limit of {config.max_iters} reached")
            break
        if deadline is not None and time.monotonic() > deadline:
            suite.give_up(f"timeout of {config.timeout} s reached")
            break
        outcome, path = run_scope_concolic(compiled, inputs)
        _note_concretized(path, suite)

        if outcome.kind is OutcomeKind.PRECONDITION and not suite.depth_trace:
            # The bootstrap: no run has passed the scope assertions yet, so
            # ask for inputs that take this run's path with every assertion
            # held.  Unsat leaves the suite empty and complete.
            bootstrap_runs += 1
            res = _ask(session.check, [
                sym_not(r.constraint) if r.origin is Origin.ASSERTION and not r.taken
                else r.constraint for r in path])
            if not isinstance(res, Sat):
                if isinstance(res, Unknown):
                    suite.give_up(res.reason)
                break
            model_inputs = inputs_of_leaf_env(scope, res.model)
            if model_inputs == inputs:  # runs are deterministic: it fails again
                suite.give_up("a bootstrap model repeats inputs that violate"
                              " a scope assertion")
                break
            if bootstrap_runs == 8:
                suite.give_up("no input satisfying the scope assertions after 8"
                              " bootstrap runs")
                break
            inputs, env = model_inputs, res.model
            continue

        suite.depth_trace.append(len(path))
        if outcome.kind is not OutcomeKind.PRECONDITION:
            frontier.reconcile(path, config.early_error)
            fp = path_fingerprint(path)
            if fp not in seen_fps:
                seen_fps.add(fp)
                tier = session.tier_of(env) if config.soft else None
                suite.testcases.append(Testcase(
                    scope_name, dict(inputs), outcome, tuple(path), tier,
                    len(suite.depth_trace), fp))
        else:
            # Every model satisfies the hard records it was solved under, so
            # an assertion fails after the bootstrap only where the records
            # do not hold it all: an assertion branch with no symbolic form
            # (noted above).  Backtrack on the previous frontier.
            suite.give_up("a solver model violated a scope assertion")

        # The iteration's verdict: "sat" once a target is, else "unknown" if
        # one was Unknown or failed, else "unsat" if one was Unsat, else
        # "none": no target was tried.
        verdict = "none"
        while True:
            k = frontier.next_target(config.trivial)
            if k is None:
                break
            res = _ask(frontier.query, k, decide)
            if isinstance(res, Sat):
                inputs, env = inputs_of_leaf_env(scope, res.model), res.model
                frontier.flip(k)
                verdict = "sat"
                break
            if isinstance(res, Unknown):
                suite.give_up(res.reason)
                verdict = "unknown"
            elif verdict == "none":
                verdict = "unsat"
            frontier.entries[k].done = True
        if config.progress is not None:
            config.progress(len(suite.depth_trace), verdict, len(path),
                            len(suite.testcases))
        if verdict != "sat":
            break

    kinds = [tc.outcome.kind for tc in suite.testcases]
    suite.stats = SuiteStats(
        **vars(session.stats), iterations=len(suite.depth_trace), tests=len(kinds),
        conflicts=kinds.count(OutcomeKind.CONFLICT),
        empties=kinds.count(OutcomeKind.EMPTY))
    return suite


def _ask(decide: Callable, *args):
    """`decide(*args)`, a solver check, with a `SolverFailure` read as an
    Unknown that gives its message."""
    try:
        return decide(*args)
    except SolverFailure as e:
        return Unknown(str(e))


def _note_concretized(path: list, suite: TestSuite) -> None:
    """Mark the suite incomplete at the first record of `path` whose branch
    has no symbolic form: the solver cannot reach its other side."""
    for rec in path:
        if rec.origin is Origin.CONCRETIZED:
            suite.give_up("a branch with no symbolic form: its other side"
                          " is never tried", rec.span)
            return
