"""Testcase serialization, replay, and the mutation-testing harness.

Testcase files are JSON with exact value encodings (money as cents,
rationals as numerator/denominator) so a replay compares outcomes exactly.
A suite directory holds one file per testcase, named ``tcNNNN.json``
(``TESTCASE_NAME``), plus a ``suite.json`` manifest whose statistics equal a
recount from the testcase files by construction: `explore` counts tests,
conflicts and empties from the testcases it returns.  Every file's bytes are
exactly ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, all ASCII,
built in one pass (`_json_text`) and written with one call.

Mutations inject the three fault shapes that matter for default logic:
removing exceptions (unhandled cases), duplicating an exception (guaranteed
conflict when it fires), and negating a justification (swapping handled and
unhandled regions).  A mutant counts as *found* when exploration emits an
empty/conflict testcase whose inputs produce a different outcome on the base
program; campaigns screen mutants for that property up-front by enumerating
a small input grid, replacing manual inspection.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .lang import (
    BOOL, INT, MONEY, RAT,
    Default, EnumT, Expr, Not, Program, Scope, StructT, Value, VBool, VEnum,
    VInt, VMoney, VRat, VStruct, map_bottom_up,
)
from .interp import Outcome, OutcomeKind, run_scope
from .explorer import TestSuite, Testcase, explore


# ---------------------------------------------------------------------------
# JSON encoding (exact; no floats anywhere)


def value_to_json(v: Value):
    match v:
        case VBool(b):
            return b
        case VInt(i):
            return i
        case VMoney(c):
            return {"cents": c}
        case VRat(q):
            return {"num": q.numerator, "den": q.denominator}
        case VEnum(enum, variant, payload):
            out = {"enum": enum, "variant": variant}
            if payload is not None:
                out["payload"] = value_to_json(payload)
            return out
        case VStruct(struct, fields):
            return {"struct": struct,
                    "fields": {f: value_to_json(x) for f, x in fields}}
    raise TypeError(f"not a serializable value: {v!r}")


def value_from_json(data, ty) -> Value:
    if ty == BOOL:
        return VBool(bool(data))
    if ty == INT:
        return VInt(int(data))
    if ty == MONEY:
        return VMoney(int(data["cents"]))
    if ty == RAT:
        return VRat(Fraction(int(data["num"]), int(data["den"])))
    if isinstance(ty, EnumT):
        pty = ty.payload_of(data["variant"])
        payload = value_from_json(data["payload"], pty) if pty is not None else None
        return VEnum(ty.name, data["variant"], payload)
    if isinstance(ty, StructT):
        return VStruct(ty.name, tuple(
            (f, value_from_json(data["fields"][f], fty)) for f, fty in ty.fields))
    raise TypeError(f"cannot decode type {ty}")


def outcome_to_json(outcome: Outcome):
    if outcome.kind is OutcomeKind.VALUE:
        return {"kind": "value",
                "value": {n: value_to_json(v) for n, v in outcome.outputs}}
    if outcome.kind is OutcomeKind.EMPTY:
        return {"kind": "empty"}
    if outcome.kind is OutcomeKind.CONFLICT:
        return {"kind": "conflict"}
    raise ValueError("precondition violations are not testcases")


def testcase_to_json(tc: Testcase) -> dict:
    return {
        "scope": tc.scope,
        "inputs": {n: value_to_json(v) for n, v in tc.inputs.items()},
        "outcome": outcome_to_json(tc.outcome),
        "path_fp": tc.path_fp,
        "soft_tier": tc.soft_tier,
        "iter": tc.iteration,
    }


# ---------------------------------------------------------------------------
# Suite emission and replay


# The name of a testcase file: what emit_suite writes and replay_dir reads.
TESTCASE_NAME = re.compile(r"tc\d{4,}\.json")


def _json_text(v, newline: str = "\n") -> str:
    """`json.dumps(v, indent=2, sort_keys=True)` for the values a suite holds:
    dicts with str keys, lists, str, int, bool and None; anything else,
    floats included, raises TypeError.  `newline` is a line break followed
    by the indentation of the line on which v starts."""
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = newline + "  "
    if isinstance(v, dict):
        if not v:
            return "{}"
        for k in v:
            if not isinstance(k, str):
                raise TypeError(f"not a str key: {k!r}")
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v[k], inner)}"
                 for k in sorted(v)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(v, list):
        if not v:
            return "[]"
        items = [_json_text(x, inner) for x in v]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"not a suite JSON value: {v!r}")


# O_BINARY (Windows only): no newline translation.
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


def _write_json(path: str, value) -> None:
    """Write `value` to `path` as `_json_text` and a newline, in one write
    unless the system writes fewer bytes than asked."""
    data = (_json_text(value) + "\n").encode("ascii")
    fd = os.open(path, _WRITE_FLAGS, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def emit_suite(suite: TestSuite, directory: str) -> list:
    """Write one JSON file per testcase plus suite.json, and remove every
    other testcase file (`TESTCASE_NAME`), left by an earlier emission into
    `directory`; byte-stable for identical suites.  Each file's bytes are
    `json.dumps(doc, indent=2, sort_keys=True)` and a newline.  The manifest's
    stats are the `SuiteStats` fields but `pushes` and `pops`.  Returns the
    paths written."""
    existed = os.path.isdir(directory)
    os.makedirs(directory, exist_ok=True)
    written = []
    for i, tc in enumerate(suite.testcases, start=1):
        path = os.path.join(directory, f"tc{i:04d}.json")
        _write_json(path, testcase_to_json(tc))
        written.append(path)
    # A directory made here holds no earlier emission; skipping the listing
    # keeps an emission into a fresh directory as cheap as before.
    names = {os.path.basename(p) for p in written}
    for name in os.listdir(directory) if existed else ():
        if TESTCASE_NAME.fullmatch(name) and name not in names:
            os.remove(os.path.join(directory, name))
    manifest = {
        "scope": suite.scope,
        "complete": suite.complete,
        "opts": list(suite.opts),
        "stats": {k: v for k, v in vars(suite.stats).items() if k not in ("pushes", "pops")},
        "files": [os.path.basename(p) for p in written],
    }
    mpath = os.path.join(directory, "suite.json")
    _write_json(mpath, manifest)
    return written + [mpath]


@dataclass(frozen=True)
class ReplayResult:
    passed: bool
    expected: object = None
    got: object = None
    error: str = ""  # why the testcase file could not be replayed

    def __bool__(self) -> bool:
        return self.passed


def replay(program: Program, testcase_file: str) -> ReplayResult:
    """Re-run a stored testcase on the reference evaluator; Pass iff the
    outcome matches exactly (value equality; empty/conflict by class)."""
    with open(testcase_file, encoding="utf-8") as fh:
        data = json.load(fh)
    scope = program.scope(data["scope"])
    types = dict(scope.inputs)
    inputs = {n: value_from_json(j, types[n]) for n, j in data["inputs"].items()}
    outcome = run_scope(program, data["scope"], inputs)
    if outcome.kind is OutcomeKind.PRECONDITION:
        return ReplayResult(False, data["outcome"], {"kind": "precondition"})
    got = outcome_to_json(outcome)
    want = data["outcome"]
    return ReplayResult(got == want, want, got)


def replay_dir(program: Program, directory: str) -> list:
    """(name, result) for each testcase file (`TESTCASE_NAME`) of
    `directory`, in name order.  A file that cannot be replayed (not JSON,
    an unknown scope, inputs that do not fit the scope) fails with the
    reason in `error`."""
    out = []
    for name in sorted(os.listdir(directory)):
        if TESTCASE_NAME.fullmatch(name):
            try:
                result = replay(program, os.path.join(directory, name))
            except (OSError, ValueError, LookupError, TypeError) as e:
                result = ReplayResult(False, error=f"{type(e).__name__}: {e}")
            out.append((name, result))
    return out


# ---------------------------------------------------------------------------
# Mutation testing


class NoEligibleDefaultTerm(Exception):
    pass


MUTATION_OPS = ("remove", "duplicate", "negate")


@dataclass(frozen=True)
class MutationOp:
    kind: str  # one of MUTATION_OPS
    count: int = 1  # exceptions to remove, for "remove"

    @classmethod
    def draw(cls, kind: str, rng: random.Random) -> "MutationOp":
        """The op of `kind`; "remove" draws how many exceptions (1 or 2)."""
        return cls(kind, count=1 + rng.randrange(2)) if kind == "remove" else cls(kind)


@dataclass
class Mutant:
    base: Program
    program: Program
    op: MutationOp
    scope: str
    target_index: int  # index of the default term in traversal order
    seed: int


def _map_defaults(program: Program, f) -> Program:
    """The program with each default term d of a scope binding replaced by
    f(scope name, index, d), indices counting the default terms in the
    post-order of `map_bottom_up`, binding by binding."""
    numbering = itertools.count()
    scopes = []
    for sc in program.scopes:
        def visit(e: Expr, scope_name=sc.name) -> Expr:
            return f(scope_name, next(numbering), e) if isinstance(e, Default) else e
        bindings = tuple(replace(b, expr=map_bottom_up(b.expr, visit))
                         for b in sc.bindings)
        scopes.append(replace(sc, bindings=bindings))
    return replace(program, scopes=tuple(scopes))


def _default_sites(program: Program, need_exceptions: bool) -> list:
    """(scope name, index) of eligible default terms, numbered by the walk
    that replaces them (`_map_defaults`)."""
    sites = []

    def note(scope_name: str, idx: int, d: Default) -> Default:
        if not need_exceptions or d.exceptions:
            sites.append((scope_name, idx))
        return d

    _map_defaults(program, note)
    return sites


def mutate(program: Program, op: MutationOp, seed: int) -> Mutant:
    """Deterministic per (program, op, seed); the mutant still validates."""
    rng = random.Random(seed)
    needs_exc = op.kind in ("remove", "duplicate")
    sites = _default_sites(program, needs_exc)
    if not sites:
        raise NoEligibleDefaultTerm(f"no default term eligible for {op.kind}")
    scope_name, target = rng.choice(sites)

    def apply(d: Default) -> Default:
        excs = list(d.exceptions)
        if op.kind == "remove":
            k = min(max(1, op.count), len(excs))
            for _ in range(k):
                excs.pop(rng.randrange(len(excs)))
            return Default(tuple(excs), d.just, d.cons, span=d.span)
        if op.kind == "duplicate":
            i = rng.randrange(len(excs))
            excs.insert(i, excs[i])
            return Default(tuple(excs), d.just, d.cons, span=d.span)
        if op.kind == "negate":
            return Default(d.exceptions, Not(d.just, span=d.just.span), d.cons,
                           span=d.span)
        raise ValueError(f"unknown mutation op {op.kind!r}")

    mutated = _map_defaults(program, lambda _, i, d: apply(d) if i == target else d)
    return Mutant(program, mutated, op, scope_name, target, seed)


def input_grid(scope: Scope, int_bounds: tuple = (-8, 8),
               limit: int = 4096) -> Optional[list]:
    """All input environments over finite domains, or None when a domain is
    not finitely enumerable (money, rationals, structs) or the grid exceeds
    the limit."""
    axes = []
    for name, ty in scope.inputs:
        if ty == BOOL:
            axes.append([(name, VBool(False)), (name, VBool(True))])
        elif isinstance(ty, EnumT):
            if any(p is not None for _, p in ty.variants):
                return None
            axes.append([(name, VEnum(ty.name, v)) for v in ty.variant_names()])
        elif ty == INT:
            lo, hi = int_bounds
            axes.append([(name, VInt(i)) for i in range(lo, hi + 1)])
        else:
            return None
    size = 1
    for a in axes:
        size *= len(a)
        if size > limit:
            return None
    return [dict(combo) for combo in itertools.product(*axes)]


def _outcome_class(outcome: Outcome):
    if outcome.kind is OutcomeKind.VALUE:
        return ("value", outcome.outputs)
    return (outcome.kind.value,)


def screen_mutant(mutant: Mutant) -> Optional[bool]:
    """Grid-check whether the mutation manifests: some valid input where the
    mutant yields empty/conflict and the base does not.  None when the input
    space is not enumerable at this size."""
    scope = mutant.base.scope(mutant.scope)
    grid = input_grid(scope)
    if grid is None:
        return None
    for inputs in grid:
        base = run_scope(mutant.base, mutant.scope, inputs)
        if base.kind is OutcomeKind.PRECONDITION:
            continue
        got = run_scope(mutant.program, mutant.scope, inputs)
        if got.kind in (OutcomeKind.EMPTY, OutcomeKind.CONFLICT) and \
                _outcome_class(got) != _outcome_class(base):
            return True
    return False


@dataclass
class MutantReport:
    op: str
    seed: int
    target_index: int
    found: bool
    witness: Optional[dict] = None
    iterations: int = 0
    elapsed: float = 0.0
    note: str = ""


@dataclass
class CampaignReport:
    mutants: list
    attempted: int

    @property
    def found(self) -> int:
        return sum(1 for m in self.mutants if m.found)


def find_issue(mutant: Mutant) -> MutantReport:
    """Explore the mutant; found when an empty/conflict testcase's inputs
    give a different outcome on the base program."""
    start = time.monotonic()
    suite = explore(mutant.program, mutant.scope)
    elapsed = time.monotonic() - start
    for tc in suite.testcases:
        if tc.outcome.kind in (OutcomeKind.EMPTY, OutcomeKind.CONFLICT):
            base = run_scope(mutant.base, mutant.scope, tc.inputs)
            if _outcome_class(base) != _outcome_class(tc.outcome):
                return MutantReport(mutant.op.kind, mutant.seed,
                                    mutant.target_index, True, dict(tc.inputs),
                                    suite.stats.iterations, elapsed)
    return MutantReport(mutant.op.kind, mutant.seed, mutant.target_index, False, None,
                        suite.stats.iterations, elapsed, suite.incomplete_reason or "")


def mutation_campaign(program: Program, count: int, seed: int = 0) -> CampaignReport:
    """Generate `count` screened-reachable mutants (drawing fresh seeds when
    screening rejects one) and run the engine on each.  Deterministic for a
    given (program, seed)."""
    rng = random.Random(seed)
    reports = []
    attempted = 0
    cap = max(20 * count, 100)
    while len(reports) < count and attempted < cap:
        op_kind = MUTATION_OPS[attempted % len(MUTATION_OPS)]
        op = MutationOp.draw(op_kind, rng)
        mseed = rng.randrange(1 << 30)
        attempted += 1
        try:
            mutant = mutate(program, op, mseed)
        except NoEligibleDefaultTerm:
            continue
        if screen_mutant(mutant) is not True:
            continue
        reports.append(find_issue(mutant))
    return CampaignReport(reports, attempted)
