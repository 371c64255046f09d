"""Correctness oracle for one emitted suite, independent of the explorer.

Every emitted testcase file is decoded from its JSON form and replayed on
the reference evaluator (`interp.run_scope`, through `testkit.replay`); the
recorded outcome must match.  When the scope's inputs are finitely
enumerable, the outcome classes the suite reports are also compared with
the classes the reference evaluator produces over the whole input grid:
equal when the scope's assertions bound every int input inside the grid,
otherwise the grid's classes must be a subset.
"""

from __future__ import annotations

import json
import os


def _int_bounds(scope) -> dict:
    """Literal bounds `x >= c` / `x <= c` (either side) from the scope
    assertions, per int input: name -> [lo, hi] with None when unbounded."""
    from defcalc.lang import BinOp, Lit, Var, VInt

    bounds: dict = {}
    flip = {">=": "<=", "<=": ">=", ">": "<", "<": ">"}
    for a in scope.assertions:
        if not isinstance(a, BinOp) or a.op not in flip:
            continue
        lhs, op, rhs = a.lhs, a.op, a.rhs
        if isinstance(lhs, Lit) and isinstance(rhs, Var):
            lhs, op, rhs = rhs, flip[op], lhs
        if not (isinstance(lhs, Var) and isinstance(rhs, Lit)
                and isinstance(rhs.value, VInt)):
            continue
        c = rhs.value.i
        lo, hi = bounds.setdefault(lhs.name, [None, None])
        if op in (">=", ">"):
            c = c if op == ">=" else c + 1
            bounds[lhs.name][0] = c if lo is None else max(lo, c)
        else:
            c = c if op == "<=" else c - 1
            bounds[lhs.name][1] = c if hi is None else min(hi, c)
    return bounds


def grid_covers_domain(scope, int_bounds=(-8, 8)) -> bool:
    from defcalc.lang import INT

    bounds = _int_bounds(scope)
    for name, ty in scope.inputs:
        if ty != INT:
            continue
        lo, hi = bounds.get(name, (None, None))
        if lo is None or hi is None or lo < int_bounds[0] or hi > int_bounds[1]:
            return False
    return True


def check_suite(program, scope_name: str, files: list) -> list:
    """Problems found in an emitted suite (empty when it is correct).
    `files` are the paths `emit_suite` returned, `suite.json` last."""
    from defcalc import interp, testkit

    problems = []
    kinds = set()
    for path in files:
        if os.path.basename(path) == "suite.json":
            continue
        res = testkit.replay(program, path)
        if not res:
            problems.append(f"{os.path.basename(path)}: recorded {res.expected}, "
                            f"reference evaluator gives {res.got}")
        with open(path, encoding="utf-8") as fh:
            kinds.add(json.load(fh)["outcome"]["kind"])

    scope = program.scope(scope_name)
    grid = testkit.input_grid(scope)
    if grid is not None:
        brute = set()
        for inputs in grid:
            o = interp.run_scope(program, scope_name, inputs)
            if o.kind is not interp.OutcomeKind.PRECONDITION:
                brute.add(o.kind.value)
        if grid_covers_domain(scope):
            if brute != kinds:
                problems.append(f"outcome classes {sorted(kinds)} differ from "
                                f"brute force {sorted(brute)}")
        elif not brute <= kinds:
            problems.append(f"outcome classes {sorted(kinds)} miss brute-force "
                            f"classes {sorted(brute - kinds)}")
    return problems
