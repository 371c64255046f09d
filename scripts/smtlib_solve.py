#!/usr/bin/env python3
"""Standalone SMT-LIB solver shim.

Reads SMT-LIB v2 commands on stdin, in the dialect the package emits
(declare-datatypes for enum tags, declare-const, dfc_round/to_int, linear
arithmetic), and runs each one as soon as it is complete:

- ``declare-datatypes``, ``declare-const`` and ``assert`` add to the
  current query; ``define-fun`` and every other command are ignored;
- ``check-sat`` answers ``sat``, ``unsat`` or ``unknown`` and flushes;
- ``get-model`` answers the last check's model as ``(define-fun ...)``
  entries, or ``(error "model is not available")`` if that check was not
  ``sat``;
- ``reset`` forgets the current query.

A command it cannot read or run (an unknown sort, a stray parenthesis)
answers ``(error "...")`` and the shim goes on with the next one.  It exits
0 at end of input, so a whole script can be piped in as well.
Decisions are delegated to the package's builtin procedure, which makes the
shim a drop-in external backend for exercising the ``--solver smtlib:CMD``
protocol without any third-party solver:

    defcalc run prog.dfc --scope S --solver "smtlib:python3 scripts/smtlib_solve.py"
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defcalc.lang import BOOL, EnumT, INT, RAT, VBool, VEnum, VInt, VRat
from defcalc.smtlib import _const, _sexpr_end, _sort_of_leaf, _symname, parse_sexprs
from defcalc.solver import Sat, Unknown, _builtin_check
from defcalc.symbolic import (
    Leaf, SymBin, SymConst, SymFloor, SymIsVariant, SymNot, SymRound, SymVar,
)


def _name(tok: str) -> str:
    return tok[1:-1] if tok.startswith("|") else tok


def _to_sym(node, sorts, enums):
    if isinstance(node, str):
        if node == "true":
            return SymConst(VBool(True))
        if node == "false":
            return SymConst(VBool(False))
        name = _name(node)
        if name in sorts:
            return SymVar(name, sorts[name])
        for et in enums.values():
            if name in et.variant_names():
                return SymConst(VEnum(et.name, name))
        try:
            return SymConst(VInt(int(node)))
        except ValueError:
            return SymConst(VRat(Fraction(node)))
    head = node[0]
    if head == "-" and len(node) == 2:
        inner = _to_sym(node[1], sorts, enums)
        return SymBin("-", SymConst(VInt(0)), inner)
    if head == "/" and len(node) == 3 and all(isinstance(x, str) for x in node[1:]):
        try:
            return SymConst(VRat(Fraction(int(node[1]), int(node[2]))))
        except ValueError:
            pass
    ops = {"and": "&&", "or": "||", "=": "=", "<": "<", "<=": "<=",
           ">": ">", ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/"}
    if head == "not":
        return SymNot(_to_sym(node[1], sorts, enums))
    if head == "to_real":
        return _to_sym(node[1], sorts, enums)
    if head == "to_int":
        return SymFloor(_to_sym(node[1], sorts, enums))
    if head == "dfc_round":
        return SymRound(_to_sym(node[1], sorts, enums))
    if isinstance(head, list) and len(head) == 3 and head[0] == "_" and head[1] == "is":
        return SymIsVariant(_to_sym(node[1], sorts, enums), head[2])
    if head in ops:
        args = [_to_sym(a, sorts, enums) for a in node[1:]]
        out = args[0]
        for a in args[1:]:
            out = SymBin(ops[head], out, a)
        return out
    raise ValueError(f"cannot translate {node!r}")


_SORTS = {"Bool": BOOL, "Int": INT, "Real": RAT}


class _Query:
    """The declarations and assertions since the last ``reset``."""

    def __init__(self):
        self.sorts: dict = {}
        self.enums: dict = {}
        self.literals: list = []

    def declare(self, node) -> None:
        if node[0] == "declare-datatypes":
            ename = node[1][0][0]
            ctors = tuple((c[0], None) for c in node[2][0])
            self.enums[ename] = EnumT(ename, ctors)
        elif node[0] == "declare-const":
            sort = node[2]
            if sort not in _SORTS and sort not in self.enums:
                raise ValueError(f"unknown sort {sort}")
            self.sorts[_name(node[1])] = (
                _SORTS[sort] if sort in _SORTS else self.enums[sort])
        elif node[0] == "assert":
            self.literals.append(node[1])

    def check(self):
        """The verdict word and, on sat, the model reply."""
        try:
            lits = tuple(_to_sym(n, self.sorts, self.enums) for n in self.literals)
        except ValueError as e:
            print(f"; {e}", file=sys.stderr)
            return "unknown", None
        decls = tuple(Leaf(n, t) for n, t in self.sorts.items())
        res = _builtin_check(decls, lits, retain={})
        if isinstance(res, Sat):
            rows = "".join(
                f"  (define-fun {_symname(leaf.name)} () {_sort_of_leaf(leaf.ty)} "
                f"{_const(res.model[leaf.name])})\n" for leaf in decls)
            return "sat", f"(\n{rows})"
        return ("unknown" if isinstance(res, Unknown) else "unsat"), None


def _commands(stream):
    """Yield the text of each top-level S-expression of `stream` once it is
    complete."""
    pending = ""
    for line in stream:
        pending += line
        while (end := _sexpr_end(pending)) is not None:
            yield pending[:end]
            pending = pending[end:]


def main() -> int:
    query, model = _Query(), None
    for text in _commands(sys.stdin):
        try:
            for node in parse_sexprs(text):
                if not isinstance(node, list) or not node:
                    continue
                if node[0] == "check-sat":
                    model = None  # no stale model if this check fails
                    verdict, model = query.check()
                    print(verdict, flush=True)
                elif node[0] == "get-model":
                    print(model or '(error "model is not available")', flush=True)
                elif node[0] == "reset":
                    query, model = _Query(), None
                else:
                    query.declare(node)
        except Exception as e:
            message = f"{text.strip()}: {e}".replace('"', '""')
            print(f'(error "{message}")', flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
