#!/usr/bin/env python3
"""Standalone SMT-LIB solver shim.

Reads an SMT-LIB v2 script on stdin (the dialect the package emits:
declare-datatypes for enum tags, declare-const, dfc_round/to_int, linear
arithmetic) and answers ``sat`` plus a ``(define-fun ...)`` model, or
``unsat``/``unknown``.  Decisions are delegated to the package's builtin
procedure, which makes the shim a drop-in external backend for exercising
the ``--solver smtlib:CMD`` protocol without any third-party solver:

    defcalc run prog.dfc --scope S --solver "smtlib:python3 scripts/smtlib_solve.py"
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defcalc.lang import BOOL, EnumT, INT, RAT, VBool, VEnum, VInt, VRat
from defcalc.smtlib import _const, _sort_of_leaf, _symname, parse_sexprs
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


def main() -> int:
    text = sys.stdin.read()
    sexprs = parse_sexprs(text)
    sorts: dict = {}
    enums: dict = {}
    literals = []
    for node in sexprs:
        if not isinstance(node, list) or not node:
            continue
        if node[0] == "declare-datatypes":
            ename = node[1][0][0]
            ctors = tuple((c[0], None) for c in node[2][0])
            enums[ename] = EnumT(ename, ctors)
        elif node[0] == "declare-const":
            name = _name(node[1])
            sort = node[2]
            if sort == "Bool":
                sorts[name] = BOOL
            elif sort == "Int":
                sorts[name] = INT
            elif sort == "Real":
                sorts[name] = RAT
            else:
                sorts[name] = enums[sort]
        elif node[0] == "assert":
            literals.append(node[1])
    try:
        lits = tuple(_to_sym(n, sorts, enums) for n in literals)
    except ValueError as e:
        print("unknown")
        print(f"; {e}", file=sys.stderr)
        return 0
    decls = tuple(Leaf(n, t) for n, t in sorts.items())
    res = _builtin_check(decls, lits, retain={})
    if isinstance(res, Sat):
        print("sat")
        print("(")
        for leaf in decls:
            print(f"  (define-fun {_symname(leaf.name)} () {_sort_of_leaf(leaf.ty)} "
                  f"{_const(res.model[leaf.name])})")
        print(")")
    elif isinstance(res, Unknown):
        print("unknown")
    else:
        print("unsat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
