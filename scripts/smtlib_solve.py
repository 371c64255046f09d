#!/usr/bin/env python3
"""Standalone SMT-LIB solver shim.

Reads SMT-LIB v2 commands on stdin, in the dialect the package emits
(declare-datatypes for enum tags, declare-const, dfc_round, linear
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
0 at end of input, so a whole script can be piped in as well; text left at
end of input that is neither blank, a comment nor a complete command (a
missing ``)``, an unclosed ``|`` or string) answers
``(error "incomplete command at end of input")``.  Commands are read with
the package's own S-expression reader and tables (`defcalc.smtlib`).
Each check is decided by a fresh `SolverSession` over the query's
declarations, with the package's builtin procedure, which makes the shim a
drop-in external backend for exercising the ``--solver smtlib:CMD``
protocol without any third-party solver:

    defcalc run prog.dfc --scope S --solver "smtlib:python3 scripts/smtlib_solve.py"
"""

import sys
from itertools import chain
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from defcalc.lang import MONEY, EnumT, VBool, VEnum, VInt, VRat
from defcalc.smtlib import (
    _BLANK, _OPS, _SORTS, _const, _numeral, _show, _sort_of_leaf, _symname,
    read_sexpr,
)
from defcalc.solver import Sat, SolverSession, Unknown
from defcalc.symbolic import (
    Leaf, SymBin, SymConst, SymIsVariant, SymNot, SymRound, SymVar,
)

# The emitter's tables, inverted.  Money is written as Int (cents), and the
# shim reads every Int as int.
_TYPES = {sort: ty for ty, sort in _SORTS.items() if ty != MONEY}
_BINARY = {smt: op for op, smt in _OPS.items()}
_UNARY = {"not": SymNot, "dfc_round": SymRound}


def _name(tok: str) -> str:
    return tok[1:-1] if tok.startswith("|") else tok


def _to_sym(node, sorts, enums):
    if node in ("true", "false"):
        return SymConst(VBool(node == "true"))
    try:
        q = _numeral(node)
    except ValueError:
        pass
    else:
        return SymConst(VInt(q.numerator) if q.denominator == 1 else VRat(q))
    if isinstance(node, str):
        name = _name(node)
        if name in sorts:
            return SymVar(name, sorts[name])
        for et in enums.values():
            if name in et.variant_names():
                return SymConst(VEnum(et.name, name))
        raise ValueError(f"unknown symbol {node}")
    head, *args = node
    args = [_to_sym(a, sorts, enums) for a in args]
    if head[:2] == ["_", "is"] and len(head) == 3:
        return SymIsVariant(args[0], head[2])
    if head == "-" and len(args) == 1:
        return SymBin("-", SymConst(VInt(0)), args[0])
    if head == "to_real":
        return args[0]
    if head in _UNARY:
        return _UNARY[head](args[0])
    if head in _BINARY:
        out, *rest = args
        for a in rest:
            out = SymBin(_BINARY[head], out, a)
        return out
    raise ValueError(f"cannot translate {_show(node)}")


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
            ty = _TYPES.get(node[2]) or self.enums.get(node[2])
            if ty is None:
                raise ValueError(f"unknown sort {node[2]}")
            self.sorts[_name(node[1])] = ty
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
        res = SolverSession(decls).check(lits)
        if isinstance(res, Sat):
            rows = "".join(
                f"  (define-fun {_symname(leaf.name)} () {_sort_of_leaf(leaf.ty)} "
                f"{_const(res.model[leaf.name])})\n" for leaf in decls)
            return "sat", f"(\n{rows})"
        return ("unknown" if isinstance(res, Unknown) else "unsat"), None


def _commands(stream):
    """Yield each top-level S-expression of `stream`, read, once it is
    complete.  A stray ``)`` and, at end of input, an incomplete command are
    yielded as the ValueError that describes them."""
    pending = ""
    for chunk in chain(stream, ["\n"]):  # end of input completes a last atom
        pending += chunk
        while True:
            try:
                got = read_sexpr(pending)
            except ValueError as e:  # a stray ")", the first token
                yield e
                pending = pending[_BLANK.match(pending).end() + 1:]
                continue
            if got is None:
                break
            node, end = got
            pending = pending[end:]
            yield node
    if not _BLANK.fullmatch(pending):
        yield ValueError("incomplete command at end of input")


def main() -> int:
    query, model = _Query(), None
    for node in _commands(sys.stdin):
        try:
            if isinstance(node, ValueError):
                raise node
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
            message = str(e) if node is e else f"{_show(node)}: {e}"
            message = message.replace('"', '""')
            print(f'(error "{message}")', flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
