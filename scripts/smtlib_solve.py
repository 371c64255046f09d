#!/usr/bin/env python3
"""Standalone SMT-LIB solver shim.

Reads SMT-LIB v2 commands on stdin, in the dialect the package emits
(declare-datatypes for enum tags, declare-const, dfc_round, linear
arithmetic), and runs each one as soon as it is complete:

- ``declare-datatypes``, ``declare-const`` and ``assert`` add to the
  current assertion level; redeclaring a name is an error, and an assert
  is translated as it arrives; ``define-fun`` and every other command are
  ignored;
- ``push N`` opens N assertion levels and ``pop N`` drops the last N, with
  what was declared and asserted in them (N defaults to 1); popping more
  levels than are open is an error and changes nothing;
- ``check-sat`` answers ``sat``, ``unsat`` or ``unknown`` (``unknown``
  while an assert it could not translate is in force) and flushes;
- ``get-model`` answers the last check's model as ``(define-fun ...)``
  entries, or ``(error "model is not available")`` if that check was not
  ``sat`` or another command came after it;
- ``reset`` forgets every level.

A command it cannot read or run (an unknown sort, a stray parenthesis)
answers ``(error "...")`` and the shim goes on with the next one.  It exits
0 at end of input, so a whole script can be piped in as well; text left at
end of input that is neither blank, a comment nor a complete command (a
missing ``)``, an unclosed ``|`` or string) answers
``(error "incomplete command at end of input")``.  Commands are read with
the package's own S-expression reader and tables (`defcalc.smtlib`).
Checks are decided by the package's builtin procedure, in one
`SolverSession` per declaration set: the assertions in force are mirrored
onto its stack, so a literal is translated and prepared once however many
checks it stays asserted for.  That makes the shim a drop-in external
backend for exercising the ``--solver smtlib:CMD``
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
    SymBin, SymConst, SymIsVariant, SymNot, SymRound, SymVar, shared_prefix,
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
            return sorts[name]
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


class _Assertions:
    """The declarations and assertions since the last ``reset``, by
    assertion level, and the builtin session that decides them."""

    def __init__(self):
        self.sorts: dict = {}  # constant name -> its SymVar, in declaration order
        self.enums: dict = {}
        self.literals: list = []  # translated, or the ValueError saying why not
        self.levels: list = []  # per pushed level: the sizes of the three above
        self.session = None

    def declare(self, node) -> None:
        if node[0] == "declare-datatypes":
            ename = node[1][0][0]
            ctors = tuple((c[0], None) for c in node[2][0])
            self._add(self.enums, ename, EnumT(ename, ctors))
        elif node[0] == "declare-const":
            ty = _TYPES.get(node[2]) or self.enums.get(node[2])
            if ty is None:
                raise ValueError(f"unknown sort {node[2]}")
            name = _name(node[1])
            self._add(self.sorts, name, SymVar(name, ty))
        elif node[0] == "assert":
            try:
                lit = _to_sym(node[1], self.sorts, self.enums)
            except ValueError as e:
                print(f"; {e}", file=sys.stderr)
                lit = e
            self.literals.append(lit)

    @staticmethod
    def _add(table: dict, name: str, value) -> None:
        if name in table:
            raise ValueError(f"{name} is already declared")
        table[name] = value

    def push(self, n: int) -> None:
        self.levels += [(len(self.sorts), len(self.enums), len(self.literals))] * n

    def pop(self, n: int) -> None:
        if n > len(self.levels):
            raise ValueError(f"cannot pop {n} of {len(self.levels)} levels")
        if n:
            sorts, enums, literals = self.levels[-n]
            del self.levels[-n:], self.literals[literals:]
            for table, size in ((self.sorts, sorts), (self.enums, enums)):
                for name in list(table)[size:]:
                    del table[name]

    def check(self):
        """The verdict word and, on sat, the model reply.  The session over
        the current declarations is kept, and its stack is cut back to the
        longest prefix it shares with the literals and then extended, so a
        literal is translated and prepared once while it stays asserted."""
        if any(isinstance(lit, ValueError) for lit in self.literals):
            return "unknown", None
        decls = tuple(self.sorts.values())
        if self.session is None or self.session.decls != decls:
            self.session = SolverSession(decls)
        keep = shared_prefix(self.session.stack, self.literals)
        while len(self.session.stack) > keep:
            self.session.pop()
        for lit in self.literals[keep:]:
            self.session.push(lit)
        res = self.session.check()
        if isinstance(res, Sat):
            rows = "".join(
                f"  (define-fun {_symname(leaf.name)} () {_sort_of_leaf(leaf.ty)} "
                f"{_const(res.model[leaf.name])})\n" for leaf in decls)
            return "sat", f"(\n{rows})"
        return ("unknown" if isinstance(res, Unknown) else "unsat"), None


def _levels(node) -> int:
    """The numeral of ``(push N)`` or ``(pop N)``; 1 when it is left out."""
    if len(node) == 1:
        return 1
    if len(node) == 2 and isinstance(node[1], str) and node[1].isdigit():
        return int(node[1])
    raise ValueError("expected one numeral")


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
    state, model = _Assertions(), None
    for node in _commands(sys.stdin):
        try:
            if isinstance(node, ValueError):
                raise node
            if not isinstance(node, list) or not node:
                continue
            if node[0] == "check-sat":
                model = None  # no stale model if this check fails
                verdict, model = state.check()
                print(verdict, flush=True)
            elif node[0] == "get-model":
                print(model or '(error "model is not available")', flush=True)
            else:
                if node[0] == "reset":
                    state = _Assertions()
                elif node[0] == "push":
                    state.push(_levels(node))
                elif node[0] == "pop":
                    state.pop(_levels(node))
                else:
                    state.declare(node)
                model = None  # a model answers only the check just made
        except Exception as e:
            message = str(e) if node is e else f"{_show(node)}: {e}"
            message = message.replace('"', '""')
            print(f'(error "{message}")', flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
