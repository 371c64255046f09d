"""SMT-LIB v2 emission and the external solver protocol.

Queries are printed as standard SMT-LIB: booleans as Bool, ints and money
(cents) as Int, rationals as Real, enum tags as payload-free declared
datatypes; struct inputs and enum payloads are already flattened to leaf
constants by the time a query exists, and leaf names are emitted as quoted
symbols (``|h.income|``).  Rounding is the function

    round(q) = if q >= 0 then floor(q + 1/2) else -floor(-q + 1/2)

with floor via the Real-to-Int conversion, defined in the preamble whenever
a query mentions it.  The sorts, the operators and the numerals are each
one table (`_SORTS`, `_OPS`, `_numeral`), which the bundled shim
(``scripts/smtlib_solve.py``) reads back with.

SMT-LIB text is read by one incremental reader, `read_sexpr`: it frames and
parses in a single pass, returning the first S-expression with the index
past it, or None while the text ends before it does.  Atoms keep their text
(``|h.income|``, ``"a ""b"" c"``; a doubled quote is a quote inside a string,
as in SMT-LIB 2.6), and an atom counts as complete only once a character
follows it.  The external backend frames each reply with it, `parse_model`
reads the node it returns, and the shim reads its commands with it.

The external backend keeps one user-configured solver process running and
talks to it interactively, keeping a session's queries incremental.  The
process holds one assertion level per literal of the last query; a check
from the same session over the same declarations (all of a session's soft
checks declare its soft ladder) pops back to the `shared_prefix` of their
literals and pushes and asserts the rest.  Any other check starts from
``(reset)`` and the preamble, the one `emit_smtlib` writes (it always
defines ``dfc_round``), so no solver state outlives the session that made
it.  Each check then writes ``(check-sat)`` and ``(get-model)``, all in
one write, and reads the verdict token (``sat``/``unsat``/``unknown``) and
one more S-expression: the model on ``sat``, the reply to ``(get-model)``
that is read and dropped otherwise.
Replies are read under the check's deadline; a timeout, a closed pipe or an
unexpected reply kills the process, and the next check starts a new one.
"""

from __future__ import annotations

import codecs
import os
import re
import selectors
import shlex
import subprocess
import tempfile
import time
import weakref
from fractions import Fraction
from typing import Optional

from .lang import (
    BOOL, INT, MONEY, RAT,
    EnumT, Value, VBool, VEnum, VInt, VMoney, VRat,
)
from .solver import Query, Sat, SolverFailure, Unknown, UNSAT
from .symbolic import (
    SymBin, SymConst, SymExpr, SymIsVariant, SymNot, SymRound,
    SymVar, default_value, shared_prefix, sym_children, sym_sort,
)

_ROUND_DEF = (
    "(define-fun dfc_round ((q Real)) Int"
    " (ite (>= q 0.0) (to_int (+ q (/ 1 2))) (- (to_int (+ (- q) (/ 1 2))))))"
)


def _symname(name: str) -> str:
    if name.isidentifier():
        return name
    return f"|{name}|"


# One table per vocabulary: the emitter writes with these, and the bundled
# shim reads with them.
_SORTS = {BOOL: "Bool", INT: "Int", MONEY: "Int", RAT: "Real"}  # money in cents
_OPS = {"&&": "and", "||": "or", "=": "=", "<": "<", "<=": "<=", ">": ">",
        ">=": ">=", "+": "+", "-": "-", "*": "*", "/": "/"}


def _sort_of_leaf(ty) -> str:
    return ty.name if isinstance(ty, EnumT) else _SORTS[ty]


def _emit(e: SymExpr, want: Optional[str] = None) -> str:
    """`e` as an SMT-LIB term, converted to Real if `want` is Real."""
    if want == "Real" and sym_sort(e) == "Int":
        return f"(to_real {_emit(e)})"
    match e:
        case SymVar(name, _):
            return _symname(name)
        case SymConst(v):
            return _const(v)
        case SymBin(op, a, b):
            real = op == "/" or "Real" in (sym_sort(a), sym_sort(b))
            want = "Real" if real else None
            return f"({_OPS[op]} {_emit(a, want)} {_emit(b, want)})"
        case SymNot(a):
            return f"(not {_emit(a)})"
        case SymRound(a):
            return f"(dfc_round {_emit(a, 'Real')})"
        case SymIsVariant(a, v):
            return f"((_ is {v}) {_emit(a)})"
    raise TypeError(f"cannot emit {e!r}")


def _const(v: Value) -> str:
    match v:
        case VBool(b):
            return "true" if b else "false"
        case VInt(i) | VMoney(i):
            return str(i) if i >= 0 else f"(- {-i})"
        case VRat(q):
            num = f"(/ {abs(q.numerator)} {q.denominator})" \
                if q.denominator != 1 else str(abs(q.numerator))
            return num if q >= 0 else f"(- {num})"
        case VEnum(_, variant, _):
            return variant
    raise TypeError(f"cannot emit constant {v!r}")


def _mentions_round(e: SymExpr) -> bool:
    if isinstance(e, SymRound):
        return True
    return any(_mentions_round(c) for c in sym_children(e))


def _preamble(decls, round_def: bool) -> list:
    """The lines that open a script over `decls`: the options and logic,
    each enum's datatype, ``dfc_round`` if `round_def`, and one constant
    per leaf."""
    lines = ["(set-option :produce-models true)", "(set-logic ALL)"]
    seen_enums = []
    for leaf in decls:
        if isinstance(leaf.ty, EnumT) and leaf.ty.name not in [e.name for e in seen_enums]:
            seen_enums.append(leaf.ty)
    for et in seen_enums:
        ctors = " ".join(f"({v})" for v in et.variant_names())
        lines.append(f"(declare-datatypes (({et.name} 0)) (({ctors})))")
    if round_def:
        lines.append(_ROUND_DEF)
    for leaf in decls:
        lines.append(f"(declare-const {_symname(leaf.name)} {_sort_of_leaf(leaf.ty)})")
    return lines


def emit_smtlib(query: Query) -> str:
    """Render a query as solver-ready SMT-LIB v2 text: the script, then
    ``(check-sat)`` and ``(get-model)``."""
    lines = _preamble(query.decls, any(_mentions_round(l) for l in query.literals))
    for lit in query.literals:
        lines.append(f"(assert {_emit(lit)})")
    lines += ["(check-sat)", "(get-model)"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The S-expression reader, for solver replies and (in the shim) commands


# Blanks and comments, then one token: a parenthesis, or an atom, which is a
# quoted symbol, a string (where ``""`` is a quote) or a run of other
# characters up to a delimiter.
_BLANK = re.compile(r"\s*(?:;[^\n]*\n\s*)*")
_TOKEN = re.compile(_BLANK.pattern
                    + r'(?:([()])|(\|[^|]*\||"(?:[^"]|"")*"(?!")|[^\s()|";]+))')


def read_sexpr(text: str, start: int = 0) -> Optional[tuple]:
    """Read the S-expression at `start` of `text`, after any blanks and
    comments: ``(node, end)``, where an atom is its text (quotes kept), a
    list is a Python list and `end` is the index just past it, or None while
    `text` ends before the expression does.  An atom is complete only once
    a character follows it.  A ``)`` that closes nothing raises ValueError.
    """
    stack: list = []
    while m := _TOKEN.match(text, start):
        paren, node = m.groups()
        start = m.end()
        if paren == "(":
            stack.append([])
            continue
        if paren:
            if not stack:
                raise ValueError("unbalanced parenthesis")
            node = stack.pop()
        elif start == len(text):
            return None  # the atom may go on
        if not stack:
            return node, start
        stack[-1].append(node)
    return None


def _show(node) -> str:
    """A node read by `read_sexpr`, written back as text."""
    return node if isinstance(node, str) else f"({' '.join(map(_show, node))})"


_NUMERAL = re.compile(r"-?\d+(?:\.\d+)?")


def _numeral(node) -> Fraction:
    """The value of a numeral node (``12``, ``1.5``, ``(- x)``, ``(/ x y)``);
    ValueError if `node` is not one."""
    if isinstance(node, str) and _NUMERAL.fullmatch(node):
        return Fraction(node)
    if isinstance(node, list) and len(node) == 2 and node[0] == "-":
        return -_numeral(node[1])
    if (isinstance(node, list) and len(node) == 3 and node[0] == "/"
            and (den := _numeral(node[2]))):
        return _numeral(node[1]) / den
    raise ValueError(f"cannot read numeral {_show(node)}")


def _atom_value(name: str, node, ty) -> Value:
    """The value of leaf `name` in a model; SolverFailure naming the leaf
    when `node` is not a value of its type (a Bool other than true or false,
    an Int or money value that is not an integral numeral)."""
    if ty == BOOL:
        if node in ("true", "false"):
            return VBool(node == "true")
    elif isinstance(ty, EnumT):
        tag = node[0] if isinstance(node, list) and node else node
        if isinstance(tag, str) and tag.strip("|") in ty.variant_names():
            return VEnum(ty.name, tag.strip("|"))
        raise SolverFailure(f"unknown variant {_show(node)} of {name} for enum {ty.name}")
    else:
        try:
            q = _numeral(node)
        except ValueError:
            q = None
        if q is not None and ty == RAT:
            return VRat(q)
        if q is not None and q.denominator == 1 and ty in (INT, MONEY):
            return VInt(q.numerator) if ty == INT else VMoney(q.numerator)
    raise SolverFailure(f"cannot read {_show(node)} as the {ty} value of {name}")


def parse_model(reply, query: Query) -> dict:
    """The leaf model in a get-model reply, as read by `read_sexpr`: a list
    of ``(define-fun NAME () SORT VALUE)`` entries, possibly headed by
    ``model``.  Missing leaves get their type default (solvers omit don't-care
    constants).  Any other reply, such as ``(error ...)``, raises
    `SolverFailure`."""
    if not isinstance(reply, list) or reply[:1] == ["error"]:
        raise SolverFailure(f"no model in solver reply {_show(reply)[:200]}")
    entries = reply[1:] if reply[:1] == ["model"] else reply
    assignments = {entry[1].strip("|"): entry[4] for entry in entries
                   if isinstance(entry, list) and len(entry) >= 5
                   and entry[0] == "define-fun" and isinstance(entry[1], str)}
    model = {}
    for leaf in query.decls:
        if leaf.name in assignments:
            model[leaf.name] = _atom_value(leaf.name, assignments[leaf.name], leaf.ty)
        else:
            dv = default_value(leaf.ty)
            if isinstance(dv, VEnum):
                dv = VEnum(dv.enum, dv.variant)
            model[leaf.name] = dv
    return model


def _stop_process(proc: subprocess.Popen, stderr) -> None:
    proc.kill()
    proc.wait()
    proc.stdin.close()
    proc.stdout.close()
    stderr.close()


class ExternalSolver:
    """Backend speaking SMT-LIB to one long-lived solver process.

    The command must run interactively: answer each ``(check-sat)`` and
    ``(get-model)`` as it arrives and accept ``(reset)``, ``(push 1)`` and
    ``(pop N)`` (``z3 -in``, or the bundled ``scripts/smtlib_solve.py``).
    The process starts on the first check and serves every later one, also
    across the sessions and `explore` calls that share this backend.
    `close` (or leaving a ``with`` block) kills it, and the next check
    starts a new one; a backend dropped or left open at exit kills its
    process too.

    The process holds the last query's declarations and one assertion level
    per literal.  A check from the same `session` over the same
    declarations sends ``(pop N)`` back to the `shared_prefix` of its
    literals and that query's, then ``(push 1)`` and ``(assert ...)`` for
    each new literal; any other check (a new process, other declarations,
    such as a session's first soft check after a plain one, the first check
    of a session, or no `session`) sends ``(reset)`` and the preamble first.
    Both end with ``(check-sat)`` and ``(get-model)``, all in one write, and
    read the verdict and then one more S-expression: the model on ``sat``,
    read and dropped otherwise.  Reading waits at most `timeout` seconds per
    check.  A timeout, the solver closing its output, a pipe error or a
    reply that is not a verdict kills the process and raises
    `SolverFailure`.  The solver's stderr goes to a temporary file, whose
    tail is quoted in the failure message.
    """

    def __init__(self, command: str, timeout: float = 30.0):
        self.argv = shlex.split(command)
        if not self.argv:
            raise ValueError("empty solver command")
        self.timeout = timeout
        self._proc = None
        self._stderr = None
        self._stop = None  # kills the process; also runs if self is dropped
        self._decoder = None
        self._out = ""  # decoded solver output not yet consumed
        self._owner = None  # weak reference to the session the process serves
        self._decls = None  # that session's declarations in force
        self._literals = ()  # and its literals in force, one level each

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap the solver process, if one is running."""
        if self._proc is not None:
            self._stop()
            self._proc = self._stderr = self._stop = None

    def check(self, query: Query, session=None):
        """Decide `query` for `session` (the caller whose earlier queries
        the process may keep; None shares nothing)."""
        try:
            return self._check(query, session, time.monotonic() + self.timeout)
        except (OSError, ValueError, SolverFailure) as e:
            message = f"external solver failed: {e}{self._stderr_tail()}"
            self.close()
            raise SolverFailure(message) from e
        except BaseException:
            self.close()
            raise

    def _check(self, query: Query, session, deadline: float):
        if self._proc is None:
            self._start()
        lines, keep = [], 0
        if (session is None or self._owner is None or self._owner() is not session
                or self._decls != query.decls):
            lines = ["(reset)", *_preamble(query.decls, True)]
        elif (keep := shared_prefix(self._literals, query.literals)) < len(self._literals):
            lines.append(f"(pop {len(self._literals) - keep})")
        for lit in query.literals[keep:]:
            lines += ["(push 1)", f"(assert {_emit(lit)})"]
        lines += ["(check-sat)", "(get-model)"]
        self._owner = None if session is None else weakref.ref(session)
        self._decls, self._literals = query.decls, query.literals
        verdict = self._reply(deadline, "\n".join(lines) + "\n")
        if verdict not in ("sat", "unsat", "unknown"):
            raise SolverFailure(f"unexpected solver reply {_show(verdict)[:200]!r}")
        model = self._reply(deadline)
        if verdict == "unsat":
            return UNSAT
        if verdict == "unknown":
            return Unknown("external solver returned unknown")
        return Sat(parse_model(model, query))

    def _start(self) -> None:
        stderr = tempfile.TemporaryFile()
        try:
            proc = subprocess.Popen(
                self.argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=stderr, bufsize=0)
        except OSError:
            stderr.close()
            raise
        self._proc, self._stderr = proc, stderr
        self._stop = weakref.finalize(self, _stop_process, proc, stderr)
        os.set_blocking(proc.stdin.fileno(), False)
        self._decoder = codecs.getincrementaldecoder("utf-8")()
        self._out = ""
        self._owner = None  # so the first check resets the new process

    def _reply(self, deadline: float, text: str = ""):
        """Write `text`, then read until the output holds one complete
        S-expression (a verdict is an atom) and return it as `read_sexpr`
        reads it.  Writing and reading are interleaved, so neither pipe can
        fill up and block."""
        proc = self._proc
        pending = text.encode()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if pending:
                sel.register(proc.stdin, selectors.EVENT_WRITE)
            while True:
                if not pending and (got := read_sexpr(self._out)) is not None:
                    reply, end = got
                    self._out = self._out[end:]
                    return reply
                left = deadline - time.monotonic()
                if left <= 0:
                    raise SolverFailure(f"no reply within {self.timeout} s")
                for key, _ in sel.select(left):
                    if key.fileobj is proc.stdout:
                        chunk = os.read(key.fd, 65536)
                        if not chunk:
                            raise SolverFailure("the solver closed its output")
                        self._out += self._decoder.decode(chunk)
                    else:
                        pending = pending[os.write(key.fd, pending):]
                        if not pending:
                            sel.unregister(proc.stdin)

    def _stderr_tail(self) -> str:
        if self._stderr is None:
            return ""
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        tail = os.pread(fd, 200, max(0, size - 200)).decode(errors="replace").strip()
        return f" (stderr: {tail})" if tail else ""


class SmtlibEmitter:
    """Writes one numbered .smt2 file per query (the --emit-smtlib option)
    after removing the ones an earlier run left in `directory`."""

    def __init__(self, directory):
        self.dir = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)
        for name in os.listdir(directory):
            if re.fullmatch(r"q\d{6,}\.smt2", name):
                os.remove(os.path.join(directory, name))

    def __call__(self, query: Query) -> None:
        path = os.path.join(self.dir, f"q{self.count:06d}.smt2")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_smtlib(query))
        self.count += 1
