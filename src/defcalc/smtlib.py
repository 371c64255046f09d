"""SMT-LIB v2 emission and the external solver protocol.

Queries are printed as standard SMT-LIB: booleans as Bool, ints and money
(cents) as Int, rationals as Real, enum tags as payload-free declared
datatypes; struct inputs and enum payloads are already flattened to leaf
constants by the time a query exists, and leaf names are emitted as quoted
symbols (``|h.income|``).  Rounding is the function

    round(q) = if q >= 0 then floor(q + 1/2) else -floor(-q + 1/2)

with floor via the Real-to-Int conversion, defined in the preamble whenever
a query mentions it.

The external backend keeps one user-configured solver process running and
talks to it interactively.  Each check writes the query's script and
``(check-sat)`` and reads one verdict token (``sat``/``unsat``/``unknown``);
only on ``sat`` does it write ``(get-model)`` and read one balanced
S-expression.  A reused process gets ``(reset)`` before the next script, so
every query is solved on its own.  Replies are read under the check's
deadline; a timeout, a closed pipe or an unexpected reply kills the process,
and the next check starts a new one.
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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lang import (
    BOOL, INT, MONEY, RAT,
    EnumT, Value, VBool, VEnum, VInt, VMoney, VRat,
)
from .solver import Query, Sat, SolverFailure, Unknown, UNSAT
from .symbolic import (
    SymBin, SymConst, SymExpr, SymFloor, SymIsVariant, SymNot, SymRound,
    SymVar, default_value,
)

_ROUND_DEF = (
    "(define-fun dfc_round ((q Real)) Int"
    " (ite (>= q 0.0) (to_int (+ q (/ 1 2))) (- (to_int (+ (- q) (/ 1 2))))))"
)


def _symname(name: str) -> str:
    if name.isidentifier():
        return name
    return f"|{name}|"


def _sort_of_leaf(ty) -> str:
    if ty == BOOL:
        return "Bool"
    if ty in (INT, MONEY):
        return "Int"
    if ty == RAT:
        return "Real"
    assert isinstance(ty, EnumT)
    return ty.name


@dataclass
class _Emitter:
    query: Query

    def __post_init__(self):
        self.sorts = {l.name: l.ty for l in self.query.decls}

    def term_sort(self, e: SymExpr) -> str:
        match e:
            case SymVar(_, ty):
                return "Int" if ty in (INT, MONEY) else (
                    "Real" if ty == RAT else ("Bool" if ty == BOOL else "Enum"))
            case SymConst(v):
                match v:
                    case VInt() | VMoney():
                        return "Int"
                    case VRat():
                        return "Real"
                    case VBool():
                        return "Bool"
                    case VEnum():
                        return "Enum"
            case SymBin(op, a, b):
                if op in ("&&", "||", "=", "<", "<=", ">", ">="):
                    return "Bool"
                if op == "/":
                    return "Real"
                sa, sb = self.term_sort(a), self.term_sort(b)
                return "Real" if "Real" in (sa, sb) else "Int"
            case SymNot(_) | SymIsVariant(_, _):
                return "Bool"
            case SymRound(_) | SymFloor(_):
                return "Int"
        raise TypeError(f"no sort for {e!r}")

    def emit(self, e: SymExpr, want: Optional[str] = None) -> str:
        s = self._emit(e)
        if want == "Real" and self.term_sort(e) == "Int":
            return f"(to_real {s})"
        return s

    def _emit(self, e: SymExpr) -> str:
        match e:
            case SymVar(name, _):
                return _symname(name)
            case SymConst(v):
                return _const(v)
            case SymBin(op, a, b):
                smt_op = {"&&": "and", "||": "or", "=": "=", "<": "<",
                          "<=": "<=", ">": ">", ">=": ">=", "+": "+",
                          "-": "-", "*": "*", "/": "/"}[op]
                if op == "/":
                    return f"({smt_op} {self.emit(a, 'Real')} {self.emit(b, 'Real')})"
                sa, sb = self.term_sort(a), self.term_sort(b)
                want = "Real" if "Real" in (sa, sb) else None
                return f"({smt_op} {self.emit(a, want)} {self.emit(b, want)})"
            case SymNot(a):
                return f"(not {self.emit(a)})"
            case SymRound(a):
                return f"(dfc_round {self.emit(a, 'Real')})"
            case SymFloor(a):
                return f"(to_int {self.emit(a, 'Real')})"
            case SymIsVariant(a, v):
                return f"((_ is {v}) {self.emit(a)})"
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
    from .symbolic import sym_children
    if isinstance(e, SymRound):
        return True
    return any(_mentions_round(c) for c in sym_children(e))


def emit_smtlib(query: Query, get_model: bool = True) -> str:
    """Render a query as solver-ready SMT-LIB v2 text: the script, then
    ``(check-sat)`` and, unless `get_model` is false, ``(get-model)``."""
    em = _Emitter(query)
    lines = ["(set-logic ALL)", "(set-option :produce-models true)"]
    seen_enums = []
    for leaf in query.decls:
        if isinstance(leaf.ty, EnumT) and leaf.ty.name not in [e.name for e in seen_enums]:
            seen_enums.append(leaf.ty)
    for et in seen_enums:
        ctors = " ".join(f"({v})" for v in et.variant_names())
        lines.append(f"(declare-datatypes (({et.name} 0)) (({ctors})))")
    if any(_mentions_round(l) for l in query.literals):
        lines.append(_ROUND_DEF)
    for leaf in query.decls:
        lines.append(f"(declare-const {_symname(leaf.name)} {_sort_of_leaf(leaf.ty)})")
    for lit in query.literals:
        lines.append(f"(assert {em.emit(lit)})")
    lines.append("(check-sat)")
    if get_model:
        lines.append("(get-model)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# S-expression reader for (get-model) replies


def _tokenize_sexpr(text: str):
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        elif c in "()":
            yield c
            i += 1
        elif c == "|":
            j = text.index("|", i + 1)
            yield text[i:j + 1]
            i = j + 1
        elif c == '"':
            j = text.index('"', i + 1)
            yield text[i:j + 1]
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            yield text[i:j]
            i = j


_SKIP = re.compile(r"(?:\s+|;[^\n]*\n)*")
_DELIM = re.compile(r'[()|";]')
_ATOM_END = re.compile(r"[\s()]")


def _sexpr_end(text: str) -> Optional[int]:
    """End index of the first complete S-expression in `text` (an atom
    counts once a delimiter follows it), or None while it is incomplete."""
    i = _SKIP.match(text).end()
    if i == len(text) or text[i] == ";":
        return None
    if text[i] not in '()|"':
        m = _ATOM_END.search(text, i)
        return None if m is None else m.start()
    depth = 0
    while True:
        m = _DELIM.search(text, i)
        if m is None:
            return None
        c, i = m.group(), m.end()
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        else:
            close = "\n" if c == ";" else c
            j = text.find(close, i)
            if j < 0:
                return None
            i = j + 1
        if depth <= 0:
            return i


def parse_sexprs(text: str) -> list:
    """The S-expressions of `text` as nested token lists; ValueError if unbalanced."""
    stack: list = [[]]
    for tok in _tokenize_sexpr(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            done = stack.pop()
            if not stack:
                raise ValueError("unbalanced parenthesis")
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise ValueError("unbalanced parenthesis")
    return stack[0]


def _atom_value(node, ty) -> Value:
    def frac(x) -> Fraction:
        if isinstance(x, list):
            if len(x) == 2 and x[0] == "-":
                return -frac(x[1])
            if len(x) == 3 and x[0] == "/":
                return frac(x[1]) / frac(x[2])
            raise SolverFailure(f"cannot read numeral {x!r}")
        return Fraction(x)

    if ty == BOOL:
        return VBool(node == "true")
    if ty == INT:
        f = frac(node)
        return VInt(f.numerator)
    if ty == MONEY:
        f = frac(node)
        return VMoney(f.numerator)
    if ty == RAT:
        return VRat(frac(node))
    if isinstance(ty, EnumT):
        name = node[0] if isinstance(node, list) else node
        name = name.strip("|")
        if name not in ty.variant_names():
            raise SolverFailure(f"unknown variant {name!r} for enum {ty.name}")
        return VEnum(ty.name, name)
    raise SolverFailure(f"cannot read model value of type {ty}")


def parse_model(reply: str, query: Query) -> dict:
    """Extract a leaf model from a get-model reply; missing leaves get their
    type default (solvers omit don't-care constants).  An ``(error ...)``
    reply raises `SolverFailure`."""
    try:
        sexprs = parse_sexprs(reply)
    except ValueError as e:
        raise SolverFailure(f"{e} in model reply") from None
    assignments: dict = {}
    for node in sexprs:
        if not isinstance(node, list):
            continue
        if node and node[0] == "error":
            raise SolverFailure(f"solver error in model reply: {reply.strip()[:200]}")
        entries = node
        if entries and entries[0] == "model":
            entries = entries[1:]
        for entry in entries:
            if (isinstance(entry, list) and len(entry) >= 5
                    and entry[0] == "define-fun"):
                name = entry[1].strip("|")
                body = entry[4]
                assignments[name] = body
    model = {}
    for leaf in query.decls:
        if leaf.name in assignments:
            model[leaf.name] = _atom_value(assignments[leaf.name], leaf.ty)
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

    The command must run interactively: answer each ``(check-sat)`` as it
    arrives and accept ``(reset)`` (``z3 -in``, or the bundled
    ``scripts/smtlib_solve.py``).  The process starts on the first check and
    serves every later one, also across the sessions and `explore` calls
    that share this backend.  `close` (or leaving a ``with`` block) kills
    it, and the next check starts a new one; a backend dropped or left open
    at exit kills its process too.

    A check writes the query's script and ``(check-sat)``, preceded by
    ``(reset)`` on a reused process, and reads one verdict; on ``sat`` it
    writes ``(get-model)`` and reads one S-expression.  Reading waits at
    most `timeout` seconds per check.  A timeout, the solver closing its
    output, a pipe error or a reply that is not a verdict kills the process
    and raises `SolverFailure`.  The solver's stderr goes to a temporary
    file, whose tail is quoted in the failure message.
    """

    def __init__(self, command: str, timeout: float = 30.0):
        self.argv = shlex.split(command)
        self.timeout = timeout
        self._proc = None
        self._stderr = None
        self._stop = None  # kills the process; also runs if self is dropped
        self._decoder = None
        self._out = ""  # decoded solver output not yet consumed
        self._used = False  # a query was sent since the process started

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Kill and reap the solver process, if one is running."""
        if self._proc is not None:
            self._stop()
            self._proc = self._stderr = self._stop = None

    def check(self, query: Query):
        try:
            return self._check(query, time.monotonic() + self.timeout)
        except (OSError, ValueError, SolverFailure) as e:
            message = f"external solver failed: {e}{self._stderr_tail()}"
            self.close()
            raise SolverFailure(message) from e
        except BaseException:
            self.close()
            raise

    def _check(self, query: Query, deadline: float):
        if self._proc is None:
            self._start()
        script = emit_smtlib(query, get_model=False)
        verdict = self._ask(("(reset)\n" if self._used else "") + script, deadline)
        self._used = True
        if verdict == "unsat":
            return UNSAT
        if verdict == "unknown":
            return Unknown("external solver returned unknown")
        if verdict != "sat":
            raise SolverFailure(f"unexpected solver reply {verdict[:200]!r}")
        return Sat(parse_model(self._ask("(get-model)\n", deadline), query))

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
        self._used = False

    def _ask(self, text: str, deadline: float) -> str:
        """Write `text`, then read until the output holds one complete
        S-expression (a verdict is an atom) and return it.  Writing and
        reading are interleaved, so neither pipe can fill up and block."""
        proc = self._proc
        pending = text.encode()
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stdin, selectors.EVENT_WRITE)
            while True:
                if not pending:
                    end = _sexpr_end(self._out)
                    if end is not None:
                        reply, self._out = self._out[:end], self._out[end:]
                        return reply.strip()
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
    """Writes one numbered .smt2 file per query (the --emit-smtlib option)."""

    def __init__(self, directory):
        self.dir = directory
        self.count = 0
        os.makedirs(directory, exist_ok=True)

    def __call__(self, query: Query) -> None:
        path = os.path.join(self.dir, f"q{self.count:06d}.smt2")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(emit_smtlib(query))
        self.count += 1
