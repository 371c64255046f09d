"""Span tracing by module attribute, for the traced benchmark run.

`Tracer.install` replaces each traced engine function with a wrapper, in
every loaded `defcalc` module (or class) that binds it, and `uninstall` puts
the originals back; nothing under `src/` is edited.  A wrapper records one
span per call (name, start, end, parent) under the current root span, whose
id all spans of one job share.  A call made while the innermost open span
has the same name (a recursive `simplify` or `linearize`) is passed through
without a span, so call counts are outermost calls.

Self time is a span's duration minus the durations of its direct children,
so the self times of every span under a root add up to the root's duration.
A target name that the engine no longer defines is recorded in `absent`; the
metrics that depend on it are then left out instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from dataclasses import fields

_now = time.perf_counter


def _rewrites(result) -> int:
    report = result[1]  # transforms return (program, TransformReport)
    return sum(getattr(report, f.name) for f in fields(report))


# (module, attribute path, value summed from each result or None)
TARGETS = (
    ("parser", "parse_or_raise", None),
    ("lang", "validate", None),
    ("transforms", "simplify_frontend", _rewrites),
    ("transforms", "fold_program", _rewrites),
    ("transforms", "reorder_program", _rewrites),
    ("explorer", "explore", None),
    ("concolic", "run_scope_concolic", lambda r: len(r[1])),
    ("explorer", "Frontier.reconcile", None),
    ("explorer", "Frontier.next_target", None),
    ("explorer", "Frontier.flip", None),
    ("explorer", "filter_trivial", None),
    ("explorer", "path_fingerprint", None),
    ("solver", "SolverSession.check", None),
    ("solver", "SolverSession.check_soft", None),
    ("solver", "simplify", None),
    ("solver", "linearize", None),
    ("solver", "_solve_branch", None),
    ("solver", "_solve_linear", None),
    ("solver", "_assert_model", None),
    ("smtlib", "emit_smtlib", None),
    ("smtlib", "ExternalSolver.check", None),
    ("smtlib", "parse_model", None),
    ("testkit", "emit_suite", len),
    ("interp", "run_scope", None),
)


def _resolve(module, path: str):
    """(owner, attribute, function) for a dotted path, or None if missing."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (root id, span id, parent id, name, start, end)
        self.keep_spans = True
        self.stack: list = []  # open spans: [span id, name, child seconds]
        self.totals: dict = {}  # span name -> [calls, self seconds, value]
        self.absent: list = []
        self._patched: list = []
        self._next_id = 0
        self._root = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self.absent = []
        loaded = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "defcalc" or n.startswith("defcalc."))]
        for mod_name, path, value in TARGETS:
            module = sys.modules.get(f"defcalc.{mod_name}")
            found = None if module is None else _resolve(module, path)
            if found is None:
                self.absent.append(f"{mod_name}.{path}")
                continue
            owner, attr, fn = found
            wrapper = self._wrap(f"{mod_name}.{path}", fn, value)
            if isinstance(owner, type):
                self._patch(owner, attr, fn, wrapper)
                continue
            for m in loaded:  # every module that imported the function by name
                for name, obj in list(vars(m).items()):
                    if obj is fn:
                        self._patch(m, name, fn, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _wrap(self, name: str, fn, value):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            tracer._next_id += 1
            sid = tracer._next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, name, 0.0]
            stack.append(frame)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                stack.pop()
                tracer._close(sid, parent, name, start, end, frame[2])
            if value is not None:
                tracer.totals[name][2] += value(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, sid, parent, name, start, end, child_s) -> None:
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0]
        tot[0] += 1
        tot[1] += dur - child_s
        if self.keep_spans:
            self.spans.append((self._root, sid, parent, name, start, end))

    # -- roots ------------------------------------------------------------

    def begin(self, root_id: int, name: str, keep_spans: bool = True) -> None:
        """Open a root span; totals restart so they belong to this root.
        With `keep_spans` false the spans are only added to the totals, which
        keeps memory bounded when a job is traced many times."""
        self.totals = {}
        self.keep_spans = keep_spans
        self._root = root_id
        self._next_id += 1
        self.stack = [[self._next_id, name, 0.0]]
        self._root_start = _now()

    def end(self) -> tuple:
        """Close the root span: (root seconds, totals by span name), where
        the totals include the root's own self time under the root's name."""
        end = _now()
        sid, name, child_s = self.stack.pop()
        self.stack = []
        dur = end - self._root_start
        self.totals[name] = [1, dur - child_s, 0]
        if self.keep_spans:
            self.spans.append((self._root, sid, 0, name, self._root_start, end))
        return dur, self.totals
