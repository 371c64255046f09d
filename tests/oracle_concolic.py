"""The concolic engine's default-term handling as it stood before the branch
trail replaced the local-constraint stack, kept as a differential oracle.

`ConcolicState` keeps a stack of local constraint lists: a default term
pushes one for its exceptions, each exception pushes one for its own trail,
and every popped list is flushed into its parent in order, except that an
early-error conflict drops the default's local list and keeps only the
erroring exception's trail.  The only edit to the original is `cv.value` in
place of the deleted one-line `cv_value` wrapper.

Tests swap `ConcolicState` and `_ceval_default` into `defcalc.concolic`
(`ceval` and `run_scope_concolic` look both up by module global), so the
rest of the engine is shared and only this bookkeeping differs.
"""

from __future__ import annotations

from typing import Optional

from defcalc import concolic
from defcalc.concolic import CV, BranchRecord, Origin, _Ctx
from defcalc.lang import EMPTY, Default, Span, VBool, VConflict, VEmpty, is_error
from defcalc.symbolic import TRUE, SymExpr, sym_free_vars, sym_not


class ConcolicState:
    """Path trail plus the stack of local constraint lists.  At the top
    level the stack is empty and records append straight to the path."""

    def __init__(self):
        self.path: list = []
        self.frames: list = []
        self.hard_mode = False

    def emit(self, record: BranchRecord) -> None:
        (self.frames[-1] if self.frames else self.path).append(record)

    def emit_cond(self, sym: Optional[SymExpr], taken: bool, origin: Origin,
                  span: Optional[Span]) -> None:
        if sym is None:
            self.emit_concretized(span)
            return
        literal = sym if taken else sym_not(sym)
        self.emit(BranchRecord(
            constraint=literal,
            taken=taken,
            origin=origin,
            trivial=not sym_free_vars(literal),
            hard=self.hard_mode,
            span=span,
        ))

    def emit_concretized(self, span: Optional[Span]) -> None:
        self.emit(BranchRecord(TRUE, True, Origin.OPAQUE_CONCRETIZED,
                               trivial=True, hard=self.hard_mode, span=span))

    def push_frame(self) -> None:
        self.frames.append([])

    def pop_frame(self) -> list:
        return self.frames.pop()

    def extend(self, records: list) -> None:
        for r in records:
            self.emit(r)


def _ceval_default(expr: Default, cenv: dict, state: ConcolicState, ctx: _Ctx):
    ceval = concolic.ceval
    state.push_frame()  # local constraints C for this default term
    non_empty: list = []

    for exc in expr.exceptions:
        state.push_frame()  # this exception's own trail χ'
        cv = ceval(exc, cenv, state, ctx)
        kappa = state.pop_frame()
        v = cv.value
        if isinstance(v, VConflict):
            local = state.pop_frame()
            if not ctx.opts.early_error:
                state.extend(local)
            state.extend(kappa)
            return cv
        if not isinstance(v, VEmpty):
            non_empty.append((cv, exc.span))
            if ctx.opts.lazy and len(non_empty) == 2:
                local = state.pop_frame()
                state.extend(local)
                state.extend(kappa)
                spans = tuple(s for _, s in non_empty if s)
                return CV(VConflict(spans=spans), None)
        state.extend([*kappa])  # merge into C (frame still on top)

    if len(non_empty) >= 2:
        local = state.pop_frame()
        state.extend(local)
        spans = tuple(s for _, s in non_empty[:2] if s)
        return CV(VConflict(spans=spans), None)
    if len(non_empty) == 1:
        local = state.pop_frame()
        state.extend(local)
        return non_empty[0][0]

    # All exceptions abstained: branch on the justification.
    jcv = ceval(expr.just, cenv, state, ctx)
    jv = jcv.value
    if is_error(jv):
        local = state.pop_frame()
        state.extend(local)
        return jcv
    assert isinstance(jv, VBool)
    jsym = jcv.sym if isinstance(jcv, CV) else None
    state.emit_cond(jsym, jv.b, Origin.JUSTIFICATION, expr.just.span or expr.span)
    local = state.pop_frame()
    state.extend(local)
    if jv.b:
        return ceval(expr.cons, cenv, state, ctx)
    return CV(EMPTY, None)
