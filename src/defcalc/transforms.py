"""Source-to-source optimizations, all semantics-preserving.

* ``fold_match_cases`` merges match arms with alpha-equivalent bodies into a
  single arm guarded by the disjunction of their variant tests, so a match
  whose nine arms produce two distinct results explores two paths instead of
  nine.  Arms that bind a payload used by the body are left alone.
* ``reorder_exceptions`` stably groups a default term's exceptions by their
  sets of free input variables; the evaluation result is unchanged for
  every environment because exception order is value-irrelevant.
* ``simplify_frontend`` partially evaluates booleans and removes trivial
  defaults: an exception-free default with a ``true`` justification is its
  consequence, with a ``false`` justification it is the abstaining marker.
  ``&&`` and ``||`` share one rule: a unit operand (``true``, ``false``)
  drops out, and an absorbing one (``false``, ``true``) replaces the term
  when the other operand is total.

Each pass returns (program, TransformReport); zero counts mean the output
is structurally equal to the input.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lang import (
    Assert, BinOp, Binding, Call, Default, EnumMake, Expr, FieldGet,
    Function, If, Let, Lit, Match, MatchArm, Not, Opaque, Program, Scope,
    StructMake, Var, VBool, VEmpty, _plain_free_vars, children, free_input_vars,
    map_bottom_up,
)


@dataclass
class TransformReport:
    arms_folded: int = 0
    exceptions_regrouped: int = 0
    defaults_simplified: int = 0
    booleans_folded: int = 0

    def merge(self, other: "TransformReport") -> None:
        self.arms_folded += other.arms_folded
        self.exceptions_regrouped += other.exceptions_regrouped
        self.defaults_simplified += other.defaults_simplified
        self.booleans_folded += other.booleans_folded


def _map_program(program: Program, f) -> Program:
    """Rewrite every top-level expression with f(expr, scope); function
    bodies get scope None."""
    functions = tuple(Function(fn.name, fn.params, fn.ret, f(fn.body, None))
                      for fn in program.functions)
    scopes = tuple(
        Scope(sc.name, sc.inputs,
              tuple(f(a, sc) for a in sc.assertions),
              tuple(Binding(b.name, b.ty, f(b.expr, sc)) for b in sc.bindings),
              sc.outputs)
        for sc in program.scopes)
    return Program(program.enums, program.structs, functions, scopes)


# ---------------------------------------------------------------------------
# Pattern-match case folding


def _alpha_key(e: Expr, bound: dict) -> tuple:
    """Structure key under alpha-renaming of let/match binders."""
    match e:
        case Var(name):
            return ("var", bound.get(name, name))
        case Lit(v):
            return ("lit", v)
        case Let(name, b, body):
            inner = {**bound, name: f"${len(bound)}"}
            return ("let", _alpha_key(b, bound), _alpha_key(body, inner))
        case Match(scrut, arms):
            parts = [("match", _alpha_key(scrut, bound))]
            for a in arms:
                inner = bound
                if a.binder is not None:
                    inner = {**bound, a.binder: f"${len(bound)}"}
                parts.append((a.variants, a.binder is not None,
                              _alpha_key(a.body, inner)))
            return tuple(parts)
        case _:
            head = type(e).__name__
            extra = ()
            match e:
                case BinOp(op, _, _):
                    extra = (op,)
                case FieldGet(_, fname):
                    extra = (fname,)
                case EnumMake(n, v, _):
                    extra = (n, v)
                case StructMake(n, fields):
                    extra = (n, tuple(f for f, _ in fields))
                case Call(fname, _):
                    extra = (fname,)
                case Opaque(tag, _, _):
                    extra = (tag,)
            return (head, extra, tuple(_alpha_key(c, bound) for c in children(e)))


def _binder_used(arm: MatchArm) -> bool:
    if arm.binder is None:
        return False
    return arm.binder in _plain_free_vars(arm.body)


def _fold_one_match(e: Match, report: TransformReport) -> Expr:
    """Fold the arms of this match node only (children untouched)."""
    groups: list = []  # (key or None when unfoldable, [arm indices])
    keyed: dict = {}
    for i, arm in enumerate(e.arms):
        if _binder_used(arm):
            groups.append((None, [i]))
            continue
        key = _alpha_key(arm.body, {})
        if key in keyed:
            groups[keyed[key]][1].append(i)
        else:
            keyed[key] = len(groups)
            groups.append((key, [i]))
    if all(len(idxs) == 1 for _, idxs in groups):
        return e
    new_arms = []
    for _key, idxs in groups:
        first = e.arms[idxs[0]]
        if len(idxs) == 1:
            new_arms.append(first)
            continue
        variants: list = []
        has_wild = False
        for i in idxs:
            a = e.arms[i]
            if a.variants is None:
                has_wild = True
            else:
                variants.extend(a.variants)
        if has_wild:
            new_arms.append(MatchArm(None, None, first.body))
        else:
            new_arms.append(MatchArm(tuple(variants), None, first.body))
    if len(new_arms) == 1:
        new_arms = [MatchArm(None, None, new_arms[0].body)]
    report.arms_folded += len(e.arms) - len(new_arms)
    return Match(e.scrutinee, tuple(new_arms), span=e.span)


def _fold_matches(expr: Expr, report: TransformReport) -> Expr:
    return map_bottom_up(
        expr, lambda e: _fold_one_match(e, report) if isinstance(e, Match) else e)


def fold_match_cases(expr: Expr) -> tuple:
    """Fold every match in an expression; returns (expr, TransformReport)."""
    report = TransformReport()
    return _fold_matches(expr, report), report


def fold_program(program: Program) -> tuple:
    report = TransformReport()
    return _map_program(program, lambda e, _sc: _fold_matches(e, report)), report


# ---------------------------------------------------------------------------
# Exception regrouping


def reorder_exceptions(default: Default, scope: Scope) -> tuple:
    """Stably sort a default term's exceptions by their sorted free-input
    sets; groups with identical variable sets become adjacent."""
    keys = [tuple(sorted(free_input_vars(exc, scope))) for exc in default.exceptions]
    order = sorted(range(len(keys)), key=lambda i: (keys[i], i))
    if order == list(range(len(keys))):
        return default, TransformReport()
    new = tuple(default.exceptions[i] for i in order)
    report = TransformReport(exceptions_regrouped=1)
    return Default(new, default.just, default.cons, span=default.span), report


def reorder_program(program: Program) -> tuple:
    report = TransformReport()

    def regroup(expr: Expr, sc) -> Expr:
        if sc is None:  # free inputs exist only inside a scope
            return expr

        def one(e: Expr) -> Expr:
            if isinstance(e, Default) and len(e.exceptions) > 1:
                e, rep = reorder_exceptions(e, sc)
                report.merge(rep)
            return e

        return map_bottom_up(expr, one)

    return _map_program(program, regroup), report


# ---------------------------------------------------------------------------
# Frontend simplification


def _is_total(e: Expr) -> bool:
    """Conservative check that an expression can produce neither the empty
    nor the conflict value, so it may be erased by constant folding."""
    match e:
        case Default() | Opaque() | Assert() | Call():
            return False
        case BinOp("/", _, _):
            return False
        case Lit(VEmpty()):
            return False
        case _:
            return all(_is_total(c) for c in children(e))


def simplify_frontend_expr(expr: Expr) -> tuple:
    report = TransformReport()
    t, f = Lit(VBool(True)), Lit(VBool(False))

    def simp(e: Expr) -> Expr:
        match e:
            case Default((), Lit(VBool(True)), cons):
                report.defaults_simplified += 1
                return cons
            case Default((), Lit(VBool(False)), _):
                report.defaults_simplified += 1
                return Lit(VEmpty(), span=e.span)
            case If(Lit(VBool(b)), then, els):
                report.booleans_folded += 1
                return then if b else els
            case Not(Lit(VBool(b))):
                report.booleans_folded += 1
                return f if b else t
            case BinOp("&&" | "||" as op, lhs, rhs):
                unit, absorb = (t, f) if op == "&&" else (f, t)
                if lhs == unit or rhs == unit:
                    report.booleans_folded += 1
                    return rhs if lhs == unit else lhs
                if lhs == absorb and _is_total(rhs) or rhs == absorb and _is_total(lhs):
                    report.booleans_folded += 1
                    return absorb
                return e
            case _:
                return e

    # One pass is a fixpoint: `simp` sees a node after its children, and
    # returns either one of them (already rewritten), a literal (which no
    # rule matches), or the node itself when no rule does.
    return map_bottom_up(expr, simp), report


def simplify_frontend(program: Program) -> tuple:
    report = TransformReport()

    def simp(expr: Expr, _sc) -> Expr:
        out, rep = simplify_frontend_expr(expr)
        report.merge(rep)
        return out

    return _map_program(program, simp), report
