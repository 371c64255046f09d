"""Surface syntax for the default calculus: lexer, parser, and canonical
printer.

Files use the ``.dfc`` extension, UTF-8 text, ``#`` line comments.  The
grammar (keywords are exact)::

    enum Zone { Mainland, Overseas(int) }
    struct Household { income: money, kids: int }
    fn cap(x: int) -> int = if x > 4 then 4 else x
    scope Main {
      input income: money;
      assert income >= $0.00;
      def rate: rate = default <rule (income <= $10,000.00 :- 1/10)> (true :- 1/5);
      def tax: money = income * rate;
      output tax;
    }

Expressions: ``default <e1, e2> (just :- cons)`` builds a default term
(``<>`` may be empty); ``rule (just :- cons)`` abbreviates a default with no
exceptions.  Literals: ``true``/``false``, ``42``, ``3/2`` (rational, no
spaces), ``25%`` (rational sugar), ``$1,234.56`` (exact cents),
``Enum::Variant`` (optionally with a payload ``Enum::Variant(e)``), and the
internal abstaining marker ``empty``.  ``match e { V1 x => e1, V2 | V3 => e2,
_ => e3 }``, ``if/then/else``, ``let x = e in e``, ``not e``, calls
``f(e, e)``, struct literals ``Name { field: e }``, field access ``e.f``, and
``opaque tag : type (args)`` for constructs with concrete-only semantics.

A comparison or boolean operator at the top level of a default-exception
must be parenthesized (the plain ``<`` ``>`` would be read as the exception
list brackets).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .lang import (
    BOOL, INT, MONEY, RAT,
    Assert, BinOp, Binding, Call, Default, Diagnostic, EnumMake, EnumT, Expr,
    FieldGet, Function, If, Let, Lit, Match, MatchArm, Not, Opaque, Program,
    Scope, SemType, Span, StructMake, StructT, Value, Var, VBool, VConflict,
    VEmpty, VEnum, VInt, VMoney, VRat, VStruct, children, rebuild,
)

KEYWORDS = {
    "scope", "input", "assert", "def", "output", "enum", "struct", "fn",
    "default", "rule", "match", "if", "then", "else", "let", "in",
    "true", "false", "empty", "not", "opaque",
    "bool", "int", "rate", "money",
}

_PUNCT = [
    "::", ":-", "=>", "<=", ">=", "!=", "&&", "||", "->",
    "(", ")", "{", "}", "<", ">", "=", "+", "-", "*", "/",
    ".", ",", ";", ":", "|", "_",
]


def _is_digit(c: str) -> bool:
    return "0" <= c <= "9"


@dataclass(frozen=True)
class SourceUnit:
    path: str
    text: str

    def line_col(self, offset: int) -> tuple:
        prefix = self.text[:offset]
        line = prefix.count("\n") + 1
        col = offset - (prefix.rfind("\n") + 1) + 1
        return line, col


@dataclass
class Token:
    kind: str  # name | int | rat | money | pct | punct | eof
    text: str
    start: int
    end: int
    value: object = None

    @property
    def span(self) -> Span:
        return Span(self.start, self.end)


class ParseError(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(d.message for d in self.diagnostics))


@dataclass
class ParseResult:
    program: Optional[Program]
    diagnostics: list
    unit: SourceUnit

    @property
    def ok(self) -> bool:
        return self.program is not None and not self.diagnostics


def _lex(unit: SourceUnit) -> tuple:
    text = unit.text
    toks: list = []
    diags: list = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start = i
        if c.isalpha() or c == "_" and i + 1 < n and (text[i + 1].isalnum() or text[i + 1] == "_"):
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(Token("name", word, i, j))
            i = j
            continue
        if _is_digit(c):
            j = i
            while j < n and _is_digit(text[j]):
                j += 1
            num = int(text[i:j])
            # `3/2` without spaces is a rational literal; `3 / 2` divides.
            if j < n and text[j] == "/" and j + 1 < n and _is_digit(text[j + 1]):
                k = j + 1
                while k < n and _is_digit(text[k]):
                    k += 1
                den = int(text[j + 1:k])
                if den == 0:
                    diags.append(Diagnostic("rational literal with zero denominator", Span(i, k)))
                    den = 1
                toks.append(Token("rat", text[i:k], i, k, Fraction(num, den)))
                i = k
                continue
            if j < n and text[j] == "%":
                toks.append(Token("pct", text[i:j + 1], i, j + 1, Fraction(num, 100)))
                i = j + 1
                continue
            toks.append(Token("int", text[i:j], i, j, num))
            i = j
            continue
        if c == "$":
            j = i + 1
            if j >= n or not _is_digit(text[j]):
                diags.append(Diagnostic("malformed money literal", Span(i, i + 1)))
                i += 1
                continue
            while j < n and (_is_digit(text[j]) or text[j] == ","):
                j += 1
            dollars = int(text[i + 1:j].replace(",", ""))
            cents = 0
            if j < n and text[j] == "." and len(text[j + 1:j + 3]) == 2 and all(_is_digit(ch) for ch in text[j + 1:j + 3]):
                cents = int(text[j + 1:j + 3])
                j += 3
            toks.append(Token("money", text[i:j], i, j, dollars * 100 + cents))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(Token("punct", p, i, i + len(p)))
                i += len(p)
                break
        else:
            diags.append(Diagnostic(f"unexpected character {c!r}", Span(i, i + 1)))
            i += 1
    toks.append(Token("eof", "", n, n))
    return toks, diags


class _Parser:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.toks, self.diags = _lex(unit)
        self.pos = 0
        self.saw_opaque = False

    # -- token helpers -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.text == text and t.kind in ("punct", "name")

    def take(self) -> Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        if self.at(text):
            return self.take()
        t = self.peek()
        got = t.text or "end of input"
        raise _Bail(Diagnostic(f"expected {text!r}, got {got!r}", t.span))

    def expect_name(self, what: str = "name") -> Token:
        t = self.peek()
        if t.kind == "name" and t.text not in KEYWORDS:
            return self.take()
        raise _Bail(Diagnostic(f"expected {what}, got {t.text!r}", t.span))

    def sync_to(self, stops: tuple):
        # Error recovery: skip tokens until one of `stops` (consumed when it
        # is a ';') or a closing brace / EOF.
        while True:
            t = self.peek()
            if t.kind == "eof" or t.text == "}":
                return
            if t.text in stops:
                if t.text == ";":
                    self.take()
                return
            self.take()

    # -- declarations ------------------------------------------------------

    def parse_program(self) -> Program:
        enums, structs, functions, scopes = [], [], [], []
        while self.peek().kind != "eof":
            try:
                if self.at("enum"):
                    enums.append(self.parse_enum())
                elif self.at("struct"):
                    structs.append(self.parse_struct())
                elif self.at("fn"):
                    functions.append(self.parse_fn())
                elif self.at("scope"):
                    scopes.append(self.parse_scope())
                else:
                    t = self.peek()
                    raise _Bail(Diagnostic(f"expected declaration, got {t.text!r}", t.span))
            except _Bail as b:
                self.diags.append(b.diagnostic)
                self.sync_to((";",))
                if self.at("}"):
                    self.take()
        return Program(tuple(enums), tuple(structs), tuple(functions), tuple(scopes))

    def parse_enum(self) -> EnumT:
        self.expect("enum")
        name = self.expect_name("enum name").text
        self.expect("{")
        variants = []
        while not self.at("}"):
            v = self.expect_name("variant name").text
            payload = None
            if self.at("("):
                self.take()
                payload = self.parse_type()
                self.expect(")")
            variants.append((v, payload))
            if not self.at("}"):
                self.expect(",")
        self.expect("}")
        return EnumT(name, tuple(variants))

    def parse_struct(self) -> StructT:
        self.expect("struct")
        name = self.expect_name("struct name").text
        self.expect("{")
        fields = []
        while not self.at("}"):
            f = self.expect_name("field name").text
            self.expect(":")
            fields.append((f, self.parse_type()))
            if not self.at("}"):
                self.expect(",")
        self.expect("}")
        return StructT(name, tuple(fields))

    def parse_fn(self) -> Function:
        self.expect("fn")
        name = self.expect_name("function name").text
        self.expect("(")
        params = []
        while not self.at(")"):
            p = self.expect_name("parameter name").text
            self.expect(":")
            params.append((p, self.parse_type()))
            if not self.at(")"):
                self.expect(",")
        self.expect(")")
        self.expect("->")
        ret = self.parse_type()
        self.expect("=")
        body = self.parse_expr()
        return Function(name, tuple(params), ret, body)

    def parse_scope(self) -> Scope:
        self.expect("scope")
        name = self.expect_name("scope name").text
        self.expect("{")
        inputs, assertions, bindings, outputs = [], [], [], []
        while not self.at("}") and self.peek().kind != "eof":
            try:
                if self.at("input"):
                    self.take()
                    n = self.expect_name("input name").text
                    self.expect(":")
                    inputs.append((n, self.parse_type()))
                elif self.at("assert"):
                    self.take()
                    assertions.append(self.parse_expr())
                elif self.at("def"):
                    self.take()
                    n = self.expect_name("binding name").text
                    self.expect(":")
                    ty = self.parse_type()
                    self.expect("=")
                    bindings.append(Binding(n, ty, self.parse_expr()))
                elif self.at("output"):
                    self.take()
                    outputs.append(self.expect_name("output name").text)
                else:
                    t = self.peek()
                    raise _Bail(Diagnostic(f"expected scope item, got {t.text!r}", t.span))
                self.expect(";")
            except _Bail as b:
                self.diags.append(b.diagnostic)
                self.sync_to((";",))
        self.expect("}")
        return Scope(name, tuple(inputs), tuple(assertions), tuple(bindings), tuple(outputs))

    def parse_type(self) -> SemType:
        t = self.peek()
        if t.text == "bool":
            self.take(); return BOOL
        if t.text == "int":
            self.take(); return INT
        if t.text == "rate":
            self.take(); return RAT
        if t.text == "money":
            self.take(); return MONEY
        if t.kind == "name" and t.text not in KEYWORDS:
            self.take()
            return _TypeRef(t.text)
        raise _Bail(Diagnostic(f"expected type, got {t.text!r}", t.span))

    # -- expressions ---------------------------------------------------------
    # Precedence: || < && < comparison < + - < * / < unary < postfix < atom.

    def parse_expr(self) -> Expr:
        t = self.peek()
        if t.text == "let":
            self.take()
            name = self.expect_name().text
            self.expect("=")
            bound = self.parse_expr()
            self.expect("in")
            body = self.parse_expr()
            return Let(name, bound, body, span=t.span.merge(body.span))
        if t.text == "if":
            self.take()
            cond = self.parse_expr()
            self.expect("then")
            then = self.parse_expr()
            self.expect("else")
            els = self.parse_expr()
            return If(cond, then, els, span=t.span.merge(els.span))
        if t.text == "match":
            return self.parse_match()
        return self.parse_or()

    def parse_match(self) -> Expr:
        t = self.expect("match")
        scrut = self.parse_or()
        self.expect("{")
        arms = []
        while not self.at("}"):
            arms.append(self.parse_arm())
            if not self.at("}"):
                self.expect(",")
        end = self.expect("}")
        return Match(scrut, tuple(arms), span=t.span.merge(end.span))

    def parse_arm(self) -> MatchArm:
        if self.at("_"):
            self.take()
            self.expect("=>")
            return MatchArm(None, None, self.parse_expr())
        variants = [self.expect_name("variant name").text]
        binder = None
        if self.peek().kind == "name" and self.peek().text not in KEYWORDS:
            binder = self.take().text
        else:
            while self.at("|"):
                self.take()
                variants.append(self.expect_name("variant name").text)
        self.expect("=>")
        return MatchArm(tuple(variants), binder, self.parse_expr())

    def parse_or(self) -> Expr:
        e = self.parse_and()
        while self.at("||"):
            self.take()
            rhs = self.parse_and()
            e = BinOp("||", e, rhs, span=_merge(e, rhs))
        return e

    def parse_and(self) -> Expr:
        e = self.parse_cmp()
        while self.at("&&"):
            self.take()
            rhs = self.parse_cmp()
            e = BinOp("&&", e, rhs, span=_merge(e, rhs))
        return e

    def parse_cmp(self, no_angle: bool = False) -> Expr:
        e = self.parse_add()
        t = self.peek()
        ops = ("=", "!=", "<=", ">=") if no_angle else ("=", "!=", "<", "<=", ">", ">=")
        if t.kind == "punct" and t.text in ops:
            self.take()
            rhs = self.parse_add()
            if t.text == "!=":
                inner = BinOp("=", e, rhs, span=_merge(e, rhs))
                return Not(inner, span=inner.span)
            return BinOp(t.text, e, rhs, span=_merge(e, rhs))
        return e

    def parse_add(self) -> Expr:
        e = self.parse_mul()
        while self.peek().kind == "punct" and self.peek().text in ("+", "-"):
            op = self.take().text
            rhs = self.parse_mul()
            e = BinOp(op, e, rhs, span=_merge(e, rhs))
        return e

    def parse_mul(self) -> Expr:
        e = self.parse_unary()
        while self.peek().kind == "punct" and self.peek().text in ("*", "/"):
            op = self.take().text
            rhs = self.parse_unary()
            e = BinOp(op, e, rhs, span=_merge(e, rhs))
        return e

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text == "not":
            self.take()
            arg = self.parse_unary()
            return Not(arg, span=t.span.merge(arg.span))
        if t.text == "-":
            # Unary minus folds into the following numeric literal only.
            nxt = self.peek(1)
            if nxt.kind in ("int", "rat", "pct", "money"):
                self.take()
                lit = self.take()
                return Lit(_negate_literal(lit), span=t.span.merge(lit.span))
            raise _Bail(Diagnostic(
                "unary minus is only supported on numeric literals "
                "(write `$0.00 - e` or `0 - e` instead)", t.span))
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        e = self.parse_atom()
        while self.at("."):
            self.take()
            f = self.expect_name("field name")
            e = FieldGet(e, f.text, span=f.span if e.span is None else e.span.merge(f.span))
        return e

    def parse_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int":
            self.take()
            return Lit(VInt(t.value), span=t.span)
        if t.kind in ("rat", "pct"):
            self.take()
            return Lit(VRat(t.value), span=t.span)
        if t.kind == "money":
            self.take()
            return Lit(VMoney(t.value), span=t.span)
        if t.text == "true":
            self.take()
            return Lit(VBool(True), span=t.span)
        if t.text == "false":
            self.take()
            return Lit(VBool(False), span=t.span)
        if t.text == "empty":
            self.take()
            return Lit(VEmpty(), span=t.span)
        if t.text == "(":
            self.take()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "default":
            return self.parse_default()
        if t.text == "rule":
            self.take()
            self.expect("(")
            just = self.parse_expr()
            self.expect(":-")
            cons = self.parse_expr()
            end = self.expect(")")
            return Default((), just, cons, span=t.span.merge(end.span))
        if t.text == "assert":
            self.take()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(",")
            body = self.parse_expr()
            end = self.expect(")")
            return Assert(cond, body, span=t.span.merge(end.span))
        if t.text == "opaque":
            self.take()
            self.saw_opaque = True
            tag = self.expect_name("opaque tag").text
            self.expect(":")
            ty = self.parse_type()
            self.expect("(")
            args = []
            while not self.at(")"):
                args.append(self.parse_expr())
                if not self.at(")"):
                    self.expect(",")
            end = self.expect(")")
            return Opaque(tag, ty, tuple(args), span=t.span.merge(end.span))
        if t.kind == "name" and t.text not in KEYWORDS:
            name = self.take()
            if self.at("::"):
                self.take()
                variant = self.expect_name("variant name")
                payload = None
                if self.at("("):
                    self.take()
                    payload = self.parse_expr()
                    self.expect(")")
                return EnumMake(name.text, variant.text, payload,
                                span=name.span.merge(variant.span))
            if self.at("("):
                self.take()
                args = []
                while not self.at(")"):
                    args.append(self.parse_expr())
                    if not self.at(")"):
                        self.expect(",")
                end = self.expect(")")
                return Call(name.text, tuple(args), span=name.span.merge(end.span))
            # Struct literal needs `Name { field :` lookahead to stay
            # distinguishable from a match body brace.
            if self.at("{") and self.peek(1).kind == "name" and self.peek(2).text == ":":
                self.take()
                fields = []
                while not self.at("}"):
                    f = self.expect_name("field name").text
                    self.expect(":")
                    fields.append((f, self.parse_expr()))
                    if not self.at("}"):
                        self.expect(",")
                end = self.expect("}")
                return StructMake(name.text, tuple(fields), span=name.span.merge(end.span))
            return Var(name.text, span=name.span)
        raise _Bail(Diagnostic(f"expected expression, got {t.text or 'end of input'!r}", t.span))

    def parse_default(self) -> Expr:
        t = self.expect("default")
        self.expect("<")
        excs = []
        while not self.at(">"):
            # Inside the exception brackets, a bare comparison would be
            # ambiguous with the closing `>`; exceptions parse at additive
            # precedence and lower-precedence operators need parens.
            excs.append(self.parse_exception_expr())
            if not self.at(">"):
                self.expect(",")
        self.expect(">")
        self.expect("(")
        just = self.parse_expr()
        self.expect(":-")
        cons = self.parse_expr()
        end = self.expect(")")
        return Default(tuple(excs), just, cons, span=t.span.merge(end.span))

    def parse_exception_expr(self) -> Expr:
        t = self.peek()
        if t.text in ("let", "if", "match"):
            return self.parse_expr()
        return self.parse_cmp(no_angle=True)


class _Bail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


@dataclass(frozen=True)
class _TypeRef:
    """Unresolved enum/struct name; resolved against declarations after the
    whole unit is parsed."""
    name: str


def _merge(e: Expr, rhs: Optional[Expr]) -> Optional[Span]:
    if e.span is None:
        return None if rhs is None else rhs.span
    if rhs is None or rhs.span is None:
        return e.span
    return e.span.merge(rhs.span)


def _negate_literal(tok: Token) -> Value:
    if tok.kind == "int":
        return VInt(-tok.value)
    if tok.kind in ("rat", "pct"):
        return VRat(-tok.value)
    return VMoney(-tok.value)


def _resolve_types(program: Program, diags: list, has_opaque: bool) -> Program:
    enums = {e.name: e for e in program.enums}
    structs = {s.name: s for s in program.structs}

    def res(ty):
        if isinstance(ty, _TypeRef):
            if ty.name in enums:
                return enums[ty.name]
            if ty.name in structs:
                return structs[ty.name]
            diags.append(Diagnostic(f"unknown type {ty.name}"))
            return INT
        return ty

    def res_expr(e: Expr) -> Expr:
        if not has_opaque:  # an opaque node is the only expression with a type
            return e
        if isinstance(e, Opaque):  # its own type first, for source-ordered diagnostics
            e = Opaque(e.tag, res(e.ty), e.args, span=e.span)
        return rebuild(e, [res_expr(c) for c in children(e)])

    enums = {e.name: EnumT(e.name, tuple((v, res(p) if p else None) for v, p in e.variants))
             for e in program.enums}
    structs = {s.name: StructT(s.name, tuple((f, res(t)) for f, t in s.fields))
               for s in program.structs}
    functions = tuple(
        Function(f.name, tuple((p, res(t)) for p, t in f.params), res(f.ret), res_expr(f.body))
        for f in program.functions)
    scopes = tuple(
        Scope(s.name,
              tuple((n, res(t)) for n, t in s.inputs),
              tuple(res_expr(a) for a in s.assertions),
              tuple(Binding(b.name, res(b.ty), res_expr(b.expr)) for b in s.bindings),
              s.outputs)
        for s in program.scopes)
    return Program(tuple(enums.values()), tuple(structs.values()), functions, scopes)


def parse(text: str, path: str = "<input>") -> ParseResult:
    """Parse a source unit.  Never raises on arbitrary input; diagnostics
    carry spans and the scan recovers at ``;`` boundaries."""
    unit = SourceUnit(path, text)
    p = _Parser(unit)
    try:
        program = p.parse_program()
    except _Bail as b:  # top-level bail with no recovery point left
        p.diags.append(b.diagnostic)
        program = Program()
    program = _resolve_types(program, p.diags, p.saw_opaque)
    return ParseResult(program, p.diags, unit)


def parse_or_raise(text: str, path: str = "<input>") -> Program:
    res = parse(text, path)
    if res.diagnostics:
        raise ParseError(res.diagnostics)
    assert res.program is not None
    return res.program


def parse_literal(text: str) -> Value:
    """Parse a single literal value (used for CLI input hints)."""
    res = _Parser(SourceUnit("<literal>", text))
    try:
        e = res.parse_unary() if text.lstrip().startswith("-") else res.parse_atom()
    except _Bail as b:
        raise ParseError([b.diagnostic])
    if res.peek().kind != "eof" or res.diags:
        raise ParseError(res.diags or [Diagnostic(f"trailing input in literal {text!r}")])
    match e:
        case Lit(v):
            return v
        case EnumMake(enum, variant, None):
            return VEnum(enum, variant)
        case EnumMake(enum, variant, Lit(v)):
            return VEnum(enum, variant, v)
    raise ParseError([Diagnostic(f"not a literal: {text!r}")])


# ---------------------------------------------------------------------------
# Canonical printer.  parse(print(p)) is structurally equal to p for every
# validated program.

_PREC = {"||": 1, "&&": 2, "=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
         "+": 4, "-": 4, "*": 5, "/": 5}
_UNARY_PREC = 6
_ATOM_PREC = 8


def print_money(cents: int) -> str:
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    dollars, c = divmod(cents, 100)
    return f"{sign}${dollars:,}.{c:02d}"


def print_value(v: Value) -> str:
    match v:
        case VBool(b):
            return "true" if b else "false"
        case VInt(i):
            return str(i)
        case VRat(q):
            if q.denominator == 1 and q.numerator < 0:
                return f"{q.numerator}/1"
            return f"{q.numerator}/{q.denominator}"
        case VMoney(cents):
            return print_money(cents)
        case VEnum(enum, variant, payload):
            if payload is None:
                return f"{enum}::{variant}"
            return f"{enum}::{variant}({print_value(payload)})"
        case VStruct(struct, fields):
            inner = ", ".join(f"{f}: {print_value(x)}" for f, x in fields)
            return f"{struct} {{ {inner} }}"
        case VEmpty():
            return "empty"
        case VConflict():
            return "conflict"
    raise TypeError(f"not a value: {v!r}")


def print_type(ty: SemType) -> str:
    return str(ty)


def print_expr(e: Expr, prec: int = 0) -> str:
    def wrap(s: str, myprec: int) -> str:
        return f"({s})" if myprec < prec else s

    match e:
        case Var(name):
            return name
        case Lit(v):
            return print_value(v)
        case BinOp(op, lhs, rhs):
            p = _PREC[op]
            # Comparisons are non-associative; arithmetic chains print
            # left-associated without parens.
            lp = p if op in ("=", "<", "<=", ">", ">=") else p
            rs = print_expr(rhs, p + 1)
            ls = print_expr(lhs, lp)
            return wrap(f"{ls} {op} {rs}", p)
        case Not(arg):
            return wrap(f"not {print_expr(arg, _UNARY_PREC)}", _UNARY_PREC)
        case If(c, t, el):
            s = f"if {print_expr(c)} then {print_expr(t)} else {print_expr(el)}"
            return wrap(s, 0)
        case Match(scrut, arms):
            parts = []
            for a in arms:
                if a.variants is None:
                    pat = "_"
                elif a.binder is not None:
                    pat = f"{a.variants[0]} {a.binder}"
                else:
                    pat = " | ".join(a.variants)
                parts.append(f"{pat} => {print_expr(a.body)}")
            return f"match {print_expr(scrut, _UNARY_PREC)} {{ {', '.join(parts)} }}"
        case StructMake(name, fields):
            inner = ", ".join(f"{f}: {print_expr(x)}" for f, x in fields)
            return f"{name} {{ {inner} }}"
        case FieldGet(arg, f):
            return f"{print_expr(arg, _ATOM_PREC)}.{f}"
        case EnumMake(enum, variant, payload):
            if payload is None:
                return f"{enum}::{variant}"
            return f"{enum}::{variant}({print_expr(payload)})"
        case Let(name, bound, body):
            return wrap(f"let {name} = {print_expr(bound)} in {print_expr(body)}", 0)
        case Call(fname, args):
            return f"{fname}({', '.join(print_expr(a) for a in args)})"
        case Default(excs, just, cons):
            # Exceptions parse at additive precedence: parenthesize anything
            # lower so the closing `>` stays unambiguous.
            exc_strs = [print_expr(x, 4) for x in excs]
            inner = ", ".join(exc_strs)
            body = f"({print_expr(just)} :- {print_expr(cons)})"
            if inner:
                return f"default <{inner}> {body}"
            return f"default <> {body}"
        case Assert(cond, body):
            return f"assert({print_expr(cond)}, {print_expr(body)})"
        case Opaque(tag, ty, args):
            return f"opaque {tag} : {print_type(ty)} ({', '.join(print_expr(a) for a in args)})"
    raise TypeError(f"not an expression: {e!r}")


def print_program(p: Program) -> str:
    out: list = []
    for e in p.enums:
        vs = ", ".join(v if pt is None else f"{v}({print_type(pt)})" for v, pt in e.variants)
        out.append(f"enum {e.name} {{ {vs} }}")
    for s in p.structs:
        fs = ", ".join(f"{f}: {print_type(t)}" for f, t in s.fields)
        out.append(f"struct {s.name} {{ {fs} }}")
    for f in p.functions:
        ps = ", ".join(f"{n}: {print_type(t)}" for n, t in f.params)
        out.append(f"fn {f.name}({ps}) -> {print_type(f.ret)} = {print_expr(f.body)}")
    for sc in p.scopes:
        out.append(f"scope {sc.name} {{")
        for n, t in sc.inputs:
            out.append(f"  input {n}: {print_type(t)};")
        for a in sc.assertions:
            out.append(f"  assert {print_expr(a)};")
        for b in sc.bindings:
            out.append(f"  def {b.name}: {print_type(b.ty)} = {print_expr(b.expr)};")
        for o in sc.outputs:
            out.append(f"  output {o};")
        out.append("}")
    return "\n".join(out) + "\n"
