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

Binary operators, loosest first (`_PREC`): ``||``; ``&&``; the comparisons
``= != < <= > >=``; ``+ -``; ``* /``.  Each level associates to the left,
except that comparisons do not chain (``a < b < c`` is an error), and
``a != b`` means ``not (a = b)``.  At the top level of a default exception,
``<``, ``>``, ``&&`` and ``||`` must be parenthesized (a bare ``<`` or ``>``
ends the exception); ``=``, ``!=``, ``<=`` and ``>=`` need not be.  An
exception that starts with ``let``, ``if`` or ``match`` is read as a whole
expression.
"""

from __future__ import annotations

import re
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

# One token after any blanks and `#` comments: a name, a number (`3/2`
# without spaces is a rational, `25%` a percentage), a money literal (a `$`
# without digits is malformed; a comma joins it only before exactly three
# digits, so `f($1, x)` has two arguments), a punctuation mark (longest
# first), or any other character.  A name's first character must pass
# `str.isalpha`; `[^\W\d_]` also accepts `²` and `½`, which `_lex` reports
# as unexpected characters.  The tail cannot fail (`other` takes any
# character, and at the end the empty option matches), so the skip is never
# backtracked.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|\#[^\n]*)*(?:"
    r"(?P<name>[^\W\d_]\w*|_\w+)"
    r"|(?P<number>(?P<num>[0-9]+)(?:/(?P<den>[0-9]+)|(?P<pct>%))?)"
    r"|(?P<money>\$(?:(?P<dollars>[0-9]+(?:,[0-9]{3}(?![0-9]))*)(?:\.(?P<cents>[0-9]{2}))?)?)"
    r"|(?P<punct>" + "|".join(map(re.escape, _PUNCT)) + r")"
    r"|(?P<other>.))?", re.S)

# Token kind of a numeric literal -> its value's constructor.
_LITERAL = {"int": VInt, "rat": VRat, "pct": VRat, "money": VMoney}
_CONSTANT = {"true": VBool(True), "false": VBool(False), "empty": VEmpty()}
_TYPE = {"bool": BOOL, "int": INT, "rate": RAT, "money": MONEY}

# Binary operator precedence, read by the parser and the printer alike.
_PREC = {"||": 1, "&&": 2, "=": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3,
         "+": 4, "-": 4, "*": 5, "/": 5}
_CMP_PREC = _PREC["="]
_UNARY_PREC = 6
_ATOM_PREC = 8
# Inside `default <...>` a bare `<` or `>` ends an exception.
_EXCEPTION_PREC = {op: p for op, p in _PREC.items() if op not in ("<", ">")}


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


def _lex(text: str) -> tuple:
    toks: list = []
    diags: list = []
    pos = 0
    while True:
        m = _TOKEN.match(text, pos)
        kind = m.lastgroup
        if kind is None:  # only blanks and comments were left
            break
        start, pos = m.start(kind), m.end()
        word = m[kind]
        if kind == "name" and not (word[0].isalpha() or word[0] == "_"):
            kind, pos = "other", start + 1
        if kind == "number" or kind == "money" and m["dollars"]:
            try:
                toks.append(_numeric_token(m, kind, word, start, pos, diags))
            except ValueError:  # more digits than `int` converts; read on as a 0
                diags.append(Diagnostic("numeric literal too long", Span(start, pos)))
                toks.append(Token("money" if kind == "money" else "int", word, start, pos, 0))
        elif kind == "money":
            diags.append(Diagnostic("malformed money literal", Span(start, pos)))
        elif kind == "other":
            diags.append(Diagnostic(f"unexpected character {text[start]!r}",
                                    Span(start, start + 1)))
        else:
            toks.append(Token(kind, word, start, pos))
    toks.append(Token("eof", "", len(text), len(text)))
    return toks, diags


def _numeric_token(m: re.Match, kind: str, word: str, start: int, pos: int,
                   diags: list) -> Token:
    """The token of a number or money literal matched by `_TOKEN`."""
    if kind == "money":
        cents = int(m["dollars"].replace(",", "")) * 100 + int(m["cents"] or 0)
        return Token("money", word, start, pos, cents)
    num = int(m["num"])
    if m["pct"]:
        return Token("pct", word, start, pos, Fraction(num, 100))
    if not m["den"]:
        return Token("int", word, start, pos, num)
    den = int(m["den"])
    if den == 0:
        diags.append(Diagnostic("rational literal with zero denominator", Span(start, pos)))
        den = 1
    return Token("rat", word, start, pos, Fraction(num, den))


class _Parser:
    def __init__(self, unit: SourceUnit):
        self.unit = unit
        self.toks, self.diags = _lex(unit.text)
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

    def parse_list(self, opener: str, item, closer: str) -> tuple:
        """The comma-separated `item()`s between `opener` and `closer`, as a
        tuple, and the closing token."""
        self.expect(opener)
        items = []
        while not self.at(closer):
            items.append(item())
            if not self.at(closer):
                self.expect(",")
        return tuple(items), self.expect(closer)

    def parse_pair(self, what: str, item) -> tuple:
        """`name : item()`, as in a field, a parameter or an input."""
        name = self.expect_name(what).text
        self.expect(":")
        return name, item()

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
        return Program(tuple(filter(None, enums)), tuple(filter(None, structs)),
                       tuple(functions), tuple(scopes))

    def declared(self, kind, name: str, members: tuple, span: Span):
        """`kind(name, members)`, or None with the rule it breaks (no
        variants, a repeated name) reported at the declaration's `span`."""
        try:
            return kind(name, members)
        except ValueError as e:
            self.diags.append(Diagnostic(str(e), span))
            return None

    def parse_enum(self) -> Optional[EnumT]:
        start = self.expect("enum")
        name = self.expect_name("enum name").text
        variants, end = self.parse_list("{", self.parse_variant, "}")
        return self.declared(EnumT, name, variants, start.span.merge(end.span))

    def parse_variant(self) -> tuple:
        name = self.expect_name("variant name").text
        if not self.at("("):
            return name, None
        self.take()
        payload = self.parse_type()
        self.expect(")")
        return name, payload

    def parse_struct(self) -> Optional[StructT]:
        start = self.expect("struct")
        name = self.expect_name("struct name").text
        fields, end = self.parse_list(
            "{", lambda: self.parse_pair("field name", self.parse_type), "}")
        return self.declared(StructT, name, fields, start.span.merge(end.span))

    def parse_fn(self) -> Function:
        self.expect("fn")
        name = self.expect_name("function name").text
        params, _ = self.parse_list(
            "(", lambda: self.parse_pair("parameter name", self.parse_type), ")")
        self.expect("->")
        ret = self.parse_type()
        self.expect("=")
        return Function(name, params, ret, self.parse_expr())

    def parse_scope(self) -> Scope:
        self.expect("scope")
        name = self.expect_name("scope name").text
        self.expect("{")
        inputs, assertions, bindings, outputs = [], [], [], []
        while not self.at("}") and self.peek().kind != "eof":
            try:
                if self.at("input"):
                    self.take()
                    inputs.append(self.parse_pair("input name", self.parse_type))
                elif self.at("assert"):
                    self.take()
                    assertions.append(self.parse_expr())
                elif self.at("def"):
                    self.take()
                    n, ty = self.parse_pair("binding name", self.parse_type)
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
        if self.peek().text in _TYPE:
            return _TYPE[self.take().text]
        return _TypeRef(self.expect_name("type").text)

    # -- expressions ---------------------------------------------------------
    # Precedence: let/if/match < binary operators (`_PREC`) < unary <
    # postfix < atom.

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
            self.take()
            scrut = self.parse_binary(1)
            arms, end = self.parse_list("{", self.parse_arm, "}")
            return Match(scrut, arms, span=t.span.merge(end.span))
        return self.parse_binary(1)

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

    def parse_binary(self, min_prec: int, prec: dict = _PREC) -> Expr:
        """Operators of `prec` that bind at `min_prec` or tighter, read by
        precedence climbing.  Each level associates to the left, and
        comparisons do not chain: after an operator of level p the next one
        must bind looser than p + 1 (than p after a comparison).  A tighter
        one is a comparison that a deeper call refused to chain, and it must
        not be read here either."""
        e = self.parse_unary()
        ceiling = _UNARY_PREC
        while True:
            t = self.peek()
            p = prec.get(t.text, 0)
            if not min_prec <= p < ceiling:
                return e
            self.take()
            rhs = self.parse_binary(p + 1)
            if t.text == "!=":
                e = BinOp("=", e, rhs, span=_merge(e, rhs))
                e = Not(e, span=e.span)
            else:
                e = BinOp(t.text, e, rhs, span=_merge(e, rhs))
            ceiling = p if p == _CMP_PREC else p + 1

    def parse_unary(self) -> Expr:
        t = self.peek()
        if t.text == "not":
            self.take()
            arg = self.parse_unary()
            return Not(arg, span=t.span.merge(arg.span))
        if t.text == "-":
            # Unary minus folds into the following numeric literal only.
            lit = self.peek(1)
            if lit.kind in _LITERAL:
                self.take()
                self.take()
                return Lit(_LITERAL[lit.kind](-lit.value), span=t.span.merge(lit.span))
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
        if t.kind in _LITERAL:
            self.take()
            return Lit(_LITERAL[t.kind](t.value), span=t.span)
        if t.text in _CONSTANT:
            self.take()
            return Lit(_CONSTANT[t.text], span=t.span)
        if t.text == "(":
            self.take()
            e = self.parse_expr()
            self.expect(")")
            return e
        if t.text == "default":
            self.take()
            # A bare comparison would be ambiguous with the closing `>`.
            excs, _ = self.parse_list("<", self.parse_exception, ">")
            just, cons, end = self.parse_body()
            return Default(excs, just, cons, span=t.span.merge(end.span))
        if t.text == "rule":
            self.take()
            just, cons, end = self.parse_body()
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
            args, end = self.parse_list("(", self.parse_expr, ")")
            return Opaque(tag, ty, args, span=t.span.merge(end.span))
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
                args, end = self.parse_list("(", self.parse_expr, ")")
                return Call(name.text, args, span=name.span.merge(end.span))
            # Struct literal needs `Name { field :` lookahead to stay
            # distinguishable from a match body brace.
            if self.at("{") and self.peek(1).kind == "name" and self.peek(2).text == ":":
                fields, end = self.parse_list(
                    "{", lambda: self.parse_pair("field name", self.parse_expr), "}")
                return StructMake(name.text, fields, span=name.span.merge(end.span))
            return Var(name.text, span=name.span)
        raise _Bail(Diagnostic(f"expected expression, got {t.text or 'end of input'!r}", t.span))

    def parse_body(self) -> tuple:
        """`(just :- cons)` of a default or rule: just, cons and the `)`."""
        self.expect("(")
        just = self.parse_expr()
        self.expect(":-")
        cons = self.parse_expr()
        return just, cons, self.expect(")")

    def parse_exception(self) -> Expr:
        if self.peek().text in ("let", "if", "match"):
            return self.parse_expr()
        return self.parse_binary(_CMP_PREC, _EXCEPTION_PREC)


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
            # Comparisons do not chain, so a comparison's left operand is
            # parenthesized like its right one; arithmetic and boolean chains
            # print left-associated without parens.
            lp = p + 1 if p == _CMP_PREC else p
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
            # Exceptions print above the comparisons, so that no `<` or `>`
            # of theirs can be read as the end of the list.
            exc_strs = [print_expr(x, _CMP_PREC + 1) for x in excs]
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
