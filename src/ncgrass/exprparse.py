"""Expression parsing for the command-line tools.

Scannerless recursive descent over the grammar

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^-1']
    atom   := INT | RAT | gen | '(' expr ')'
    gen    := 'a(' l ',' m ';' i ',' j ')' | 'd(' l ',' m '|' p ',' q ')' | 'x(' k ')'

Whitespace is insignificant.  A '-' in atom position starts a negative
literal; canonical printing writes a negative leading coefficient as
``-1*word``, and this rule is what keeps parse(print(p)) == p.

Generator atoms are resolved against a presentation context: the text
``a(1,2;1,3)`` is only meaningful inside a presentation whose generator
set contains that entry, and ``^-1`` on a generator requires the formal
inverse to be a generator as well.
"""

from __future__ import annotations

from fractions import Fraction

from . import symbols as sy
from .poly import NcPoly


class ExprError(ValueError):
    """Base class for parse, literal and symbol-resolution failures."""


class ParseError(ExprError):
    """Malformed input text; offset is the 1-based position of the defect."""

    def __init__(self, offset: int):
        self.offset = offset
        super().__init__(f"syntax error at offset {offset}")


class UnknownGeneratorError(ExprError):
    """Structurally valid text naming a symbol the context does not provide."""


# each generator head: the separators between its indices, and the builder
# that takes the indices in order
_GENERATORS = {
    "a": ((",", ";", ","), lambda l, m, i, j: sy.entry((l, m), i, j)),
    "d": ((",", "|", ","), lambda l, m, p, q: sy.quasi_det((l, m), (p, q))),
    "x": ((), sy.module_var),
}


class _Parser:
    def __init__(self, text: str, context):
        self.text = text
        self.pos = 0
        self.pres = context
        self.names = context.names()
        self.field = context.field

    def fail(self):
        raise ParseError(self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str):
        self.skip_ws()
        if self.peek() != ch:
            self.fail()
        self.pos += 1

    def parse(self) -> NcPoly:
        p = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail()
        return p

    def expr(self) -> NcPoly:
        p = self.term()
        while True:
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                p = p + self.term()
            elif ch == "-":
                self.pos += 1
                p = p - self.term()
            else:
                return p

    def term(self) -> NcPoly:
        p = self.factor()
        while True:
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                p = p * self.factor()
            else:
                return p

    def factor(self) -> NcPoly:
        p = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.take("-")
            self.take("1")
            if self.peek().isdigit():
                self.fail()
            return self.invert(p)
        return p

    def invert(self, p: NcPoly) -> NcPoly:
        if len(p.terms) != 1:
            raise UnknownGeneratorError("only nonzero scalars and monomials can be inverted")
        ((word, c),) = p.terms.items()
        letters = []
        for s in reversed(word):
            try:
                t = sy.inverse_symbol(s)
            except ValueError:
                raise UnknownGeneratorError(f"{sy.sym_name(s)} has no inverse") from None
            if sy.sym_name(t) not in self.names:
                raise UnknownGeneratorError(
                    f"{sy.sym_name(s)} is not invertible in {self.pres.name}"
                )
            letters.append(t)
        return NcPoly.from_word(self.field, tuple(letters), self.field.inv(c))

    def atom(self) -> NcPoly:
        self.skip_ws()
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            p = self.expr()
            self.take(")")
            return p
        if ch == "-" or ch.isdigit():
            return NcPoly.scalar(self.field, self.number())
        if ch in _GENERATORS:
            return self.generator()
        self.fail()

    def number(self):
        neg = False
        if self.peek() == "-":
            neg = True
            self.pos += 1
        num = self.digits()
        den = 1
        save = self.pos
        self.skip_ws()
        if self.peek() == "/":
            self.pos += 1
            self.skip_ws()
            mark = self.pos
            den = self.digits()
            if self.field.is_zero(self.field.coerce(den)):
                raise ExprError(
                    f"denominator {den} is zero in field {self.field.key} at offset {mark + 1}"
                )
        else:
            self.pos = save
        value = Fraction(-num if neg else num, den)
        return self.field.coerce(value)

    def digits(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail()
        return int(self.text[start : self.pos])

    def generator(self) -> NcPoly:
        start = self.pos
        separators, make = _GENERATORS[self.peek()]
        self.pos += 1
        self.take("(")
        indices = [self.digits()]
        for sep in separators:
            self.take(sep)
            indices.append(self.digits())
        self.take(")")
        text = self.text[start : self.pos]
        try:
            sid = make(*indices)
        except ValueError:
            raise UnknownGeneratorError(f"unknown generator {text}") from None
        name = sy.sym_name(sid)
        if name not in self.names:
            raise UnknownGeneratorError(f"generator {name} does not belong to {self.pres.name}")
        return NcPoly.gen(self.field, sid)


def parse_expr(text: str, context) -> NcPoly:
    """Parse text into a polynomial over context's field and symbol table."""
    return _Parser(text, context).parse()
