"""Free associative algebra over an exact field, with central module variables.

Elements are finite sums coeff * word, where a word is a tuple of symbol ids.
Module variables x(k) are central: every word keeps them on the right, sorted,
so equality of words is plain tuple equality. All other symbols do not commute.

The monomial order compares total weight, then word length, then the symbol
precedence left to right. It is multiplicative and well-founded below any
fixed weight, which is what the rewrite engine needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import symbols as sy
from .fields import Field, Rationals, check_same_field

Word = tuple  # tuple[int, ...]


class UnmappedSymbolError(KeyError):
    """A homomorphism was applied to a symbol it does not cover."""


def normalize_word(seq) -> Word:
    """Enforce the right-normalized form: module variables last, sorted."""
    core = []
    mvars = []
    for s in seq:
        (mvars if sy.is_module_var(s) else core).append(s)
    if mvars:
        mvars.sort(key=lambda s: sy.KEY[s])
    return tuple(core) + tuple(mvars)


def mul_words(u: Word, v: Word) -> Word:
    if not u:
        return v
    if not v:
        return u
    if sy.is_module_var(u[-1]):
        # u carries a central suffix that must merge past v's core
        return normalize_word(u + v)
    # u is pure core, v is normalized, so plain concatenation is normalized
    return u + v


def word_weight(w: Word) -> int:
    return sum(sy.WEIGHT[s] for s in w)


def order_key(w: Word):
    """The monomial order: (total weight, word length, left-to-right precedence lex)."""
    return (word_weight(w), len(w), tuple(sy.KEY[s] for s in w))


def print_key(w: Word):
    # Display order: heavier first, longer first, then alphabetical.
    return (-word_weight(w), -len(w), tuple(sy.KEY[s] for s in w))


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return "*".join(sy.sym_name(s) for s in w)


class NcPoly:
    """Immutable noncommutative polynomial: dict word -> nonzero coefficient."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = terms or {}

    # construction helpers

    @staticmethod
    def zero(field: Field) -> "NcPoly":
        return NcPoly(field, {})

    @staticmethod
    def scalar(field: Field, c) -> "NcPoly":
        c = field.coerce(c)
        return NcPoly(field, {} if field.is_zero(c) else {(): c})

    @staticmethod
    def gen(field: Field, sid: int) -> "NcPoly":
        return NcPoly(field, {(sid,): field.one})

    @staticmethod
    def from_word(field: Field, word, c=1) -> "NcPoly":
        c = field.coerce(c)
        if field.is_zero(c):
            return NcPoly(field, {})
        return NcPoly(field, {normalize_word(word): c})

    @staticmethod
    def from_pairs(field: Field, pairs) -> "NcPoly":
        """pairs: iterable of (coefficient, iterable of symbol ids)."""
        acc: dict = {}
        for c, w in pairs:
            c = field.coerce(c)
            word = normalize_word(tuple(w))
            c0 = acc.get(word)
            c = field.add(c0, c) if c0 is not None else c
            if field.is_zero(c):
                acc.pop(word, None)
            else:
                acc[word] = c
        return NcPoly(field, acc)

    # ring operations

    def __add__(self, other: "NcPoly") -> "NcPoly":
        check_same_field(self.field, other.field)
        f = self.field
        acc = dict(self.terms)
        for w, c in other.terms.items():
            c0 = acc.get(w)
            if c0 is None:
                acc[w] = c
            else:
                c2 = f.add(c0, c)
                if f.is_zero(c2):
                    del acc[w]
                else:
                    acc[w] = c2
        return NcPoly(f, acc)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        f = self.field
        return NcPoly(f, {w: f.neg(c) for w, c in self.terms.items()})

    def __mul__(self, other: "NcPoly") -> "NcPoly":
        check_same_field(self.field, other.field)
        f = self.field
        acc: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = mul_words(w1, w2)
                c = f.mul(c1, c2)
                c0 = acc.get(w)
                if c0 is not None:
                    c = f.add(c0, c)
                if f.is_zero(c):
                    acc.pop(w, None)
                else:
                    acc[w] = c
        return NcPoly(f, acc)

    def scale(self, c) -> "NcPoly":
        f = self.field
        c = f.coerce(c)
        if f.is_zero(c):
            return NcPoly(f, {})
        return NcPoly(f, {w: f.mul(c, v) for w, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.field.key == other.field.key and self.terms == other.terms

    def __hash__(self):
        return hash((self.field.key, frozenset(self.terms.items())))

    def leading(self):
        """(word, coeff) maximal in the monomial order. Errors on zero."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        w = max(self.terms, key=order_key)
        return w, self.terms[w]

    def monic(self) -> "NcPoly":
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(self.field.inv(c))

    def symbols(self) -> set:
        out = set()
        for w in self.terms:
            out.update(w)
        return out

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: print_key(kv[0]))

    def __str__(self):
        return poly_str(self)

    def __repr__(self):
        return f"NcPoly({poly_str(self)})"


def _coeff_is_negative(field: Field, c) -> bool:
    return isinstance(field, Rationals) and c < 0


def poly_str(p: NcPoly) -> str:
    """Canonical text form; re-parses to the same polynomial."""
    if not p.terms:
        return "0"
    f = p.field
    parts = []
    for idx, (w, c) in enumerate(p.sorted_terms()):
        if idx:
            negative = _coeff_is_negative(f, c)
            parts.append(" - " if negative else " + ")
            c = f.neg(c) if negative else c
        if not w:
            parts.append(f.to_str(c))
        elif c == f.one:
            parts.append(word_str(w))
        else:
            parts.append(f"{f.to_str(c)}*{word_str(w)}")
    return "".join(parts)


def commutator(p: NcPoly, q: NcPoly) -> NcPoly:
    return p * q - q * p


@dataclass
class Hom:
    """Algebra map given on generators; identity on unmapped module variables."""

    field: Field
    mapping: dict  # sid -> NcPoly

    def apply(self, p: NcPoly) -> NcPoly:
        check_same_field(self.field, p.field)
        f = self.field
        out = NcPoly.zero(f)
        for w, c in p.terms.items():
            acc = NcPoly.scalar(f, c)
            for s in w:
                img = self.mapping.get(s)
                if img is None:
                    if sy.is_module_var(s):
                        img = NcPoly.gen(f, s)
                    else:
                        raise UnmappedSymbolError(sy.sym_name(s))
                acc = acc * img
            out = out + acc
        return out


def abelianize(p: NcPoly) -> NcPoly:
    """Ring homomorphism onto the commutative polynomial ring in the same
    symbols. A commutative monomial is the word of its symbols sorted by
    precedence (module variables last, as in every word), so the result is an
    NcPoly that compares, prints and evaluates as a commutative polynomial.
    A product of abelianized elements is commutative only once abelianized
    again."""
    key = sy.KEY.__getitem__
    return NcPoly.from_pairs(p.field, ((c, sorted(w, key=key)) for w, c in p.terms.items()))
