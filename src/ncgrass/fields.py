"""Exact coefficient fields: arbitrary-precision rationals and prime fields F_q.

Scalars are raw values (for the rationals an int while integral and a
fractions.Fraction once a division makes one; ints in [0, q) for F_q); all
arithmetic goes through a Field object so polynomial code stays
field-agnostic. No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class FieldMismatchError(TypeError):
    """Raised when operands from different coefficient fields are combined."""


class Field:
    key: str

    def coerce(self, value):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def to_str(self, a) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"Field({self.key})"


class Rationals(Field):
    """Exact rational numbers. Integral values are coerced to ints, and
    arithmetic on ints stays in ints: only the inverse of a value other than
    +-1 makes a Fraction (lowest terms, positive denominator). An int and a
    Fraction of the same value compare and hash alike."""

    key = "rat"
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, int):
            return value
        if isinstance(value, str):
            value = Fraction(value)
        if isinstance(value, Fraction):
            return value.numerator if value.denominator == 1 else value
        raise FieldMismatchError(f"cannot coerce {value!r} into {self.key}")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if a == 1 or a == -1:
            return a
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)


class PrimeField(Field):
    """F_q for prime q; elements are ints reduced into [0, q)."""

    def __init__(self, q: int):
        if q < 2 or any(q % k == 0 for k in range(2, int(q**0.5) + 1)):
            raise ValueError(f"prime field order must be prime, got {q}")
        self.q = q
        self.key = f"q{q}"
        self.zero = 0
        self.one = 1 % q

    def coerce(self, value):
        if isinstance(value, int):
            return value % self.q
        if isinstance(value, Fraction):
            den = value.denominator % self.q
            if den == 0:
                raise ZeroDivisionError(f"denominator vanishes in F_{self.q}")
            return (value.numerator % self.q) * pow(den, -1, self.q) % self.q
        if isinstance(value, str):
            return self.coerce(Fraction(value))
        raise FieldMismatchError(f"cannot coerce {value!r} into {self.key}")

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def is_zero(self, a) -> bool:
        return a % self.q == 0

    def to_str(self, a) -> str:
        return str(a % self.q)


QQ = Rationals()

_prime_fields: dict[int, PrimeField] = {}


def GF(q: int) -> PrimeField:
    """Interned prime field, so field identity comparisons work."""
    if q not in _prime_fields:
        _prime_fields[q] = PrimeField(q)
    return _prime_fields[q]


_BY_KEY = {"rat": QQ}


def field_by_key(key: str) -> Field:
    """Field from its CLI name: 'rat' or 'q<prime>' (e.g. 'q5')."""
    if key in _BY_KEY:
        return _BY_KEY[key]
    if key.startswith("q") and key[1:].isdigit():
        return GF(int(key[1:]))
    raise ValueError(f"unknown field key {key!r}")


def check_same_field(f: Field, g: Field) -> None:
    if f is not g and f.key != g.key:
        raise FieldMismatchError(f"field mismatch: {f.key} vs {g.key}")
