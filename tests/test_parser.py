"""Expression grammar: round-trips, precedence, and error positions."""

import random
from fractions import Fraction

import pytest

from ncgrass import atlas
from ncgrass import symbols as sy
from ncgrass.exprparse import ExprError, ParseError, UnknownGeneratorError, parse_expr
from ncgrass.fields import GF, QQ
from ncgrass.poly import NcPoly, poly_str


def _r12():
    return atlas.chart_presentation((1, 2))


def test_generator_atoms():
    pres = _r12()
    p = parse_expr("a(1,2;1,3)", pres)
    assert p == NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    pair = atlas.pair_overlap((1, 2), (3, 4)).presentation
    q = parse_expr("d(1,2|3,4)", pair)
    assert q == NcPoly.gen(QQ, sy.quasi_det((1, 2), (3, 4)))
    mod = atlas.chart_presentation((1, 2), with_module=True)
    assert parse_expr("x(3)", mod) == NcPoly.gen(QQ, sy.module_var(3))


def test_precedence_and_parentheses():
    pres = _r12()
    a13 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    a14 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 4))
    a23 = NcPoly.gen(QQ, sy.entry((1, 2), 2, 3))
    assert parse_expr("a(1,2;1,3) + a(1,2;1,4)*a(1,2;2,3)", pres) == a13 + a14 * a23
    assert parse_expr("(a(1,2;1,3) + a(1,2;1,4))*a(1,2;2,3)", pres) == (a13 + a14) * a23
    assert parse_expr("2*a(1,2;1,3) - 3*a(1,2;1,4)", pres) == a13.scale(Fraction(2)) - a14.scale(Fraction(3))


def test_numeric_literals():
    pres = _r12()
    assert parse_expr("7", pres) == NcPoly.scalar(QQ, Fraction(7))
    assert parse_expr("3/4", pres) == NcPoly.scalar(QQ, Fraction(3, 4))
    assert parse_expr("2^-1", pres) == NcPoly.scalar(QQ, Fraction(1, 2))
    assert parse_expr("0", pres).is_zero()
    # '-' in atom position starts a negative literal
    assert parse_expr("-3*a(1,2;1,3)", pres) == NcPoly.gen(QQ, sy.entry((1, 2), 1, 3)).scale(Fraction(-3))


def test_inverse_atoms():
    pair = atlas.pair_overlap((1, 2), (2, 3)).presentation
    piv_inv = sy.entry_inverse((1, 2), 1, 3)
    assert parse_expr("a(1,2;1,3)^-1", pair) == NcPoly.gen(QQ, piv_inv)
    # a monomial inverts letterwise, in reverse order
    p = parse_expr("(2*a(1,2;1,3)*a(1,2;1,3))^-1", pair)
    assert p == NcPoly.from_word(QQ, (piv_inv, piv_inv), Fraction(1, 2))


def test_whitespace_is_insignificant():
    pres = _r12()
    a = parse_expr("a(1,2;1,3)*a(1,2;2,4)-a(1,2;2,4)*a(1,2;1,3)", pres)
    b = parse_expr(" a( 1 , 2 ; 1 , 3 ) * a(1,2;2,4) - a(1,2;2,4) * a(1,2;1,3) ", pres)
    assert a == b


def test_parse_print_parse_is_a_fixpoint():
    pres = atlas.pair_overlap((1, 2), (2, 3)).presentation
    rng = random.Random(3)
    gens = [NcPoly.gen(QQ, s) for s in pres.generators]
    for _ in range(40):
        p = NcPoly.zero(QQ)
        for _ in range(rng.randint(1, 4)):
            t = NcPoly.scalar(QQ, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
            for _ in range(rng.randint(0, 3)):
                t = t * rng.choice(gens)
            p = p + t
        s = poly_str(p)
        assert parse_expr(s, pres) == p
        assert poly_str(parse_expr(s, pres)) == s


def test_syntax_error_offsets():
    pres = _r12()
    for text, offset in [
        ("a(1,2;1,3", 10),  # unbalanced paren, reported one past the end
        ("", 1),
        ("a(1,2;1,3) +", 13),
        ("* a(1,2;1,3)", 1),
        ("a(1;2,3)", 4),
        ("2^-2", 4),
        ("a(1,2;1,3) a(1,2;1,4)", 12),
        # each generator head's separators, in order
        ("a(1,2,1,3)", 6),
        ("a(1;2;1,3)", 4),
        ("a(1,2;1;3)", 8),
        ("d(1;2|3,4)", 4),
        ("d(1,2;3,4)", 6),
        ("d(1,2|3;4)", 8),
        ("x(1,2)", 4),
        ("x()", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_expr(text, pres)
        assert err.value.offset == offset, text
        assert str(err.value) == f"syntax error at offset {offset}"
    # a zero denominator is well formed text, and is named as such
    with pytest.raises(ExprError) as err:
        parse_expr("1/0", pres)
    assert not isinstance(err.value, ParseError)
    assert str(err.value) == "denominator 0 is zero in field rat at offset 3"


def test_unknown_generator_errors():
    pres = _r12()
    with pytest.raises(UnknownGeneratorError):
        parse_expr("a(9,9;1,2)", pres)  # no such chart
    with pytest.raises(UnknownGeneratorError):
        parse_expr("a(1,3;1,2)", pres)  # valid entry, wrong presentation
    with pytest.raises(UnknownGeneratorError):
        parse_expr("x(3)", pres)  # module variable outside a module context
    with pytest.raises(UnknownGeneratorError):
        parse_expr("a(1,2;1,3)^-1", pres)  # not localized here
    with pytest.raises(UnknownGeneratorError):
        parse_expr("(a(1,2;1,3) + 1)^-1", pres)  # sums have no inverse


def test_exprerror_is_the_common_base():
    pres = _r12()
    for text in ["a(1,2;1,3", "x(7)"]:
        with pytest.raises(ExprError):
            parse_expr(text, pres)


def test_finite_field_coefficients():
    pres = atlas.chart_presentation((1, 2), field=GF(5))
    p = parse_expr("7*a(1,2;1,3) + 1/2", pres)
    a13 = NcPoly.gen(GF(5), sy.entry((1, 2), 1, 3))
    assert p == a13.scale(2) + NcPoly.scalar(GF(5), 3)
    # a denominator that vanishes in the field is named, with the field and
    # its offset; the text itself is well formed
    with pytest.raises(ExprError) as err:
        parse_expr("1/2", atlas.chart_presentation((1, 2), field=GF(2)))
    assert not isinstance(err.value, ParseError)
    assert str(err.value) == "denominator 2 is zero in field q2 at offset 3"
