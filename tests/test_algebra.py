"""Symbols, coefficient fields, and free-algebra arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncgrass import symbols as sy
from ncgrass.fields import GF, QQ, FieldMismatchError, field_by_key
from ncgrass.poly import (
    Hom,
    NcPoly,
    UnmappedSymbolError,
    abelianize,
    commutator,
    poly_str,
)
from oracles import evaluate


def test_symbol_interning_and_names():
    s = sy.entry((1, 2), 1, 3)
    assert s == sy.entry((2, 1), 1, 3)
    assert sy.sym_name(s) == "a(1,2;1,3)"
    assert sy.sym_name(sy.entry_inverse((1, 2), 1, 3)) == "a(1,2;1,3)^-1"
    assert sy.sym_name(sy.quasi_det((1, 2), (3, 4))) == "d(1,2|3,4)"
    assert sy.sym_name(sy.module_var(3)) == "x(3)"


def test_symbol_validation():
    with pytest.raises(ValueError):
        sy.entry((1, 2), 3, 4)  # row index outside the chart
    with pytest.raises(ValueError):
        sy.entry((1, 2), 1, 2)  # column index inside the chart
    with pytest.raises(ValueError):
        sy.quasi_det((1, 2), (2, 3))  # charts must be disjoint
    with pytest.raises(ValueError):
        sy.module_var(0)


def test_an_entry_inverse_is_validated_as_its_entry_is():
    with pytest.raises(ValueError, match=r"^row index 3 not in chart \(1, 2\)$"):
        sy.entry_inverse((1, 2), 3, 4)
    with pytest.raises(ValueError, match=r"^column index 2 lies in chart \(1, 2\)$"):
        sy.entry_inverse((1, 2), 1, 2)


def test_inverse_symbol_is_an_involution():
    for s in [
        sy.entry((1, 2), 1, 3),
        sy.entry_inverse((1, 3), 3, 2),
        sy.quasi_det((1, 2), (3, 4)),
        sy.quasi_det_inverse((3, 4), (1, 2)),
    ]:
        assert sy.inverse_symbol(sy.inverse_symbol(s)) == s
    with pytest.raises(ValueError):
        sy.inverse_symbol(sy.module_var(1))


def test_weights():
    assert sy.WEIGHT[sy.entry((1, 2), 1, 3)] == 1
    assert sy.WEIGHT[sy.entry_inverse((1, 2), 1, 3)] == 1
    assert sy.WEIGHT[sy.module_var(2)] == 1
    assert sy.WEIGHT[sy.quasi_det((1, 2), (3, 4))] == 2
    assert sy.WEIGHT[sy.quasi_det_inverse((1, 2), (3, 4))] == 2


def test_fields():
    assert field_by_key("rat") is QQ
    assert field_by_key("q5") is GF(5)
    assert GF(5).coerce(Fraction(1, 2)) == 3
    assert GF(7).inv(3) == 5
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        field_by_key("octonions")
    with pytest.raises(FieldMismatchError):
        p = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
        q = NcPoly.gen(GF(5), sy.entry((1, 2), 1, 3))
        _ = p + q


def test_rationals_keep_integral_coefficients_as_ints():
    assert type(QQ.coerce(3)) is int
    assert type(QQ.coerce(Fraction(4, 2))) is int and QQ.coerce(Fraction(4, 2)) == 2
    assert type(QQ.coerce("-6/3")) is int and QQ.coerce("-6/3") == -2
    assert QQ.coerce("1/2") == Fraction(1, 2)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert QQ.inv(-1) == -1 and type(QQ.inv(-1)) is int
    assert type(QQ.mul(QQ.inv(-1), 5)) is int
    a13 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    assert all(type(c) is int for c in (a13 * a13 - a13.scale(3)).terms.values())


def _chart_gens(field=QQ):
    return [NcPoly.gen(field, sy.entry((1, 2), i, j)) for i in (1, 2) for j in (3, 4)]


def test_ring_axioms_spot_check():
    rng = random.Random(7)
    a13, a14, a23, a24 = _chart_gens()
    pool = [a13, a14, a23, a24, NcPoly.scalar(QQ, Fraction(2, 3)), a13 * a24 - a14 * a23]
    for _ in range(50):
        p, q, r = (rng.choice(pool) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + (-p) == NcPoly.zero(QQ)
    assert a13 * a24 != a24 * a13  # free generators do not commute


def test_poly_str_goldens():
    a13, a14, a23, a24 = _chart_gens()
    assert poly_str(NcPoly.zero(QQ)) == "0"
    assert poly_str(a13) == "a(1,2;1,3)"
    assert poly_str(a13.scale(Fraction(3, 4))) == "3/4*a(1,2;1,3)"
    assert poly_str(commutator(a13, a24)) == "a(1,2;1,3)*a(1,2;2,4) - a(1,2;2,4)*a(1,2;1,3)"
    # a negative leading coefficient keeps an explicit -1 factor so the text
    # re-parses under a grammar without unary minus
    assert poly_str(a14 * a23 - a13 * a24) == (
        "-1*a(1,2;1,3)*a(1,2;2,4) + a(1,2;1,4)*a(1,2;2,3)"
    )


def test_poly_str_signs_follow_the_field():
    a13, a14, a23, a24 = _chart_gens()
    assert poly_str(a13 * a24 - a14.scale(2)) == "a(1,2;1,3)*a(1,2;2,4) - 2*a(1,2;1,4)"
    assert poly_str(a13 - NcPoly.scalar(QQ, Fraction(-6, 3))) == "a(1,2;1,3) + 2"
    # F_5 coefficients are residues in [0, 5): never printed as negative
    b13, b14, b23, b24 = _chart_gens(GF(5))
    assert poly_str(b13 * b24 - b14.scale(2)) == "a(1,2;1,3)*a(1,2;2,4) + 3*a(1,2;1,4)"
    assert poly_str(b13 * b24 - b14 * b23) == (
        "a(1,2;1,3)*a(1,2;2,4) + 4*a(1,2;1,4)*a(1,2;2,3)"
    )


def test_print_order_weight_then_length_then_lex():
    a13, a14, a23, a24 = _chart_gens()
    d = NcPoly.gen(QQ, sy.quasi_det((1, 2), (3, 4)))
    # weight ties: the length-2 word precedes the single quasi-det letter
    assert poly_str(a13 * a24 - d) == "a(1,2;1,3)*a(1,2;2,4) - d(1,2|3,4)"
    # higher weight first
    assert poly_str(a13 + d) == "d(1,2|3,4) + a(1,2;1,3)"
    # lex ascending within fixed weight and length
    assert poly_str(a23 + a13) == "a(1,2;1,3) + a(1,2;2,3)"


def test_monic_and_leading():
    a13, a14, a23, a24 = _chart_gens()
    p = (a14 * a23 - a13 * a24).scale(Fraction(5))
    w, c = p.leading()
    # a(1,2;1,4)*a(1,2;2,3) wins the left-to-right lex tie-break
    assert w == (sy.entry((1, 2), 1, 4), sy.entry((1, 2), 2, 3))
    assert c == Fraction(5)
    assert p.monic().leading()[1] == Fraction(1)
    assert p.monic() == a14 * a23 - a13 * a24


def test_hom_application():
    a13, a14, a23, a24 = _chart_gens()
    s13 = sy.entry((1, 2), 1, 3)
    s24 = sy.entry((1, 2), 2, 4)
    h = Hom(QQ, {s13: a14, s24: a23 + a24})
    assert h.apply(a13 * a24) == a14 * (a23 + a24)
    with pytest.raises(UnmappedSymbolError):
        h.apply(a23)
    hx = Hom(QQ, {s13: a14})
    x1 = NcPoly.gen(QQ, sy.module_var(1))
    assert hx.apply(a13 * x1) == a14 * x1  # module variables pass through


def test_abelianize():
    a13, a14, a23, a24 = _chart_gens()
    assert abelianize(commutator(a13, a24)).is_zero()
    det = abelianize(a13 * a24 - a14 * a23)
    assert not det.is_zero()
    assert len(det.terms) == 2


def test_commutative_evaluate():
    a13, a14, a23, a24 = _chart_gens()
    det = abelianize(a13 * a24 - a14 * a23)
    vals = {
        sy.entry((1, 2), 1, 3): Fraction(2),
        sy.entry((1, 2), 1, 4): Fraction(1),
        sy.entry((1, 2), 2, 3): Fraction(3),
        sy.entry((1, 2), 2, 4): Fraction(5),
    }
    assert evaluate(det, vals) == Fraction(7)
    assert evaluate(abelianize(commutator(a13, a24)), vals) == Fraction(0)


def test_comm_poly_arithmetic():
    a13, a14, a23, a24 = _chart_gens()
    u = abelianize(a13 * a24)
    v = abelianize(a24 * a13)
    assert u == v
    assert (u - v).is_zero()


_R12 = [sy.entry((1, 2), i, j) for i in (1, 2) for j in (3, 4)]
_r12_polys = st.lists(
    st.tuples(st.integers(-3, 3), st.lists(st.sampled_from(_R12), max_size=3)), max_size=5
).map(lambda pairs: NcPoly.from_pairs(QQ, pairs))


@settings(max_examples=80, deadline=None, database=None)
@given(_r12_polys, _r12_polys, st.lists(st.integers(-5, 5), min_size=4, max_size=4))
def test_abelianize_is_a_ring_map_onto_sorted_words(p, q, vals):
    ab_p, ab_q = abelianize(p), abelianize(q)
    key = lambda s: sy.KEY[s]
    assert all(list(w) == sorted(w, key=key) for w in ab_p.terms)
    assert abelianize(p + q) == ab_p + ab_q
    assert abelianize(p * q) == abelianize(ab_p * ab_q)
    values = dict(zip(_R12, map(Fraction, vals)))
    assert evaluate(ab_p, values) == evaluate(p, values)
