"""Closed points over small prime fields and the subspace-counting oracle."""

import dataclasses
from itertools import permutations, product

import pytest

from ncgrass import atlas, points, verify
from ncgrass import symbols as sy
from ncgrass.fields import GF, QQ
from ncgrass.poly import NcPoly
from ncgrass.points import (
    ChartPoint,
    PointGluingError,
    chart_matrix,
    chart_points,
    echelon_matrices,
    gaussian_count,
    glue_count,
    glued_points,
    roundtrip_failures,
    rref,
    subspace_oracle,
    transport_table,
)
from oracles import reference_rref, reference_transport_table, subspace_pattern_counts

EXPECTED = {2: 35, 3: 130, 5: 806}


def test_chart_points_enumeration():
    pts = chart_points((1, 2), 2)
    assert len(pts) == 16
    assert len({p.assignment for p in pts}) == 16
    with pytest.raises(ValueError):
        chart_points((1, 2), 4)  # not prime


def test_points_are_read_by_position_in_chart_entries_order():
    for lam in atlas.all_charts():
        assert atlas.chart_presentation(lam).generators == atlas.chart_entries(lam)
        for p in chart_points(lam, 3):
            vals = p.values()
            by_symbol = tuple(
                tuple(
                    (1 if c == i else 0) if c in lam else vals[sy.entry(lam, i, c)]
                    for c in range(1, 5)
                )
                for i in lam
            )
            assert chart_matrix(lam, [v for _, v in p.assignment]) == by_symbol
    # a table entry's base-q digits are the images of lam2's entries, read
    # in chart_entries order; here from the overlap built over F_3, where the
    # table reads the QQ one
    for lam, lam2 in permutations(atlas.all_charts(), 2):
        pair = atlas.pair_overlap(lam, lam2, GF(3))
        images = [pair.to_base.mapping[e] for e in atlas.chart_entries(lam2)]
        move = pair.presentation.evaluator(GF(3), images)
        targets = chart_points(lam2, 3)
        for p, j in zip(chart_points(lam, 3), transport_table(lam, lam2, 3)):
            if j is not None:
                moved = move(*(v for _, v in p.assignment))
                assert targets[j].assignment == tuple(zip(atlas.chart_entries(lam2), moved))


def test_point_matrix_has_identity_in_chart_columns():
    p = next(iter(chart_points((1, 3), 3)))
    mat = chart_matrix(p.chart, [v for _, v in p.assignment])
    assert [row[0] for row in mat] == [1, 0]
    assert [row[2] for row in mat] == [0, 1]


def test_rref_agrees_with_the_field_reference():
    # every chart matrix of the point checks, then rank-1 matrices and
    # matrices with zero rows, entries given outside [0, q)
    for q in (2, 3, 5):
        for lam in atlas.all_charts():
            for vals in product(range(q), repeat=4):
                mat = chart_matrix(lam, vals)
                assert rref(mat, q) == reference_rref(mat, q), (mat, q)
        for mat in (
            ((0, 2, 1, 4),),
            ((0, 2, 1, 4), (0, 4, 2, 8)),
            ((0, 0, 0, 0), (3, 1, 0, -1)),
            ((0, 0, 0, 0), (0, 0, 0, 0)),
            ((q, 0, 0, 0),),
        ):
            assert rref(mat, q) == reference_rref(mat, q), (mat, q)
    assert rref(((0, 2, 1, 4), (0, 4, 2, 8)), 5) == ((0, 1, 3, 2),)
    assert rref(((0, 0, 0, 0), (0, 0, 0, 0)), 3) == ()


def test_rref_is_idempotent():
    # the second matrix's first pivot is 2, so it must be scaled
    for mat in (((1, 2, 0, 1), (2, 1, 1, 0)), ((2, 1, 0, 1), (1, 1, 1, 0))):
        r = rref(mat, 3)
        assert rref(r, 3) == r
        # each row leads with a one, and its column is zero in every other row
        for k, row in enumerate(r):
            col = next(c for c, v in enumerate(row) if v)
            assert row[col] == 1, mat
            assert all(other[col] == 0 for other in r[:k] + r[k + 1 :]), mat


def test_counts_match_the_independent_oracle():
    for q, expect in EXPECTED.items():
        assert subspace_oracle(q) == expect
        assert gaussian_count(q) == expect
        assert glue_count(q) == expect


def test_count_for_q7_within_the_cap():
    assert glue_count(7) == subspace_oracle(7) == gaussian_count(7)
    with pytest.raises(ValueError):
        glue_count(11)


def test_glued_representatives_equal_the_echelon_forms():
    for q in (2, 3, 5):
        reps = glued_points(q)
        echelons = {tuple(tuple(row) for row in m) for m in echelon_matrices(q)}
        assert reps == echelons


def test_pattern_counts_sum_to_the_total():
    for q in (2, 3, 5):
        counts = subspace_pattern_counts(q)
        assert len(counts) == 6
        assert sum(counts.values()) == subspace_oracle(q)
    counts2 = subspace_pattern_counts(2)
    assert counts2[(1, 2)] == 16  # both free blocks full
    assert counts2[(3, 4)] == 1  # fully pivoted tail


def _point(chart, q, vals):
    gens = atlas.chart_entries(tuple(sorted(chart)))
    return ChartPoint(tuple(sorted(chart)), q, tuple(zip(gens, vals)))


def test_in_overlap_and_transport_golden():
    # the subspace spanned by e1+e3 and e2+e4 lies in every chart
    p = _point((1, 2), 2, (1, 0, 0, 1))
    j = transport_table((1, 2), (3, 4), 2)[chart_points((1, 2), 2).index(p)]
    assert j is not None
    far = chart_points((3, 4), 2)[j]
    assert far.chart == (3, 4)
    far_vals = [v for _, v in far.assignment]
    assert rref(chart_matrix((3, 4), far_vals), 2) == rref(chart_matrix((1, 2), (1, 0, 0, 1)), 2)


def test_transport_out_of_the_overlap_is_none():
    # the coordinate subspace spanned by e1, e2 misses chart (3,4) entirely
    assert chart_points((1, 2), 2)[0] == _point((1, 2), 2, (0, 0, 0, 0))
    assert transport_table((1, 2), (3, 4), 2)[0] is None


def test_transport_is_none_exactly_off_the_other_charts_minor():
    # a point lies in chart lam2 when its matrix is invertible on lam2's
    # columns, which the transition formulas play no part in
    for q in (2, 3):
        for lam, lam2 in permutations(atlas.all_charts(), 2):
            c1, c2 = lam2
            for vals, j in zip(product(range(q), repeat=4), transport_table(lam, lam2, q)):
                m = chart_matrix(lam, vals)
                minor = m[0][c1 - 1] * m[1][c2 - 1] - m[0][c2 - 1] * m[1][c1 - 1]
                assert (j is None) == (minor % q == 0), (lam, vals, lam2)


def _doctor_transition(monkeypatch, lam, lam2, q, doctor):
    """Make transport_table(lam, lam2, q) rebuild its table from doctor(pair)
    in place of the QQ pair overlap it reads. The tables of lam and lam2 over
    the other fields of the point checks are built first, from the real pair,
    so only q's table reads the doctored one. Setting the cached entry to
    None forces the rebuild, and monkeypatch puts the original entry back
    afterwards."""
    for other in verify.POINT_QS:
        transport_table(lam, lam2, other)
    real = points.pair_overlap

    def doctored(a, b):
        pair = real(a, b)
        return doctor(pair) if (a, b) == (lam, lam2) else pair

    monkeypatch.setattr(points, "pair_overlap", doctored)
    monkeypatch.setitem(points._transition_cache, (lam, lam2, q), None)


def test_transport_inside_the_overlap_that_divides_by_zero_is_an_error(monkeypatch):
    # an inverse definition whose expression vanishes while the inverted
    # element does not is a fault in the formulas, not a point off the overlap
    lam, lam2 = (1, 2), (1, 3)
    inside = transport_table(lam, lam2, 2)

    def break_first_definition(pair):
        pres = pair.presentation
        sid, _, _ = pres.definitions[0]
        broken = ((sid, NcPoly.zero(QQ), True),) + tuple(pres.definitions[1:])
        return dataclasses.replace(
            pair, presentation=dataclasses.replace(pres, definitions=broken)
        )

    _doctor_transition(monkeypatch, lam, lam2, 2, break_first_definition)
    with pytest.raises(PointGluingError) as err:
        transport_table(lam, lam2, 2)
    assert str(err.value) == (
        "point[a(1,2;1,3)=0, a(1,2;1,4)=0, a(1,2;2,3)=1, a(1,2;2,4)=0] lies in the "
        "overlap with chart (1, 3), but a transition divides by zero"
    )
    # the first point of the overlap in chart_points order is the one reported
    first = next(i for i, j in enumerate(inside) if j is not None)
    assert str(err.value).startswith(str(chart_points(lam, 2)[first]) + " ")


def test_inverted_elements_tell_points_off_the_overlap_from_faults(monkeypatch):
    # without its inverted elements the pair has no guard, so a point off the
    # overlap divides by zero inside the formulas and is reported as a fault
    lam, lam2 = (1, 2), (1, 3)
    off = transport_table(lam, lam2, 2).index(None)

    def drop_inverted(pair):
        return dataclasses.replace(
            pair, presentation=dataclasses.replace(pair.presentation, inverted=())
        )

    _doctor_transition(monkeypatch, lam, lam2, 2, drop_inverted)
    with pytest.raises(PointGluingError) as err:
        transport_table(lam, lam2, 2)
    assert str(err.value) == (
        f"{chart_points(lam, 2)[off]} lies in the overlap with chart (1, 3), "
        "but a transition divides by zero"
    )


def test_verify_points_fails_a_transition_that_divides_by_zero(monkeypatch):
    # the failed table is never cached, so the round-trip check rebuilds it
    # and meets the same error as the count check
    def break_first_definition(pair):
        pres = pair.presentation
        sid, _, _ = pres.definitions[0]
        broken = ((sid, NcPoly.zero(QQ), True),) + tuple(pres.definitions[1:])
        return dataclasses.replace(
            pair, presentation=dataclasses.replace(pres, definitions=broken)
        )

    _doctor_transition(monkeypatch, (1, 2), (1, 3), 2, break_first_definition)
    message = (
        "point[a(1,2;1,3)=0, a(1,2;1,4)=0, a(1,2;2,3)=1, a(1,2;2,4)=0] lies in the "
        "overlap with chart (1, 3), but a transition divides by zero"
    )
    by_id = {r.check_id: r for r in verify.verify_points()}
    assert len(by_id) == 6
    for check in ("count", "roundtrip"):
        r = by_id[f"points:q2:{check}"]
        assert (r.outcome, r.witness) == ("Failed", message)
        for q in (3, 5):
            assert by_id[f"points:q{q}:{check}"].verified


def test_transport_roundtrip_is_clean():
    for q in (2, 3):
        assert roundtrip_failures(q) == []


def test_transport_consistency_is_exhaustive_for_small_q():
    # glue_count itself raises if any overlap transport lands on a different
    # canonical representative
    for q in (2, 3):
        glue_count(q)


def test_chart_point_str():
    p = _point((1, 2), 3, (1, 2, 0, 1))
    s = str(p)
    assert s.startswith("point[") and "a(1,2;1,3)=1" in s


def test_clear_caches_empties_the_transition_cache():
    transport_table((1, 2), (1, 3), 2)
    assert points._transition_cache
    atlas.clear_caches()
    assert not points._transition_cache


def test_transport_table_agrees_with_transport():
    # the reference carries each point on its own, as a ChartPoint
    for q in (2, 3, 5):
        for lam, lam2 in permutations(atlas.all_charts(), 2):
            table = transport_table(lam, lam2, q)
            assert table == reference_transport_table(lam, lam2, q), (lam, lam2, q)


def test_a_broken_transition_fails_both_point_checks(monkeypatch):
    # swapping two of lam2's images moves every overlap point to another
    # subspace, which the gluing check and the round trip must both see
    lam, lam2, q = (1, 2), (1, 3), 3

    def swap_first_two_images(pair):
        e0, e1 = atlas.chart_entries(lam2)[:2]
        mapping = dict(pair.to_base.mapping)
        mapping[e0], mapping[e1] = mapping[e1], mapping[e0]
        return dataclasses.replace(
            pair, to_base=dataclasses.replace(pair.to_base, mapping=mapping)
        )

    _doctor_transition(monkeypatch, lam, lam2, q, swap_first_two_images)
    with pytest.raises(PointGluingError) as err:
        glued_points(q)
    assert str(err.value) == (
        "point[a(1,2;1,3)=0, a(1,2;1,4)=1, a(1,2;2,3)=1, a(1,2;2,4)=0] transported to "
        "chart (1, 3) spans a different subspace"
    )
    assert roundtrip_failures(q)


def test_verify_points_transports_each_point_once_per_chart(monkeypatch):
    from ncgrass.verify import verify_points

    overlaps, compiles, evaluations = [], [], []
    read, compile_ = points.pair_overlap, atlas.AlgebraPresentation.evaluator

    def counted_read(lam, lam2):
        overlaps.append(read(lam, lam2))
        return overlaps[-1]

    def counted_compile(pres, field, outputs, *guards):
        compiles.append(field)
        move = compile_(pres, field, outputs, *guards)

        def counted_move(*vals):
            evaluations.append(None)
            return move(*vals)

        return counted_move

    atlas.clear_caches()
    monkeypatch.setattr(points, "pair_overlap", counted_read)
    monkeypatch.setattr(atlas.AlgebraPresentation, "evaluator", counted_compile)
    try:
        results = verify_points()
    finally:
        atlas.clear_caches()
    assert all(r.outcome == "Verified" for r in results)
    # each of the 30 QQ pair overlaps is read and compiled once per q
    assert len(overlaps) == len(compiles) == 30 * 3 == 90
    assert len({id(pair) for pair in overlaps}) == 30
    assert {pair.presentation.field for pair in overlaps} == {QQ}
    assert sorted(f.q for f in compiles) == [2] * 30 + [3] * 30 + [5] * 30
    assert len(evaluations) == 30 * (2**4 + 3**4 + 5**4) == 21660
