"""Closed points over small prime fields and the subspace-counting oracle."""

import dataclasses
from itertools import permutations

import pytest

from ncgrass import atlas, points
from ncgrass import symbols as sy
from ncgrass.fields import GF
from ncgrass.poly import NcPoly
from ncgrass.points import (
    ChartPoint,
    PointGluingError,
    chart_points,
    echelon_matrices,
    gaussian_count,
    glue_count,
    glued_points,
    point_matrix,
    roundtrip_failures,
    rref,
    subspace_oracle,
    transport,
    transport_table,
)
from oracles import subspace_pattern_counts

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
            assert point_matrix(p) == by_symbol
    for lam, lam2 in permutations(atlas.all_charts(), 2):
        for p in chart_points(lam, 3):
            moved = transport(p, lam2)
            if moved is not None:
                assert tuple(e for e, _ in moved.assignment) == atlas.chart_entries(lam2)


def test_point_matrix_has_identity_in_chart_columns():
    p = next(iter(chart_points((1, 3), 3)))
    mat = point_matrix(p)
    assert [row[0] for row in mat] == [1, 0]
    assert [row[2] for row in mat] == [0, 1]


def test_rref_is_idempotent():
    mat = ((1, 2, 0, 1), (2, 1, 1, 0))
    r = rref(mat, 3)
    assert rref(r, 3) == r
    assert r[0][r[0].index(1):].count(0) >= 0  # normalized leading one


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
    for q in (2, 3):
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
    far = transport(p, (3, 4))
    assert far is not None
    assert far.chart == (3, 4)
    assert rref(point_matrix(far), 2) == rref(point_matrix(p), 2)


def test_transport_out_of_the_overlap_is_none():
    # the coordinate subspace spanned by e1, e2 misses chart (3,4) entirely
    p = _point((1, 2), 2, (0, 0, 0, 0))
    assert transport(p, (3, 4)) is None


def test_transport_is_none_exactly_off_the_other_charts_minor():
    # a point lies in chart lam2 when its matrix is invertible on lam2's
    # columns, which the transition formulas play no part in
    for q in (2, 3):
        for lam, lam2 in permutations(atlas.all_charts(), 2):
            c1, c2 = lam2
            for p in chart_points(lam, q):
                m = point_matrix(p)
                minor = m[0][c1 - 1] * m[1][c2 - 1] - m[0][c2 - 1] * m[1][c1 - 1]
                assert (transport(p, lam2) is None) == (minor % q == 0), (p, lam2)


def test_transport_inside_the_overlap_that_divides_by_zero_is_an_error(monkeypatch):
    # an inverse definition whose expression vanishes while the inverted
    # element does not is a fault in the formulas, not a point off the overlap
    lam, lam2 = (1, 2), (1, 3)
    pres, images = points._transition_data(lam, lam2, 2)
    sid, _, _ = pres.definitions[0]
    broken = ((sid, NcPoly.zero(GF(2)), True),) + tuple(pres.definitions[1:])
    monkeypatch.setitem(
        points._transition_cache,
        (lam, lam2, 2),
        (dataclasses.replace(pres, definitions=broken), images),
    )
    p = _point(lam, 2, (1, 1, 1, 1))
    assert not any(GF(2).is_zero(u.evaluate(p.values())) for u in pres.inverted)
    with pytest.raises(PointGluingError):
        transport(p, lam2)


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
    transport(chart_points((1, 2), 2)[0], (1, 3))
    transport_table((1, 2), (1, 3), 2)
    assert points._transition_cache
    assert points._table_cache
    atlas.clear_caches()
    assert not points._transition_cache
    assert not points._table_cache


def test_transport_table_agrees_with_transport():
    for q in (2, 3):
        for lam, lam2 in permutations(atlas.all_charts(), 2):
            table = transport_table(lam, lam2, q)
            targets = chart_points(lam2, q)
            pts = chart_points(lam, q)
            assert len(table) == len(pts)
            for p, entry in zip(pts, table):
                moved = transport(p, lam2)
                assert (entry is None) == (moved is None), (p, lam2)
                if moved is not None:
                    assert targets[entry] == moved, (p, lam2)


def test_a_broken_transition_fails_both_point_checks(monkeypatch):
    # swapping two of lam2's images moves every overlap point to another
    # subspace, which the gluing check and the round trip must both see
    atlas.clear_caches()
    lam, lam2, q = (1, 2), (1, 3), 3
    pres, images = points._transition_data(lam, lam2, q)
    (e0, img0), (e1, img1) = images[:2]
    swapped = ((e0, img1), (e1, img0)) + tuple(images[2:])
    monkeypatch.setitem(points._transition_cache, (lam, lam2, q), (pres, swapped))
    try:
        with pytest.raises(PointGluingError):
            glued_points(q)
        assert roundtrip_failures(q)
    finally:
        atlas.clear_caches()


def test_verify_points_transports_each_point_once_per_chart(monkeypatch):
    from ncgrass.verify import verify_points

    calls = []

    def counted(p, lam2):
        calls.append(None)
        return transport(p, lam2)

    atlas.clear_caches()
    monkeypatch.setattr(points, "transport", counted)
    try:
        results = verify_points()
    finally:
        atlas.clear_caches()
    assert all(r.outcome == "Verified" for r in results)
    assert len(calls) == 30 * (2**4 + 3**4 + 5**4) == 21660
