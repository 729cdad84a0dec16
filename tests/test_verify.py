"""Verification driver: outcomes, witnesses, reports, and mutation detection."""

import hashlib
import json
from itertools import permutations

import pytest

from ncgrass import atlas, verify
from ncgrass.fields import GF, QQ
from ncgrass.verify import CheckResult, VerificationReport


def test_ladder():
    assert verify._ladder(10) == [4, 6, 8, 10]
    assert verify._ladder(4) == [4]
    assert verify._ladder(5) == [4, 5]
    assert verify._ladder(2) == [2]


def test_adjacent_substitution_canonical_pair():
    entries = verify.verify_adjacent_substitution((1, 2), (2, 3), bound=8)
    assert len(entries) == 8
    assert all(r.verified for r in entries)
    ids = {r.check_id for r in entries}
    assert "subst(1,2|2,3):far-rel-1" in ids
    assert "subst(1,2|2,3):recover:a(1,2;1,3)" in ids
    assert "subst(1,2|2,3):pivot-commute" in ids


def test_adjacent_substitution_rejects_non_adjacent_pairs():
    with pytest.raises(ValueError):
        verify.verify_adjacent_substitution((1, 2), (3, 4))


def test_lemma_suite_verifies_and_reports_the_sign():
    entries = verify.verify_disjoint_lemma(bound=10)
    assert len(entries) == 20
    assert all(r.verified for r in entries)
    a41 = next(
        r for r in entries if r.check_id == "lemma(1,2|2,3|3,4):closed-form:a(3,4;4,1)"
    )
    assert "displayed sign differs" in a41.claim
    assert "the displayed sign verifies" in a41.claim


def test_lemma_suite_is_inconclusive_at_a_starved_bound():
    entries = verify.verify_disjoint_lemma(bound=2)
    assert all(r.inconclusive for r in entries)
    assert not any(r.failed for r in entries)


def test_cocycle_requires_three_distinct_charts():
    with pytest.raises(ValueError):
        verify.verify_cocycle((1, 2), (1, 2), (3, 4))


# sha256 over the 120 ordered chart triples, recorded before the cocycle check
# read its direct images off atlas.pair_to_chain_hom
COCYCLE_B4_DIGEST = "85b79032a46b2d81c6aed19e0d60b26fe60005944afd9441b912559571bc39a9"


def test_cocycle_on_every_ordered_triple_matches_the_recorded_digest():
    # each ordered triple's results at bound 4, or the error it raises: 24
    # orders ask the chain for an inverse it cannot form
    digest = hashlib.sha256()
    errors = 0
    for t in permutations(atlas.all_charts(), 3):
        try:
            doc = [r.as_dict() for r in verify.verify_cocycle(*t, bound=4)]
        except ValueError as e:
            doc = str(e)
            errors += 1
        digest.update(json.dumps(doc, sort_keys=True).encode() + b"\n")
    assert errors == 24
    assert digest.hexdigest() == COCYCLE_B4_DIGEST


def test_cocycle_triangle_triple():
    entries = verify.verify_cocycle((1, 2), (1, 3), (2, 3), bound=8)
    assert len(entries) == 4
    assert all(r.verified for r in entries)


def test_module_gluing_identity_pair():
    entries = verify.verify_module_gluing((1, 2), (1, 2))
    assert len(entries) == 1
    assert entries[0].verified
    assert entries[0].check_id.endswith(":identity")


def test_module_gluing_disjoint_pair():
    entries = verify.verify_module_gluing((1, 2), (3, 4), bound=8)
    assert {r.check_id for r in entries} == {
        "module(1,2|3,4):x(1)",
        "module(1,2|3,4):x(2)",
    }
    assert all(r.verified for r in entries)


def test_abelianization_inverted_set_goldens():
    entries = verify.verify_abelianizations()
    assert all(r.verified for r in entries)
    by_id = {r.check_id: r for r in entries}
    triangle = by_id["abelian:O(1,2|1,3|2,3):inverted"]
    assert "{a(1,2;1,3), a(1,2;2,3)}" in triangle.claim
    adjacent = by_id["abelian:O(1,2|2,3):inverted"]
    assert "{a(1,2;1,3)}" in adjacent.claim
    disjoint = by_id["abelian:O(1,2|3,4):inverted"]
    assert "-1*a(1,2;1,3)*a(1,2;2,4) + a(1,2;1,4)*a(1,2;2,3)" in disjoint.claim
    path = by_id["abelian:O(1,2|2,3|3,4):inverted"]
    assert "a(1,2;1,3)" in path.claim and "a(1,2;2,4)" in path.claim


def test_abelianized_chart_dimensions():
    entries = verify.verify_abelianizations()
    dims = [r for r in entries if r.check_id.endswith(":dimension")]
    assert len(dims) == 6
    for r in dims:
        assert r.verified
        assert "1, 4, 10, 20, 35" in r.claim


def test_functoriality_count():
    entries = verify.verify_functoriality(bound=8)
    assert len(entries) == 120
    assert all(r.verified for r in entries)


def test_points_suite():
    entries = verify.verify_points(qs=(2, 3))
    assert len(entries) == 4
    assert all(r.verified for r in entries)


def test_flipped_sign_is_caught_and_certified():
    site = ("adjacent_to_base", ("a", 1, 2, 4), 0)
    mutated = atlas.flip_sign(atlas.CANONICAL, site)
    entries = verify.verify_adjacent_substitution((1, 2), (2, 3), bound=6, formulas=mutated)
    failed = [r for r in entries if r.failed]
    assert failed, "the flipped formula must produce a certified failure"
    assert all(r.witness for r in failed)


def test_flipped_disjoint_sign_is_caught_by_the_lemma_suite():
    site = ("disjoint_to_base", ("a", 1, 3, 1), 0)
    mutated = atlas.flip_sign(atlas.CANONICAL, site)
    entries = verify._lemma_direction(((1, 2), (2, 3), (3, 4)), 6, QQ, mutated)
    failed = [r for r in entries if r.failed]
    assert failed
    assert all(r.witness for r in failed)


def test_flipped_sign_fails_module_gluing_with_a_certified_witness():
    site = ("adjacent_to_base", ("a", 1, 3, 1), 0)
    mutated = atlas.flip_sign(atlas.CANONICAL, site)
    entries = verify.verify_module_gluing((1, 2), (2, 3), bound=6, formulas=mutated)
    failed = [(r.check_id, r.witness) for r in entries if r.failed]
    assert failed == [
        ("module(1,2|2,3):x(1)", "2*a(1,2;1,3)^-1*a(1,2;2,3)*x(2) + 2*x(1)")
    ]


def test_failed_sign_check_notes_the_opposite_sign():
    site = ("disjoint_to_base", ("a", 1, 4, 1), 0)
    mutated = atlas.flip_sign(atlas.CANONICAL, site)
    entries = verify._lemma_direction(((1, 2), (2, 3), (3, 4)), 8, QQ, mutated)
    a41 = next(
        r for r in entries if r.check_id == "lemma(1,2|2,3|3,4):closed-form:a(3,4;4,1)"
    )
    assert a41.failed
    assert a41.witness
    assert a41.claim.endswith("; the opposite-sign variant reduces to zero instead")


def test_check_result_serialization():
    r = CheckResult("id:x", "claim text", "Verified", 4, None, 0.123)
    d = r.as_dict()
    assert d == {"id": "id:x", "claim": "claim text", "outcome": "Verified", "bound": 4, "witness": None}
    assert "elapsed" not in d


def test_report_status_and_sorting():
    mk = lambda cid, outcome: CheckResult(cid, "c", outcome, 4, None, 0.0)
    rep = VerificationReport([mk("b", "Verified"), mk("a", "Verified")], 4, "rat")
    assert [r.check_id for r in rep.results] == ["a", "b"]
    assert rep.status == 0
    rep = VerificationReport([mk("a", "Verified"), mk("b", "Inconclusive(bound=4)")], 4, "rat")
    assert rep.status == 2
    rep = VerificationReport(
        [mk("a", "Failed"), mk("b", "Inconclusive(bound=4)"), mk("c", "Verified")], 4, "rat"
    )
    assert rep.status == 1
    assert rep.counts() == {"verified": 1, "failed": 1, "inconclusive": 1, "total": 3}
    d = rep.as_dict()
    assert set(d) == {"field", "bound", "status", "counts", "checks"}


def test_verified_bound_is_the_first_sufficient_rung():
    entries = verify.verify_adjacent_substitution((1, 2), (2, 3), bound=10)
    for r in entries:
        assert r.bound in (0, 4), r  # canonical substitution closes at the first rung


def test_suites_over_a_finite_field():
    entries = verify.verify_adjacent_substitution((1, 2), (2, 3), bound=6, field=GF(5))
    assert all(r.verified for r in entries)


def test_run_all_composition():
    # 192 substitution + 20 lemma + 80 cocycle + 60 module + 82 abelianized
    # + 120 functoriality + 6 points
    report = verify.run_all(bound=10)
    assert len(report.results) == 560
    assert report.status == 0
    # a starved bound may leave checks open but must never invent a failure
    report = verify.run_all(bound=6, include_points=False)
    assert len(report.results) == 554
    assert not any(r.failed for r in report.results)
