"""Verification driver: outcomes, witnesses, reports, and mutation detection."""

import hashlib
import json
from collections import Counter
from itertools import combinations, permutations
from pathlib import Path

import pytest

from ncgrass import atlas, verify
from ncgrass import symbols as sy
from ncgrass.fields import GF, QQ, field_by_key
from ncgrass.poly import NcPoly, abelianize, poly_str
from ncgrass.rewrite import RewriteSystem
from ncgrass.verify import CheckResult, VerificationReport
from oracles import eager_reduce_check, evaluate, extend_point, reference_certified_point

VERIFY_ALL_B10 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "verify_all_b10.json"


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


# sha256 over the 120 ordered chart triples at bound 4, recorded once the
# base->far pivot of a chain through a disjoint pair was inverted
COCYCLE_B4_DIGEST = "9f802a8c35bc5004b30562928223b8d825d217b9433c3d2a1dc8351d54c575e7"

# sha256 over the 96 other ordered triples at bound 4, recorded before that
# pivot was inverted, when the 24 orders below raised a ValueError
COCYCLE_B4_DIGEST_96 = "26993e5d721d183732869522639054f92a225eb20687ce9dbf4d02ed03a4fa2d"


def _adjacent_disjoint_adjacent(t):
    """The orders whose base chart is adjacent to the middle and the far
    chart, which are disjoint, e.g. (1,2), (1,3), (2,4)."""
    kinds = (
        atlas.overlap_type(t[0], t[1]),
        atlas.overlap_type(t[1], t[2]),
        atlas.overlap_type(t[0], t[2]),
    )
    return kinds == ("adjacent", "disjoint", "adjacent")


ADJACENT_DISJOINT_ADJACENT = [
    t for t in permutations(atlas.all_charts(), 3) if _adjacent_disjoint_adjacent(t)
]


def test_cocycle_on_every_ordered_triple_matches_the_recorded_digest():
    # each ordered triple's results at bound 4; every order forms its chain
    digest, digest_96 = hashlib.sha256(), hashlib.sha256()
    for t in permutations(atlas.all_charts(), 3):
        doc = [r.as_dict() for r in verify.verify_cocycle(*t, bound=4)]
        line = json.dumps(doc, sort_keys=True).encode() + b"\n"
        digest.update(line)
        if not _adjacent_disjoint_adjacent(t):
            digest_96.update(line)
    assert digest_96.hexdigest() == COCYCLE_B4_DIGEST_96
    assert digest.hexdigest() == COCYCLE_B4_DIGEST


def test_cocycle_verifies_on_every_adjacent_disjoint_adjacent_order():
    assert len(ADJACENT_DISJOINT_ADJACENT) == 24
    for t in ADJACENT_DISJOINT_ADJACENT:
        entries = verify.verify_cocycle(*t, bound=8)
        assert [(r.outcome, r.bound) for r in entries] == [("Verified", 6)] * 4, t


def test_cocycle_triangle_triple():
    entries = verify.verify_cocycle((1, 2), (1, 3), (2, 3), bound=8)
    assert len(entries) == 4
    assert all(r.verified for r in entries)


def test_module_gluing_rejects_equal_charts():
    # the suite only pairs distinct charts, so an equal pair is pair_overlap's error
    with pytest.raises(ValueError, match="overlap of a chart with itself is the chart"):
        verify.verify_module_gluing((1, 2), (1, 2))


def test_module_gluing_disjoint_pair():
    entries = verify.verify_module_gluing((1, 2), (3, 4), bound=8)
    assert {r.check_id for r in entries} == {
        "module(1,2|3,4):x(1)",
        "module(1,2|3,4):x(2)",
    }
    assert all(r.verified for r in entries)


# sha256 over (check_id, outcome, bound, witness, claim) of module gluing at
# bound 6 for the canonical formulas and the 18 sign mutants, recorded once
# the cached points decided its Failed checks at bound 0 with the element
MODULE_GLUING_B6_DIGEST = "01e8b52deace3771634c39883ce555d5a0bb0505c4e4a58724ef05751a71afe9"

# sha256 over (check_id, outcome, claim) of the same rows, recorded while the
# top rung's residue was the witness of a Failed module check
MODULE_GLUING_B6_OUTCOMES_DIGEST = "3d6ecdc97a25ebe4e6b388acff374aca4520c3ef30258dd90da18bb08e4f96a8"


def _module_gluing_sweep(bound):
    """Module gluing on every ordered pair for the canonical formulas and
    the 18 sign mutants, in sign_sites order."""
    sweep = [atlas.CANONICAL] + [atlas.flip_sign(atlas.CANONICAL, s) for s in atlas.sign_sites()]
    return [r for formulas in sweep for r in verify.suite_module_gluing(bound, formulas=formulas)]


def test_module_gluing_matches_the_recorded_digest():
    digest, outcomes = hashlib.sha256(), hashlib.sha256()
    rows = _module_gluing_sweep(6)
    for r in rows:
        digest.update(json.dumps([r.check_id, r.outcome, r.bound, r.witness, r.claim]).encode() + b"\n")
        outcomes.update(json.dumps([r.check_id, r.outcome, r.claim]).encode() + b"\n")
    assert len(rows) == 19 * 60
    assert outcomes.hexdigest() == MODULE_GLUING_B6_OUTCOMES_DIGEST
    assert digest.hexdigest() == MODULE_GLUING_B6_DIGEST


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


def _overlap_text(ov):
    """An overlap's relations, definitions and inverted elements, and each of
    its Homs' images, as text."""
    pres = ov.presentation
    homs = (ov.to_base, ov.from_base) if isinstance(ov, atlas.OverlapPair) else ov.homs.values()
    return (
        [poly_str(r) for r in pres.relations],
        [(sy.sym_name(s), poly_str(e), inv) for s, e, inv in pres.definitions],
        [poly_str(u) for u in pres.inverted],
        [[(sy.sym_name(s), poly_str(v)) for s, v in h.mapping.items()] for h in homs],
    )


def test_suites_leave_every_cached_overlap_unchanged():
    # every caller shares the overlaps that atlas keeps, so after the suites
    # that read them, each one must still equal a fresh build
    atlas.clear_caches()
    verify.verify_abelianizations()
    verify.verify_functoriality(bound=8)
    verify.verify_points()
    mutant = atlas.flip_sign(atlas.CANONICAL, ("adjacent_to_base", ("a", 1, 2, 4), 0))
    verify.verify_adjacent_substitution((1, 2), (2, 3), 8, formulas=mutant)
    verify.verify_adjacent_substitution((2, 3), (1, 2), 8, formulas=mutant)
    verify._lemma_direction(((1, 2), (2, 3), (3, 4)), 8, QQ, mutant)
    texts = {key: _overlap_text(ov) for key, ov in atlas._overlap_cache.items()}
    assert {kind for kind, *_ in texts} == {"pair", "chain"}
    assert {formulas for *_, formulas in texts} == {atlas.CANONICAL, mutant}
    atlas.clear_caches()
    for (kind, charts, field_key, formulas), text in texts.items():
        build = atlas.pair_overlap if kind == "pair" else atlas.overlap_chain
        args = charts if kind == "pair" else (charts,)
        fresh = build(*args, field_by_key(field_key), formulas)
        assert _overlap_text(fresh) == text, (kind, charts, formulas is mutant)
    atlas.clear_caches()


def test_a_cold_run_builds_each_overlap_once(monkeypatch):
    # the 24 ordered adjacent pairs, the 6 ordered disjoint pairs, the 20
    # presheaf triples and the lemma's reversed chain, all over QQ: the
    # points layer reads the QQ pairs too
    builds = []
    for name in ("adjacent_overlap", "disjoint_overlap", "_build_chain"):

        def counted(*args, real=getattr(atlas, name), name=name):
            *charts, field, _ = args
            builds.append((name, tuple(charts), field.key))
            return real(*args)

        monkeypatch.setattr(atlas, name, counted)
    atlas.clear_caches()
    try:
        report = verify.run_all(10)
    finally:
        atlas.clear_caches()
    assert report.status == 0
    assert Counter(name for name, _, _ in builds) == {
        "adjacent_overlap": 24,
        "disjoint_overlap": 6,
        "_build_chain": 21,
    }
    assert len(set(builds)) == len(builds)
    assert {key for _, _, key in builds} == {"rat"}


def test_points_suite():
    entries = verify.verify_points()
    assert len(entries) == 6
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
    # the element itself, not its residue: a(1,2;1,3)^-1*a(1,2;1,3) stays
    assert failed == [
        (
            "module(1,2|2,3):x(1)",
            "a(1,2;1,3)^-1*a(1,2;1,3)*x(1) + 2*a(1,2;1,3)^-1*a(1,2;2,3)*x(2) + x(1)",
        )
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
    r = CheckResult("id:x", "claim text", "Verified", 4, None)
    d = r.as_dict()
    assert d == {"id": "id:x", "claim": "claim text", "outcome": "Verified", "bound": 4, "witness": None}
    assert "elapsed" not in d


def test_report_status_and_sorting():
    mk = lambda cid, outcome: CheckResult(cid, "c", outcome, 4, None)
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
    entries = verify.verify_abelianizations(GF(5))
    assert len(entries) == 82
    assert all(r.verified for r in entries)


def test_run_all_composition():
    # 192 substitution + 20 lemma + 80 cocycle + 60 module + 82 abelianized
    # + 120 functoriality + 6 points
    report = verify.run_all(bound=10)
    assert len(report.results) == 560
    assert report.status == 0
    # a starved bound may leave checks open but must never invent a failure
    report = verify.run_all(bound=6)
    assert len(report.results) == 560
    assert not any(r.failed for r in report.results)


def _rows(entries):
    return [(r.check_id, r.outcome, r.bound, r.witness, r.claim) for r in entries]


def _eager_and_lazy_rows(monkeypatch, run):
    """The rows of run() with the eager ladder, then with verify's own, each
    from cold caches."""
    atlas.clear_caches()
    with monkeypatch.context() as m:
        m.setattr(verify, "_reduce_check", eager_reduce_check)
        eager = _rows(run())
    atlas.clear_caches()
    lazy = _rows(run())
    atlas.clear_caches()
    return eager, lazy


def _mutant_suites(bound, field=QQ):
    """The targeted suites of the mutation sweep on each of the 18 sign
    mutants, in sign_sites order."""
    entries = []
    for site in atlas.sign_sites():
        mutated = atlas.flip_sign(atlas.CANONICAL, site)
        entries += verify.verify_adjacent_substitution((1, 2), (2, 3), bound, field, mutated)
        entries += verify.verify_adjacent_substitution((2, 3), (1, 2), bound, field, mutated)
        entries += verify._lemma_direction(((1, 2), (2, 3), (3, 4)), bound, field, mutated)
    return entries


def _recorded_checks(monkeypatch):
    """(presentation, elements, result) of every _reduce_check call from
    now on, in call order."""
    calls = []
    real = verify._reduce_check

    def recorded(pres, elements, *args, **kwargs):
        elements = list(elements)
        result = real(pres, elements, *args, **kwargs)
        calls.append((pres, elements, result))
        return result

    monkeypatch.setattr(verify, "_reduce_check", recorded)
    return calls


def _certified_witness(pres, elements, result):
    """Check that a Failed result's witness is an element of the check, and
    that the reference point search finds a point where it is nonzero."""
    element = next(e for e in elements if poly_str(e) == result.witness)
    point = reference_certified_point(pres, element, result.check_id)
    assert point is not None, result.check_id
    assert not pres.field.is_zero(evaluate(element, point)), result.check_id


def _assert_the_eager_rows_but_failed(eager, lazy, checks):
    """Every lazy row keeps its eager row's id, outcome and claim, and a row
    that did not fail is the eager row. A Failed row reads bound 0, and its
    witness is an element of the check that a reference point certifies."""
    for want, got, (pres, elements, result) in zip(eager, lazy, checks):
        cid, outcome, _, _, claim = got
        assert (cid, outcome, claim) == (want[0], want[1], want[4])
        if outcome != "Failed":
            assert got == want
            continue
        assert got[2] == 0, cid
        _certified_witness(pres, elements, result)


def test_lazy_ladder_gives_the_eager_rows_on_the_sign_mutants(monkeypatch):
    # the targeted suites of the mutation sweep at bound 12. The eager ladder
    # reads every rung up to the top; the lazy driver stops a check whose
    # element is nonzero at a cached point after its first rung, and reports
    # that element at bound 0. Everything else is the eager row.
    checks = _recorded_checks(monkeypatch)
    eager, lazy = _eager_and_lazy_rows(monkeypatch, lambda: _mutant_suites(12))
    assert len(eager) == len(lazy) == len(checks) == 468
    assert Counter(row[1] for row in eager) == {
        "Verified": 378,
        "Failed": 76,
        "Inconclusive(bound=12)": 14,
    }
    _assert_the_eager_rows_but_failed(eager, lazy, checks)
    # each witness is its check's first nonzero element
    for pres, elements, r in checks:
        if r.failed:
            assert r.witness == poly_str(next(e for e in elements if not e.is_zero()))


def test_lazy_ladder_gives_the_eager_rows_on_module_gluing(monkeypatch):
    # module gluing at bound 6 for the canonical formulas and the 18 sign
    # mutants. The eager ladder's witness is the top rung's residue; the
    # cached points test the element itself, module variables and all
    checks = _recorded_checks(monkeypatch)
    eager, lazy = _eager_and_lazy_rows(monkeypatch, lambda: _module_gluing_sweep(6))
    assert len(eager) == len(lazy) == len(checks) == 19 * 60
    assert Counter(row[1] for row in eager) == {"Verified": 1020, "Failed": 120}
    _assert_the_eager_rows_but_failed(eager, lazy, checks)


@pytest.mark.parametrize("q", [3, 5])
def test_the_cached_points_decide_every_failed_check_over_a_small_field(monkeypatch, q):
    # the targeted suites at bound 8 over F_3 and F_5, where a sampled point
    # is likelier to miss: two points per presentation leave 16 of these
    # Failed checks over F_3, and 2 over F_5, Inconclusive at the top rung
    checks = _recorded_checks(monkeypatch)
    atlas.clear_caches()
    entries = _mutant_suites(8, GF(q))
    atlas.clear_caches()
    assert Counter(r.outcome for r in entries) == {
        "Verified": 378,
        "Failed": 76,
        "Inconclusive(bound=8)": 14,
    }
    failed = [(pres, elements, r) for pres, elements, r in checks if r.failed]
    assert len(failed) == 76
    for pres, elements, r in failed:
        assert r.bound == 0, r.check_id
        _certified_witness(pres, elements, r)


def test_module_variables_stay_commuting_indeterminates_at_the_points():
    # a module variable commutes with every generator and with the other
    # module variables, and no relation holds one: each group of terms with
    # the same module letters is evaluated on its own
    atlas.clear_caches()
    pres = atlas.pair_overlap((1, 2), (2, 3)).presentation
    g = NcPoly.gen(QQ, pres.generators[0])
    x1, x2 = (NcPoly.gen(QQ, sy.module_var(j)) for j in (1, 2))
    assert not verify._off_the_variety(pres, x1 * g - g * x1)
    assert not verify._off_the_variety(pres, x1 * x2 - x2 * x1)
    # g is an inverted pivot, so it is nonzero at every point
    assert all(point[pres.generators[0]] != 0 for point in verify.variety_points(pres))
    assert verify._off_the_variety(pres, g * x1)
    assert verify._off_the_variety(pres, x1 - x2)
    atlas.clear_caches()


def test_lazy_ladder_gives_the_eager_rows_with_the_suites_reversed(monkeypatch):
    # run_all's completing suites in reverse order, the cocycle triples too,
    # so that rungs paused by one check are resumed by checks of other suites
    triples = [atlas.triple_ordering(c) for c in combinations(atlas.all_charts(), 3)]

    def run():
        entries = verify.verify_functoriality(bound=10)
        entries += verify.suite_module_gluing(bound=10)
        entries += verify.suite_cocycle(bound=10, triples=triples[::-1])
        entries += verify.verify_disjoint_lemma(bound=10)
        entries += verify.suite_proposition(bound=10)
        return entries

    eager, lazy = _eager_and_lazy_rows(monkeypatch, run)
    assert len(eager) == 472
    assert lazy == eager
    # and both are the rows of the recorded bound-10 report
    known = json.loads(VERIFY_ALL_B10.read_text("utf-8"))["checks"]
    recorded = {c["id"]: (c["id"], c["outcome"], c["bound"], c["witness"], c["claim"]) for c in known}
    assert all(recorded[row[0]] == row for row in lazy)


def test_reduce_check_reads_each_complete_rung_once(monkeypatch):
    # with rungs 4 and 6 complete in the cache, each of two commutators that
    # rung 6 leaves nonzero and no commutative point flags is reduced once
    # per rung; two generators, nonzero at a cached point, are reduced once,
    # at rung 4, and the first is the Failed check's witness
    atlas.clear_caches()
    pres = atlas.pair_overlap((1, 2), (2, 3)).presentation
    for b in (4, 6):
        pres.completed(b)
    calls = []
    real = RewriteSystem.normal_form

    def counted(self, p, bound=None):
        calls.append(p)
        return real(self, p, bound)

    monkeypatch.setattr(RewriteSystem, "normal_form", counted)
    g13, g14, g23, g24 = (NcPoly.gen(QQ, g) for g in pres.generators[:4])
    commutators = [g13 * g23 - g23 * g13, g14 * g24 - g24 * g14]
    assert all(abelianize(c).is_zero() for c in commutators)
    result = verify._reduce_check(pres, commutators, 6, "comm", "two commutators vanish")
    assert len(calls) == 4
    assert (result.outcome, result.bound, result.witness) == ("Inconclusive(bound=6)", 6, None)
    calls.clear()
    result = verify._reduce_check(pres, [g13, g14], 6, "gens", "two generators reduce to zero")
    assert len(calls) == 2
    assert (result.outcome, result.bound, result.witness) == ("Failed", 0, "a(1,2;1,3)")
    atlas.clear_caches()


def test_the_points_decide_the_sign_doubt_alt_before_any_rung_is_read(monkeypatch):
    # in a cold forward lemma direction, the a41 row's alt is nonzero at a
    # cached point, so no rung is read for it: every lone element that
    # residues reads lies in the ideal
    atlas.clear_caches()
    reads = []
    real = verify.residues

    def recorded(pres, elements, bound):
        elements = list(elements)
        reads.append((pres, elements))
        return real(pres, elements, bound)

    monkeypatch.setattr(verify, "residues", recorded)
    entries = verify._lemma_direction(((1, 2), (2, 3), (3, 4)), 10, QQ, atlas.CANONICAL)
    assert all(r.verified for r in entries)
    assert reads
    for pres, elements in reads:
        if len(elements) == 1:
            assert not verify._off_the_variety(pres, elements[0])
    (doubt,) = [r for r in entries if "sign differs" in r.claim]
    assert doubt.claim.endswith(
        "; the displayed sign verifies and the opposite sign is nonzero at a sampled point"
    )
    atlas.clear_caches()


def _presentations_run_all_reads(monkeypatch, field):
    """Every presentation run_all(10, field) reads, once each: those its
    checks reduce in, here without reducing, and the presheaf's nodes."""
    seen = {}

    def record(pres, elements, bound, check_id, claim, alt=None):
        seen[id(pres)] = pres
        return CheckResult(check_id, claim, "Verified", 0)

    with monkeypatch.context() as m:
        m.setattr(verify, "_reduce_check", record)
        verify.run_all(10, field)
    for pres in atlas.build_presheaf(field).nodes.values():
        seen[id(pres)] = pres
    return list(seen.values())


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["rat", "q3"])
def test_every_cached_point_is_a_point_of_its_presentation(monkeypatch, field):
    # recomputed one letter at a time from the free generators' values, each
    # point satisfies every relation and inverts every inverted element, and
    # assigns its own presentation's generators, never those of another
    # member of its renaming class
    atlas.clear_caches()
    presentations = _presentations_run_all_reads(monkeypatch, field)
    assert len(presentations) == 51 + 6
    classes = {}
    for pres in presentations:
        classes.setdefault(pres.key, set()).add(pres.generators)
        points = verify.variety_points(pres)
        assert len(points) == 4, pres.name
        defined = {sid for sid, _, _ in pres.definitions}
        for point in points:
            assert set(point) == set(pres.generators), pres.name
            free = {g: v for g, v in point.items() if g not in defined}
            assert extend_point(pres, free) == point, pres.name
            assert all(field.is_zero(evaluate(r, point)) for r in pres.relations), pres.name
            assert not any(field.is_zero(evaluate(u, point)) for u in pres.inverted), pres.name
    assert any(len(members) > 1 for members in classes.values())
    atlas.clear_caches()


@pytest.mark.parametrize("q", [2, 3])
def test_the_cached_points_are_distinct_over_a_small_field(monkeypatch, q):
    # over F_2 and F_3 the first valid samples of the seed often repeat a
    # point; a repeat is skipped, so each presentation a check reads keeps
    # four pairwise distinct points
    checks = _recorded_checks(monkeypatch)
    atlas.clear_caches()
    verify.run_all(6, GF(q))
    presentations = {id(pres): pres for pres, _, _ in checks}.values()
    for pres in presentations:
        points = verify.variety_points(pres)
        assert len(points) == 4, pres.name
        assert all(p != p2 for p, p2 in combinations(points, 2)), pres.name
    atlas.clear_caches()


def _unreduced_checks(monkeypatch):
    """check id -> (presentation, elements) of every _reduce_check call from
    now on; each is reported Verified without reducing."""
    checks = {}

    def record(pres, elements, bound, check_id, claim, alt=None):
        checks[check_id] = (pres, list(elements))
        return CheckResult(check_id, claim, "Verified", 0)

    monkeypatch.setattr(verify, "_reduce_check", record)
    return checks


def test_the_lemma_cocycle_and_functoriality_suites_state_one_identity(monkeypatch):
    # three suites state the composite-equals-direct identity of a chain;
    # pinned here, so that the suites cannot drift apart
    checks = _unreduced_checks(monkeypatch)
    atlas.clear_caches()
    verify.verify_disjoint_lemma()
    verify.suite_cocycle()
    verify.verify_functoriality()
    atlas.clear_caches()

    def rows(prefix):
        return [(p.key, els) for cid, (p, els) in checks.items() if cid.startswith(prefix)]

    # the lemma's forward closed forms are the cocycle checks of its chain
    closed_forms = rows("lemma(1,2|2,3|3,4):closed-form:")
    assert len(closed_forms) == 4
    assert closed_forms == rows("cocycle(1,2|2,3|3,4):")

    # each cocycle check is, up to sign, the functoriality check of its far
    # chart through the pair of its end charts
    def up_to_sign(elements):
        return {frozenset((e, -e)) for e in elements if not e.is_zero()}

    triples = [atlas.triple_ordering(c) for c in combinations(atlas.all_charts(), 3)]
    for t in triples:
        base, far = t[0], t[-1]
        cocycle = [e for _, els in rows(f"cocycle{atlas.overlap_tag(t)}:") for e in els]
        assert len(cocycle) == 4
        names = (atlas.PosetIndex.of(*c).name for c in ((far,), (base, far), t))
        _, residuals = checks["functor:" + "<".join(names)]
        assert up_to_sign(cocycle) == up_to_sign(residuals), t

    # and most functoriality checks hold before any reduction
    functor = [els for cid, (_, els) in checks.items() if cid.startswith("functor:")]
    assert len(functor) == 120
    assert sum(all(e.is_zero() for e in els) for els in functor) == 94


def test_every_verified_element_vanishes_at_the_cached_points(monkeypatch):
    # an audit of the rewrite engine that does not trust it: an element of a
    # Verified check lies in the ideal, so it vanishes at every point of the
    # presented variety, whatever the central module variables are
    checks = _recorded_checks(monkeypatch)
    atlas.clear_caches()
    verify.run_all(10)
    _mutant_suites(12)
    module_values = {sy.module_var(j): j + 1 for j in range(1, 5)}
    verified = [(pres, elements, r) for pres, elements, r in checks if r.verified]
    nonzero = [
        r.check_id
        for pres, elements, r in verified
        for point in verify.variety_points(pres)
        if any(not pres.field.is_zero(evaluate(e, {**point, **module_values})) for e in elements)
    ]
    assert nonzero == []
    # 472 of run_all and 378 of the mutants
    assert len(verified) == 850
    atlas.clear_caches()


@pytest.mark.parametrize("selector", sorted(verify.SUITES))
def test_each_suite_alone_gives_its_entries_of_the_full_report(selector):
    # what a check reports does not depend on what the completion cache held
    # before it: each suite from cold caches matches its run_all entries
    known = {c["id"]: c for c in json.loads(VERIFY_ALL_B10.read_text("utf-8"))["checks"]}
    atlas.clear_caches()
    entries = [r.as_dict() for r in verify.SUITES[selector](10, QQ)]
    atlas.clear_caches()
    assert entries
    assert all(known[e["id"]] == e for e in entries)
