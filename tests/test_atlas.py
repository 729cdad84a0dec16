"""Chart presentations, overlap localizations, chains, and the index poset."""

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from ncgrass import atlas, points, verify
from ncgrass import symbols as sy
from ncgrass.fields import GF, QQ
from ncgrass.poly import NcPoly, poly_str
from oracles import chart_relations_bruteforce, evaluate, extend_point


def test_all_charts():
    charts = atlas.all_charts()
    assert charts == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_overlap_type():
    assert atlas.overlap_type((1, 2), (2, 3)) == "adjacent"
    assert atlas.overlap_type((1, 2), (3, 4)) == "disjoint"
    assert atlas.overlap_type((1, 2), (1, 2)) == "equal"


def test_each_chart_has_four_adjacent_and_one_disjoint_partner():
    for lam in atlas.all_charts():
        kinds = [atlas.overlap_type(lam, mu) for mu in atlas.all_charts() if mu != lam]
        assert kinds.count("adjacent") == 4
        assert kinds.count("disjoint") == 1


def test_chart_relations_against_bruteforce_oracle():
    # the closed-form generator list and the exhaustive commutator scan must
    # produce the same ideal generators
    for lam in [(1, 2), (1, 3), (2, 4), (3, 4)]:
        fast = {poly_str(r.monic()) for r in atlas.chart_relations(lam)}
        slow = chart_relations_bruteforce(lam)
        assert fast == slow
        assert len(fast) == 3


def test_chart_presentation_shape():
    pres = atlas.chart_presentation((1, 2))
    assert pres.name == "R(1,2)"
    assert len(pres.generators) == 4
    assert len(pres.relations) == 3
    assert list(pres.names()) == [sy.sym_name(g) for g in pres.generators]
    with_mod = atlas.chart_presentation((1, 2), with_module=True)
    assert with_mod.name == "F(1,2)"
    assert len(with_mod.names()) == 4 + 4
    names = with_mod.names()
    assert {"x(1)", "x(2)", "x(3)", "x(4)"} <= set(names)
    with pytest.raises(ValueError):
        atlas.chart_presentation((1, 5))


def test_universal_module_relations():
    rels = atlas.universal_module_relations((1, 3), QQ)
    assert len(rels) == 2
    outside = set()
    for rel in rels:
        outside |= {
            sy.sym(s).i
            for w in rel.terms
            for s in w
            if sy.is_module_var(s) and sy.sym(s).i not in (1, 3)
        }
    assert outside == {2, 4}


def test_eliminate_module_vars_expands_only_the_outside_variables():
    x = lambda k: NcPoly.gen(QQ, sy.module_var(k))
    a13 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    for lam in atlas.all_charts():
        system = atlas.chart_presentation(lam, with_module=True).completed(4)
        for j in atlas.outside(lam):
            expansion = NcPoly.zero(QQ)
            for i in lam:
                expansion = expansion + NcPoly.gen(QQ, sy.entry(lam, i, j)) * x(i)
            assert atlas.eliminate_module_vars(lam, x(j)) == expansion
            # the expansion is already a normal form of the chart algebra
            assert system.normal_form(expansion, 4) == expansion
        for i in lam:
            assert atlas.eliminate_module_vars(lam, x(i)) == x(i)
    # every other letter stays where it is, and x(3) and x(4) are central
    p = (a13 * x(4)).scale(2) - x(1) * x(3) + NcPoly.scalar(QQ, 5)
    a = lambda i, j: NcPoly.gen(QQ, sy.entry((1, 2), i, j))
    assert atlas.eliminate_module_vars((1, 2), p) == (
        (a13 * a(1, 4) * x(1) + a13 * a(2, 4) * x(2)).scale(2)
        - a13 * x(1) * x(1)
        - a(2, 3) * x(1) * x(2)
        + NcPoly.scalar(QQ, 5)
    )


def test_adjacent_overlap_structure():
    pair = atlas.adjacent_overlap((1, 2), (2, 3))
    assert pair.kind == "adjacent"
    pres = pair.presentation
    assert pres.name == "O(1,2|2,3)"
    # base entries plus the inverted pivot
    assert len(pres.generators) == 5
    piv = atlas.pivot_entry((1, 2), (2, 3))
    assert sy.inverse_symbol(piv) in pres.generators
    # to_base covers every far-chart entry
    far = [sy.entry((2, 3), i, j) for i in (2, 3) for j in (1, 4)]
    assert set(far) <= set(pair.to_base.mapping)
    # from_base maps exactly the base entries
    assert set(pair.from_base.mapping) == set(atlas.chart_entries((1, 2)))


def test_disjoint_overlap_structure():
    pair = atlas.disjoint_overlap((1, 2), (3, 4))
    assert pair.kind == "disjoint"
    pres = pair.presentation
    gens = set(pres.generators)
    # both charts' entries and all four quasi-determinant symbols
    assert len(pres.generators) == 12
    assert sy.quasi_det((1, 2), (3, 4)) in gens
    assert sy.quasi_det_inverse((1, 2), (3, 4)) in gens
    assert sy.quasi_det((3, 4), (1, 2)) in gens
    assert sy.quasi_det_inverse((3, 4), (1, 2)) in gens
    # from_base maps exactly the base entries
    assert set(pair.from_base.mapping) == set(atlas.chart_entries((1, 2)))


def test_disjoint_pair_inverts_the_quasi_determinant():
    pair = atlas.disjoint_overlap((1, 2), (3, 4))
    system = pair.presentation.completed(6)
    d = NcPoly.gen(QQ, sy.quasi_det((1, 2), (3, 4)))
    d2 = NcPoly.gen(QQ, sy.quasi_det((3, 4), (1, 2)))
    one = NcPoly.scalar(QQ, QQ.one)
    assert system.normal_form(d * d2 - one, 6).is_zero()
    assert system.normal_form(d2 * d - one, 6).is_zero()


def test_quasi_det_element_golden():
    det = atlas.quasi_det_element((1, 2), (3, 4))
    assert poly_str(det) == "a(1,2;1,3)*a(1,2;2,4) - a(1,2;1,4)*a(1,2;2,3)"


def test_pair_overlap_dispatch_and_validation():
    assert atlas.pair_overlap((1, 2), (2, 3)).kind == "adjacent"
    assert atlas.pair_overlap((1, 2), (3, 4)).kind == "disjoint"
    with pytest.raises(ValueError):
        atlas.pair_overlap((1, 2), (1, 2))


def test_adjacent_sigma_relabels_the_canonical_pair():
    # the canonical pair relabels to itself
    sigma = atlas.adjacent_sigma((1, 2), (2, 3))
    assert all(sigma[k] == k for k in sigma)
    # every adjacent pair gets a full relabeling dictionary
    for a, b in permutations(atlas.all_charts(), 2):
        if atlas.overlap_type(a, b) != "adjacent":
            continue
        sigma = atlas.adjacent_sigma(a, b)
        assert sorted(sigma.values()) == [1, 2, 3, 4]


def test_transition_formulas_are_syntactically_involutive():
    # substituting from_base into each far generator and reducing must give
    # back that generator; spot-check one non-canonical adjacent pair
    pair = atlas.adjacent_overlap((1, 4), (1, 3))
    system = pair.presentation.completed(6)
    for g in atlas.chart_presentation((1, 4)).generators:
        recovered = pair.to_base.apply(pair.from_base.mapping[g])
        assert system.normal_form(recovered - NcPoly.gen(QQ, g), 6).is_zero()


def test_two_chain_of_a_disjoint_pair_matches_the_pair():
    pair = atlas.pair_overlap((1, 2), (3, 4))
    chain = atlas.overlap_chain(((1, 2), (3, 4)))
    far = [sy.entry((3, 4), i, j) for i in (3, 4) for j in (1, 2)]
    system = chain.presentation.completed(6)
    for g in far:
        diff = pair.to_base.mapping[g] - chain.homs[(3, 4)].mapping[g]
        assert system.normal_form(diff, 6).is_zero()


def test_triple_ordering():
    # path triples put the disjoint pair at the ends
    order = atlas.triple_ordering(((1, 2), (2, 3), (3, 4)))
    assert order[0] == (1, 2) and order[2] == (3, 4)
    assert atlas.overlap_type(order[0], order[2]) == "disjoint"
    # triangle triples are sorted
    order = atlas.triple_ordering(((2, 3), (1, 2), (1, 3)))
    assert order == ((1, 2), (1, 3), (2, 3))
    triples = list(combinations(atlas.all_charts(), 3))
    assert len(triples) == 20
    # a chart's only disjoint partner is its complement
    for t in triples:
        pairs = combinations(t, 2)
        assert sum(atlas.overlap_type(a, b) == "disjoint" for a, b in pairs) <= 1


def _every_presentation():
    """The 6 charts, the 30 ordered pair overlaps and the 120 ordered chains."""
    charts = atlas.all_charts()
    yield from (atlas.chart_presentation(c) for c in charts)
    yield from (atlas.pair_overlap(a, b).presentation for a, b in permutations(charts, 2))
    yield from (atlas.overlap_chain(t).presentation for t in permutations(charts, 3))


def test_every_inverted_element_is_the_expression_of_an_inverse_definition():
    # so the in-order reference evaluation divides by zero wherever an
    # inverted element vanishes, and an evaluator, which tests each inverted
    # element as soon as its symbols are set, meets an inverse of zero only
    # on a fault in the formulas
    rng = random.Random(3)
    count = 0
    for pres in _every_presentation():
        sids = [sid for sid, _, _ in pres.definitions]
        assert len(set(sids)) == len(sids), pres.name
        inverse_exprs = [expr for _, expr, as_inv in pres.definitions if as_inv]
        assert all(u in inverse_exprs for u in pres.inverted), pres.name
        free = [g for g in pres.generators if g not in sids]
        assert free == list(atlas.chart_entries(pres.base_chart)), pres.name
        point = pres.evaluator(pres.field, [NcPoly.gen(QQ, s) for s in sids])
        for _ in range(20):
            vals = [rng.randint(-1, 1) for _ in free]
            got = point(*vals)
            if got is None:
                continue
            values = dict(zip(free + sids, vals + list(got)))
            assert not any(QQ.is_zero(evaluate(u, values)) for u in pres.inverted)
        count += 1
    assert count == 156


def test_evaluator_matches_the_in_order_reference_on_every_presentation():
    # the defined symbols and every relation, at 20 seeded points each; None
    # exactly where the reference divides by zero, and the same int or
    # Fraction values where it does not
    rng = random.Random(11)
    off = on = 0
    for pres in _every_presentation():
        sids = [sid for sid, _, _ in pres.definitions]
        free = [g for g in pres.generators if g not in sids]
        outputs = [NcPoly.gen(QQ, s) for s in sids] + list(pres.relations)
        point = pres.evaluator(pres.field, outputs)
        for _ in range(20):
            vals = [rng.randint(-2, 2) for _ in free]
            try:
                values = extend_point(pres, dict(zip(free, vals)))
            except ZeroDivisionError:
                assert point(*vals) is None, (pres.name, vals)
                off += 1
                continue
            want = tuple(evaluate(p, values) for p in outputs)
            got = point(*vals)
            assert got == want, (pres.name, vals)
            assert [type(v) for v in got] == [type(v) for v in want], (pres.name, vals)
            on += 1
    assert off and on and off + on == 156 * 20


def test_evaluator_keeps_a_fraction_coefficient_exact():
    a, b, c = atlas.chart_entries((1, 2))[:3]
    half = NcPoly.gen(QQ, a).scale(Fraction(1, 2))
    pres = atlas.AlgebraPresentation(
        name="T",
        field=QQ,
        base_chart=(1, 2),
        generators=(a, b, c),
        commutation_relations=(),
        definitions=((b, half, False), (c, half, True)),
        inverted=(half,),
    )
    # the point takes all four base entries; the definitions set b and c
    point = pres.evaluator(pres.field, (NcPoly.gen(QQ, b), NcPoly.gen(QQ, c)))
    assert point(3, 0, 0, 0) == (Fraction(3, 2), Fraction(2, 3))
    assert all(type(v) is Fraction for v in point(3, 0, 0, 0))
    assert point(2, 0, 0, 0) == (1, 1)
    assert point(0, 0, 0, 0) is None
    # in F_5 the coefficient 1/2 is 3
    in_f5 = pres.evaluator(GF(5), (NcPoly.gen(QQ, b), NcPoly.gen(QQ, c)))
    assert in_f5(3, 0, 0, 0) == (4, 4)
    assert in_f5(5, 0, 0, 0) is None


def test_evaluator_rejects_an_inverted_element_no_point_sets():
    # x(1) is neither a base entry nor defined, so no assignment of the
    # base entries decides whether it vanishes
    x = NcPoly.gen(QQ, sy.module_var(1))
    pres = atlas.AlgebraPresentation(
        name="T",
        field=QQ,
        base_chart=(1, 2),
        generators=atlas.chart_entries((1, 2)),
        commutation_relations=(),
        inverted=(x,),
    )
    with pytest.raises(ValueError, match=r"T inverts x\(1\), which holds a symbol"):
        pres.evaluator(QQ, ())


def test_a_presentation_over_qq_evaluates_in_f_q_as_its_build_over_f_q():
    # what the points layer relies on: every pair overlap and chain has
    # integral coefficients, so its QQ build compiled in F_3 computes what
    # the same presentation built over F_3 does
    qq = list(_every_presentation())
    charts = atlas.all_charts()
    f3 = [atlas.chart_presentation(c, GF(3)) for c in charts]
    f3 += [atlas.pair_overlap(a, b, GF(3)).presentation for a, b in permutations(charts, 2)]
    f3 += [atlas.overlap_chain(t, GF(3)).presentation for t in permutations(charts, 3)]
    for pres, pres3 in zip(qq, f3):
        assert (pres.name, pres.generators) == (pres3.name, pres3.generators)
        sids = [sid for sid, _, _ in pres.definitions]
        free = [g for g in pres.generators if g not in sids]
        outputs = [NcPoly.gen(QQ, s) for s in sids] + list(pres.relations)
        point = pres.evaluator(GF(3), outputs)
        outputs3 = [NcPoly.gen(GF(3), s) for s in sids] + list(pres3.relations)
        point3 = pres3.evaluator(GF(3), outputs3)
        for vals in product(range(3), repeat=len(free)):
            assert point(*vals) == point3(*vals), (pres.name, vals)


def _chain_guarding_an_adjoined_symbol():
    """An ordered chain over GF(3) and one of its inverted elements that
    holds a symbol some definition sets."""
    for t in permutations(atlas.all_charts(), 3):
        pres = atlas.overlap_chain(t, GF(3)).presentation
        sids = {sid for sid, _, _ in pres.definitions}
        for u in pres.inverted:
            if u.symbols() & sids:
                return pres, u
    raise AssertionError("no chain inverts an element holding an adjoined symbol")


def test_evaluator_tests_an_inverted_element_once_its_symbols_are_set():
    # testing every inverted element before the definitions would read an
    # unset symbol (KeyError), and testing it only at its inverse definition
    # would divide by zero there
    pres, u = _chain_guarding_an_adjoined_symbol()
    sids = [sid for sid, _, _ in pres.definitions]
    free = [g for g in pres.generators if g not in sids]
    point = pres.evaluator(pres.field, [u])
    last = max(k for k, sid in enumerate(sids) if sid in u.symbols())
    head = dataclasses.replace(pres, definitions=pres.definitions[: last + 1])
    vanishing = 0
    for vals in product(range(3), repeat=len(free)):
        got = point(*vals)
        try:
            values = extend_point(head, dict(zip(free, vals)))
        except ZeroDivisionError:
            continue
        if evaluate(u, values) == 0:
            vanishing += 1
            assert got is None, vals
    assert vanishing


def test_evaluator_source_reads_only_names_bound_in_its_namespace():
    pres = atlas.overlap_chain(((1, 2), (3, 4), (2, 3))).presentation
    sids = [sid for sid, _, _ in pres.definitions]
    witness = NcPoly.gen(QQ, sids[-1]).scale(Fraction(1, 2))
    point = pres.evaluator(pres.field, (witness,), zero=pres.relations)
    names = point.__code__.co_names
    assert "inv" in names and any(n.startswith("c") for n in names)
    assert set(names) <= set(point.__globals__) - {"__builtins__"}
    assert not set(names) & {sy.sym_name(s) for s in pres.generators}


def test_chain_presentation_names():
    chain = atlas.overlap_chain(((1, 2), (2, 3), (3, 4)))
    assert chain.presentation.name == "O(1,2|2,3|3,4)"
    assert set(chain.homs) == {(1, 2), (2, 3), (3, 4)}


def test_each_chain_hom_maps_only_its_own_charts_symbols():
    # so pair_to_chain_hom can merge the homs of a pair's two charts in
    # either order
    for charts in permutations(atlas.all_charts(), 3):
        chain = atlas.overlap_chain(charts)
        for c, hom in chain.homs.items():
            assert {sy.sym(s).chart for s in hom.mapping} == {c}


def test_point_extends_an_assignment_through_the_definitions_in_order():
    pair = atlas.pair_overlap((1, 2), (3, 4))
    pres = pair.presentation
    det = atlas.quasi_det_element((1, 2), (3, 4))
    sids = [sid for sid, _, _ in pres.definitions]
    free = [g for g in pres.generators if g not in sids]
    assert free == list(atlas.chart_entries((1, 2)))
    point = pres.evaluator(pres.field, [NcPoly.gen(QQ, s) for s in sids] + [det])
    *defined, d = point(2, 3, 5, 7)
    values = dict(zip(free + sids, [2, 3, 5, 7] + defined))
    assert d == 2 * 7 - 3 * 5
    assert values[sy.quasi_det((1, 2), (3, 4))] == d
    assert values[sy.quasi_det_inverse((1, 2), (3, 4))] == QQ.inv(d)
    # the far entries are defined from the base quasi-determinant's inverse
    for e in atlas.chart_entries((3, 4)):
        assert values[e] == evaluate(pair.to_base.mapping[e], values)
    # the quasi-determinant vanishes there, so the point is off the overlap
    assert point(1, 1, 1, 1) is None


# sha256 of the sorted (symbol, poly_str image) pairs of
# pair_to_chain_hom(pair_overlap(t[0], t[2]), overlap_chain(t)), one JSON line
# per ordered triple t in permutations order; recorded while every chain still
# kept a list of its (element, inverse) pairs beside its definitions
PAIR_TO_CHAIN_DIGEST = "3fa95656b150aff1e52c9de6702f0832ecf1cd9cc81fcdad362225c95cd717bb"


def test_pair_to_chain_images_match_the_recorded_digest():
    digest = hashlib.sha256()
    for t in permutations(atlas.all_charts(), 3):
        hom = atlas.pair_to_chain_hom(atlas.pair_overlap(t[0], t[2]), atlas.overlap_chain(t))
        items = sorted((sy.sym_name(s), poly_str(img)) for s, img in hom.mapping.items())
        digest.update(json.dumps(items).encode() + b"\n")
    assert digest.hexdigest() == PAIR_TO_CHAIN_DIGEST


def test_chain_knows_quasi_det_inverses():
    chain = atlas.overlap_chain(((1, 2), (2, 3), (3, 4)))
    det = atlas.quasi_det_element((1, 2), (3, 4))
    inv = chain.inverse_of(det)
    assert inv is not None
    system = chain.presentation.completed(8)
    one = NcPoly.scalar(QQ, QQ.one)
    assert system.normal_form(det * inv - one, 8).is_zero()
    assert system.normal_form(inv * det - one, 8).is_zero()


def test_chain_inverts_the_quasi_determinant_images_of_each_disjoint_pair():
    for charts in permutations(atlas.all_charts(), 3):
        chain = atlas.overlap_chain(charts)
        for a, b in combinations(charts, 2):
            if atlas.overlap_type(a, b) != "disjoint":
                continue
            ea = chain.homs[a].apply(atlas.quasi_det_element(a, b))
            eb = chain.homs[b].apply(atlas.quasi_det_element(b, a))
            assert chain.inverse_of(ea) == eb and chain.inverse_of(eb) == ea, charts


def test_poset_index():
    r12 = atlas.PosetIndex.of((1, 2))
    pair = atlas.PosetIndex.of((1, 2), (1, 3))
    assert r12.name == "R(1,2)"
    assert pair.name == "min(1,2/1,3)"
    triple = atlas.PosetIndex.of((1, 4), (1, 2), (1, 3))
    assert triple.charts == ((1, 2), (1, 3), (1, 4))
    assert triple.name == "min(1,2/1,3/1,4)"


def test_build_presheaf_shape():
    ps = atlas.build_presheaf()
    assert len(ps.nodes) == 6 + 15 + 20
    assert len(ps.restrictions) == 30 + 60 + 60
    for src, dst in ps.restrictions:
        # a restriction runs from an index to a deeper intersection
        assert set(src.charts) <= set(dst.charts)


def test_one_memo_keeps_every_overlap_until_clear_caches():
    atlas.clear_caches()
    memo = atlas._overlap_cache
    pair = atlas.pair_overlap((1, 2), (2, 3))
    chain = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)])
    # the same key, charts in any order within a chart, is the same object
    assert atlas.pair_overlap((2, 1), [3, 2], QQ, atlas.CANONICAL) is pair
    assert atlas.overlap_chain(((2, 1), (2, 3), (4, 3))) is chain
    # another field, formula set, pair order or kind is an entry of its own
    mutant = atlas.flip_sign(atlas.CANONICAL, atlas.sign_sites()[0])
    for build in (
        lambda: atlas.pair_overlap((1, 2), (2, 3), GF(3)),
        lambda: atlas.pair_overlap((1, 2), (2, 3), formulas=mutant),
        lambda: atlas.pair_overlap((2, 3), (1, 2)),
        lambda: atlas.overlap_chain([(1, 2), (2, 3)]),
    ):
        before = set(memo)
        got = build()
        assert got is not pair and build() is got
        (key,) = set(memo) - before
        assert memo[key] is got
    assert isinstance(got, atlas.ChainOverlap)
    # invalid input raises on every call and leaves no entry
    before = set(memo)
    for _ in range(2):
        with pytest.raises(ValueError):
            atlas.pair_overlap((1, 2), (2, 1))
        with pytest.raises(ValueError):
            atlas.overlap_chain([(1, 2), (1, 2)])
    assert set(memo) == before
    # the presheaf's minima are the cached presentations
    ps = atlas.build_presheaf()
    for idx, node in ps.nodes.items():
        if len(idx.charts) == 2:
            assert node is atlas.pair_overlap(*idx.charts).presentation
        elif len(idx.charts) == 3:
            assert node is atlas.overlap_chain(atlas.triple_ordering(idx.charts)).presentation
    # clear_caches empties the completion, overlap, transition and variety
    # point memos
    pair.presentation.completed(4)
    points.transport_table((1, 2), (1, 3), 2)
    verify.variety_points(pair.presentation)
    memos = (atlas._completion_cache, memo, points._transition_cache, verify._points_cache)
    assert sorted(map(id, atlas._caches)) == sorted(map(id, memos))
    assert all(memos)
    atlas.clear_caches()
    assert not any(memos)
    assert atlas.pair_overlap((1, 2), (2, 3)) is not pair


def test_a_pair_overlap_is_keyed_only_on_the_formula_groups_of_its_kind():
    # a sign mutant shares the other kind's canonical pair: an adjacent
    # site's mutant the disjoint pair, and a disjoint site's the adjacent one
    atlas.clear_caches()
    adjacent, disjoint = atlas.pair_overlap((1, 2), (2, 3)), atlas.pair_overlap((1, 2), (3, 4))
    for site in atlas.sign_sites():
        mutant = atlas.flip_sign(atlas.CANONICAL, site)
        own, other = (adjacent, disjoint) if site[0].startswith("adjacent") else (disjoint, adjacent)
        assert atlas.pair_overlap(other.lam, other.lam2, formulas=mutant) is other
        assert atlas.pair_overlap(own.lam, own.lam2, formulas=mutant) is not own
    atlas.clear_caches()


def test_presentations_over_finite_fields():
    pres = atlas.chart_presentation((1, 2), field=GF(5))
    assert pres.field is GF(5)
    system = pres.completed(4)
    for rel in pres.relations:
        assert system.normal_form(rel, 4).is_zero()


def test_equal_presentations_share_one_key_and_one_completion():
    atlas.clear_caches()
    first = atlas.chart_presentation((1, 2), with_module=True)
    second = atlas.chart_presentation((1, 2), with_module=True)
    key = first.key()
    # the field, the weights rank by rank, and each relation's terms with
    # every generator replaced by its rank under sy.KEY
    assert first.alphabet == first.generators
    relations = ("-1:0,1 1:1,0", "-1:2,3 1:3,2", "-1:0,3 -1:2,1 1:1,2 1:3,0")
    assert key == (QQ.key, (1, 1, 1, 1), relations)
    assert first.key() is key  # computed once
    assert second.key() == key and second.key() is not key
    assert first == second
    assert second.completed(4) is first.completed(4)
    # module relations enter no completion, so F(1,2) and R(1,2) share one
    bare = atlas.chart_presentation((1, 2))
    assert bare.key() == key and bare != first
    assert bare.completed(4) is first.completed(4)


def _pres_lines(pres):
    rels = lambda ps: [poly_str(p) for p in ps]
    return [
        pres.name,
        list(pres.base_chart),
        [sy.sym_name(g) for g in pres.generators],
        rels(pres.commutation_relations),
        rels(pres.definition_relations),
        rels(pres.inverse_relations),
        [[sy.sym_name(s), poly_str(e), inv] for s, e, inv in pres.definitions],
        rels(pres.inverted),
        sorted(pres.names()),
    ]


def _hom_lines(hom):
    return [[sy.sym_name(s), poly_str(img)] for s, img in hom.mapping.items()]


def _atlas_fingerprint(field):
    """Every chart, ordered pair overlap and ordered chain over `field`, with
    each Hom's images in mapping order, and every pair-to-chain restriction
    (or the ValueError it raises), one JSON line each."""
    charts = atlas.all_charts()
    for c in charts:
        for with_module in (False, True):
            yield _pres_lines(atlas.chart_presentation(c, field, with_module=with_module))
    pairs = {}
    for a, b in permutations(charts, 2):
        pair = pairs[a, b] = atlas.pair_overlap(a, b, field)
        yield [_pres_lines(pair.presentation), _hom_lines(pair.to_base), _hom_lines(pair.from_base)]
    for t in permutations(charts, 3):
        chain = atlas.overlap_chain(t, field)
        yield [_pres_lines(chain.presentation)] + [
            [list(c), _hom_lines(hom)] for c, hom in chain.homs.items()
        ]
        for a, b in permutations(t, 2):
            try:
                yield _hom_lines(atlas.pair_to_chain_hom(pairs[a, b], chain))
            except ValueError as e:
                yield str(e)


# sha256 of _atlas_fingerprint over QQ, then GF(3). Re-recorded when each
# from_base came to map only the base entries: the value equals the previous
# engine's fingerprint with every from_base restricted to its base-entry
# images, so every presentation, to_base, chain hom and pair-to-chain
# restriction is the one recorded before
ATLAS_FINGERPRINT_DIGEST = "ba2bb054ab9306bd7a8cbf109baadb8661281aa4c5199a8048f84aa08a3eefa7"


def test_every_atlas_construction_matches_the_recorded_digest():
    digest = hashlib.sha256()
    for field in (QQ, GF(3)):
        for line in _atlas_fingerprint(field):
            digest.update(json.dumps(line).encode() + b"\n")
    assert digest.hexdigest() == ATLAS_FINGERPRINT_DIGEST
