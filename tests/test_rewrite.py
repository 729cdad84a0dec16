"""Truncated diamond-lemma completion and the dimension oracles."""

import dataclasses
import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncgrass import atlas, rewrite, verify
from ncgrass import symbols as sy
from ncgrass.fields import QQ
from ncgrass.poly import (
    NcPoly,
    abelianize,
    commutator,
    mul_words,
    normalize_word,
    word_str,
    word_weight,
)
from ncgrass.rewrite import (
    RewriteRule,
    RewriteSystem,
    commutative_truncated_dimension,
    complete,
    orient,
)
from oracles import (
    count_irreducible_words,
    evaluate,
    private_completion,
    private_residues,
    truncated_dimension,
    words_of_weight,
)


def _gens():
    return [sy.entry((1, 2), i, j) for i in (1, 2) for j in (3, 4)]


def _chart_system(bound=4):
    pres = atlas.chart_presentation((1, 2))
    return pres, pres.completed(bound)


def test_orient_picks_the_leading_word():
    a13, a14 = (NcPoly.gen(QQ, s) for s in (sy.entry((1, 2), 1, 3), sy.entry((1, 2), 1, 4)))
    rule = orient(commutator(a13, a14))
    assert rule.lhs == (sy.entry((1, 2), 1, 4), sy.entry((1, 2), 1, 3))
    assert rule.rhs == a13 * a14
    # the other terms are divided by the leading coefficient and negated
    rule = orient((a14 * a13).scale(2) - (a13 * a14).scale(3) + a13.scale(5))
    assert rule.lhs == (sy.entry((1, 2), 1, 4), sy.entry((1, 2), 1, 3))
    assert rule.rhs == (a13 * a14).scale(Fraction(3, 2)) - a13.scale(Fraction(5, 2))
    with pytest.raises(ValueError):
        orient(NcPoly.zero(QQ))
    with pytest.raises(ValueError):
        orient(NcPoly.scalar(QQ, Fraction(3)))  # a unit relation collapses the ring


def test_chart_relations_reduce_to_zero():
    pres, system = _chart_system()
    for rel in pres.relations:
        assert system.normal_form(rel, 4).is_zero()


def test_normal_form_is_idempotent_and_linear():
    pres, system = _chart_system()
    rng = random.Random(11)
    gens = [NcPoly.gen(QQ, s) for s in pres.generators]
    for _ in range(25):
        p = NcPoly.zero(QQ)
        for _ in range(3):
            w = rng.sample(gens, k=rng.randint(1, 3))
            t = w[0]
            for f in w[1:]:
                t = t * f
            p = p + t.scale(Fraction(rng.randint(-4, 4)))
        nf = system.normal_form(p, 4)
        assert system.normal_form(nf, 4) == nf
        q = gens[rng.randrange(4)]
        assert system.normal_form(p + q, 4) == system.normal_form(nf + q, 4)


def test_confluence_spot_check():
    # random two-sided multiples of the relations must reduce to zero
    pres, system = _chart_system()
    rng = random.Random(23)
    gens = [NcPoly.gen(QQ, s) for s in pres.generators]
    for _ in range(60):
        rel = rng.choice(pres.relations)
        u = rng.choice(gens + [NcPoly.scalar(QQ, Fraction(1))])
        v = rng.choice(gens + [NcPoly.scalar(QQ, Fraction(1))])
        nf = system.normal_form(u * rel * v, 4)
        assert nf.is_zero(), nf


def test_soundness_by_commutative_sampling():
    # p - nf(p) lies in the two-sided ideal, and the chart ideal abelianizes
    # to zero, so p and nf(p) agree at every commutative point
    pres, system = _chart_system()
    rng = random.Random(5)
    gens = [NcPoly.gen(QQ, s) for s in pres.generators]
    for _ in range(100):
        t1 = gens[rng.randrange(4)] * gens[rng.randrange(4)] * gens[rng.randrange(4)]
        t2 = gens[rng.randrange(4)] * gens[rng.randrange(4)]
        p = t1 - t2.scale(Fraction(rng.randint(1, 5)))
        diff = abelianize(p - system.normal_form(p, 4))
        vals = {s: Fraction(rng.randint(-9, 9)) for s in pres.generators}
        assert evaluate(diff, vals) == Fraction(0)


def test_completion_reports_collapse():
    a13 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    units = [a13 - NcPoly.scalar(QQ, Fraction(1)), a13 - NcPoly.scalar(QQ, Fraction(2))]
    system = complete(RewriteSystem(QQ, [orient(u) for u in units]), 4)
    assert system.collapsed
    assert system.normal_form(NcPoly.scalar(QQ, Fraction(7)), 4).is_zero()


def test_words_of_weight_counts():
    gens = _gens()
    assert len(words_of_weight(gens, 0)) == 1
    assert len(words_of_weight(gens, 1)) == 4
    assert len(words_of_weight(gens, 3)) == 64
    d = sy.quasi_det((1, 2), (3, 4))
    # one weight-2 letter plus four weight-1 letters
    assert len(words_of_weight(gens + [d], 2)) == 17


def test_truncated_dimension_matches_rewriting_on_every_chart():
    for lam in atlas.all_charts():
        pres = atlas.chart_presentation(lam)
        system = pres.completed(4)
        for d in range(5):
            lin = truncated_dimension(QQ, pres.generators, list(pres.relations), d)
            rew = count_irreducible_words(system, 4, pres.generators, d)
            assert lin == rew, (lam, d, lin, rew)


def test_chart_degree_two_dimension_is_thirteen():
    pres = atlas.chart_presentation((1, 2))
    assert truncated_dimension(QQ, pres.generators, list(pres.relations), 2) == 13


def test_commutative_dimension_of_a_polynomial_ring():
    gens = _gens()
    rels = [abelianize(commutator(NcPoly.gen(QQ, gens[0]), NcPoly.gen(QQ, gens[1])))]
    # no honest relations: binomial coefficients of a 4-variable polynomial ring
    for d, expect in enumerate([1, 4, 10, 20, 35]):
        assert commutative_truncated_dimension(QQ, gens, rels, d) == expect
    # the quadric a13*a24 - a14*a23 cuts a 3-dimensional cone: (d+1)^2 in degree d
    a13, a14, a23, a24 = (NcPoly.gen(QQ, g) for g in gens)
    quadric = [abelianize(a13 * a24 - a14 * a23)]
    for d, expect in enumerate([1, 4, 9, 16, 25]):
        assert commutative_truncated_dimension(QQ, gens, quadric, d) == expect


def _rule_list_digest(system):
    """sha256 of the rule list as (lhs, rhs terms in print order), by symbol name."""
    items = [
        (word_str(r.lhs), [(word_str(w), str(c)) for w, c in r.rhs.sorted_terms()])
        for r in system.rules
    ]
    return hashlib.sha256(repr(items).encode()).hexdigest()


# O(1,2|2,3|3,4) completed at bound 8 by the engine before redex indexing, the
# weight pre-filter and resuming: 102 rules
CHAIN_B8_DIGEST = "47fb0eee23ee711c16e9bbb5a35883e925d1ad52e90cde1fc9150cdc324d0d18"


# O(1,2|3,4) completed at bound 8 by the engine that tried every rule pair:
# 1,098 rules
DISJOINT_B8_DIGEST = "72040e7ef11e567dae3cb0d32a3d09ef1a5441b4e2d5292bb8b558c075cfa9eb"


# O(1,2|2,3|3,4) completed at bound 12 by the engine that probed a hash
# index of lhs words for redexes: 369 rules
CHAIN_B12_DIGEST = "a516757b28d4b4bb65e4d21c06ff2c13f58d15b49b49bfbc4f68a6599f365121"


# O(1,2|2,3|3,4) completed at bound 14 by the engine that queried each
# superposing rule pair for its ambiguities: 742 rules
CHAIN_B14_DIGEST = "09969cc87146f01a03debbe36ccea0459a174addfe3a5f88438248463da9bff4"


_CHAIN = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation


def _chain_base():
    return RewriteSystem(QQ, _CHAIN.rewrite_rules())


def _linear_scan_redex(rules, w):
    """The leftmost, lowest-index match of a rule's lhs in w, rule by rule."""
    matches = [
        (pos, idx)
        for pos in range(len(w))
        for idx, r in enumerate(rules)
        if w[pos : pos + len(r.lhs)] == r.lhs
    ]
    return min(matches) if matches else None


def test_find_redex_tie_break():
    a, b, c = sy.entry((1, 2), 1, 3), sy.entry((1, 2), 1, 4), sy.entry((1, 2), 2, 3)
    zero = NcPoly.zero(QQ)
    # a match further left wins over a lower rule index
    s = RewriteSystem(QQ, [RewriteRule((b, c), zero), RewriteRule((a, b), zero)])
    assert s.find_redex((a, b, c), 2) == (0, 1)
    # at the same position the lowest index wins, whatever the lhs lengths
    s = RewriteSystem(QQ, [RewriteRule((a, b, c), zero), RewriteRule((a, b), zero)])
    assert s.find_redex((c, a, b, c), 2) == (1, 0)
    s = RewriteSystem(QQ, [RewriteRule((a, b), zero), RewriteRule((a, b, c), zero)])
    assert s.find_redex((c, a, b, c), 2) == (1, 0)
    assert s.find_redex((c, a, c), 2) is None
    # rules past `end` are not read
    assert s.find_redex((c, a, b, c), 0) is None
    # a duplicate lhs resolves to its first index
    one, two = NcPoly.scalar(QQ, 1), NcPoly.scalar(QQ, 2)
    s = RewriteSystem(
        QQ, [RewriteRule((c,), zero), RewriteRule((a, b), one), RewriteRule((a, b), two)]
    )
    assert s.find_redex((a, b), 3) == (0, 1)
    assert s.normal_form(NcPoly.from_word(QQ, (a, b))) == one


def test_find_redex_agrees_with_a_linear_scan():
    system = complete(_chain_base(), 8)
    gens = sorted({s for r in system.rules for s in r.lhs})
    rng = random.Random(7)
    for _ in range(400):
        w = tuple(rng.choice(gens) for _ in range(rng.randint(1, 9)))
        assert system.find_redex(w, len(system.rules)) == _linear_scan_redex(system.rules, w)


def _generic_expand(system, w, pos, idx):
    """One rewrite of w at pos with rule idx: the normalized products, with
    equal words summed and zero coefficients dropped."""
    rule = system.rules[idx]
    prefix, suffix = w[:pos], w[pos + len(rule.lhs) :]
    out = {}
    for rw, rc in rule.rhs.terms.items():
        nw = mul_words(mul_words(prefix, rw), suffix)
        out[nw] = QQ.add(out[nw], rc) if nw in out else rc
    return {nw: c for nw, c in out.items() if not QQ.is_zero(c)}


_CHAIN_LETTERS = sorted(_CHAIN.generators)
_MODULE_VARS = [sy.module_var(k) for k in (1, 2, 3)]
_context_word = st.lists(st.sampled_from(_CHAIN_LETTERS), max_size=3).map(tuple)


@settings(max_examples=40, deadline=None, database=None)
@given(_context_word, _context_word, st.lists(st.sampled_from(_MODULE_VARS), max_size=2))
@example((), (), [_MODULE_VARS[0]])
def test_one_step_expansion_equals_the_generic_one(prefix, suffix, tail):
    # term for term and in the same order, for every rule of the chain, on
    # words that end in a module tail, as the elements of module gluing do
    tail = normalize_word(tail)
    system = _CHAIN.completed(8)
    for idx, rule in enumerate(system.rules):
        w = normalize_word(prefix + rule.lhs + suffix + tail)
        got = system._expand(w, len(prefix), idx)
        assert list(got.items()) == list(_generic_expand(system, w, len(prefix), idx).items())


def test_ordinary_rules_hold_no_module_variable():
    # no rule holds one: module variables are eliminated before reduction
    a, x = sy.entry((1, 2), 1, 3), sy.module_var(1)
    with pytest.raises(ValueError):
        RewriteRule((a, a), NcPoly.from_word(QQ, (a, x)))
    with pytest.raises(ValueError):
        RewriteRule((a, x), NcPoly.zero(QQ))


def test_a_rung_reads_only_its_prefix():
    system = complete(_chain_base(), 12)
    end = system.ends[8]
    # the first rule past rung 8: its lhs is irreducible by the rules before
    rule = system.rules[end]
    lhs = NcPoly.from_word(QQ, rule.lhs)
    assert system.find_redex(rule.lhs, end) is None
    assert system.find_redex(rule.lhs, len(system.rules)) == (0, end)
    assert system.normal_form(lhs, 8) == lhs
    assert system.normal_form(lhs, 12) == system.normal_form(rule.rhs, 12)
    with pytest.raises(IndexError):
        system.normal_form(lhs, 13)


def test_completion_rules_from_scratch_and_resumed():
    scratch = complete(_chain_base(), 8)
    assert len(scratch.rules) == 102
    assert _rule_list_digest(scratch) == CHAIN_B8_DIGEST
    resumed = _chain_base()
    for b in (4, 6, 8):
        assert complete(resumed, b) is resumed
        assert len(resumed.ends) == b + 1
    assert _rule_list_digest(resumed) == CHAIN_B8_DIGEST
    assert resumed.ends == scratch.ends
    # the completion cache climbs the same ladder in one system
    atlas.clear_caches()
    pres = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation
    assert [len(pres.completed(b).rules) for b in (4, 6, 8)] == [15, 28, 102]
    assert _rule_list_digest(pres.completed(8)) == CHAIN_B8_DIGEST


def test_chain_rules_at_bound_12():
    system = complete(_chain_base(), 12)
    assert len(system.rules) == 369
    assert _rule_list_digest(system) == CHAIN_B12_DIGEST
    # resuming enters the rules with the lower edge of each window
    resumed = _chain_base()
    for b in (8, 10, 12):
        resumed = complete(resumed, b)
    assert _rule_list_digest(resumed) == CHAIN_B12_DIGEST


def test_chain_rules_at_bound_14():
    system = complete(_chain_base(), 14)
    assert len(system.rules) == 742
    assert _rule_list_digest(system) == CHAIN_B14_DIGEST


# the rung ends of runs from the base rules: the chain at bounds 4..12 and
# the disjoint pair at 4..8
CHAIN_ENDS = [15, 21, 28, 69, 102, 142, 195, 267, 369]
DISJOINT_ENDS = [138, 202, 330, 586, 1098]


def test_each_rung_is_a_prefix_of_the_next(monkeypatch):
    disjoint = atlas.pair_overlap((1, 2), (3, 4)).presentation
    for pres, ends in ((_CHAIN, CHAIN_ENDS), (disjoint, DISJOINT_ENDS)):
        runs = [
            complete(RewriteSystem(QQ, pres.rewrite_rules()), b)
            for b in range(4, 4 + len(ends))
        ]
        assert [len(s.rules) for s in runs] == ends
        items = [[(r.lhs, r.rhs) for r in s.rules] for s in runs]
        for low, high in zip(items, items[1:]):
            assert high[: len(low)] == low
        # a run records the end of every rung it passes
        assert runs[-1].ends[4:] == ends
    # so does the cache, and a lower rung is read without another run
    atlas.clear_caches()
    system = _CHAIN.completed(12)
    assert system.ends[4:] == CHAIN_ENDS
    monkeypatch.setattr(atlas, "complete", lambda *args: pytest.fail("a second run"))
    assert _CHAIN.completed(4) is system
    lhs = NcPoly.from_word(QQ, system.rules[15].lhs)  # the first rule past rung 4
    assert system.normal_form(lhs, 4) == lhs != system.normal_form(lhs, 12)
    atlas.clear_caches()


def test_a_collapsed_system_stays_collapsed_when_resumed():
    a13 = NcPoly.gen(QQ, sy.entry((1, 2), 1, 3))
    one = NcPoly.scalar(QQ, Fraction(1))
    relations = [a13 - one, a13 * a13 - NcPoly.scalar(QQ, Fraction(2))]
    # the inclusion of a13 in a13*a13, of weight 2, reduces to the unit 1
    low = complete(RewriteSystem(QQ, [orient(r) for r in relations]), 2)
    assert low.collapsed and low.ends == [2, 2]
    assert complete(low, 6) is low
    assert low.collapsed and low.ends == [2, 2]
    scratch = complete(RewriteSystem(QQ, [orient(r) for r in relations]), 6)
    assert scratch.ends == low.ends
    assert _rule_list_digest(scratch) == _rule_list_digest(low)
    # the rungs below the unit's weight are not the zero ring
    assert low.normal_form(a13, 1) == one
    assert low.normal_form(a13, 2).is_zero()


def test_a_completion_paused_after_every_rule_resumes_to_the_same_rules():
    system = _chain_base()
    sizes = []
    while not system.has_rung(12):
        assert complete(system, 12, until=lambda s: True) is system
        sizes.append(len(system.rules))
    # a pause after each new rule, and at each rung end a run records
    assert sizes == sorted(sizes)
    assert set(sizes) == set(range(len(_CHAIN.relations), 370))
    assert system.ends[4:] == CHAIN_ENDS
    assert _rule_list_digest(system) == CHAIN_B12_DIGEST


def _pause_the_chain_part_way(pres, bound):
    """Leave the chain's completion paused in the cache short of rung
    `bound`: rule 50 of a run from scratch, as an element, reduces to zero
    by the time that rule is added, before the rung ends."""
    rule = complete(_chain_base(), bound).rules[50]
    assert atlas.residues(pres, [NcPoly.from_word(QQ, rule.lhs) - rule.rhs], bound) == []
    _, paused = atlas._completion_cache[pres.key]  # (alphabet, system)
    assert paused.pending is not None and not paused.has_rung(bound)
    return paused


def test_a_completion_paused_below_a_bound_is_drained_then_extended():
    atlas.clear_caches()
    pres = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation
    paused = _pause_the_chain_part_way(pres, 8)
    assert len(paused.rules) <= 51
    # bound 12 runs the paused run to rung 8, then the window (8, 12]
    assert pres.completed(12) is paused
    assert paused.pending is None
    assert paused.ends[4:] == CHAIN_ENDS
    assert _rule_list_digest(paused) == CHAIN_B12_DIGEST
    atlas.clear_caches()


def test_a_completion_paused_above_a_bound_stops_at_the_rung_end():
    atlas.clear_caches()
    pres = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation
    paused = _pause_the_chain_part_way(pres, 12)
    assert len(paused.rules) < CHAIN_ENDS[4]
    # bound 8 resumes the run at 12 until rung 8 ends, and leaves it paused
    assert pres.completed(8) is paused
    assert paused.pending is not None and len(paused.rules) == paused.ends[8] == 102
    assert _rule_list_digest(paused) == CHAIN_B8_DIGEST
    assert pres.completed(12) is paused
    assert paused.pending is None
    assert _rule_list_digest(paused) == CHAIN_B12_DIGEST
    atlas.clear_caches()


def test_clear_caches_leaves_no_paused_completion():
    atlas.clear_caches()
    pres = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation
    first = _pause_the_chain_part_way(pres, 8)
    atlas.clear_caches()
    assert atlas._completion_cache == {}
    # the next pause comes from a fresh run, at the same rule
    again = _pause_the_chain_part_way(pres, 8)
    assert again is not first and len(again.rules) == len(first.rules)
    atlas.clear_caches()


def test_residues_run_the_rung_to_the_end_on_a_nonmember():
    atlas.clear_caches()
    pres = atlas.overlap_chain([(1, 2), (2, 3), (3, 4)]).presentation
    a = NcPoly.gen(QQ, pres.generators[0])
    # the nonzero normal forms, in element order
    assert atlas.residues(pres, [NcPoly.scalar(QQ, 0), a, a + a], 6) == [a, a + a]
    _, system = atlas._completion_cache[pres.key]  # (alphabet, system)
    assert system.pending is None and len(system.ends) == 7
    assert system.ends[6] == len(system.rules) == 28
    # a complete rung is read, not resumed
    assert atlas.residues(pres, [a], 6) == [a]
    assert pres.completed(6) is system
    atlas.clear_caches()


def _renamed_items(rules, names):
    """Each rule as (lhs, rhs terms in order), every symbol s read as names[s]."""
    rename = lambda w: tuple(names[s] for s in w)
    return [(rename(r.lhs), [(rename(w), c) for w, c in r.rhs.terms.items()]) for r in rules]


def _holds_quasi_det(pres):
    return any(sy.sym(g).kind in (sy.QUASI_DET, sy.QUASI_DET_INV) for g in pres.generators)


def test_every_member_completes_to_its_class_system_renamed(monkeypatch):
    # a cold run_all(10) asks for the completions of 51 presentations, which
    # share 16 systems. Each member's completion from scratch is its class
    # system's rule list, with each generator renamed to the member's
    # generator of the same rank: rule for rule, term for term, in order
    atlas.clear_caches()
    members = {}
    real = atlas._class_completion

    def recorded(pres):
        members.setdefault((pres.generators, pres.relations), pres)
        return real(pres)

    monkeypatch.setattr(atlas, "_class_completion", recorded)
    verify.run_all(10)
    assert len(members) == 51 and len(atlas._completion_cache) == 16
    for pres in members.values():
        alphabet, shared = atlas._completion_cache[pres.key]
        bound = 6 if _holds_quasi_det(pres) else 8
        complete(shared, bound)
        own = private_completion(pres, bound)
        names = dict(zip(alphabet, sorted(pres.generators, key=sy.KEY.__getitem__)))
        identity = {s: s for s in pres.generators}
        rung = shared.rules[: shared.ends[bound]]
        assert _renamed_items(own.rules, identity) == _renamed_items(rung, names)
        assert own.ends == shared.ends[: bound + 1]
    atlas.clear_caches()


def _class_elements(pres):
    """Two elements of the ideal, the second reducing to zero only through
    a derived rule, then two that do not reduce to zero, the second with a
    module variable. Built by rank, so each member of a class gets the same
    ones, renamed."""
    f, (g0, g1, g2) = pres.field, pres.alphabet[:3]
    top = NcPoly.gen(f, pres.alphabet[-1])
    derived = private_completion(pres, 8).rules[-1]
    return [
        pres.relations[0],
        NcPoly.from_word(f, derived.lhs) - derived.rhs,
        top * NcPoly.gen(f, g0) + NcPoly.gen(f, g1),
        NcPoly.from_word(f, (g2, g1, sy.module_var(1))),
    ]


@pytest.mark.parametrize(
    "charts",
    [
        [((1, 2), (1, 3)), ((1, 3), (1, 2)), ((3, 4), (1, 3))],
        [((1, 2), (2, 3), (3, 4)), ((1, 3), (2, 3), (2, 4)), ((1, 4), (2, 4), (2, 3))],
    ],
    ids=["adjacent pairs", "chains"],
)
def test_residues_do_not_depend_on_which_member_leads(charts):
    # one class led by its first member, then by its second: every member
    # reads the residues and the rules of its own private completion
    def build(c):
        return (atlas.pair_overlap(*c) if len(c) == 2 else atlas.overlap_chain(c)).presentation

    for leader in (0, 1):
        atlas.clear_caches()
        members = [build(c) for c in charts]
        assert len({pres.key for pres in members}) == 1
        assert len({pres.alphabet for pres in members}) == len(members)
        # the leader's run pauses part way through rung 8
        lead = members[leader]
        assert atlas.residues(lead, _class_elements(lead)[:2], 8) == []
        [(alphabet, shared)] = atlas._completion_cache.values()
        assert alphabet == lead.alphabet and shared.pending is not None
        for pres in members:
            elements = _class_elements(pres)
            for bound in (4, 8):
                got = atlas.residues(pres, elements, bound)
                want = private_residues(pres, elements, bound)
                assert len(want) >= 2
                assert [list(p.terms.items()) for p in got] == [list(p.terms.items()) for p in want]
            own = pres.completed(8)
            assert (own is shared) == (pres is lead)
            assert _rule_list_digest(own) == _rule_list_digest(private_completion(pres, 8))
    atlas.clear_caches()


def test_renaming_never_passes_a_foreign_symbol_through():
    # a member's residues rename its symbols onto the leader's: a generator
    # of the leader's that is not the member's would alias, so it raises, as
    # it does for the leader itself; module variables stay
    atlas.clear_caches()
    lead = atlas.pair_overlap((1, 2), (1, 3)).presentation
    member = atlas.pair_overlap((1, 3), (1, 2)).presentation
    assert lead.key == member.key
    assert atlas.residues(lead, [NcPoly.gen(QQ, lead.generators[0])], 4)
    foreign = next(s for s in lead.generators if s not in member.generators)
    outside = sy.entry((3, 4), 3, 1)
    for pres, s in ((member, foreign), (lead, outside), (member, outside)):
        with pytest.raises(ValueError, match="is not a generator of the presentation"):
            atlas.residues(pres, [NcPoly.gen(QQ, s)], 4)
    x = NcPoly.gen(QQ, sy.module_var(1))
    assert atlas.residues(member, [x], 4) == [x]
    atlas.clear_caches()


def test_relations_listed_in_another_order_get_another_key():
    # rule order is the reduction tie-break, so it is part of the key
    first, second = atlas.chart_presentation((1, 2)), atlas.chart_presentation((3, 4))
    assert first.key == second.key and first.alphabet != second.alphabet
    rels = second.commutation_relations
    reordered = dataclasses.replace(second, commutation_relations=rels[1:] + rels[:1])
    assert reordered.key != first.key
    assert sorted(reordered.key[2]) == sorted(first.key[2])


def test_disjoint_pair_rules_at_bound_8():
    pres = atlas.pair_overlap((1, 2), (3, 4)).presentation
    system = complete(RewriteSystem(QQ, pres.rewrite_rules()), 8)
    assert len(system.rules) == 1098
    assert _rule_list_digest(system) == DISJOINT_B8_DIGEST


def _reference_superpositions(r1, r2):
    """Every superposition of r1.lhs and r2.lhs by a scan of the pair, as
    (weight of the superposed word, difference of its two one-step
    reductions) in scan order: the proper overlaps (a suffix of r1.lhs is a
    prefix of r2.lhs) shortest first, then the inclusions of r2.lhs in r1.lhs
    from left to right. The products are generic NcPoly ones."""
    f = r1.rhs.field
    u, v = r1.lhs, r2.lhs
    nu, nv = len(u), len(v)
    out = []
    for o in range(1, min(nu, nv)):
        if u[nu - o :] == v[:o]:
            left = r1.rhs * NcPoly.from_word(f, v[o:])
            right = NcPoly.from_word(f, u[: nu - o]) * r2.rhs
            out.append((word_weight(u + v[o:]), left - right))
    for pos in range(nu - nv + 1):
        if u[pos : pos + nv] == v:
            mid = NcPoly.from_word(f, u[:pos]) * r2.rhs * NcPoly.from_word(f, u[pos + nv :])
            out.append((word_weight(u), r1.rhs - mid))
    return out


def _heap_traffic(system, bound):
    """complete(system, bound), the heap entries it pushed and popped, and
    the differences it passed to normal_form, each in call order."""
    pushed, popped, reduced = [], [], []
    real = rewrite.heappush, rewrite.heappop, RewriteSystem.normal_form

    def push(heap, entry):
        pushed.append(entry)
        real[0](heap, entry)

    def pop(heap):
        popped.append(real[1](heap))
        return popped[-1]

    def nf(self, p, rung=None):
        reduced.append(p)
        return real[2](self, p, rung)

    # patched by hand: hypothesis tests may not take the monkeypatch fixture
    rewrite.heappush, rewrite.heappop, RewriteSystem.normal_form = push, pop, nf
    try:
        got = complete(system, bound)
    finally:
        rewrite.heappush, rewrite.heappop, RewriteSystem.normal_form = real
    return got, pushed, popped, reduced


def _assert_pushes_are_a_pair_scan(system, lo, bound):
    """Complete system, whose top known rung is lo (-1 for none), at bound
    and check that the entries pushed are the superpositions a scan of every
    ordered pair of the resulting rules finds in the weight window, each
    once, with its (weight, i, j), ordered within a pair as the scan orders
    them, and that each popped entry is reduced with the scan's difference,
    term for term. The window is (lo, bound] for a pair of the rules before
    and (-1, bound] for a pair with a new rule."""
    assert len(system.ends) == lo + 1
    base = len(system.rules)
    got, pushed, popped, reduced = _heap_traffic(system, bound)
    assert len(pushed) == len(set(pushed))
    keys: dict = {}
    for wt, i, j, key in pushed:
        keys.setdefault((i, j), []).append((key, wt))
    expected = {}
    for i, r1 in enumerate(got.rules):
        for j, r2 in enumerate(got.rules):
            above = lo if max(i, j) < base else -1
            window = [(wt, d) for wt, d in _reference_superpositions(r1, r2) if above < wt <= bound]
            if window:
                expected[(i, j)] = window
    assert keys.keys() == expected.keys()
    rank = {}
    for pair, entries in keys.items():
        entries.sort()
        assert [wt for _, wt in entries] == [wt for wt, _ in expected[pair]]
        rank.update({(pair, key): n for n, (key, _) in enumerate(entries)})
    # every entry is popped once, unless a collapse stops the run
    assert len(reduced) == len(popped) == len(set(popped))
    assert set(popped) <= set(pushed)
    assert len(popped) == len(pushed) or got.collapsed
    for (_, i, j, key), diff in zip(popped, reduced):
        want = expected[(i, j)][rank[((i, j), key)]][1]
        assert list(diff.terms.items()) == list(want.terms.items())
    return got


def test_completion_pushes_exactly_the_superpositions_under_the_bound():
    got = _assert_pushes_are_a_pair_scan(_chain_base(), -1, 8)
    assert _rule_list_digest(got) == CHAIN_B8_DIGEST
    # resumed, the base rules are entered with the lower edge of the window
    got = _assert_pushes_are_a_pair_scan(complete(_chain_base(), 6), 6, 8)
    assert _rule_list_digest(got) == CHAIN_B8_DIGEST


_LETTERS = [sy.entry((1, 2), i, j) for i in (1, 2) for j in (3, 4)][:3]
_lhs_words = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4).map(tuple)


def _zero_rhs_system(words, lo):
    """Rules w -> 0, completed at lo when lo >= 0. Zero right-hand sides
    resolve every ambiguity, so completion keeps exactly these rules."""
    zero = NcPoly.zero(QQ)
    rules = [RewriteRule(w, zero) for w in words]
    system = RewriteSystem(QQ, rules)
    return complete(system, lo) if lo >= 0 else system


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(_lhs_words, max_size=7), st.integers(-1, 8), st.integers(0, 12))
# self-overlaps, an inclusion and an equal lhs, from scratch and resumed
@example([(_LETTERS[0], _LETTERS[1], _LETTERS[0])] * 2 + [(_LETTERS[1],)], -1, 100)
@example([(_LETTERS[0], _LETTERS[1], _LETTERS[0])] * 2 + [(_LETTERS[1],)], 3, 5)
def test_pair_index_is_exact_on_random_lhs_sets(words, lo, bound):
    got = _assert_pushes_are_a_pair_scan(_zero_rhs_system(words, lo), lo, bound)
    assert len(got.rules) == len(words)


_A, _B, _C = _LETTERS
_redex_rule = st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4).map(tuple)
# a core word followed by a module-variable tail, as words are kept
_redex_word = st.tuples(
    st.lists(st.sampled_from(_LETTERS), max_size=8),
    st.lists(st.sampled_from(_MODULE_VARS), max_size=3),
).map(lambda parts: normalize_word(parts[0] + parts[1]))


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(_redex_rule, min_size=1, max_size=8), st.lists(_redex_word, max_size=10))
# a duplicate lhs, an lhs that is a prefix, a suffix and a subword of
# another, a single letter, and words with a module tail
@example(
    [(_A, _B, _C), (_A, _B), (_B, _C), (_B,), (_A, _B)],
    [(_C, _A, _B, _C), (_A, _B), (_C, _B, _C, _MODULE_VARS[1]), (_C, _MODULE_VARS[1]), ()],
)
def test_find_redex_equals_a_linear_scan_on_random_rule_lists(lhs_words, words):
    zero = NcPoly.zero(QQ)
    rules = [RewriteRule(lhs, zero) for lhs in lhs_words]
    system = RewriteSystem(QQ, rules)
    for w in words:
        for pos in range(len(w) + 1):  # w and each of its suffixes
            assert system.find_redex(w[pos:], len(rules)) == _linear_scan_redex(rules, w[pos:])


# a quasi-determinant weighs 2, so a superposition's weight depends on which
# letters the overlap shares
_MIXED = [sy.entry((1, 2), 1, 3), sy.entry((1, 2), 1, 4), sy.quasi_det((1, 2), (3, 4))]
_mixed_words = st.lists(st.sampled_from(_MIXED), min_size=1, max_size=5).map(tuple)


@settings(max_examples=200, deadline=None, database=None)
@given(_mixed_words, _mixed_words, st.integers(-1, 10), st.integers(0, 10))
@example((_MIXED[0], _MIXED[2]), (_MIXED[2], _MIXED[0]), -1, 10)
@example((_MIXED[2], _MIXED[0], _MIXED[2]), (_MIXED[2],), 3, 8)
def test_superposition_weights_are_the_weights_of_the_superposed_words(u, v, lo, bound):
    # the scan weighs each superposed word letter by letter
    _assert_pushes_are_a_pair_scan(_zero_rhs_system([u, v], lo), lo, bound)


# words made of subwords of the base rules' lhs words meet at superpositions,
# where a system completed short of its bound first reduces two ways
_LHS_PIECES = sorted(
    {
        r.lhs[a:b]
        for r in _CHAIN.rewrite_rules()
        for a in range(len(r.lhs))
        for b in range(a + 1, len(r.lhs) + 1)
    }
)
_coeffs = st.integers(-3, 3) | st.fractions(-2, 2, max_denominator=3)
# every generator of the chain has weight 1, so a product of two of these
# polynomials has weight at most 8, the completed bound
_chain_polys = st.lists(
    st.tuples(_coeffs, st.tuples(st.sampled_from(_LHS_PIECES), st.sampled_from(_LHS_PIECES))),
    max_size=4,
).map(lambda terms: NcPoly.from_pairs(QQ, ((c, (u + v)[:4]) for c, (u, v) in terms)))


@settings(max_examples=60, deadline=None, database=None)
@given(_chain_polys, _chain_polys, _coeffs)
def test_normal_forms_below_the_bound_are_a_ring_projection(p, q, c):
    system = _CHAIN.completed(8)
    nf = lambda p: system.normal_form(p, 8)
    assert nf(nf(p)) == nf(p)
    assert nf(p + q.scale(c)) == nf(p) + nf(q).scale(c)
    assert nf(p * q) == nf(nf(p) * nf(q))
