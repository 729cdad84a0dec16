"""Machine checks for the atlas: every identity the gluing rests on is reduced
to zero in an explicitly presented algebra and reported as Verified, Failed,
or Inconclusive(bound).

Reduction evidence is one-sided, so the two non-Verified outcomes are kept
apart. Failed needs a point of the presented variety (all inverted elements
nonzero, all defining relations satisfied), sampled in the coefficient field
(a rational point over QQ, a point in F_q over F_q), at which an element of
the check is nonzero. Evaluation at such a point is a ring map that kills
the ideal, so that element lies outside the ideal at every bound. Each
presentation keeps four such points, the first distinct valid samples of
one fixed seed. Once the first rung leaves a residue, the check's elements
themselves, not their residues, are evaluated there, with module variables
kept as commuting indeterminates; the first that is nonzero at a point makes
the check Failed at bound 0, with that element as its witness. A check no
point decides climbs the ladder and stays Inconclusive at its bound if the
top rung leaves a residue.

Bounds escalate through 4, 6, 8, ... up to the requested bound; a Verified
result records the first rung at which everything reduced to zero, so raising
the bound can only turn Inconclusive into Verified, never the reverse.
Verified may be decided part way through a rung: every rule completion adds
is the normal form of a superposition difference and lies in the ideal, so
reducing an element to zero with any prefix of a rung's rules proves it is
in the ideal. Inconclusive needs the complete top rung.

Each check family lists its checks as rows, (check_id, claim, elements) on
the family's one presentation, and decides every row in one loop through
_reduce_check; the lemma's sign-doubt row adds its alt, and a functoriality
row carries its own triple's presentation. Abelianization and the point
counts need no completion and are decided in place. Nothing times a check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, permutations

from . import symbols as sy
from .atlas import (
    CANONICAL,
    AlgebraPresentation,
    FormulaSet,
    PosetIndex,
    adjacent_sigma,
    all_charts,
    build_presheaf,
    chart_entries,
    chart_name,
    chart_relations,
    disjoint_sigma,
    eliminate_module_vars,
    new_cache,
    outside,
    overlap_chain,
    overlap_tag,
    overlap_type,
    pair_overlap,
    pair_to_chain_hom,
    pivot_entry,
    quasi_det_element,
    residues,
    triple_ordering,
    universal_module_relations,
)
from .fields import Field, PrimeField, QQ
from .poly import NcPoly, abelianize, poly_str
from .rewrite import commutative_truncated_dimension


@dataclass
class CheckResult:
    """Outcome of one named check, exactly as the report serializes it.
    Nothing times a check."""

    check_id: str
    claim: str
    outcome: str  # "Verified" | "Failed" | "Inconclusive(bound=N)"
    bound: int
    witness: str | None = None

    @property
    def verified(self) -> bool:
        return self.outcome == "Verified"

    @property
    def failed(self) -> bool:
        return self.outcome == "Failed"

    @property
    def inconclusive(self) -> bool:
        return self.outcome.startswith("Inconclusive")

    def as_dict(self) -> dict:
        return {
            "id": self.check_id,
            "claim": self.claim,
            "outcome": self.outcome,
            "bound": self.bound,
            "witness": self.witness,
        }


@dataclass
class VerificationReport:
    results: list
    bound: int
    field_key: str = "rat"

    def __post_init__(self):
        self.results = sorted(self.results, key=lambda r: r.check_id)

    @property
    def status(self) -> int:
        """0 all Verified, 1 any Failed, 2 any Inconclusive and none Failed."""
        if any(r.failed for r in self.results):
            return 1
        if any(r.inconclusive for r in self.results):
            return 2
        return 0

    def counts(self) -> dict:
        return {
            "verified": sum(1 for r in self.results if r.verified),
            "failed": sum(1 for r in self.results if r.failed),
            "inconclusive": sum(1 for r in self.results if r.inconclusive),
            "total": len(self.results),
        }

    def as_dict(self) -> dict:
        return {
            "field": self.field_key,
            "bound": self.bound,
            "status": self.status,
            "counts": self.counts(),
            "checks": [r.as_dict() for r in self.results],
        }


# ---------------------------------------------------------------------------
# reduction driver: bound ladder plus the cached points of each presentation


def _ladder(bound: int) -> list[int]:
    rungs = list(range(4, bound + 1, 2))
    if not rungs or rungs[-1] != bound:
        rungs.append(bound)
    return rungs


def _sample(field: Field, rng: random.Random):
    if isinstance(field, PrimeField):
        return rng.randrange(field.q)
    return rng.randint(-9, 9)


# (pres.name, pres.key) -> up to four distinct points of the presented
# variety, each an assignment of every generator: the first valid samples of
# one fixed seed, found the first time a check of the presentation leaves a
# residue or has a sign-doubt alt to test.
# The name keeps the members of one renaming class apart, and the key a
# mutant from the canonical presentation of its name.
_points_cache = new_cache()


def variety_points(pres: AlgebraPresentation) -> list[dict]:
    """The cached points of `pres`: the first four distinct ones among 100
    samples of its base chart's four entries, in pres's field, where every
    inverted element is nonzero and every relation vanishes, with every
    generator's value."""
    key = (pres.name, pres.key)
    got = _points_cache.get(key)
    if got is None:
        field = pres.field
        rng = random.Random("ncgrass:variety points")
        gens = [NcPoly.gen(field, g) for g in pres.generators]
        point = pres.evaluator(field, gens, zero=pres.relations)
        got = _points_cache[key] = []
        for _ in range(100):
            try:
                values = point(*(_sample(field, rng) for _ in range(4)))
            except ZeroDivisionError:
                continue
            if values is None:
                continue
            sample = dict(zip(pres.generators, values))
            if sample not in got:
                got.append(sample)
                if len(got) == 4:
                    break
    return got


# a prime that divides no denominator of a sampled point or of a formula:
# each is a product of integers far below it
_P = (1 << 61) - 1


def _off_the_variety(pres: AlgebraPresentation, element: NcPoly) -> bool:
    """Whether `element` is nonzero at one of the cached points of `pres`,
    which proves it lies outside the ideal.

    Module variables stay commuting indeterminates: the terms are grouped by
    the sorted module letters of each word, the rest of each word is
    evaluated at the point, and the element is nonzero there if one group
    is. No relation holds a module variable, so evaluation into F[x] is a
    ring map that kills the ideal.

    Over F_q the values are ints mod q. Over QQ they are ints mod _P, the
    image of the rational value under the ring map from the rationals with
    denominators prime to _P onto F_P: a nonzero image proves a nonzero
    value, and a zero one only leaves the check on the ladder."""
    q = pres.field.q if isinstance(pres.field, PrimeField) else _P

    def image(v) -> int:
        return v.numerator * pow(v.denominator, -1, q) % q

    groups: dict[tuple, list] = {}
    for w, c in element.terms.items():
        letters = tuple(sorted(s for s in w if sy.is_module_var(s)))
        rest = tuple(s for s in w if not sy.is_module_var(s))
        groups.setdefault(letters, []).append((rest, image(c)))
    for point in variety_points(pres):
        values = {g: image(v) for g, v in point.items()}
        for terms in groups.values():
            if sum(c * math.prod(map(values.__getitem__, w)) for w, c in terms) % q:
                return True
    return False


def _reduce_check(
    pres: AlgebraPresentation,
    elements,
    bound: int,
    check_id: str,
    claim: str,
    alt=None,
) -> CheckResult:
    """Reduce every element to zero, escalating the completion bound.

    Each rung is read once, through atlas.residues: its completion runs only
    until every element reduces to zero, which is proof, and the rung is
    Verified; otherwise it runs to the end. Once the first rung leaves a
    residue, the elements themselves are evaluated at the cached points of
    pres (variety_points). The first that is nonzero at one lies outside the
    ideal and can never reduce to zero: the check is Failed at bound 0 with
    that element as its witness. Otherwise the check climbs the ladder, and
    a residue at the top rung leaves it Inconclusive at its bound. A residue
    takes its element's value at every point, so the top rung has nothing
    new to test.

    alt is the opposite-sign variant of a single element whose displayed sign
    is in doubt. The claim then records how alt fares at the deciding rung;
    the displayed sign is never silently replaced. The points are asked
    first: an alt that is nonzero at a cached point cannot reduce to zero,
    and its rung is not read. Otherwise the rung is read the same way."""
    elements = list(elements)
    if all(e.is_zero() for e in elements):
        return CheckResult(check_id, claim, "Verified", 0)
    witness = None
    for k, b in enumerate(_ladder(bound)):
        if not residues(pres, elements, b):
            if alt is not None:
                if _off_the_variety(pres, alt):
                    claim += "; the displayed sign verifies and the opposite sign is nonzero at a sampled point"
                elif not residues(pres, [alt], b):
                    claim += "; both signs reduce to zero"
                else:
                    claim += "; the displayed sign verifies"
            return CheckResult(check_id, claim, "Verified", b)
        if k == 0:
            witness = next((e for e in elements if _off_the_variety(pres, e)), None)
            if witness is not None:
                break
    if alt is not None and not _off_the_variety(pres, alt) and not residues(pres, [alt], bound):
        claim += "; the opposite-sign variant reduces to zero instead"
    if witness is not None:
        return CheckResult(check_id, claim, "Failed", 0, poly_str(witness))
    return CheckResult(check_id, claim, f"Inconclusive(bound={bound})", bound)


def _decided(check_id: str, claim: str, ok: bool, witness: str | None) -> CheckResult:
    """A check decided without completion: Verified, or Failed with its witness."""
    return CheckResult(check_id, claim, "Verified" if ok else "Failed", 0, None if ok else witness)


# ---------------------------------------------------------------------------
# abelianized display helpers


def strip_units(p: NcPoly) -> NcPoly:
    """Clear every formal-inverse symbol out of an abelianized element by
    multiplying through with its partner and canceling the unit pairs, then
    normalize to a monic polynomial. The result generates the same ideal in
    the localization."""
    key = sy.KEY.__getitem__
    while True:
        invs = [
            s
            for m in p.terms
            for s in m
            if sy.sym(s).kind in (sy.ENTRY_INV, sy.QUASI_DET_INV)
        ]
        if not invs:
            return p.monic()
        v = min(invs, key=key)
        u = sy.inverse_symbol(v)
        k = max(m.count(v) for m in p.terms)
        cleared = []
        for m, c in p.terms.items():
            letters = list(m) + [u] * k
            while u in letters and v in letters:
                letters.remove(u)
                letters.remove(v)
            cleared.append((c, sorted(letters, key=key)))
        p = NcPoly.from_pairs(p.field, cleared)


def _set_str(polys) -> str:
    return "{" + ", ".join(sorted(poly_str(p) for p in polys)) + "}"


# ---------------------------------------------------------------------------
# the checks


def verify_adjacent_substitution(
    lam,
    lam2,
    bound: int = 10,
    field: Field = QQ,
    formulas: FormulaSet = CANONICAL,
) -> list[CheckResult]:
    """Substitution checks for one ordered adjacent pair: the far chart's
    defining relations map to zero in the base localization, the reverse
    formulas recover every base entry, and the far pivot commutes with its
    own inverse image."""
    lam, lam2 = tuple(sorted(lam)), tuple(sorted(lam2))
    if overlap_type(lam, lam2) != "adjacent":
        raise ValueError(f"charts {lam} and {lam2} are not adjacent")
    pair = pair_overlap(lam, lam2, field, formulas)
    pres = pair.presentation
    tb = pair.to_base
    tag = overlap_tag((lam, lam2))
    rows = [
        (
            f"subst{tag}:far-rel-{k}",
            f"defining relation {k} of {chart_name(lam2)} maps to zero in {pres.name}",
            [tb.apply(rel)],
        )
        for k, rel in enumerate(chart_relations(lam2, field), start=1)
    ]
    rows += [
        (
            f"subst{tag}:recover:{sy.sym_name(g)}",
            f"substituting the far-chart images into the reverse formula recovers {sy.sym_name(g)}",
            [tb.apply(pair.from_base.mapping[g]) - NcPoly.gen(field, g)],
        )
        for g in pres.generators
        if sy.sym(g).kind == sy.ENTRY
    ]
    sigma = adjacent_sigma(lam, lam2)
    far_piv = sy.entry(lam2, sigma[3], sigma[1])
    far_other = sy.entry(lam2, sigma[3], sigma[4])
    u = tb.apply(NcPoly.gen(field, far_other))
    v = tb.apply(NcPoly.gen(field, sy.entry_inverse(lam2, sigma[3], sigma[1])))
    rows.append(
        (
            f"subst{tag}:pivot-commute",
            f"the image of {sy.sym_name(far_other)} commutes with the inverse of {sy.sym_name(far_piv)}",
            [u * v - v * u],
        )
    )
    return [_reduce_check(pres, elements, bound, cid, claim) for cid, claim, elements in rows]


def _far_images(charts, field: Field, formulas: FormulaSet = CANONICAL):
    """Composite against direct on a chart chain: the chain, the pair overlap
    of its end charts, that pair's map r into the chain, and for each entry
    e of the far chart (e, its image through the middle chart, its image
    through r)."""
    chain = overlap_chain(charts, field, formulas)
    far = chain.charts[-1]
    pair = pair_overlap(chain.charts[0], far, field, formulas)
    r = pair_to_chain_hom(pair, chain)
    images = [
        (e, chain.homs[far].mapping[e], r.apply(pair.to_base.mapping[e]))
        for e in chart_entries(far)
    ]
    return chain, pair, r, images


def _lemma_direction(order, bound: int, field: Field, formulas: FormulaSet) -> list[CheckResult]:
    chain, pair, r, images = _far_images(order, field, formulas)
    base, mid, far = chain.charts
    tag = overlap_tag(chain.charts)
    one = NcPoly.scalar(field, 1)
    det_b = quasi_det_element(base, far, field)
    d2_img = r.mapping[sy.quasi_det(far, base)]
    rows = [
        (
            f"lemma{tag}:product:d-d2",
            f"the {chart_name(base)} quasi-determinant times the composite image of its {chart_name(far)} counterpart reduces to 1",
            [det_b * d2_img - one],
        ),
        (
            f"lemma{tag}:product:d2-d",
            f"the composite image of the {chart_name(far)} quasi-determinant times the {chart_name(base)} one reduces to 1",
            [d2_img * det_b - one],
        ),
    ]
    sigma0 = disjoint_sigma(base, far)
    a41 = sy.entry(far, sigma0[4], sigma0[1])
    for e, comp, direct in images:
        cid = f"lemma{tag}:closed-form:{sy.sym_name(e)}"
        claim = (
            f"the composite image of {sy.sym_name(e)} through {chart_name(mid)} "
            f"equals its direct closed form over {chart_name(base)}"
        )
        if e == a41:  # the one sign in doubt; its row carries the opposite sign as alt
            claim += " (the displayed sign differs from the working that derives it)"
            rows.append((cid, claim, [comp - direct], comp + direct))
        else:
            rows.append((cid, claim, [comp - direct]))
    rows += [
        (
            f"lemma{tag}:inverse-form:{sy.sym_name(g)}",
            f"substituting the composite far images into the reverse closed form recovers {sy.sym_name(g)}",
            [NcPoly.gen(field, g) - r.apply(pair.from_base.mapping[g])],
        )
        for g in chart_entries(base)
    ]
    return [
        _reduce_check(chain.presentation, elements, bound, cid, claim, *alt)
        for cid, claim, elements, *alt in rows
    ]


def verify_disjoint_lemma(bound: int = 10, field: Field = QQ) -> list[CheckResult]:
    """Both quasi-determinant products reduce to 1 in the chain through the
    middle chart, the four composite far images match their closed forms, and
    the four reverse formulas recover the base entries; then the same suite
    with the chain walked in the opposite direction."""
    forward = ((1, 2), (2, 3), (3, 4))
    entries = _lemma_direction(forward, bound, field, CANONICAL)
    entries += _lemma_direction(tuple(reversed(forward)), bound, field, CANONICAL)
    return entries


def verify_cocycle(lam1, lam2, lam3, bound: int = 10, field: Field = QQ) -> list[CheckResult]:
    """Composite-equals-direct on one chart triple: for every generator of the
    last chart, its image through the middle chart agrees with its single-hop
    image into the same chain presentation."""
    charts = tuple(tuple(sorted(c)) for c in (lam1, lam2, lam3))
    if len(set(charts)) != 3:
        raise ValueError("three distinct charts required")
    chain, _, _, images = _far_images(charts, field)
    tag = overlap_tag(chain.charts)
    rows = [
        (
            f"cocycle{tag}:{sy.sym_name(e)}",
            f"composite and direct overlap images of {sy.sym_name(e)} agree",
            [comp - direct],
        )
        for e, comp, direct in images
    ]
    return [
        _reduce_check(chain.presentation, elements, bound, cid, claim)
        for cid, claim, elements in rows
    ]


def verify_module_gluing(
    lam,
    lam2,
    bound: int = 10,
    field: Field = QQ,
    formulas: FormulaSet = CANONICAL,
) -> list[CheckResult]:
    """The far chart's module relations, carried through the transition and
    with the base chart's module relations substituted for x(j), j outside
    the base chart, reduce to zero modulo the overlap relations."""
    lam, lam2 = tuple(sorted(lam)), tuple(sorted(lam2))
    tag = overlap_tag((lam, lam2))
    pair = pair_overlap(lam, lam2, field, formulas)
    rows = [
        (
            f"module{tag}:x({j})",
            f"the relation presenting x({j}) over {chart_name(lam2)} maps to zero in the glued module over {chart_name(lam)}",
            [eliminate_module_vars(lam, pair.to_base.apply(rel))],
        )
        for j, rel in zip(outside(lam2), universal_module_relations(lam2, field))
    ]
    return [
        _reduce_check(pair.presentation, elements, bound, cid, claim)
        for cid, claim, elements in rows
    ]


def verify_abelianizations(field: Field = QQ) -> list[CheckResult]:
    """Abelianized sanity of every presentation in the atlas: commutation
    relations vanish identically, the inverted elements reduce to the expected
    displays once units are cleared, and chart abelianizations have the
    dimensions of a polynomial ring in four variables."""
    entries = []
    ps = build_presheaf(field)
    for idx, pres in ps.nodes.items():
        ab_rels = [abelianize(r) for r in pres.commutation_relations]
        bad = next((w for w in ab_rels if not w.is_zero()), None)
        cid = f"abelian:{pres.name}:relations"
        claim = f"every commutation relation of {pres.name} abelianizes to zero"
        witness = None if bad is None else poly_str(bad)
        entries.append(_decided(cid, claim, bad is None, witness))

        if idx.is_maximal:
            dims = [
                commutative_truncated_dimension(field, pres.generators, ab_rels, d)
                for d in range(5)
            ]
            expected = [math.comb(d + 3, 3) for d in range(5)]
            cid = f"abelian:{pres.name}:dimension"
            claim = (
                f"the abelianization of {pres.name} has the degree 0..4 dimensions "
                "1, 4, 10, 20, 35 of a polynomial ring in four variables"
            )
            entries.append(_decided(cid, claim, dims == expected, f"computed dimensions {dims}"))
            continue

        base = pres.base_chart
        expected_set = set()
        for c in idx.charts:
            if c == base:
                continue
            if overlap_type(base, c) == "adjacent":
                expected_set.add(abelianize(NcPoly.gen(field, pivot_entry(base, c))).monic())
            else:
                expected_set.add(abelianize(quasi_det_element(base, c, field)).monic())
        computed = {strip_units(abelianize(u)) for u in pres.inverted}
        cid = f"abelian:{pres.name}:inverted"
        claim = (
            f"cleared of units, the abelianized inverted elements of {pres.name} "
            f"are exactly {_set_str(expected_set)}"
        )
        witness = f"computed set {_set_str(computed)}"
        entries.append(_decided(cid, claim, computed == expected_set, witness))
    return entries


def verify_functoriality(bound: int = 10, field: Field = QQ) -> list[CheckResult]:
    """Restriction through an intermediate overlap equals direct restriction:
    chart into pair into triple against chart into triple, for every chart of
    every pair inside every triple. Each row carries its triple's
    presentation."""
    ps = build_presheaf(field)
    triples = sorted(
        (idx for idx in ps.nodes if len(idx.charts) == 3), key=lambda idx: idx.charts
    )
    rows = []
    for tidx in triples:
        for a, b in combinations(tidx.charts, 2):
            pidx = PosetIndex.of(a, b)
            into_chain = ps.restrictions[(pidx, tidx)]
            for c in (a, b):
                cidx = PosetIndex.of(c)
                through_pair = ps.restrictions[(cidx, pidx)]
                direct = ps.restrictions[(cidx, tidx)]
                gens = [NcPoly.gen(field, g) for g in ps.nodes[cidx].generators]
                rows.append(
                    (
                        ps.nodes[tidx],
                        f"functor:{cidx.name}<{pidx.name}<{tidx.name}",
                        f"restricting {cidx.name} through {pidx.name} into {tidx.name} "
                        "matches the direct restriction on every generator",
                        [into_chain.apply(through_pair.apply(g)) - direct.apply(g) for g in gens],
                    )
                )
    return [
        _reduce_check(pres, elements, bound, cid, claim) for pres, cid, claim, elements in rows
    ]


POINT_QS = (2, 3, 5)  # the prime fields the point checks count over


def verify_points() -> list[CheckResult]:
    """Closed-point checks over small prime fields: the glued chart points
    biject with the 2-dimensional subspaces counted by the independent
    oracle, and chart-to-chart transport is involutive where defined."""
    from . import points as pts

    entries = []
    for q in POINT_QS:
        oracle = pts.subspace_oracle(q)
        cid = f"points:q{q}:count"
        claim = (
            f"the glued chart points over F_{q} coincide with the {oracle} "
            "two-dimensional subspaces found by row-echelon enumeration"
        )
        try:
            count = pts.glue_count(q)
            ok, witness = count == oracle, f"glued {count}, oracle {oracle}"
        except pts.PointGluingError as e:
            ok, witness = False, str(e)
        entries.append(_decided(cid, claim, ok, witness))
        cid = f"points:q{q}:roundtrip"
        claim = (
            f"transporting every overlap point of every ordered chart pair over F_{q} "
            "forward and back returns the original assignment"
        )
        try:
            bad = pts.roundtrip_failures(q)
            ok = not bad
            witness = f"{len(bad)} roundtrip failures, first: {bad[0]}" if bad else None
        except pts.PointGluingError as e:
            ok, witness = False, str(e)
        entries.append(_decided(cid, claim, ok, witness))
    return entries


def suite_proposition(bound: int = 10, field: Field = QQ) -> list[CheckResult]:
    """Substitution checks on every ordered adjacent chart pair."""
    entries: list[CheckResult] = []
    for a, b in permutations(all_charts(), 2):
        if overlap_type(a, b) == "adjacent":
            entries += verify_adjacent_substitution(a, b, bound=bound, field=field)
    return entries


def suite_cocycle(bound: int = 10, field: Field = QQ, triples=None) -> list[CheckResult]:
    """Cocycle condition on all twenty chart triples, or on the given ones."""
    if triples is None:
        triples = [triple_ordering(c) for c in combinations(all_charts(), 3)]
    entries: list[CheckResult] = []
    for t in triples:
        entries += verify_cocycle(*t, bound=bound, field=field)
    return entries


def suite_module_gluing(
    bound: int = 10, field: Field = QQ, formulas: FormulaSet = CANONICAL
) -> list[CheckResult]:
    """Module gluing on every ordered pair of distinct charts."""
    entries: list[CheckResult] = []
    for a, b in permutations(all_charts(), 2):
        entries += verify_module_gluing(a, b, bound=bound, field=field, formulas=formulas)
    return entries


# CLI selector -> its suite's checks at (bound, field), in run_all's order.
# Each entry looks its suite up by module-level name when called, so a
# rebound name (as a tracing probe makes) is the one that runs.
SUITES = {
    "proposition": lambda bound, field: suite_proposition(bound, field),
    "lemma": lambda bound, field: verify_disjoint_lemma(bound, field),
    "cocycle": lambda bound, field: suite_cocycle(bound, field),
    "module-gluing": lambda bound, field: suite_module_gluing(bound, field),
    "abelianization": lambda bound, field: verify_abelianizations(field),
    "functoriality": lambda bound, field: verify_functoriality(bound, field),
    "points": lambda bound, field: verify_points(),
}


def run_all(bound: int = 10, field: Field = QQ) -> VerificationReport:
    """The full suite: substitution checks on every ordered adjacent pair,
    the disjoint-gluing identities in both directions, the cocycle condition
    on all twenty chart triples, module gluing on every ordered pair,
    abelianized displays and dimensions, presheaf functoriality on every
    chart-pair-triple chain, and the closed-point counts."""
    entries: list[CheckResult] = []
    for suite in SUITES.values():
        entries += suite(bound, field)
    return VerificationReport(entries, bound, field.key)
