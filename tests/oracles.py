"""Independent oracles that only the tests use: an exact linear-algebra
dimension count, a brute-force enumeration of the chart relations, the
echelon matrices counted per pivot pattern, commutative evaluation one
letter at a time, a reference point search, a reference point-by-point
transport and a reference row reduction through Field calls. None of them
touches the rewrite engine, so each gives ground truth for it. The eager
bound ladder does use the engine: it is the reference for deciding Verified
part way through a rung. So does the private completion: it is the
reference for a presentation reading the completion its class shares."""

import random

from ncgrass import symbols as sy
from ncgrass.atlas import chart_entries, outside, pair_overlap, validate_chart
from ncgrass.fields import GF, QQ, Field, check_same_field
from ncgrass.points import ChartPoint, PointGluingError, chart_points, echelon_matrices
from ncgrass.poly import NcPoly, Word, commutator, order_key, poly_str, word_weight
from ncgrass.rewrite import RewriteSystem, _rank, complete
from ncgrass.verify import CheckResult, _ladder, _sample


def words_of_weight(generators, weight: int) -> list[Word]:
    """All words over `generators` of exactly the given total weight,
    in deterministic order."""
    gens = sorted(generators, key=lambda s: sy.KEY[s])
    out: list[Word] = []

    def rec(prefix: tuple, left: int):
        if left == 0:
            out.append(prefix)
            return
        for g in gens:
            wg = sy.WEIGHT[g]
            if wg <= left:
                rec(prefix + (g,), left - wg)

    rec((), weight)
    return out


def _relation_weight(rel: NcPoly) -> int:
    wts = {word_weight(w) for w in rel.terms}
    if len(wts) != 1:
        raise ValueError("truncated dimension needs homogeneous relations")
    return wts.pop()


def truncated_dimension(field: Field, generators, relations, degree: int) -> int:
    """Dimension of the weight-`degree` slice of the quotient algebra, computed
    by spanning { u * r * v } and row-reducing exactly. Independent of the
    rewrite machinery by construction."""
    basis = words_of_weight(generators, degree)
    rows = []
    for rel in relations:
        check_same_field(field, rel.field)
        k = _relation_weight(rel)
        if k > degree:
            continue
        for wl in range(0, degree - k + 1):
            for u in words_of_weight(generators, wl):
                for v in words_of_weight(generators, degree - k - wl):
                    up = NcPoly.from_word(field, u)
                    vp = NcPoly.from_word(field, v)
                    prod = up * rel * vp
                    if not prod.is_zero():
                        rows.append(prod.terms)
    return len(basis) - _rank(rows, field, order_key)


def count_irreducible_words(system: RewriteSystem, bound: int, generators, weight: int) -> int:
    """The words of `weight` that no rule of rung `bound` reduces."""
    end = system.ends[bound]
    return sum(1 for w in words_of_weight(generators, weight) if system.find_redex(w, end) is None)


def chart_relations_bruteforce(lam, field: Field = QQ) -> set:
    """Independent enumeration used as the dedup oracle: every row commutator
    and every quartet shape, canonicalized, collected into a set of strings."""
    lam = validate_chart(lam)
    comp = outside(lam)
    g = lambda i, j: NcPoly.gen(field, sy.entry(lam, i, j))
    out = set()
    for i in lam:
        for j1 in comp:
            for j2 in comp:
                if j1 != j2:
                    out.add(poly_str(commutator(g(i, j1), g(i, j2)).monic()))
    for i1 in lam:
        for i2 in lam:
            if i1 == i2:
                continue
            for j1 in comp:
                for j2 in comp:
                    if j1 == j2:
                        continue
                    r = commutator(g(i1, j1), g(i2, j2)) - commutator(g(i1, j2), g(i2, j1))
                    if not r.is_zero():
                        out.add(poly_str(r.monic()))
    return out


def subspace_pattern_counts(q: int) -> dict:
    """Echelon matrices per pivot-column pair (1-based)."""
    counts: dict = {}
    for m in echelon_matrices(q):
        pivots = tuple(row.index(1) + 1 for row in m)
        counts[pivots] = counts.get(pivots, 0) + 1
    return counts


def evaluate(poly: NcPoly, values: dict):
    """Commutative evaluation, one Field call per letter: every symbol id
    must appear in values. The reference for AlgebraPresentation.evaluator."""
    f = poly.field
    total = f.zero
    for w, c in poly.terms.items():
        v = c
        for s in w:
            v = f.mul(v, values[s])
        total = f.add(total, v)
    return total


def extend_point(pres, values: dict) -> dict:
    """Extend `values`, an assignment of the generators no definition sets,
    through the definitions in order and in place, and return it. Raises
    ZeroDivisionError where an inverse definition's expression vanishes."""
    for sid, expr, as_inv in pres.definitions:
        v = evaluate(expr, values)
        values[sid] = pres.field.inv(v) if as_inv else v
    return values


def reference_certified_point(pres, witness, seed: str):
    """A seeded point search, one letter at a time: sample the free
    generators, evaluate the definitions in order, require every relation to
    vanish, then sample the witness's module variables and require a nonzero
    witness. Returns the first such assignment of 100 samples, with the
    defined symbols' values, or None. It compiles nothing and reads no cached
    point, so a point it returns certifies a Failed witness independently."""
    field = pres.field
    rng = random.Random("ncgrass:" + seed)
    defined = {sid for sid, _, _ in pres.definitions}
    free = [g for g in pres.generators if g not in defined]
    mvars = sorted(
        (s for s in witness.symbols() if sy.is_module_var(s)), key=lambda s: sy.KEY[s]
    )
    for _ in range(100):
        values = {g: _sample(field, rng) for g in free}
        try:
            extend_point(pres, values)
        except ZeroDivisionError:
            continue
        if any(not field.is_zero(evaluate(r, values)) for r in pres.relations):
            continue
        for x in mvars:
            values[x] = _sample(field, rng)
        if not field.is_zero(evaluate(witness, values)):
            return values
    return None


_transition_cache: dict = {}


def _transition_data(lam, lam2, q: int):
    """The overlap's presentation, and the (entry, image) pairs of lam2's
    entries in chart_entries order."""
    key = (lam, lam2, q)
    got = _transition_cache.get(key)
    if got is None:
        pair = pair_overlap(lam, lam2, GF(q))
        images = tuple((e, pair.to_base.mapping[e]) for e in chart_entries(lam2))
        got = (pair.presentation, images)
        _transition_cache[key] = got
    return got


def transport(p: ChartPoint, lam2) -> ChartPoint | None:
    """The transport of points.transport_table as it was written one point at
    a time: the same subspace in the other chart's coordinates, computed
    through the transition formulas, or None when an inverted element of the
    overlap vanishes at the point. Each inverted element is the expression of
    an inverse definition, so they are evaluated only after `extend_point`
    divides by zero."""
    lam2 = tuple(sorted(lam2))
    if lam2 == p.chart:
        return p
    pres, images = _transition_data(p.chart, lam2, p.q)
    values = p.values()
    try:
        extend_point(pres, values)
    except ZeroDivisionError:
        if any(pres.field.is_zero(evaluate(u, values)) for u in pres.inverted):
            return None
        raise PointGluingError(
            f"{p} lies in the overlap with chart {lam2}, but a transition divides by zero"
        ) from None
    return ChartPoint(lam2, p.q, tuple((e, evaluate(img, values)) for e, img in images))


def _position(p: ChartPoint) -> int:
    """The index of p in chart_points(p.chart, p.q): its values in assignment
    order read as a base-q number, as `product` enumerates them."""
    pos = 0
    for _, v in p.assignment:
        pos = pos * p.q + v
    return pos


def reference_rref(mat, q: int) -> tuple:
    """points.rref as it was written with Field calls: reduced row-echelon
    form over GF(q), zero rows dropped."""
    field = GF(q)
    rows = [list(r) for r in mat]
    ncols = len(rows[0])
    pivot_row = 0
    for col in range(ncols):
        src = next(
            (r for r in range(pivot_row, len(rows)) if not field.is_zero(rows[r][col])),
            None,
        )
        if src is None:
            continue
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        inv = field.inv(rows[pivot_row][col])
        rows[pivot_row] = [field.mul(inv, v) for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and not field.is_zero(rows[r][col]):
                c = rows[r][col]
                rows[r] = [
                    field.sub(v, field.mul(c, w)) for v, w in zip(rows[r], rows[pivot_row])
                ]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return tuple(tuple(r) for r in rows[:pivot_row])


def reference_transport_table(lam, lam2, q: int) -> tuple:
    """points.transport_table as it was built before it owned the transport:
    each point of chart_points(lam, q) carried by `transport`, and the
    result's position in chart_points(lam2, q)."""
    moved = (transport(p, lam2) for p in chart_points(lam, q))
    return tuple(None if m is None else _position(m) for m in moved)


def eager_reduce_check(pres, elements, bound, check_id, claim, alt=None) -> CheckResult:
    """verify._reduce_check as it was written before it read each rung
    through atlas.residues and before it read cached points: each rung of
    the ladder is completed in full before any element, or a sign-doubt
    check's alt, is reduced, and the top rung's first residue is Failed at
    that rung when `reference_certified_point` finds a point for it."""
    elements = list(elements)
    if all(e.is_zero() for e in elements):
        return CheckResult(check_id, claim, "Verified", 0)
    nonzero = None
    for b in _ladder(bound):
        system = pres.completed(b)
        nfs = [system.normal_form(e, b) for e in elements]
        nonzero = next((nf for nf in nfs if not nf.is_zero()), None)
        if nonzero is None:
            if alt is not None:
                alt_nf = system.normal_form(alt, b)
                if alt_nf.is_zero():
                    claim += "; both signs reduce to zero"
                elif reference_certified_point(pres, alt_nf, check_id + ":alt") is not None:
                    claim += "; the displayed sign verifies and the opposite sign is nonzero at a sampled point"
                else:
                    claim += "; the displayed sign verifies"
            return CheckResult(check_id, claim, "Verified", b)
    if alt is not None and system.normal_form(alt, bound).is_zero():
        claim += "; the opposite-sign variant reduces to zero instead"
    point = reference_certified_point(pres, nonzero, check_id)
    if point is not None:
        return CheckResult(check_id, claim, "Failed", bound, poly_str(nonzero))
    return CheckResult(check_id, claim, f"Inconclusive(bound={bound})", bound)


def private_completion(pres, bound: int) -> RewriteSystem:
    """The completion of `pres` at `bound` from its own rules, in its own
    symbols, shared with no other presentation."""
    return complete(RewriteSystem(pres.field, pres.rewrite_rules()), bound)


def private_residues(pres, elements, bound: int) -> list[NcPoly]:
    """atlas.residues read off a private completion: the elements' nonzero
    normal forms modulo rung `bound`, in element order."""
    system = private_completion(pres, bound)
    return [p for p in (system.normal_form(e, bound) for e in elements) if not p.is_zero()]
