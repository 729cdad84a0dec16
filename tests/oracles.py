"""Independent oracles that only the tests use: an exact linear-algebra
dimension count, a brute-force enumeration of the chart relations, the
echelon matrices counted per pivot pattern, and a reference point search.
None of them touches the rewrite engine, so each gives ground truth for it."""

import random

from ncgrass import symbols as sy
from ncgrass.atlas import outside, validate_chart
from ncgrass.fields import QQ, Field, check_same_field
from ncgrass.points import echelon_matrices
from ncgrass.poly import NcPoly, Word, commutator, order_key, poly_str, word_weight
from ncgrass.rewrite import RewriteSystem, _rank
from ncgrass.verify import _sample


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


def count_irreducible_words(system: RewriteSystem, generators, weight: int) -> int:
    return sum(1 for w in words_of_weight(generators, weight) if system.find_redex(w) is None)


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


def reference_certified_point(pres, witness, seed: str):
    """The point search of verify._certified_point as it was written before
    it evaluated through AlgebraPresentation.point and tested a witness with
    no module variable before the relations: sample the free generators,
    evaluate the definitions in order, require every relation to vanish,
    then sample the witness's module variables and require a nonzero
    witness. Returns the first such assignment of 100 samples, or None."""
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
            for sid, expr, as_inv in pres.definitions:
                v = expr.evaluate(values)
                values[sid] = field.inv(v) if as_inv else v
        except ZeroDivisionError:
            continue
        if any(not field.is_zero(r.evaluate(values)) for r in pres.relations):
            continue
        for x in mvars:
            values[x] = _sample(field, rng)
        if not field.is_zero(witness.evaluate(values)):
            return values
    return None
