"""Chart atlas of the noncommutative Grassmannian NCG(2,4).

Six charts indexed by 2-subsets of {1,2,3,4}. Each chart algebra is a free
algebra on four entries a(chart; i, j), i in the chart and j outside, modulo
two row-commutation relations and one quartet relation. Ordered chart pairs
are adjacent (share one index) or disjoint; each kind has a canonical pair
with hand-written transition formulas, and every other pair is obtained by
relabeling along a permutation of {1,2,3,4} (symmetry transport).

Overlap algebras are represented over the base chart: the base chart algebra
with the required elements inverted. Foreign charts enter only through
homomorphisms into that localization.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from itertools import combinations

from . import symbols as sy
from .fields import QQ, Field, PrimeField
from .poly import Hom, NcPoly, commutator, poly_str
from .rewrite import RewriteRule, RewriteSystem, complete, orient

Chart = tuple  # tuple[int, ...], sorted


def _chart(c) -> Chart:
    return tuple(sorted(c))


def all_charts() -> list[Chart]:
    return [tuple(c) for c in combinations(range(1, 5), 2)]


def validate_chart(lam) -> Chart:
    lam = _chart(lam)
    if len(lam) != 2 or len(set(lam)) != 2:
        raise ValueError(f"chart size mismatch: {lam} is not a 2-subset")
    if any(i < 1 or i > 4 for i in lam):
        raise ValueError(f"index out of range in chart {lam} for n=4")
    return lam


def outside(lam: Chart) -> tuple:
    """The column indices not in the chart, ascending."""
    return tuple(j for j in range(1, 5) if j not in lam)


def chart_entries(lam: Chart) -> tuple:
    """The chart's entry symbols a(lam; i, j), row by row: i in the chart,
    j outside it. Chart points list their values in this order."""
    return tuple(sy.entry(lam, i, j) for i in lam for j in outside(lam))


def chart_name(c: Chart) -> str:
    """The name of a chart algebra: R(i,j)."""
    return f"R({sy.chart_label(c)})"


def overlap_tag(charts) -> str:
    """The charts of an overlap as its name writes them: (i,j|k,l|...)."""
    return "(" + "|".join(map(sy.chart_label, charts)) + ")"


def overlap_type(lam, lam2) -> str:
    lam = validate_chart(lam)
    lam2 = validate_chart(lam2)
    if lam == lam2:
        return "equal"
    shared = len(set(lam) & set(lam2))
    if shared == 1:
        return "adjacent"
    return "disjoint"


# ---------------------------------------------------------------------------
# chart algebras


def chart_relations(lam, field: Field = QQ) -> list[NcPoly]:
    """Defining relations of one chart algebra, monic: for each row i, the
    row commutator [a(i,j1), a(i,j2)]; then the quartet relation
    [a(i1,j1), a(i2,j2)] - [a(i1,j2), a(i2,j1)], rows i1 < i2, columns j1 < j2."""
    lam = validate_chart(lam)
    (i1, i2), (j1, j2) = lam, outside(lam)
    g = lambda i, j: NcPoly.gen(field, sy.entry(lam, i, j))
    rels = [commutator(g(i, j1), g(i, j2)) for i in lam]
    rels.append(commutator(g(i1, j1), g(i2, j2)) - commutator(g(i1, j2), g(i2, j1)))
    return [r.monic() for r in rels]


def universal_module_relations(lam, field: Field = QQ) -> list[NcPoly]:
    """x_j = sum over i in the chart of a(i,j) x_i, one relation per j outside."""
    lam = validate_chart(lam)
    rels = []
    for j in outside(lam):
        p = NcPoly.gen(field, sy.module_var(j))
        for i in lam:
            p = p - NcPoly.from_pairs(field, [(1, (sy.entry(lam, i, j), sy.module_var(i)))])
        rels.append(p)
    return rels


def eliminate_module_vars(lam: Chart, p: NcPoly) -> NcPoly:
    """p with each x(j), j outside the chart, replaced by x(j) minus its
    universal module relation, that is by the sum over i in the chart of
    a(i,j) x(i). Every other symbol is left alone."""
    f = p.field
    images = {s: NcPoly.gen(f, s) for s in p.symbols() if not sy.is_module_var(s)}
    for j, rel in zip(outside(lam), universal_module_relations(lam, f)):
        images[sy.module_var(j)] = NcPoly.gen(f, sy.module_var(j)) - rel
    return Hom(f, images).apply(p)


# ---------------------------------------------------------------------------
# presentations


@dataclass
class AlgebraPresentation:
    """A localization of one chart algebra, as an explicit presentation.

    definitions drive commutative evaluation (`evaluator`): the base chart's
    entries get assigned first, since they fix a commutative point, then each
    (symbol, expr, as_inverse) in order sets symbol := eval(expr) or its
    reciprocal. inverted lists the elements whose nonvanishing cuts out the
    overlap; one the relations make invertible, as a disjoint pair's far
    quasi-determinant, is not listed.
    """

    name: str
    field: Field
    base_chart: Chart
    generators: tuple
    commutation_relations: tuple
    definition_relations: tuple = ()
    inverse_relations: tuple = ()
    module_vars: tuple = ()  # x(1)..x(4), in a module presentation F(i,j)
    definitions: tuple = ()  # (sid, NcPoly expr, bool as_inverse)
    inverted: tuple = ()  # NcPoly elements
    _key: tuple | None = dataclasses.field(default=None, init=False, repr=False, compare=False)

    @property
    def relations(self) -> tuple:
        return self.commutation_relations + self.definition_relations + self.inverse_relations

    def rewrite_rules(self) -> list[RewriteRule]:
        return [orient(r) for r in self.relations]

    @functools.cached_property
    def alphabet(self) -> tuple:
        """The generators in sy.KEY order: a generator's rank is its index."""
        return tuple(sorted(self.generators, key=sy.KEY.__getitem__))

    def key(self) -> tuple:
        """The completion cache key: equal for presentations over one field
        whose generators weigh the same rank by rank and whose relations
        become equal, in order, once each generator is replaced by its rank.
        Such presentations share one completion, renamed (see
        _completion_cache): F(i,j) shares R(i,j)'s, and overlaps the S4
        symmetry carries onto each other share one where it keeps the order
        of their generators. Computed on the first call, since a
        presentation is not changed once built."""
        if self._key is None:
            f, rank = self.field, {s: str(r) for r, s in enumerate(self.alphabet)}

            def term(w: tuple, c) -> str:
                return f"{f.to_str(c)}:{','.join(map(rank.__getitem__, w))}"

            def text(r: NcPoly) -> str:
                return " ".join(sorted(term(w, c) for w, c in r.terms.items()))

            weights = tuple(sy.WEIGHT[s] for s in self.alphabet)
            self._key = (f.key, weights, tuple(map(text, self.relations)))
        return self._key

    def completed(self, bound: int) -> RewriteSystem:
        """The presentation's completion, grown until rung `bound` is known,
        in its own symbols: read the rung with normal_form(p, bound). It is
        the class's system itself when that is over this alphabet, and
        otherwise a copy of its rules so far, renamed, without its paused
        run."""
        system, _, back = _class_completion(self)
        if not system.has_rung(bound):
            complete(system, bound)
        if all(s == t for s, t in back.items()):
            return system
        rules = system.rules if system.pending is None else system.rules[: system.ends[-1]]
        renamed = [RewriteRule(_renamed_word(r.lhs, back), _renamed(r.rhs, back)) for r in rules]
        own = RewriteSystem(self.field, renamed)
        own.ends, own.collapsed = list(system.ends), system.collapsed
        return own

    def evaluator(self, field: Field, outputs, zero=()):
        """One straight-line Python function of the values of the base
        chart's entries, in chart_entries order, that returns the `outputs`'
        values as a tuple in `field`, into which each coefficient is coerced:
        ints mod q over F_q, ints and Fractions over QQ.

        It returns None where an element of `inverted` vanishes, tested once
        its symbols are set, then where one of `zero` does not vanish.
        Definitions are assigned in order, and an inverse of zero past those
        tests raises ZeroDivisionError. The source holds only slot numbers,
        int literals and names bound in its namespace. An inverted element
        holding a symbol that is neither a base entry nor defined raises
        ValueError here, before any code is compiled."""
        f = field
        mod, namespace = "", {"inv": f.inv}
        if isinstance(f, PrimeField):
            # inverses from a table; the Field is called only to raise on zero
            mod, table = f" % {f.q}", (0,) + tuple(pow(x, -1, f.q) for x in range(1, f.q))
            namespace["inv"] = lambda v: table[v] if v else f.inv(v)
        entries = chart_entries(self.base_chart)
        slot = {s: k for k, s in enumerate(entries)}

        def expr(poly) -> str:
            terms = []
            for word, c in poly.terms.items():
                c, factors = f.coerce(c), [f"v{slot[s]}" for s in word]
                if type(c) is not int:  # a Fraction's text would be float division
                    name = f"c{len(namespace)}"
                    namespace[name] = c
                    factors.insert(0, name)
                elif c != 1 or not factors:
                    factors.insert(0, str(c))
                terms.append("*".join(factors))
            return f"({' + '.join(terms) or '0'}){mod}"

        body, waiting, tested = [], list(self.inverted), {}

        def guard_set_elements():
            # an inverse definition of a tested element reads its value
            for u in [u for u in waiting if u.symbols() <= slot.keys()]:
                waiting.remove(u)
                tested[u] = f"u{len(tested)}"
                body.extend((f"{tested[u]} = {expr(u)}", f"if not {tested[u]}: return None"))

        guard_set_elements()
        for k, (sid, poly, as_inv) in enumerate(self.definitions, len(entries)):
            value = tested.get(poly) or expr(poly)
            slot[sid] = k
            body.append(f"v{k} = inv({value})" if as_inv else f"v{k} = {value}")
            guard_set_elements()
        if waiting:
            u = poly_str(waiting[0])
            raise ValueError(f"{self.name} inverts {u}, which holds a symbol no point sets")
        body += [f"if {expr(r)}: return None" for r in zero]
        body.append(f"return ({''.join(expr(p) + ', ' for p in outputs)})")
        args = ", ".join(f"v{k}" for k in range(len(entries)))
        exec(f"def run({args}):\n" + "".join(f"    {line}\n" for line in body), namespace)
        return namespace["run"]

    def names(self) -> dict:
        return {sy.sym_name(s): s for s in self.generators + self.module_vars}


_caches: list[dict] = []


def new_cache() -> dict:
    """A module-level memo that clear_caches empties."""
    cache: dict = {}
    _caches.append(cache)
    return cache


def clear_caches() -> None:
    """Empty every memo made by new_cache: completions, overlaps and
    point transport tables."""
    for cache in _caches:
        cache.clear()


# pres.key() -> (alphabet, system): the completion shared by every
# presentation with that key, over the alphabet of the first to ask. It
# grows by each request for a rung it does not know yet, and residues pauses
# it. The renaming of a member's generators onto that alphabet, rank for
# rank, keeps their weights and order, and the completion reads nothing else
# of a symbol, so the member's own completion is this rule list renamed.
_completion_cache = new_cache()


def _class_completion(pres: AlgebraPresentation) -> tuple[RewriteSystem, dict, dict]:
    """The completion of pres's class, and the renamings of pres's
    generators onto its alphabet and back."""
    got = _completion_cache.get(pres.key())
    if got is None:
        system = RewriteSystem(pres.field, pres.rewrite_rules())
        got = _completion_cache[pres.key()] = (pres.alphabet, system)
    alphabet, system = got
    return system, dict(zip(pres.alphabet, alphabet)), dict(zip(alphabet, pres.alphabet))


def _renamed_word(w: tuple, names: dict) -> tuple:
    """w with each generator s replaced by names[s]. A module variable is
    central and in no rule, so it stays; any other symbol raises, since
    passed through it could alias a generator of the other alphabet."""
    out = []
    for s in w:
        t = names.get(s)
        if t is None:
            if not sy.is_module_var(s):
                raise ValueError(f"{sy.sym_name(s)} is not a generator of the presentation")
            t = s
        out.append(t)
    return tuple(out)


def _renamed(p: NcPoly, names: dict) -> NcPoly:
    return NcPoly(p.field, {_renamed_word(w, names): c for w, c in p.terms.items()})


def _occurs(u: tuple, p: NcPoly) -> bool:
    """Whether the word u occurs in one of p's words."""
    n = len(u)
    return any(w[i : i + n] == u for w in p.terms for i in range(len(w) - n + 1))


def residues(pres: AlgebraPresentation, elements, bound: int) -> list[NcPoly]:
    """The elements' nonzero normal forms modulo rung `bound` of the
    completion of `pres`, in element order, or [] once every element
    reduces to zero modulo a prefix of its rules: each rule lies in the
    ideal, so that proves every element lies in it. The completion pauses
    there, and the next request resumes it. Each element's residue is
    re-reduced only when a new rule's lhs occurs in one of its words, since
    it is irreducible by the rules before. A collapsed rung reduces
    everything to zero. On a complete rung each element is reduced once.
    The elements and residues are in pres's symbols, renamed at this
    boundary for the system its class shares."""
    system, into, back = _class_completion(pres)
    elements = [_renamed(e, into) for e in elements]
    if not system.has_rung(bound):
        # the rules so far are a prefix of the rung
        left = [p for p in map(system.normal_form, elements) if not p.is_zero()]
        if not left:
            return []
        seen = len(system.rules)

        def until(s: RewriteSystem) -> bool:
            nonlocal left, seen
            for r in s.rules[seen:]:
                left = [s.normal_form(p) if _occurs(r.lhs, p) else p for p in left]
            seen = len(s.rules)
            left = [p for p in left if not p.is_zero()]
            return not left

        complete(system, bound, until)
        if not left:
            return []
    nfs = (system.normal_form(e, bound) for e in elements)
    return [_renamed(p, back) for p in nfs if not p.is_zero()]


def chart_presentation(lam, field: Field = QQ, with_module: bool = False) -> AlgebraPresentation:
    lam = validate_chart(lam)
    gens = chart_entries(lam)
    rels = tuple(chart_relations(lam, field))
    mods = tuple(sy.module_var(k) for k in range(1, 5)) if with_module else ()
    name = f"F({sy.chart_label(lam)})" if with_module else chart_name(lam)
    return AlgebraPresentation(
        name=name,
        field=field,
        base_chart=lam,
        generators=gens,
        commutation_relations=rels,
        module_vars=mods,
    )


# ---------------------------------------------------------------------------
# canonical transition formulas
#
# Generator descriptors: ("a", side, i, j), ("ainv", side, i, j), ("d", side),
# ("dinv", side); side 0 is the first chart of the pair, side 1 the second.
# Indices are written for the canonical pairs ({1,2},{2,3}) and ({1,2},{3,4})
# and relabeled along the transport permutation for any other pair.
# Each formula is a tuple of signed words.

ADJACENT_TO_BASE = {
    ("a", 1, 2, 4): (
        (1, (("a", 0, 2, 4),)),
        (-1, (("ainv", 0, 1, 3), ("a", 0, 1, 4), ("a", 0, 2, 3))),
    ),
    ("a", 1, 2, 1): ((-1, (("ainv", 0, 1, 3), ("a", 0, 2, 3))),),
    ("a", 1, 3, 4): ((1, (("ainv", 0, 1, 3), ("a", 0, 1, 4))),),
    ("a", 1, 3, 1): ((1, (("ainv", 0, 1, 3),)),),
}

# bookkeeping image needed to substitute the reverse formulas: the pivot of
# the far chart is invertible, with inverse the base pivot itself
ADJACENT_TO_BASE_EXTRA = {
    ("ainv", 1, 3, 1): ((1, (("a", 0, 1, 3),)),),
}

ADJACENT_FROM_BASE = {
    ("a", 0, 1, 3): ((1, (("ainv", 1, 3, 1),)),),
    ("a", 0, 1, 4): ((1, (("ainv", 1, 3, 1), ("a", 1, 3, 4))),),
    ("a", 0, 2, 3): ((-1, (("ainv", 1, 3, 1), ("a", 1, 2, 1))),),
    ("a", 0, 2, 4): (
        (1, (("a", 1, 2, 4),)),
        (-1, (("ainv", 1, 3, 1), ("a", 1, 3, 4), ("a", 1, 2, 1))),
    ),
}

DISJOINT_TO_BASE = {
    ("a", 1, 3, 1): ((1, (("dinv", 0), ("a", 0, 2, 4))),),
    ("a", 1, 3, 2): ((-1, (("dinv", 0), ("a", 0, 1, 4))),),
    ("a", 1, 4, 1): ((-1, (("dinv", 0), ("a", 0, 2, 3))),),
    ("a", 1, 4, 2): ((1, (("dinv", 0), ("a", 0, 1, 3))),),
}

DISJOINT_TO_BASE_EXTRA = {
    ("d", 1): ((1, (("dinv", 0),)),),
    ("dinv", 1): ((1, (("d", 0),)),),
}

DISJOINT_FROM_BASE = {
    ("a", 0, 1, 3): ((1, (("dinv", 1), ("a", 1, 4, 2))),),
    ("a", 0, 1, 4): ((-1, (("dinv", 1), ("a", 1, 3, 2))),),
    ("a", 0, 2, 3): ((-1, (("dinv", 1), ("a", 1, 4, 1))),),
    ("a", 0, 2, 4): ((1, (("dinv", 1), ("a", 1, 3, 1))),),
}


@dataclass(frozen=True)
class FormulaSet:
    """The four displayed canonical formula groups, mutation-aware."""

    adjacent_to_base: tuple = tuple(ADJACENT_TO_BASE.items())
    adjacent_from_base: tuple = tuple(ADJACENT_FROM_BASE.items())
    disjoint_to_base: tuple = tuple(DISJOINT_TO_BASE.items())
    disjoint_from_base: tuple = tuple(DISJOINT_FROM_BASE.items())

    def group(self, name: str) -> dict:
        return dict(getattr(self, name))


CANONICAL = FormulaSet()


def sign_sites() -> list[tuple]:
    """Every (group, target, term index) carrying a sign in the displayed
    canonical transition formulas, groups in field order."""
    return [
        (f.name, target, ti)
        for f in dataclasses.fields(FormulaSet)
        for target, terms in getattr(CANONICAL, f.name)
        for ti in range(len(terms))
    ]


def flip_sign(formulas: FormulaSet, site: tuple) -> FormulaSet:
    gname, target, ti = site
    group = []
    for tgt, terms in getattr(formulas, gname):
        if tgt == target:
            terms = tuple(
                ((-sg if k == ti else sg), word) for k, (sg, word) in enumerate(terms)
            )
        group.append((tgt, terms))
    return dataclasses.replace(formulas, **{gname: tuple(group)})


def _desc_sid(desc: tuple, sigma: dict, lam: Chart, lam2: Chart) -> int:
    tag = desc[0]
    if tag in ("a", "ainv"):
        _, side, i, j = desc
        chart = lam if side == 0 else lam2
        mk = sy.entry if tag == "a" else sy.entry_inverse
        return mk(chart, sigma[i], sigma[j])
    side = desc[1]
    c0, c1 = (lam, lam2) if side == 0 else (lam2, lam)
    return sy.quasi_det(c0, c1) if tag == "d" else sy.quasi_det_inverse(c0, c1)


def _materialize(table: dict, sigma: dict, lam: Chart, lam2: Chart, field: Field) -> dict:
    mapping = {}
    for tgt, terms in table.items():
        sid = _desc_sid(tgt, sigma, lam, lam2)
        pairs = [
            (sg, tuple(_desc_sid(d, sigma, lam, lam2) for d in word)) for sg, word in terms
        ]
        mapping[sid] = NcPoly.from_pairs(field, pairs)
    return mapping


def adjacent_sigma(lam, lam2) -> dict:
    """The unique permutation of {1..4} carrying ({1,2},{2,3}) to (lam, lam2)."""
    lam, lam2 = _chart(lam), _chart(lam2)
    if overlap_type(lam, lam2) != "adjacent":
        raise ValueError(f"charts {lam}, {lam2} are not adjacent")
    common = (set(lam) & set(lam2)).pop()
    only1 = (set(lam) - set(lam2)).pop()
    only2 = (set(lam2) - set(lam)).pop()
    rest = (set(range(1, 5)) - {common, only1, only2}).pop()
    return {1: only1, 2: common, 3: only2, 4: rest}


def disjoint_sigma(lam, lam2) -> dict:
    """The lexicographically least permutation of {1..4} carrying
    ({1,2},{3,4}) to (lam, lam2) as chart pairs: each chart in increasing
    order. Under it the canonical quasi-determinants are quasi_det_element's."""
    lam, lam2 = _chart(lam), _chart(lam2)
    if overlap_type(lam, lam2) != "disjoint":
        raise ValueError(f"charts {lam}, {lam2} are not disjoint")
    return {1: lam[0], 2: lam[1], 3: lam2[0], 4: lam2[1]}


def pivot_entry(lam, lam2) -> int:
    """For adjacent charts: the base entry whose inversion glues them."""
    lam, lam2 = _chart(lam), _chart(lam2)
    i = (set(lam) - set(lam2)).pop()
    j = (set(lam2) - set(lam)).pop()
    return sy.entry(lam, i, j)


def quasi_det_element(lam, lam2, field: Field = QQ) -> NcPoly:
    """For disjoint charts: the 2x2 quasi-determinant over the base chart,
    rows and columns in increasing order."""
    lam, lam2 = _chart(lam), _chart(lam2)
    (r1, r2), (s1, s2) = lam, lam2
    e = lambda i, j: (sy.entry(lam, i, j),)
    return NcPoly.from_pairs(
        field, [(1, e(r1, s1) + e(r2, s2)), (-1, e(r1, s2) + e(r2, s1))]
    )


# ---------------------------------------------------------------------------
# pairwise overlaps


@dataclass
class OverlapPair:
    """Overlap of two charts, presented over the first one."""

    lam: Chart
    lam2: Chart
    kind: str
    presentation: AlgebraPresentation
    to_base: Hom  # far-chart symbols -> base-localization elements
    from_base: Hom  # base entries -> far-chart expressions
    sigma: dict


def _inverse_pair_relations(field: Field, elt: NcPoly, inv_sid: int) -> tuple:
    one = NcPoly.scalar(field, 1)
    inv = NcPoly.gen(field, inv_sid)
    return (elt * inv - one, inv * elt - one)


def adjacent_overlap(lam, lam2, field: Field = QQ, formulas: FormulaSet = CANONICAL) -> OverlapPair:
    """Base-chart localization at the pivot entry, plus the transition
    homomorphisms in both directions."""
    lam, lam2 = _chart(lam), _chart(lam2)
    sigma = adjacent_sigma(lam, lam2)
    piv = pivot_entry(lam, lam2)
    piv_inv = sy.inverse_symbol(piv)
    gens = chart_entries(lam)
    piv_poly = NcPoly.gen(field, piv)
    pres = AlgebraPresentation(
        name="O" + overlap_tag((lam, lam2)),
        field=field,
        base_chart=lam,
        generators=gens + (piv_inv,),
        commutation_relations=tuple(chart_relations(lam, field)),
        inverse_relations=_inverse_pair_relations(field, piv_poly, piv_inv),
        definitions=((piv_inv, piv_poly, True),),
        inverted=(piv_poly,),
    )
    to_table = {**formulas.group("adjacent_to_base"), **ADJACENT_TO_BASE_EXTRA}
    from_table = formulas.group("adjacent_from_base")
    to_base = Hom(field, _materialize(to_table, sigma, lam, lam2, field))
    from_base = Hom(field, _materialize(from_table, sigma, lam, lam2, field))
    return OverlapPair(lam, lam2, "adjacent", pres, to_base, from_base, sigma)


def disjoint_overlap(lam, lam2, field: Field = QQ, formulas: FormulaSet = CANONICAL) -> OverlapPair:
    """Two-sided presentation of the overlap of opposite charts: both charts'
    entries together with both quasi-determinants and their inverses, and the
    eight displayed identification formulas imposed as relations. Unlike the
    adjacent case, neither single-chart localization supports the transition
    on its own: the quasi-determinant is not central, so the far chart's
    commutation relations and both formula groups carry independent content.
    The transporting permutation is disjoint_sigma."""
    lam, lam2 = _chart(lam), _chart(lam2)
    sigma = disjoint_sigma(lam, lam2)
    dsym = sy.quasi_det(lam, lam2)
    dinv = sy.quasi_det_inverse(lam, lam2)
    d2sym = sy.quasi_det(lam2, lam)
    d2inv = sy.quasi_det_inverse(lam2, lam)
    gens = chart_entries(lam)
    gens2 = chart_entries(lam2)
    det_elt = quasi_det_element(lam, lam2, field)
    det2_elt = quasi_det_element(lam2, lam, field)
    dpoly = NcPoly.gen(field, dsym)
    d2poly = NcPoly.gen(field, d2sym)
    to_map = _materialize(formulas.group("disjoint_to_base"), sigma, lam, lam2, field)
    from_map = _materialize(formulas.group("disjoint_from_base"), sigma, lam, lam2, field)
    subst = tuple(NcPoly.gen(field, s) - img for s, img in to_map.items())
    subst += tuple(NcPoly.gen(field, s) - img for s, img in from_map.items())
    pres = AlgebraPresentation(
        name="O" + overlap_tag((lam, lam2)),
        field=field,
        base_chart=lam,
        generators=gens + gens2 + (dsym, dinv, d2sym, d2inv),
        commutation_relations=tuple(chart_relations(lam, field))
        + tuple(chart_relations(lam2, field)),
        definition_relations=(det_elt - dpoly, det2_elt - d2poly) + subst,
        inverse_relations=_inverse_pair_relations(field, dpoly, dinv)
        + _inverse_pair_relations(field, d2poly, d2inv),
        definitions=((dsym, det_elt, False), (dinv, det_elt, True))
        + tuple((s, img, False) for s, img in to_map.items())
        + ((d2sym, det2_elt, False), (d2inv, det2_elt, True)),
        inverted=(det_elt,),
    )
    to_extra = _materialize(DISJOINT_TO_BASE_EXTRA, sigma, lam, lam2, field)
    to_base = Hom(field, {**to_map, **to_extra})
    from_base = Hom(field, from_map)
    return OverlapPair(lam, lam2, "disjoint", pres, to_base, from_base, sigma)


# ("pair" or "chain", charts, field.key, formulas) -> OverlapPair or
# ChainOverlap; a pair's formulas hold CANONICAL's groups of the other kind.
# Every caller shares these objects, so none may change one.
_overlap_cache = new_cache()


def pair_overlap(lam, lam2, field: Field = QQ, formulas: FormulaSet = CANONICAL) -> OverlapPair:
    """The overlap of two distinct charts, built once per charts, field and
    the two formula groups of its kind, and kept until clear_caches: the
    other kind's groups are keyed and built as CANONICAL's."""
    lam, lam2 = _chart(lam), _chart(lam2)
    kind = overlap_type(lam, lam2)
    if kind == "equal":
        raise ValueError("overlap of a chart with itself is the chart")
    other = "disjoint" if kind == "adjacent" else "adjacent"
    formulas = dataclasses.replace(
        formulas, **{g: getattr(CANONICAL, g) for g in (f"{other}_to_base", f"{other}_from_base")}
    )
    key = ("pair", (lam, lam2), field.key, formulas)
    got = _overlap_cache.get(key)
    if got is None:
        build = adjacent_overlap if kind == "adjacent" else disjoint_overlap
        got = _overlap_cache[key] = build(lam, lam2, field, formulas)
    return got


# ---------------------------------------------------------------------------
# iterated overlaps (triple and longer chains)


def _word_inverse(elt: NcPoly, letter_inverse) -> NcPoly:
    """The inverse of a single-term element: its letters' inverses in reverse
    order, scaled by the inverse coefficient."""
    f = elt.field
    ((word, c),) = elt.terms.items()
    out = NcPoly.scalar(f, f.inv(c))
    for s in reversed(word):
        out = out * letter_inverse(s)
    return out


def _known_letter_inverse(s: int, generators, definitions, field: Field) -> NcPoly | None:
    """The inverse of letter s if the presentation already has one: its
    partner generator, or the expression that s is defined as the inverse of."""
    partner = sy.inverse_symbol(s)
    if partner in generators:
        return NcPoly.gen(field, partner)
    for sid, expr, as_inv in definitions:
        if sid == s and as_inv:
            return expr
    return None


@dataclass
class ChainOverlap:
    """Overlap of a chain of charts, presented over the first one. homs maps
    each member chart's symbols (entries plus that hop's adjoined inverses)
    into the presentation."""

    charts: tuple
    presentation: AlgebraPresentation
    homs: dict  # Chart -> Hom

    @property
    def field(self) -> Field:
        return self.presentation.field

    def inverse_of(self, elt: NcPoly):
        """An inverse of elt in the presentation, if one is structurally known.

        Single words invert letter by letter; other elements are matched
        syntactically against the images of the two quasi-determinants of
        each disjoint pair in the chain, which are inverse to each other."""
        if len(elt.terms) == 1:
            return _word_inverse(elt, self._letter_inverse)
        f = self.field
        for a, b in combinations(self.charts, 2):
            if overlap_type(a, b) == "disjoint":
                ea = self.homs[a].apply(quasi_det_element(a, b, f))
                eb = self.homs[b].apply(quasi_det_element(b, a, f))
                if elt in (ea, eb):
                    return eb if elt == ea else ea
        return None

    def _letter_inverse(self, s: int) -> NcPoly:
        pres = self.presentation
        inv = _known_letter_inverse(s, pres.generators, pres.definitions, self.field)
        if inv is None:
            raise ValueError(f"no inverse available for letter {sy.sym_name(s)}")
        return inv


def overlap_chain(charts, field: Field = QQ, formulas: FormulaSet = CANONICAL) -> ChainOverlap:
    """Base-chart presentation of the overlap of a chart chain, built once per
    charts, field and formulas and kept until clear_caches."""
    charts = tuple(_chart(c) for c in charts)
    key = ("chain", charts, field.key, formulas)
    got = _overlap_cache.get(key)
    if got is None:
        got = _overlap_cache[key] = _build_chain(charts, field, formulas)
    return got


def _build_chain(charts: tuple, field: Field, formulas: FormulaSet) -> ChainOverlap:
    """Walk the chain, pushing each hop's transition down to base coordinates
    and inverting, over the base, exactly what the hop requires. Single-entry
    requirements become plain entry inverses; non-monomial ones are adjoined
    as formal inverses. The chain is also localized at the base->far pivot of
    each later chart adjacent to the base, which no hop inverts in a chain
    through a disjoint pair."""
    if len(set(charts)) != len(charts) or len(charts) < 2:
        raise ValueError("chain needs at least two distinct charts")
    base = charts[0]
    gens = list(chart_entries(base))
    comm = list(chart_relations(base, field))
    def_rels: list[NcPoly] = []
    inv_rels: list[NcPoly] = []
    definitions: list[tuple] = []
    inverted: list[NcPoly] = []

    ident = Hom(field, {e: NcPoly.gen(field, e) for e in gens})
    homs: dict = {base: ident}

    def adjoin(label: int, u: NcPoly) -> NcPoly:
        """Adjoin the generator `label` as a formal inverse of u."""
        gens.append(label)
        inv_rels.extend(_inverse_pair_relations(field, u, label))
        definitions.append((label, u, True))
        inverted.append(u)
        return NcPoly.gen(field, label)

    def letter_inverse(s: int) -> NcPoly:
        """A known inverse of s, or a new adjoined inverse for a base entry."""
        inv = _known_letter_inverse(s, gens, definitions, field)
        if inv is not None:
            return inv
        if sy.sym(s).kind == sy.ENTRY and sy.sym(s).chart == base:
            return adjoin(sy.inverse_symbol(s), NcPoly.gen(field, s))
        raise ValueError(f"cannot invert letter {sy.sym_name(s)} over chart {base}")

    def adjoin_inverse(u: NcPoly, label: int) -> NcPoly:
        """Make u invertible over the base; return the expression standing for
        the formal symbol `label` (the hop-side inverse)."""
        if len(u.terms) == 1:
            return _word_inverse(u, letter_inverse)
        return adjoin(label, u)

    prev = base
    for nxt in charts[1:]:
        # extensions added while processing this hop land in homs[prev], so
        # each stored hom also covers its chart's hop-adjoined inverse symbols
        phi_prev = homs[prev]
        hop = pair_overlap(prev, nxt, field, formulas)
        if hop.kind == "adjacent":
            piv = pivot_entry(prev, nxt)
            u = phi_prev.apply(NcPoly.gen(field, piv))
            inv_expr = adjoin_inverse(u, sy.inverse_symbol(piv))
            phi_prev.mapping[sy.inverse_symbol(piv)] = inv_expr
        else:
            u = phi_prev.apply(quasi_det_element(prev, nxt, field))
            dsym = sy.quasi_det(prev, nxt)
            dinv = sy.quasi_det_inverse(prev, nxt)
            if prev == base:
                # adjoin the quasi-determinant symbol itself, like the pair case
                gens.append(dsym)
                dpoly = NcPoly.gen(field, dsym)
                def_rels.append(u - dpoly)
                definitions.append((dsym, u, False))
                gens.append(dinv)
                inv_rels.extend(_inverse_pair_relations(field, dpoly, dinv))
                definitions.append((dinv, u, True))
                inverted.append(u)
                phi_prev.mapping[dsym] = dpoly
                phi_prev.mapping[dinv] = NcPoly.gen(field, dinv)
            else:
                inv_expr = adjoin_inverse(u, dinv)
                phi_prev.mapping[dsym] = u
                phi_prev.mapping[dinv] = inv_expr
        # composed after phi_prev holds this hop's adjoined inverse
        phi_next = Hom(field, {s: phi_prev.apply(p) for s, p in hop.to_base.mapping.items()})
        if hop.kind == "disjoint":
            # a disjoint hop imposes structure the base localization does not
            # imply: the far chart's commutation relations, the reverse
            # identification formulas, and a formal inverse for the far
            # quasi-determinant's image
            d2inv = sy.quasi_det_inverse(nxt, prev)
            far_det_img = phi_next.apply(quasi_det_element(nxt, prev, field))
            phi_next.mapping[sy.quasi_det(nxt, prev)] = far_det_img
            phi_next.mapping[d2inv] = adjoin(d2inv, far_det_img)
            for rel in chart_relations(nxt, field):
                comm.append(phi_next.apply(rel))
            for s, img in hop.from_base.mapping.items():
                def_rels.append(phi_prev.apply(NcPoly.gen(field, s)) - phi_next.apply(img))
        homs[nxt] = phi_next
        prev = nxt
    for c in charts[2:]:
        if overlap_type(base, c) == "adjacent":
            letter_inverse(pivot_entry(base, c))

    pres = AlgebraPresentation(
        name="O" + overlap_tag(charts),
        field=field,
        base_chart=base,
        generators=tuple(gens),
        commutation_relations=tuple(comm),
        definition_relations=tuple(def_rels),
        inverse_relations=tuple(inv_rels),
        definitions=tuple(definitions),
        inverted=tuple(inverted),
    )
    return ChainOverlap(charts, pres, homs)


def triple_ordering(charts) -> tuple:
    """Canonical chain order for an unordered chart triple: for a path (one
    disjoint pair) the disjoint pair's lex-least member is the base and the
    mutual neighbor sits in the middle; all-adjacent triangles are sorted."""
    charts = sorted(_chart(c) for c in charts)
    if len(charts) != 3:
        raise ValueError("expected three charts")
    disjoint = [
        (a, b) for a, b in combinations(charts, 2) if overlap_type(a, b) == "disjoint"
    ]
    if not disjoint:
        return tuple(charts)
    a, b = disjoint[0]
    middle = next(c for c in charts if c not in (a, b))
    return (a, middle, b)


# ---------------------------------------------------------------------------
# the poset of chart intersections and the structure presheaf


@dataclass(frozen=True)
class PosetIndex:
    """A formal minimum of a set of maximal charts. This is a label in the
    index poset, not a set intersection of index sets: min({1,2},{2,3}) covers
    the chart overlap and is unrelated to the 1-element set {2}."""

    charts: tuple

    @staticmethod
    def of(*charts) -> "PosetIndex":
        return PosetIndex(tuple(sorted(_chart(c) for c in charts)))

    @property
    def is_maximal(self) -> bool:
        return len(self.charts) == 1

    @property
    def name(self) -> str:
        if self.is_maximal:
            return chart_name(self.charts[0])
        return "min(" + "/".join(map(sy.chart_label, self.charts)) + ")"


@dataclass
class Presheaf:
    nodes: dict  # PosetIndex -> AlgebraPresentation
    restrictions: dict  # (source, target) -> Hom


def pair_to_chain_hom(pair: OverlapPair, chain: ChainOverlap) -> Hom:
    """Restriction from a pair overlap into a chain overlap containing both
    charts, the one map from a pair's symbols into a chain. Chart entries go
    through the chain's own Homs, each of which maps only its own chart's
    symbols; adjoined symbols resolve through the pair's definitions and
    chain.inverse_of."""
    field = chain.field
    known = {**chain.homs[pair.lam].mapping, **chain.homs[pair.lam2].mapping}
    mapping = {g: known[g] for g in pair.presentation.generators if g in known}
    work = Hom(field, mapping)
    for sid, expr, as_inv in pair.presentation.definitions:
        if sid in mapping:
            continue  # a chain hom already carries an image for this symbol
        img = work.apply(expr)
        inv = chain.inverse_of(img) if as_inv else img
        if inv is None:
            raise ValueError(
                f"cannot express inverse of {poly_str(img)} in {chain.presentation.name}"
            )
        mapping[sid] = inv
    return Hom(field, mapping)


def build_presheaf(field: Field = QQ) -> Presheaf:
    """All 6 maximal charts, 15 pairwise minima, and 20 triple minima, with
    restriction homomorphisms along every comparable pair, assembled on each
    call from the overlaps that pair_overlap and overlap_chain keep."""
    charts = all_charts()
    nodes: dict = {}
    restrictions: dict = {}

    for c in charts:
        nodes[PosetIndex.of(c)] = chart_presentation(c, field)

    for a, b in combinations(charts, 2):
        idx = PosetIndex.of(a, b)
        ov = pair_overlap(a, b, field)  # base = lex-least member
        nodes[idx] = ov.presentation
        ident = Hom(field, {e: NcPoly.gen(field, e) for e in ov.presentation.generators})
        restrictions[(PosetIndex.of(a), idx)] = ident
        restrictions[(PosetIndex.of(b), idx)] = ov.to_base

    for combo in combinations(charts, 3):
        idx = PosetIndex.of(*combo)
        chain = overlap_chain(triple_ordering(combo), field)
        nodes[idx] = chain.presentation
        for c in combo:
            restrictions[(PosetIndex.of(c), idx)] = chain.homs[c]
        for a, b in combinations(combo, 2):
            pair = pair_overlap(a, b, field)
            restrictions[(PosetIndex.of(a, b), idx)] = pair_to_chain_hom(pair, chain)

    return Presheaf(nodes, restrictions)
