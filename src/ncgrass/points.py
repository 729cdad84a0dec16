"""Closed points of the atlas over small prime fields.

A chart point is an assignment of field values to the four chart entries.
Evaluation is commutative, so transport between charts evaluates the
transition formulas directly. Each point spans a 2-dimensional subspace of
F_q^4 (the chart matrix: identity in the chart columns, entries elsewhere),
and the canonical representative of a glued point is the reduced row-echelon
form of that matrix. Every chart point is transported to every other chart
once per q: `transport_table` keeps where each one lands as a position in the
other chart's point list, and the gluing and round-trip checks both read
those tables. An independent oracle enumerates the echelon matrices
directly, without any chart or transition machinery, so the glued count has
ground truth to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import symbols as sy
from .atlas import all_charts, chart_entries, new_cache, pair_overlap
from .fields import GF

QMAX = 7  # enumeration stays desk-scale up to here


class PointGluingError(RuntimeError):
    """A transported point failed to land on the same subspace."""


@dataclass(frozen=True)
class ChartPoint:
    chart: tuple
    q: int
    assignment: tuple  # ((entry sid, value), ...) in chart_entries order

    def values(self) -> dict:
        return dict(self.assignment)

    def __str__(self):
        inner = ", ".join(f"{sy.sym_name(s)}={v}" for s, v in self.assignment)
        return f"point[{inner}]"


def chart_points(lam, q: int) -> list[ChartPoint]:
    """All q^4 points of one chart, in deterministic order."""
    lam = tuple(sorted(lam))
    GF(q)  # validates primality
    gens = chart_entries(lam)
    out = []
    for vals in product(range(q), repeat=len(gens)):
        out.append(ChartPoint(lam, q, tuple(zip(gens, vals))))
    return out


def point_matrix(p: ChartPoint) -> tuple:
    """The 2x4 matrix whose rows span the point's subspace: identity in the
    chart columns, the assigned entries elsewhere, read in assignment order."""
    vals = iter(v for _, v in p.assignment)
    return tuple(
        tuple((1 if c == i else 0) if c in p.chart else next(vals) for c in range(1, 5))
        for i in p.chart
    )


def rref(mat, q: int) -> tuple:
    """Reduced row-echelon form over F_q, zero rows dropped."""
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


# ---------------------------------------------------------------------------
# transport along the transition formulas


_transition_cache = new_cache()


def transport_table(lam, lam2, q: int) -> tuple:
    """For each point of chart_points(lam, q), in order, the position in
    chart_points(lam2, q) of the same subspace in lam2's coordinates, or None
    off the overlap. The transition formulas are evaluated directly, and the
    position reads lam2's entries in chart_entries order as base-q digits.
    A point is off the overlap when an inverted element vanishes there; each
    is the expression of an inverse definition, so they are evaluated only
    after `pres.point` divides by zero, and a division with none of them
    zero raises PointGluingError. Memoized, so each point is transported to
    each chart once per q."""
    lam, lam2 = tuple(sorted(lam)), tuple(sorted(lam2))
    key = (lam, lam2, q)
    got = _transition_cache.get(key)
    if got is None:
        pair = pair_overlap(lam, lam2, GF(q))
        pres = pair.presentation
        entries = chart_entries(lam)
        images = [pair.to_base.mapping[e] for e in chart_entries(lam2)]
        table = []
        for vals in product(range(q), repeat=len(entries)):
            values = dict(zip(entries, vals))
            try:
                pres.point(values)
            except ZeroDivisionError:
                if any(pres.field.is_zero(u.evaluate(values)) for u in pres.inverted):
                    table.append(None)
                    continue
                p = ChartPoint(lam, q, tuple(zip(entries, vals)))
                raise PointGluingError(
                    f"{p} lies in the overlap with chart {lam2}, but a transition divides by zero"
                ) from None
            pos = 0
            for img in images:
                pos = pos * q + img.evaluate(values)
            table.append(pos)
        got = _transition_cache[key] = tuple(table)
    return got


# ---------------------------------------------------------------------------
# gluing


def glued_points(q: int) -> set:
    """The canonical representatives of all chart points, with the pointwise
    consistency check: wherever a point lies in an overlap, its transported
    coordinates must span the same subspace. Each chart point's row-echelon
    form is computed once, and its transport is read from transport_table."""
    if q > QMAX:
        raise ValueError(f"q={q} exceeds the enumeration cap {QMAX}")
    charts = all_charts()
    distinct: dict = {}  # each representative kept once, however many charts hold it
    reps: dict = {lam: [] for lam in charts}
    for lam in charts:
        for p in chart_points(lam, q):
            rep = rref(point_matrix(p), q)
            reps[lam].append(distinct.setdefault(rep, rep))
    for lam in charts:
        others = [
            (lam2, transport_table(lam, lam2, q), reps[lam2]) for lam2 in charts if lam2 != lam
        ]
        for i, rep in enumerate(reps[lam]):
            for lam2, table, reps2 in others:
                j = table[i]
                if j is not None and reps2[j] != rep:
                    raise PointGluingError(
                        f"{chart_points(lam, q)[i]} transported to chart {lam2} "
                        "spans a different subspace"
                    )
    return set(distinct)


def glue_count(q: int) -> int:
    """Number of distinct subspaces spanned by all chart points."""
    return len(glued_points(q))


def roundtrip_failures(q: int) -> list:
    """Points whose forward-and-back transport does not return the original
    assignment, over every ordered chart pair. Both directions are read from
    transport_table, which glued_points fills with the same transports."""
    if q > QMAX:
        raise ValueError(f"q={q} exceeds the enumeration cap {QMAX}")
    charts = all_charts()
    bad = []
    for lam in charts:
        pts = chart_points(lam, q)
        for lam2 in charts:
            if lam2 == lam:
                continue
            forth, back = transport_table(lam, lam2, q), transport_table(lam2, lam, q)
            for i, p in enumerate(pts):
                j = forth[i]
                if j is None:
                    continue
                k = back[j]
                if k is None:
                    bad.append(f"{p} left the reverse overlap with {lam}")
                elif k != i:
                    bad.append(f"{p} came back as {pts[k]}")
    return bad


# ---------------------------------------------------------------------------
# independent ground truth


def echelon_matrices(q: int):
    """Every reduced row-echelon 2x4 matrix of rank 2 over F_q, enumerated by
    pivot-column pattern. Built directly, with no chart machinery."""
    GF(q)
    for c1, c2 in combinations(range(4), 2):
        free1 = [c for c in range(4) if c > c1 and c != c2]
        free2 = [c for c in range(4) if c > c2]
        for v1 in product(range(q), repeat=len(free1)):
            for v2 in product(range(q), repeat=len(free2)):
                row1 = [0, 0, 0, 0]
                row2 = [0, 0, 0, 0]
                row1[c1] = 1
                row2[c2] = 1
                for c, v in zip(free1, v1):
                    row1[c] = v
                for c, v in zip(free2, v2):
                    row2[c] = v
                yield (tuple(row1), tuple(row2))


def subspace_oracle(q: int) -> int:
    """Number of 2-dimensional subspaces of F_q^4, by brute-force enumeration."""
    return sum(1 for _ in echelon_matrices(q))


def gaussian_count(q: int) -> int:
    """The same count in closed form, for cross-checking the oracle."""
    return (q * q + 1) * (q * q + q + 1)
