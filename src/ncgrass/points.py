"""Closed points of the atlas over small prime fields.

A chart point is an assignment of field values to the four chart entries.
Evaluation is commutative, so transport between charts evaluates the
transition formulas directly, in plain ints mod q: the overlap that `atlas`
builds over QQ and keeps is compiled once per q into a straight-line Python
function (its `AlgebraPresentation.evaluator` in F_q, which reduces the
integer coefficients mod q). Each point spans a 2-dimensional subspace of
F_q^4 (the chart matrix: identity in the chart columns, entries elsewhere),
and the canonical representative of a glued point is the reduced
row-echelon form of that matrix, also computed in ints. Every chart point
is transported to every other chart once per q: `transport_table` keeps
where each one lands as a position in the other chart's point list, and
the gluing and round-trip checks both read those tables. An independent
oracle enumerates the echelon matrices directly, without any chart or
transition machinery, so the glued count has ground truth to match.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import symbols as sy
from .atlas import all_charts, chart_entries, new_cache, outside, pair_overlap
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


def chart_matrix(lam, vals) -> tuple:
    """The 2x4 matrix whose rows span a point's subspace: identity in the
    chart columns, `vals` (the chart entries in chart_entries order)
    elsewhere."""
    vals, cols = iter(vals), outside(lam)
    rows = []
    for i in lam:
        row = [0, 0, 0, 0]
        row[i - 1] = 1
        for c in cols:
            row[c - 1] = next(vals)
        rows.append(tuple(row))
    return tuple(rows)


def rref(mat, q: int) -> tuple:
    """Reduced row-echelon form over F_q, zero rows dropped. The entries are
    reduced mod q and the arithmetic is on plain ints."""
    rows = [[v % q for v in r] for r in mat]
    n = len(rows)
    pivot_row = 0
    for col in range(len(rows[0])):
        for src in range(pivot_row, n):
            if rows[src][col]:
                break
        else:
            continue
        pivot = rows[src]
        rows[src] = rows[pivot_row]
        if pivot[col] != 1:
            inv = pow(pivot[col], -1, q)
            pivot = [inv * v % q for v in pivot]
        rows[pivot_row] = pivot
        for r, row in enumerate(rows):
            c = row[col]
            if c and r != pivot_row:
                rows[r] = [(v - c * w) % q for v, w in zip(row, pivot)]
        pivot_row += 1
        if pivot_row == n:
            break
    return tuple(map(tuple, rows[:pivot_row]))


# ---------------------------------------------------------------------------
# transport along the transition formulas


_transition_cache = new_cache()


def transport_table(lam, lam2, q: int) -> tuple:
    """For each point of chart_points(lam, q), in order, the position in
    chart_points(lam2, q) of the same subspace in lam2's coordinates, or None
    off the overlap. The QQ overlap's evaluator in GF(q) compiles the
    transition formulas once per table into straight-line code on ints mod
    q. It takes a point's values, since lam is the overlap's base chart, and
    returns the images of lam2's entries in chart_entries order, read here
    as base-q digits. A point is off the overlap when an inverted
    element vanishes there; a division by zero with none of them zero raises
    PointGluingError.
    Memoized, so each point is transported to each chart once per q."""
    lam, lam2 = tuple(sorted(lam)), tuple(sorted(lam2))
    key = (lam, lam2, q)
    got = _transition_cache.get(key)
    if got is None:
        pair = pair_overlap(lam, lam2)
        entries = chart_entries(lam)
        images = [pair.to_base.mapping[e] for e in chart_entries(lam2)]
        move = pair.presentation.evaluator(GF(q), images)
        table = []
        try:
            for vals in product(range(q), repeat=len(entries)):
                image = move(*vals)
                if image is not None:
                    a, b, c, d = image
                    image = ((a * q + b) * q + c) * q + d
                table.append(image)
        except ZeroDivisionError:
            p = ChartPoint(lam, q, tuple(zip(entries, vals)))
            raise PointGluingError(
                f"{p} lies in the overlap with chart {lam2}, but a transition divides by zero"
            ) from None
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
    GF(q)  # validates primality
    charts = all_charts()
    distinct: dict = {}  # each representative kept once, however many charts hold it
    reps: dict = {lam: [] for lam in charts}
    for lam in charts:
        for vals in product(range(q), repeat=4):
            rep = rref(chart_matrix(lam, vals), q)
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
        pts = None  # the chart's points, listed only to name a failure
        for lam2 in charts:
            if lam2 == lam:
                continue
            forth, back = transport_table(lam, lam2, q), transport_table(lam2, lam, q)
            for i, j in enumerate(forth):
                if j is None or back[j] == i:
                    continue
                pts = pts or chart_points(lam, q)
                k = back[j]
                if k is None:
                    bad.append(f"{pts[i]} left the reverse overlap with {lam}")
                else:
                    bad.append(f"{pts[i]} came back as {pts[k]}")
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
