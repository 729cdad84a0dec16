"""Generator symbols for the chart algebras.

Five kinds: matrix entries a(chart; i, j) with i in the chart and j outside it,
their adjoined inverses, quasi-determinants d(chart|chart') for disjoint chart
pairs, their inverses, and central module variables x(k).

Symbols are interned in a global table and handled as small integer ids
inside words, which keeps subword matching and hashing cheap. Precedence is
intrinsic (kind, then chart, then indices), so it does not depend on the
order in which symbols happen to be created.

Weights: entries, entry inverses, and module variables weigh 1; the two
quasi-determinant kinds weigh 2.
"""

from __future__ import annotations

from dataclasses import dataclass

MODULE_VAR = 0
ENTRY = 1
ENTRY_INV = 2
QUASI_DET = 3
QUASI_DET_INV = 4

_KIND_NAMES = {
    MODULE_VAR: "modulevar",
    ENTRY: "entry",
    ENTRY_INV: "entryinverse",
    QUASI_DET: "quasidet",
    QUASI_DET_INV: "quasidetinverse",
}


@dataclass(frozen=True)
class Symbol:
    sid: int
    kind: int
    chart: tuple[int, ...] | None
    i: int | None
    j: int | None
    chart2: tuple[int, ...] | None
    weight: int
    name: str

    def __repr__(self):
        return self.name


_registry: dict[tuple, Symbol] = {}
_by_id: list[Symbol] = []

# parallel arrays for the rewrite engine's hot loops
WEIGHT: list[int] = []
KEY: list[tuple] = []


def _chart_key(c: tuple[int, ...] | None) -> tuple:
    return c if c is not None else ()


def _register(kind, chart, i, j, chart2, weight, name) -> int:
    desc = (kind, chart, i, j, chart2)
    got = _registry.get(desc)
    if got is not None:
        return got.sid
    sid = len(_by_id)
    s = Symbol(sid, kind, chart, i, j, chart2, weight, name)
    _registry[desc] = s
    _by_id.append(s)
    WEIGHT.append(weight)
    KEY.append((kind, _chart_key(chart), i or 0, j or 0, _chart_key(chart2)))
    return sid


def chart_label(c: tuple[int, ...]) -> str:
    """A chart's indices as written in every name: "i,j"."""
    return ",".join(str(v) for v in c)


def entry(chart, i: int, j: int) -> int:
    chart = tuple(sorted(chart))
    if i not in chart:
        raise ValueError(f"row index {i} not in chart {chart}")
    if j in chart:
        raise ValueError(f"column index {j} lies in chart {chart}")
    name = f"a({chart_label(chart)};{i},{j})"
    return _register(ENTRY, chart, i, j, None, 1, name)


def entry_inverse(chart, i: int, j: int) -> int:
    chart = tuple(sorted(chart))
    if i not in chart or j in chart:
        raise ValueError(f"bad entry indices ({i},{j}) for chart {chart}")
    name = f"a({chart_label(chart)};{i},{j})^-1"
    return _register(ENTRY_INV, chart, i, j, None, 1, name)


def quasi_det(chart, chart2) -> int:
    chart = tuple(sorted(chart))
    chart2 = tuple(sorted(chart2))
    if set(chart) & set(chart2):
        raise ValueError(f"quasi-determinant needs disjoint charts, got {chart}, {chart2}")
    name = f"d({chart_label(chart)}|{chart_label(chart2)})"
    return _register(QUASI_DET, chart, None, None, chart2, 2, name)


def quasi_det_inverse(chart, chart2) -> int:
    chart = tuple(sorted(chart))
    chart2 = tuple(sorted(chart2))
    if set(chart) & set(chart2):
        raise ValueError(f"quasi-determinant needs disjoint charts, got {chart}, {chart2}")
    name = f"d({chart_label(chart)}|{chart_label(chart2)})^-1"
    return _register(QUASI_DET_INV, chart, None, None, chart2, 2, name)


def module_var(k: int) -> int:
    if k < 1:
        raise ValueError(f"module variable index must be positive, got {k}")
    return _register(MODULE_VAR, None, k, None, None, 1, f"x({k})")


def sym(sid: int) -> Symbol:
    return _by_id[sid]


def sym_name(sid: int) -> str:
    return _by_id[sid].name


def kind_name(kind: int) -> str:
    return _KIND_NAMES[kind]


def is_module_var(sid: int) -> bool:
    return _by_id[sid].kind == MODULE_VAR


def inverse_symbol(sid: int) -> int:
    """The partner symbol under formal inversion (entry <-> entry inverse, etc.)."""
    s = _by_id[sid]
    if s.kind == ENTRY:
        return entry_inverse(s.chart, s.i, s.j)
    if s.kind == ENTRY_INV:
        return entry(s.chart, s.i, s.j)
    if s.kind == QUASI_DET:
        return quasi_det_inverse(s.chart, s.chart2)
    if s.kind == QUASI_DET_INV:
        return quasi_det(s.chart, s.chart2)
    raise ValueError(f"{s.name} has no inverse partner")
