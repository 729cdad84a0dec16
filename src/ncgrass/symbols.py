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
_PARTNER = {ENTRY: ENTRY_INV, ENTRY_INV: ENTRY, QUASI_DET: QUASI_DET_INV, QUASI_DET_INV: QUASI_DET}


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


def _entry(kind, chart, i: int, j: int) -> int:
    """The entry a(chart; i, j) (kind ENTRY) or its inverse (ENTRY_INV)."""
    chart = tuple(sorted(chart))
    if i not in chart:
        raise ValueError(f"row index {i} not in chart {chart}")
    if j in chart:
        raise ValueError(f"column index {j} lies in chart {chart}")
    suffix = "^-1" if kind == ENTRY_INV else ""
    name = f"a({chart_label(chart)};{i},{j}){suffix}"
    return _register(kind, chart, i, j, None, 1, name)


def _quasi_det(kind, chart, chart2) -> int:
    """The quasi-determinant d(chart|chart2) (kind QUASI_DET) or its inverse
    (QUASI_DET_INV)."""
    chart, chart2 = tuple(sorted(chart)), tuple(sorted(chart2))
    if set(chart) & set(chart2):
        raise ValueError(f"quasi-determinant needs disjoint charts, got {chart}, {chart2}")
    suffix = "^-1" if kind == QUASI_DET_INV else ""
    name = f"d({chart_label(chart)}|{chart_label(chart2)}){suffix}"
    return _register(kind, chart, None, None, chart2, 2, name)


def entry(chart, i: int, j: int) -> int:
    return _entry(ENTRY, chart, i, j)


def entry_inverse(chart, i: int, j: int) -> int:
    return _entry(ENTRY_INV, chart, i, j)


def quasi_det(chart, chart2) -> int:
    return _quasi_det(QUASI_DET, chart, chart2)


def quasi_det_inverse(chart, chart2) -> int:
    return _quasi_det(QUASI_DET_INV, chart, chart2)


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
    if s.kind == MODULE_VAR:
        raise ValueError(f"{s.name} has no inverse partner")
    if s.chart2 is None:
        return _entry(_PARTNER[s.kind], s.chart, s.i, s.j)
    return _quasi_det(_PARTNER[s.kind], s.chart, s.chart2)
