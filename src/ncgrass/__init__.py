"""Exact symbolic atlas of the noncommutative Grassmannian NCG(2,4).

Chart algebras with quadratic commutation relations, transition maps between
charts, truncated rewriting for identity verification, abelianized sanity
checks, and closed-point counts over small prime fields.
"""

from .atlas import (
    all_charts,
    build_presheaf,
    chart_presentation,
    clear_caches,
    overlap_chain,
    pair_overlap,
)
from .fields import GF, QQ, field_by_key
from .points import gaussian_count, glue_count, subspace_oracle
from .poly import NcPoly, poly_str
from .verify import run_all

__version__ = "0.1.0"

__all__ = [
    "GF",
    "NcPoly",
    "QQ",
    "all_charts",
    "build_presheaf",
    "chart_presentation",
    "clear_caches",
    "field_by_key",
    "gaussian_count",
    "glue_count",
    "overlap_chain",
    "pair_overlap",
    "poly_str",
    "run_all",
    "subspace_oracle",
    "__version__",
]
