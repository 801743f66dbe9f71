"""Exact enumeration of multipartite series-reduced trees, symbolic
ultrametrics, mobiles, chain-increasing binary trees and parallel
processes, by integer recurrences and one Bell-table inversion.

__all__ is the documented API: each family's count and its polynomial in
the number of colors, the unlabeled refinement polynomials, p_series with
DegreeSpec, PolyVar and WeightPoly.  Everything else, the oracles and the
test-support ExpSeries included, is imported from its module.
"""

from .labeled import (
    DegreeSpec,
    a_polynomial,
    chain_increasing_count,
    chain_increasing_polynomial,
    count_fully_colored_labeled,
    count_mobiles,
    count_processes,
    count_ultrametrics,
    mobiles_polynomial,
    p_series,
)
from .rings import PolyVar
from .unlabeled import (
    fully_colored_unlabeled,
    multipartite_unlabeled,
    multipartite_unlabeled_polynomial,
    refined_poly,
    refined_polys,
    unlabeled_count,
)
from .weights import WeightPoly

__version__ = "0.1.0"

__all__ = [
    "PolyVar", "WeightPoly", "DegreeSpec",
    "p_series",
    "count_ultrametrics", "a_polynomial", "count_fully_colored_labeled",
    "count_mobiles", "mobiles_polynomial",
    "chain_increasing_count", "chain_increasing_polynomial",
    "count_processes",
    "refined_poly", "refined_polys", "unlabeled_count",
    "multipartite_unlabeled", "multipartite_unlabeled_polynomial",
    "fully_colored_unlabeled",
]
