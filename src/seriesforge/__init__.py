"""Exact enumeration of multipartite series-reduced trees, symbolic
ultrametrics, mobiles, chain-increasing binary trees and parallel
processes, by integer recurrences and one Bell-table recurrence for the
symbolic weight series.

__all__ is the documented API: each family's prefix for s = 1..S (an int
m gives counts; every prefix with an m also takes PolyVar.gen("m") for
polynomials in m), the unlabeled refinement polynomials, p_series,
PolyVar and WeightPoly.  Everything else, the oracles and the
test-support ExpSeries included, is imported from its module.
"""

from .labeled import (
    chain_increasing_counts,
    fully_colored_labeled_counts,
    mobile_counts,
    p_series,
    process_counts,
    ultrametric_counts,
)
from .rings import PolyVar
from .unlabeled import (
    fully_colored_unlabeled_counts,
    multipartite_unlabeled_counts,
    refined_polys,
    unlabeled_counts,
)
from .weights import WeightPoly

__version__ = "0.1.0"

__all__ = [
    "PolyVar", "WeightPoly", "p_series",
    "ultrametric_counts", "fully_colored_labeled_counts", "mobile_counts",
    "chain_increasing_counts", "process_counts",
    "unlabeled_counts", "multipartite_unlabeled_counts",
    "fully_colored_unlabeled_counts", "refined_polys",
]
