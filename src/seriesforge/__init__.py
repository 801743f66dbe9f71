"""Exact enumeration of multipartite series-reduced trees, symbolic
ultrametrics, mobiles, chain-increasing binary trees and parallel
processes, built on Bell polynomials and Lagrange inversion over exact
coefficient rings."""

from .bell import (
    assoc_stirling2,
    bell_inverse_recursive,
    bell_partial,
    bell_product,
    derangement_count,
    stirling2,
)
from .egf import ExpSeries, make_named
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
    verify_integral_relation,
)
from .rings import QQ, ZZ, PolyVar, Ring, poly_ring
from .unlabeled import (
    fully_colored_unlabeled,
    multipartite_unlabeled,
    multipartite_unlabeled_polynomial,
    refined_poly,
    refined_polys,
    unlabeled_count,
)
from .weights import WEIGHT_RING, WeightPoly

__version__ = "0.1.0"

__all__ = [
    "ExpSeries", "PolyVar", "Ring", "WeightPoly", "DegreeSpec",
    "QQ", "ZZ", "WEIGHT_RING",
    "poly_ring", "make_named",
    "bell_partial", "bell_product", "bell_inverse_recursive",
    "derangement_count", "assoc_stirling2", "stirling2",
    "p_series",
    "count_ultrametrics", "a_polynomial", "count_fully_colored_labeled",
    "count_mobiles", "mobiles_polynomial", "verify_integral_relation",
    "chain_increasing_count", "chain_increasing_polynomial",
    "count_processes",
    "refined_poly", "refined_polys", "unlabeled_count",
    "multipartite_unlabeled", "multipartite_unlabeled_polynomial",
    "fully_colored_unlabeled",
]
