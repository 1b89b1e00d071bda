"""Positive n-types, the ``≡_n`` partition, and quotient structures.

This package implements Sections 2.2–2.3 of the paper: Definition 3
(positive n-types), Definition 4 (``≡_n``), Definition 5 (``M_n(C)``),
Lemma 1, and the (♠1) induced projections.
"""

from .bruteforce import (
    brute_force_equivalent,
    brute_force_subsumed,
    clear_type_query_cache,
    enumerate_type_queries,
)
from .partition import TypePartition
from .ptype import (
    boolean_type_queries,
    equivalent,
    less_equal,
    ptp_as_query_set,
    ptp_contains,
    type_queries,
    type_subsumed,
    types_equal,
)
from .quotient import (
    Quotient,
    induced_projection,
    is_homomorphic_image,
    projections_compatible,
    quotient,
)

__all__ = [
    "Quotient",
    "TypePartition",
    "boolean_type_queries",
    "brute_force_equivalent",
    "brute_force_subsumed",
    "clear_type_query_cache",
    "enumerate_type_queries",
    "equivalent",
    "induced_projection",
    "is_homomorphic_image",
    "less_equal",
    "projections_compatible",
    "ptp_as_query_set",
    "ptp_contains",
    "quotient",
    "type_queries",
    "type_subsumed",
    "types_equal",
]
