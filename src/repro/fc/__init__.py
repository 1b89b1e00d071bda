"""Finite controllability harness: model search and the ordering
conjecture of Section 5.5."""

from .minimize import minimize_model
from .order import (
    OrderingWitness,
    default_candidates,
    find_ordering,
    ordering_implies_query,
)
from .search import (
    SearchConfig,
    SearchResult,
    SearchStats,
    every_finite_model_satisfies,
    find_counter_model,
    search_finite_model,
)

__all__ = [
    "OrderingWitness",
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "default_candidates",
    "every_finite_model_satisfies",
    "find_counter_model",
    "find_ordering",
    "minimize_model",
    "ordering_implies_query",
    "search_finite_model",
]
