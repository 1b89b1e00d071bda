"""Very Treelike DAGs: predecessor sets and Definition 11 checks."""

from .checks import VTDAGReport, is_forest, is_vtdag, max_degree, vtdag_report
from .predecessors import (
    iterated_predecessor_table,
    iterated_predecessors,
    predecessor_neighbourhood,
    predecessor_set,
)

__all__ = [
    "VTDAGReport",
    "is_forest",
    "is_vtdag",
    "iterated_predecessor_table",
    "iterated_predecessors",
    "max_degree",
    "predecessor_neighbourhood",
    "predecessor_set",
    "vtdag_report",
]
