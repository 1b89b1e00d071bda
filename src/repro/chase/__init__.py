"""The chase engine: non-oblivious, parallel-round, budgeted.

Quick tour
----------
>>> from repro.lf import parse_theory, parse_structure
>>> from repro.chase import chase
>>> theory = parse_theory("E(x,y) -> exists z. E(y,z)")
>>> result = chase(parse_structure("E(a,b)"), theory, max_depth=5)
>>> result.depth
5
"""

from .certain import (
    CertainReport,
    certain_answers,
    certain_boolean,
    certain_report,
    chase_entails,
)
from .engine import (
    ChaseConfig,
    chase,
    chase_step,
    chase_with_embargo,
    datalog_saturate,
    is_model,
    violations,
)
from .levels import chase_levels, observed_derivation_depth, query_depth_profile
from .provenance import (
    DEFAULT_MAX_SUPPORTS,
    Derivation,
    Support,
    SupportStore,
    alternative_derivations,
    deepest_derivation,
    explain,
    explain_all,
)
from .results import ChaseResult
from .seminaive import incremental_datalog_saturate
from .stats import ChaseStats, IncrStats, RoundStats
from .view import ChaseView, IncrementalConfig, UpdateResult, ViewAnswer, chase_view
from .termination import (
    DependencyGraph,
    dependency_graph,
    is_weakly_acyclic,
    special_cycle_witness,
)

__all__ = [
    "CertainReport",
    "ChaseConfig",
    "ChaseResult",
    "ChaseStats",
    "ChaseView",
    "DEFAULT_MAX_SUPPORTS",
    "DependencyGraph",
    "Derivation",
    "IncrStats",
    "IncrementalConfig",
    "RoundStats",
    "Support",
    "SupportStore",
    "UpdateResult",
    "ViewAnswer",
    "alternative_derivations",
    "certain_answers",
    "certain_boolean",
    "certain_report",
    "chase",
    "chase_entails",
    "chase_levels",
    "chase_step",
    "chase_view",
    "chase_with_embargo",
    "datalog_saturate",
    "deepest_derivation",
    "dependency_graph",
    "explain",
    "explain_all",
    "incremental_datalog_saturate",
    "is_model",
    "is_weakly_acyclic",
    "observed_derivation_depth",
    "query_depth_profile",
    "special_cycle_witness",
    "violations",
]
