"""Positive first-order (UCQ) rewriting — the BDD machinery.

Quick tour
----------
>>> from repro.lf import parse_theory, parse_query
>>> from repro.rewriting import rewrite, kappa
>>> theory = parse_theory('''
... E(x,y) -> exists z. E(y,z)
... E(x,y), E(x2,y) -> R(x,x2)
... ''')
>>> result = rewrite(parse_query("R(x,y)", free=["x", "y"]), theory)
>>> result.saturated
True
"""

from .bdd import (
    BDDProfile,
    RuleRewriting,
    answer_by_rewriting,
    answers_by_rewriting,
    bdd_profile,
    is_bdd_for,
    kappa,
)
from .index import SubsumptionIndex, signature_of
from .rewriter import RewriteConfig, RewritingResult, rewrite
from .stats import RewriteStats
from .subsume import (
    clear_subsume_cache,
    cq_equivalent,
    cq_subsumes,
    freeze,
    minimize_ucq,
    normalize_equalities,
    ucq_equivalent,
    ucq_subsumes,
)
from .unify import Unifier, mgu, unify_all

__all__ = [
    "BDDProfile",
    "RewriteConfig",
    "RewriteStats",
    "RewritingResult",
    "RuleRewriting",
    "SubsumptionIndex",
    "Unifier",
    "answer_by_rewriting",
    "answers_by_rewriting",
    "bdd_profile",
    "clear_subsume_cache",
    "cq_equivalent",
    "cq_subsumes",
    "freeze",
    "is_bdd_for",
    "kappa",
    "mgu",
    "minimize_ucq",
    "normalize_equalities",
    "rewrite",
    "signature_of",
    "ucq_equivalent",
    "ucq_subsumes",
    "unify_all",
]
