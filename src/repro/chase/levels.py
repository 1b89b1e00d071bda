"""Level-stratified views of the chase and derivation depth.

The BDD property (Section 1.1) is usually phrased through derivation
depth: ``T`` is BDD iff for each query Ψ there is ``k_Ψ`` such that
``Chase(D,T) ⊨ Ψ`` implies ``Chase^{k_Ψ}(D,T) ⊨ Ψ`` for every D.  The
helpers here measure the *observed* derivation depth of a query on a
concrete database — the empirical counterpart used to sanity-check the
rewriting engine's ``k_Ψ``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lf.homomorphism import homomorphisms
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Theory
from ..lf.structures import Structure
from .engine import ChaseConfig, chase
from .results import ChaseResult


def chase_levels(
    database: Structure,
    theory: Theory,
    depth: int,
    max_facts: "Optional[int]" = 200_000,
) -> List[Structure]:
    """The sequence ``Chase^0, Chase^1, ..., Chase^depth`` (as far as the
    budgets allow; shorter if the chase saturates earlier)."""
    result = chase(
        database,
        theory,
        ChaseConfig(max_depth=depth, max_facts=max_facts, max_elements=None),
    )
    return [result.truncate(level) for level in range(result.depth + 1)]


def observed_derivation_depth(
    result: ChaseResult,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
) -> "Optional[int]":
    """Least ``k`` with ``Chase^k ⊨ query``, from a finished chase run.

    ``None`` when the query does not hold in the chased structure (note
    that on a truncated run this only means "not yet").

    Raises
    ------
    ValueError
        When a matched fact is missing from ``result.fact_level`` —
        every fact of a chase result must carry its level (database
        facts at 0), so a miss is a bookkeeping bug in whoever built
        the result; silently defaulting it to level 0 would masquerade
        as a depth-0 derivation.
    """
    if isinstance(query, UnionOfConjunctiveQueries):
        depths = [observed_derivation_depth(result, cq) for cq in query]
        known = [d for d in depths if d is not None]
        return min(known) if known else None
    best: "Optional[int]" = None
    for binding in homomorphisms(query.atoms, result.structure):
        levels = []
        for atom in query.atoms:
            if atom.is_equality:
                continue
            fact = atom.substitute(binding)  # type: ignore[arg-type]
            level = result.fact_level.get(fact)
            if level is None:
                raise ValueError(
                    f"matched fact {fact} has no entry in fact_level: "
                    f"the chase result's level bookkeeping is inconsistent"
                )
            levels.append(level)
        depth = max(levels, default=0)
        if best is None or depth < best:
            best = depth
            if best == 0:
                break
    return best


def query_depth_profile(
    database: Structure,
    theory: Theory,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
    max_depth: int,
) -> Tuple["Optional[int]", ChaseResult]:
    """Chase up to *max_depth* and report the query's derivation depth.

    Returns ``(depth, result)`` where ``depth`` is the least level at
    which the query holds (``None`` if it does not hold within the
    truncation).
    """
    result = chase(
        database,
        theory,
        ChaseConfig(max_depth=max_depth, max_facts=None, max_elements=None),
    )
    return observed_derivation_depth(result, query), result
