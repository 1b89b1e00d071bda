"""Property parity: the incremental search engine vs the definitional
search of ``tests/oracles.py``.

The delta engine (copy-on-write states, incremental saturation,
canonical dedup) must be *observationally equivalent* to the oracle
(a full copy and saturation per branch, raw fact-set dedup) on every
workload: same found/not-found verdict, models that are actual models
avoiding the forbidden query, and matching exhaustiveness claims.  Node
counts may differ (canonical dedup prunes alpha-variant branches) —
that is the point, not a bug.
"""

from hypothesis import HealthCheck, given, settings

from repro.chase import is_model
from repro.fc import SearchConfig, search_finite_model
from repro.lf import satisfies

from ..oracles import definitional_search
from .strategies import conjunctive_queries, structures, theories

#: Small bounds keep each example cheap; exhaustiveness within these
#: bounds is still a strong claim to compare with the oracle.
BOUNDS = dict(max_elements=4, max_nodes=400)

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@RELAXED
@given(database=structures(max_facts=5), theory=theories(max_rules=2))
def test_model_search_parity(database, theory):
    new = search_finite_model(database, theory, config=SearchConfig(**BOUNDS))
    model, _ = definitional_search(database, theory, **BOUNDS)
    assert new.found == (model is not None)
    for found in (new.model, model):
        if found is not None:
            assert is_model(found, theory)
            assert found.contains_structure(database)


@RELAXED
@given(
    database=structures(max_facts=4),
    theory=theories(max_rules=2),
    forbidden=conjunctive_queries(max_atoms=2),
)
def test_forbidden_query_parity(database, theory, forbidden):
    new = search_finite_model(
        database, theory, forbidden=forbidden, config=SearchConfig(**BOUNDS)
    )
    model, exhausted = definitional_search(
        database, theory, forbidden=forbidden, **BOUNDS
    )
    assert new.found == (model is not None)
    for found in (new.model, model):
        if found is not None:
            assert is_model(found, theory)
            assert not satisfies(found, forbidden.boolean())
    # A completed exhaustive search is a proof; the engine and the
    # oracle must make the same claim when neither hit a budget.
    if new.stats.exhausted and exhausted:
        assert new.found == (model is not None)


@RELAXED
@given(
    database=structures(min_facts=1, max_facts=4),
    theory=theories(max_rules=2),
    forbidden=conjunctive_queries(max_atoms=2),
)
def test_exhausted_claims_match(database, theory, forbidden):
    new = search_finite_model(
        database, theory, forbidden=forbidden, config=SearchConfig(**BOUNDS)
    )
    _, exhausted = definitional_search(
        database, theory, forbidden=forbidden, **BOUNDS
    )
    # Exhaustiveness is about the search space, not the engine: with
    # identical bounds and no saturation pruning, the engine and the
    # oracle must agree on whether the space was fully explored.
    if new.stats.saturation_pruned == 0:
        assert new.stats.exhausted == exhausted


@RELAXED
@given(database=structures(max_facts=4), theory=theories(max_rules=2))
def test_canonical_dedup_never_changes_verdict(database, theory):
    on = search_finite_model(database, theory, config=SearchConfig(**BOUNDS))
    off = search_finite_model(
        database, theory, config=SearchConfig(canonical_dedup=False, **BOUNDS)
    )
    assert on.found == off.found
    if on.stats.exhausted and off.stats.exhausted:
        # Dedup may only remove alpha-variant nodes, never add work.
        assert on.stats.nodes <= off.stats.nodes
