"""Property parity: the incremental search engine vs the definitional
search of ``tests/oracles.py``.

The delta engine (copy-on-write states, incremental saturation,
canonical dedup) must be *observationally equivalent* to the oracle
(a full copy and saturation per branch, raw fact-set dedup) on every
workload: same found/not-found verdict, models that are actual models
avoiding the forbidden query, and matching exhaustiveness claims.  Node
counts may differ (canonical dedup prunes alpha-variant branches) —
that is the point, not a bug.

The engine compares canonical keys only between states whose cheap
invariant collides; the last two tests check that the invariant ignores
null names and that keying every state decides exactly the same.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fc import SearchConfig, search_finite_model
from repro.fc import search as search_module
from repro.lf import Atom, Null, Structure, satisfies

from ..oracles import definitional_search, rule_violations
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
            assert list(rule_violations(found, theory)) == []
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
            assert list(rule_violations(found, theory)) == []
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


@settings(max_examples=200, deadline=None)
@given(structure=structures(max_facts=8), data=st.data())
def test_invariant_ignores_null_names(structure, data):
    nulls = sorted(structure.nonconstant_elements(), key=str)
    idents = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=40),
            min_size=len(nulls),
            max_size=len(nulls),
            unique=True,
        )
    )
    renaming = {null: Null(ident) for null, ident in zip(nulls, idents)}
    renamed = Structure(
        [
            Atom(fact.pred, tuple(renaming.get(arg, arg) for arg in fact.args))
            for fact in structure
        ],
        [renaming.get(element, element) for element in structure.domain()],
    )
    assert search_module._invariant(
        renamed.facts(), renamed.domain_size
    ) == search_module._invariant(structure.facts(), structure.domain_size)


def _decisions(outcome):
    stats = outcome.stats
    model = outcome.model.frozen_key() if outcome.found else None
    return stats.nodes, stats.duplicates, stats.pruned_by_query, stats.exhausted, model


@RELAXED
@given(
    database=structures(max_facts=4),
    theory=theories(max_rules=2),
    forbidden=st.none() | conjunctive_queries(max_atoms=2),
)
def test_keying_every_state_decides_the_same(database, theory, forbidden):
    # A constant invariant puts every state in one bucket, so every
    # state is compared by its canonical key.
    config = SearchConfig(**BOUNDS)
    real = search_finite_model(database, theory, forbidden=forbidden, config=config)
    with mock.patch.object(search_module, "_invariant", lambda facts, size: 0):
        keyed = search_finite_model(
            database, theory, forbidden=forbidden, config=config
        )
    assert _decisions(keyed) == _decisions(real)
