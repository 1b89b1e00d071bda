"""The engine's delta rounds must be *observationally identical* to the
naive chase.

:func:`tests.oracles.naive_chase` is the literal ``Chase^1`` iteration:
every round enumerates every rule body in full.  The engine joins each
round after the first through the previous round's delta only, with
canonical witness assignment designed so that even the invented null
*identities* coincide.  These tests pin that contract fact-for-fact:
same facts, same ``fact_level`` map, same depth, same saturation flag —
on random theories/databases and on the named theories of the zoo.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.chase import ChaseConfig, chase
from repro.zoo import (
    chain_growth_theory,
    chain_structure,
    cycle_structure,
    example1_database,
    example1_theory,
    example7_database,
    example7_theory,
    example9_database,
    example9_theory,
    random_edges_database,
    random_linear_theory,
    transitive_theory,
)

from ..oracles import naive_chase
from .strategies import structures, theories

RELAXED = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def run_both(database, theory, max_depth, max_facts=5_000):
    naive = naive_chase(database, theory, max_depth=max_depth, max_facts=max_facts)
    delta = chase(database, theory,
                  ChaseConfig(max_depth=max_depth, max_facts=max_facts))
    return naive, delta


def assert_parity(naive, delta):
    # Null equality is by ident, so same_facts pins invented-null
    # identities too — the strongest observable parity.
    assert naive.structure.same_facts(delta.structure)
    assert naive.fact_level == delta.fact_level
    assert naive.depth == delta.depth
    assert naive.saturated == delta.saturated
    assert sorted(n.ident for n in naive.new_elements) == sorted(
        n.ident for n in delta.new_elements
    )


class TestRandomParity:
    @RELAXED
    @given(structures(min_facts=1, max_facts=8), theories())
    def test_structures_levels_depths_agree(self, database, theory):
        assert_parity(*run_both(database, theory, max_depth=5))

    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories(max_rules=2))
    def test_parity_survives_truncation(self, database, theory):
        naive, delta = run_both(database, theory, max_depth=2)
        assert_parity(naive, delta)


ZOO = [
    ("example1", example1_theory(), example1_database(), 6),
    ("example7", example7_theory(), example7_database(), 6),
    ("example9", example9_theory(), example9_database(), 6),
    ("transitive-chain", transitive_theory(), chain_structure(8), 8),
    ("transitive-cycle", transitive_theory(), cycle_structure(5), 8),
    ("chain-growth", chain_growth_theory(3),
     random_edges_database(4, 6, predicates=("P0",), seed=7), 10),
    ("random-linear", random_linear_theory(4, 5, seed=3),
     random_edges_database(4, 6, seed=3), 6),
]


class TestZooParity:
    @pytest.mark.parametrize(
        "theory, database, depth",
        [pytest.param(t, d, k, id=name) for name, t, d, k in ZOO],
    )
    def test_zoo_theory_parity(self, theory, database, depth):
        naive, delta = run_both(database, theory, max_depth=depth)
        assert_parity(naive, delta)

    def test_delta_evaluates_no_more_triggers(self):
        # The point of the delta rounds: on every zoo workload the
        # engine evaluates at most as many triggers as the naive chase.
        for name, theory, database, depth in ZOO:
            naive, delta = run_both(database, theory, max_depth=depth)
            naive_evaluated = sum(r.triggers_evaluated for r in naive.rounds)
            naive_fired = sum(r.triggers_fired for r in naive.rounds)
            assert delta.stats.triggers_evaluated <= naive_evaluated, name
            assert delta.stats.triggers_fired == naive_fired, name
