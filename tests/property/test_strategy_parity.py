"""The engine's delta rounds must be *observationally identical* to the
naive chase.

:func:`tests.oracles.naive_chase` is the literal ``Chase^1`` iteration:
every round enumerates every rule body in full.  The engine joins each
round after the first through the previous round's delta only, with
canonical witness assignment designed so that even the invented null
*identities* coincide.  These tests pin that contract fact-for-fact:
same facts, same ``fact_level`` map, same depth, same saturation flag —
on random theories/databases and on the named theories of the zoo.

A chase continued by :func:`repro.chase.deepen` must be the chase run
to the deeper depth from the start: the same facts, nulls, levels and
per-round counters, and the naive chase's facts and levels.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase import ChaseConfig, chase, deepen
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
from ..test_cli_json import strip_timings
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


def run_record(result):
    """Every field of a chase result but its wall times and plan-cache
    counters; nulls with their provenance (equality sees the ident)."""
    return {
        "facts": result.structure.facts(),
        "domain": result.structure.domain(),
        "fact_level": result.fact_level,
        "nulls": [(n.ident, n.rule_index, n.level) for n in result.new_elements],
        "rounds_fired": result.rounds_fired,
        "depth": result.depth,
        "saturated": result.saturated,
        "stopped_reason": result.stopped_reason,
        "stats": strip_timings(result.stats.as_dict()),
    }


def assert_deepens(database, theory, shallow, deep, max_facts=5_000):
    """``deepen`` of the chase to *shallow* is the chase to *deep*, and
    agrees with the naive chase; the shallow result is left as it was."""
    config = ChaseConfig(max_depth=deep, max_facts=max_facts)
    first = chase(database, theory, config, max_depth=shallow)
    kept = run_record(first)
    deepened = deepen(first, theory, config)
    assert run_record(deepened) == run_record(chase(database, theory, config))
    assert_parity(naive_chase(database, theory, deep, max_facts), deepened)
    assert run_record(first) == kept


class TestDeepenParity:
    @RELAXED
    @given(
        structures(min_facts=1, max_facts=8),
        theories(),
        st.integers(0, 4),
        st.integers(0, 3),
    )
    def test_deepened_run_is_the_deeper_run(self, database, theory, shallow, extra):
        assert_deepens(database, theory, shallow, shallow + extra)

    @pytest.mark.parametrize(
        "theory, database, depth",
        [pytest.param(t, d, k, id=name) for name, t, d, k in ZOO],
    )
    def test_zoo_theory_deepens(self, theory, database, depth):
        for shallow in (0, 1, depth // 2, depth - 1):
            assert_deepens(database, theory, shallow, depth)
