"""Tests for the finite-model search's per-node saturation loop.

:func:`repro.chase.incremental_datalog_saturate` re-saturates a
structure in place after new facts arrive, joining only through them.
Each test saturates a prefix of a database with ``datalog_saturate``,
adds the remaining facts as the seed, and compares the result with
``datalog_saturate`` of the whole database.
"""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ChaseBudgetExceeded
from repro.chase import datalog_saturate, incremental_datalog_saturate
from repro.lf import parse_fact, parse_structure, parse_theory
from repro.zoo import random_edges_database, transitive_theory

TRANSITIVE = transitive_theory()


def resaturate(database, theory, split, max_facts=1_000_000):
    """Saturate the first *split* facts (in sorted order) of *database*,
    then add the rest as the seed of the incremental loop.

    Returns ``(structure, facts_added, rounds)``.
    """
    rest = database.sorted_facts()[split:]
    prefix = database.copy()
    for fact in rest:
        prefix.discard_fact(fact)
    structure = datalog_saturate(prefix, theory).structure
    seed = [fact for fact in rest if structure.add_fact(fact)]
    added, rounds = incremental_datalog_saturate(
        structure, theory, seed, max_facts=max_facts
    )
    return structure, added, rounds


def assert_matches_full(database, theory, split):
    structure, added, _rounds = resaturate(database, theory, split)
    full = datalog_saturate(database, theory).structure
    assert structure.same_facts(full)
    return added


class TestCorrectness:
    def test_matches_naive_on_chain(self):
        database = parse_structure("E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)")
        for split in range(len(database)):
            assert_matches_full(database, TRANSITIVE, split)

    def test_matches_naive_on_random_graphs(self):
        for seed in range(5):
            database = random_edges_database(15, 30, seed=seed)
            for split in (0, 10, 29):
                assert_matches_full(database, TRANSITIVE, split)

    def test_multiple_rules(self):
        theory = parse_theory(
            """
            E(x,y), E(y,z) -> E(x,z)
            E(x,y) -> B(y,x)
            B(x,y), B(y,z) -> C(x,z)
            """
        )
        database = parse_structure("E(a,b)\nE(b,c)\nE(c,d)")
        for split in range(len(database)):
            assert_matches_full(database, theory, split)

    def test_existential_rules_ignored(self):
        theory = parse_theory(
            """
            U(x) -> exists z. R(x,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        database = parse_structure("E(a,b)\nE(b,c)\nU(a)")
        structure, _added, _rounds = resaturate(database, theory, 1)
        assert not structure.facts_with_pred("R")
        assert parse_fact("E(a,c)") in structure

    def test_input_not_mutated(self):
        # the seed is read, not consumed: a list comes back as given
        structure = parse_structure("E(a,b)")
        seed = [parse_fact("E(b,c)")]
        structure.add_fact(seed[0])
        added, rounds = incremental_datalog_saturate(structure, TRANSITIVE, seed)
        assert seed == [parse_fact("E(b,c)")]
        # the seed itself is not counted
        assert (added, rounds) == (1, 2)
        assert parse_fact("E(a,c)") in structure

    def test_already_saturated_noop(self):
        structure = datalog_saturate(
            parse_structure("E(a,b)\nE(b,c)"), TRANSITIVE
        ).structure
        before = structure.facts()
        # a seed that derives nothing new: one round, no facts
        added, rounds = incremental_datalog_saturate(
            structure, TRANSITIVE, [parse_fact("E(a,c)")]
        )
        assert (added, rounds) == (0, 1)
        assert structure.facts() == before

    def test_budget(self):
        database = random_edges_database(30, 90, seed=3)
        with pytest.raises(ChaseBudgetExceeded):
            resaturate(database, TRANSITIVE, 45, max_facts=100)


class TestPropertyAgainstNaive:
    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        split=st.integers(min_value=0, max_value=14),
    )
    def test_fixpoint_agreement_fuzzed(self, seed, split):
        database = random_edges_database(8, 14, predicates=("E", "B"), seed=seed)
        theory = parse_theory(
            """
            E(x,y), E(y,z) -> E(x,z)
            B(x,y) -> E(y,x)
            E(x,y), B(x,y) -> Both(x,y)
            """
        )
        assert_matches_full(database, theory, split)
