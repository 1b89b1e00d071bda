"""Tests for the finite-model search's per-node saturation loop.

:func:`repro.chase.incremental_datalog_saturate` re-saturates a
structure in place after new facts arrive, joining only through them.
Each test saturates a prefix of a database with ``datalog_saturate``,
adds the remaining facts as the seed, and compares the result with
``datalog_saturate`` of the whole database.  :class:`TestForbiddenStop`
covers the loop's stop at the first match of a forbidden query.
"""

import pytest

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ChaseBudgetExceeded
from repro.chase import datalog_saturate, incremental_datalog_saturate
from repro.lf import (
    UnionOfConjunctiveQueries,
    parse_fact,
    parse_query,
    parse_structure,
    parse_theory,
    satisfies,
)
from repro.zoo import random_edges_database, transitive_theory

TRANSITIVE = transitive_theory()


def resaturate(database, theory, split, max_facts=1_000_000, forbidden=None):
    """Saturate the first *split* facts (in sorted order) of *database*,
    then add the rest as the seed of the incremental loop.

    Returns ``(structure, facts_added, rounds, matched)``.
    """
    rest = database.sorted_facts()[split:]
    prefix = database.copy()
    for fact in rest:
        prefix.discard_fact(fact)
    structure = datalog_saturate(prefix, theory).structure
    seed = [fact for fact in rest if structure.add_fact(fact)]
    added, rounds, matched = incremental_datalog_saturate(
        structure, theory.datalog_rules(), seed, forbidden, max_facts
    )
    return structure, added, rounds, matched


def assert_matches_full(database, theory, split):
    structure, added, _rounds, matched = resaturate(database, theory, split)
    full = datalog_saturate(database, theory).structure
    assert structure.same_facts(full)
    assert not matched
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
        structure, _added, _rounds, _matched = resaturate(database, theory, 1)
        assert not structure.facts_with_pred("R")
        assert parse_fact("E(a,c)") in structure

    def test_input_not_mutated(self):
        # the seed is read, not consumed: a list comes back as given
        structure = parse_structure("E(a,b)")
        seed = [parse_fact("E(b,c)")]
        structure.add_fact(seed[0])
        added, rounds, matched = incremental_datalog_saturate(
            structure, TRANSITIVE.rules, seed
        )
        assert seed == [parse_fact("E(b,c)")]
        # the seed itself is not counted
        assert (added, rounds, matched) == (1, 2, False)
        assert parse_fact("E(a,c)") in structure

    def test_already_saturated_noop(self):
        structure = datalog_saturate(
            parse_structure("E(a,b)\nE(b,c)"), TRANSITIVE
        ).structure
        before = structure.facts()
        # a seed that derives nothing new: one round, no facts
        added, rounds, matched = incremental_datalog_saturate(
            structure, TRANSITIVE.rules, [parse_fact("E(a,c)")]
        )
        assert (added, rounds, matched) == (0, 1, False)
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


#: One rule per round: seeding A(a) derives B(a), C(a), D(a) and F(a)
#: in rounds 1-4, and round 5 derives nothing.
CHAIN = parse_theory(
    """
    A(x) -> B(x)
    B(x) -> C(x)
    C(x) -> D(x)
    D(x) -> F(x)
    """
)


def chain_run(forbidden, seed_text="A(a)", max_facts=None):
    """Saturate ``K(a), K(b)`` plus the seed fact under CHAIN; returns
    ``(structure, (facts_added, rounds, matched))``."""
    structure = parse_structure("K(a), K(b)")
    seed = [parse_fact(seed_text)]
    structure.add_fact(seed[0])
    outcome = incremental_datalog_saturate(
        structure, CHAIN.rules, seed, forbidden, max_facts
    )
    return structure, outcome


class TestForbiddenStop:
    """The loop stops at the first match of a forbidden query, checked
    after the seed and after each round on the facts just added."""

    def test_without_a_query_the_fixpoint_is_unchanged(self):
        structure, outcome = chain_run(None)
        assert outcome == (4, 5, False)
        # a query that never matches runs the same rounds to the same facts
        other, unmatched = chain_run(parse_query("Z(x)"))
        assert unmatched == outcome
        assert other.same_facts(structure)
        assert parse_fact("F(a)") in structure

    def test_stops_after_the_round_of_the_first_match(self):
        # D(a) arrives in round 3; round 4 (F(a)) and round 5 never run
        structure, outcome = chain_run(parse_query("D(x)"))
        assert outcome == (3, 3, True)
        assert parse_fact("D(a)") in structure
        assert parse_fact("F(a)") not in structure

    def test_a_seed_match_runs_no_round(self):
        structure, outcome = chain_run(parse_query("A(x), K(x)"))
        assert outcome == (0, 0, True)
        assert parse_fact("B(a)") not in structure

    def test_second_disjunct_alone_matches(self):
        forbidden = UnionOfConjunctiveQueries(
            [parse_query("Z(x)"), parse_query("C(x), K(x)")]
        )
        _structure, outcome = chain_run(forbidden)
        assert outcome == (2, 2, True)

    def test_disjunct_with_a_constant(self):
        forbidden = parse_query("C('b')")
        assert chain_run(forbidden, "A(b)")[1] == (2, 2, True)
        assert chain_run(forbidden, "A(a)")[1] == (4, 5, False)

    def test_disjunct_with_an_equality(self):
        # the pivot D(y) binds y; the equality carries it to B(x)
        assert chain_run(parse_query("B(x), D(y), x = y"))[1] == (3, 3, True)
        forbidden = parse_query("C(x), x = 'b'")
        assert chain_run(forbidden, "A(b)")[1] == (2, 2, True)
        assert chain_run(forbidden, "A(a)")[1] == (4, 5, False)

    def test_a_match_wins_over_the_fact_budget(self):
        # round 1 takes the structure past 3 facts and matches B(x)
        with pytest.raises(ChaseBudgetExceeded):
            chain_run(None, max_facts=3)
        assert chain_run(parse_query("B(x)"), max_facts=3)[1] == (1, 1, True)

    def test_stop_agrees_with_the_fixpoint(self):
        # Under transitivity E(x,x) appears once the seed closes a
        # cycle.  With an acyclic prefix, the loop matches iff the full
        # fixpoint satisfies the query; it stops inside that fixpoint
        # on a structure that satisfies it, and otherwise reaches it.
        forbidden = parse_query("E(x,x)")
        outcomes = set()
        for seed in range(12):
            database = random_edges_database(10, 9, seed=seed)
            for split in (3, 6, 8):
                prefix = database.copy()
                for fact in database.sorted_facts()[split:]:
                    prefix.discard_fact(fact)
                if satisfies(datalog_saturate(prefix, TRANSITIVE).structure, forbidden):
                    continue
                structure, _added, _rounds, matched = resaturate(
                    database, TRANSITIVE, split, forbidden=forbidden
                )
                full = datalog_saturate(database, TRANSITIVE).structure
                assert matched == satisfies(full, forbidden)
                assert satisfies(structure, forbidden) == matched
                assert structure.facts() <= full.facts()
                if not matched:
                    assert structure.same_facts(full)
                outcomes.add(matched)
        assert outcomes == {True, False}
