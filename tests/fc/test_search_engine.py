"""Tests for the incremental search engine (PR: perf search rebuild).

Covers the engine-specific surface: :class:`SearchConfig`, the
depth-first frontier, the copy-on-write/saturation counters, canonical dedup
(including the alpha-renaming regression), budget policies, and parity
with the definitional search of ``tests/oracles.py`` on fixed workloads.
"""

import json

import pytest

from repro.cli import render_search_stats
from repro.config import OnBudget
from repro.errors import ModelSearchExhausted
from repro.lf import (
    Atom,
    Null,
    parse_fact,
    parse_query,
    parse_structure,
    parse_theory,
)
from repro.fc import (
    SearchConfig,
    SearchStats,
    every_finite_model_satisfies,
    search_finite_model,
)
from repro.fc import search as search_module
from repro.payloads import EXIT_INCOMPLETE, fc_search_payload
from repro.runtime import StopReason
from repro.zoo import section55_database, section55_query, section55_theory

from ..oracles import definitional_search, query_holds, rule_violations

LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
DB = parse_structure("E(a,b)")

#: A theory whose search tree contains two branches that differ *only*
#: in the names of invented nulls: the A-rule invents two exchangeable
#: witnesses n1, n2 for E(a,·), and the B-rule's reuse branches
#: F(a,n1) / F(a,n2) are then isomorphic over the constants.  The
#: forbidden query holds only once the F-rule adds a G fact, so both
#: branches reach the dedup check, and every branch is pruned a step
#: later: there is no model.
FORK = parse_theory(
    """
    A(x) -> exists y, z. E(x,y), E(x,z)
    B(x) -> exists w. F(x,w)
    F(x,w) -> exists v. G(w,v)
    """
)
FORK_DB = parse_structure("A(a), B(a)")
FORK_FORBIDDEN = parse_query("G(x,y)")

#: Three reuse branches R(b,b), R(b,a), R(b,_:0) with equal fact counts,
#: domain sizes and predicates but pairwise non-isomorphic: the
#: forbidden query prunes the two popped first, and only the third is a
#: model within three elements.  A search that merged them would report
#: none.
SIBLINGS = parse_theory("U(x) -> exists y. R(x,y)")
SIBLINGS_DB = parse_structure("K(a), K(b), U(b)")
SIBLINGS_DB.add_fact(Atom("P", (Null(0),)))
SIBLINGS_FORBIDDEN = parse_query("R(x,y), K(y)")

#: Reuse branches R(b,b) and R(b,a) share the search's invariant (it
#: reads only the non-constant element _:0, which is in P alone in both)
#: but are not isomorphic.  Both avoid the forbidden query; R(b,b) then
#: needs an S fact, which the query forbids, and R(b,a) is the model.
#: A search that took equal invariants for duplicates would skip R(b,a)
#: and return R(b,_:0) instead.
TWINS = parse_theory(
    """
    U(x) -> exists y. R(x,y)
    R(x,x) -> exists v. S(x,v)
    """
)
TWINS_DB = parse_structure("K(a), U(b)")
TWINS_DB.add_fact(Atom("P", (Null(0),)))
TWINS_FORBIDDEN = parse_query("S(x,y)")

#: The linear rule plus transitivity: every finite model has E(x,x).
LINEAR_TC = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(y,z) -> E(x,z)
    """
)


class TestCanonicalDedupRegression:
    """Two branches differing only in invented null names must count as
    one node."""

    def test_alpha_variant_branches_collapse(self):
        outcome = search_finite_model(
            FORK_DB,
            FORK,
            forbidden=FORK_FORBIDDEN,
            config=SearchConfig(max_elements=4, max_nodes=5000),
        )
        # F(a,n1) and F(a,n2) are one node: keyed on the raw fact sets
        # the search takes 30 nodes and finds no duplicate.
        assert outcome.stats.nodes == 25
        assert outcome.stats.duplicates == 1
        assert outcome.stats.exhausted
        assert not outcome.found
        # Dedup must not change the verdict.
        model, exhausted = definitional_search(
            FORK_DB, FORK, forbidden=FORK_FORBIDDEN, max_elements=4
        )
        assert exhausted and model is None


def decisions(outcome):
    """What the dedup decides: the counters it moves, and the model."""
    stats = outcome.stats
    model = outcome.model.frozen_key() if outcome.found else None
    return stats.nodes, stats.duplicates, stats.pruned_by_query, stats.exhausted, model


class TestInvariantDedup:
    """States are compared by canonical key only when their cheap
    invariants collide; the dedup decisions stay those of comparing
    every state's key."""

    def test_twin_states_are_told_apart_by_keys(self):
        outcome = search_finite_model(
            TWINS_DB,
            TWINS,
            forbidden=TWINS_FORBIDDEN,
            config=SearchConfig(max_elements=3),
        )
        assert outcome.found
        assert parse_fact("R(b,a)") in outcome.model
        assert outcome.stats.nodes == 6
        assert outcome.stats.duplicates == 0
        # R(b,b) and R(b,a) collide, so each gets a key; no other does.
        assert outcome.stats.canonical_keys == 2

    @pytest.mark.parametrize(
        "database,theory,forbidden",
        [
            (section55_database(), section55_theory(), section55_query().boolean()),
            (DB, LINEAR_TC, parse_query("E(x,x)")),
        ],
        ids=["section55", "linear-transitive"],
    )
    def test_distinct_invariants_need_no_key(self, database, theory, forbidden):
        # Keying every state computed 60 keys in each of these searches;
        # no two of their states share an invariant.
        outcome = search_finite_model(
            database,
            theory,
            forbidden=forbidden,
            config=SearchConfig(max_elements=10),
        )
        assert not outcome.found
        assert outcome.stats.exhausted
        assert outcome.stats.nodes == 63
        assert outcome.stats.duplicates == 0
        assert outcome.stats.canonical_keys == 0

    @pytest.mark.parametrize(
        "theory,db,forbidden,me",
        [
            (FORK, FORK_DB, FORK_FORBIDDEN, 4),
            (SIBLINGS, SIBLINGS_DB, SIBLINGS_FORBIDDEN, 3),
            (TWINS, TWINS_DB, TWINS_FORBIDDEN, 3),
            (LINEAR_TC, DB, parse_query("E(x,x)"), 6),
            (
                section55_theory(),
                section55_database(),
                section55_query().boolean(),
                6,
            ),
        ],
        ids=["fork", "siblings", "twins", "linear-tc", "section55"],
    )
    def test_keying_every_state_decides_the_same(
        self, monkeypatch, theory, db, forbidden, me
    ):
        config = SearchConfig(max_elements=me)
        real = search_finite_model(db, theory, forbidden=forbidden, config=config)
        monkeypatch.setattr(search_module, "_invariant", lambda facts, size: 0)
        keyed = search_finite_model(db, theory, forbidden=forbidden, config=config)
        assert decisions(keyed) == decisions(real)
        # Every case has states with nulls, so the patch keyed more.
        assert keyed.stats.canonical_keys > real.stats.canonical_keys


def section55_totals():
    """The §5.5 search's counters summed over the bounds 10-19."""
    totals = {}
    for bound in range(10, 20):
        outcome = search_finite_model(
            section55_database(),
            section55_theory(),
            forbidden=section55_query().boolean(),
            config=SearchConfig(max_elements=bound),
        )
        assert not outcome.found
        assert outcome.stats.exhausted
        for name, value in outcome.stats.as_dict().items():
            totals[name] = totals.get(name, 0) + value
    return totals


class TestQueryStop:
    """A state's saturation stops at the forbidden query's first match;
    the state counts as a node pruned by the query and is dropped before
    the dedup check."""

    def test_section55_visits_the_same_states(self):
        totals = section55_totals()
        assert totals["nodes"] == 1290
        assert totals["pruned_by_query"] == 1155
        assert totals["states_created"] == 1280
        assert totals["duplicates"] == 0

    def test_section55_stops_saturating_at_the_match(self):
        # Saturating every state to its fixpoint runs 7,290 rounds over
        # these bounds; stopping at the match runs 4,084.
        assert section55_totals()["saturation_rounds"] <= 4100

    def test_match_before_the_fact_budget_keeps_the_run_exhausted(self):
        # Closing the E-chain into a cycle derives E(x,x) in the first
        # round, with more than 3 facts: the query prunes those states
        # before the budget does, and only the chains, of at most 3
        # facts, are saturated to their fixpoint.  Saturating to the
        # fixpoint before testing the query would prune 4 states on the
        # budget and report budget-exhausted.
        outcome = search_finite_model(
            DB,
            LINEAR_TC,
            forbidden=parse_query("E(x,x)"),
            config=SearchConfig(max_elements=3, max_facts=3),
        )
        assert not outcome.found
        assert outcome.stats.saturation_pruned == 0
        assert outcome.stats.pruned_by_query == 5
        assert outcome.stats.exhausted
        payload, _code = fc_search_payload(outcome)
        assert payload["status"] == "exhausted-no-model"
        model, exhausted = definitional_search(
            DB, LINEAR_TC, forbidden=parse_query("E(x,x)"), max_elements=3
        )
        assert exhausted and model is None

    def test_saturation_prune_reports_the_budget(self):
        # Here a saturation passes 4 facts before it matches E(x,x): the
        # state is pruned on the budget, so the run found no model
        # without exploring the whole space, and says why.
        outcome = search_finite_model(
            DB,
            LINEAR_TC,
            forbidden=parse_query("E(x,x)"),
            config=SearchConfig(max_elements=6, max_facts=4),
        )
        assert not outcome.found
        assert outcome.stats.saturation_pruned > 0
        assert not outcome.stats.exhausted
        assert outcome.stopped_reason is StopReason.BUDGET
        payload, code = fc_search_payload(outcome)
        assert code == EXIT_INCOMPLETE
        # the payload as ``--json`` prints it
        printed = json.loads(json.dumps(payload, sort_keys=True, default=str))
        assert printed["status"] == "budget-exhausted"
        assert printed["stopped_reason"] == "budget"

    def test_the_root_is_checked_in_full(self):
        # The root has no parent to pivot from: a database that already
        # satisfies the query is pruned before any branch.
        outcome = search_finite_model(
            parse_structure("E(a,a)"),
            LINEAR,
            forbidden=parse_query("E(x,x)"),
            config=SearchConfig(max_elements=3),
        )
        assert not outcome.found
        assert outcome.stats.exhausted
        assert (outcome.stats.nodes, outcome.stats.pruned_by_query) == (1, 1)
        assert outcome.stats.states_created == 0


class TestSearchConfig:
    def test_defaults(self):
        config = SearchConfig()
        assert config.max_elements == 10

    def test_with_overrides(self):
        config = SearchConfig(max_elements=4)
        bumped = config.with_overrides(max_nodes=7)
        assert bumped.max_nodes == 7
        assert bumped.max_elements == 4
        assert config.max_nodes == 50_000

    def test_config_wins_over_keyword_arguments(self):
        config = SearchConfig(max_elements=3)
        outcome = search_finite_model(DB, LINEAR, max_elements=99, config=config)
        assert outcome.found
        assert outcome.model.domain_size <= 3


class TestFrontier:
    def test_finds_a_model(self):
        outcome = search_finite_model(
            DB, LINEAR, config=SearchConfig(max_elements=5)
        )
        assert outcome.found
        assert list(rule_violations(outcome.model, LINEAR)) == []

    def test_exhaustive_verdict(self):
        outcome = search_finite_model(
            DB,
            LINEAR,
            forbidden=parse_query("E(x,y)"),
            config=SearchConfig(max_elements=4),
        )
        assert not outcome.found
        assert outcome.stats.exhausted

    def test_finds_minimal_closure(self):
        # Reuse branches are popped before the fresh one, so the first
        # model closes the chain on an existing element.
        outcome = search_finite_model(
            DB, LINEAR, config=SearchConfig(max_elements=8)
        )
        assert outcome.found
        assert outcome.model.domain_size == 2


class TestBudgets:
    def test_node_budget_clears_exhausted(self):
        outcome = search_finite_model(
            DB,
            LINEAR,
            forbidden=parse_query("E(x,x)"),
            config=SearchConfig(max_elements=3, max_nodes=1),
        )
        assert not outcome.stats.exhausted

    def test_node_budget_raise_policy(self):
        with pytest.raises(ModelSearchExhausted):
            search_finite_model(
                DB,
                LINEAR,
                forbidden=parse_query("E(x,x)"),
                config=SearchConfig(
                    max_elements=3, max_nodes=1, on_budget=OnBudget.RAISE
                ),
            )

    def test_saturation_budget_prunes_state(self):
        # The transitive-closure rule saturates quadratically: a tiny
        # max_facts budget prunes every branch at materialisation.
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        outcome = search_finite_model(
            parse_structure("E(a,b)"),
            theory,
            forbidden=parse_query("E(x,x)"),
            config=SearchConfig(max_elements=6, max_facts=4),
        )
        assert outcome.stats.saturation_pruned >= 1
        assert not outcome.stats.exhausted

    def test_no_saturation_budget(self):
        # max_facts=None: the root and every state saturate unbudgeted
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        outcome = search_finite_model(
            parse_structure("E(a,b), E(b,c)"),
            theory,
            config=SearchConfig(max_elements=4, max_facts=None),
        )
        assert outcome.found
        assert outcome.stats.saturation_pruned == 0
        assert parse_fact("E(a,c)") in outcome.model


class TestStats:
    def test_cow_counters(self):
        outcome = search_finite_model(
            FORK_DB,
            FORK,
            forbidden=FORK_FORBIDDEN,
            config=SearchConfig(max_elements=4),
        )
        stats = outcome.stats
        assert 0 < stats.states_materialised <= stats.states_created
        assert stats.canonical_keys > 0
        assert stats.frontier_peak >= 1

    def test_render_is_hash_prefixed(self):
        stats = SearchStats(nodes=3)
        lines = render_search_stats(stats.as_dict()).splitlines()
        assert lines
        assert all(line.startswith("#") for line in lines)

    def test_saturation_counters_populated(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y) -> B(y,x)
            """
        )
        outcome = search_finite_model(
            parse_structure("E(a,b)"), theory, config=SearchConfig(max_elements=4)
        )
        assert outcome.found
        assert outcome.stats.saturation_new_facts > 0
        assert outcome.stats.saturation_rounds > 0


class TestLegacyParity:
    """Fixed-example parity with the definitional search (the
    pre-rebuild algorithm, kept as a test oracle); the hypothesis suite
    fuzzes the same contract in tests/property/test_search_parity.py."""

    CASES = [
        (LINEAR, DB, None, 5),
        (LINEAR, DB, parse_query("E(x,x)"), 5),
        (LINEAR, DB, parse_query("E(x,y)"), 4),
        (FORK, FORK_DB, FORK_FORBIDDEN, 4),
        (SIBLINGS, SIBLINGS_DB, SIBLINGS_FORBIDDEN, 3),
    ]

    @pytest.mark.parametrize("theory,db,forbidden,me", CASES)
    def test_same_verdict_and_valid_models(self, theory, db, forbidden, me):
        new = search_finite_model(
            db, theory, forbidden=forbidden, config=SearchConfig(max_elements=me)
        )
        model, _ = definitional_search(
            db, theory, forbidden=forbidden, max_elements=me
        )
        assert new.found == (model is not None)
        for found in (new.model, model):
            if found is not None:
                assert list(rule_violations(found, theory)) == []
                assert found.contains_structure(db)
                if forbidden is not None:
                    assert not query_holds(found, forbidden)

    def test_section55_parity(self):
        theory, database = section55_theory(), section55_database()
        phi = section55_query().boolean()
        verdict, stats = every_finite_model_satisfies(
            database, theory, phi, max_elements=6, max_nodes=30_000
        )
        model, exhausted = definitional_search(
            database, theory, forbidden=phi, max_elements=6, max_nodes=30_000
        )
        assert verdict
        assert stats.exhausted
        assert model is None
        assert exhausted
