"""Tests for the finite-model search (repro.fc.search)."""

from repro.lf import parse_query, parse_structure, parse_theory, satisfies
from repro.fc import every_finite_model_satisfies, search_finite_model
from repro.zoo import section55_database, section55_query, section55_theory

from ..oracles import query_holds, rule_violations

LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
DB = parse_structure("E(a,b)")


class TestBasicSearch:
    def test_finds_smallest_loop_closure(self):
        outcome = search_finite_model(DB, LINEAR, max_elements=5)
        assert outcome.found
        assert list(rule_violations(outcome.model, LINEAR)) == []
        assert outcome.model.contains_structure(DB)
        # reuse-first exploration: the 2-element closure E(b,a) or E(b,b)
        assert outcome.model.domain_size <= 3

    def test_respects_forbidden_query(self):
        loop = parse_query("E(x,x)")
        outcome = search_finite_model(DB, LINEAR, forbidden=loop, max_elements=5)
        assert outcome.found
        assert not query_holds(outcome.model, loop)
        assert list(rule_violations(outcome.model, LINEAR)) == []

    def test_datalog_saturation_inside_search(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y) -> B(y,x)
            """
        )
        outcome = search_finite_model(DB, theory, max_elements=4)
        assert outcome.found
        assert list(rule_violations(outcome.model, theory)) == []
        assert outcome.model.facts_with_pred("B")

    def test_already_model_returned_immediately(self):
        triangle = parse_structure("E(a,b)\nE(b,c)\nE(c,a)")
        outcome = search_finite_model(triangle, LINEAR, max_elements=4)
        assert outcome.found
        assert outcome.model.same_facts(triangle)
        assert outcome.stats.nodes == 1

    def test_node_budget(self):
        outcome = search_finite_model(
            DB, LINEAR, forbidden=parse_query("E(x,y)"), max_elements=3, max_nodes=5
        )
        # E(a,b) itself satisfies E(x,y): pruned at the root, exhausted
        assert not outcome.found
        assert outcome.stats.pruned_by_query >= 1

    def test_no_counter_model_when_impossible(self):
        # every model of LINEAR ⊇ {E(a,b)} satisfies "an edge exists"
        outcome = search_finite_model(DB, LINEAR, parse_query("E(x,y)"), max_elements=4)
        assert not outcome.found
        assert outcome.stats.exhausted

    def test_find_counter_model_positive(self):
        outcome = search_finite_model(DB, LINEAR, parse_query("E(x,x)"), max_elements=5)
        assert outcome.found
        assert not query_holds(outcome.model, parse_query("E(x,x)"))


class TestSection55:
    """The paper's non-FC theory: the search *proves* (within bounds)
    that every finite model satisfies Φ = E(x,y) ∧ R(y,y)."""

    def test_every_finite_model_satisfies_phi(self):
        theory, database = section55_theory(), section55_database()
        phi = section55_query().boolean()
        verdict, stats = every_finite_model_satisfies(
            database, theory, phi, max_elements=6, max_nodes=30_000
        )
        assert verdict
        assert stats.exhausted  # the bounded claim is proved, not sampled

    def test_some_finite_model_exists_at_all(self):
        theory, database = section55_theory(), section55_database()
        outcome = search_finite_model(database, theory, max_elements=6)
        assert outcome.found
        assert list(rule_violations(outcome.model, theory)) == []

    def test_phi_true_in_found_models(self):
        theory, database = section55_theory(), section55_database()
        phi = section55_query().boolean()
        outcome = search_finite_model(database, theory, max_elements=6)
        assert satisfies(outcome.model, phi)

    def test_fc_theory_contrast(self):
        """Contrast: on the FC theory LINEAR the analogous search *does*
        find a model avoiding the loop."""
        verdict, _stats = every_finite_model_satisfies(
            DB, LINEAR, parse_query("E(x,x)"), max_elements=5
        )
        assert not verdict


class TestCrossCheckWithPipeline:
    def test_search_agrees_with_theorem2(self):
        """Both routes produce a counter-model for the same (T, D, Q)."""
        from repro.core import build_finite_counter_model

        query = parse_query("E(x,x)")
        pipeline_result = build_finite_counter_model(LINEAR, DB, query)
        searched = search_finite_model(DB, LINEAR, query, max_elements=6).model
        for model in (pipeline_result.model, searched):
            assert list(rule_violations(model, LINEAR)) == []
            assert model.contains_structure(DB)
            assert not query_holds(model, query)
