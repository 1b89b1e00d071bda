"""Integration: the Theorem-2 pipeline across the corpus, cross-checked
against the independent finite-model search and the rewriting engine."""

import pytest

from repro.core import build_finite_counter_model, certify_counter_model
from repro.fc import search_finite_model
from repro.rewriting import RewriteConfig, answer_by_rewriting
from repro.zoo import theorem2_corpus

from ..oracles import query_holds, rule_violations

CORPUS = theorem2_corpus()
IDS = [name for name, *_ in CORPUS]


@pytest.mark.parametrize("name,theory,database,query", CORPUS, ids=IDS)
class TestCorpus:
    def test_pipeline_produces_verified_model(self, name, theory, database, query):
        result = build_finite_counter_model(theory, database, query)
        assert result.model is not None, result.attempts
        assert certify_counter_model(result, theory, database, query)
        assert list(rule_violations(result.model, theory)) == []

    def test_search_agrees(self, name, theory, database, query):
        outcome = search_finite_model(
            database, theory, forbidden=query.boolean(), max_elements=6
        )
        # the search may or may not find one within 6 elements, but if
        # it does, the model must verify like the pipeline's
        if outcome.found:
            assert list(rule_violations(outcome.model, theory)) == []
            assert not query_holds(outcome.model, query)

    def test_rewriting_confirms_not_certain(self, name, theory, database, query):
        config = RewriteConfig(max_steps=5_000, max_queries=500)
        assert answer_by_rewriting(database, theory, query.boolean(), config) is False


class TestPipelineInternalsAgree:
    def test_model_is_homomorphic_image_of_chase_prefix(self):
        """The counter-model contains a homomorphic image of the chase:
        the paper's M′ (Section 2.1), realised by q_η."""
        from repro.chase import ChaseConfig, chase
        from repro.lf import structure_homomorphism
        from repro.zoo import example7_database, example7_theory
        from repro.lf import parse_query

        theory, database = example7_theory(), example7_database()
        query = parse_query("R(x,u), P(u,w)")
        result = build_finite_counter_model(theory, database, query)
        prefix = chase(database, theory, ChaseConfig(max_depth=3)).structure
        mapping = structure_homomorphism(prefix, result.model)
        assert mapping is not None

    def test_flag_predicate_invisible_in_model(self):
        from repro.lf import parse_query
        from repro.zoo import example1_database, example1_theory

        theory, database = example1_theory(), example1_database()
        result = build_finite_counter_model(theory, database, parse_query("U(x,y)"))
        flag = result.prepared.flag_predicate
        assert not result.model.facts_with_pred(flag)

    def test_eta_at_least_kappa(self):
        from repro.lf import parse_query
        from repro.zoo import example7_database, example7_theory

        result = build_finite_counter_model(
            example7_theory(), example7_database(), parse_query("R(x,u), P(u,w)")
        )
        assert result.eta >= result.kappa
