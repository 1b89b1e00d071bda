"""Tests for counter-model minimisation."""

from repro.core import build_finite_counter_model
from repro.fc import minimize_model, search_finite_model
from repro.lf import Null, atom, parse_query, parse_structure, parse_theory, satisfies

from ..oracles import rule_violations

LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
DB = parse_structure("E(a,b)")


class TestMinimize:
    def test_padding_removed(self):
        # a valid 2-cycle model plus an irrelevant padded component
        model = parse_structure("E(a,b)\nE(b,a)")
        padded = model.copy()
        padded.add_fact(atom("E", Null(50), Null(51)))
        padded.add_fact(atom("E", Null(51), Null(50)))
        small = minimize_model(padded, LINEAR, DB, forbidden=parse_query("E(x,x)"))
        assert small.domain_size == 2
        assert small.same_facts(model)

    def test_redundant_fact_removed(self):
        model = parse_structure("E(a,b)\nE(b,a)\nE(a,a)")
        small = minimize_model(model, LINEAR, DB)
        # E(a,a) is redundant: a already has a successor
        assert len(small) == 2

    def test_certificate_preserved(self):
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, DB, query)
        small = minimize_model(result.model, LINEAR, DB, forbidden=query.boolean())
        assert small.domain_size <= result.model_size
        assert list(rule_violations(small, LINEAR)) == []
        assert small.contains_structure(DB)
        assert not satisfies(small, query.boolean())

    def test_database_facts_never_dropped(self):
        model = parse_structure("E(a,b)\nE(b,a)")
        small = minimize_model(model, LINEAR, DB)
        assert small.contains_structure(DB)

    def test_no_fact_pass(self):
        model = parse_structure("E(a,b)\nE(b,a)\nE(a,a)")
        small = minimize_model(model, LINEAR, DB, drop_facts=False)
        assert len(small) == 3  # only whole-element drops attempted

    def test_search_plus_minimize(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y) -> B(y)
            """
        )
        outcome = search_finite_model(DB, theory, max_elements=6)
        small = minimize_model(outcome.model, theory, DB)
        assert list(rule_violations(small, theory)) == []
        assert small.domain_size <= outcome.model.domain_size
