"""Unit tests for the chase engine (repro.chase.engine)."""

import pytest

from repro.errors import ChaseBudgetExceeded, NewElementEmbargoViolation
from repro.lf import (
    Constant,
    Null,
    Structure,
    Variable,
    atom,
    parse_query,
    parse_structure,
    parse_theory,
)
from repro.config import OnBudget
from repro.chase import (
    ChaseConfig,
    chase,
    chase_with_embargo,
    datalog_saturate,
    is_model,
    violations,
)

a, b, c = Constant("a"), Constant("b"), Constant("c")


class TestDatalogChase:
    def test_transitive_closure_saturates(self):
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        database = parse_structure("E(a,b)\nE(b,c)\nE(c,d)")
        result = chase(database, theory)
        assert result.saturated
        assert atom("E", a, Constant("d")) in result.structure
        assert len(result.structure.facts_with_pred("E")) == 6

    def test_no_new_elements_for_datalog(self):
        theory = parse_theory("E(x,y) -> E(y,x)")
        result = chase(parse_structure("E(a,b)"), theory)
        assert result.saturated
        assert not result.new_elements

    def test_input_not_mutated(self):
        theory = parse_theory("E(x,y) -> E(y,x)")
        database = parse_structure("E(a,b)")
        chase(database, theory)
        assert len(database) == 1

    def test_fact_levels(self):
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        database = parse_structure("E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)")
        result = chase(database, theory)
        assert result.fact_level[atom("E", a, b)] == 0
        assert result.fact_level[atom("E", a, c)] == 1
        # a->e requires two rounds of the parallel chase:
        # round 1 gives spans of length ≤ 2 hops, round 2 composes them.
        assert result.fact_level[atom("E", a, Constant("e"))] == 2

    def test_truncate_matches_levels(self):
        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        database = parse_structure("E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)")
        result = chase(database, theory)
        level0 = result.truncate(0)
        assert level0.same_facts(database)
        level1 = result.truncate(1)
        assert atom("E", a, c) in level1
        assert atom("E", a, Constant("e")) not in level1


class TestExistentialChase:
    def test_restricted_chase_reuses_witness(self):
        # E(a,b) with rule E(x,y) -> exists z. E(y,z): b needs a witness,
        # but a already has one (b), so only one null per new frontier.
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        result = chase(parse_structure("E(a,b)"), theory, max_depth=4)
        assert len(result.new_elements) == 4  # one per round: a chain

    def test_witness_not_created_when_satisfied(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        loop = parse_structure("E(a,a)")
        result = chase(loop, theory, max_depth=10)
        assert result.saturated
        assert not result.new_elements

    def test_shared_witness_per_head_atom(self):
        # Two rules demanding the same head atom R(y, z) on the same y
        # share the witness (Lemma 3(iv) discipline).
        theory = parse_theory(
            """
            U(x) -> exists z. R(x,z)
            V(x) -> exists z. R(x,z)
            """
        )
        database = parse_structure("U(a)\nV(a)")
        result = chase(database, theory)
        assert result.saturated
        assert len(result.structure.facts_with_pred("R")) == 1

    def test_distinct_frontiers_get_distinct_witnesses(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)")
        database = parse_structure("U(a)\nU(b)")
        result = chase(database, theory)
        assert len(result.structure.facts_with_pred("R")) == 2
        assert len(result.new_elements) == 2

    def test_null_provenance(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)")
        result = chase(parse_structure("U(a)"), theory)
        null = result.new_elements[0]
        assert null.rule_index == 0
        assert null.level == 1

    def test_example1_chain_never_triggers_triangle_rule(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
            U(x,y) -> exists z. U(y,z)
            """
        )
        result = chase(parse_structure("E(a,b)"), theory, max_depth=8)
        assert not result.structure.facts_with_pred("U")
        assert len(result.structure.facts_with_pred("E")) == 9

    def test_example1_triangle_diverges_on_U(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
            U(x,y) -> exists z. U(y,z)
            """
        )
        triangle = parse_structure("E(a,b)\nE(b,c)\nE(c,a)")
        result = chase(triangle, theory, max_depth=5)
        assert not result.saturated
        assert result.structure.facts_with_pred("U")

    def test_multi_existential_rule(self):
        theory = parse_theory("U(x) -> exists y, z. T(x, y, z)")
        result = chase(parse_structure("U(a)"), theory)
        assert result.saturated
        fact = next(iter(result.structure.facts_with_pred("T")))
        assert isinstance(fact.args[1], Null)
        assert isinstance(fact.args[2], Null)
        assert fact.args[1] != fact.args[2]


class TestBudgets:
    def test_max_depth(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        result = chase(parse_structure("E(a,b)"), theory, max_depth=3)
        assert result.depth == 3
        assert not result.saturated

    def test_max_facts_return(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        result = chase(
            parse_structure("E(a,b)"),
            theory,
            ChaseConfig(max_depth=None, max_facts=5, max_elements=None),
        )
        assert not result.saturated
        assert len(result.structure) >= 5

    def test_max_facts_raise(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        with pytest.raises(ChaseBudgetExceeded):
            chase(
                parse_structure("E(a,b)"),
                theory,
                ChaseConfig(max_depth=None, max_facts=5, max_elements=None, on_budget=OnBudget.RAISE),
            )

    def test_all_budgets_none_rejected(self):
        with pytest.raises(ValueError):
            ChaseConfig(max_depth=None, max_facts=None, max_elements=None)

    def test_bad_on_budget_rejected(self):
        with pytest.raises(ValueError):
            ChaseConfig(max_depth=1, on_budget="explode")


class TestEmbargo:
    def test_embargo_raises_when_witness_needed(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)")
        with pytest.raises(NewElementEmbargoViolation):
            chase_with_embargo(parse_structure("U(a)"), theory)

    def test_embargo_passes_when_witness_exists(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)")
        database = parse_structure("U(a)\nR(a,b)")
        result = chase_with_embargo(database, theory)
        assert result.saturated

    def test_embargo_allows_datalog(self):
        theory = parse_theory(
            """
            U(x) -> exists z. R(x,z)
            R(x,y) -> S(y,x)
            """
        )
        database = parse_structure("U(a)\nR(a,b)")
        result = chase_with_embargo(database, theory)
        assert result.saturated
        assert atom("S", b, a) in result.structure


class TestDatalogSaturate:
    def test_ignores_tgds(self):
        theory = parse_theory(
            """
            U(x) -> exists z. R(x,z)
            E(x,y), E(y,z) -> E(x,z)
            """
        )
        database = parse_structure("U(a)\nE(a,b)\nE(b,c)")
        result = datalog_saturate(database, theory)
        assert result.saturated
        assert not result.structure.facts_with_pred("R")
        assert atom("E", a, c) in result.structure

    def test_runs_without_a_budget(self):
        # A datalog fixpoint of a finite structure always terminates, so
        # leaving every budget unset must run it to the end.
        theory = parse_theory("E(x,y) -> E(y,x)")
        result = datalog_saturate(parse_structure("E(a,b)"), theory, max_facts=None)
        assert result.saturated
        assert atom("E", b, a) in result.structure
        assert len(result.structure) == 2


class TestModelChecking:
    def test_is_model_positive(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        triangle = parse_structure("E(a,b)\nE(b,c)\nE(c,a)")
        assert is_model(triangle, theory)

    def test_is_model_negative(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        chain = parse_structure("E(a,b)")
        assert not is_model(chain, theory)

    def test_violations_reported(self):
        theory = parse_theory("E(x,y) -> E(y,x)")
        chain = parse_structure("E(a,b)\nE(c,d)")
        found = violations(chain, theory)
        assert len(found) == 2
        rule, binding = found[0]
        assert rule.is_datalog

    def test_violations_limit(self):
        theory = parse_theory("E(x,y) -> E(y,x)")
        big = Structure(
            atom("E", Constant(f"v{i}"), Constant(f"w{i}")) for i in range(30)
        )
        assert len(violations(big, theory, limit=7)) == 7

    def test_saturated_chase_is_model(self):
        theory = parse_theory(
            """
            E(x,y), E(y,z) -> E(x,z)
            E(x,y) -> P(x)
            """
        )
        result = chase(parse_structure("E(a,b)\nE(b,c)"), theory)
        assert result.saturated
        assert is_model(result.structure, theory)
