"""Tests for chase levels, certain answers, and termination criteria."""

import pytest

from repro.chase import (
    certain_answers,
    certain_boolean,
    chase,
    chase_levels,
    dependency_graph,
    is_weakly_acyclic,
    observed_derivation_depth,
    query_depth_profile,
    special_cycle_witness,
)
from repro.chase.certain import evaluate_certain
from repro.lf import Constant, atom, parse_query, parse_structure, parse_theory

a, d = Constant("a"), Constant("d")

TRANSITIVE = parse_theory("E(x,y), E(y,z) -> E(x,z)")
CHAIN4 = parse_structure("E(a,b)\nE(b,c)\nE(c,d)\nE(d,e)")
GROWING = parse_theory("E(x,y) -> exists z. E(y,z)")


class TestLevels:
    def test_chase_levels_monotone(self):
        levels = chase_levels(CHAIN4, TRANSITIVE, depth=5)
        for earlier, later in zip(levels, levels[1:]):
            assert later.contains_structure(earlier)

    def test_chase_levels_stop_at_saturation(self):
        levels = chase_levels(CHAIN4, TRANSITIVE, depth=50)
        assert len(levels) <= 4  # saturates quickly

    def test_level_zero_is_database(self):
        levels = chase_levels(CHAIN4, TRANSITIVE, depth=3)
        assert levels[0].same_facts(CHAIN4)

    def test_observed_derivation_depth_zero_for_database_fact(self):
        result = chase(CHAIN4, TRANSITIVE)
        assert observed_derivation_depth(result, parse_query("E('a','b')")) == 0

    def test_observed_derivation_depth_grows(self):
        result = chase(CHAIN4, TRANSITIVE)
        assert observed_derivation_depth(result, parse_query("E('a','e')")) == 2

    def test_observed_derivation_depth_none_when_absent(self):
        result = chase(CHAIN4, TRANSITIVE)
        assert observed_derivation_depth(result, parse_query("R(x,y)")) is None

    def test_minimum_over_matches(self):
        # E(x,y) matches database facts, so depth 0 even though derived
        # facts also match.
        result = chase(CHAIN4, TRANSITIVE)
        assert observed_derivation_depth(result, parse_query("E(x,y)")) == 0

    def test_missing_fact_level_is_a_hard_error(self):
        # Regression: a matched fact absent from fact_level used to be
        # silently treated as level 0, masking bookkeeping bugs in
        # hand-built or mis-merged results.
        from repro.chase import ChaseResult
        from repro.lf import parse_structure as ps

        structure = ps("E(a,b)\nE(b,c)")
        broken = ChaseResult(
            structure=structure,
            depth=1,
            saturated=True,
            fact_level={atom("E", Constant("a"), Constant("b")): 0},
        )
        with pytest.raises(ValueError, match="fact_level"):
            observed_derivation_depth(broken, parse_query("E('b','c')"))

    def test_complete_fact_level_still_answers(self):
        from repro.chase import ChaseResult
        from repro.lf import parse_structure as ps

        structure = ps("E(a,b)")
        result = ChaseResult(
            structure=structure,
            depth=0,
            saturated=True,
            fact_level={atom("E", Constant("a"), Constant("b")): 0},
        )
        assert observed_derivation_depth(result, parse_query("E(x,y)")) == 0

    def test_query_depth_profile(self):
        depth, result = query_depth_profile(CHAIN4, TRANSITIVE, parse_query("E('a','d')"), 10)
        assert depth == 2
        assert result.saturated


class TestCertain:
    def test_true_via_saturation(self):
        assert certain_boolean(CHAIN4, TRANSITIVE, parse_query("E('a','e')")) is True

    def test_false_via_saturation(self):
        assert certain_boolean(CHAIN4, TRANSITIVE, parse_query("E('e','a')")) is False

    def test_true_on_infinite_chase(self):
        query = parse_query("E(x,y), E(y,z), E(z,w)")
        assert certain_boolean(parse_structure("E(a,b)"), GROWING, query, max_depth=6) is True

    def test_unknown_on_budget(self):
        # A query that never becomes true, on a diverging chase.
        query = parse_query("E(x,x)")
        verdict = certain_boolean(parse_structure("E(a,b)"), GROWING, query, max_depth=4)
        assert verdict is None

    def test_answers_exclude_nulls(self):
        answers, complete = certain_answers(
            parse_structure("E(a,b)"),
            GROWING,
            parse_query("E(x,y)", free=["x", "y"]),
            max_depth=4,
        )
        assert answers == {(a, Constant("b"))}
        assert not complete

    def test_answers_complete_when_saturated(self):
        answers, complete = certain_answers(
            CHAIN4, TRANSITIVE, parse_query("E('a',y)", free=["y"])
        )
        assert complete
        assert len(answers) == 4

    def test_evaluate_certain_reuses_run(self):
        result = chase(CHAIN4, TRANSITIVE)
        verdict, _ = evaluate_certain(
            result.structure, parse_query("E('a','e')"), result.saturated
        )
        assert verdict is True
        verdict, _ = evaluate_certain(
            result.structure, parse_query("E('e','a')"), result.saturated
        )
        assert verdict is False


class TestWeakAcyclicity:
    def test_datalog_always_weakly_acyclic(self):
        assert is_weakly_acyclic(TRANSITIVE)

    def test_self_feeding_tgd_not_weakly_acyclic(self):
        assert not is_weakly_acyclic(GROWING)

    def test_nonrecursive_tgd_weakly_acyclic(self):
        assert is_weakly_acyclic(parse_theory("E(x,y) -> exists z. R(y,z)"))

    def test_two_step_special_cycle(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. R(y,z)
            R(x,y) -> exists z. E(y,z)
            """
        )
        assert not is_weakly_acyclic(theory)

    def test_normal_cycle_alone_is_fine(self):
        theory = parse_theory(
            """
            E(x,y) -> R(y,x)
            R(x,y) -> E(y,x)
            """
        )
        assert is_weakly_acyclic(theory)

    def test_witness_returned_for_bad_theory(self):
        witness = special_cycle_witness(GROWING)
        assert ("E", 0) in witness or ("E", 1) in witness

    def test_witness_empty_for_good_theory(self):
        assert special_cycle_witness(TRANSITIVE) == []

    def test_dependency_graph_edges(self):
        graph = dependency_graph(GROWING)
        # body positions (E,0) and (E,1) feed the special position (E,1)
        assert ("E", 1) in graph.special.get(("E", 1), set()) or (
            ("E", 1) in graph.special.get(("E", 0), set())
        )
        # frontier y: body (E,1) -> head (E,0) is a normal edge
        assert ("E", 0) in graph.normal.get(("E", 1), set())

    def test_weakly_acyclic_chase_terminates(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. R(y,z)
            R(x,y) -> S(x,y)
            """
        )
        assert is_weakly_acyclic(theory)
        result = chase(parse_structure("E(a,b)"), theory, max_depth=100)
        assert result.saturated
