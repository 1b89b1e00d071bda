"""Tests for the Theorem 3 route: non-binary frontier-1 theories."""

import pytest

from repro.core import PipelineConfig, build_finite_counter_model, prepare
from repro.errors import NotBinaryError
from repro.lf import parse_query, parse_structure, parse_theory, satisfies

from ..oracles import rule_violations

TERNARY_F1 = parse_theory(
    """
    T(x,y,z) -> exists u, w. T(z, u, w)
    T(x,y,z), B(z) -> M(x,y)
    """
)
DB = parse_structure("T(a,b,c)\nB(c)")


class TestPrepareRoute:
    def test_frontier_one_accepted(self):
        prepared = prepare(TERNARY_F1, parse_query("M(x,x)"))
        # the working theory's TGD heads are binary after the §5.1 split
        for rule in prepared.theory.tgds():
            assert rule.head_atom.arity == 2

    def test_kappa_theory_is_pre_split(self):
        prepared = prepare(TERNARY_F1, parse_query("M(x,x)"))
        assert prepared.kappa_theory is not None
        # the pre-split theory still has the ternary-headed TGD
        assert any(
            r.is_existential and r.head_atom.arity == 3
            for r in prepared.kappa_theory.rules
        )

    def test_binary_theory_unaffected(self):
        binary = parse_theory("E(x,y) -> exists z. E(y,z)")
        prepared = prepare(binary, parse_query("E(x,x)"))
        assert prepared.kappa_theory is None
        assert prepared.theory_for_kappa is prepared.theory

    def test_wide_frontier_rejected(self):
        wide = parse_theory("P(x,y,z) -> exists w. P(x,y,w)")
        with pytest.raises(NotBinaryError):
            prepare(wide, parse_query("P(x,x,x)"))


class TestTheorem3Pipeline:
    def test_ternary_counter_model(self):
        query = parse_query("M(x,x)")
        config = PipelineConfig(chase_depths=(32,))
        result = build_finite_counter_model(TERNARY_F1, DB, query, config)
        assert result.model is not None, result.attempts
        assert result.model.contains_structure(DB)
        assert list(rule_violations(result.model, TERNARY_F1)) == []
        assert not satisfies(result.model, query.boolean())

    def test_certain_ternary_query_detected(self):
        query = parse_query("T('c', u, w)")
        result = build_finite_counter_model(
            TERNARY_F1, DB, query, PipelineConfig(chase_depths=(8,))
        )
        assert result.query_certain

    def test_model_keeps_ternary_database_atoms(self):
        query = parse_query("M(x,x)")
        config = PipelineConfig(chase_depths=(32,))
        result = build_finite_counter_model(TERNARY_F1, DB, query, config)
        from repro.lf import parse_fact

        assert parse_fact("T(a, b, c)") in result.model
