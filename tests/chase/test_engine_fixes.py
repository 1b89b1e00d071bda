"""Regression tests for ``chase_step``'s config and the witness keys.

``chase_step`` replaced any *falsy-looking* config via
``config or ChaseConfig(max_depth=1)``; it now substitutes the default
only for ``None``, so a passed config is always honored.
"""

import pytest

from repro.chase import ChaseConfig, chase_step
from repro.chase.engine import _witness_key
from repro.errors import NewElementEmbargoViolation
from repro.lf import Constant, Variable, parse_rule, parse_structure, parse_theory
from repro.lf.terms import NullFactory


class TestChaseStepConfig:
    def test_passed_config_is_honored(self):
        # allow_new_elements=False must make the step raise — under the
        # old `config or default` idiom a default could silently be
        # substituted and invent a witness instead.
        structure = parse_structure("E(a,b)")
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        config = ChaseConfig(max_depth=1, allow_new_elements=False)
        with pytest.raises(NewElementEmbargoViolation):
            chase_step(structure, theory, NullFactory.above(structure.domain()),
                       level=1, config=config)

    def test_none_config_defaults_to_one_round(self):
        structure = parse_structure("E(a,b)")
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        produced, invented = chase_step(
            structure, theory, NullFactory.above(structure.domain()), level=1
        )
        assert len(produced) == 1 and len(invented) == 1


class TestWitnessKeys:
    def test_atom_shaped_rules_share_a_key(self):
        rule_a = parse_rule("E(x,y) -> exists z. S(y,z)")
        rule_b = parse_rule("R(u,v) -> exists w. S(v,w)")
        binding_a = {Variable("x"): Constant("a"), Variable("y"): Constant("b")}
        binding_b = {Variable("u"): Constant("c"), Variable("v"): Constant("b")}
        assert _witness_key(rule_a, 0, binding_a) == _witness_key(rule_b, 1, binding_b)

    def test_other_shapes_key_per_rule(self):
        rule = parse_rule("E(x,y) -> exists z. S(z,y)")  # witness first
        binding = {Variable("x"): Constant("a"), Variable("y"): Constant("b")}
        key = _witness_key(rule, 3, binding)
        assert key[0] == "rule" and key[1] == 3
