"""Property parity: the model check vs the planner-free oracle.

``violations`` and ``is_model`` run on each rule's compiled trigger
check, the one the chase's existential suppression and the finite-model
search run too.  ``tests/oracles.py::rule_violations`` matches atom by
atom over the facts grouped by predicate.  Both must report the same
``(rule, body match)`` pairs.

The drawn theories hold only single-head rules whose existential head
is ``P(frontier, zFresh)``, so the rule shapes they never produce are
fixed cases here.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.chase import chase, is_model, violations
from repro.lf import Constant, atom, parse_structure, parse_theory

from ..oracles import rule_violations
from .strategies import structures, theories

RELAXED = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: More than any drawn or fixed case can have: "every violation".
EVERY = 10**6

JOINT = "E(x,y) -> exists z. R(y,z), S(z,x)"

#: (theory, structure, number of violations).
CASES = [
    # two head atoms that need one joint witness: R(b,c) and S(d,a)
    # each hold on their own, but no z has both R(b,z) and S(z,a)
    (JOINT, "E(a,b), R(b,c), S(d,a)", 1),
    (JOINT, "E(a,b), R(b,c), S(c,a)", 0),
    # a repeated existential
    ("E(x,y) -> exists z. R(z,z)", "E(a,b), R(a,b)", 1),
    ("E(x,y) -> exists z. R(z,z)", "E(a,b), R(c,c)", 0),
    # a constant in the head
    ("E(x,y) -> exists z. R(z,'c')", "E(a,b), R(b,d)", 1),
    ("E(x,y) -> exists z. R(z,'c')", "E(a,b), R(d,c)", 0),
    # a body equality that binds a frontier variable
    ("E(x,y), y = z -> exists w. R(z,w)", "E(a,b), R(a,c)", 1),
    ("E(x,y), y = z -> exists w. R(z,w)", "E(a,b), R(b,c)", 0),
]


def _pairs(found):
    return Counter((rule, frozenset(binding.items())) for rule, binding in found)


@RELAXED
@given(structures(max_facts=10), theories())
def test_violations_match_oracle(structure, theory):
    expected = _pairs(rule_violations(structure, theory))
    assert _pairs(violations(structure, theory, limit=EVERY)) == expected
    assert is_model(structure, theory) == (not expected)


@pytest.mark.parametrize("theory_text, structure_text, count", CASES)
def test_fixed_rule_shapes(theory_text, structure_text, count):
    theory = parse_theory(theory_text)
    structure = parse_structure(structure_text)
    found = violations(structure, theory, limit=EVERY)
    assert _pairs(found) == _pairs(rule_violations(structure, theory))
    assert len(found) == count
    assert is_model(structure, theory) == (count == 0)


def test_joint_witness_is_invented_once():
    theory = parse_theory(JOINT)
    result = chase(parse_structure("E(a,b), R(b,c), S(d,a)"), theory, max_depth=3)
    assert result.saturated
    (witness,) = result.new_elements
    a, b = Constant("a"), Constant("b")
    assert atom("R", b, witness) in result.structure
    assert atom("S", witness, a) in result.structure
    assert list(rule_violations(result.structure, theory)) == []
