"""Property parity: the model check vs the planner-free oracle.

``violations`` and ``is_model`` run on each rule's compiled trigger
check, the one the chase's existential suppression and the finite-model
search run too.  ``tests/oracles.py::rule_violations`` matches atom by
atom over the facts grouped by predicate.  Both must report the same
``(rule, body match)`` pairs.  In the same way ``satisfies``, which
runs on the planner, must agree with ``tests/oracles.py::query_holds``.

The drawn theories hold only single-head rules whose existential head
is ``P(frontier, zFresh)``, and the drawn queries hold no ``=`` atom,
so the shapes they never produce are fixed cases here.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings

from repro.chase import chase, is_model, violations
from repro.lf import (
    Constant,
    atom,
    parse_query,
    parse_structure,
    parse_theory,
    satisfies,
)

from ..oracles import query_holds, rule_violations
from .strategies import conjunctive_queries, structures, theories

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


#: (query, structure, whether the query holds).
QUERY_CASES = [
    # an equality between variables of two relational atoms
    ("E(x,y), R(z,w), y = z", "E(a,b), R(b,c)", True),
    ("E(x,y), R(z,w), y = z", "E(a,b), R(c,b)", False),
    # an equality with a constant
    ("E(x,y), y = 'b'", "E(a,b)", True),
    ("E(x,y), y = 'c'", "E(a,b)", False),
    # a chain of equalities through a variable no relational atom binds
    ("E(x,y), y = u, u = 'b'", "E(a,b)", True),
    ("E(x,y), y = u, u = 'c'", "E(a,b)", False),
    # a constant that reaches a variable of a relational atom through
    # a variable no relational atom binds
    ("E(x,y), u = 'a', u = y", "E(a,b), E(a,a)", True),
    ("E(x,y), u = 'a', u = y", "E(a,b)", False),
    # an equality between two constants
    ("E(x,y), 'a' = 'b'", "E(a,b)", False),
]


@RELAXED
@given(structures(max_facts=10), conjunctive_queries())
def test_query_holds_matches_satisfies(structure, query):
    assert query_holds(structure, query) == satisfies(structure, query)


@pytest.mark.parametrize("query_text, structure_text, holds", QUERY_CASES)
def test_fixed_query_shapes(query_text, structure_text, holds):
    query = parse_query(query_text)
    structure = parse_structure(structure_text)
    assert query_holds(structure, query) is holds
    assert satisfies(structure, query) is holds
