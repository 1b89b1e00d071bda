"""Direct tests of the factorisation step primitives.

``_factorizations`` and ``_protect_free_variables`` are used by the
rewriting engine on kept and on pruned disjuncts (the completeness
recovery), so their contract is pinned here on the paper's own query
shapes rather than through full rewrite runs.
"""

from repro.lf import ConjunctiveQuery, Constant, Variable, atom, parse_query
from repro.rewriting import cq_subsumes
from repro.rewriting.rewriter import _factorizations, _protect_free_variables

#: Example 7's datalog-body shape: two E-atoms sharing their target.
EXAMPLE7_BODY = parse_query("E(x,y), E(u,y)", free=["x", "u"])


class TestFactorizations:
    def test_single_atom_has_none(self):
        assert list(_factorizations(parse_query("R(x,u)", free=["x", "u"]))) == []

    def test_distinct_predicates_never_pair(self):
        assert list(_factorizations(parse_query("E(x,y), R(x,y)"))) == []

    def test_example7_body_merges_the_sources(self):
        factored = [str(f) for f in _factorizations(EXAMPLE7_BODY)]
        # x and u merge; the equality atom keeps the free tuple intact
        assert factored == ["(x, u) <- u = x & E(x, y)"]

    def test_every_factorization_is_contained_in_its_parent(self):
        parent = parse_query("E(x,y), E(y,z), E(u,z)", free=["x"])
        factored = list(_factorizations(parent))
        assert len(factored) == 3
        for child in factored:
            assert cq_subsumes(parent, child)
            assert child.free == parent.free

    def test_prefer_controls_the_representative(self):
        preferred = [
            str(f) for f in _factorizations(
                EXAMPLE7_BODY,
                prefer=(Variable("u"), Variable("x"), Variable("y")),
            )
        ]
        assert preferred == ["(x, u) <- x = u & E(u, y)"]

    def test_constant_clash_blocks_the_pair(self):
        query = ConjunctiveQuery(
            [atom("E", Variable("x"), Constant("a")),
             atom("E", Variable("u"), Constant("b"))],
            (Variable("x"), Variable("u")),
        )
        assert list(_factorizations(query)) == []

    def test_constant_absorbs_the_variable(self):
        query = parse_query("E(x,a), E(u,y)", free=["x", "u"])
        assert [str(f) for f in _factorizations(query)] == [
            "(x, u) <- u = x & E(x, a)"]


class TestProtectFreeVariables:
    def test_renamed_free_variable_gets_an_anchor(self):
        new_atoms = [atom("E", Variable("x"), Variable("y"))]
        _protect_free_variables(
            EXAMPLE7_BODY, {Variable("u"): Variable("x")}, new_atoms)
        assert atom("=", Variable("u"), Variable("x")) in new_atoms

    def test_constant_image_gets_an_anchor(self):
        new_atoms = [atom("E", Constant("a"), Variable("y"))]
        _protect_free_variables(
            EXAMPLE7_BODY, {Variable("x"): Constant("a")}, new_atoms)
        assert atom("=", Variable("x"), Constant("a")) in new_atoms

    def test_untouched_free_variables_add_nothing(self):
        new_atoms = [atom("E", Variable("x"), Variable("z"))]
        _protect_free_variables(
            EXAMPLE7_BODY, {Variable("y"): Variable("z")}, new_atoms)
        assert len(new_atoms) == 1
