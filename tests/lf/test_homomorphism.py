"""Unit tests for repro.lf.homomorphism — the evaluation engine."""

import pytest

from repro.lf import (
    Constant,
    Null,
    Structure,
    Variable,
    all_answers,
    atom,
    count_homomorphisms,
    cq,
    find_homomorphism,
    homomorphisms,
    isomorphic_over_constants,
    satisfies,
    structure_homomorphism,
    structures_hom_equivalent,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")
n0, n1 = Null(0), Null(1)


def chain(*elements, pred="E"):
    return Structure(
        atom(pred, left, right) for left, right in zip(elements, elements[1:])
    )


def triangle(pred="E"):
    return Structure([atom(pred, a, b), atom(pred, b, c), atom(pred, c, a)])


class TestBasicMatching:
    def test_single_atom(self):
        s = chain(a, b)
        binding = find_homomorphism([atom("E", x, y)], s)
        assert binding == {x: a, y: b}

    def test_no_match(self):
        s = chain(a, b)
        assert find_homomorphism([atom("R", x, y)], s) is None

    def test_constants_must_match_themselves(self):
        s = chain(a, b)
        assert find_homomorphism([atom("E", a, y)], s) == {y: b}
        assert find_homomorphism([atom("E", b, y)], s) is None

    def test_repeated_variable(self):
        loop = Structure([atom("E", a, a), atom("E", a, b)])
        matches = list(homomorphisms([atom("E", x, x)], loop))
        assert matches == [{x: a}]

    def test_path_query(self):
        s = chain(a, b, c)
        assert satisfies(s, cq([atom("E", x, y), atom("E", y, z)]))
        assert not satisfies(chain(a, b), cq([atom("E", x, y), atom("E", y, z)]))

    def test_prebinding(self):
        s = chain(a, b, c)
        assert satisfies(s, cq([atom("E", x, y)], free=(x,)), {x: a})
        assert not satisfies(s, cq([atom("E", x, y)], free=(x,)), {x: c})

    def test_empty_query_is_true(self):
        assert satisfies(Structure(), cq([]))


class TestAllAnswers:
    def test_free_variable_answers(self):
        s = chain(a, b, c)
        answers = all_answers(s, cq([atom("E", x, y)], free=(x, y)))
        assert answers == {(a, b), (b, c)}

    def test_boolean_answers(self):
        s = chain(a, b)
        assert all_answers(s, cq([atom("E", x, y)])) == {()}
        assert all_answers(s, cq([atom("R", x, y)])) == set()

    def test_count_with_limit(self):
        s = triangle()
        assert count_homomorphisms([atom("E", x, y)], s) == 3
        assert count_homomorphisms([atom("E", x, y)], s, limit=2) == 2


class TestUCQAnswers:
    def test_alignment_regression_keeps_answers(self):
        # Regression: over {R(a,b)}, the disjunct ∃x R(x,z) (free z)
        # answers {(b,)}; aligning it to the lead's free (x,) by bare
        # substitution collapsed it to R(x,x), losing the answer.
        from repro.lf import UnionOfConjunctiveQueries

        u = UnionOfConjunctiveQueries(
            [
                cq([atom("R", x, x)], free=(x,)),
                cq([atom("R", x, z)], free=(z,)),
            ]
        )
        s = Structure([atom("R", a, b)])
        assert all_answers(s, u) == {(b,)}

    def test_union_collects_all_disjuncts(self):
        from repro.lf import UnionOfConjunctiveQueries

        u = UnionOfConjunctiveQueries(
            [
                cq([atom("E", x, y)], free=(x,)),
                cq([atom("R", z, y)], free=(z,)),
            ]
        )
        s = Structure([atom("E", a, b), atom("R", c, d)])
        assert all_answers(s, u) == {(a,), (c,)}


class TestEqualityAtoms:
    def test_variable_equals_constant(self):
        s = chain(a, b)
        q = cq([atom("E", x, y), atom("=", x, a)])
        assert satisfies(s, q)
        q_bad = cq([atom("E", x, y), atom("=", x, b)])
        assert not satisfies(s, q_bad)

    def test_ground_equality_checked(self):
        s = chain(a, b)
        assert not satisfies(s, cq([atom("E", x, y), atom("=", a, b)]))

    def test_variable_to_variable_unification(self):
        loop = Structure([atom("E", a, a)])
        q = cq([atom("E", x, y), atom("=", x, y)])
        assert satisfies(loop, q)
        assert not satisfies(chain(a, b), q)

    def test_inconsistent_prebinding(self):
        s = chain(a, b)
        q = cq([atom("E", x, y), atom("=", x, b)], free=(x,))
        assert not satisfies(s, q, {x: a})


class TestStructureHomomorphism:
    def test_chain_maps_into_triangle(self):
        source = Structure([atom("E", n0, n1)])
        mapping = structure_homomorphism(source, triangle())
        assert mapping is not None
        assert atom("E", mapping[n0], mapping[n1]) in triangle()

    def test_constants_are_fixed(self):
        # a chain on constants only maps to a superset of its own facts
        source = chain(a, b)
        target = chain(b, c)
        assert structure_homomorphism(source, target) is None
        assert structure_homomorphism(source, chain(a, b, c)) is not None

    def test_fixed_elements_respected(self):
        source = Structure([atom("E", n0, n1)])
        target = triangle()
        mapping = structure_homomorphism(source, target, fixed={n0: b})
        assert mapping[n0] == b
        assert mapping[n1] == c

    def test_no_homomorphism_triangle_into_chain(self):
        # The triangle has a directed cycle; a long chain does not.
        source = Structure([atom("E", n0, n1), atom("E", n1, Null(2)), atom("E", Null(2), n0)])
        assert structure_homomorphism(source, chain(a, b, c, d)) is None

    def test_hom_equivalence(self):
        left = Structure([atom("E", n0, n1)])
        right = Structure([atom("E", Null(5), Null(6)), atom("E", Null(6), Null(7))])
        # chain of length 1 and length 2 are hom-equivalent? No: 2-chain
        # maps onto 1-chain only if the 1-chain has a path of length 2.
        assert structure_homomorphism(left, right) is not None
        assert structure_homomorphism(right, left) is None
        assert not structures_hom_equivalent(left, right)

    def test_hom_equivalent_loops(self):
        loop = Structure([atom("E", n0, n0)])
        bigger = Structure([atom("E", n1, n1), atom("E", Null(2), n1)])
        assert structures_hom_equivalent(loop, bigger)


class TestIsomorphism:
    def test_triangle_isomorphic_to_relabelled_triangle(self):
        left = Structure([atom("E", n0, n1), atom("E", n1, Null(2)), atom("E", Null(2), n0)])
        right = Structure([atom("E", Null(7), Null(8)), atom("E", Null(8), Null(9)), atom("E", Null(9), Null(7))])
        assert isomorphic_over_constants(left, right)

    def test_different_shapes_not_isomorphic(self):
        path = Structure([atom("E", n0, n1), atom("E", n1, Null(2))])
        fork = Structure([atom("E", n0, n1), atom("E", n0, Null(2))])
        assert not isomorphic_over_constants(path, fork)

    def test_constants_pin_isomorphism(self):
        left = chain(a, b)
        right = chain(b, a)
        assert not isomorphic_over_constants(left, right)
        assert isomorphic_over_constants(left, chain(a, b))

    def test_isolated_elements_counted(self):
        left = Structure([atom("E", n0, n1)], domain=[Null(2)])
        right = Structure([atom("E", n0, n1)])
        assert not isomorphic_over_constants(left, right)

    def test_fact_count_fast_reject(self):
        assert not isomorphic_over_constants(chain(a, b), chain(a, b, c))


class TestHeuristics:
    def test_large_chain_query_on_large_chain(self):
        # A mild stress test: a 12-atom path query over a 300-element
        # chain; the index-driven matcher should handle this instantly.
        elements = [Null(i) for i in range(300)]
        s = Structure(atom("E", u, v) for u, v in zip(elements, elements[1:]))
        variables = [Variable(f"v{i}") for i in range(13)]
        q = cq([atom("E", u, v) for u, v in zip(variables, variables[1:])])
        assert satisfies(s, q)

    def test_star_join(self):
        centre = Null(0)
        s = Structure(
            [atom("R", centre, Null(i)) for i in range(1, 40)]
            + [atom("U", Null(17))]
        )
        q = cq([atom("R", x, y), atom("U", y)])
        assert satisfies(s, q)
        assert all_answers(s, cq([atom("R", x, y), atom("U", y)], free=(y,))) == {(Null(17),)}
