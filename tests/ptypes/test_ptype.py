"""Tests for positive n-types (Definition 3/4) — repro.ptypes.ptype."""

import pytest

from repro.lf import Constant, Null, Structure, Variable, atom, cq, parse_structure
from repro.ptypes import (
    boolean_type_queries,
    equivalent,
    less_equal,
    ptp_as_query_set,
    ptp_contains,
    type_queries,
    type_subsumed,
    types_equal,
)
from repro.ptypes.ptype import type_generators

a, b, c = Constant("a"), Constant("b"), Constant("c")
n = [Null(i) for i in range(20)]


def chain(length):
    """A chain of nulls n0 -> n1 -> ... (no constants)."""
    return Structure(atom("E", n[i], n[i + 1]) for i in range(length))


class TestTypeQueries:
    def test_n1_queries_about_element_alone(self):
        s = Structure([atom("E", n[0], n[1]), atom("U", n[0])])
        queries = type_queries(s, n[0], 1)
        # only atoms on {n0} (+ constants): the unary atom
        assert any("U" in str(q) for q in queries)
        assert not any("E" in str(q) for q in queries)

    def test_loop_visible_at_n1(self):
        s = Structure([atom("E", n[0], n[0])])
        queries = type_queries(s, n[0], 1)
        assert any("E" in str(q) for q in queries)

    def test_constants_included_automatically(self):
        s = Structure([atom("E", a, n[0])])
        queries = type_queries(s, n[0], 1)
        # the atom E(a, y) has one variable: present at n=1
        assert any("E" in str(q) for q in queries)

    def test_constant_element_gets_equality(self):
        s = Structure([atom("E", a, b)])
        queries = type_queries(s, a, 1)
        assert any(at.is_equality for q in queries for at in q.atoms)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            type_queries(chain(2), n[0], 0)

    def test_queries_true_at_origin(self):
        s = chain(5)
        for size in (1, 2, 3):
            for query in type_queries(s, n[2], size):
                assert ptp_contains(s, n[2], query)

    def test_relation_restriction(self):
        s = Structure([atom("E", n[0], n[1]), atom("K", n[0])])
        queries = type_queries(s.restrict_signature(["E"]), n[0], 2)
        assert not any("K" in str(q) for q in queries)


class TestOrders:
    def test_chain_middle_elements_equivalent(self):
        s = chain(10)
        # middle elements: same type at n=2 (have both in and out edges)
        assert equivalent(s, n[3], n[6], 2)

    def test_chain_endpoints_differ_at_n2(self):
        s = chain(10)
        assert not equivalent(s, n[0], n[5], 2)   # n0 has no predecessor
        assert not equivalent(s, n[10], n[5], 2)  # n10 has no successor

    def test_chain_all_equal_at_n1(self):
        s = chain(10)
        assert equivalent(s, n[0], n[10], 1)

    def test_distance_from_start_matters(self):
        s = chain(10)
        # n1 has an incoming path of length 1 but not 2: differs from n2 at n=3
        assert not equivalent(s, n[1], n[2], 3)
        assert equivalent(s, n[1], n[2], 2)

    def test_less_equal_strict_direction(self):
        s = chain(10)
        # everything true at the start is true in the middle, not conversely
        assert less_equal(s, n[0], n[5], 3)
        assert not less_equal(s, n[5], n[0], 3)

    def test_constants_never_merge(self):
        s = Structure([atom("E", a, n[0]), atom("E", b, n[1])])
        assert not equivalent(s, a, b, 1)

    def test_example2_types(self):
        """Example 2 of the paper: Chase vs triangle M' at sizes 2 and 3.

        We state it at the element ``b`` (which has a predecessor in
        both structures, like every element the quotient identifies);
        at the root ``a`` of the chase even ``ptp_2`` differs, since the
        triangle gives ``a`` an incoming edge the chain's root lacks.
        Elements are anonymous — the paper's Θ contains only E and U.
        """
        # chase: b0 -> b1 -> b2 -> ...   (b1 plays the paper's "a"→"b" edge)
        chase_chain = Structure(atom("E", n[i], n[i + 1]) for i in range(9))
        # triangle on anonymous elements t0 -> t1 -> t2 -> t0
        t = [Null(100), Null(101), Null(102)]
        triangle = Structure(
            [atom("E", t[0], t[1]), atom("E", t[1], t[2]), atom("E", t[2], t[0])]
        )
        # ptp_2 of a mid-chain element agrees with the triangle...
        assert types_equal(chase_chain, n[4], triangle, t[1], 2)
        # ...but ptp_3 differs: the triangle satisfies the 3-cycle.
        assert not types_equal(chase_chain, n[4], triangle, t[1], 3)
        # At the chase's root even ptp_2 differs (no incoming edge).
        assert not types_equal(chase_chain, n[0], triangle, t[0], 2)

    def test_cross_structure_subsumption(self):
        small = chain(3)
        big = chain(6)
        # middle of the small chain embeds into the big chain's middle
        assert type_subsumed(small, n[1], big, n[3], 2)


class TestBooleanQueries:
    def test_zero_budget(self):
        assert boolean_type_queries(chain(3), 0) == []

    def test_sentences_true_in_structure(self):
        s = chain(4)
        for sentence in boolean_type_queries(s, 3):
            assert s.satisfies(sentence)

    def test_detects_new_sentaccording_to_loop(self):
        looped = Structure([atom("E", n[0], n[0])])
        sentences = boolean_type_queries(looped, 1)
        plain = chain(3)
        assert any(not plain.satisfies(q) for q in sentences)

    def test_boolean_part_matters_cross_structure(self):
        """A disconnected difference invisible to anchored queries."""
        # source has an extra disconnected loop; target does not
        source = Structure([atom("E", n[0], n[1]), atom("R", n[5], n[5])])
        target = Structure([atom("E", n[0], n[1])])
        # anchored (connected) queries at n0 agree up to n=2...
        queries = type_queries(source, n[0], 2)
        assert all(
            target.satisfies(q, {q.free[0]: n[0]}) for q in queries
        )
        # ...but the full cross-structure check sees the loop
        assert not type_subsumed(source, n[0], target, n[0], 2)


class TestGeneratorSets:
    def test_equal_sets_imply_equivalence(self):
        s = chain(10)
        left = ptp_as_query_set(s, n[4], 2)
        right = ptp_as_query_set(s, n[5], 2)
        assert left == right
        assert equivalent(s, n[4], n[5], 2)

    def test_sets_differ_for_distinct_types(self):
        s = chain(10)
        assert ptp_as_query_set(s, n[0], 2) != ptp_as_query_set(s, n[5], 2)

    def test_generators_grow_from_a_smaller_size(self):
        s = Structure([atom("E", a, n[0]), *chain(8).facts(), atom("U", n[3])])
        for element in (n[0], n[4]):
            fresh = type_generators(s, element, 4)
            for smaller in (1, 2, 3):
                base = (smaller, type_generators(s, element, smaller))
                grown = type_generators(s, element, 4, base=base)
                assert set(grown) == set(fresh)
                # the base's generators come first, unchanged
                assert list(grown.items())[: len(base[1])] == list(base[1].items())

    def test_base_must_be_smaller(self):
        s = chain(4)
        base = (2, type_generators(s, n[1], 2))
        with pytest.raises(ValueError, match="cannot grow"):
            type_generators(s, n[1], 2, base=base)
