"""Property-based tests for positive types and quotients.

The central invariants of Section 2:

* type generators are true at their origin;
* ``≼_n`` is a preorder and ``≡_n`` an equivalence;
* ``≡_n`` refines as n grows (Lemma 1's first claim), and a partition
  refined from a coarser one equals one built from scratch;
* a partition, fresh or refined, agrees with the pairwise ``≡_n`` test
  and lists its classes in the ``str`` order of their least members;
* the quotient map is a homomorphism with minimal relations (Def. 5);
* quotient projections at consecutive n are compatible (Lemma 1).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lf import satisfies
from repro.ptypes import (
    TypePartition,
    equivalent,
    is_homomorphic_image,
    less_equal,
    projections_compatible,
    quotient,
    type_queries,
)
from repro.ptypes.ptype import type_generators

from .strategies import structures

RELAXED = settings(
    max_examples=40, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
SIZES = st.integers(min_value=1, max_value=3)


class TestTypeGenerators:
    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_generators_true_at_origin(self, structure, n):
        for element in sorted(structure.domain(), key=str)[:4]:
            for query in type_queries(structure, element, n):
                assert satisfies(structure, query, {query.free[0]: element})

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_generator_count_monotone_in_n(self, structure, n):
        element = sorted(structure.domain(), key=str)[0]
        small = type_queries(structure, element, n)
        large = type_queries(structure, element, n + 1)
        assert len(small) <= len(large)


class TestOrderProperties:
    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_reflexive(self, structure, n):
        for element in sorted(structure.domain(), key=str)[:4]:
            assert less_equal(structure, element, element, n)

    @RELAXED
    @given(structures(min_facts=2, max_facts=8), SIZES)
    def test_transitive(self, structure, n):
        domain = sorted(structure.domain(), key=str)[:4]
        for a in domain:
            for b in domain:
                for c in domain:
                    if less_equal(structure, a, b, n) and less_equal(structure, b, c, n):
                        assert less_equal(structure, a, c, n)

    @RELAXED
    @given(structures(min_facts=2, max_facts=8))
    def test_equivalence_refines_downward(self, structure):
        """d ≡_{n+1} e implies d ≡_n e (Lemma 1, first claim)."""
        domain = sorted(structure.domain(), key=str)[:5]
        for a in domain:
            for b in domain:
                if equivalent(structure, a, b, 3):
                    assert equivalent(structure, a, b, 2)
                    assert equivalent(structure, a, b, 1)

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES, st.integers(1, 2), st.data())
    def test_refined_partition_matches_fresh(self, structure, n, step, data):
        """A partition refined from a coarser one (Lemma 1) has the
        classes, in the same order, of one built from scratch — also on
        element subsets, and two sizes up."""
        domain = structure.domain()
        dropped = st.sets(st.sampled_from(sorted(domain, key=str)))
        outer = domain - data.draw(dropped, label="not in the coarse partition")
        inner = outer - data.draw(dropped, label="not in the fine partition")
        finer = n + step
        coarse = TypePartition(structure, n, elements=outer)
        fine = TypePartition(structure, finer, elements=inner, coarser=coarse)
        fresh = TypePartition(structure, finer, elements=inner)
        assert fine.classes() == fresh.classes()
        assert coarse.classes() == TypePartition(structure, n, elements=outer).classes()
        for element in sorted(inner, key=str):
            base = (n, type_generators(structure, element, n))
            grown = type_generators(structure, element, finer, base=base)
            assert set(grown) == set(type_generators(structure, element, finer))

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES, st.integers(1, 2), st.data())
    def test_partition_matches_pairwise_equivalence(self, structure, n, step, data):
        """Two partitioned elements share a class exactly when the
        pairwise test says they are ``≡_n``, in a partition built from
        scratch and in one refined from a coarser partition (itself
        checked too), and the classes come least member first."""
        domain = structure.domain()
        dropped = st.sets(st.sampled_from(sorted(domain, key=str)))
        outer = domain - data.draw(dropped, label="not in the coarse partition")
        inner = outer - data.draw(dropped, label="not in the fine partition")
        coarse = TypePartition(structure, n, elements=outer)
        finer = n + step
        for partition in (
            coarse,
            TypePartition(structure, finer, elements=inner),
            TypePartition(structure, finer, elements=inner, coarser=coarse),
        ):
            classes = partition.classes()
            assert {e for group in classes for e in group} == partition.elements
            least = [min(map(str, group)) for group in classes]
            assert least == sorted(least)
            members = sorted(partition.elements, key=str)
            for i, left in enumerate(members):
                for right in members[i + 1 :]:
                    assert partition.same_class(left, right) == equivalent(
                        structure, left, right, partition.n
                    )

    @RELAXED
    @given(structures(min_facts=2, max_facts=8), SIZES)
    def test_partition_is_consistent_partition(self, structure, n):
        partition = TypePartition(structure, n)
        classes = partition.classes()
        union = {e for group in classes for e in group}
        assert union == structure.domain()
        flat = [e for group in classes for e in group]
        assert len(flat) == len(union)  # disjoint


class TestQuotientProperties:
    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_projection_is_homomorphism(self, structure, n):
        quotiented = quotient(structure, n)
        for fact in structure.facts():
            assert quotiented.project_fact(fact) in quotiented.structure

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_relations_minimal(self, structure, n):
        assert is_homomorphic_image(quotient(structure, n))

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_constants_fixed(self, structure, n):
        quotiented = quotient(structure, n)
        for constant in structure.constant_elements():
            assert quotiented.project(constant) == constant

    @RELAXED
    @given(structures(min_facts=1, max_facts=8))
    def test_lemma1_compatibility(self, structure):
        finer = quotient(structure, 3)
        coarser = quotient(structure, 2)
        assert projections_compatible(finer, coarser)

    @RELAXED
    @given(structures(min_facts=1, max_facts=8), SIZES)
    def test_quotient_no_larger(self, structure, n):
        assert quotient(structure, n).size <= structure.domain_size

    @RELAXED
    @given(structures(min_facts=1, max_facts=8))
    def test_quotient_size_monotone_in_n(self, structure):
        """Finer types, more classes."""
        assert quotient(structure, 1).size <= quotient(structure, 2).size
        assert quotient(structure, 2).size <= quotient(structure, 3).size
