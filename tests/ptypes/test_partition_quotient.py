"""Tests for the ≡_n partition and the quotient M_n(C) (Def. 4, 5, Lemma 1)."""

import pytest

from repro.lf import Constant, Null, Structure, atom
from repro.ptypes import (
    TypePartition,
    equivalent,
    induced_projection,
    is_homomorphic_image,
    projections_compatible,
    quotient,
)

a, b = Constant("a"), Constant("b")
n = [Null(i) for i in range(40)]


def chain(length, start=0):
    return Structure(atom("E", n[start + i], n[start + i + 1]) for i in range(length))


class TestPartition:
    def test_partition_refines_with_n(self):
        s = chain(12)
        sizes = [len(TypePartition(s, size).classes()) for size in (1, 2, 3)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 1  # all elements alike at n=1

    def test_partition_matches_pairwise_equivalence(self):
        s = chain(8)
        partition = TypePartition(s, 2)
        for left in s.domain():
            for right in s.domain():
                assert partition.same_class(left, right) == equivalent(s, left, right, 2)

    def test_constants_singletons(self):
        s = Structure([atom("E", a, n[0]), atom("E", b, n[1]), atom("E", n[0], n[1])])
        partition = TypePartition(s, 1)
        assert partition.class_index(a) != partition.class_index(b)

    def test_restricted_elements(self):
        s = chain(10)
        interior = [n[i] for i in range(3, 8)]
        partition = TypePartition(s, 2, elements=interior)
        classes = partition.classes()
        members = {e for group in classes for e in group}
        assert members == set(interior)

    def test_restricted_partition_uses_full_structure_types(self):
        s = chain(10)
        # n3..n7 are all interior chain elements; within the full chain
        # they all have in+out edges, so at n=2 they are one class.
        partition = TypePartition(s, 2, elements=[n[i] for i in range(3, 8)])
        assert len(partition.classes()) == 1

    def test_len(self):
        s = chain(6)
        assert len(TypePartition(s, 2)) == 3


class TestRefinedPartition:
    """``TypePartition(..., coarser=...)``: Lemma 1 reuse, same result."""

    def test_refines_like_a_fresh_partition(self):
        s = Structure([atom("E", a, n[0]), *chain(12).facts(), atom("U", n[6])])
        interior = [a, *n[:10]]
        two = TypePartition(s, 2, elements=interior)
        three = TypePartition(s, 3, elements=interior[:8], coarser=two)
        four = TypePartition(s, 4, elements=interior[:6], coarser=three)
        for refined in (three, four):
            fresh = TypePartition(s, refined.n, elements=refined.elements)
            assert refined.classes() == fresh.classes()
        # every ≡_3 class lies inside one ≡_2 class
        for group in three.classes():
            assert len({two.class_index(e) for e in group}) == 1

    def test_class_order_is_the_fresh_order(self):
        """n8 and n6 share a ≡_2 class that ≡_3 splits, and n7's class
        sorts between theirs: the refined classes keep the order of a
        fresh partition, least member first, not the coarser
        partition's grouping."""
        s = Structure(
            [
                atom("E", n[3], n[4]), atom("E", n[6], n[0]), atom("E", n[7], n[2]),
                atom("E", n[8], n[3]), atom("S", n[5], n[4]), atom("U", n[2]),
                atom("V", n[5]), atom("V", a),
            ]
        )
        two = TypePartition(s, 2)
        three = TypePartition(s, 3, coarser=two)
        order = ["_:0", "_:2", "_:3", "_:4", "_:5", "_:6", "_:7", "_:8", "a"]
        assert [sorted(map(str, group)) for group in three.classes()] == [
            [name] for name in order
        ]
        assert two.class_index(n[8]) == two.class_index(n[6]) != two.class_index(n[7])
        assert three.classes() == TypePartition(s, 3).classes()

    def test_equivalence_agrees_with_fresh_test(self):
        s = chain(10)
        coarse = TypePartition(s, 2)
        fine = TypePartition(s, 3, coarser=coarse)
        for left in sorted(s.domain(), key=str):
            for right in sorted(s.domain(), key=str):
                assert fine.equivalent(left, right) == equivalent(s, left, right, 3)

    def test_forms_table_is_shared(self):
        s = chain(8)
        forms = {}
        coarse = TypePartition(s, 2, forms=forms)
        coarse.classes()
        known = len(forms)
        TypePartition(s, 3, coarser=coarse).classes()
        assert len(forms) > known > 0

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"structure": chain(6)}, "same structure"),
            ({"n": 2}, "smaller n"),
            ({"elements": [n[0], n[7]]}, "every element"),
        ],
    )
    def test_mismatched_coarser_rejected(self, change, message):
        s = chain(6)
        coarse = TypePartition(s, 2, elements=n[:6])
        arguments = {"structure": s, "n": 3, "elements": n[:4], **change}
        with pytest.raises(ValueError, match=message):
            TypePartition(coarser=coarse, **arguments)

    def test_non_partition_coarser_rejected(self):
        s = chain(6)
        with pytest.raises(ValueError, match="TypePartition"):
            TypePartition(s, 3, coarser=quotient(s, 2))


class TestQuotient:
    def test_example3_quotient_shape(self):
        """Example 3: M_n of an (uncolored) chain is a chain with a loop."""
        s = chain(12)
        q = quotient(s, 3)
        m = q.structure
        loops = [f for f in m.facts_with_pred("E") if f.args[0] == f.args[1]]
        assert len(loops) == 1

    def test_minimal_relations(self):
        s = chain(8)
        assert is_homomorphic_image(quotient(s, 2))

    def test_projection_total_and_constantfixing(self):
        s = Structure([atom("E", a, n[0]), atom("E", n[0], n[1])])
        q = quotient(s, 2)
        assert q.project(a) == a
        assert set(q.projection) == set(s.domain())

    def test_projection_is_homomorphism(self):
        s = chain(8)
        q = quotient(s, 2)
        for fact in s.facts():
            assert q.project_fact(fact) in q.structure

    def test_fiber(self):
        s = chain(8)
        q = quotient(s, 2)
        image = q.project(n[3])
        assert n[3] in q.fiber(image)
        assert q.project(n[4]) == image  # middle elements merge at n=2

    def test_lemma1_compatibility(self):
        s = chain(12)
        finer = quotient(s, 3)
        coarser = quotient(s, 2)
        assert projections_compatible(finer, coarser)

    def test_lemma1_induced_projection(self):
        s = chain(12)
        finer = quotient(s, 3)
        coarser = quotient(s, 2)
        mapping = induced_projection(finer, coarser)
        for element in s.domain():
            assert mapping[finer.project(element)] == coarser.project(element)

    def test_induced_projection_is_homomorphism(self):
        """Lemma 1 second claim: M_{n-1} is a homomorphic image of M_n."""
        s = chain(12)
        finer = quotient(s, 3)
        coarser = quotient(s, 2)
        mapping = induced_projection(finer, coarser)
        for fact in finer.structure.facts():
            assert fact.substitute(mapping) in coarser.structure

    def test_incompatible_quotients_rejected(self):
        left = quotient(chain(4), 2)
        right = quotient(chain(4, start=10), 2)
        with pytest.raises(ValueError):
            projections_compatible(left, right)

    def test_restricted_quotient_drops_frontier_facts(self):
        s = chain(10)
        interior = [n[i] for i in range(0, 6)]
        q = quotient(s, 2, elements=interior)
        assert q.structure.domain_size <= len(interior)
        # no fact of the quotient involves an element outside the interior
        assert all(e in q.projection for e in interior)

    def test_given_empty_partition_is_used(self):
        # An empty partition has no classes, so it is falsy: the quotient
        # must still use it, not build one of the whole domain.
        s = chain(4)
        q = quotient(s, 2, partition=TypePartition(s, 2, elements=[]))
        assert q.classes == []
        assert q.projection == {}
        assert len(q.structure) == 0

    def test_partition_of_the_given_elements_is_used(self):
        s = chain(8)
        partition = TypePartition(s, 2, elements=n[:3])
        for elements in (None, [n[2], n[1], n[0]]):
            q = quotient(s, 2, partition=partition, elements=elements)
            assert set(q.projection) == set(n[:3])

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": 3}, "at n = 2, not 3"),
            ({"elements": n[:3]}, "given elements"),
            ({"structure": chain(4)}, "quotiented structure"),
        ],
    )
    def test_mismatched_partition_rejected(self, change, message):
        # chain(8) has 9 elements and 3 classes of ≡_2 (5 of ≡_3)
        s = chain(8)
        arguments = {"structure": s, "n": 2, **change}
        with pytest.raises(ValueError, match=message):
            quotient(partition=TypePartition(s, 2), **arguments)
