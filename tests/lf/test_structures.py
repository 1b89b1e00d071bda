"""Unit tests for repro.lf.structures."""

import pytest

from repro.errors import ArityError, SignatureError
from repro.lf import Atom, Constant, Null, Signature, Structure, Variable, atom

a, b, c = Constant("a"), Constant("b"), Constant("c")
n0, n1 = Null(0), Null(1)


def chain(*elements, pred="E"):
    """A directed chain structure over the given elements."""
    return Structure(
        atom(pred, left, right) for left, right in zip(elements, elements[1:])
    )


class TestBasics:
    def test_add_and_membership(self):
        s = Structure()
        assert s.add_fact(atom("E", a, b))
        assert not s.add_fact(atom("E", a, b))  # duplicate
        assert atom("E", a, b) in s
        assert atom("E", b, a) not in s

    def test_facts_with_variables_rejected(self):
        with pytest.raises(ValueError):
            Structure([atom("E", a, Variable("x"))])

    def test_domain_gathers_arguments(self):
        s = Structure([atom("E", a, n0)])
        assert s.domain() == {a, n0}
        assert s.domain_size == 2

    def test_isolated_elements(self):
        s = Structure([atom("E", a, b)], domain=[c])
        assert c in s.domain()
        assert s.degree(c) == 0

    def test_len_counts_facts(self):
        assert len(chain(a, b, c)) == 2

    def test_signature_grows(self):
        s = Structure([atom("E", a, b)])
        s.add_fact(atom("U", a))
        assert s.signature.arity("U") == 1
        assert a in s.signature.constants

    def test_strict_mode_rejects_unknown(self):
        s = Structure(signature=Signature.make({"E": 2}), strict=True)
        with pytest.raises(SignatureError):
            s.add_fact(atom("U", a))

    def test_arity_clash_rejected(self):
        s = Structure([atom("E", a, b)])
        with pytest.raises(ArityError):
            s.add_fact(atom("E", a))

    def test_discard_fact(self):
        s = chain(a, b, c)
        assert s.discard_fact(atom("E", a, b))
        assert atom("E", a, b) not in s
        assert not s.discard_fact(atom("E", a, b))
        # index is updated too
        assert not s.facts_with("E", 0, a)


class TestIndexes:
    def test_facts_with_pred(self):
        s = Structure([atom("E", a, b), atom("U", a)])
        assert s.facts_with_pred("E") == {atom("E", a, b)}

    def test_facts_with_position(self):
        s = chain(a, b, c)
        assert s.facts_with("E", 1, b) == {atom("E", a, b)}
        assert s.facts_with("E", 0, b) == {atom("E", b, c)}

    def test_facts_about(self):
        s = chain(a, b, c)
        assert s.facts_about(b) == {atom("E", a, b), atom("E", b, c)}

    def test_degree_matches_lemma3_measure(self):
        s = chain(a, b, c)
        assert s.degree(b) == 2
        assert s.degree(a) == 1


class TestGraphView:
    def test_successors_predecessors(self):
        s = chain(a, b, c)
        assert s.successors(a) == {b}
        assert s.predecessors(c) == {b}
        assert s.successors(c) == frozenset()

    def test_successors_by_predicate(self):
        s = Structure([atom("E", a, b), atom("R", a, c)])
        assert s.successors(a, "E") == {b}
        assert s.successors(a) == {b, c}

    def test_neighbours(self):
        s = Structure([atom("E", a, b), atom("R", c, a)])
        assert s.neighbours(a) == {b, c}


class TestPaperNotation:
    def test_constant_and_nonconstant_elements(self):
        s = Structure([atom("E", a, n0), atom("E", n0, n1)])
        assert s.constant_elements() == {a}
        assert s.nonconstant_elements() == {n0, n1}

    def test_restrict_elements(self):
        s = chain(a, b, c)
        restricted = s.restrict_elements([a, b])
        assert restricted.facts() == {atom("E", a, b)}
        assert restricted.domain() == {a, b}

    def test_restrict_signature_keeps_domain(self):
        s = Structure([atom("E", a, b), atom("K", a)])
        restricted = s.restrict_signature(["E"])
        assert restricted.facts() == {atom("E", a, b)}
        assert restricted.domain() == s.domain()

    def test_contains_structure(self):
        big = chain(a, b, c)
        small = chain(a, b)
        assert big.contains_structure(small)
        assert not small.contains_structure(big)

    def test_same_facts(self):
        assert chain(a, b).same_facts(chain(a, b))
        assert not chain(a, b).same_facts(chain(b, a))


class TestCopy:
    def test_copy_is_independent(self):
        original = chain(a, b)
        duplicate = original.copy()
        duplicate.add_fact(atom("E", b, c))
        assert atom("E", b, c) not in original
        assert atom("E", b, c) in duplicate

    def test_copy_preserves_isolated_elements(self):
        original = Structure([atom("E", a, b)], domain=[c])
        assert c in original.copy().domain()

    def test_eq_compares_facts_and_domain(self):
        assert chain(a, b) == chain(a, b)
        assert chain(a, b) != Structure([atom("E", a, b)], domain=[c])


class TestHashEqContract:
    # Structures are mutable containers with value equality; an earlier
    # version paired that __eq__ with identity hashing, so equal
    # structures landed in different hash buckets.
    def test_structures_are_unhashable(self):
        s = chain(a, b)
        with pytest.raises(TypeError):
            hash(s)
        with pytest.raises(TypeError):
            {s}
        with pytest.raises(TypeError):
            {s: 1}

    def test_frozen_key_consistent_with_eq(self):
        one = Structure([atom("E", a, b), atom("U", a)])
        two = Structure([atom("U", a), atom("E", a, b)])
        assert one == two
        assert one.frozen_key() == two.frozen_key()
        assert hash(one.frozen_key()) == hash(two.frozen_key())
        assert len({one.frozen_key(), two.frozen_key()}) == 1

    def test_frozen_key_diverges_with_value(self):
        s = chain(a, b)
        key_before = s.frozen_key()
        s.add_fact(atom("E", b, c))
        assert s.frozen_key() != key_before


class TestBucketPruning:
    # discard_fact once leaked empty index buckets, and copy() cloned
    # the husks into every descendant.
    def test_discard_prunes_empty_buckets(self):
        s = Structure([atom("E", a, b), atom("U", a)])
        s.discard_fact(atom("E", a, b))
        assert "E" not in s._by_pred
        assert all("E" != pred for pred, _, _ in s._by_pred_pos)
        # partial removal keeps the predicate's remaining buckets
        s2 = Structure([atom("E", a, b), atom("E", a, c)])
        s2.discard_fact(atom("E", a, b))
        assert len(s2._by_pred["E"]) == 1
        assert ("E", 1, b) not in s2._by_pred_pos
        assert ("E", 0, a) in s2._by_pred_pos

    def test_copy_carries_no_empty_buckets(self):
        s = Structure([atom("E", a, b), atom("E", c, n0), atom("U", a)])
        s.discard_fact(atom("E", a, b))
        s.discard_fact(atom("U", a))
        clone = s.copy()
        assert all(clone._by_pred.values())
        assert all(clone._by_pred_pos.values())
        assert "U" not in clone._by_pred

    def test_discard_heavy_loop_leaves_no_residue(self):
        edges = [atom("E", Constant(f"x{i}"), Constant(f"y{i}")) for i in range(50)]
        s = Structure(edges)
        for fact in edges:
            s.discard_fact(fact)
        assert len(s) == 0
        assert s._by_pred == {}
        assert s._by_pred_pos == {}


class TestRestrictionFastPath:
    # The restrictions reuse facts that passed the signature checks
    # when first added, instead of re-inserting them one by one.
    def test_restrictions_skip_revalidation(self, monkeypatch):
        s = Structure([atom("E", a, b), atom("E", b, c), atom("U", a), atom("U", b)])

        def boom(self, fact):
            raise AssertionError(f"restriction re-validated {fact}")

        monkeypatch.setattr(Structure, "_check_signature", boom)
        by_elements = s.restrict_elements([a, b])
        by_signature = s.restrict_signature(["U"])
        assert by_elements.facts() == {atom("E", a, b), atom("U", a), atom("U", b)}
        assert by_signature.facts() == {atom("U", a), atom("U", b)}

    def test_restriction_semantics_unchanged(self):
        s = Structure([atom("E", a, b), atom("E", b, c), atom("E", c, a), atom("U", b)])
        r = s.restrict_elements([a, b])
        assert r.facts() == {atom("E", a, b), atom("U", b)}
        assert r.domain() == {a, b}
        rs = s.restrict_signature(["E"])
        assert rs.facts() == {atom("E", a, b), atom("E", b, c), atom("E", c, a)}
        assert rs.domain() == s.domain()
        assert set(rs.signature.relations) == {"E"}

    def test_restricted_structures_stay_mutable(self):
        r = Structure([atom("E", a, b), atom("U", a)]).restrict_signature(["E"])
        assert r.add_fact(atom("E", b, c))
        assert r.discard_fact(atom("E", a, b))
        assert r.facts() == {atom("E", b, c)}
