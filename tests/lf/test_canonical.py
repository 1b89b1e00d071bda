"""Unit tests for repro.lf.canonical."""

import pytest

from repro.lf import (
    FREE_VARIABLE,
    Constant,
    Null,
    Structure,
    atom,
    canonical_key,
    canonical_query,
    isomorphic_over_constants,
    satisfies,
    subsets_containing,
)
from repro.lf import canonical
from repro.lf.canonical import connected_subsets_containing

from ..oracles import isomorphic_by_bijection

a, b, c = Constant("a"), Constant("b"), Constant("c")
n0, n1, n2 = Null(0), Null(1), Null(2)


class TestCanonicalQuery:
    def test_distinguished_becomes_free_variable(self):
        s = Structure([atom("E", n0, n1)])
        q = canonical_query(s, [n0, n1], n0)
        assert q.free == (FREE_VARIABLE,)
        assert any(FREE_VARIABLE in at.variable_set() for at in q.atoms)

    def test_constants_stay_constants(self):
        s = Structure([atom("E", a, n0)])
        q = canonical_query(s, [a, n0], n0)
        assert a in q.constants()

    def test_constant_distinguished_gets_equality(self):
        s = Structure([atom("E", a, b)])
        q = canonical_query(s, [a, b], a)
        assert any(at.is_equality for at in q.atoms)

    def test_satisfied_at_origin(self):
        # The canonical query is, by construction, satisfied at the
        # distinguished element of the original structure.
        s = Structure([atom("E", n0, n1), atom("E", n1, n2), atom("U", n1)])
        q = canonical_query(s, [n0, n1, n2], n1)
        assert satisfies(s, q, {FREE_VARIABLE: n1})

    def test_isolated_distinguished_yields_trivial_query(self):
        s = Structure([atom("E", n0, n1)], domain=[n2])
        q = canonical_query(s, [n2], n2)
        # trivial query: y = y
        assert satisfies(s, q, {FREE_VARIABLE: n0})

    def test_element_outside_subset_required(self):
        s = Structure([atom("E", n0, n1)])
        with pytest.raises(ValueError):
            canonical_query(s, [n0], n1)

    def test_width_bounded_by_subset_size(self):
        s = Structure([atom("E", n0, n1), atom("E", n1, n2), atom("E", n2, n0)])
        q = canonical_query(s, [n0, n1, n2], n0)
        assert q.width <= 3


class TestSubsets:
    def test_sizes_and_anchor(self):
        pool = [n0, n1, n2]
        subsets = list(subsets_containing(pool, n0, 2))
        assert frozenset([n0]) in subsets
        assert frozenset([n0, n1]) in subsets
        assert frozenset([n0, n2]) in subsets
        assert all(n0 in s and len(s) <= 2 for s in subsets)
        assert len(subsets) == 3

    def test_anchor_not_double_counted(self):
        subsets = list(subsets_containing([n0, n1], n0, 2))
        assert frozenset([n0, n1]) in subsets
        assert len(subsets) == 2

    def test_max_size_one(self):
        assert list(subsets_containing([n0, n1], n0, 1)) == [frozenset([n0])]

    def test_count_formula(self):
        pool = [Null(i) for i in range(6)]
        subsets = list(subsets_containing(pool, Null(0), 3))
        # 1 + C(5,1) + C(5,2) = 1 + 5 + 10
        assert len(subsets) == 16

    def test_connected_subsets_of_a_minimum_size(self):
        s = Structure(atom("E", Null(i), Null(i + 1)) for i in range(5))
        every = list(connected_subsets_containing(s, Null(2), 3))
        for smallest in (1, 2, 3):
            sized = list(connected_subsets_containing(s, Null(2), 3, min_size=smallest))
            assert sized == [subset for subset in every if len(subset) >= smallest]
        assert len(sized) == 3  # {n0,n1,n2}, {n1,n2,n3}, {n2,n3,n4}


class TestCanonicalLabel:
    """canonical_key past two non-constant elements, where color
    refinement and the search over within-class orders label them."""

    def test_invariant_under_null_renaming(self):
        # A directed 3-cycle: refinement leaves one class of three, so
        # only the order search makes the two namings agree.
        left = Structure([atom("E", n0, n1), atom("E", n1, n2), atom("E", n2, n0)])
        right = Structure([
            atom("E", Null(7), Null(3)),
            atom("E", Null(3), Null(9)),
            atom("E", Null(9), Null(7)),
        ])
        assert canonical_key(left) == canonical_key(right)

    def test_distinguishes_direction(self):
        left = Structure([atom("E", a, n0), atom("U", n1), atom("U", n2)])
        right = Structure([atom("E", n0, a), atom("U", n1), atom("U", n2)])
        assert canonical_key(left) != canonical_key(right)

    def test_constants_not_renamed(self):
        # Both sides hold a and b, so only the facts tell them apart:
        # swapping a and b would map one onto the other.
        left = Structure(
            [atom("E", a, n0), atom("E", n0, n1), atom("E", n0, n2)], domain=[b]
        )
        right = Structure(
            [atom("E", b, n0), atom("E", n0, n1), atom("E", n0, n2)], domain=[a]
        )
        assert canonical_key(left) != canonical_key(right)


class TestIsomorphicOverConstants:
    def test_positive(self):
        left = Structure([atom("E", a, n0), atom("E", n0, n1)])
        right = Structure([atom("E", a, n2), atom("E", n2, Null(5))])
        assert isomorphic_over_constants(left, right)

    def test_constant_mismatch(self):
        left = Structure([atom("E", a, n0)])
        right = Structure([atom("E", b, n0)])
        assert not isomorphic_over_constants(left, right)

    def test_shape_mismatch(self):
        path = Structure([atom("E", n0, n1), atom("E", n1, n2)])
        fork = Structure([atom("E", n0, n1), atom("E", n0, n2)])
        assert not isomorphic_over_constants(path, fork)

    def test_size_fast_reject(self):
        small = Structure([atom("E", n0, n1)])
        big = Structure([atom("E", n0, n1), atom("E", n1, n2)])
        assert not isomorphic_over_constants(small, big)

    def test_constant_names_cannot_spell_other_arguments(self):
        # Quoted constants may hold commas: spelled out unquoted, both
        # facts read E(c:a,c:b,#0).
        odd, other = Constant("a,c:b"), Constant("b,#0")
        left = Structure([atom("E", odd, n0)], domain=[a, other])
        right = Structure([atom("E", a, other)], domain=[odd, n1])
        assert not isomorphic_over_constants(left, right)
        assert canonical_key(left) != canonical_key(right)

    def test_predicate_names_cannot_spell_other_facts(self):
        # A predicate built outside the parser may hold anything: spelled
        # out unquoted, one fact reads as the two of the other side.
        two = Structure([atom("A", a), atom("B", a)])
        one = Structure([atom("A('a');B", a)])
        assert canonical_key(two) != canonical_key(one)

    def test_answers_on_ten_null_chains(self):
        # No size cap: two 10-null chains from a, and one whose last
        # edge is reversed (same sizes, another shape).
        left = Structure([atom("E", a, Null(0))] + [
            atom("E", Null(i), Null(i + 1)) for i in range(9)
        ])
        right = Structure([atom("E", a, Null(50))] + [
            atom("E", Null(50 + i), Null(51 + i)) for i in range(9)
        ])
        reversed_end = Structure(
            [fact for fact in right.facts() if fact != atom("E", Null(58), Null(59))]
            + [atom("E", Null(59), Null(58))]
        )
        assert isomorphic_over_constants(left, right)
        assert not isomorphic_over_constants(left, reversed_end)


class TestCanonicalKey:
    def test_invariant_under_null_renaming(self):
        left = Structure([atom("E", a, n0), atom("E", n0, n1), atom("U", n1)])
        right = Structure([atom("E", a, Null(41)), atom("E", Null(41), Null(7)), atom("U", Null(7))])
        assert canonical_key(left) == canonical_key(right)

    def test_distinguishes_direction(self):
        left = Structure([atom("E", a, n0)])
        right = Structure([atom("E", n0, a)])
        assert canonical_key(left) != canonical_key(right)

    def test_constants_anchor(self):
        # Renaming a *constant* must change the key: isomorphisms fix
        # the constants, so E(a,n) and E(b,n) are different states.
        left = Structure([atom("E", a, n0)])
        right = Structure([atom("E", b, n0)])
        assert canonical_key(left) != canonical_key(right)

    def test_distinguishes_path_from_fork(self):
        path = Structure([atom("E", n0, n1), atom("E", n1, n2)])
        fork = Structure([atom("E", n0, n1), atom("E", n0, n2)])
        assert canonical_key(path) != canonical_key(fork)

    def test_constant_only_structure(self):
        s = Structure([atom("E", a, b), atom("R", a, a)])
        t = Structure([atom("E", a, b), atom("R", a, a)])
        assert canonical_key(s) == canonical_key(t)

    def test_symmetric_nulls_collapse(self):
        # Two exchangeable branches E(a,n0), E(a,n1): swapping the nulls
        # is an isomorphism, so any renaming yields the same key.
        left = Structure([atom("E", a, n0), atom("E", a, n1)])
        right = Structure([atom("E", a, Null(9)), atom("E", a, Null(3))])
        assert canonical_key(left) == canonical_key(right)

    def test_long_chain_no_size_limit(self):
        chain = [atom("E", a, Null(0))] + [
            atom("E", Null(i), Null(i + 1)) for i in range(12)
        ]
        renamed = [atom("E", a, Null(100))] + [
            atom("E", Null(100 + i), Null(100 + i + 1)) for i in range(12)
        ]
        assert canonical_key(Structure(chain)) == canonical_key(Structure(renamed))

    def test_agrees_with_isomorphism_check(self):
        # Equal keys exactly when the brute-force oracle finds a
        # bijection fixing the constants.
        candidates = [
            Structure([atom("E", a, n0), atom("E", n0, n1)]),
            Structure([atom("E", a, n1), atom("E", n1, n2)]),
            Structure([atom("E", a, n0), atom("E", n1, n0)]),
            Structure([atom("E", n0, a), atom("E", a, n1)]),
            Structure([atom("E", a, n0), atom("E", n0, n1), atom("E", n1, n2)]),
            Structure([atom("E", a, n2), atom("E", n2, n0), atom("E", n0, n1)]),
            Structure([atom("E", a, n0), atom("E", n0, n1), atom("E", n0, n2)]),
        ]
        for left in candidates:
            for right in candidates:
                same_key = canonical_key(left) == canonical_key(right)
                assert same_key == isomorphic_by_bijection(left, right)

    def test_fallback_still_sound(self, monkeypatch):
        # Past MAX_ORDERS the key renders the raw element names: a
        # renaming may change it, but equal keys still mean equal fact
        # sets up to renaming.
        path = Structure([atom("E", a, n0), atom("E", n0, n1), atom("E", a, n2)])
        renamed = Structure(
            [atom("E", a, Null(5)), atom("E", Null(5), Null(3)), atom("E", a, Null(4))]
        )
        fork = Structure([atom("E", a, n0), atom("E", n0, n1), atom("E", n0, n2)])
        assert canonical_key(path) == canonical_key(renamed)
        monkeypatch.setattr(canonical, "MAX_ORDERS", 0)
        assert canonical_key(path) != canonical_key(renamed)
        assert canonical_key(path) == canonical_key(Structure(path.facts()))
        assert canonical_key(path) != canonical_key(fork)
