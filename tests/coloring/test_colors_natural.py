"""Tests for colors, colorings, and natural colorings (Def. 6, 7, 14)."""

import pytest

import repro.core.finite_model as pipeline
from repro.core import build_finite_counter_model
from repro.errors import ColoringError
from repro.lf import Constant, Null, Structure, atom
from repro.vtdag import iterated_predecessor_table, iterated_predecessors
from repro.zoo import theorem2_corpus
from repro.coloring import (
    Color,
    apply_coloring,
    coloring_from_structure,
    cyclic_coloring,
    distinct_coloring,
    hue_assignment,
    is_natural,
    lightness_classes,
    natural_coloring,
    naturality_violations,
)

a, b = Constant("a"), Constant("b")
n = [Null(i) for i in range(30)]


def chain(length):
    return Structure(atom("E", n[i], n[i + 1]) for i in range(length))


def eight_element_neighbourhoods():
    """Elements e and f whose predecessor neighbourhoods have 8
    non-constants and 8 facts each, and are not isomorphic: seven
    parents with an edge between two of them, against seven parents
    with a loop on one."""
    e, f = Null(100), Null(200)
    ns = [Null(i) for i in range(1, 8)]
    ms = [Null(10 + i) for i in range(1, 8)]
    s = Structure(
        [atom("E", parent, e) for parent in ns] + [atom("E", ns[0], ns[1])]
        + [atom("E", parent, f) for parent in ms] + [atom("E", ms[0], ms[0])]
    )
    return e, f, s


class TestColor:
    def test_predicate_roundtrip(self):
        color = Color(3, 7)
        assert Color.parse(color.predicate) == color

    def test_parse_rejects_other_names(self):
        assert Color.parse("E") is None
        assert Color.parse("K_hx_l1") is None

    def test_ordering_and_hash(self):
        assert Color(0, 1) < Color(1, 0)
        assert len({Color(1, 1), Color(1, 1)}) == 1


def coloring_by_insertion(structure, assignment):
    """C̄ built one checked fact at a time: the reference for
    :func:`apply_coloring`'s single pass."""
    colored = structure.copy()
    for element in sorted(structure.domain(), key=str):
        colored.add_fact(atom(assignment[element].predicate, element))
    return colored


def assert_same_structure(built, reference):
    assert built.facts() == reference.facts()
    assert built.domain() == reference.domain()
    assert built.signature == reference.signature


class TestApplyColoring:
    def test_isolated_constant_joins_the_signature(self):
        c = Constant("c")
        s = Structure([atom("E", a, n[0])], domain=[c, n[1]])
        assignment = {e: Color(0, i) for i, e in enumerate(sorted(s.domain(), key=str))}
        colored = apply_coloring(s, assignment).structure
        assert c in colored.signature.constants
        assert c not in s.signature.constants
        assert_same_structure(colored, coloring_by_insertion(s, assignment))

    def test_pipeline_colorings_match_insertion(self, monkeypatch):
        real = pipeline.natural_coloring
        colorings = []

        def recording(structure, m):
            colored = real(structure, m)
            colorings.append((structure, colored))
            return colored

        monkeypatch.setattr(pipeline, "natural_coloring", recording)
        for _name, theory, database, query in theorem2_corpus():
            assert build_finite_counter_model(theory, database, query).model is not None
        assert colorings
        for structure, colored in colorings:
            assert_same_structure(
                colored.structure, coloring_by_insertion(structure, colored.assignment)
            )

    def test_each_element_one_color_atom(self):
        s = chain(3)
        colored = apply_coloring(s, {e: Color(0, 0) for e in s.domain()})
        assert not colored.verify()
        color_facts = [
            f for f in colored.structure.facts() if Color.parse(f.pred) is not None
        ]
        assert len(color_facts) == s.domain_size

    def test_base_restriction_recovers_original(self):
        s = chain(3)
        colored = apply_coloring(s, {e: Color(0, 0) for e in s.domain()})
        assert colored.base.same_facts(s)

    def test_missing_element_rejected(self):
        s = chain(3)
        with pytest.raises(ColoringError):
            apply_coloring(s, {n[0]: Color(0, 0)})

    def test_base_name_collision_rejected(self):
        s = Structure([atom("K_h0_l0", n[0])])
        with pytest.raises(ColoringError):
            apply_coloring(s, {n[0]: Color(1, 1)})

    def test_roundtrip_through_structure(self):
        s = chain(3)
        colored = apply_coloring(s, {e: Color(0, 0) for e in s.domain()})
        recovered = coloring_from_structure(colored.structure)
        assert recovered.assignment == colored.assignment
        assert recovered.base_relations == colored.base_relations

    def test_from_structure_rejects_uncolored(self):
        with pytest.raises(ColoringError):
            coloring_from_structure(chain(2))


class TestNaturalColoring:
    def test_chain_hue_count(self):
        """On a chain, P_m(e) spans m+2 consecutive elements (P_0 already
        contains the parent, Definition 13), so the greedy natural
        coloring uses exactly m+2 hues."""
        s = chain(20)
        hues = hue_assignment(s, 2)
        chain_hues = {hues[n[i]] for i in range(21)}
        assert len(chain_hues) == 4

    def test_hues_differ_along_ancestors(self):
        s = chain(20)
        colored = natural_coloring(s, 3)
        for i in range(17):
            window = {colored.assignment[n[i + k]].hue for k in range(4)}
            assert len(window) == 4

    def test_lightness_separates_root(self):
        s = chain(5)
        light = lightness_classes(s)
        assert light[n[0]] != light[n[2]]  # root has no parent
        assert light[n[2]] == light[n[3]]

    def test_natural_coloring_is_natural(self):
        assert is_natural(natural_coloring(chain(12), 2), 2)

    def test_constants_get_unique_colors(self):
        s = Structure([atom("E", a, n[0]), atom("E", b, n[1])])
        colored = natural_coloring(s, 1)
        assert colored.assignment[a] != colored.assignment[b]

    def test_violations_detected(self):
        s = chain(6)
        # all same color: ancestors share hues
        bad = apply_coloring(s, {e: Color(0, 0) for e in s.domain()})
        assert naturality_violations(bad, 1)

    def test_lightness_violation_detected(self):
        s = chain(4)
        # give root and a middle element the same color: their
        # P-neighbourhoods differ (no parent vs one parent)
        assignment = {e: Color(i, 0) for i, e in enumerate(sorted(s.domain(), key=str))}
        assignment[n[0]] = Color(99, 5)
        assignment[n[2]] = Color(98, 5)  # same lightness 5, different hue
        bad = apply_coloring(s, assignment)
        assert any("isomorphic" in v for v in naturality_violations(bad, 1))

    def test_lightness_exact_past_seven_elements(self):
        e, f, s = eight_element_neighbourhoods()
        light = lightness_classes(s)
        assert light[e] != light[f]
        assert is_natural(natural_coloring(s, 2), 2)

    def test_large_lightness_violation_detected(self):
        e, f, s = eight_element_neighbourhoods()
        assignment = dict(natural_coloring(s, 2).assignment)
        assignment[f] = Color(99, assignment[e].lightness)
        bad = apply_coloring(s, assignment)
        assert any("not isomorphic" in v for v in naturality_violations(bad, 2))

    def test_tree_coloring(self):
        # binary tree of depth 3
        facts = []
        counter = [1]
        def grow(parent, depth):
            if depth == 0:
                return
            for pred in ("F", "G"):
                child = n[counter[0]]; counter[0] += 1
                facts.append(atom(pred, parent, child))
                grow(child, depth - 1)
        grow(n[0], 3)
        tree = Structure(facts)
        colored = natural_coloring(tree, 2)
        assert is_natural(colored, 2)


def definition13_hues(structure, m):
    """The greedy hues of :func:`hue_assignment`, with each element's
    ``P_m(e)`` computed on its own by the Definition-13 entry point
    ``iterated_predecessors``: nulls in creation order, then the other
    non-constants by name, each taking the least hue unused among its
    colored conflicts; the constants follow with distinct hues."""
    conflicts = {e: set() for e in structure.domain()}
    for element in structure.domain():
        if isinstance(element, Constant):
            continue
        for ancestor in iterated_predecessors(structure, element, m):
            if ancestor != element:
                conflicts[element].add(ancestor)
                conflicts[ancestor].add(element)
    order = sorted(
        (e for e in structure.domain() if not isinstance(e, Constant)),
        key=lambda e: (0, e.ident, "") if isinstance(e, Null) else (1, 0, str(e)),
    )
    hues = {}
    for element in order:
        used = {hues[other] for other in conflicts[element] if other in hues}
        hues[element] = min(set(range(len(used) + 1)) - used)
    highest = max(hues.values(), default=-1)
    constants = sorted(structure.constant_elements(), key=str)
    for offset, constant in enumerate(constants, start=1):
        hues[constant] = highest + offset
    return hues


class TestHuesOnTheCorpus:
    def test_pipeline_hues_match_definition13(self, monkeypatch):
        """Every natural coloring the Theorem-2 pipeline builds over the
        corpus gives each element the hue of the per-element
        Definition-13 computation, and passes the naturality check."""
        real = pipeline.natural_coloring
        colorings = []

        def recording(structure, m):
            colored = real(structure, m)
            colorings.append((structure, m, colored))
            return colored

        monkeypatch.setattr(pipeline, "natural_coloring", recording)
        for _name, theory, database, query in theorem2_corpus():
            assert build_finite_counter_model(theory, database, query).model is not None
        assert len(colorings) == 14
        for structure, m, colored in colorings:
            hues = {e: color.hue for e, color in colored.assignment.items()}
            assert hues == definition13_hues(structure, m)
            assert hue_assignment(structure, m) == hues
            assert not naturality_violations(colored, m)

    def test_table_is_the_per_element_computation(self):
        tree = Structure(
            [atom("F", n[i], n[2 * i + 1]) for i in range(7)]
            + [atom("G", n[i], n[2 * i + 2]) for i in range(7)]
            + [atom("E", a, n[0]), atom("E", n[3], n[3])]
        )
        for k in range(5):
            table = iterated_predecessor_table(tree, k)
            assert table == {
                e: iterated_predecessors(tree, e, k) for e in tree.domain()
            }


class TestBoundedPalettes:
    def test_cyclic_coloring_palette(self):
        colored = cyclic_coloring(chain(10), 4)
        assert colored.palette_size == 4

    def test_cyclic_coloring_matches_example4(self):
        colored = cyclic_coloring(chain(10), 3)
        for i in range(11):
            assert colored.assignment[n[i]].hue == i % 3

    def test_cyclic_needs_positive_palette(self):
        with pytest.raises(ValueError):
            cyclic_coloring(chain(3), 0)

    def test_distinct_coloring_identity_palette(self):
        s = chain(5)
        colored = distinct_coloring(s)
        assert colored.palette_size == s.domain_size
