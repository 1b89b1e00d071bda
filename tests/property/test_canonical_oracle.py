"""Canonical queries and type generators against a full-scan oracle.

:func:`repro.lf.canonical.canonical_query` reads a subset's facts from
an incidence index.  The reference below is the direct reading of the
definition instead: scan every fact of the structure and keep those
whose arguments all lie in the subset.  The two must build the same
query on both store backends, for every subset, distinguished element,
relation restriction and ``skip_constant_only`` value — including the
edge cases of nullary facts, facts among constants, and a constant as
the distinguished element.

The type generators are checked one level up: the canonical forms of
:func:`type_queries` and :func:`boolean_type_queries` must be exactly
the canonical forms of the reference queries of every connected subset,
enumerated here by brute force over all small subsets.  The lightness
neighbourhoods ``C ↾ (P(e) ∪ C_con)``, also read from the index, must
equal the restriction of the whole structure.

Finally, the ``≡_η`` partition and quotient of three Theorem-2 colored
skeletons are pinned as literals.
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chase import ChaseConfig, chase
from repro.coloring import conservativity_report, natural_coloring
from repro.core.normalize import prepare
from repro.lf import Atom, ConjunctiveQuery, Constant, Null, Structure, Variable
from repro.lf.canonical import FREE_VARIABLE, canonical_query
from repro.ptypes import TypePartition, boolean_type_queries, quotient, type_queries
from repro.rewriting.bdd import bdd_profile
from repro.skeleton.skeleton import skeleton_of_chase
from repro.store import ColumnarStructure
from repro.vtdag import predecessor_neighbourhood, predecessor_set
from repro.zoo import theorem2_corpus

from .strategies import facts

RELAXED = settings(
    max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
PREDICATES = ("E", "R", "S", "U", "V", "P", "Q")


def reference_canonical_query(
    structure, elements, distinguished, relation_names=None, skip_constant_only=False
):
    """The canonical query by a scan of every fact of *structure*."""
    chosen = set(elements)
    allowed = set(relation_names) if relation_names is not None else None
    table, counter = {}, 0
    for element in sorted(chosen, key=str):
        if element == distinguished:
            table[element] = FREE_VARIABLE
        elif isinstance(element, Constant):
            table[element] = element
        else:
            table[element] = Variable(f"x{counter}")
            counter += 1
    atoms = []
    for fact in structure.facts():
        if allowed is not None and fact.pred not in allowed:
            continue
        if not all(arg in chosen for arg in fact.args):
            continue
        if skip_constant_only and all(
            isinstance(arg, Constant) and arg != distinguished for arg in fact.args
        ):
            continue
        atoms.append(Atom(fact.pred, tuple(table[arg] for arg in fact.args)))
    if isinstance(distinguished, Constant):
        atoms.append(Atom("=", (FREE_VARIABLE, distinguished)))
    if not any(FREE_VARIABLE in a.variable_set() for a in atoms):
        atoms.append(Atom("=", (FREE_VARIABLE, FREE_VARIABLE)))
    return ConjunctiveQuery(atoms, (FREE_VARIABLE,))


def reference_connected_subsets(structure, anchor, max_size, relation_names):
    """Every subset of the non-constant elements plus *anchor* that
    contains *anchor*, has at most *max_size* members and is connected
    through shared facts — by trying them all."""
    edges = [
        set(fact.args)
        for fact in structure.facts()
        if relation_names is None or fact.pred in relation_names
    ]
    pool = sorted(
        (e for e in structure.domain() if e != anchor and not isinstance(e, Constant)),
        key=str,
    )
    for size in range(max_size):
        for others in combinations(pool, size):
            subset = {anchor, *others}
            reached, frontier = {anchor}, [anchor]
            while frontier:
                member = frontier.pop()
                for args in edges:
                    if member in args:
                        fresh = (args & subset) - reached
                        reached |= fresh
                        frontier.extend(fresh)
            if reached == subset:
                yield frozenset(subset)


@st.composite
def structures_with_pins(draw):
    """Small structures with constant-only facts and nullary facts."""
    pool = draw(st.lists(facts(), min_size=1, max_size=10))
    pool += [Atom(pred, ()) for pred in draw(st.sets(st.sampled_from("PQ")))]
    constants = [Constant(name) for name in ("a", "b", "c")]
    pool += [
        Atom("S", pair)
        for pair in draw(st.sets(st.tuples(*[st.sampled_from(constants)] * 2)))
    ]
    return Structure(pool)


@st.composite
def relation_restrictions(draw):
    if draw(st.booleans()):
        return None
    return frozenset(draw(st.sets(st.sampled_from(PREDICATES))))


def both_backends(structure):
    return (structure, ColumnarStructure.from_structure(structure))


class TestCanonicalQueryOracle:
    @RELAXED
    @given(structures_with_pins(), st.data(), relation_restrictions(), st.booleans())
    def test_matches_full_scan(self, structure, data, names, skip):
        domain = sorted(structure.domain(), key=str)
        distinguished = data.draw(st.sampled_from(domain))
        others = data.draw(st.sets(st.sampled_from(domain), max_size=4))
        chosen = {distinguished, *others}
        expected = reference_canonical_query(
            structure, chosen, distinguished, names, skip
        )
        for backend in both_backends(structure):
            built = canonical_query(backend, chosen, distinguished, names, skip)
            assert built == expected
            assert str(built) == str(expected)

    def test_nullary_and_constant_facts_are_kept(self):
        a, b, n0, n1 = Constant("a"), Constant("b"), Null(0), Null(1)
        structure = Structure(
            [Atom("P", ()), Atom("E", (a, b)), Atom("E", (a, n0)), Atom("E", (n0, n1))]
        )
        for backend in both_backends(structure):
            assert (
                str(canonical_query(backend, {a, b, n0}, n0))
                == "(y) <- E(a, b) & E(a, y) & P()"
            )
            assert (
                str(canonical_query(backend, {a, b, n0}, n0, skip_constant_only=True))
                == "(y) <- E(a, y)"
            )
            assert (
                str(canonical_query(backend, {a, b}, a, skip_constant_only=True))
                == "(y) <- y = a & E(y, b)"
            )
            assert (
                str(canonical_query(backend, {a, b, n0}, n0, relation_names={"P"}))
                == "(y) <- y = y & P()"
            )


class TestGeneratorOracle:
    @RELAXED
    @given(
        structures_with_pins(),
        st.data(),
        relation_restrictions(),
        st.integers(min_value=1, max_value=3),
    )
    def test_type_query_markers(self, structure, data, names, n):
        element = data.draw(st.sampled_from(sorted(structure.domain(), key=str)))
        constants = structure.constant_elements()
        expected = {
            reference_canonical_query(
                structure, subset | constants, element, names, True
            ).canonical()
            for subset in reference_connected_subsets(structure, element, n, names)
        }
        for backend in both_backends(structure):
            built = type_queries(backend, element, n, names)
            assert {query.canonical() for query in built} == expected
            assert len(built) == len(expected)

    @RELAXED
    @given(
        structures_with_pins(),
        relation_restrictions(),
        st.integers(min_value=1, max_value=3),
    )
    def test_boolean_type_query_markers(self, structure, names, k):
        constants = structure.constant_elements()
        expected = {
            reference_canonical_query(structure, subset | constants, anchor, names, True)
            .boolean()
            .canonical()
            for anchor in structure.domain()
            for subset in reference_connected_subsets(structure, anchor, k, names)
        }
        for backend in both_backends(structure):
            built = boolean_type_queries(backend, k, names)
            assert {query.canonical() for query in built} == expected
            assert len(built) == len(expected)


class TestNeighbourhoodOracle:
    @RELAXED
    @given(structures_with_pins())
    def test_matches_restriction(self, structure):
        for backend in both_backends(structure):
            constants = backend.constant_elements()
            for element in sorted(backend.domain(), key=str):
                expected = backend.restrict_elements(
                    predecessor_set(backend, element) | constants
                )
                built = predecessor_neighbourhood(backend, element)
                assert built == expected


def colored_skeleton(entry, depth):
    """The pipeline's colored skeleton of a Theorem-2 corpus entry at
    *depth*, with its κ and its interior for η = κ (margin κ: every
    entry pinned below has a level gap of 1)."""
    theory, database, query = {name: rest for name, *rest in theorem2_corpus()}[entry]
    prepared = prepare(theory, query)
    kappa = max(
        bdd_profile(prepared.theory_for_kappa).kappa,
        prepared.theory.max_body_width(),
        2,
    )
    chased = chase(
        database, prepared.theory, ChaseConfig(max_depth=depth, max_elements=None)
    )
    skeleton = skeleton_of_chase(chased, database, prepared.theory).structure
    interior = {
        e for e in skeleton.domain() if not isinstance(e, Null) or e.level <= depth - kappa
    }
    return natural_coloring(skeleton, kappa), kappa, interior


class TestPinnedPartitions:
    """``TypePartition(...).classes()`` and the quotient size, as the
    full-scan construction computed them, on both store backends."""

    @pytest.mark.parametrize(
        "entry, depth, classes, size",
        [
            (
                "example1/triangle-query",
                8,
                [["a"], ["b"], ["_:0"], ["_:1"], ["_:2"], ["_:4"], ["_:3"]],
                7,
            ),
            (
                "example1/triangle-query",
                16,
                [
                    ["a"], ["b"], ["_:0"], ["_:1"], ["_:2"], ["_:10", "_:5"],
                    ["_:4", "_:9"], ["_:3"], ["_:8"], ["_:11", "_:6"], ["_:12", "_:7"],
                ],
                11,
            ),
            (
                "two-chains/merge-query",
                10,
                [
                    ["a"], ["b"], ["c"], ["d"], ["_:0"], ["_:2"], ["_:1"], ["_:3"],
                    ["_:8", "_:9"], ["_:14", "_:15", "_:6", "_:7"], ["_:10", "_:11"],
                    ["_:12", "_:13"], ["_:4"], ["_:5"],
                ],
                14,
            ),
        ],
    )
    def test_classes_and_quotient(self, entry, depth, classes, size):
        colored, kappa, interior = colored_skeleton(entry, depth)
        for backend in both_backends(colored.structure):
            partition = TypePartition(backend, kappa, elements=interior)
            assert [sorted(map(str, group)) for group in partition.classes()] == classes
            quotiented = quotient(backend, kappa, partition=partition)
            assert quotiented.size == size
        report = conservativity_report(colored, kappa, kappa, prebuilt=quotiented)
        assert report.conservative
