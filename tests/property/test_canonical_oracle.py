"""Canonical queries and type generators against a full-scan oracle.

:func:`repro.lf.canonical.canonical_query` reads a subset's facts from
an incidence index.  The reference below is the direct reading of the
definition instead: scan every fact of the structure and keep those
whose arguments all lie in the subset, but those whose arguments are
all constants other than the distinguished element.  The two must
build the same query for every subset, distinguished element and
relation restriction — including the edge cases of nullary facts,
facts among constants, and a constant as the distinguished element.
A restriction to relations Σ is typed as the structure ``C ↾ Σ``
(:meth:`~repro.lf.structures.Structure.restrict_signature`) and
compared with the reference's filter of the whole structure.

The type generators are checked one level up: the canonical forms of
:func:`type_queries` and :func:`boolean_type_queries` must be exactly
the canonical forms of the reference queries of every connected subset,
enumerated here by brute force over all small subsets.  The lightness
neighbourhoods ``C ↾ (P(e) ∪ C_con)``, also read from the index, must
equal the restriction of the whole structure.

:func:`repro.lf.canonical.canonical_key` is checked against the
brute-force isomorphism test of ``tests/oracles.py``: on structures
with at most six non-constant elements, their renamed copies and
tampered copies, two keys are equal exactly when some bijection fixing
the constants maps one fact set onto the other.

Finally, the ``≡_η`` partition and quotient of three Theorem-2 colored
skeletons are pinned as literals.

:meth:`ConjunctiveQuery.canonical` is checked against the renaming
fixpoint it replaced, which renames whole queries through
:meth:`~ConjunctiveQuery.substitute` and the validating constructor: on
hypothesis queries with free variables, repeated variables, constants,
equality atoms and no atoms at all, both must give the same atoms in
the same order, the same free tuple and the same hash.  Constant names
never coincide with a variable name either side can produce, since the
atom order of such ties was left to the hash seed before.
"""

from itertools import combinations, islice, permutations

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.chase import ChaseConfig, chase
from repro.coloring import conservativity_report, natural_coloring
from repro.core.normalize import prepare
from repro.lf import Atom, ConjunctiveQuery, Constant, Null, Structure, Variable
from repro.lf.canonical import (
    FREE_VARIABLE,
    canonical_key,
    canonical_query,
    isomorphic_over_constants,
)
from repro.ptypes import TypePartition, boolean_type_queries, quotient, type_queries
from repro.rewriting.bdd import bdd_profile
from repro.skeleton.skeleton import skeleton_of_chase
from repro.vtdag import predecessor_neighbourhood, predecessor_set
from repro.zoo import theorem2_corpus

from ..oracles import isomorphic_by_bijection
from .strategies import facts

RELAXED = settings(
    max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None
)
PREDICATES = ("E", "R", "S", "U", "V", "P", "Q")


def reference_canonical_query(structure, elements, distinguished, relation_names=None):
    """The canonical query by a scan of every fact of *structure* (of
    *relation_names* when given), without constant-only atoms."""
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
        if all(isinstance(arg, Constant) and arg != distinguished for arg in fact.args):
            continue
        atoms.append(Atom(fact.pred, tuple(table[arg] for arg in fact.args)))
    if isinstance(distinguished, Constant):
        atoms.append(Atom("=", (FREE_VARIABLE, distinguished)))
    if not any(FREE_VARIABLE in a.variable_set() for a in atoms):
        atoms.append(Atom("=", (FREE_VARIABLE, FREE_VARIABLE)))
    return ConjunctiveQuery(atoms, (FREE_VARIABLE,))


def reference_canonical(query):
    """The canonical form by repeated validated substitution."""
    mapping = {}
    for index, var in enumerate(query.free):
        mapping[var] = Variable(f"f{index}")
    counter = 0
    for item in query.atoms:
        for arg in item.args:
            if isinstance(arg, Variable) and arg not in mapping:
                mapping[arg] = Variable(f"v{counter}")
                counter += 1
    # Renaming may change the atom sort order, which may enable a
    # better (smaller) renaming; iterate to a fixpoint.
    current = query.substitute(mapping)
    for _ in range(3):
        mapping = {}
        for index, var in enumerate(current.free):
            mapping[var] = Variable(f"f{index}")
        counter = 0
        for item in current.atoms:
            for arg in item.args:
                if isinstance(arg, Variable) and arg not in mapping:
                    mapping[arg] = Variable(f"v{counter}")
                    counter += 1
        renamed = current.substitute(mapping)
        if renamed == current:
            break
        current = renamed
    return current


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


#: Variable names, the canonical ones included so that renamings must
#: be simultaneous; constant names are disjoint from all of them.
VARIABLE_NAMES = ("x", "y", "z", "u", "f0", "f1", "v0", "v1", "v2")
CONSTANT_NAMES = ("a", "b", "c")
ARITIES = {"E": 2, "R": 2, "T": 3, "P": 1, "N": 0}
PREDICATE_MIXES = (("E",), ("E",), ("E", "R"), ("E", "P"), ("R", "T"), ("E", "N"))


@st.composite
def oracle_queries(draw, constant_names=CONSTANT_NAMES):
    """Small CQs with 0-2 free variables, repeated variables, constants,
    equality atoms ``y = c`` and ``y = y``, and zero atoms.

    Most atoms share one or two predicates, so that a renaming often
    reorders them, which is what makes the fixpoint iterate."""
    variables = [Variable(name) for name in VARIABLE_NAMES]
    count = draw(st.sampled_from(range(1, 5)))
    names = draw(st.lists(st.sampled_from(variables), min_size=count, max_size=count, unique=True))
    constants = [Constant(name) for name in constant_names]
    terms = st.sampled_from(names + constants[: draw(st.integers(0, 3))])
    preds = st.sampled_from(draw(st.sampled_from(PREDICATE_MIXES)))
    atoms = []
    for _ in range(draw(st.sampled_from(range(7)))):
        kind = draw(st.sampled_from(("relation",) * 6 + ("constant", "self")))
        if kind == "relation":
            pred = draw(preds)
            atoms.append(Atom(pred, tuple(draw(terms) for _ in range(ARITIES[pred]))))
        else:
            var = draw(st.sampled_from(names))
            other = draw(st.sampled_from(constants)) if kind == "constant" else var
            atoms.append(Atom("=", (var, other)))
    occurring = sorted({arg for item in atoms for arg in item.args if isinstance(arg, Variable)})
    free = draw(st.lists(st.sampled_from(occurring), max_size=2, unique=True)) if occurring else []
    return ConjunctiveQuery(atoms, free)


@st.composite
def keyed_pairs(draw):
    """A structure with at most six nulls and two constants, and a
    second one: a copy with its nulls renamed, such a copy with one
    argument of one fact replaced, or a fresh draw."""
    elements = st.sampled_from(
        [Constant("a"), Constant("b")] + [Null(i) for i in range(6)]
    )

    def structure():
        pool = []
        for _ in range(draw(st.integers(0, 8))):
            pred = draw(st.sampled_from(("E", "E", "R", "U")))
            arity = 1 if pred == "U" else 2
            pool.append(Atom(pred, tuple(draw(elements) for _ in range(arity))))
        isolated = draw(st.lists(elements, max_size=2))
        return Structure(pool, domain=isolated)

    left = structure()
    kind = draw(st.sampled_from(("renamed", "tampered", "fresh")))
    if kind == "fresh":
        return left, structure()
    nulls = sorted(left.nonconstant_elements(), key=str)
    fresh = draw(st.permutations([Null(10 + i) for i in range(len(nulls))]))
    mapping = dict(zip(nulls, fresh))
    copied = [fact.substitute(mapping) for fact in sorted(left.facts(), key=str)]
    if kind == "tampered" and copied:
        where = draw(st.integers(0, len(copied) - 1))
        args = list(copied[where].args)
        args[draw(st.integers(0, len(args) - 1))] = draw(
            st.sampled_from(sorted(set(mapping.values()) | {Constant("a")}, key=str))
        )
        copied[where] = Atom(copied[where].pred, tuple(args))
    domain = [mapping.get(element, element) for element in left.domain()]
    return left, Structure(copied, domain=domain)


@st.composite
def relation_restrictions(draw):
    if draw(st.booleans()):
        return None
    return frozenset(draw(st.sets(st.sampled_from(PREDICATES))))


def typed(structure, names):
    """The structure whose types are those over *names*: ``C ↾ names``."""
    return structure if names is None else structure.restrict_signature(names)


class TestCanonicalQueryOracle:
    @RELAXED
    @given(structures_with_pins(), st.data(), relation_restrictions())
    def test_matches_full_scan(self, structure, data, names):
        domain = sorted(structure.domain(), key=str)
        distinguished = data.draw(st.sampled_from(domain))
        others = data.draw(st.sets(st.sampled_from(domain), max_size=4))
        chosen = {distinguished, *others}
        expected = reference_canonical_query(structure, chosen, distinguished, names)
        built = canonical_query(typed(structure, names), chosen, distinguished)
        assert built.atoms == expected.atoms
        assert built.free == expected.free
        assert hash(built) == hash(expected)

    def test_constant_only_facts_are_left_out(self):
        a, b, n0, n1 = Constant("a"), Constant("b"), Null(0), Null(1)
        structure = Structure(
            [Atom("P", ()), Atom("E", (a, b)), Atom("E", (a, n0)), Atom("E", (n0, n1))]
        )
        assert str(canonical_query(structure, {a, b, n0}, n0)) == "(y) <- E(a, y)"
        # a fact among constants stays when one of them is y
        assert (
            str(canonical_query(structure, {a, b}, a)) == "(y) <- y = a & E(y, b)"
        )
        assert (
            str(canonical_query(structure.restrict_signature({"P"}), {a, b, n0}, n0))
            == "(y) <- y = y"
        )


class TestCanonicalFormOracle:
    @settings(max_examples=400, deadline=None)
    @given(oracle_queries())
    def test_matches_substitution_fixpoint(self, query):
        expected = reference_canonical(query)
        built = query.canonical()
        assert built.atoms == expected.atoms
        assert built.free == expected.free
        assert hash(built) == hash(expected)
        # What the trusted constructor skipped, the public one confirms.
        validated = ConjunctiveQuery(built.atoms, built.free)
        assert validated.atoms == built.atoms
        assert hash(validated) == hash(built)

    @RELAXED
    @given(oracle_queries(constant_names=("x", "f0", "v0", "v1")))
    @example(
        ConjunctiveQuery([Atom("P", (Variable("u"),)), Atom("P", (Constant("v0"),))])
    )
    def test_sorted_as_the_constructor_sorts_ties(self, query):
        # Constants named like variables tie with them on every key but
        # the argument kinds; the trusted result must still be in the
        # order the public constructor gives.
        built = query.canonical()
        assert ConjunctiveQuery(built.atoms, built.free).atoms == built.atoms

    @RELAXED
    @given(oracle_queries())
    def test_boolean_closure_keeps_order(self, query):
        closed = query.boolean()
        assert closed.atoms == query.atoms
        assert closed.free == ()
        assert hash(closed) == hash(ConjunctiveQuery(query.atoms, ()))

    @pytest.mark.parametrize("length, step", [(5, 1), (6, 5)])
    def test_matches_on_namings_of_a_chain(self, length, step):
        # E(s, s) & R(s, c1) & R(c1, c2) & ...: depending on the names the
        # fixpoint takes one to four renamings, and at length 6 some
        # namings still change at the fourth, where both stop.  Every
        # naming at length 5, every fifth at length 6 (every third would
        # skip all 840 namings that reach that cap).
        for names in islice(permutations("stuwxyz"[: length + 1]), 0, None, step):
            v = [Variable(name) for name in names]
            atoms = [Atom("E", (v[0], v[0]))]
            atoms += [Atom("R", (v[i], v[i + 1])) for i in range(length)]
            for free in ((), (v[-1],)):
                query = ConjunctiveQuery(atoms, free)
                built, expected = query.canonical(), reference_canonical(query)
                assert built.atoms == expected.atoms
                assert built.free == expected.free
                assert hash(built) == hash(expected)


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
                structure, subset | constants, element, names
            ).canonical()
            for subset in reference_connected_subsets(structure, element, n, names)
        }
        built = type_queries(typed(structure, names), element, n)
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
            reference_canonical_query(structure, subset | constants, anchor, names)
            .boolean()
            .canonical()
            for anchor in structure.domain()
            for subset in reference_connected_subsets(structure, anchor, k, names)
        }
        built = boolean_type_queries(typed(structure, names), k)
        assert {query.canonical() for query in built} == expected
        assert len(built) == len(expected)


class TestNeighbourhoodOracle:
    @RELAXED
    @given(structures_with_pins())
    def test_matches_restriction(self, structure):
        constants = structure.constant_elements()
        for element in sorted(structure.domain(), key=str):
            expected = structure.restrict_elements(
                predecessor_set(structure, element) | constants
            )
            built = predecessor_neighbourhood(structure, element)
            assert built == expected


class TestCanonicalKeyOracle:
    @settings(max_examples=300, deadline=None)
    @given(keyed_pairs())
    def test_equal_exactly_when_isomorphic(self, pair):
        left, right = pair
        isomorphic = isomorphic_by_bijection(left, right)
        assert (canonical_key(left) == canonical_key(right)) == isomorphic
        assert isomorphic_over_constants(left, right) == isomorphic


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
    """``TypePartition(...).classes()`` and the quotient size: the class
    sets the full-scan construction computed, in the ``str`` order of
    their least members."""

    @pytest.mark.parametrize(
        "entry, depth, classes, size",
        [
            (
                "example1/triangle-query",
                8,
                [["_:0"], ["_:1"], ["_:2"], ["_:3"], ["_:4"], ["a"], ["b"]],
                7,
            ),
            (
                "example1/triangle-query",
                16,
                [
                    ["_:0"], ["_:1"], ["_:10", "_:5"], ["_:11", "_:6"], ["_:12", "_:7"],
                    ["_:2"], ["_:3"], ["_:4", "_:9"], ["_:8"], ["a"], ["b"],
                ],
                11,
            ),
            (
                "two-chains/merge-query",
                10,
                [
                    ["_:0"], ["_:1"], ["_:10", "_:11"], ["_:12", "_:13"],
                    ["_:14", "_:15", "_:6", "_:7"], ["_:2"], ["_:3"], ["_:4"], ["_:5"],
                    ["_:8", "_:9"], ["a"], ["b"], ["c"], ["d"],
                ],
                14,
            ),
        ],
    )
    def test_classes_and_quotient(self, entry, depth, classes, size):
        colored, kappa, interior = colored_skeleton(entry, depth)
        partition = TypePartition(colored.structure, kappa, elements=interior)
        assert [sorted(map(str, group)) for group in partition.classes()] == classes
        quotiented = quotient(colored.structure, kappa, partition=partition)
        assert quotiented.size == size
        report = conservativity_report(colored, kappa, kappa, prebuilt=quotiented)
        assert report.conservative
