"""Property-based parity and invariance tests for the planned matcher.

Two contracts are enforced here:

* the compiled-plan matcher produces exactly the binding set of the
  nested-loop oracle (``tests/oracles.py``), on arbitrary
  query/structure pairs (with and without pre-bindings);
* UCQ answer sets are invariant under the symmetries that the
  free-variable capture bugs used to break — reordering disjuncts and
  injectively renaming the variables of individual disjuncts.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lf import UnionOfConjunctiveQueries, Variable, all_answers, homomorphisms

from ..oracles import nested_loop_bindings
from .strategies import elements, open_conjunctive_queries, structures

RELAXED = settings(
    max_examples=80, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


def binding_set(generator):
    return {frozenset(binding.items()) for binding in generator}


class TestPlannedLegacyParity:
    """The planned matcher against the nested-loop oracle, which scans
    every fact for every atom: the pre-plan matching semantics."""

    @RELAXED
    @given(structures(), open_conjunctive_queries())
    def test_same_binding_set(self, structure, query):
        planned = binding_set(homomorphisms(query.atoms, structure))
        oracle = binding_set(nested_loop_bindings(query.atoms, structure))
        assert planned == oracle

    @RELAXED
    @given(structures(min_facts=1), open_conjunctive_queries(), elements)
    def test_same_binding_set_with_prebinding(self, structure, query, element):
        pool = sorted(query.variables())
        if not pool:
            return
        prebinding = {pool[0]: element}
        planned = binding_set(homomorphisms(query.atoms, structure, prebinding))
        oracle = binding_set(
            nested_loop_bindings(query.atoms, structure, prebinding)
        )
        assert planned == oracle

    @RELAXED
    @given(structures(), open_conjunctive_queries())
    def test_planner_toggle_preserves_answers(self, structure, query):
        # the answer relation is the oracle's bindings projected on
        # the free variables
        oracle = {
            tuple(binding[v] for v in query.free)
            for binding in nested_loop_bindings(query.atoms, structure)
        }
        assert all_answers(structure, query) == oracle


def rename_injectively(query, suffix):
    """Rename every variable of *query* with a fresh suffix (injective)."""
    mapping = {v: Variable(f"{v.name}_{suffix}") for v in query.variables()}
    return query.substitute(mapping)


class TestUCQInvariance:
    @RELAXED
    @given(
        structures(),
        st.lists(open_conjunctive_queries(max_atoms=3), min_size=1, max_size=3),
        st.randoms(use_true_random=False),
    )
    def test_answers_invariant_under_disjunct_order(self, structure, pool, rng):
        arity = len(pool[0].free)
        disjuncts = [q for q in pool if len(q.free) == arity]
        union = UnionOfConjunctiveQueries(disjuncts)
        shuffled = list(disjuncts)
        rng.shuffle(shuffled)
        reordered = UnionOfConjunctiveQueries(shuffled)
        assert all_answers(structure, union) == all_answers(structure, reordered)

    @RELAXED
    @given(
        structures(),
        st.lists(open_conjunctive_queries(max_atoms=3), min_size=1, max_size=3),
    )
    def test_answers_invariant_under_disjunct_renaming(self, structure, pool):
        # Renaming the variables of each disjunct apart — including its
        # free tuple — denotes the same UCQ; the constructor re-aligns
        # frees onto the lead.  This is exactly the symmetry the
        # capture bug broke.
        arity = len(pool[0].free)
        disjuncts = [q for q in pool if len(q.free) == arity]
        union = UnionOfConjunctiveQueries(disjuncts)
        renamed = UnionOfConjunctiveQueries(
            [rename_injectively(q, i) for i, q in enumerate(disjuncts)]
        )
        assert all_answers(structure, union) == all_answers(structure, renamed)
