"""Rewriting battery: the worklist engine against Definition 2.

Definition 2 says what a rewriting is: ``D ⊨ Φ′`` iff
``Chase(D,T) ⊨ Φ``.  The chase is therefore the rewriting engine's
oracle.  Each saturated rewriting is compared with ``Chase^5(D,T)`` on
a drawn database:

* every chase answer over D's elements must be a rewriting answer
  (completeness; ``Chase^5`` is contained in the chase);
* when the chase saturates, the two answer sets must be equal;
* on drawn BDD theories four procedures go through that check
  (``PROCEDURES``): the engine, which prunes a subsumed query on
  arrival, and the whole closure of :func:`tests.oracles.exact_rewriting`,
  each with and without its factorisation step; on drawn general
  theories, whose unpruned closure can grow too large to enumerate,
  only the engine's two.  Without factorisation a rewriting may be
  incomplete (Example 7), so those runs are checked for rewriting ⊆
  chase only (soundness);
* drawn examples rarely need a factorisation, so fixed cases that do
  (``FACTORISATION_CASES``) go through the same check;
* eager pruning must not lose answers: the pruned run stays equivalent
  to the full closure of :func:`tests.oracles.exact_rewriting`,
  disjunct for disjunct after minimisation (``test_eager_matches_exact``
  on drawn cases, ``test_fixed_cases_match_exact`` on fixed ones);
* ``depth_bound`` is the certified constant ``k_Ψ``: the canonical
  database of every disjunct satisfies the query at its free tuple
  within ``depth_bound`` chase rounds;
* the output is invariant under the metamorphic transformations the
  semantics cannot see: atom reordering, variable renaming, and rule
  reordering.

Budgets are tiny and ``OnBudget.RETURN`` turns exhaustion into
``saturated=False``, which we ``assume`` away: the claims bind only
saturated runs (a truncated frontier is order-dependent by nature).
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.chase import ChaseConfig, chase
from repro.config import OnBudget
from repro.lf import (
    ConjunctiveQuery,
    Theory,
    UnionOfConjunctiveQueries,
    Variable,
    all_answers,
    parse_query,
    parse_structure,
    parse_theory,
)
from repro.rewriting import (
    RewriteConfig,
    clear_subsume_cache,
    cq_subsumes,
    freeze,
    rewrite,
    ucq_equivalent,
)
from repro.rewriting import rewriter as rewriter_module

from repro.zoo import example7_database, example7_theory

from ..oracles import exact_rewriting
from .strategies import bdd_theories, open_conjunctive_queries, structures, theories

#: Small budgets; RETURN makes exhaustion visible as saturated=False.
BUDGET = dict(max_steps=800, max_queries=150, on_budget=OnBudget.RETURN)

#: The chase side: ``Chase^5(D,T)``.
CHASE = ChaseConfig(max_depth=5, max_facts=2_000)

RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: The rewriting procedures checked against the chase on drawn
#: theories, named by the two steps that set them apart: ``eager``
#: selects the engine, which prunes a subsumed query on arrival, over
#: the unpruned closure of :func:`tests.oracles.exact_rewriting`, and
#: ``factorize`` says whether the factorisation step runs.
PROCEDURES = [
    pytest.param(dict(factorize=f, eager=e), id=f"factorize={f}-eager={e}")
    for f in (True, False)
    for e in (True, False)
]
ENGINE_PROCEDURES = [p for p in PROCEDURES if p.values[0]["eager"]]

#: Small databases keep each chase cheap.
DATABASES = structures(min_facts=1, max_facts=5)

#: Queries whose answers on the database come only through a
#: factorisation: Example 7's E-confluence body (the chase's answer
#: (b,b) needs E(x,y), E(u,y) merged before the growth rule resolves),
#: a three-edge path under the growth rule alone (each resolution step
#: leaves two edges into one node, which a factorisation must merge
#: before the next step), and the eager-pruning regression of
#: tests/rewriting/test_rewriter.py (TestPrunedResurrection), where the
#: needed factorisation belongs to a disjunct that eager subsumption
#: prunes.
FACTORISATION_CASES = [
    pytest.param(
        example7_theory(),
        parse_query("E(x,y), E(u,y)", free=["x", "u"]),
        example7_database(),
        id="example7-confluence",
    ),
    pytest.param(
        example7_theory(),
        parse_query("R(x,u)", free=["x", "u"]),
        example7_database(),
        id="example7-R",
    ),
    pytest.param(
        parse_theory("E(x,y) -> exists z. E(y,z)"),
        parse_query("E(x,y), E(y,z), E(z,w)"),
        parse_structure("E(a,b)"),
        id="growth-path3",
    ),
    pytest.param(
        parse_theory(
            """
            E(x, y) -> exists z. R(x, z)
            R(x, y) -> E(x, x)
            """
        ),
        parse_query("E(x, x), R(x, y)", free=[]),
        parse_structure("E(a,b)"),
        id="pruned-resurrection",
    ),
]

#: Entry 5 of the end-to-end benchmark's rewrite pool
#: (``e2ebench/rewrite_pool.json``, text copied).  Its ``depth_bound``
#: is 3 only because the factorisations of a pruned disjunct are
#: offered at the pruned disjunct's depth; without that it is 4.
POOL_5 = (
    parse_theory(
        """
        P1(x,y) -> P0(y,x)
        P0(x,y) -> exists z. P1(y,z)
        P0(x,y) -> P0(y,x)
        P1(x,y) -> exists z. P2(y,z)
        P0(x,y) -> P2(x,y)
        P2(x,y) -> P2(x,y)
        P2(x,y) -> exists z. P2(y,z)
        P1(x,y) -> P2(x,y)
        """
    ),
    parse_query("P1(x0,x1), P0(x1,x2), P0(x2,x3)"),
)

#: Fixed engine-versus-oracle cases: the factorisation cases without
#: their databases, pool entry 5, and pool entries 35 and 129, where a
#: rewriter that does not resurrect pruned factorisations loses a
#: disjunct of the exact closure (texts copied from the same pool).
ORACLE_CASES = [
    pytest.param(*case.values[:2], id=case.id) for case in FACTORISATION_CASES
] + [
    pytest.param(*POOL_5, id="pool-5"),
    pytest.param(
        parse_theory(
            """
            P1(x,y) -> P1(y,x)
            P0(x,y) -> exists z. P1(y,z)
            P1(x,y) -> P1(x,y)
            P0(x,y) -> P0(y,x)
            P0(x,y) -> P0(x,y)
            P0(x,y) -> P0(y,x)
            """
        ),
        parse_query("P1(x0,x1), P1(x1,x2)"),
        id="pool-35",
    ),
    pytest.param(
        parse_theory(
            """
            P2(x,y) -> P2(y,x)
            P2(x,y) -> exists z. P2(y,z)
            P0(x,y) -> P1(y,x)
            P2(x,y) -> exists z. P1(y,z)
            P1(x,y) -> exists z. P2(y,z)
            """
        ),
        parse_query("P2(x0,x1), P2(x1,x2)"),
        id="pool-129",
    ),
]


def saturated_rewriting(query, theory):
    clear_subsume_cache()
    result = rewrite(query, theory, config=RewriteConfig(**BUDGET))
    assume(result.saturated)
    return result


def procedure_rewriting(procedure, query, theory):
    """The saturated rewriting of *query* by the *procedure* of
    ``PROCEDURES``."""
    if not procedure["eager"]:
        ucq = exact_rewriting(
            query, theory, BUDGET["max_queries"],
            factorize=procedure["factorize"],
        )
        assume(ucq is not None)
        return ucq
    if procedure["factorize"]:
        return saturated_rewriting(query, theory).ucq
    # the worklist with its factorisation step taken out
    with mock.patch.object(
        rewriter_module, "_factorizations", lambda *args, **kwargs: ()
    ):
        return saturated_rewriting(query, theory).ucq


def check_against_chase(ucq, query, theory, database, complete=True):
    """Definition 2 on one database, as far as ``Chase^5`` can tell;
    with *complete* false, only rewriting ⊆ chase."""
    chased = chase(database, theory, CHASE)
    elements = database.domain()
    chase_answers = {
        row
        for row in all_answers(chased.structure, query)
        if all(value in elements for value in row)
    }
    rewriting_answers = all_answers(database, ucq)
    if complete:
        assert chase_answers <= rewriting_answers, (
            f"the chase answers {query} with rows the rewriting "
            f"{ucq} misses"
        )
    if chased.saturated:
        assert rewriting_answers <= chase_answers
        if complete:
            assert rewriting_answers == chase_answers


def check_against_exact(result, exact):
    """The pruned rewriting against the whole closure, minimised."""
    assert ucq_equivalent(result.ucq, exact)
    assert len(result.ucq) == len(exact)


def check_depth_bound(result, query, theory):
    """``depth_bound`` certifies ``k_Ψ``: the canonical database of each
    disjunct satisfies *query* at its frozen free tuple within
    ``depth_bound`` chase rounds."""
    config = ChaseConfig(max_depth=result.depth_bound, max_facts=2_000)
    for disjunct in result.ucq:
        database, table = freeze(disjunct)
        chased = chase(database, theory, config)
        row = tuple(table[var] for var in disjunct.free)
        assert row in all_answers(chased.structure, query), (
            f"{disjunct} does not reach {query} within "
            f"{result.depth_bound} chase rounds"
        )


class TestEngineParity:
    @pytest.mark.parametrize("procedure", PROCEDURES)
    @RELAXED
    @given(
        theory=bdd_theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_bdd_theories_agree(self, procedure, theory, query, database):
        ucq = procedure_rewriting(procedure, query, theory)
        check_against_chase(
            ucq, query, theory, database, complete=procedure["factorize"]
        )

    @pytest.mark.parametrize("procedure", ENGINE_PROCEDURES)
    @RELAXED
    @given(
        theory=theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_general_theories_agree(self, procedure, theory, query, database):
        # safe_rules() theories are not necessarily BDD; Definition 2
        # must still hold whenever the rewriting saturates in budget
        ucq = procedure_rewriting(procedure, query, theory)
        check_against_chase(
            ucq, query, theory, database, complete=procedure["factorize"]
        )

    @pytest.mark.parametrize("theory, query, database", FACTORISATION_CASES)
    def test_factorisation_cases_agree(self, theory, query, database):
        clear_subsume_cache()
        result = rewrite(query, theory, config=RewriteConfig(**BUDGET))
        assert result.saturated
        check_against_chase(result.ucq, query, theory, database)

    @RELAXED
    @given(
        theory=bdd_theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_exact_mode_closures_are_canonical(self, theory, query, database):
        # minimisation leaves one disjunct per equivalence class, none
        # contained in another
        result = saturated_rewriting(query, theory)
        check_against_chase(result.ucq, query, theory, database)
        disjuncts = list(result.ucq)
        for i, general in enumerate(disjuncts):
            for j, specific in enumerate(disjuncts):
                if i != j:
                    assert not cq_subsumes(general, specific)

    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3))
    def test_eager_matches_exact(self, theory, query):
        # eager pruning must not lose answers: resurrecting pruned
        # queries that return as a kept query's factorisation keeps
        # the pruned run equivalent to the full closure
        result = saturated_rewriting(query, theory)
        exact = exact_rewriting(query, theory, BUDGET["max_queries"])
        assume(exact is not None)
        check_against_exact(result, exact)

    @pytest.mark.parametrize("theory, query", ORACLE_CASES)
    def test_fixed_cases_match_exact(self, theory, query):
        clear_subsume_cache()
        result = rewrite(query, theory)
        exact = exact_rewriting(query, theory)
        assert result.saturated and exact is not None
        check_against_exact(result, exact)


class TestDepthBound:
    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3))
    def test_drawn_depth_bounds_are_certified(self, theory, query):
        check_depth_bound(saturated_rewriting(query, theory), query, theory)

    @pytest.mark.parametrize("theory, query", ORACLE_CASES)
    def test_fixed_depth_bounds_are_certified(self, theory, query):
        clear_subsume_cache()
        result = rewrite(query, theory)
        assert result.saturated
        check_depth_bound(result, query, theory)

    def test_pruned_factorisations_keep_the_lower_depth(self):
        # a factorisation of a pruned disjunct is offered at the pruned
        # disjunct's depth; when a kept disjunct's factorisation later
        # resurrects it, depth_bound reads that depth (3), not the kept
        # disjunct's (4)
        theory, query = POOL_5
        clear_subsume_cache()
        result = rewrite(query, theory)
        assert result.saturated
        assert result.depth_bound == 3


def _rewrite_default(query, theory):
    clear_subsume_cache()
    return rewrite(query, theory, config=RewriteConfig(**BUDGET))


class TestMetamorphic:
    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3),
           data=st.data())
    def test_atom_order_is_irrelevant(self, theory, query, data):
        shuffled_atoms = data.draw(st.permutations(list(query.atoms)))
        shuffled = ConjunctiveQuery(shuffled_atoms, query.free)
        base = _rewrite_default(query, theory)
        other = _rewrite_default(shuffled, theory)
        assume(base.saturated and other.saturated)
        assert ucq_equivalent(base.ucq, other.ucq)

    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3))
    def test_variable_renaming_is_irrelevant(self, theory, query):
        pool = sorted({v for a in query.atoms for v in a.variable_set()})
        renaming = {v: Variable(f"fresh_{i}") for i, v in enumerate(pool)}
        renamed = query.substitute(renaming)
        base = _rewrite_default(query, theory)
        other = _rewrite_default(renamed, theory)
        assume(base.saturated and other.saturated)
        # answers of the renamed query come back over the renamed free
        # tuple; rename them back before comparing
        undo = {renaming[v]: v for v in query.free}
        restored = UnionOfConjunctiveQueries(
            d.substitute(undo) for d in other.ucq
        )
        assert ucq_equivalent(base.ucq, restored)

    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3),
           data=st.data())
    def test_rule_order_is_irrelevant(self, theory, query, data):
        shuffled_rules = data.draw(st.permutations(list(theory.rules)))
        shuffled = Theory(shuffled_rules)
        base = _rewrite_default(query, theory)
        other = _rewrite_default(query, shuffled)
        assume(base.saturated and other.saturated)
        assert ucq_equivalent(base.ucq, other.ucq)
