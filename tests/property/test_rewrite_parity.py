"""Rewriting battery: the worklist engine against Definition 2.

Definition 2 says what a rewriting is: ``D ⊨ Φ′`` iff
``Chase(D,T) ⊨ Φ``.  The chase is therefore the rewriting engine's
oracle.  Each saturated rewriting is compared with ``Chase^5(D,T)`` on
a drawn database, with eager subsumption on and off:

* every chase answer over D's elements must be a rewriting answer
  (completeness; ``Chase^5`` is contained in the chase);
* when the chase saturates, the two answer sets must be equal;
* without factorisation the rewriting may be incomplete, so
  ``factorize=False`` runs check only rewriting ⊆ chase (soundness);
* drawn examples rarely need a factorisation, so fixed cases that do
  (``FACTORISATION_CASES``) go through the same check;
* eager pruning must not lose answers: the pruned run stays equivalent
  to the full closure, disjunct for disjunct after minimisation
  (``test_eager_matches_exact``);
* the output is invariant under the metamorphic transformations the
  semantics cannot see: atom reordering, variable renaming, and rule
  reordering.

Budgets are tiny and ``OnBudget.RETURN`` turns exhaustion into
``saturated=False``, which we ``assume`` away: the claims bind only
saturated runs (a truncated frontier is order-dependent by nature).
"""

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
    rewrite,
    ucq_equivalent,
    ucq_subsumes,
)

from repro.zoo import example7_database, example7_theory

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

#: Every switch permutation checked against the chase.
CONFIGS = [
    pytest.param(dict(factorize=f, eager_subsumption=e),
                 id=f"factorize={f}-eager={e}")
    for f in (True, False)
    for e in (True, False)
]

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


def saturated_rewriting(query, theory, **overrides):
    clear_subsume_cache()
    result = rewrite(query, theory, config=RewriteConfig(**BUDGET, **overrides))
    assume(result.saturated)
    return result


def check_against_chase(result, query, theory, database, factorize=True):
    """Definition 2 on one database, as far as ``Chase^5`` can tell."""
    chased = chase(database, theory, CHASE)
    elements = database.domain()
    chase_answers = {
        row
        for row in all_answers(chased.structure, query)
        if all(value in elements for value in row)
    }
    rewriting_answers = all_answers(database, result.ucq)
    if factorize:
        assert chase_answers <= rewriting_answers, (
            f"the chase answers {query} with rows the rewriting "
            f"{result.ucq} misses"
        )
    if chased.saturated:
        assert rewriting_answers <= chase_answers
        if factorize:
            assert rewriting_answers == chase_answers


class TestEngineParity:
    @pytest.mark.parametrize("switches", CONFIGS)
    @RELAXED
    @given(
        theory=bdd_theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_bdd_theories_agree(self, switches, theory, query, database):
        result = saturated_rewriting(query, theory, **switches)
        check_against_chase(
            result, query, theory, database, factorize=switches["factorize"]
        )

    @pytest.mark.parametrize("switches", CONFIGS)
    @RELAXED
    @given(
        theory=theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_general_theories_agree(self, switches, theory, query, database):
        # safe_rules() theories are not necessarily BDD; Definition 2
        # must still hold whenever the rewriting saturates in budget
        result = saturated_rewriting(query, theory, **switches)
        check_against_chase(
            result, query, theory, database, factorize=switches["factorize"]
        )

    @pytest.mark.parametrize("switches", CONFIGS)
    @pytest.mark.parametrize("theory, query, database", FACTORISATION_CASES)
    def test_factorisation_cases_agree(self, switches, theory, query, database):
        clear_subsume_cache()
        result = rewrite(query, theory, config=RewriteConfig(**BUDGET, **switches))
        assert result.saturated
        check_against_chase(
            result, query, theory, database, factorize=switches["factorize"]
        )

    @RELAXED
    @given(
        theory=bdd_theories(),
        query=open_conjunctive_queries(max_atoms=3),
        database=DATABASES,
    )
    def test_exact_mode_closures_are_canonical(self, theory, query, database):
        # with eager pruning off the engine enumerates the *whole*
        # rewriting closure; minimisation leaves one disjunct per
        # equivalence class, none contained in another
        exact = saturated_rewriting(query, theory, eager_subsumption=False)
        check_against_chase(exact, query, theory, database)
        disjuncts = list(exact.ucq)
        for i, general in enumerate(disjuncts):
            for j, specific in enumerate(disjuncts):
                if i != j:
                    assert not cq_subsumes(general, specific)

    @RELAXED
    @given(theory=bdd_theories(), query=open_conjunctive_queries(max_atoms=3))
    def test_eager_matches_exact(self, theory, query):
        # eager pruning must not lose answers: prune-but-factorise
        # keeps the factorisation closure of every pruned disjunct
        # alive, so the pruned run stays equivalent to the full closure
        eager = saturated_rewriting(query, theory, eager_subsumption=True)
        exact = saturated_rewriting(query, theory, eager_subsumption=False)
        assert ucq_subsumes(exact.ucq, eager.ucq)
        assert ucq_equivalent(eager.ucq, exact.ucq)
        assert len(eager.ucq) == len(exact.ucq)


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
