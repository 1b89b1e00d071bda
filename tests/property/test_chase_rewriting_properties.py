"""Property-based tests for the chase and the rewriting engine."""

from hypothesis import HealthCheck, given, settings

from repro.chase import ChaseConfig, chase
from repro.lf import satisfies
from repro.rewriting import RewriteConfig, cq_subsumes, rewrite
from repro.rewriting.subsume import freeze, normalize_equalities
from repro.config import OnBudget

from ..oracles import rule_violations
from .strategies import conjunctive_queries, structures, theories

RELAXED = settings(
    max_examples=30, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestChaseInvariants:
    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories())
    def test_chase_extends_database(self, database, theory):
        result = chase(database, theory, ChaseConfig(max_depth=4, max_facts=2_000))
        assert result.structure.contains_structure(database)

    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories())
    def test_saturated_chase_is_model(self, database, theory):
        result = chase(database, theory, ChaseConfig(max_depth=6, max_facts=2_000))
        if result.saturated:
            assert list(rule_violations(result.structure, theory)) == []

    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories())
    def test_fact_levels_cover_structure(self, database, theory):
        result = chase(database, theory, ChaseConfig(max_depth=4, max_facts=2_000))
        assert set(result.fact_level) == set(result.structure.facts())
        assert all(0 <= level <= result.depth for level in result.fact_level.values())

    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories())
    def test_truncations_are_monotone(self, database, theory):
        result = chase(database, theory, ChaseConfig(max_depth=4, max_facts=2_000))
        previous = result.truncate(0)
        for level in range(1, result.depth + 1):
            current = result.truncate(level)
            assert current.contains_structure(previous)
            previous = current

    @RELAXED
    @given(structures(min_facts=1, max_facts=6), theories())
    def test_chase_deterministic(self, database, theory):
        config = ChaseConfig(max_depth=4, max_facts=2_000)
        first = chase(database, theory, config)
        second = chase(database, theory, config)
        assert first.structure.same_facts(second.structure)


class TestSubsumptionInvariants:
    @RELAXED
    @given(conjunctive_queries())
    def test_subsumption_reflexive(self, query):
        assert cq_subsumes(query, query)

    @RELAXED
    @given(conjunctive_queries(), conjunctive_queries(), conjunctive_queries())
    def test_subsumption_transitive(self, a, b, c):
        if cq_subsumes(a, b) and cq_subsumes(b, c):
            assert cq_subsumes(a, c)

    @RELAXED
    @given(conjunctive_queries())
    def test_canonical_database_satisfies_query(self, query):
        normal = normalize_equalities(query)
        if normal is None:
            return
        canonical, _table = freeze(normal)
        assert satisfies(canonical, normal)


class TestRewritingSoundness:
    @RELAXED
    @given(structures(min_facts=1, max_facts=5), theories(max_rules=2), conjunctive_queries(max_atoms=2))
    def test_rewriting_agrees_with_chase(self, database, theory, query):
        """Definition 2, fuzzed: D ⊨ Φ′ iff Chase(D,T) ⊨ Φ — checked
        whenever both sides produce definite verdicts."""
        config = RewriteConfig(max_steps=400, max_queries=80, on_budget=OnBudget.RETURN)
        result = rewrite(query, theory, config)
        if not result.saturated:
            return
        chased = chase(database, theory, ChaseConfig(max_depth=5, max_facts=2_000))
        rewriting_says = satisfies(database, result.ucq)
        chase_says = satisfies(chased.structure, query)
        if chase_says:
            assert rewriting_says, (
                f"chase proves {query} but the rewriting misses it "
                f"({result.ucq})"
            )
        if rewriting_says and chased.saturated:
            assert chase_says
