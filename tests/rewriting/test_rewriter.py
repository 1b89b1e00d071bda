"""Tests for the UCQ rewriting engine and the BDD facade.

The key cross-check throughout: the rewriting answer over D must agree
with the chase answer (Definition 2 of the paper).
"""

import pytest

from repro.errors import DeadlineExceeded, RewritingBudgetExceeded, RuleError
from repro.chase import certain_boolean
from repro.lf import Rule, Variable, atom, parse_query, parse_structure, parse_theory
from repro.lf.rules import Theory
from repro.config import OnBudget
from repro.rewriting import (
    RewriteConfig,
    answer_by_rewriting,
    answers_by_rewriting,
    bdd_profile,
    cq_subsumes,
    is_bdd_for,
    kappa,
    rewrite,
)

LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
EXAMPLE7 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(u,y) -> R(x,u)
    """
)
TRANSITIVE = parse_theory("E(x,y), E(y,z) -> E(x,z)")


class TestRewriteBasics:
    def test_no_rules_identity(self):
        result = rewrite(parse_query("E(x,y)"), Theory([]))
        assert result.saturated
        assert len(result.ucq) == 1

    def test_datalog_resolution(self):
        theory = parse_theory("R(x,y) -> S(x,y)")
        result = rewrite(parse_query("S(x,y)", free=["x", "y"]), theory)
        assert result.saturated
        assert len(result.ucq) == 2  # S itself, plus R

    def test_linear_path_collapses_to_edge(self):
        result = rewrite(parse_query("E(x,y), E(y,z)"), LINEAR)
        assert result.saturated
        assert len(result.ucq) == 1
        only = result.ucq.disjuncts[0]
        assert len([a for a in only.atoms if not a.is_equality]) == 1

    def test_blocked_by_free_variable(self):
        # z1 of the head would have to unify with the free variable y.
        result = rewrite(parse_query("E(x,y)", free=["y"]), LINEAR)
        assert result.saturated
        assert len(result.ucq) == 1

    def test_blocked_by_shared_variable_without_factorization(self):
        config = RewriteConfig(factorize=False)
        result = rewrite(parse_query("E(x,y), E(u,y)", free=["x", "u"]), EXAMPLE7, config)
        # without factorisation the existential step is blocked: only
        # the original query remains
        assert result.saturated
        assert len(result.ucq) == 1

    def test_factorization_unblocks(self):
        result = rewrite(parse_query("E(x,y), E(u,y)", free=["x", "u"]), EXAMPLE7)
        assert result.saturated
        assert len(result.ucq) > 1

    def test_example7_r_query(self):
        result = rewrite(parse_query("R(x,u)", free=["x", "u"]), EXAMPLE7)
        assert result.saturated
        assert len(result.ucq) == 3
        assert result.max_width == 3

    def test_multi_head_rejected(self):
        x, y = Variable("x"), Variable("y")
        theory = Theory([Rule((atom("E", x, y),), (atom("U", x), atom("U", y)))])
        with pytest.raises(RuleError):
            rewrite(parse_query("U(x)"), theory)

    def test_unsatisfiable_query(self):
        q = parse_query("E(x,y), 'a' = 'b'")
        result = rewrite(q, LINEAR)
        assert result.saturated
        assert len(result.ucq) == 0


class TestBudgets:
    def test_transitive_raises_by_default(self):
        with pytest.raises(RewritingBudgetExceeded):
            rewrite(
                parse_query("E(x,y)", free=["x", "y"]),
                TRANSITIVE,
                RewriteConfig(max_steps=200, max_queries=30),
            )

    def test_transitive_quiet_return(self):
        result = rewrite(
            parse_query("E(x,y)", free=["x", "y"]),
            TRANSITIVE,
            RewriteConfig(max_steps=200, max_queries=30, on_budget=OnBudget.RETURN),
        )
        assert not result.saturated

    def test_is_bdd_for_unknown(self):
        verdict = is_bdd_for(
            TRANSITIVE,
            parse_query("E(x,y)", free=["x", "y"]),
            RewriteConfig(max_steps=200, max_queries=30),
        )
        assert verdict is None

    def test_is_bdd_for_positive(self):
        assert is_bdd_for(LINEAR, parse_query("E(x,y), E(y,z)")) is True

    def test_bad_on_budget(self):
        with pytest.raises(ValueError):
            RewriteConfig(on_budget="nope")

    @pytest.mark.parametrize("shortcut", [answer_by_rewriting, answers_by_rewriting])
    @pytest.mark.parametrize(
        "overrides, error, reason",
        [
            (dict(max_steps=2), RewritingBudgetExceeded, "budget"),
            (dict(wall_ms=0), DeadlineExceeded, "deadline"),
        ],
        ids=["count", "deadline"],
    )
    def test_shortcuts_raise_the_stop_they_hit(
        self, shortcut, overrides, error, reason
    ):
        config = RewriteConfig(on_budget=OnBudget.RETURN, **overrides)
        with pytest.raises(error) as excinfo:
            shortcut(
                parse_structure("E(a,b)"),
                TRANSITIVE,
                parse_query("E(x,y)", free=["x", "y"]),
                config,
            )
        assert excinfo.value.stopped_reason == reason
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.engine == "indexed"


class TestKappa:
    def test_example7_kappa(self):
        profile = bdd_profile(EXAMPLE7)
        assert profile.saturated
        assert profile.kappa == 3

    def test_linear_kappa(self):
        assert kappa(LINEAR) == 2

    def test_profile_rewriting_of(self):
        profile = bdd_profile(EXAMPLE7)
        datalog_rule = EXAMPLE7.rules[1]
        assert profile.rewriting_of(datalog_rule).saturated
        with pytest.raises(KeyError):
            profile.rewriting_of(parse_theory("Q(x,y) -> Q(y,x)").rules[0])


class TestSoundnessAgainstChase:
    """Definition 2: D ⊨ Φ′ iff Chase(D,T) ⊨ Φ."""

    @pytest.mark.parametrize(
        "query_text",
        [
            "E(x,y)",
            "E(x,y), E(y,z)",
            "E(x,y), E(y,z), E(z,w)",
            "E('b', y)",
            "E(x, 'b')",
        ],
    )
    def test_linear_agreement(self, query_text):
        database = parse_structure("E(a,b)")
        query = parse_query(query_text)
        from_rewriting = answer_by_rewriting(database, LINEAR, query)
        from_chase = certain_boolean(database, LINEAR, query, max_depth=8)
        if from_chase is not None:
            assert from_rewriting == from_chase

    @pytest.mark.parametrize(
        "db_text,expected",
        [
            ("E(a,b)", True),           # chain grows, R(b,b) provable
            ("U(a)", False),            # no E at all
        ],
    )
    def test_example7_r_exists(self, db_text, expected):
        database = parse_structure(db_text)
        query = parse_query("R(x,u)")
        assert answer_by_rewriting(database, EXAMPLE7, query) is expected

    def test_example7_answers(self):
        database = parse_structure("E(a,b)")
        answers = answers_by_rewriting(
            database, EXAMPLE7, parse_query("R(x,u)", free=["x", "u"])
        )
        # Only the constant pair (a,a): E(a,b) and E(a,b) share target b.
        from repro.lf import Constant
        a, b = Constant("a"), Constant("b")
        # (a,a): E(a,b) shares target b with itself; (b,b): in the chase
        # b gets a successor shared by both body atoms.
        assert answers == {(a, a), (b, b)}

    def test_rewriting_sound_on_empty_database(self):
        database = parse_structure("U(c)")
        assert not answer_by_rewriting(database, LINEAR, parse_query("E(x,y)"))

    def test_budget_raises_in_answering(self):
        with pytest.raises(RewritingBudgetExceeded):
            answers_by_rewriting(
                parse_structure("E(a,b)"),
                TRANSITIVE,
                parse_query("E(x,y)", free=["x", "y"]),
                RewriteConfig(max_steps=100, max_queries=20, on_budget=OnBudget.RETURN),
            )


class TestRewritingSemantics:
    def test_every_disjunct_contained_in_certain_semantics(self):
        """Each disjunct q of Φ′ is sound: q(D) implies Chase(D) ⊨ Φ.

        We check it on the canonical database of each disjunct.
        """
        from repro.rewriting.subsume import freeze, normalize_equalities

        query = parse_query("R(x,u)")
        result = rewrite(query.boolean(), EXAMPLE7)
        for disjunct in result.ucq:
            normal = normalize_equalities(disjunct.boolean())
            canonical, _ = freeze(normal)
            verdict = certain_boolean(canonical, EXAMPLE7, query, max_depth=8)
            assert verdict is True


class TestEmptyRewritingResult:
    """The empty rewriting (``false``) and hand-built results must not
    crash the result surface — κ aggregation and ``__str__`` touch
    ``max_width`` on every run."""

    UNSAT = None  # built lazily: an E-atom plus a ground contradiction

    @classmethod
    def unsat_query(cls):
        from repro.lf import ConjunctiveQuery, Constant

        return ConjunctiveQuery(
            [atom("E", Variable("x"), Variable("y")),
             atom("=", Constant("a"), Constant("b"))],
            (),
        )

    def test_unsatisfiable_query_rewrites_to_empty(self):
        result = rewrite(self.unsat_query(), Theory([]))
        assert result.saturated
        assert len(result.ucq) == 0
        assert result.max_width == 0
        assert "0 disjuncts" in str(result)

    def test_hand_built_empty_union(self):
        from repro.lf import UnionOfConjunctiveQueries
        from repro.rewriting import RewritingResult

        result = RewritingResult(
            UnionOfConjunctiveQueries([]), saturated=True, steps=0, generated=0)
        assert result.max_width == 0
        assert "max width 0" in str(result)

    def test_hand_built_none_union(self):
        from repro.rewriting import RewritingResult

        result = RewritingResult(None, saturated=False, steps=3, generated=1)
        assert result.max_width == 0
        assert "budget-exhausted" in str(result)
        assert "0 disjuncts" in str(result)


class TestPrunedResurrection:
    """Eager pruning must not veto a kept query's factorisation.

    Regression: with ``E(x,y) -> exists z. R(x,z)`` and
    ``R(x,y) -> E(x,x)``, the single-atom query ``R(x,w)`` first
    reaches ``consider`` as a *rewrite product* (prunable — eagerly
    pruned, the kept ``R & R`` disjunct subsumes it) and only later as
    the expansion-time factorisation of that same ``R & R`` disjunct
    (non-prunable — must be kept).  The pruned arrival's seen-marker
    used to drop the second as a duplicate, so ``R(x,w)``'s own
    rewrite step (to ``E(x,w)``) never ran and the eager rewriting
    lost a disjunct the exact closure keeps.
    """

    THEORY = parse_theory(
        """
        E(x, y) -> exists z. R(x, z)
        R(x, y) -> E(x, x)
        """
    )
    QUERY = parse_query("E(x, x), R(x, y)", free=[])

    def test_eager_keeps_resurrected_factorisation(self):
        from repro.rewriting import ucq_equivalent

        eager = rewrite(
            self.QUERY, self.THEORY,
            config=RewriteConfig(eager_subsumption=True),
        )
        exact = rewrite(
            self.QUERY, self.THEORY,
            config=RewriteConfig(eager_subsumption=False),
        )
        assert eager.saturated and exact.saturated
        assert ucq_equivalent(eager.ucq, exact.ucq)
        # the disjunct the bug lost: any E edge certifies the query
        assert answer_by_rewriting(
            parse_structure("E(a,b)"), self.THEORY, self.QUERY
        )
