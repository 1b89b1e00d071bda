"""End-to-end tests for the Theorem-2 pipeline (Section 3.3)."""

import pytest

import repro.core.finite_model as pipeline
from repro.coloring.conservativity import ConservativityReport
from repro.lf import parse_query, parse_structure, parse_theory, satisfies
from repro.core import (
    PipelineConfig,
    build_finite_counter_model,
    certify_counter_model,
)
from repro.errors import NotBinaryError

from ..oracles import rule_violations

EXAMPLE1 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
    U(x,y) -> exists z. U(y,z)
    """
)
LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
EXAMPLE7 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(u,y) -> R(x,u)
    """
)
DB = parse_structure("E(a,b)")


def assert_counter_model(result, theory, database, query):
    assert result.model is not None
    assert not result.query_certain
    assert certify_counter_model(result, theory, database, query)
    # explicit re-checks, belt and braces:
    assert result.model.contains_structure(database)
    assert list(rule_violations(result.model, theory)) == []
    assert not satisfies(result.model, query.boolean())


class TestPipeline:
    def test_example1_no_triangle_query(self):
        query = parse_query("U(x,y)")
        result = build_finite_counter_model(EXAMPLE1, DB, query)
        assert_counter_model(result, EXAMPLE1, DB, query)
        assert result.model_size < 60

    def test_linear_loop_query(self):
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert_counter_model(result, LINEAR, DB, query)

    def test_example7_theory(self):
        query = parse_query("R(x,u), P(u,w)")
        result = build_finite_counter_model(EXAMPLE7, DB, query)
        assert_counter_model(result, EXAMPLE7, DB, query)
        assert result.kappa == 3  # Example 7's rewriting width

    def test_certain_query_detected(self):
        query = parse_query("E(x,y), E(y,z)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert result.query_certain
        assert result.model is None

    def test_saturating_theory_shortcut(self):
        theory = parse_theory("E(x,y) -> exists z. R(y,z)")
        query = parse_query("R(x,y), R(y,z)")
        result = build_finite_counter_model(theory, DB, query)
        assert_counter_model(result, theory, DB, query)

    def test_datalog_only_theory(self):
        theory = parse_theory(
            """
            E(x,y) -> S(y,x)
            S(x,y) -> B(x,y)
            """
        )
        query = parse_query("B(x,x)")
        result = build_finite_counter_model(theory, DB, query)
        assert_counter_model(result, theory, DB, query)

    def test_non_bdd_theory_raises(self):
        """Transitivity is not FO-rewritable: κ cannot be certified and
        the pipeline refuses (Theorem 2 needs the BDD premise)."""
        from repro.errors import RewritingBudgetExceeded
        from repro.rewriting import RewriteConfig

        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        config = PipelineConfig(rewrite=RewriteConfig(max_steps=500, max_queries=100))
        with pytest.raises(RewritingBudgetExceeded):
            build_finite_counter_model(theory, DB, parse_query("E(x,x)"), config)

    def test_nonbinary_rejected(self):
        theory = parse_theory("P(x,y,z) -> exists w. P(y,z,w)")
        with pytest.raises(NotBinaryError):
            build_finite_counter_model(theory, DB, parse_query("P(x,y,z)"))

    def test_bigger_database(self):
        database = parse_structure("E(a,b)\nE(b,c)\nE(d,e)\nU0(d)")
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, database, query)
        assert_counter_model(result, LINEAR, database, query)

    def test_two_tgp_tree_theory(self):
        theory = parse_theory(
            """
            F(x,y) -> exists z. F(y,z)
            F(x,y) -> exists z. G(y,z)
            G(x,y) -> exists z. F(y,z)
            G(x,y) -> exists z. G(y,z)
            """
        )
        database = parse_structure("F(a,b)")
        query = parse_query("F(x,y), G(x,y)")
        # the chase is an exponentially growing tree: pin the depth that
        # is known sufficient instead of walking the default schedule
        config = PipelineConfig(chase_depths=(10,))
        result = build_finite_counter_model(theory, database, query, config)
        assert_counter_model(result, theory, database, query)

    def test_attempts_recorded(self):
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(EXAMPLE7, DB, query)
        # the shallow depths fail with embargo violations before success
        assert isinstance(result.attempts, list)

    def test_model_smaller_than_chase_budget(self):
        """The point of the theorem: the model is small and finite even
        though the chase is infinite."""
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert result.model_size <= result.skeleton_size


#: An Example-9 sub-theory whose first three attempts (depth 8) fail the
#: embargo saturation and whose fourth (depth 10, eta 2) is accepted.
EX9_TWO_RULES = parse_theory(
    """
    F(x,y) -> exists z. F(y,z)
    F(x,y) -> exists z. G(y,z)
    """
)
EX9_DB = parse_structure("F(a,b)")
EX9_QUERY = parse_query("F(x,y), G(x,y)")


class TestAttemptChecks:
    """Each (depth, eta) attempt runs the embargoed saturation first and
    the conservativity report only on the attempts that saturation lets
    through; an attempt is accepted only if both pass."""

    @staticmethod
    def _instrument(monkeypatch, reject_first=False):
        """Wrap the pipeline's saturation and report; return the log.

        With *reject_first*, the first report (the first attempt whose
        saturation completed) says "not conservative".
        """
        real_saturation = pipeline.chase_with_embargo
        real_report = pipeline.conservativity_report
        log = {"saturations": [], "reports": 0, "rejected": None}

        def saturation(*args, **kwargs):
            outcome = real_saturation(*args, **kwargs)
            log["saturations"].append(outcome)
            return outcome

        def report(colored, n, m, prebuilt=None):
            log["reports"] += 1
            verdict = real_report(colored, n, m, prebuilt=prebuilt)
            if reject_first and log["rejected"] is None:
                log["rejected"] = (n, log["saturations"][-1])
                return ConservativityReport(
                    conservative=False, quotient=verdict.quotient
                )
            return verdict

        monkeypatch.setattr(pipeline, "chase_with_embargo", saturation)
        monkeypatch.setattr(pipeline, "conservativity_report", report)
        return log

    def test_one_report_per_completed_saturation(self, monkeypatch):
        log = self._instrument(monkeypatch)
        result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert_counter_model(result, EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert (result.depth, result.eta) == (10, 2)
        assert len(result.attempts) == 3
        assert all("embargo violation" in reason for reason in result.attempts)
        # Reporting before saturating made 4 reports here, one per attempt.
        assert log["reports"] == len(log["saturations"]) == 1

    def test_rejected_report_rejects_the_attempt(self, monkeypatch):
        log = self._instrument(monkeypatch, reject_first=True)
        result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        eta, rejected = log["rejected"]
        assert eta == 2
        # The attempt is recorded as not conservative, the next eta is
        # tried, and a later attempt (depth 12, eta 2) is accepted.
        assert result.attempts[3].startswith("depth 10, eta 2: not conservative")
        assert result.attempts[4].startswith("depth 10, eta 3: ")
        assert_counter_model(result, EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert (result.depth, result.eta) == (12, 2)
        assert log["reports"] == 2
        # The stats list has the three truncation chases and the accepted
        # saturation; the rejected attempt's saturation is left out.
        assert rejected.stats is not None
        assert len(result.chase_stats) == 4
        assert all(stats is not rejected.stats for stats in result.chase_stats)
        assert result.chase_stats[-1] is log["saturations"][-1].stats
