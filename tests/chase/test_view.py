"""Tests for incremental chase views (``repro.chase.view``)."""

import pytest

from repro.config import OnBudget
from repro.errors import ChaseBudgetExceeded, ChaseError
from repro.chase import (
    ChaseConfig,
    ChaseView,
    IncrementalConfig,
    chase,
    chase_view,
    explain,
)
from repro.cli import render_update_stats
from repro.lf import parse_fact, parse_query, parse_structure, parse_theory
from repro.runtime import StopReason

TRANSITIVE = parse_theory("E(x,y), E(y,z) -> E(x,z)")
CHAIN = parse_structure("E(a,b)\nE(b,c)\nE(c,d)")
UNARY_CHAIN = parse_theory("A(x) -> B(x)\nB(x) -> C(x)\nC(x) -> D(x)")


def rechase_facts(base_facts, theory):
    """The fact set of a from-scratch chase of the current base."""
    result = chase(
        parse_structure("\n".join(sorted(str(f) for f in base_facts))),
        theory,
        ChaseConfig(max_depth=None, max_facts=100_000),
    )
    assert result.saturated
    return result.structure.facts()


class TestConfig:
    def test_forces_trace_and_delta(self):
        config = IncrementalConfig(max_depth=None, trace=False)
        assert config.trace is True
        # the resume joins through the new fact, not the whole structure
        view = ChaseView(CHAIN, TRANSITIVE, config)
        result = view.update(adds=[parse_fact("E(d, e)")])
        assert result.stats.rounds[0].delta_in == 1

    def test_bad_max_update_rounds_rejected(self):
        with pytest.raises(ValueError):
            IncrementalConfig(max_update_rounds=0)

    def test_plain_chase_config_promoted(self):
        view = ChaseView(CHAIN, TRANSITIVE, ChaseConfig(max_depth=None))
        assert isinstance(view.config, IncrementalConfig)
        assert view.config.trace is True

    def test_non_ground_update_rejected(self):
        view = chase_view(CHAIN, TRANSITIVE, max_depth=None)
        with pytest.raises(ChaseError):
            view.update(adds=[parse_query("E(x,y)").atoms[0]])


class TestInsert:
    def test_insert_resumes_to_rechase_fixpoint(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        assert view.saturated
        result = view.update(adds=[parse_fact("E(d, e)")])
        assert result.saturated
        assert view.facts() == rechase_facts(view.base_facts(), TRANSITIVE)
        # the new closure facts are reported as the net delta
        assert parse_fact("E(a, e)") in result.added

    def test_insert_existing_base_fact_is_noop(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        before = view.facts()
        result = view.update(adds=[parse_fact("E(a, b)")])
        assert result.stats.adds_in == 0
        assert result.added == ()
        assert view.facts() == before

    def test_delta_is_seeded_with_only_new_facts(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        result = view.update(adds=[parse_fact("E(z1, z2)")])
        # the disconnected edge triggers nothing: one certifying round
        assert result.stats.delta_sizes[0] == 1
        assert result.stats.facts_added == 0

    def test_insert_derived_fact_becomes_extensional(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        derived = parse_fact("E(a, c)")
        assert view.level_of(derived) > 0
        view.update(adds=[derived])
        assert view.level_of(derived) == 0
        assert derived in view.base_facts()


class TestDelete:
    def test_delete_overdeletes_consequences(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        result = view.update(removes=[parse_fact("E(c, d)")])
        assert result.saturated
        assert view.facts() == rechase_facts(view.base_facts(), TRANSITIVE)
        assert parse_fact("E(a, d)") not in view.facts()
        assert result.stats.overdeleted >= 2  # E(b,d), E(a,d)

    def test_retract_non_base_fact_rejected(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        with pytest.raises(ChaseError):
            view.update(removes=[parse_fact("E(a, c)")])  # derived
        with pytest.raises(ChaseError):
            view.update(removes=[parse_fact("E(z, z)")])  # absent

    def test_rederive_through_alternative_support(self):
        # E(a,c) is derivable both via b and via x; killing the b-path
        # must keep it (multi-support provenance, not full rechase)
        db = parse_structure("E(a,b)\nE(b,c)\nE(a,x)\nE(x,c)")
        view = ChaseView(db, TRANSITIVE, max_depth=None)
        result = view.update(removes=[parse_fact("E(a, b)")])
        assert parse_fact("E(a, c)") in view.facts()
        assert result.stats.rederived >= 1
        assert view.facts() == rechase_facts(view.base_facts(), TRANSITIVE)

    def test_removed_base_fact_can_rederive(self):
        # E(a,c) is base *and* derivable: retracting it from the base
        # must bring it back as a derived fact
        db = parse_structure("E(a,b)\nE(b,c)\nE(a,c)")
        view = ChaseView(db, TRANSITIVE, max_depth=None)
        result = view.update(removes=[parse_fact("E(a, c)")])
        assert result.saturated
        fact = parse_fact("E(a, c)")
        assert fact in view.facts()
        assert fact not in view.base_facts()
        assert view.level_of(fact) > 0
        assert result.removed == ()  # net change: nothing actually left

    def test_mutual_support_collapses(self):
        theory = parse_theory("E(x,y) -> S(x,y)\nS(x,y) -> E(x,y)")
        view = ChaseView(parse_structure("E(a,b)"), theory, max_depth=None)
        assert parse_fact("S(a, b)") in view.facts()
        view.update(removes=[parse_fact("E(a, b)")])
        assert len(view) == 0  # the E/S cycle is not self-sustaining

    def test_unsuppression_reinvents_witness(self):
        # deleting the witness F(b,c) un-suppresses the existential
        # trigger from E(a,b): a fresh null must be invented
        theory = parse_theory("E(x,y) -> exists z. F(y,z)")
        db = parse_structure("E(a,b)\nF(b,c)")
        view = ChaseView(db, theory, max_depth=None)
        assert view.saturated and len(view) == 2
        result = view.update(removes=[parse_fact("F(b, c)")])
        assert result.saturated
        f_facts = view.structure.facts_with_pred("F")
        assert len(f_facts) == 1
        assert result.stats.nulls_invented == 1

    def test_orphaned_nulls_counted(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)\nR(x,y) -> S(y)")
        view = ChaseView(parse_structure("U(a)"), theory, max_depth=None)
        result = view.update(removes=[parse_fact("U(a)")])
        assert len(view) == 0
        assert result.stats.nulls_orphaned == 1


class TestQueries:
    def test_certain_boolean_verdicts(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        hit = view.certain_one(parse_query("E('a','d')"))
        assert hit.verdict is True and hit.complete
        miss = view.certain_one(parse_query("E('d','a')"))
        assert miss.verdict is False
        view.update(adds=[parse_fact("E(d, a)")])
        assert view.certain_one(parse_query("E('d','a')")).verdict is True

    def test_certain_open_query_filters_nulls(self):
        theory = parse_theory("U(x) -> exists z. R(x,z)\nR(x,y) -> V(x)")
        view = ChaseView(parse_structure("U(a)"), theory, max_depth=None)
        answer = view.certain_one(parse_query("R(x,y)", free=["x", "y"]))
        assert answer.answers == set()  # the only row mentions a null
        assert answer.verdict is False
        v_answer = view.certain_one(parse_query("V(x)", free=["x"]))
        assert len(v_answer.answers) == 1

    def test_certain_batch_shares_call(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        answers = view.certain(
            [parse_query("E('a','c')"), parse_query("E('c','a')")]
        )
        assert [a.verdict for a in answers] == [True, False]

    def test_truncated_view_answers_incomplete(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        view = ChaseView(parse_structure("E(a,b)"), theory, max_depth=3)
        assert not view.saturated
        answer = view.certain_one(parse_query("E(x,x)"))
        assert answer.verdict is None and not answer.complete


class TestBudgets:
    def test_max_update_rounds_stashes_and_refreshes(self):
        chain = parse_structure(
            "\n".join(f"E(a{i},a{i + 1})" for i in range(8))
        )
        view = ChaseView(
            chain, TRANSITIVE,
            max_depth=None, max_update_rounds=1, on_budget=OnBudget.RETURN,
        )
        # the initial chase is a plain chase: saturated
        assert view.saturated
        result = view.update(adds=[parse_fact("E(a8, a9)")])
        assert not result.saturated
        assert result.stopped_reason is StopReason.BUDGET
        while not view.saturated:
            result = view.refresh()
        assert view.facts() == rechase_facts(view.base_facts(), TRANSITIVE)

    def test_max_update_rounds_raise_keeps_the_frontier(self):
        view = ChaseView(
            parse_structure("Q(b)"), UNARY_CHAIN,
            max_depth=None, max_update_rounds=2, on_budget=OnBudget.RAISE,
        )
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            view.update(adds=[parse_fact("A(a)")])
        # state is recorded before the raise, and the stats travel along
        assert excinfo.value.stats is view.update_stats[-1]
        assert excinfo.value.stats.resumed_rounds == 2
        assert not view.saturated
        assert view.stopped_reason is StopReason.BUDGET
        assert parse_fact("C(a)") in view.facts()
        result = view.refresh()
        assert result.saturated
        assert parse_fact("D(a)") in result.added

    def test_max_update_rounds_advances_the_kept_frontier(self):
        # one round per update: each refresh must resume from the facts
        # the previous round added, not from the update's seed
        view = ChaseView(
            parse_structure("Q(b)"), UNARY_CHAIN,
            max_depth=None, max_update_rounds=1, on_budget=OnBudget.RETURN,
        )
        view.update(adds=[parse_fact("A(a)")])
        for _ in range(5):
            if view.saturated:
                break
            view.refresh()
        assert view.saturated
        for fact in ("B(a)", "C(a)", "D(a)"):
            assert parse_fact(fact) in view.facts(), fact

    def test_max_facts_raises_when_configured(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        view = ChaseView(
            parse_structure("E(a,b)\nE(b,a)"), theory,
            max_depth=None, max_facts=20, on_budget=OnBudget.RAISE,
        )
        assert view.saturated  # the 2-cycle suppresses everything
        with pytest.raises(ChaseBudgetExceeded):
            # breaking the cycle un-suppresses an infinite E-chain
            view.update(removes=[parse_fact("E(b, a)")])
        assert not view.saturated

    def test_interrupted_update_leaves_consistent_view(self):
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        view = ChaseView(
            parse_structure("E(a,b)\nE(b,a)"), theory,
            max_depth=None, max_facts=20, on_budget=OnBudget.RETURN,
        )
        result = view.update(removes=[parse_fact("E(b, a)")])
        assert not result.saturated
        # every present fact still has a recorded level
        for fact in view.facts():
            assert view.level_of(fact) >= 0


class TestUpdateStream:
    def test_update_stream_matches_rechase(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        script = [
            ([parse_fact("E(d, e)")], []),
            ([], [parse_fact("E(b, c)")]),
            ([parse_fact("E(c, a)")], [parse_fact("E(a, b)")]),
        ]
        for adds, removes in script:
            result = view.update(adds=adds, removes=removes)
            assert result.saturated
            assert view.facts() == rechase_facts(
                view.base_facts(), TRANSITIVE
            )


class TestIntrospection:
    def test_as_result_supports_explain(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        view.update(adds=[parse_fact("E(d, e)")])
        derivation = explain(view.as_result(), parse_fact("E(c, e)"))
        assert not derivation.is_leaf

    def test_update_stats_accumulate(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        view.update(adds=[parse_fact("E(d, e)")])
        view.update(removes=[parse_fact("E(d, e)")])
        assert len(view.update_stats) == 2
        first, second = view.update_stats
        assert first.adds_in == 1 and second.removes_in == 1
        payload = second.as_dict(timings=False)
        assert "wall_ms" not in payload
        assert payload["overdeleted"] == second.overdeleted
        assert "# update:" in render_update_stats(second.as_dict())

    def test_update_rounds_report_index_probes(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        result = view.update(adds=[parse_fact("E(d, e)")])
        # E(d,e) reaches its partners E(x,d) through the index
        assert result.stats.rounds[0].index_probes > 0
        assert result.stats.delta_sizes == [r.delta_in for r in result.stats.rounds]
        # the DRed fallback round matches bodies through the index too
        result = view.update(removes=[parse_fact("E(b, c)")])
        assert result.stats.fallback_rules == 1
        assert result.stats.rounds[0].index_probes > 0

    def test_str_smoke(self):
        view = ChaseView(CHAIN, TRANSITIVE, max_depth=None)
        assert "saturated" in str(view)
        assert "base facts" in str(view)
