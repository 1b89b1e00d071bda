"""The engine battery: every ``stopped_reason`` reachable in every engine.

For each of the four engines (chase, rewrite, fc-search, pipeline) this
file demonstrates all five stop causes — ``fixpoint`` and ``budget``
through natural runs, ``deadline``/``cancelled``/``memory`` through the
deterministic fault injector — and checks the two ``OnBudget`` policies:

* ``RETURN``: a partial result flagged incomplete, with the stats
  snapshot populated and ``stopped_reason`` naming the cause;
* ``RAISE``: the matching typed exception
  (:class:`~repro.errors.DeadlineExceeded` /
  :class:`~repro.errors.Cancelled` /
  :class:`~repro.errors.MemoryBudgetExceeded`) carrying the same
  snapshot on ``.stats``.

Plus the degradation contract: a guard-stopped partial run is a prefix
of the full run, and re-running without the fault yields the verdict.
"""

import pytest

from repro.chase import ChaseConfig, chase
from repro.config import OnBudget
from repro.core import PipelineConfig, build_finite_counter_model
from repro.errors import Cancelled, DeadlineExceeded, MemoryBudgetExceeded
from repro.fc import SearchConfig, search_finite_model
from repro.lf import parse_query, parse_structure, parse_theory
from repro.rewriting import RewriteConfig, rewrite
from repro.runtime import GUARD_REASONS, NULL_GUARD, RuntimeGuard, StopReason
from repro.testing import inject_fault
from repro.zoo import (
    chain_growth_theory,
    random_edges_database,
    section55_database,
    section55_query,
    section55_theory,
)

from ..test_cli_json import strip_timings

LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
SYMM = parse_theory("E(x,y) -> E(y,x)")
TRANS = parse_theory("E(x,y), E(y,z) -> E(x,z)")
DB = parse_structure("E(a,b)")
Q_LOOP = parse_query("E(x,x)")

REASON_EXC = {
    StopReason.DEADLINE: DeadlineExceeded,
    StopReason.CANCELLED: Cancelled,
    StopReason.MEMORY: MemoryBudgetExceeded,
}

guard_reasons = pytest.mark.parametrize(
    "reason", GUARD_REASONS, ids=[r.value for r in GUARD_REASONS]
)


#: Budgets no run here comes near: the guard is active, so every
#: checkpoint pays its deadline check and RSS poll, but it never stops.
NEVER_TRIPS = {"wall_ms": 3_600_000, "max_rss_mb": 1_000_000}


def edge_query():
    return parse_query("E(u,v)", free=["u", "v"])


# ----------------------------------------------------------------------
# chase
# ----------------------------------------------------------------------

class TestChase:
    def test_fixpoint(self):
        result = chase(DB, SYMM)
        assert result.saturated
        assert result.stopped_reason is StopReason.FIXPOINT

    def test_budget(self):
        result = chase(DB, LINEAR, max_depth=3)
        assert not result.saturated
        assert result.stopped_reason is StopReason.BUDGET

    @guard_reasons
    def test_guard_return_policy(self, reason):
        with inject_fault("chase", reason) as injector:
            result = chase(DB, LINEAR, max_depth=50)
        assert injector.tripped
        assert result.stopped_reason is reason
        assert not result.saturated
        assert result.stats is not None
        # The partial structure is still a sound truncation: it
        # contains the database.
        assert result.structure.contains_structure(DB)

    @guard_reasons
    def test_guard_raise_policy(self, reason):
        with inject_fault("chase", reason):
            with pytest.raises(REASON_EXC[reason]) as excinfo:
                chase(DB, LINEAR, max_depth=50, on_budget=OnBudget.RAISE)
        assert excinfo.value.stats is not None
        assert excinfo.value.stopped_reason == reason.value

    def test_partial_run_is_a_prefix_of_the_full_run(self):
        # A mid-run stop holds the last completed round: its facts are
        # a subset of a longer (deterministic) run's facts.
        with inject_fault("chase", "deadline", at_checkpoint=3):
            partial = chase(DB, LINEAR, max_depth=50)
        full = chase(DB, LINEAR, max_depth=8)
        assert partial.depth < full.depth
        assert set(partial.structure.facts()) <= set(full.structure.facts())


# ----------------------------------------------------------------------
# rewrite
# ----------------------------------------------------------------------

class TestRewrite:
    def test_fixpoint(self):
        result = rewrite(edge_query(), parse_theory("R(x,y) -> E(x,y)"))
        assert result.saturated
        assert result.stopped_reason is StopReason.FIXPOINT

    def test_budget(self):
        config = RewriteConfig(max_steps=1, on_budget=OnBudget.RETURN)
        result = rewrite(edge_query(), TRANS, config)
        assert not result.saturated
        assert result.stopped_reason is StopReason.BUDGET

    @guard_reasons
    def test_guard_return_policy(self, reason):
        with inject_fault("rewrite", reason) as injector:
            result = rewrite(
                edge_query(), TRANS, on_budget=OnBudget.RETURN
            )
        assert injector.tripped
        assert result.stopped_reason is reason
        assert not result.saturated
        assert result.stats is not None

    @guard_reasons
    def test_guard_raise_policy(self, reason):
        # RewriteConfig defaults to OnBudget.RAISE.
        with inject_fault("rewrite", reason):
            with pytest.raises(REASON_EXC[reason]) as excinfo:
                rewrite(edge_query(), TRANS)
        assert excinfo.value.stats is not None
        assert excinfo.value.stopped_reason == reason.value

    def test_partial_run_is_a_prefix_of_the_full_run(self):
        with inject_fault("rewrite", "memory", at_checkpoint=4):
            partial = rewrite(edge_query(), TRANS, on_budget=OnBudget.RETURN)
        fuller = rewrite(
            edge_query(), TRANS, max_queries=60, on_budget=OnBudget.RETURN
        )
        assert partial.generated <= fuller.generated
        assert partial.stats.wall_ms >= 0


# ----------------------------------------------------------------------
# fc-search
# ----------------------------------------------------------------------

class TestSearch:
    def test_fixpoint(self):
        result = search_finite_model(
            DB, LINEAR, forbidden=Q_LOOP, config=SearchConfig(max_elements=3)
        )
        assert result.found
        assert result.stopped_reason is StopReason.FIXPOINT

    def test_budget(self):
        result = search_finite_model(
            DB,
            LINEAR,
            forbidden=Q_LOOP,
            config=SearchConfig(max_elements=3, max_nodes=1),
        )
        assert not result.found
        assert result.stopped_reason is StopReason.BUDGET

    @guard_reasons
    def test_guard_return_policy(self, reason):
        with inject_fault("fc-search", reason) as injector:
            result = search_finite_model(
                DB, LINEAR, forbidden=Q_LOOP, config=SearchConfig(max_elements=3)
            )
        assert injector.tripped
        assert result.model is None
        assert result.stopped_reason is reason
        assert result.stats is not None
        assert not result.stats.exhausted

    @guard_reasons
    def test_guard_raise_policy(self, reason):
        with inject_fault("fc-search", reason):
            with pytest.raises(REASON_EXC[reason]) as excinfo:
                search_finite_model(
                    DB,
                    LINEAR,
                    forbidden=Q_LOOP,
                    config=SearchConfig(max_elements=3, on_budget=OnBudget.RAISE),
                )
        assert excinfo.value.stats is not None
        assert excinfo.value.stopped_reason == reason.value

    def test_rerun_without_the_fault_finds_the_model(self):
        with inject_fault("fc-search", "deadline"):
            partial = search_finite_model(
                DB, LINEAR, forbidden=Q_LOOP, config=SearchConfig(max_elements=3)
            )
        assert partial.model is None
        clean = search_finite_model(
            DB, LINEAR, forbidden=Q_LOOP, config=SearchConfig(max_elements=3)
        )
        assert clean.found
        assert clean.stopped_reason is StopReason.FIXPOINT


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------

class TestPipeline:
    def test_fixpoint(self):
        result = build_finite_counter_model(LINEAR, DB, Q_LOOP)
        assert result.model is not None
        assert result.stopped_reason is StopReason.FIXPOINT

    def test_budget(self):
        # An impossible schedule: every (depth, η) attempt fails.
        config = PipelineConfig(chase_depths=(2,), on_budget=OnBudget.RETURN)
        result = build_finite_counter_model(LINEAR, DB, Q_LOOP, config)
        assert result.model is None
        assert result.stopped_reason is StopReason.BUDGET
        assert result.attempts

    @guard_reasons
    def test_guard_return_policy(self, reason):
        with inject_fault("pipeline", reason) as injector:
            result = build_finite_counter_model(
                LINEAR, DB, Q_LOOP, PipelineConfig(on_budget=OnBudget.RETURN)
            )
        assert injector.tripped
        assert result.model is None
        assert result.stopped_reason is reason

    @guard_reasons
    def test_guard_raise_policy(self, reason):
        # PipelineConfig defaults to OnBudget.RAISE.
        with inject_fault("pipeline", reason):
            with pytest.raises(REASON_EXC[reason]) as excinfo:
                build_finite_counter_model(LINEAR, DB, Q_LOOP)
        # .stats is the partial FiniteModelResult itself.
        assert excinfo.value.stats is not None
        assert excinfo.value.stats.stopped_reason is reason
        assert excinfo.value.stopped_reason == reason.value

    def test_fault_does_not_leak_into_inner_chases(self):
        # A pipeline fault at a late checkpoint: the inner chases (guard
        # name "chase") must run unmolested up to that point, so the
        # partial result records at least one completed chase.
        with inject_fault("pipeline", "cancelled", at_checkpoint=2):
            result = build_finite_counter_model(
                LINEAR, DB, Q_LOOP, PipelineConfig(on_budget=OnBudget.RETURN)
            )
        assert result.stopped_reason is StopReason.CANCELLED
        assert result.chase_stats  # the depth-8 truncation chase ran

    def test_rerun_without_the_fault_builds_the_model(self):
        with inject_fault("pipeline", "deadline"):
            partial = build_finite_counter_model(
                LINEAR, DB, Q_LOOP, PipelineConfig(on_budget=OnBudget.RETURN)
            )
        assert partial.model is None
        clean = build_finite_counter_model(LINEAR, DB, Q_LOOP)
        assert clean.model is not None
        assert clean.stopped_reason is StopReason.FIXPOINT


class TestActiveGuardChangesNothing:
    """A guard that never trips costs checks, never results: the same
    run under :data:`NULL_GUARD` (no guard field set) gives the same
    answer and the same work counters."""

    def test_chase(self):
        theory = chain_growth_theory(3)
        database = random_edges_database(4, 6, predicates=("P0",), seed=7)
        guarded_config = ChaseConfig(max_depth=20, **NEVER_TRIPS)
        plain_config = ChaseConfig(max_depth=20)
        assert RuntimeGuard.from_config(guarded_config, "chase") is not NULL_GUARD
        assert RuntimeGuard.from_config(plain_config, "chase") is NULL_GUARD
        guarded = chase(database, theory, guarded_config)
        plain = chase(database, theory, plain_config)
        assert guarded.depth == plain.depth == 20
        assert guarded.stopped_reason is plain.stopped_reason is StopReason.BUDGET
        assert guarded.structure.facts() == plain.structure.facts()
        assert strip_timings(guarded.stats.as_dict()) == strip_timings(
            plain.stats.as_dict()
        )

    def test_search(self):
        def run(**guard):
            return search_finite_model(
                section55_database(), section55_theory(),
                forbidden=section55_query(),
                config=SearchConfig(max_elements=10, **guard),
            )

        guarded, plain = run(**NEVER_TRIPS), run()
        assert not guarded.found and not plain.found
        assert guarded.stopped_reason is plain.stopped_reason is StopReason.FIXPOINT
        assert strip_timings(guarded.stats.as_dict()) == strip_timings(
            plain.stats.as_dict()
        )
