"""Unit tests for the runtime-guard primitives.

Deadline arithmetic, token latching, guard trip order and stickiness,
the NULL_GUARD fast path, from_config dispatch, and the ambient
cancellation scope — everything below the engines.
"""

import threading
import time

import pytest

from repro.chase import ChaseConfig
from repro.config import BudgetedConfig
from repro.errors import (
    BudgetError,
    Cancelled,
    DeadlineExceeded,
    MemoryBudgetExceeded,
    ReproError,
)
from repro.runtime import (
    GUARD_REASONS,
    NULL_GUARD,
    RSS_POLL_INTERVAL,
    CancelToken,
    Deadline,
    GuardTripped,
    RuntimeGuard,
    StopReason,
    ambient_cancel_token,
    cancellation_scope,
    current_rss_mb,
    guard_exception,
)


class TestStopReason:
    def test_values_are_the_uniform_vocabulary(self):
        assert [r.value for r in StopReason] == [
            "fixpoint", "budget", "deadline", "cancelled", "memory",
        ]

    def test_str_subclass_compares_and_serialises_as_value(self):
        import json
        assert StopReason.DEADLINE == "deadline"
        assert json.dumps({"r": StopReason.MEMORY}) == '{"r": "memory"}'

    def test_guard_reasons_exclude_engine_decided_ones(self):
        assert StopReason.FIXPOINT not in GUARD_REASONS
        assert StopReason.BUDGET not in GUARD_REASONS
        assert len(GUARD_REASONS) == 3


class TestDeadline:
    def test_zero_budget_expires_immediately(self):
        deadline = Deadline(0)
        assert deadline.expired()
        assert deadline.remaining_ms() == 0.0

    def test_generous_budget_does_not_expire(self):
        deadline = Deadline(60_000)
        assert not deadline.expired()
        assert 0 < deadline.remaining_ms() <= 60_000

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError, match="wall_ms"):
            Deadline(-1)

    def test_short_budget_expires_after_the_wall(self):
        deadline = Deadline(10)
        time.sleep(0.02)
        assert deadline.expired()


class TestCancelToken:
    def test_fresh_token_is_live(self):
        assert not CancelToken().cancelled

    def test_cancel_is_sticky_and_idempotent(self):
        token = CancelToken()
        token.cancel()
        token.cancel()
        assert token.cancelled

    def test_wait_returns_promptly_once_cancelled(self):
        token = CancelToken()
        threading.Timer(0.01, token.cancel).start()
        assert token.wait(timeout=5.0)

    def test_cancellable_from_another_thread(self):
        token = CancelToken()
        worker = threading.Thread(target=token.cancel)
        worker.start()
        worker.join()
        assert token.cancelled


class TestCurrentRss:
    def test_reports_a_sane_positive_value_on_posix(self):
        rss = current_rss_mb()
        if rss is None:
            pytest.skip("resource module unavailable")
        # A CPython test process sits well within these bounds.
        assert 1.0 < rss < 1_000_000.0


class TestRuntimeGuard:
    def test_inactive_without_any_limit(self):
        guard = RuntimeGuard("t")
        assert guard.check() is None
        guard.checkpoint()  # no raise

    def test_cancellation_checked_before_deadline(self):
        token = CancelToken()
        token.cancel()
        guard = RuntimeGuard("t", deadline=Deadline(0), token=token)
        assert guard.check() is StopReason.CANCELLED

    def test_deadline_trips(self):
        guard = RuntimeGuard("t", deadline=Deadline(0))
        assert guard.check() is StopReason.DEADLINE

    def test_trip_is_sticky(self):
        token = CancelToken()
        guard = RuntimeGuard("t", token=token)
        assert guard.check() is None
        token.cancel()
        assert guard.check() is StopReason.CANCELLED
        # A guard never un-trips, even if the token could be reset.
        assert guard.check() is StopReason.CANCELLED

    def test_checkpoint_raises_guard_tripped(self):
        guard = RuntimeGuard("t", deadline=Deadline(0))
        with pytest.raises(GuardTripped) as excinfo:
            guard.checkpoint()
        assert excinfo.value.reason is StopReason.DEADLINE
        assert not isinstance(excinfo.value, ReproError)

    def test_memory_ceiling_is_polled_not_checked_every_call(self):
        guard = RuntimeGuard("t", max_rss_mb=0.001)  # certainly exceeded
        assert guard.check() is StopReason.MEMORY  # checkpoint 1 polls
        fresh = RuntimeGuard("t", max_rss_mb=0.001, token=CancelToken())
        fresh.checkpoints = 1  # next check is checkpoint 2: no poll
        assert fresh.check() is None

    def test_memory_poll_returns_on_schedule(self):
        guard = RuntimeGuard("t", max_rss_mb=0.001)
        guard.checkpoints = 1  # skip the initial poll
        polled = [guard.check() for _ in range(RSS_POLL_INTERVAL)]
        assert polled[:-1] == [None] * (RSS_POLL_INTERVAL - 1)
        assert polled[-1] is StopReason.MEMORY

    def test_remaining_ms(self):
        assert RuntimeGuard("t").remaining_ms() is None
        assert RuntimeGuard("t", deadline=Deadline(60_000)).remaining_ms() > 0

    def test_describe_names_the_engine(self):
        guard = RuntimeGuard("chase", deadline=Deadline(5))
        assert "chase" in guard.describe(StopReason.DEADLINE)
        assert "5" in guard.describe(StopReason.DEADLINE)

    def test_exception_mapping(self):
        guard = RuntimeGuard("t")
        assert isinstance(guard.exception(StopReason.DEADLINE), DeadlineExceeded)
        assert isinstance(guard.exception(StopReason.CANCELLED), Cancelled)
        assert isinstance(guard.exception(StopReason.MEMORY), MemoryBudgetExceeded)

    def test_exception_carries_stats(self):
        error = guard_exception(StopReason.DEADLINE, "late", stats={"x": 1})
        assert isinstance(error, BudgetError)
        assert error.stats == {"x": 1}
        assert error.stopped_reason == "deadline"


class TestNullGuard:
    def test_singleton_never_trips(self):
        assert NULL_GUARD.check() is None
        NULL_GUARD.checkpoint()
        assert NULL_GUARD.remaining_ms() is None
        assert not NULL_GUARD.active

    def test_null_guard_state_is_shared_and_harmless(self):
        before = NULL_GUARD.checkpoints
        NULL_GUARD.check()
        assert NULL_GUARD.checkpoints == before  # check() is a constant no-op


class TestFromConfig:
    def test_unbudgeted_config_yields_null_guard(self):
        assert RuntimeGuard.from_config(ChaseConfig(), "chase") is NULL_GUARD

    def test_none_config_yields_null_guard(self):
        # A caller with no config at all gets the inactive guard too.
        assert RuntimeGuard.from_config(None, "fc-search") is NULL_GUARD

    def test_wall_budget_yields_active_guard(self):
        guard = RuntimeGuard.from_config(ChaseConfig(wall_ms=50), "chase")
        assert guard.active
        assert guard.engine == "chase"
        assert guard.deadline is not None

    def test_explicit_token_is_used(self):
        token = CancelToken()
        guard = RuntimeGuard.from_config(ChaseConfig(cancel_token=token), "chase")
        assert guard.token is token


class TestConfigValidation:
    def test_negative_wall_ms_rejected(self):
        with pytest.raises(ValueError, match="wall_ms"):
            ChaseConfig(wall_ms=-1)

    def test_zero_max_rss_rejected(self):
        with pytest.raises(ValueError, match="max_rss_mb"):
            ChaseConfig(max_rss_mb=0)

    def test_guard_fields_shared_by_the_base(self):
        config = BudgetedConfig(wall_ms=10, max_rss_mb=256)
        assert config.wall_ms == 10
        assert config.max_rss_mb == 256
        assert config.cancel_token is None

    def test_with_overrides_revalidates(self):
        with pytest.raises(ValueError, match="wall_ms"):
            ChaseConfig().with_overrides(wall_ms=-5)


class TestCancellationScope:
    def test_scope_installs_and_clears_the_ambient_token(self):
        assert ambient_cancel_token() is None
        with cancellation_scope(install_signals=False) as token:
            assert ambient_cancel_token() is token
        assert ambient_cancel_token() is None

    def test_guards_pick_up_the_ambient_token(self):
        with cancellation_scope(install_signals=False) as token:
            guard = RuntimeGuard.from_config(ChaseConfig(), "chase")
            assert guard.active
            token.cancel()
            assert guard.check() is StopReason.CANCELLED

    def test_scopes_nest_and_restore(self):
        with cancellation_scope(install_signals=False) as outer:
            with cancellation_scope(install_signals=False) as inner:
                assert ambient_cancel_token() is inner
            assert ambient_cancel_token() is outer

    def test_explicit_config_token_beats_the_ambient_one(self):
        mine = CancelToken()
        with cancellation_scope(install_signals=False):
            guard = RuntimeGuard.from_config(
                ChaseConfig(cancel_token=mine), "chase"
            )
            assert guard.token is mine
