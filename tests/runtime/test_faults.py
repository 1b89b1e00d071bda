"""The deterministic fault injector itself: validation, counting,
hook lifecycle, and its interaction with guard construction."""

import pytest

from repro.chase import ChaseConfig
from repro.runtime import (
    NULL_GUARD,
    RuntimeGuard,
    StopReason,
    fault_hook_installed,
)
from repro.testing import ENGINE_NAMES, FaultInjector, inject_fault


class TestValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            with inject_fault("turbo-chase", "deadline"):
                pass

    @pytest.mark.parametrize("reason", ["fixpoint", "budget"])
    def test_engine_decided_reasons_cannot_be_injected(self, reason):
        with pytest.raises(ValueError, match="only guard reasons"):
            with inject_fault("chase", reason):
                pass

    def test_garbage_reason_rejected(self):
        with pytest.raises(ValueError):
            with inject_fault("chase", "oom"):
                pass

    def test_checkpoint_index_must_be_positive(self):
        with pytest.raises(ValueError, match="at_checkpoint"):
            with inject_fault("chase", "deadline", at_checkpoint=0):
                pass

    def test_string_reason_coerced_to_enum(self):
        with inject_fault("rewrite", "memory") as injector:
            assert injector.reason is StopReason.MEMORY

    def test_every_engine_name_is_accepted(self):
        for engine in ENGINE_NAMES:
            with inject_fault(engine, StopReason.CANCELLED):
                pass


class TestHookLifecycle:
    def test_hook_installed_only_inside_the_scope(self):
        assert not fault_hook_installed()
        with inject_fault("chase", "deadline"):
            assert fault_hook_installed()
        assert not fault_hook_installed()

    def test_hook_cleared_when_the_body_raises(self):
        with pytest.raises(RuntimeError, match="boom"):
            with inject_fault("chase", "deadline"):
                raise RuntimeError("boom")
        assert not fault_hook_installed()

    def test_nesting_is_rejected(self):
        with inject_fault("chase", "deadline"):
            with pytest.raises(RuntimeError, match="already active"):
                with inject_fault("rewrite", "memory"):
                    pass
        assert not fault_hook_installed()


class TestCounting:
    def test_trips_at_the_requested_checkpoint(self):
        injector = FaultInjector("chase", StopReason.DEADLINE, at_checkpoint=3)
        assert injector("chase") is None
        assert injector("chase") is None
        assert injector("chase") is StopReason.DEADLINE
        assert injector.tripped
        # ...and keeps returning the reason from there on.
        assert injector("chase") is StopReason.DEADLINE

    def test_other_engines_pass_through_and_do_not_count(self):
        injector = FaultInjector("rewrite", StopReason.CANCELLED, at_checkpoint=2)
        for _ in range(10):
            assert injector("chase") is None
        assert injector.calls == 0
        assert injector("rewrite") is None
        assert injector("rewrite") is StopReason.CANCELLED

    def test_repr_is_informative(self):
        injector = FaultInjector("chase", StopReason.MEMORY)
        assert "chase" in repr(injector)
        injector("chase")
        assert "tripped" in repr(injector)


class TestGuardInteraction:
    def test_hook_forces_an_active_guard_on_unbudgeted_configs(self):
        # Without the hook an unbudgeted config gets NULL_GUARD and a
        # fault could never reach the engine.
        assert RuntimeGuard.from_config(ChaseConfig(), "chase") is NULL_GUARD
        with inject_fault("chase", "deadline"):
            guard = RuntimeGuard.from_config(ChaseConfig(), "chase")
            assert guard.active
            assert guard.check() is StopReason.DEADLINE

    def test_uninstalled_hook_stops_counting(self):
        # The trip was scheduled for checkpoint 2, but the scope closed
        # after checkpoint 1 — the guard must stay clean.
        with inject_fault("fc-search", "memory", at_checkpoint=2):
            guard = RuntimeGuard.from_config(ChaseConfig(), "fc-search")
            assert guard.check() is None
        assert guard.check() is None

    def test_injection_respects_the_engine_name_altitude(self):
        # A pipeline fault must not trip the pipeline's inner chases.
        with inject_fault("pipeline", "deadline"):
            chase_guard = RuntimeGuard.from_config(ChaseConfig(), "chase")
            assert chase_guard.check() is None
            pipe_guard = RuntimeGuard.from_config(ChaseConfig(), "pipeline")
            assert pipe_guard.check() is StopReason.DEADLINE
