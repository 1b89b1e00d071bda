"""Runtime guards: wall-clock deadlines, cooperative cancellation,
memory ceilings — the shared safety net of every long-running engine.

>>> from repro.runtime import RuntimeGuard, StopReason
>>> from repro.chase import ChaseConfig
>>> guard = RuntimeGuard.from_config(ChaseConfig(wall_ms=50), "chase")
>>> guard.check() is None
True

See :mod:`repro.runtime.guard` for the full story, and
:mod:`repro.testing.faults` for the deterministic fault injector the
test battery drives the layer with.
"""

from .guard import (
    GUARD_REASONS,
    NULL_GUARD,
    RSS_POLL_INTERVAL,
    CancelToken,
    Deadline,
    GuardTripped,
    RuntimeGuard,
    StopReason,
    cancellation_scope,
    current_rss_mb,
    fault_hook_installed,
    guard_exception,
    set_fault_hook,
)

__all__ = [
    "GUARD_REASONS",
    "NULL_GUARD",
    "RSS_POLL_INTERVAL",
    "CancelToken",
    "Deadline",
    "GuardTripped",
    "RuntimeGuard",
    "StopReason",
    "cancellation_scope",
    "current_rss_mb",
    "fault_hook_installed",
    "guard_exception",
    "set_fault_hook",
]
