"""The unified runtime-guard layer.

Every engine in this library runs on undecidable problems (chase
termination, BDD rewriting, finite-model search), so count-based
budgets (``max_depth``, ``max_steps``, ``max_nodes``) were never
enough: an adversarial theory can hang for hours inside one round,
exhaust the machine's memory, or die to Ctrl-C with a raw traceback
and no partial result.  This module is the one place the three
*environmental* stop causes live:

* :class:`Deadline` — a monotonic wall-clock budget
  (``BudgetedConfig.wall_ms``), checked at every engine checkpoint:
  per chase round *and* per trigger batch, per rewrite worklist pop,
  per search node expansion, per pipeline attempt.
* :class:`CancelToken` — cooperative cancellation on a
  :class:`threading.Event`.  The CLI installs SIGINT/SIGTERM handlers
  (:func:`cancellation_scope`) that trip the token it runs its request
  under, so an interrupted run returns its partial result and stats
  instead of a traceback.
* a soft memory ceiling (``BudgetedConfig.max_rss_mb``) — peak RSS
  polled cheaply every :data:`RSS_POLL_INTERVAL` checkpoints via
  ``resource.getrusage``, degrading gracefully to a partial result.

All three obey the engine's existing
:class:`~repro.config.OnBudget` policy: ``RETURN`` yields a partial
result whose ``stopped_reason`` names the cause, ``RAISE`` raises the
matching :class:`~repro.errors.ReproError` subclass
(:class:`~repro.errors.DeadlineExceeded`,
:class:`~repro.errors.Cancelled`,
:class:`~repro.errors.MemoryBudgetExceeded`) carrying the partial
stats snapshot.

The engines interact with the layer through one object:
:class:`RuntimeGuard`.  A guard is built once per run
(:meth:`RuntimeGuard.from_config`) and its :meth:`~RuntimeGuard.check`
is called at every checkpoint.  When the config carries no deadline,
ceiling, or token — and no fault injector is installed — the factory
returns the shared :data:`NULL_GUARD`, whose ``check`` is a constant
no-op, so unguarded runs pay one attribute load per checkpoint.  An
active guard that never trips changes no result and no work counter
(``tests/runtime/test_engine_guards.py``); what it costs in time has
no gate.  An engine that runs another engine hands it its guard as
config fields (:meth:`RuntimeGuard.fields`): the inner run polls the
same deadline, token and ceiling.

Deterministic fault injection for tests lives in
:mod:`repro.testing.faults`; it installs itself through
:func:`set_fault_hook` so this module never imports test code.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from contextlib import contextmanager
from enum import Enum
from typing import Any, Callable, Dict, Iterator, Optional

from ..errors import Cancelled, DeadlineExceeded, MemoryBudgetExceeded, ReproError

try:  # pragma: no cover - resource is POSIX-only
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

#: How many checkpoints pass between two peak-RSS polls (getrusage is
#: cheap but not free; deadline and cancellation are checked every
#: checkpoint).
RSS_POLL_INTERVAL = 64


class StopReason(str, Enum):
    """Why an engine run ended — the uniform ``stopped_reason`` vocabulary.

    Attributes
    ----------
    FIXPOINT:
        Natural completion: the chase saturated, the rewriting closed,
        the search settled (model found or bounded space exhausted),
        the pipeline produced its verdict.
    BUDGET:
        A count budget ran out (``max_depth``, ``max_facts``,
        ``max_steps``, ``max_queries``, ``max_nodes``, or the
        pipeline's (depth, η) schedule).
    DEADLINE:
        The wall-clock budget (``wall_ms``) expired.
    CANCELLED:
        The run's :class:`CancelToken` was tripped (Ctrl-C / SIGTERM
        under the CLI, or programmatically).
    MEMORY:
        Peak RSS crossed the soft ceiling (``max_rss_mb``).
    """

    FIXPOINT = "fixpoint"
    BUDGET = "budget"
    DEADLINE = "deadline"
    CANCELLED = "cancelled"
    MEMORY = "memory"


#: The three reasons a :class:`RuntimeGuard` can report (FIXPOINT and
#: BUDGET are decided by the engines themselves).
GUARD_REASONS = (StopReason.DEADLINE, StopReason.CANCELLED, StopReason.MEMORY)


class GuardTripped(Exception):
    """Internal control flow: a checkpoint deep inside an engine round
    tripped.  *Not* a :class:`~repro.errors.ReproError` — engines catch
    it at their run boundary and translate it into their configured
    ``on_budget`` behaviour (partial result or typed exception); it
    must never escape a public entry point.
    """

    def __init__(self, reason: StopReason):
        super().__init__(reason.value)
        self.reason = reason


def guard_exception(
    reason: StopReason, message: str, stats: Any = None
) -> ReproError:
    """The typed exception for a guard stop (used under ``OnBudget.RAISE``)."""
    cls = {
        StopReason.DEADLINE: DeadlineExceeded,
        StopReason.CANCELLED: Cancelled,
        StopReason.MEMORY: MemoryBudgetExceeded,
    }[reason]
    return cls(message, stats=stats)


class Deadline:
    """A monotonic wall-clock budget.

    Measured with :func:`time.monotonic`, so system clock adjustments
    cannot extend or shorten a run.  A budget of ``0`` is valid and
    expires at the first check (useful in tests and smoke scripts).
    """

    __slots__ = ("started", "expires_at", "wall_ms")

    def __init__(self, wall_ms: float):
        if wall_ms < 0:
            raise ValueError(f"wall_ms must be >= 0, got {wall_ms}")
        self.wall_ms = wall_ms
        self.started = time.monotonic()
        self.expires_at = self.started + wall_ms / 1000.0

    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def remaining_ms(self) -> float:
        """Milliseconds left (clamped at 0)."""
        return max(0.0, (self.expires_at - time.monotonic()) * 1000.0)

    def __repr__(self) -> str:
        return f"Deadline({self.wall_ms}ms, {self.remaining_ms():.0f}ms left)"


class CancelToken:
    """Cooperative cancellation: a thread-safe latch engines poll.

    Built on :class:`threading.Event`, so any thread (or a signal
    handler) may trip it while an engine runs on another.  Tokens are
    one-shot by design — a cancelled run is over; start the next run
    with a fresh token.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Trip the token (idempotent, safe from signal handlers)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: "Optional[float]" = None) -> bool:
        """Block until cancelled (or *timeout* seconds); returns the state."""
        return self._event.wait(timeout)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "live"
        return f"CancelToken({state})"


def current_rss_mb() -> "Optional[float]":
    """Peak resident-set size of this process in MiB.

    ``resource.getrusage`` reports the high-water mark (kilobytes on
    Linux, bytes on macOS); returns ``None`` where :mod:`resource` is
    unavailable (the memory guard then degrades to inactive).
    """
    if _resource is None:  # pragma: no cover - non-POSIX only
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - platform-specific
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


# ----------------------------------------------------------------------
# Fault-injection hook (implemented by repro.testing.faults)
# ----------------------------------------------------------------------

#: When set, called as ``hook(engine_name)`` at every checkpoint of an
#: *active* guard; returning a :class:`StopReason` trips the guard.
_FAULT_HOOK: "Optional[Callable[[str], Optional[StopReason]]]" = None


def set_fault_hook(
    hook: "Optional[Callable[[str], Optional[StopReason]]]",
) -> None:
    """Install (or clear, with ``None``) the process-wide fault hook.

    Test infrastructure only — see :mod:`repro.testing.faults`.  While
    a hook is installed, :meth:`RuntimeGuard.from_config` always builds
    an active guard, so faults reach engines whose configs carry no
    wall/memory budgets at all.
    """
    global _FAULT_HOOK
    _FAULT_HOOK = hook


def fault_hook_installed() -> bool:
    return _FAULT_HOOK is not None


# ----------------------------------------------------------------------
# The guard itself
# ----------------------------------------------------------------------

class RuntimeGuard:
    """Per-run bundle of deadline, cancellation, and memory ceiling.

    Engines call :meth:`check` at every checkpoint; a non-``None``
    return is the :class:`StopReason` that tripped.  Cancellation and
    the deadline are checked on every call (an ``Event.is_set`` and a
    ``time.monotonic`` — nanoseconds); the RSS poll runs every
    :data:`RSS_POLL_INTERVAL` checkpoints.  Once tripped, a guard stays
    tripped and keeps returning the same reason — engines may observe
    the stop at several altitudes without racing the clock.
    """

    __slots__ = ("engine", "deadline", "token", "max_rss_mb", "checkpoints", "tripped")

    def __init__(
        self,
        engine: str = "unnamed",
        deadline: "Optional[Deadline]" = None,
        token: "Optional[CancelToken]" = None,
        max_rss_mb: "Optional[float]" = None,
    ):
        self.engine = engine
        self.deadline = deadline
        self.token = token
        self.max_rss_mb = max_rss_mb
        self.checkpoints = 0
        self.tripped: "Optional[StopReason]" = None

    @property
    def active(self) -> bool:
        return True

    def check(self) -> "Optional[StopReason]":
        """One checkpoint: the tripped :class:`StopReason`, or ``None``."""
        if self.tripped is not None:
            return self.tripped
        self.checkpoints += 1
        hook = _FAULT_HOOK
        if hook is not None:
            injected = hook(self.engine)
            if injected is not None:
                self.tripped = injected
                return injected
        if self.token is not None and self.token.cancelled:
            self.tripped = StopReason.CANCELLED
            return self.tripped
        if self.deadline is not None and self.deadline.expired():
            self.tripped = StopReason.DEADLINE
            return self.tripped
        if self.max_rss_mb is not None and self.checkpoints % RSS_POLL_INTERVAL == 1:
            rss = current_rss_mb()
            if rss is not None and rss > self.max_rss_mb:
                self.tripped = StopReason.MEMORY
                return self.tripped
        return None

    def checkpoint(self) -> None:
        """Like :meth:`check`, but raises :class:`GuardTripped` — for
        call sites deep inside a round where returning is awkward."""
        reason = self.check()
        if reason is not None:
            raise GuardTripped(reason)

    def fields(self) -> "Dict[str, Any]":
        """The guard's set limits, as overrides for an inner engine's config.

        An inner engine built with them polls the same
        :class:`Deadline`, :class:`CancelToken` and memory ceiling, so
        one stop ends the inner run and the outer one alike.  A limit
        this guard lacks is left out, so the inner config keeps its own.
        """
        limits = (
            ("deadline", self.deadline),
            ("cancel_token", self.token),
            ("max_rss_mb", self.max_rss_mb),
        )
        return {name: value for name, value in limits if value is not None}

    def describe(self, reason: StopReason) -> str:
        """A one-line human message for the tripped *reason*."""
        if reason is StopReason.DEADLINE:
            wall = self.deadline.wall_ms if self.deadline is not None else "?"
            return f"{self.engine}: wall-clock budget of {wall}ms expired"
        if reason is StopReason.CANCELLED:
            return f"{self.engine}: run cancelled"
        if reason is StopReason.MEMORY:
            return (
                f"{self.engine}: peak RSS exceeded the soft ceiling of "
                f"{self.max_rss_mb}MB"
            )
        return f"{self.engine}: stopped ({reason.value})"

    def exception(self, reason: StopReason, stats: Any = None) -> ReproError:
        """The typed exception for *reason*, message prebuilt."""
        return guard_exception(reason, self.describe(reason), stats=stats)

    @classmethod
    def from_config(cls, config: Any, engine: str) -> "RuntimeGuard":
        """Build the run's guard from a :class:`~repro.config.BudgetedConfig`.

        Reads the shared guard fields (``wall_ms``, ``max_rss_mb``,
        ``cancel_token``, ``deadline``) by attribute, so any
        config-like object works.  Returns the shared
        :data:`NULL_GUARD` when nothing could ever trip (no guard
        field set, no fault hook installed); otherwise an active guard.

        A config may carry an already-ticking :class:`Deadline` on
        ``deadline`` instead of a fresh ``wall_ms`` budget; it wins
        over ``wall_ms``.  This is the queue-deadline path of ``repro
        serve``: the admission layer starts the deadline when a request
        is admitted, so time spent queued counts against the request's
        wall budget.
        """
        preset = getattr(config, "deadline", None)
        wall_ms = getattr(config, "wall_ms", None)
        max_rss_mb = getattr(config, "max_rss_mb", None)
        token = getattr(config, "cancel_token", None)
        if (
            preset is None
            and wall_ms is None
            and max_rss_mb is None
            and token is None
            and _FAULT_HOOK is None
        ):
            return NULL_GUARD
        if preset is None:
            preset = None if wall_ms is None else Deadline(wall_ms)
        return cls(
            engine=engine,
            deadline=preset,
            token=token,
            max_rss_mb=max_rss_mb,
        )

    def __repr__(self) -> str:
        parts = [self.engine]
        if self.deadline is not None:
            parts.append(repr(self.deadline))
        if self.token is not None:
            parts.append(repr(self.token))
        if self.max_rss_mb is not None:
            parts.append(f"rss<={self.max_rss_mb}MB")
        return f"RuntimeGuard({', '.join(parts)})"


class _NullGuard(RuntimeGuard):
    """The inactive guard: ``check`` always passes, costs one call.

    A singleton (:data:`NULL_GUARD`) shared by every unguarded run, so
    engines thread one code path whether or not budgets are set.
    """

    __slots__ = ()

    @property
    def active(self) -> bool:
        return False

    def check(self) -> "Optional[StopReason]":
        return None

    def checkpoint(self) -> None:
        return None

    def __repr__(self) -> str:
        return "RuntimeGuard(inactive)"


#: The shared inactive guard (see :class:`_NullGuard`).
NULL_GUARD = _NullGuard()


# ----------------------------------------------------------------------
# The CLI's SIGINT/SIGTERM path
# ----------------------------------------------------------------------

@contextmanager
def cancellation_scope() -> "Iterator[CancelToken]":
    """A fresh :class:`CancelToken` that SIGINT/SIGTERM trip.

    The first signal trips the token — an engine run under it unwinds
    cooperatively and returns its partial result — and the second
    raises :class:`KeyboardInterrupt` (the escape hatch when an engine
    is stuck between checkpoints).  The previous handlers are restored
    on exit; off the main thread (where ``signal.signal`` is illegal)
    no handler is installed.
    """
    token = CancelToken()
    previous_handlers = {}

    def _handler(signum, frame):  # pragma: no cover - exercised via CLI
        if token.cancelled:
            raise KeyboardInterrupt
        token.cancel()

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            previous_handlers[signum] = signal.signal(signum, _handler)
    except ValueError:  # pragma: no cover - not the main thread
        previous_handlers.clear()
    try:
        yield token
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
