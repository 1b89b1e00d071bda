"""Deterministic fault injection for the runtime-guard layer.

Wall-clock, memory, and signal faults are miserable to reproduce in
tests: a deadline test that actually sleeps is slow *and* flaky, an RSS
test depends on the allocator, a SIGINT test on scheduler timing.  The
injector sidesteps all of that by tripping the guard *logically*: it
installs a process-wide hook (:func:`repro.runtime.set_fault_hook`)
that every active :class:`~repro.runtime.RuntimeGuard` consults at
every checkpoint, and returns the configured
:class:`~repro.runtime.StopReason` at exactly the K-th checkpoint of
the named engine.  From the engine's point of view the stop is
indistinguishable from the real thing, so one parametrised battery
covers every ``(engine, reason, policy)`` cell of the contract:
partial result flagged incomplete under ``OnBudget.RETURN``, typed
exception carrying ``.stats`` under ``OnBudget.RAISE``.

While a hook is installed,
:meth:`~repro.runtime.RuntimeGuard.from_config` always builds an
*active* guard — faults reach engines whose configs carry no
wall/memory budgets at all.

>>> from repro.testing import inject_fault
>>> from repro.chase import chase
>>> with inject_fault("chase", "deadline") as injector:
...     result = chase(database, theory)          # doctest: +SKIP
>>> result.stopped_reason                          # doctest: +SKIP
<StopReason.DEADLINE: 'deadline'>
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..runtime.guard import (
    GUARD_REASONS,
    StopReason,
    fault_hook_installed,
    set_fault_hook,
)

#: The guard names engines register under (``RuntimeGuard.from_config``'s
#: ``engine`` argument) — the valid targets of :func:`inject_fault`.
ENGINE_NAMES = ("chase", "rewrite", "fc-search", "pipeline")


class FaultInjector:
    """The hook object: counts checkpoints, trips at the K-th.

    Attributes
    ----------
    engine:
        Which engine's checkpoints count (others pass through).
    reason:
        The :class:`~repro.runtime.StopReason` to inject — one of the
        guard reasons (``deadline``/``cancelled``/``memory``).
    at_checkpoint:
        1-based checkpoint index at which to trip; every checkpoint
        from there on returns the reason (guards are sticky anyway).
    calls:
        Checkpoints observed for *engine* so far (diagnostic).
    tripped:
        Whether the fault has fired at least once.
    """

    __slots__ = ("engine", "reason", "at_checkpoint", "calls", "tripped")

    def __init__(self, engine: str, reason: StopReason, at_checkpoint: int = 1):
        self.engine = engine
        self.reason = reason
        self.at_checkpoint = at_checkpoint
        self.calls = 0
        self.tripped = False

    def __call__(self, engine_name: str) -> "Optional[StopReason]":
        if engine_name != self.engine:
            return None
        self.calls += 1
        if self.calls >= self.at_checkpoint:
            self.tripped = True
            return self.reason
        return None

    def __repr__(self) -> str:
        state = "tripped" if self.tripped else f"{self.calls} calls"
        return (
            f"FaultInjector({self.engine!r}, {self.reason.value!r}, "
            f"at={self.at_checkpoint}, {state})"
        )


@contextmanager
def inject_fault(
    engine: str,
    reason: "StopReason | str",
    at_checkpoint: int = 1,
) -> "Iterator[FaultInjector]":
    """Trip *engine*'s guard with *reason* at its K-th checkpoint.

    The hook is installed for the dynamic extent of the ``with`` block
    and unconditionally removed on exit.  Only one injector can be
    active at a time (the hook is process-wide); nesting raises.

    Parameters
    ----------
    engine:
        One of :data:`ENGINE_NAMES`.
    reason:
        A guard :class:`~repro.runtime.StopReason` (or its string
        value): ``deadline``, ``cancelled``, or ``memory`` —
        ``fixpoint`` and ``budget`` are decided by the engines
        themselves and cannot be injected.
    at_checkpoint:
        1-based checkpoint index to trip at (default: the first).
    """
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    stop = StopReason(reason)
    if stop not in GUARD_REASONS:
        raise ValueError(
            f"only guard reasons can be injected "
            f"({', '.join(r.value for r in GUARD_REASONS)}), got {stop.value!r}"
        )
    if at_checkpoint < 1:
        raise ValueError(f"at_checkpoint must be >= 1, got {at_checkpoint}")
    if fault_hook_installed():
        raise RuntimeError("a fault injector is already active (no nesting)")
    injector = FaultInjector(engine, stop, at_checkpoint)
    set_fault_hook(injector)
    try:
        yield injector
    finally:
        set_fault_hook(None)


# ----------------------------------------------------------------------
# Serve-side worker faults (the chaos battery's levers)
# ----------------------------------------------------------------------

#: Valid :class:`ServeFault` modes.
SERVE_FAULT_MODES = ("slow", "stuck")


class ServeFault:
    """A worker-pool fault: slow down or wedge matching requests.

    Installed as the serve fault hook
    (:func:`repro.serve.set_serve_fault_hook`), so it runs on the pool
    thread at the top of :func:`~repro.serve.execute_request` — after
    dispatch, before any engine work — which is exactly where a
    slow/wedged worker hurts: it occupies a pool slot while the
    admission queues back up behind it.

    Modes
    -----
    ``slow``:
        Sleep ``delay_ms`` before letting the request run — a worker
        that is merely overloaded.
    ``stuck``:
        Block until the request's :class:`~repro.runtime.CancelToken`
        trips (client ``cancel`` op, disconnect, or shutdown drain),
        bounded by ``timeout_s`` as a test-hang safety net — a worker
        wedged on something only cancellation can unwind.

    ``ops`` / ``tenants`` restrict which requests are hit (``None`` =
    all); ``max_hits`` bounds how many requests are hit in total, so a
    battery can wedge exactly K workers and keep the rest honest.
    """

    __slots__ = ("mode", "delay_ms", "ops", "tenants", "max_hits",
                 "timeout_s", "hits")

    def __init__(
        self,
        mode: str,
        delay_ms: float = 50.0,
        ops: "Optional[tuple]" = None,
        tenants: "Optional[tuple]" = None,
        max_hits: "Optional[int]" = None,
        timeout_s: float = 30.0,
    ) -> None:
        if mode not in SERVE_FAULT_MODES:
            raise ValueError(
                f"unknown serve fault mode {mode!r}; expected one of "
                f"{SERVE_FAULT_MODES}"
            )
        if delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
        self.mode = mode
        self.delay_ms = delay_ms
        self.ops = None if ops is None else tuple(ops)
        self.tenants = None if tenants is None else tuple(tenants)
        self.max_hits = max_hits
        self.timeout_s = timeout_s
        self.hits = 0

    def __call__(self, request: "Dict[str, Any]", token: Any) -> None:
        if self.ops is not None and request.get("op") not in self.ops:
            return
        if (
            self.tenants is not None
            and request.get("tenant", "default") not in self.tenants
        ):
            return
        if self.max_hits is not None and self.hits >= self.max_hits:
            return
        self.hits += 1
        if self.mode == "slow":
            time.sleep(self.delay_ms / 1000.0)
        else:  # stuck: only cancellation (or the safety net) frees us
            token.wait(self.timeout_s)

    def __repr__(self) -> str:
        return f"ServeFault({self.mode!r}, hits={self.hits})"


@contextmanager
def inject_serve_fault(mode: str, **kwargs: Any) -> "Iterator[ServeFault]":
    """Install a :class:`ServeFault` for the extent of the block.

    The hook is process-wide (one per process, like
    :func:`inject_fault`); nesting raises.  Arguments beyond *mode* are
    forwarded to :class:`ServeFault`.
    """
    from ..serve.jobs import set_serve_fault_hook

    fault = ServeFault(mode, **kwargs)
    previous = set_serve_fault_hook(fault)
    if previous is not None:
        set_serve_fault_hook(previous)
        raise RuntimeError("a serve fault is already active (no nesting)")
    try:
        yield fault
    finally:
        set_serve_fault_hook(None)
