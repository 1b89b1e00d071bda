"""Admission control for ``repro serve``: the overload-resilience core.

PR 8's server submitted every accepted request straight into an
unbounded ``ThreadPoolExecutor`` queue, so a burst (or one hostile
tenant) grew the backlog without bound, blew the p99 SLA for everyone,
and eventually the RSS ceiling killed the process rather than the
offending work.  This module replaces that queue with three explicit
mechanisms, all deterministic and all observable through the server's
``metrics`` op:

* **Bounded queues.**  One global bound (``max_pending``) on requests
  admitted but not yet dispatched, plus a per-tenant bound
  (``tenant_max_pending``).  A request that would exceed either is
  *shed immediately* — the client gets a well-formed ``{"ok": false,
  "error": "overloaded", "retry_after_ms": ...}`` envelope in
  microseconds instead of a response that arrives seconds past its
  SLA.  ``retry_after_ms`` is a backlog-scaled estimate from the
  dispatcher's service-time EWMA, so clients back off proportionally
  to the actual overload.

* **Round-robin dispatch.**  Tenant queues are drained in a
  deterministic cyclic order (first-queued first; one request per
  tenant per turn), and no tenant may hold more than
  ``tenant_max_inflight`` worker slots — one hostile tenant can fill
  only its own queue, never the pool.  Dispatch order is a pure
  function of the submit/complete history, which is what the
  hypothesis battery in ``tests/serve/test_admission.py`` pins.

* **Queue deadlines.**  Every admitted request carries an
  already-ticking :class:`~repro.runtime.Deadline` built from its
  effective ``wall_ms`` SLA, handed through to the worker's
  :class:`~repro.runtime.RuntimeGuard` — so time spent queued counts
  against the request's wall budget.  A request whose deadline has
  already expired when its turn comes is shed at dispatch with
  ``stopped_reason: "deadline"`` and never touches a worker: under
  overload the pool only runs requests that can still be answered in
  time.

The controller is plain thread-safe Python with no asyncio dependency:
the server calls :meth:`AdmissionController.try_admit` and
:meth:`~AdmissionController.next_dispatch` from its event loop and
:meth:`~AdmissionController.complete` from job callbacks, and the test
batteries drive the same three methods synchronously.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..runtime import Deadline
from .config import ServeConfig

#: Shed-cause vocabulary (the ``error`` field of a shed response).
SHED_OVERLOADED = "overloaded"
SHED_DEADLINE = "queue_deadline"
SHED_DRAINING = "draining"

#: Bounds on the ``retry_after_ms`` hint.
MIN_RETRY_AFTER_MS = 25.0
MAX_RETRY_AFTER_MS = 10_000.0
#: Service-time prior before any request has completed.
DEFAULT_SERVICE_MS = 50.0

#: How many dispatch decisions the fairness log keeps (metrics op /
#: starvation assertions in the chaos battery).
DISPATCH_LOG_SIZE = 512


class Pending:
    """One admitted-but-not-yet-dispatched request.

    ``payload`` is opaque to the controller — the server stores its
    connection handle there; the test batteries store whatever they
    need to assert on.
    """

    __slots__ = ("tenant", "rid", "request", "token", "deadline",
                 "enqueued", "payload")

    def __init__(
        self,
        tenant: str,
        rid: Any,
        request: "Optional[Dict[str, Any]]" = None,
        token: Any = None,
        deadline: "Optional[Deadline]" = None,
        payload: Any = None,
    ) -> None:
        self.tenant = tenant
        self.rid = rid
        self.request = request
        self.token = token
        self.deadline = deadline
        self.enqueued = time.monotonic()
        self.payload = payload

    def __repr__(self) -> str:
        return f"Pending({self.tenant!r}, id={self.rid!r})"


class _TenantState:
    """A tenant's queue plus its fairness bookkeeping."""

    __slots__ = ("name", "queue", "inflight", "admitted", "dispatched",
                 "shed")

    def __init__(self, name: str) -> None:
        self.name = name
        self.queue: "Deque[Pending]" = deque()
        self.inflight = 0
        self.admitted = 0
        self.dispatched = 0
        self.shed = 0


class AdmissionController:
    """Bounded queues + round-robin dispatch (module docstring).

    Reads its bounds from a :class:`~repro.serve.config.ServeConfig`,
    which validates them:

    * ``workers`` — the global inflight bound.  The server only submits
      a job to its executor when this controller hands it out, so the
      executor's internal queue stays empty and the *whole* backlog
      lives in these bounded queues.
    * ``max_pending`` — the global bound on admitted-but-undispatched
      requests.  A request that could start immediately (a worker slot
      and its tenant's inflight quota are both free) is always
      admitted — ``0`` means "no queueing at all".
    * ``tenant_max_pending`` — the per-tenant queue bound; ``None``
      inherits ``max_pending``.
    * ``tenant_max_inflight`` — the per-tenant bound on
      concurrently-running requests; ``None`` inherits ``workers`` (no
      per-tenant throttle).
    """

    def __init__(self, config: ServeConfig) -> None:
        self.workers = config.workers
        self.max_pending = config.max_pending
        self.tenant_max_pending = (
            config.max_pending
            if config.tenant_max_pending is None
            else config.tenant_max_pending
        )
        self.tenant_max_inflight = (
            config.workers
            if config.tenant_max_inflight is None
            else config.tenant_max_inflight
        )
        self._lock = threading.Lock()
        # tenant -> state; kept only while the tenant has queued or
        # inflight work, so adversarially many tenant names cannot grow
        # this map without bound.
        self._tenants: "OrderedDict[str, _TenantState]" = OrderedDict()
        # round-robin ring: tenant names with a non-empty queue, in
        # first-queued order (invariant: name in ring <=> queue non-empty)
        self._ring: "Deque[str]" = deque()
        self.pending_total = 0
        self.inflight_total = 0
        self.pending_high_water = 0
        self.admitted = 0
        self.dispatched = 0
        self.completed = 0
        self.shed_counts: Dict[str, int] = {
            SHED_OVERLOADED: 0, SHED_DEADLINE: 0, SHED_DRAINING: 0,
        }
        self.dispatch_log: "Deque[str]" = deque(maxlen=DISPATCH_LOG_SIZE)
        self._service_ms_ewma: "Optional[float]" = None

    # -- admission -----------------------------------------------------

    def _state(self, tenant: str) -> _TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            state = _TenantState(tenant)
            self._tenants[tenant] = state
        return state

    def _prune(self, state: _TenantState) -> None:
        if not state.queue and state.inflight == 0:
            self._tenants.pop(state.name, None)

    def try_admit(self, entry: Pending) -> "Optional[str]":
        """Admit *entry* (returns ``None``) or shed it (returns the reason).

        A request that can start immediately is always admitted;
        otherwise the global and per-tenant pending bounds apply.  The
        caller must follow an admission with :meth:`next_dispatch` —
        admission only queues.
        """
        with self._lock:
            state = self._state(entry.tenant)
            can_run_now = (
                self.inflight_total < self.workers
                and state.inflight < self.tenant_max_inflight
                and self.pending_total == 0
            )
            if not can_run_now and (
                self.pending_total >= self.max_pending
                or len(state.queue) >= self.tenant_max_pending
            ):
                state.shed += 1
                self.shed_counts[SHED_OVERLOADED] += 1
                self._prune(state)
                return SHED_OVERLOADED
            if not state.queue:
                self._ring.append(state.name)
            state.queue.append(entry)
            state.admitted += 1
            self.admitted += 1
            self.pending_total += 1
            self.pending_high_water = max(
                self.pending_high_water, self.pending_total
            )
            return None

    def retry_after_ms(self) -> int:
        """Backlog-scaled backoff hint for a shed response.

        The expected time for the current backlog to drain through the
        pool at the observed service rate, clamped to
        [:data:`MIN_RETRY_AFTER_MS`, :data:`MAX_RETRY_AFTER_MS`].
        """
        with self._lock:
            service = self._service_ms_ewma or DEFAULT_SERVICE_MS
            backlog = self.pending_total + self.inflight_total
        estimate = service * max(1.0, backlog / float(self.workers))
        return int(min(MAX_RETRY_AFTER_MS, max(MIN_RETRY_AFTER_MS, estimate)))

    # -- dispatch ------------------------------------------------------

    def _pop_next_locked(
        self, expired: "List[Pending]"
    ) -> "Optional[Pending]":
        """One round-robin step: the next dispatchable entry, or ``None``.

        Expired-in-queue entries encountered on the way are moved to
        *expired* (shed with ``stopped_reason: "deadline"``) without
        consuming their tenant's turn.
        """
        for _ in range(len(self._ring)):
            name = self._ring[0]
            state = self._tenants[name]
            if state.inflight >= self.tenant_max_inflight:
                # tenant at its inflight quota: skip, keep cyclic order
                self._ring.rotate(-1)
                continue
            entry = None
            while state.queue:
                head = state.queue.popleft()
                self.pending_total -= 1
                # Early-shed an expired head only while other requests
                # wait behind it — then shedding frees capacity someone
                # can still use.  On an otherwise-idle server the entry
                # dispatches anyway and the worker's guard degrades it
                # to the usual truncated partial payload, preserving
                # the single-request deadline contract.
                if (
                    head.deadline is not None
                    and self.pending_total > 0
                    and head.deadline.expired()
                ):
                    state.shed += 1
                    self.shed_counts[SHED_DEADLINE] += 1
                    expired.append(head)
                    continue
                entry = head
                break
            if entry is None:
                # queue drained entirely by expiry
                self._ring.popleft()
                self._prune(state)
                continue
            state.inflight += 1
            state.dispatched += 1
            self.inflight_total += 1
            self.dispatched += 1
            self.dispatch_log.append(name)
            if state.queue:
                self._ring.rotate(-1)
            else:
                self._ring.popleft()
            return entry
        return None

    def next_dispatch(self) -> "Tuple[List[Pending], List[Pending]]":
        """``(run, expired)``: entries to start now, and early sheds.

        Pops entries in round-robin order while worker slots
        are free; entries in *run* are already counted inflight (pair
        each with a later :meth:`complete`).  Entries in *expired*
        passed their queue deadline before a worker could take them —
        answer them with ``stopped_reason: "deadline"`` and do **not**
        call :meth:`complete` for them.
        """
        run: "List[Pending]" = []
        expired: "List[Pending]" = []
        with self._lock:
            while self.inflight_total < self.workers:
                entry = self._pop_next_locked(expired)
                if entry is None:
                    break
                run.append(entry)
        return run, expired

    def complete(
        self, tenant: str, service_ms: "Optional[float]" = None
    ) -> None:
        """A dispatched request finished; frees its worker slot."""
        with self._lock:
            state = self._tenants.get(tenant)
            if state is None or state.inflight <= 0:
                raise ValueError(
                    f"complete() without a matching dispatch for {tenant!r}"
                )
            state.inflight -= 1
            self.inflight_total -= 1
            self.completed += 1
            if service_ms is not None:
                if self._service_ms_ewma is None:
                    self._service_ms_ewma = float(service_ms)
                else:
                    self._service_ms_ewma += 0.2 * (
                        float(service_ms) - self._service_ms_ewma
                    )
            self._prune(state)

    def drain(self) -> "List[Pending]":
        """Empty every queue (server shutdown); returns the shed entries.

        Each is counted under ``"draining"``; the server answers them
        with the draining error so no admitted request ever goes
        unanswered.
        """
        shed: "List[Pending]" = []
        with self._lock:
            while self._ring:
                name = self._ring.popleft()
                state = self._tenants[name]
                while state.queue:
                    entry = state.queue.popleft()
                    self.pending_total -= 1
                    state.shed += 1
                    self.shed_counts[SHED_DRAINING] += 1
                    shed.append(entry)
                self._prune(state)
        return shed

    # -- introspection -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The metrics payload: queue depths, sheds, per-tenant state."""
        with self._lock:
            tenants = {
                name: {
                    "pending": len(state.queue),
                    "inflight": state.inflight,
                    "admitted": state.admitted,
                    "dispatched": state.dispatched,
                    "shed": state.shed,
                }
                for name, state in self._tenants.items()
            }
            return {
                "workers": self.workers,
                "max_pending": self.max_pending,
                "tenant_max_pending": self.tenant_max_pending,
                "tenant_max_inflight": self.tenant_max_inflight,
                "pending": self.pending_total,
                "inflight": self.inflight_total,
                "pending_high_water": self.pending_high_water,
                "saturation": round(
                    self.inflight_total / float(self.workers), 4
                ),
                "admitted": self.admitted,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "shed": dict(self.shed_counts),
                "service_ms_ewma": (
                    None if self._service_ms_ewma is None
                    else round(self._service_ms_ewma, 3)
                ),
                "tenants": tenants,
            }

    def recent_dispatches(self) -> "List[str]":
        """The last :data:`DISPATCH_LOG_SIZE` dispatch decisions, in order."""
        with self._lock:
            return list(self.dispatch_log)

    def __repr__(self) -> str:
        return (
            f"AdmissionController(workers={self.workers}, "
            f"pending={self.pending_total}/{self.max_pending}, "
            f"inflight={self.inflight_total})"
        )
