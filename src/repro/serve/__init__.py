"""``repro serve`` — the warm multi-tenant service front-end.

A long-running server that keeps the amortizable state the one-shot
CLI throws away — parsed theories, compiled join plans, subsume/type
memos, finished rewriting artifacts, live incremental views — warm in
per-tenant :class:`~repro.serve.session.TheorySession`s, and answers
the same requests with the same JSON payloads as ``repro --json``.

Wire protocol (one JSON object per line, both directions)
---------------------------------------------------------
Request::

    {"id": 7, "op": "certain", "tenant": "team-a",
     "theory": "E(x,y) -> exists z. E(y,z)", "database": "E(a,b)",
     "query": "E(x,y), E(y,z)", "free": [],
     "params": {"depth": 12, "wall_ms": 500}}

Response: the payload of :func:`~repro.serve.jobs.execute_request`
(``command``, ``status``, ``counts``, ``stopped_reason``, ``stats``,
``exit_code``, ...) plus the envelope keys ``id`` (echoed), ``ok``
(``status != "error"``), ``tenant``, and ``cached`` (on
rewriting-artifact hits).  The CLI runs its commands through the same
function, so its ``--json`` object is this response without the
envelope.  Responses to pipelined requests may arrive out of order —
match by ``id``.  Guard trips degrade, never error: a request past its
``wall_ms`` deadline still gets a well-formed payload with
``stopped_reason: "deadline"`` and ``exit_code: 2`` from the shared
exit-code table.

Ops: ``ping``, ``chase``, ``certain``, ``rewrite``, ``classify``,
``countermodel``, ``fc-search``, ``skeleton``, ``view-create``,
``view-update``, ``view-query``, ``view-close``, ``session-close``,
``cancel`` (``target``: the id to cancel), ``stats``, ``health``
(liveness + queue depth), ``metrics`` (full admission/shed/tenant
snapshot), ``shutdown``.

Overload: engine requests pass through the
:class:`~repro.serve.admission.AdmissionController` (bounded global
and per-tenant queues, weighted round-robin dispatch).  Over-limit
requests are shed immediately with ``{"ok": false, "error":
"overloaded", "retry_after_ms": ...}``; an admitted request's
``wall_ms`` deadline starts ticking at admission, so queue time counts
and a request that expires before dispatch is shed with
``stopped_reason: "deadline"``.  :meth:`ServeClient.request_with_retry`
is the matching client-side backoff loop.

The names of :mod:`~repro.serve.server` and :mod:`~repro.serve.client`
load on first use, because they import :mod:`asyncio` and the CLI's
engine commands import this package.
"""

import importlib

from .admission import AdmissionController, Pending
from .config import ServeConfig
from .jobs import JOB_HANDLERS, execute_request, set_serve_fault_hook
from .session import SessionRegistry, TheorySession

#: Names loaded on first access, each from its module.
_LAZY = {
    "IDEMPOTENT_OPS": "client",
    "ServeClient": "client",
    "ServeOverloaded": "client",
    "ServeTimeout": "client",
    "ReproServer": "server",
    "ServerThread": "server",
    "WORKER_THREAD_PREFIX": "server",
    "run_server": "server",
    "worker_thread_count": "server",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)

__all__ = [
    "AdmissionController",
    "IDEMPOTENT_OPS",
    "JOB_HANDLERS",
    "Pending",
    "ReproServer",
    "ServeClient",
    "ServeConfig",
    "ServeOverloaded",
    "ServeTimeout",
    "ServerThread",
    "SessionRegistry",
    "TheorySession",
    "WORKER_THREAD_PREFIX",
    "execute_request",
    "run_server",
    "set_serve_fault_hook",
    "worker_thread_count",
]
