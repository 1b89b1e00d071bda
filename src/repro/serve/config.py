"""Server configuration: :class:`ServeConfig` on the BudgetedConfig contract.

The inherited guard fields change meaning slightly in service mode —
they become per-request *defaults* rather than one run's budget:

* ``wall_ms`` — the default SLA deadline applied to every request that
  does not carry its own ``params.wall_ms``.  Each request gets its own
  :class:`~repro.runtime.RuntimeGuard`, so one slow tenant cannot eat
  another tenant's deadline.
* ``max_rss_mb`` — the shared soft RSS ceiling.  RSS is a per-process
  quantity, so every in-flight request polls the same number; whichever
  requests are at a checkpoint when the ceiling is crossed degrade to a
  partial result with ``stopped_reason: "memory"``.
* ``on_budget`` — pinned to :attr:`~repro.config.OnBudget.RETURN`:
  a service must degrade to well-formed partial payloads, never unwind
  a worker with a budget exception.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from ..config import BudgetedConfig, OnBudget

#: Upper bound on a single protocol line (theories and databases travel
#: inline); a guard against a stray client streaming garbage, not a
#: tight limit.
MAX_LINE_BYTES = 8 * 1024 * 1024


@dataclasses.dataclass
class ServeConfig(BudgetedConfig):
    """Configuration for ``repro serve`` (see the module docstring).

    Attributes
    ----------
    host / port:
        TCP bind address.  ``port=0`` binds an ephemeral port; the
        readiness line reports the actual one.
    path:
        Unix-domain socket path.  When set, the server listens there
        instead of TCP.
    workers:
        Size of the thread worker pool jobs are dispatched to.
    max_sessions:
        Bound on concurrently-warm tenant sessions; the least recently
        used session is evicted (with its caches and views) when a new
        tenant would exceed it.
    drain_ms:
        How long shutdown waits for in-flight requests to finish
        before cancelling their tokens and unwinding them cooperatively.
    max_pending:
        Global bound on requests admitted but not yet dispatched to a
        worker.  A request arriving past the bound is *shed*: answered
        immediately with ``{"ok": false, "error": "overloaded",
        "retry_after_ms": ...}`` instead of queued.
    tenant_max_pending:
        Per-tenant queue-depth bound; ``None`` inherits ``max_pending``
        (i.e. only the global bound applies).
    tenant_max_inflight:
        Per-tenant bound on concurrently-running requests; ``None``
        inherits ``workers`` (no per-tenant throttle).  Combined with
        weighted round-robin dispatch this keeps one hostile tenant
        from occupying the whole pool.
    tenant_weights:
        Optional ``{tenant: weight}`` map for the round-robin
        dispatcher; a tenant with weight *w* drains up to *w*
        consecutive requests per turn.  Unlisted tenants get weight 1.
    max_line_bytes:
        Upper bound on one protocol line.  A connection that sends a
        longer line gets ``{"ok": false, "error": "request_too_large"}``
        and stays usable; the oversized line is discarded without ever
        being buffered whole.
    """

    host: str = "127.0.0.1"
    port: int = 0
    path: "Optional[str]" = None
    workers: int = 4
    max_sessions: int = 64
    drain_ms: float = 5000.0
    max_pending: int = 1024
    tenant_max_pending: "Optional[int]" = None
    tenant_max_inflight: "Optional[int]" = None
    tenant_weights: "Optional[Dict[str, int]]" = None
    max_line_bytes: int = MAX_LINE_BYTES

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.on_budget is not OnBudget.RETURN:
            raise ValueError(
                "ServeConfig requires on_budget=RETURN: the server answers "
                "budget trips with partial payloads, it never raises"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_sessions < 1:
            raise ValueError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.drain_ms < 0:
            raise ValueError(f"drain_ms must be >= 0, got {self.drain_ms}")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_pending < 0:
            raise ValueError(
                f"max_pending must be >= 0, got {self.max_pending}"
            )
        if self.tenant_max_pending is not None and self.tenant_max_pending < 0:
            raise ValueError(
                f"tenant_max_pending must be >= 0, got "
                f"{self.tenant_max_pending}"
            )
        if (
            self.tenant_max_inflight is not None
            and self.tenant_max_inflight < 1
        ):
            raise ValueError(
                f"tenant_max_inflight must be >= 1, got "
                f"{self.tenant_max_inflight}"
            )
        if self.max_line_bytes < 1024:
            raise ValueError(
                f"max_line_bytes must be >= 1024, got {self.max_line_bytes}"
            )
