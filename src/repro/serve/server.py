"""The asyncio front-end: sockets in, pool out, JSON lines both ways.

One :class:`ReproServer` owns

* an asyncio listener (TCP or Unix socket) speaking one JSON object
  per line, pipelined — responses carry the request's ``id`` and may
  complete out of order;
* a ``ThreadPoolExecutor`` of ``config.workers`` threads (named
  ``repro-serve-worker-*``, so tests can assert the pool neither grows
  nor leaks) running :func:`repro.serve.jobs.execute_request`;
* the per-tenant :class:`~repro.serve.session.SessionRegistry`.

Guard wiring: the event loop creates one
:class:`~repro.runtime.CancelToken` per request and remembers it per
connection while the job is in flight.  A ``cancel`` op trips the
token of the targeted ``id``; a client disconnect trips every token
the connection still has in flight — either way the engine unwinds
cooperatively at its next checkpoint and the response (if anyone is
still listening) reports ``stopped_reason: "cancelled"``.

Overload path: engine requests do not go straight to the pool — they
pass through the :class:`~repro.serve.admission.AdmissionController`
(bounded global + per-tenant queues, round-robin dispatch;
see that module's docstring).  An over-limit request is *shed*
immediately with ``{"ok": false, "error": "overloaded",
"retry_after_ms": ...}``; an admitted request starts its
:class:`~repro.runtime.Deadline` at admission, so queue time counts
against its ``wall_ms`` SLA, and a request whose deadline expires
before a worker frees up is shed at dispatch with ``stopped_reason:
"deadline"``.

Shutdown (the ``shutdown`` op, or SIGTERM/SIGINT via
:func:`run_server`) stops accepting, sheds every queued request with
a well-formed draining error, waits up to ``config.drain_ms`` for
in-flight requests, then cancels the stragglers' tokens and waits
for them to unwind before closing the pool — the CLI contract is
SIGTERM → drain → exit 130, and it holds mid-overload.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

from ..payloads import EXIT_ERROR, EXIT_INCOMPLETE, EXIT_INTERRUPTED, EXIT_OK
from ..runtime import CancelToken, Deadline
from .admission import AdmissionController, Pending
from .config import MAX_LINE_BYTES, ServeConfig
from .jobs import execute_request
from .session import SessionRegistry

#: Thread-name prefix of the worker pool (asserted by the fault battery).
WORKER_THREAD_PREFIX = "repro-serve-worker"


def _encode(response: Dict[str, Any]) -> bytes:
    return (json.dumps(response, sort_keys=True, default=str) + "\n").encode()


class _Connection:
    """Per-client write lock plus the in-flight cancel tokens."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.inflight: Dict[Any, list] = {}

    def register(self, rid: Any, token: CancelToken) -> None:
        self.inflight.setdefault(rid, []).append(token)

    def unregister(self, rid: Any, token: CancelToken) -> None:
        tokens = self.inflight.get(rid)
        if tokens is not None:
            try:
                tokens.remove(token)
            except ValueError:
                pass
            if not tokens:
                self.inflight.pop(rid, None)

    def cancel_inflight(self) -> int:
        count = 0
        for tokens in list(self.inflight.values()):
            for token in tokens:
                token.cancel()
                count += 1
        return count

    async def send(self, response: Dict[str, Any]) -> None:
        async with self.write_lock:
            if self.writer.is_closing():
                return
            try:
                self.writer.write(_encode(response))
                await self.writer.drain()
            except (ConnectionError, RuntimeError):
                pass


class _LineReader:
    """A line reader with an explicit length bound and *recovery*.

    ``asyncio.StreamReader.readline`` raises once a line overruns its
    limit and leaves the stream in an awkward half-consumed state, so
    the old loop had no choice but to drop the connection.  This reader
    buffers lines itself: an oversized line is discarded chunk-by-chunk
    (never held in memory whole) up to its terminating newline and
    reported as ``None``, and the connection keeps working — the server
    answers ``request_too_large`` and reads the next line.
    """

    _CHUNK = 65536

    def __init__(self, reader: asyncio.StreamReader, max_line: int) -> None:
        self._reader = reader
        self._max = max_line
        self._buf = bytearray()
        self._eof = False

    async def readline(self) -> "Optional[bytes]":
        """The next line (with newline), ``b""`` at EOF, ``None`` if the
        line exceeded the bound (the line is consumed and discarded)."""
        while True:
            idx = self._buf.find(b"\n")
            if idx != -1:
                line = bytes(self._buf[: idx + 1])
                del self._buf[: idx + 1]
                return None if len(line) > self._max else line
            if self._eof:
                line = bytes(self._buf)
                self._buf.clear()
                return None if len(line) > self._max else line
            if len(self._buf) > self._max:
                survived = await self._discard_line()
                return None if survived else b""
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)

    async def _discard_line(self) -> bool:
        """Drop input up to the next newline; False if EOF hit first."""
        while True:
            idx = self._buf.find(b"\n")
            if idx != -1:
                del self._buf[: idx + 1]
                return True
            self._buf.clear()
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
                return False
            self._buf.extend(chunk)


class ReproServer:
    """One serving instance; see the module docstring."""

    def __init__(self, config: "Optional[ServeConfig]" = None, **overrides) -> None:
        self.config = (config or ServeConfig()).with_overrides(**overrides)
        self.registry = SessionRegistry(self.config.max_sessions)
        self.admission = AdmissionController(self.config)
        self.exit_code = EXIT_OK
        self.requests = 0
        self.cancelled = 0
        self.rejected = 0
        self.shed = 0
        self.oversized = 0
        self._started = time.monotonic()
        self._server: "Optional[asyncio.AbstractServer]" = None
        self._pool: "Optional[ThreadPoolExecutor]" = None
        self._loop: "Optional[asyncio.AbstractEventLoop]" = None
        self._stop: "Optional[asyncio.Event]" = None
        self._draining = False
        self._connections: "set[_Connection]" = set()
        self._jobs: "set[asyncio.Task]" = set()
        self.host: "Optional[str]" = None
        self.port: "Optional[int]" = None

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and spin up the worker pool."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._started = time.monotonic()
        # Bind before building the pool: a bind failure (port in use,
        # bad socket path) must not leave worker threads behind.
        if self.config.path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=self.config.path,
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.config.host,
                port=self.config.port, limit=MAX_LINE_BYTES,
            )
            sockname = self._server.sockets[0].getsockname()
            self.host, self.port = sockname[0], sockname[1]
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers,
            thread_name_prefix=WORKER_THREAD_PREFIX,
        )

    async def run(self, ready=None) -> int:
        """start → announce → serve until shutdown → drain.

        Returns the exit code (:data:`EXIT_INTERRUPTED` when a signal
        initiated the shutdown, else 0).
        """
        await self.start()
        if ready is not None:
            ready(self)
        await self._stop.wait()
        await self._drain()
        return self.exit_code

    def request_shutdown(self, exit_code: int = EXIT_OK) -> None:
        """Begin shutdown; safe from any thread (and signal handlers)."""
        def _set() -> None:
            if not self._stop.is_set():
                self.exit_code = exit_code
                self._stop.set()

        if self._loop is None or self._stop is None:
            return
        try:
            self._loop.call_soon_threadsafe(_set)
        except RuntimeError:  # loop already closed
            pass

    async def _drain(self) -> None:
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        # Queued-but-undispatched requests will never run; answer each
        # with the draining error so no admitted request goes silent
        # (the chaos battery pins this mid-overload).
        for entry in self.admission.drain():
            connection = entry.payload
            connection.unregister(entry.rid, entry.token)
            self.rejected += 1
            await connection.send({
                "id": entry.rid, "ok": False, "status": "error",
                "error": "server is draining", "tenant": entry.tenant,
                "exit_code": EXIT_ERROR,
            })
        if self._jobs:
            _done, pending = await asyncio.wait(
                set(self._jobs), timeout=self.config.drain_ms / 1000.0
            )
            if pending:
                # Out of patience: trip every remaining token and give
                # the engines one checkpoint's grace to unwind.
                for connection in list(self._connections):
                    self.cancelled += connection.cancel_inflight()
                await asyncio.wait(pending, timeout=10.0)
        for connection in list(self._connections):
            connection.writer.close()
        # Every job has unwound (cooperatively-cancelled at worst), so
        # this join is prompt; wait=True proves no worker leaks.
        self._pool.shutdown(wait=True)

    # -- protocol ------------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        connection = _Connection(writer)
        self._connections.add(connection)
        lines = _LineReader(reader, self.config.max_line_bytes)
        try:
            while True:
                line = await lines.readline()
                if line is None:
                    # Oversized line: discarded by the reader; the
                    # connection stays usable for the next request.
                    self.oversized += 1
                    await connection.send({
                        "id": None, "ok": False, "status": "error",
                        "error": "request_too_large",
                        "max_line_bytes": self.config.max_line_bytes,
                        "exit_code": EXIT_ERROR,
                    })
                    continue
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(connection, line)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled the reader mid-readline (drain has
            # already run); finish cleanly instead of logging noise.
            pass
        finally:
            self._connections.discard(connection)
            # Client gone: nobody is waiting on these results.
            self.cancelled += connection.cancel_inflight()
            writer.close()

    async def _handle_line(self, connection: _Connection, line: bytes) -> None:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as error:
            await connection.send({
                "id": None, "ok": False, "status": "error",
                "error": f"malformed request: {error}",
                "exit_code": EXIT_ERROR,
            })
            return
        op = request.get("op")
        rid = request.get("id")
        if op == "cancel":
            await self._op_cancel(connection, request)
            return
        if op == "stats":
            await connection.send(self._stats_response(rid))
            return
        if op == "health":
            await connection.send(self._health_response(rid))
            return
        if op == "metrics":
            await connection.send(self._metrics_response(rid))
            return
        if op == "shutdown":
            await connection.send({
                "id": rid, "ok": True, "command": "shutdown",
                "status": "shutting-down", "exit_code": EXIT_OK,
            })
            self.request_shutdown(EXIT_OK)
            return
        if self._draining:
            self.rejected += 1
            await connection.send({
                "id": rid, "ok": False, "status": "error",
                "error": "server is draining", "exit_code": EXIT_ERROR,
            })
            return
        self.requests += 1
        token = CancelToken()
        entry = Pending(
            tenant=self._admission_tenant(request),
            rid=rid,
            request=request,
            token=token,
            deadline=self._queue_deadline(request),
            payload=connection,
        )
        reason = self.admission.try_admit(entry)
        if reason is not None:
            self.shed += 1
            await connection.send({
                "id": rid, "ok": False, "status": "shed",
                "error": "overloaded", "tenant": entry.tenant,
                "retry_after_ms": self.admission.retry_after_ms(),
                "exit_code": EXIT_ERROR,
            })
            return
        connection.register(rid, token)
        await self._pump()

    def _admission_tenant(self, request: Dict[str, Any]) -> str:
        tenant = request.get("tenant", "default")
        # Invalid tenants still fail in the worker with a clear error;
        # admission just needs a stable queue key for them.
        return tenant if isinstance(tenant, str) and tenant else "default"

    def _queue_deadline(self, request: Dict[str, Any]) -> "Optional[Deadline]":
        """The request's SLA deadline, started now (at admission)."""
        params = request.get("params")
        wall = params.get("wall_ms") if isinstance(params, dict) else None
        if not isinstance(wall, (int, float)) or isinstance(wall, bool):
            wall = self.config.wall_ms
        return None if wall is None else Deadline(wall)

    def _spawn(self, entry: Pending) -> None:
        job = asyncio.ensure_future(self._run_job(entry))
        self._jobs.add(job)
        job.add_done_callback(self._jobs.discard)

    async def _pump(self) -> None:
        """Dispatch admitted requests while worker slots are free."""
        run, expired = self.admission.next_dispatch()
        for entry in expired:
            # Sat in the queue past its own deadline: shed instead of
            # burning a worker on a request nobody can answer in time.
            connection = entry.payload
            connection.unregister(entry.rid, entry.token)
            self.shed += 1
            await connection.send({
                "id": entry.rid, "ok": False, "status": "shed",
                "error": "queue_deadline", "tenant": entry.tenant,
                "stopped_reason": "deadline",
                "exit_code": EXIT_INCOMPLETE,
            })
        for entry in run:
            self._spawn(entry)

    async def _run_job(self, entry: Pending) -> None:
        connection = entry.payload
        rid, token = entry.rid, entry.token
        started = time.monotonic()
        try:
            response = await self._loop.run_in_executor(
                self._pool, execute_request,
                self.registry, entry.request, self.config, token,
                entry.deadline,
            )
        except Exception as error:  # defensive: a job must never kill the loop
            response = {
                "id": rid, "ok": False, "status": "error",
                "error": f"internal error: {error}",
                "exit_code": EXIT_ERROR,
            }
        finally:
            connection.unregister(rid, token)
            self.admission.complete(
                entry.tenant, (time.monotonic() - started) * 1000.0
            )
        await connection.send(response)
        await self._pump()

    async def _op_cancel(self, connection: _Connection, request) -> None:
        target = request.get("target")
        tokens = connection.inflight.get(target, [])
        for token in tokens:
            token.cancel()
        self.cancelled += len(tokens)
        await connection.send({
            "id": request.get("id"), "ok": True, "command": "cancel",
            "status": "cancelling" if tokens else "not-found",
            "counts": {"cancelled": len(tokens)},
            "exit_code": EXIT_OK,
        })

    def _stats_response(self, rid) -> Dict[str, Any]:
        return {
            "id": rid, "ok": True, "command": "stats", "status": "ok",
            "counts": {
                "requests": self.requests,
                "inflight": len(self._jobs),
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "shed": self.shed,
                "oversized": self.oversized,
                "workers": self.config.workers,
                "sessions": len(self.registry),
            },
            "registry": self.registry.stats(),
            "exit_code": EXIT_OK,
        }

    def _health_response(self, rid) -> Dict[str, Any]:
        """Cheap liveness probe, answered on the event loop."""
        return {
            "id": rid, "ok": True, "command": "health",
            "status": "draining" if self._draining else "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "counts": {
                "pending": self.admission.pending_total,
                "inflight": self.admission.inflight_total,
                "workers": self.config.workers,
                "sessions": len(self.registry),
            },
            "exit_code": EXIT_OK,
        }

    def _metrics_response(self, rid) -> Dict[str, Any]:
        """Full load-state snapshot: admission queues, sheds, tenants."""
        return {
            "id": rid, "ok": True, "command": "metrics", "status": "ok",
            "uptime_s": round(time.monotonic() - self._started, 3),
            "counts": {
                "requests": self.requests,
                "inflight": len(self._jobs),
                "cancelled": self.cancelled,
                "rejected": self.rejected,
                "shed": self.shed,
                "oversized": self.oversized,
                "workers": self.config.workers,
                "sessions": len(self.registry),
            },
            "admission": self.admission.snapshot(),
            "registry": self.registry.stats(),
            "exit_code": EXIT_OK,
        }


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------

def run_server(config: ServeConfig, ready=None) -> int:
    """Run a server on this thread until shutdown; returns the exit code.

    Installs loop-level SIGTERM/SIGINT handlers (when the platform
    allows) implementing the drain-then-exit-130 contract.  A bind
    failure (port in use, bad unix-socket path, missing permission)
    prints one line of JSON to stderr and returns
    :data:`~repro.payloads.EXIT_ERROR` instead of unwinding with an
    asyncio traceback.
    """
    import signal
    import sys

    server = ReproServer(config)

    async def _main() -> int:
        try:
            await server.start()
        except OSError as error:
            print(
                json.dumps({
                    "ok": False,
                    "error": "bind_failed",
                    "detail": str(error),
                    "host": config.host,
                    "port": config.port,
                    "path": config.path,
                    "exit_code": EXIT_ERROR,
                }, sort_keys=True),
                file=sys.stderr,
                flush=True,
            )
            return EXIT_ERROR
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, server.request_shutdown, EXIT_INTERRUPTED
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without support
        if ready is not None:
            ready(server)
        await server._stop.wait()
        await server._drain()
        return server.exit_code

    return asyncio.run(_main())


class ServerThread:
    """A server on a background thread — the test/benchmark harness.

    ``with ServerThread(workers=2) as handle:`` boots a loopback server
    (ephemeral port by default), waits for readiness, and exposes
    ``handle.host`` / ``handle.port`` / ``handle.client()``.  Exiting
    the block shuts the server down and joins the thread.
    """

    def __init__(self, config: "Optional[ServeConfig]" = None, **overrides) -> None:
        self.config = (config or ServeConfig()).with_overrides(**overrides)
        self.server = ReproServer(self.config)
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self.exit_code: "Optional[int]" = None

    def _run(self) -> None:
        try:
            self.exit_code = asyncio.run(
                self.server.run(ready=lambda _s: self._ready.set())
            )
        finally:
            self._ready.set()  # unblock __enter__ even on bind failure

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("server failed to become ready")
        if self.server._server is None:
            raise RuntimeError("server failed to start (bind error?)")
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, timeout: float = 60.0):
        from .client import ServeClient

        if self.config.path is not None:
            return ServeClient(path=self.config.path, timeout=timeout)
        return ServeClient((self.host, self.port), timeout=timeout)

    def shutdown(self, exit_code: int = EXIT_OK, timeout: float = 60.0) -> None:
        self.server.request_shutdown(exit_code)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - debugging aid
            raise RuntimeError("server thread failed to shut down")


def worker_thread_count() -> int:
    """How many live threads belong to serve worker pools (tests)."""
    return sum(
        1 for thread in threading.enumerate()
        if thread.name.startswith(WORKER_THREAD_PREFIX)
    )
