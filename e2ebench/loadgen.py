"""Server processes and the benchmark's client loops.

One :class:`Server` is one ``repro serve`` subprocess.  The client side
uses at most two connections and two threads: a closed loop runs on the
calling thread over one connection; the open loop sends from the calling
thread and receives on one reader thread over two connections.

During a timed phase the client only stamps times and keeps raw response
lines; responses are parsed and checked after the phase, so the client
takes little CPU from the server.  All stamps are ``time.monotonic_ns()``:
CLOCK_MONOTONIC is shared across processes on Linux, so they line up
with the server-side spans of a traced run.
"""

from __future__ import annotations

import json
import os
import select
import selectors
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import stats

#: How long a single response may take before the client gives up.
RESPONSE_TIMEOUT_S = 120.0
#: How long a server may take to print its readiness line.
READY_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed check)."""


@dataclass
class Sample:
    """One request of a run: what was sent and what came back."""

    rid: int
    job: Any
    due_ns: int = 0
    sent_ns: int = 0
    recv_ns: int = 0
    line: bytes = b""
    response: Optional[Dict[str, Any]] = None
    failure: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return stats.latency_ms(self.due_ns or self.sent_ns, self.recv_ns)


class Server:
    """A ``repro serve`` subprocess, from spawn to ``VmHWM``."""

    def __init__(self, argv: Sequence[str], root: str, out_dir: str) -> None:
        self.argv = list(argv)
        self.root = root
        self.out_dir = out_dir
        self.proc: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self.pid: Optional[int] = None
        self.spawn_ns = 0
        self.ready_ns = 0
        self._err = None

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env.pop("PYTHONSTARTUP", None)
        self._err = open(os.path.join(self.out_dir, "server.stderr"), "ab")
        self.spawn_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._err,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        self.ready_ns = time.monotonic_ns()
        try:
            info = json.loads(line)
            self.port, self.pid = int(info["port"]), int(info["pid"])
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise BenchError(
                f"server did not become ready (argv {self.argv}); see "
                f"{os.path.join(self.out_dir, 'server.stderr')}"
            ) from None

    def connect(self) -> "Connection":
        return Connection(socket.create_connection(("127.0.0.1", self.port), timeout=10))

    def vm_hwm_mb(self) -> float:
        """Peak resident set size of the server process, in MB."""
        try:
            with open(f"/proc/{self.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            raise BenchError("the server exited before the end of the run") from None
        raise BenchError("no VmHWM in /proc status")

    def cpu_s(self) -> float:
        """User plus system CPU seconds the server process has used."""
        try:
            with open(f"/proc/{self.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            raise BenchError("the server exited before the end of the run") from None
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """Ask for shutdown, then make sure the process has ended."""
        if self.proc is None:
            return 0
        if self.proc.poll() is None and self.port is not None:
            try:
                with self.connect() as conn:
                    conn.request({"id": 0, "op": "shutdown"})
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._err.close()
        return self.proc.returncode


def host_steal_s() -> float:
    """Seconds the hypervisor has so far kept this process's CPUs from
    running while they had work."""
    names = {f"cpu{n}" for n in os.sched_getaffinity(0)}
    total = 0
    with open("/proc/stat") as handle:
        for line in handle:
            fields = line.split()
            if fields and fields[0] in names and len(fields) > 8:
                total += int(fields[8])
    return total / os.sysconf("SC_CLK_TCK")


class Connection:
    """One blocking line-JSON connection."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(RESPONSE_TIMEOUT_S)
        self.sock = sock
        self.reader = sock.makefile("rb")

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        self.sock.sendall(encode(request))
        return json.loads(self.reader.readline())


def encode(request: Dict[str, Any]) -> bytes:
    return (json.dumps(request, sort_keys=True) + "\n").encode()


def closed_loop(conn: Connection, samples: List[Sample], gap_s: float = 0.0) -> None:
    """Send each request after the previous response arrived, and after
    *gap_s* more seconds (in which :mod:`speed`'s calibrator samples the
    host's speed)."""
    sock, reader = conn.sock, conn.reader
    payloads = [encode(dict(s.job.request, id=s.rid)) for s in samples]
    clock = time.monotonic_ns
    for sample, payload in zip(samples, payloads):
        if gap_s:
            time.sleep(gap_s)
        sample.sent_ns = clock()
        sock.sendall(payload)
        try:
            line = reader.readline()
        except socket.timeout:
            sample.failure = "timed out"
            return
        sample.recv_ns = clock()
        sample.line = line
        if not line:
            sample.failure = "connection closed"
            return


def open_loop(conns: Sequence[Connection], samples: List[Sample],
              due_s: Sequence[float]) -> None:
    """Send on a fixed schedule whatever the responses do.

    Request *i* goes out on connection ``i % len(conns)`` at
    ``start + due_s[i]``; a reader thread stamps every response line.
    """
    payloads = [encode(dict(s.job.request, id=s.rid)) for s in samples]
    by_id = {s.rid: s for s in samples}
    received: List[tuple] = []
    done = threading.Event()

    def reader() -> None:
        clock = time.monotonic_ns
        selector = selectors.DefaultSelector()
        buffers = {}
        for conn in conns:
            selector.register(conn.sock, selectors.EVENT_READ)
            buffers[conn.sock] = b""
        expected = len(samples)
        deadline = None
        try:
            while len(received) < expected:
                if done.is_set():
                    deadline = deadline or time.monotonic() + RESPONSE_TIMEOUT_S
                    if time.monotonic() > deadline:
                        return
                for key, _ in selector.select(timeout=0.5):
                    chunk = key.fileobj.recv(1 << 20)
                    stamp = clock()
                    if not chunk:
                        selector.unregister(key.fileobj)
                        continue
                    data = buffers[key.fileobj] + chunk
                    *lines, rest = data.split(b"\n")
                    buffers[key.fileobj] = rest
                    received.extend((stamp, line) for line in lines)
        finally:
            selector.close()

    thread = threading.Thread(target=reader, name="e2ebench-reader")
    thread.start()
    try:
        clock = time.monotonic_ns
        start_ns = clock() + 50_000_000
        for index, (sample, payload) in enumerate(zip(samples, payloads)):
            sample.due_ns = start_ns + int(due_s[index] * 1e9)
            wait = (sample.due_ns - clock()) / 1e9
            if wait > 0:
                time.sleep(wait)
            sample.sent_ns = clock()
            conns[index % len(conns)].sock.sendall(payload)
    finally:
        done.set()
        thread.join()
    for stamp, line in received:
        try:
            response = json.loads(line)
        except ValueError:
            continue
        sample = by_id.get(response.get("id"))
        if sample is not None and sample.response is None:
            sample.recv_ns, sample.line, sample.response = stamp, line, response
    for sample in samples:
        if not sample.line:
            sample.failure = "timed out"


@dataclass
class RunState:
    """Request ids and every sample of one benchmark run."""

    next_id: int = 1
    samples: List[Sample] = field(default_factory=list)

    def make(self, jobs) -> List[Sample]:
        out = []
        for job in jobs:
            out.append(Sample(self.next_id, job))
            self.next_id += 1
        self.samples.extend(out)
        return out
