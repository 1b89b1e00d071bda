"""The host's speed, measured beside the server on the CPU it runs on.

The vCPUs of the shared host this benchmark was written on change speed
by up to 2x within seconds: a fixed pure-Python loop took 11-26 ms from
one second to the next, with its CPU time equal to its wall time (so
the hypervisor reported no steal), and the two vCPUs differed at the
same moment.  No wall-clock figure can hold a 25% bound across runs on
such a host, so the benchmark reports times scaled to a reference speed.

A :class:`Calibrator` runs :func:`reference_work` over and over in a
``SCHED_IDLE`` process pinned to the benchmark's CPU.  The kernel runs
it only while nothing else on that CPU is runnable, so it takes no time
from the server or the client, and it keeps the vCPU out of idle as
``idle=poll`` would (waking an idle vCPU took the hypervisor 1-10 ms).
Each chunk of reference work is timed by its own CPU clock, so a chunk
that was preempted still reads the speed it ran at, and recorded with
the monotonic time it ended.  :meth:`Speed.scale` turns the chunks
around an interval into ``(REF_CHUNK_US / local chunk time) **
ELASTICITY``; multiplied by a measured duration it gives the duration on
a host where one chunk takes :data:`REF_CHUNK_US`.

Run as a script, this module is the calibrator process itself::

    python3 e2ebench/speed.py CPU
"""

from __future__ import annotations

import array
import bisect
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Sequence

from loadgen import BenchError

#: CPU time of one chunk of reference work on the reference host, in
#: microseconds (about its median on the 2-vCPU Xeon KVM guest the
#: benchmark was written on, where the median of a run ranged over
#: 250-450 us).
REF_CHUNK_US = 350.0
#: Fewest chunks a local speed is taken from.  Of the estimates tried on
#: five runs each of finite-models and view-churn while the host's speed
#: swung (raw run_s IQR/median 0.48 and 0.26), the median of the 5-15
#: nearest chunks steadied run_s and the latency quantiles best (0.03-0.08);
#: 50-200 chunks did worse, one factor per run worse still (0.15-0.40),
#: and a reference that walked a 4000-node graph (L2-sized, not L1-sized)
#: worse than closure passes alone.
MIN_CHUNKS = 15
#: Chunks run before the calibrator reports ready, so that the first
#: recorded ones run specialised bytecode on warm caches.
WARM_UP = 50
#: How the server's times follow the reference's: a request that ran
#: while chunks took ``c`` us is scaled by ``(REF_CHUNK_US / c) **
#: ELASTICITY``, because the server's times moved less than the
#: reference's as the host's speed changed.  Over fifty runs of the three
#: workloads on the host the benchmark was written on, the worst
#: IQR/median of run_s, read_p50_ms and read_tail_ms was 0.237 unscaled,
#: 0.122 at an elasticity of 1, 0.094 at 0.8 and 0.098 at 0.7.
ELASTICITY = 0.8

#: The reference work's graph: a 10-node cycle with chords.
_EDGES = tuple((f"n{i}", f"n{(i + 1) % 10}") for i in range(10)) + tuple(
    (f"n{i}", f"n{(i * 7 + 3) % 10}") for i in range(0, 10, 3))
#: The reference work's atoms, as text to parse.
_ATOMS = ", ".join(f"P{i % 3}(x{i},x{(i * 5 + 1) % 17})" for i in range(24))


class _Atom:
    __slots__ = ("pred", "args")

    def __init__(self, pred: str, args: tuple) -> None:
        self.pred = pred
        self.args = args

    def key(self) -> tuple:
        return (self.pred, self.args)

    def rename(self, mapping: dict) -> "_Atom":
        return _Atom(self.pred, tuple(mapping.get(a, a) for a in self.args))


def _closure_pass() -> int:
    """Semi-naive transitive closure of :data:`_EDGES` over tuple facts in
    a set and a dict index, as the chase does."""
    by_source = {}
    for u, v in _EDGES:
        by_source.setdefault(u, []).append(v)
    facts = set(_EDGES)
    delta = list(_EDGES)
    while delta:
        fresh = []
        for u, v in delta:
            for w in by_source.get(v, ()):
                fact = (u, w)
                if fact not in facts:
                    facts.add(fact)
                    fresh.append(fact)
        delta = fresh
        for u, w in fresh:
            by_source[u].append(w)
    return len(facts)


def _odd_squares(n: int):
    for i in range(n):
        if i % 7 == 3:
            continue
        yield i * i % 11


def _term_pass() -> int:
    """Parse, rename, index and sort atoms through objects, method calls,
    a generator and caught exceptions: the rest of the interpreter paths
    the engines take beside their joins."""
    atoms = []
    for part in _ATOMS.split("), "):
        pred, rest = part.split("(", 1)
        atoms.append(_Atom(pred, tuple(a.strip() for a in rest.rstrip(")").split(","))))
    mapping = {f"x{i}": f"y{i % 5}" for i in range(17)}
    renamed = {a.rename(mapping).key() for a in atoms}
    by_pred = {}
    for atom in atoms:
        by_pred.setdefault(atom.pred, []).append(atom)
    ordered = sorted(atoms, key=lambda a: (a.args[1], a.pred))
    total = len(renamed) + len(by_pred) + len(ordered[0].args) + sum(_odd_squares(40))
    for i in range(20):
        try:
            total += {"a": 1}["b" if i % 4 == 0 else "a"]
        except KeyError:
            total -= 1
    return total + len(repr([a.key() for a in atoms[:8]]))


def reference_work() -> int:
    """A fixed, engine-like piece of interpreter work: two closure passes
    and one pass over terms.

    A reference of closure passes alone (small, hot loops) and one of
    the term pass plus a closure pass (more code paths) each tracked the
    server better on one of finite-models and view-churn and worse on the
    other; their sum tracked it best on both (scaled p50, tail and run_s
    IQR/median 0.02-0.06 over five runs each, against 0.11-0.28 raw).
    Written here, not taken from ``repro``, so that a change to the
    program under test never changes the reference.
    """
    return _closure_pass() + _closure_pass() + _term_pass()


def _serve_chunks(cpu: int) -> None:
    """The calibrator process: chunks of reference work until SIGTERM
    (or until its parent has gone), then every ``(end_ns, cpu_ns)``
    pair to stdout as native 64-bit integers."""
    parent = os.getppid()
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(1))
    os.sched_setaffinity(0, {cpu})
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    records = array.array("q")
    cpu_clock, clock = time.thread_time_ns, time.monotonic_ns
    for _ in range(WARM_UP):
        reference_work()
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    while not stop and os.getppid() == parent:
        start = cpu_clock()
        reference_work()
        used = cpu_clock() - start
        records.append(clock())
        records.append(used)
    sys.stdout.buffer.write(records.tobytes())
    sys.stdout.flush()


class Speed:
    """The chunks one :class:`Calibrator` recorded, in time order."""

    def __init__(self, ends_ns: Sequence[int], cpu_ns: Sequence[int]) -> None:
        self.ends = list(ends_ns)
        self.cpu = list(cpu_ns)

    def local_chunk_us(self, start_ns: int, end_ns: int, fewest: int = MIN_CHUNKS) -> float:
        """Median chunk CPU time over the chunks that ended within
        ``[start_ns, end_ns]``, widened to the *fewest* chunks that
        ended nearest to it when fewer ended within."""
        if not self.ends:
            raise BenchError("the calibrator recorded no chunks")
        lo = bisect.bisect_left(self.ends, start_ns)
        hi = bisect.bisect_right(self.ends, end_ns)
        picked = self.cpu[lo:hi]
        left, right = lo - 1, hi
        while len(picked) < fewest and (left >= 0 or right < len(self.ends)):
            before = start_ns - self.ends[left] if left >= 0 else None
            after = self.ends[right] - end_ns if right < len(self.ends) else None
            if after is None or (before is not None and before <= after):
                picked.append(self.cpu[left])
                left -= 1
            else:
                picked.append(self.cpu[right])
                right += 1
        return statistics.median(picked) / 1000.0

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor that turns a duration measured over the interval into
        one at the reference speed."""
        return (REF_CHUNK_US / self.local_chunk_us(start_ns, end_ns)) ** ELASTICITY

    def median_chunk_us(self) -> float:
        return statistics.median(self.cpu) / 1000.0 if self.cpu else 0.0


class Calibrator:
    """A :func:`_serve_chunks` process for the span of a ``with`` block;
    :attr:`speed` holds its chunks afterwards."""

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.proc = None
        self.speed = Speed([], [])

    def __enter__(self) -> "Calibrator":
        self.proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), str(self.cpu)],
                                     stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        if self.proc.stdout.readline() != b"ready\n":
            self.__exit__()
            raise BenchError("the calibrator did not start")
        return self

    def __exit__(self, *exc) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            data, _ = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            data, _ = proc.communicate()
        records = array.array("q")
        records.frombytes(data[:len(data) - len(data) % (2 * records.itemsize)])
        self.speed = Speed(records[0::2], records[1::2])


if __name__ == "__main__":
    _serve_chunks(int(sys.argv[1]))
