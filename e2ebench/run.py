"""End-to-end benchmark of ``repro serve``.

Usage, from the repository root::

    python3 e2ebench/run.py --workload finite-models --seed 1 --seconds 20 --trace 0
    python3 e2ebench/run.py --workload all --seed 1 --seconds 20
    python3 e2ebench/run.py --workload query-mix --seed 1 --seconds 20 --trace 1
    python3 e2ebench/run.py --workload view-churn --seed 1 --seconds 20 --profile

Each run starts ``python -m repro serve --json --port 0 --workers 2`` as a
subprocess (several times, to take the median set-up time), drives one
seeded workload at it from this process, checks every response with the
checks of :mod:`checks`, and prints the end-to-end metrics by name and
unit.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The client, its servers and a :class:`speed.Calibrator` run on one CPU.
The calibrator measures the host's speed whenever that CPU would
otherwise idle (a closed loop leaves it :data:`GAP_S` after each
response), and every time the benchmark reports is scaled by the speed
measured around it (:mod:`speed` says why and how): ``setup_s`` per
spawn, latencies per request, and a closed loop's ``run_s`` as the sum of
its scaled round trips.  The raw figures are printed beside them.

``--trace 1`` runs the same workload twice with half the work each:
untraced, then on a server started through ``launcher.py`` with spans
around every layer boundary.  It prints the per-layer metrics, a span
tree for a sample of requests (every tree goes to ``.e2ebench_out/``)
and the tracing overhead.  End-to-end metrics come only from untraced
runs.  ``--profile`` runs the workload under ``cProfile`` on every worker
thread and prints the top functions by self time.

Workloads (``BENCHMARK.json`` has one line each on why it was chosen,
beside the metric names and units this script prints):
``finite-models`` (closed loop, 1 connection), ``query-mix`` (open loop at
a fixed Poisson rate, 2 connections, 8 tenants) and ``view-churn``
(closed loop, 1 connection, 1 tenant).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import pstats
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from loadgen import (  # noqa: E402
    BenchError, RunState, Server, closed_loop, host_steal_s, open_loop,
)

ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".e2ebench_out")
#: Server spawns per run; ``setup_s`` is their median.
SPAWNS = 7
WORKERS = 2
#: Pause after each closed-loop response, in which the calibrator runs
#: (about four chunks of reference work).
GAP_S = 0.001
#: Pause before each server spawn and after its set-up, so that the
#: chunks nearest to a set-up were run just before and just after it.
SETTLE_S = 0.01
SERVE_ARGS = ["serve", "--json", "--port", "0", "--workers", str(WORKERS)]


def load_spec() -> Dict[str, Any]:
    """From ``BENCHMARK.json``: the (name, unit) pairs of the end-to-end
    and per-layer metrics, and why each workload was chosen."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in doc["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in doc["per_layer"]],
        "why": {w["name"]: w["why"] for w in doc["workloads"]},
    }


def serve_argv(mode: Optional[Tuple[str, str]] = None) -> List[str]:
    """The server command: plain, or through the launcher (trace/profile)."""
    if mode is None:
        return [sys.executable, "-m", "repro"] + SERVE_ARGS
    flag, target = mode
    return [sys.executable, os.path.join("e2ebench", "launcher.py"),
            flag, target, "--"] + SERVE_ARGS


def source_id() -> str:
    """The commit, or a digest of ``src/`` where there is no git checkout."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if out.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                                 recursive=True)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

class Phase:
    """One server's life within a run: set-up, then optionally the timed
    phase, then the counters, peak RSS and shutdown."""

    def __init__(self, workload, state: RunState, argv: List[str]) -> None:
        self.workload = workload
        self.state = state
        self.server = Server(argv, ROOT, OUT_DIR)
        self.conns: list = []
        self.timed: list = []
        self.ready_s = self.prime_s = self.setup_s = 0.0
        self.done_ns = 0
        self.peak_rss_mb = 0.0
        self.cpu_s = self.steal_s = 0.0
        self.server_stats: Dict[str, Any] = {}
        self.server_metrics: Dict[str, Any] = {}
        self.hom_before: Dict[str, int] = {}

    def set_up(self) -> None:
        time.sleep(SETTLE_S)
        self.server.start()
        self.conns.append(self.server.connect())
        closed_loop(self.conns[0], self.state.make(self.workload.prime))
        closed_loop(self.conns[0], self.state.make(self.workload.setup))
        self.done_ns = done = time.monotonic_ns()
        self.ready_s = (self.server.ready_ns - self.server.spawn_ns) / 1e9
        self.prime_s = (done - self.server.ready_ns) / 1e9
        self.setup_s = (done - self.server.spawn_ns) / 1e9
        time.sleep(SETTLE_S)

    def run_timed(self, counters: bool = False) -> None:
        self.timed = self.state.make(self.workload.timed)
        if counters:
            self.hom_before = self.conns[0].request({"id": -3, "op": "stats"}).get("hom", {})
        cpu, steal = self.server.cpu_s(), host_steal_s()
        if self.workload.schedule is not None:
            while len(self.conns) < self.workload.connections:
                self.conns.append(self.server.connect())
            open_loop(self.conns, self.timed, self.workload.schedule)
        else:
            closed_loop(self.conns[0], self.timed, GAP_S)
        self.cpu_s = self.server.cpu_s() - cpu
        self.steal_s = host_steal_s() - steal

    def finish(self, counters: bool = False) -> None:
        try:
            if counters:
                self.server_stats = self.conns[0].request({"id": -1, "op": "stats"})
                self.server_metrics = self.conns[0].request({"id": -2, "op": "metrics"})
            self.peak_rss_mb = self.server.vm_hwm_mb()
        finally:
            self.close()

    def close(self) -> None:
        for conn in self.conns:
            conn.close()
        self.conns = []
        self.server.stop()


def check_all(samples) -> Tuple[int, int, Counter]:
    """Parse and check every response; return (attempted, failed, reasons)."""
    reasons: Counter = Counter()
    failed = 0
    for sample in samples:
        if sample.failure is None:
            try:
                if sample.response is None:
                    sample.response = json.loads(sample.line)
                sample.failure = checks.check_response(sample.job.check, sample.response)
            except (ValueError, KeyError, TypeError) as error:
                sample.failure = f"unreadable response: {error}"
        if sample.failure is not None:
            failed += 1
            reasons[f"{sample.job.label}: {sample.failure}"] += 1
    return len(samples), failed, reasons


def latency_summary(samples, kind: str, scale: Dict[int, float]) -> Dict[str, Any]:
    """p50 and tail of the scaled latencies of one kind of request, with
    the raw p50 beside them."""
    chosen = [s for s in samples if s.job.kind == kind and s.recv_ns]
    if not chosen:
        return {"n": 0}
    values = [s.latency_ms * scale[s.rid] for s in chosen]
    value, pct, beyond = stats.tail(values)
    return {"n": len(values), "p50": statistics.median(values),
            "tail": value, "tail_pct": pct, "tail_beyond": beyond,
            "raw_p50": statistics.median(s.latency_ms for s in chosen)}


def measure(workload: str, seed: int, seconds: float, mode=None, spawns: int = 1,
            counters: bool = False) -> Dict[str, Any]:
    """*spawns* server set-ups, then one timed phase on the last server."""
    wl = workloads.build(workload, seed, seconds)
    # The client, its servers (which inherit the mask) and the calibrator
    # share one CPU: client, event loop and workers take turns, and the
    # server runs Python one thread at a time anyway.  Across two vCPUs
    # each hand-off could wake an idle vCPU, and the two vCPUs of the host
    # the benchmark was written on ran at different speeds at once.
    cpus = os.sched_getaffinity(0)
    cpu = max(cpus)
    os.sched_setaffinity(0, {cpu})
    state = RunState()
    phases = []
    calibrator = speed.Calibrator(cpu)
    try:
        with calibrator:
            for _ in range(spawns):
                phase = Phase(wl, state, serve_argv(mode))
                phases.append(phase)
                phase.set_up()
                if len(phases) < spawns:
                    phase.close()
            phases[-1].run_timed(counters)
            phases[-1].finish(counters)
    finally:
        for phase in phases:
            phase.close()
        os.sched_setaffinity(0, cpus)
    return dict(summarise(wl, state, phases, calibrator.speed), cpus=[cpu])


def summarise(wl, state: RunState, phases, host: speed.Speed) -> Dict[str, Any]:
    last = phases[-1]
    attempted, failed, reasons = check_all(state.samples)
    timed = [s for s in last.timed if s.recv_ns]
    scale = {s.rid: host.scale(s.due_ns or s.sent_ns, s.recv_ns) for s in timed}
    round_trips = [(s.recv_ns - s.sent_ns) / 1e6 * scale[s.rid] for s in timed]
    span_s = ((max(s.recv_ns for s in timed) - min(s.sent_ns for s in timed)) / 1e9
              if timed else 0.0)
    # A closed loop's run time is the fixed work's scaled round trips; the
    # open loop's is its schedule plus the drain.
    run_s = span_s if wl.schedule is not None else sum(round_trips) / 1000.0
    set_up = [(p.setup_s, p.ready_s, p.prime_s, host.scale(p.server.spawn_ns, p.done_ns))
              for p in phases]
    if wl.schedule is not None:
        lag = stats.lateness_ms([s.due_ns / 1e9 for s in last.timed],
                                [s.sent_ns / 1e9 for s in last.timed])
    else:
        # Closed loop: the generator's own turnaround between a response
        # and the next send.
        lag = [(b.sent_ns - a.recv_ns) / 1e6 for a, b in zip(timed, timed[1:])] or [0.0]
    reads = latency_summary(last.timed, "read", scale)
    writes = latency_summary(last.timed, "write", scale)
    over_limit = (sum(1 for s in timed if s.latency_ms > workloads.QM_LIMIT_MS)
                  if wl.schedule is not None else None)
    return {
        "workload": wl, "phases": phases, "attempted": attempted, "failed": failed,
        "reasons": reasons, "run_s": run_s, "span_s": span_s,
        "reads": reads, "writes": writes,
        "setup_s": statistics.median(setup * f for setup, _r, _p, f in set_up),
        "raw_setup_s": statistics.median(setup for setup, _r, _p, _f in set_up),
        "ready_s": statistics.median(ready * f for _s, ready, _p, f in set_up),
        "prime_s": statistics.median(prime * f for _s, _r, prime, f in set_up),
        "peak_rss_mb": last.peak_rss_mb, "lag_max_ms": max(lag),
        "lag_p99_ms": stats.percentile(lag, 99.0), "over_limit": over_limit,
        "mean_rt_ms": statistics.fmean(round_trips) if timed else 0.0,
        "scale": scale, "scale_p50": statistics.median(scale.values()) if timed else 0.0,
        "chunk_us": host.median_chunk_us(), "chunks": len(host.cpu),
    }


def save_samples(result) -> str:
    """Write every timed request's stamps to ``.e2ebench_out/``."""
    wl = result["workload"]
    path = os.path.join(OUT_DIR, f"samples-{wl.name}-{wl.seed}.json")
    scale = result["scale"]
    rows = [{"id": s.rid, "label": s.job.label, "kind": s.job.kind,
             "due_ns": s.due_ns, "sent_ns": s.sent_ns, "recv_ns": s.recv_ns,
             "scale": scale.get(s.rid), "bytes": len(s.line), "failure": s.failure}
            for s in result["phases"][-1].timed]
    with open(path, "w") as handle:
        json.dump(rows, handle)
    return path


def e2e_metrics(result, names) -> Dict[str, Dict[str, Any]]:
    values = {
        "setup_s": result["setup_s"], "run_s": result["run_s"],
        "read_p50_ms": result["reads"].get("p50", 0.0),
        "read_tail_ms": result["reads"].get("tail", 0.0),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in names}


def print_e2e(result, seconds: float, why: str) -> None:
    wl = result["workload"]
    last = result["phases"][-1]
    meta = {
        "workload": wl.name, "seed": wl.seed, "seconds": seconds,
        "why": why, "python": platform.python_version(),
        "nproc": os.cpu_count(), "cpus": result["cpus"],
        "commit": source_id(),
        "server_argv": last.server.argv[1:], "spawns": len(result["phases"]),
        "loop": "open" if wl.schedule is not None else "closed",
        "connections": wl.connections, **wl.info,
    }
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    reads, writes = result["reads"], result["writes"]
    attempted, failed = result["attempted"], result["failed"]
    print(f"  setup_s        {result['setup_s']:10.4f} s    median of {len(result['phases'])} spawns "
          f"(ready {result['ready_s']:.4f} s, prime {result['prime_s']:.4f} s; "
          f"raw {result['raw_setup_s']:.4f} s)")
    print(f"  run_s          {result['run_s']:10.4f} s    {len(result['phases'][-1].timed)} "
          f"timed requests ({'schedule plus drain' if wl.schedule is not None else 'sum of scaled round trips'}; "
          f"first send to last response {result['span_s']:.4f} s raw)")
    for name, summary in (("read", reads), ("write", writes)):
        if not summary["n"]:
            continue
        print(f"  {name + '_p50_ms':14s} {summary['p50']:10.3f} ms   n={summary['n']} "
              f"(raw {summary['raw_p50']:.3f} ms)")
        print(f"  {name + '_tail_ms':14s} {summary['tail']:10.3f} ms   p{summary['tail_pct']:g}, "
              f"{summary['tail_beyond']} samples beyond, n={summary['n']}")
    print(f"  fail_frac      {failed / attempted if attempted else 0.0:10.4f} fraction "
          f"({failed}/{attempted})")
    print(f"  peak_rss_mb    {result['peak_rss_mb']:10.2f} MB")
    print(f"  # host speed: {result['chunks']} chunks of reference work, median "
          f"{result['chunk_us']:.1f} us against {speed.REF_CHUNK_US:g} us at the reference "
          f"speed; median scale of the timed requests {result['scale_p50']:.4f}")
    print(f"  # timed phase: server CPU {last.cpu_s:.3f} s raw; host steal "
          f"{last.steal_s:.3f} s on its CPU")
    if wl.schedule is not None:
        print(f"  # open loop at {workloads.QM_RATE:g} req/s, latency limit "
              f"{workloads.QM_LIMIT_MS:g} ms on read_tail_ms: "
              f"{'met' if reads.get('tail', 0) <= workloads.QM_LIMIT_MS else 'MISSED'}; "
              f"{result['over_limit']} requests over the limit; generator lag "
              f"max {result['lag_max_ms']:.3f} ms, p99 {result['lag_p99_ms']:.3f} ms")
    for reason, count in result["reasons"].most_common(10):
        print(f"  FAILED x{count}: {reason}")


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------

def traced(workload: str, seed: int, seconds: float):
    """Untraced then traced, each with half the work of a normal run."""
    half = seconds / 2.0
    baseline = measure(workload, seed, half)
    trace_path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    result = measure(workload, seed, half, ("--trace", trace_path), counters=True)
    result["trace"] = tracing.load(trace_path)
    return baseline, result


def numeric_totals(blocks) -> Counter:
    """Sum the numeric fields of payload ``stats``-like blocks."""
    totals: Counter = Counter()
    for block in blocks:
        totals.update({k: v for k, v in (block or {}).items()
                       if isinstance(v, (int, float)) and not isinstance(v, bool)})
    return totals


def layer_metrics(baseline, result) -> Tuple[Dict[str, float], Dict[str, Tuple], List]:
    """Per-layer values, the bases of the ratios, and the span trees."""
    phase = result["phases"][-1]
    timed = [s for s in phase.timed if s.recv_ns and s.response is not None]
    trace = result["trace"]
    send_recv = {s.rid: (s.sent_ns, s.recv_ns) for s in timed}
    trees = tracing.request_trees([tuple(x) for x in trace["spans"]], send_recv)
    layer_self: Dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    unattributed = round_trip = 0
    for tree in trees.values():
        unattributed += tree["unattributed"]
        round_trip += tree["round_trip"]
        for span in tree["spans"]:
            layer_self[tracing.layer_of(span[2])] += tree["self"][span[0]] / 1e6
            calls[tracing.layer_of(span[2])] += 1
    exec_by_rid = {rid: sum(s[4] - s[3] for s in t["spans"]
                            if s[2] == "serve.execute_request") / 1e6
                   for rid, t in trees.items()}
    queue_by_rid = {rid: sum(s[4] - s[3] for s in t["spans"]
                             if s[2] == "serve.queue_wait") / 1e6
                    for rid, t in trees.items()}
    overhead = [trees[rid]["round_trip"] / 1e6 - exec_by_rid[rid] - queue_by_rid[rid]
                for rid in trees]
    queue_tail = stats.tail(list(queue_by_rid.values()))[0] or 0.0

    by_op: Dict[str, list] = defaultdict(list)
    for s in timed:
        by_op[s.job.op].append(s.response)
    # One delta over the whole timed phase: per-request deltas overlap on
    # query-mix, where each also holds the other request's increments.
    after = phase.server_stats.get("hom", {})
    hom = Counter({k: v - phase.hom_before.get(k, 0) for k, v in after.items()})

    chase_stats = []
    for response in by_op["chase"] + by_op["certain"]:
        if response.get("stats"):
            chase_stats.append(response["stats"])
    for response in by_op["countermodel"]:
        chase_stats.extend(response.get("stats") or [])
    totals = Counter()
    for entry in chase_stats:
        totals.update(entry.get("totals", {}))
    updates = numeric_totals(r.get("update") for r in by_op["view-update"])
    rewrites = numeric_totals(r.get("stats") for r in by_op["rewrite"] if not r.get("cached"))
    searches = numeric_totals(r.get("stats") for r in by_op["fc-search"])
    models = sum(1 for r in by_op["countermodel"] if r.get("status") == "model-found")
    failed_attempts = sum(r["counts"].get("attempts", 0) for r in by_op["countermodel"])
    tenants = phase.server_stats.get("registry", {}).get("tenants", {})
    parse_hits = sum(t["parse_hits"] for n, t in tenants.items()
                     if n != workloads.PRIME_TENANT)
    parse_misses = sum(t["parse_misses"] for n, t in tenants.items()
                       if n != workloads.PRIME_TENANT)
    rewrite_hits = sum(t["rewriting_hits"] for n, t in tenants.items()
                       if n != workloads.PRIME_TENANT)
    admission = phase.server_metrics.get("admission") or {}
    window_ms = result["span_s"] * 1000.0

    ratios = {
        "serve.busy_frac": (sum(exec_by_rid.values()), WORKERS * window_ms),
        "serve.session.parse_hit_ratio": (parse_hits, parse_hits + parse_misses),
        "serve.session.rewrite_hit_ratio": (rewrite_hits, len(by_op["rewrite"])),
        "lf.plan.cache_hit_ratio": (hom["plan_cache_hits"],
                                    hom["plan_cache_hits"] + hom["plan_cache_misses"]),
        "chase.fire_ratio": (totals["triggers_fired"], totals["triggers_evaluated"]),
        "chase.view.rederive_ratio": (updates["rederived"], updates["overdeleted"]),
        "rewriting.kept_ratio": (rewrites["kept"], rewrites["candidates"]),
        "fc.duplicate_ratio": (searches["duplicates"], searches["states_created"]),
        "fc.materialised_ratio": (searches["states_materialised"],
                                  searches["states_created"]),
        "core.useful_attempt_ratio": (models, models + failed_attempts),
        "trace.overhead_frac": (result["mean_rt_ms"] - baseline["mean_rt_ms"],
                                baseline["mean_rt_ms"]),
        "trace.unattributed_frac": (unattributed / 1e6, round_trip / 1e6),
    }
    view_facts = [r["counts"]["facts"] for r in by_op["view-update"]]
    values = {
        "serve.queue_wait_p50_ms": statistics.median(queue_by_rid.values()) if trees else 0.0,
        "serve.queue_wait_tail_ms": queue_tail,
        "serve.exec_p50_ms": statistics.median(exec_by_rid.values()) if trees else 0.0,
        "serve.overhead_p50_ms": statistics.median(overhead) if overhead else 0.0,
        "serve.jobs_self_ms": layer_self["serve.jobs"],
        "serve.admission.pending_high_water": admission.get("pending_high_water", 0),
        "serve.admission.shed": sum((admission.get("shed") or {}).values()),
        "payloads.build_ms": layer_self["payloads"],
        "payloads.response_kb": (statistics.fmean(len(s.line) for s in timed) / 1024.0
                                 if timed else 0.0),
        "lf.parser.self_ms": layer_self["lf.parser"],
        "lf.parser.calls": calls["lf.parser"],
        "lf.plan.plan_requests": hom["plan_requests"],
        "lf.plan.index_probes": hom["index_probes"],
        "lf.plan.candidates_scanned": hom["candidates_scanned"],
        "lf.plan.backtracks": hom["backtracks"],
        "store.view_facts": statistics.fmean(view_facts) if view_facts else 0.0,
        "chase.self_ms": layer_self["chase"],
        "chase.rounds": sum(len(entry.get("rounds", [])) for entry in chase_stats),
        "chase.triggers_evaluated": totals["triggers_evaluated"],
        "chase.facts_added": totals["facts_added"],
        "chase.view.update_self_ms": layer_self["chase.view.update"],
        "chase.view.query_self_ms": layer_self["chase.view.query"],
        "chase.view.overdeleted": updates["overdeleted"],
        "chase.view.rederived": updates["rederived"],
        "chase.view.resumed_rounds": updates["resumed_rounds"],
        "chase.view.fallback_rules": updates["fallback_rules"],
        "rewriting.self_ms": layer_self["rewriting"],
        "rewriting.steps": rewrites["steps"],
        "rewriting.candidates": rewrites["candidates"],
        "rewriting.subsumption_checks": rewrites["subsumption_checks"],
        "rewriting.subsume_ms": rewrites["subsume_ms"],
        "rewriting.kappa_ms": layer_self["rewriting.kappa"],
        "fc.self_ms": layer_self["fc"],
        "fc.nodes": searches["nodes"],
        "core.self_ms": layer_self["core"],
        "core.failed_attempts": failed_attempts,
        "core.verify_ms": layer_self["core.verify"],
        "ptypes.self_ms": layer_self["ptypes"],
        "lf.canonical.calls": trace["counts"].get("lf.canonical.calls", 0),
        "coloring.self_ms": layer_self["coloring"],
        "skeleton.self_ms": layer_self["skeleton"],
        "serve.ready_s": result["ready_s"],
        "serve.prime_s": result["prime_s"],
        "loadgen.lag_max_ms": result["lag_max_ms"],
    }
    for name, (num, den) in ratios.items():
        values[name] = num / den if den else 0.0
    return values, ratios, trees


def print_trace(workload: str, seed: int, baseline, result, values, ratios, trees,
                names) -> None:
    phase = result["phases"][-1]
    labels = {s.rid: s.job.label for s in phase.timed}
    hom = result["trace"]["hom"]
    problems = Counter(p for t in trees.values() for p in tracing.tree_problems(t))
    bad = sum(1 for t in trees.values() if tracing.tree_problems(t))
    path = os.path.join(OUT_DIR, f"trees-{workload}-{seed}.txt")
    with open(path, "w") as handle:
        for rid, tree in trees.items():
            lines = tracing.render_tree(rid, tree, labels.get(rid, ""), hom.get(str(rid)))
            handle.write("\n".join(lines) + "\n")
    print(f"# span trees: {len(trees)} requests, {len(trees) - bad} well formed (admit, "
          f"queue_wait and execute_request spans present, no negative self or "
          f"unattributed time, every parent in the same request); all trees in {path}")
    for problem, count in problems.most_common():
        print(f"  TRACE PROBLEM x{count}: {problem}")
    first_of_label: Dict[str, Any] = {}
    for rid in trees:
        first_of_label.setdefault(labels.get(rid, "").split("/")[0], rid)
    slowest = sorted(trees, key=lambda rid: -trees[rid]["round_trip"])[:3]
    for rid in dict.fromkeys(list(first_of_label.values()) + slowest):
        for line in tracing.render_tree(rid, trees[rid], labels.get(rid, ""),
                                        hom.get(str(rid))):
            print(f"  {line}")
    print(f"# per-layer metrics ({workload}, traced half run; lf.plan counts are one "
          f"HOM_STATS delta over the timed phase, "
          f"{'approximate' if phase.workload.connections > 1 else 'exact'} on this workload)")
    for name, unit in names:
        base = ""
        if name in ratios:
            num, den = ratios[name]
            base = f"({num:g}/{den:g})"
        print(f"  {name:38s} {values[name]:14.4f} {unit:6s} {base}")
    print(f"  # trace.overhead_frac: traced mean round trip {result['mean_rt_ms']:.3f} ms vs "
          f"untraced {baseline['mean_rt_ms']:.3f} ms")


# ----------------------------------------------------------------------
# Profile
# ----------------------------------------------------------------------

def profiled(workload: str, seed: int, seconds: float, top: int = 25):
    prefix = os.path.join(OUT_DIR, f"profile-{workload}-{seed}")
    for old in glob.glob(prefix + ".*.prof"):
        os.remove(old)
    result = measure(workload, seed, seconds, ("--profile", prefix))
    files = sorted(glob.glob(prefix + ".*.prof"))
    if not files:
        raise BenchError("the profiled server wrote no profile")
    print(f"# cProfile, {workload} seed {seed}: top {top} functions by self time "
          f"over {len(files)} worker threads (cProfile inflates call-heavy code; "
          f"confirm with an untraced run)")
    profile = pstats.Stats(*files, stream=sys.stdout)
    profile.sort_stats("tottime").print_stats(top)
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

def result_line(correct: bool, attempted: int, failed: int, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics}, sort_keys=True)


def run_one(workload: str, seed: int, seconds: float, trace: bool, profile: bool, spec):
    why = spec["why"][workload]
    print(f"# e2ebench {workload}: seed {seed}, {seconds:g} s, "
          f"{'traced' if trace else 'profiled' if profile else 'untraced'}")
    if profile:
        result = profiled(workload, seed, seconds)
        print_e2e(result, seconds, why)
        return result, {}
    if trace:
        baseline, result = traced(workload, seed, seconds)
        print("# untraced half run (end-to-end figures come from untraced runs only)")
        print_e2e(baseline, seconds / 2.0, why)
        values, ratios, trees = layer_metrics(baseline, result)
        print_trace(workload, seed, baseline, result, values, ratios, trees,
                    spec["per_layer"])
        print(f"  # traced half run: {result['failed']} of {result['attempted']} "
              f"requests failed their checks")
        attempted = result["attempted"] + baseline["attempted"]
        failed = result["failed"] + baseline["failed"]
        result = dict(result, attempted=attempted, failed=failed)
        return result, {name: {"value": values[name], "unit": unit}
                        for name, unit in spec["per_layer"]}
    result = measure(workload, seed, seconds, spawns=SPAWNS)
    print_e2e(result, seconds, why)
    print(f"  # samples in {save_samples(result)}")
    return result, e2e_metrics(result, spec["end_to_end"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="end-to-end benchmark of repro serve")
    parser.add_argument("--workload", required=True,
                        choices=list(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top functions")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"e2ebench: no repro sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: Dict[str, Any] = {}
    try:
        for name in names:
            result, values = run_one(name, args.seed, args.seconds,
                                     bool(args.trace), args.profile, spec)
            attempted += result["attempted"]
            failed += result["failed"]
            if len(names) == 1:
                metrics = values
            else:
                metrics.update({f"{name}.{k}": v for k, v in values.items()})
    except BenchError as error:
        print(f"e2ebench: {error}", file=sys.stderr)
        return 2
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
