"""Smoke benchmark: reduced-size chase workloads, JSON scoreboard.

A standalone script (no pytest-benchmark needed) that times the
chase workloads of ``bench_perf_chase`` (the deep existential recursive
chain and a saturating transitive closure) at reduced sizes and writes
``BENCH_chase.json`` next to this file — a cheap scoreboard a CI step
or a later change can diff.

It also writes ``BENCH_fc.json``: the finite-model-search scoreboard
(``bench_perf_fc``) — the search engine (copy-on-write states,
incremental saturation, canonical dedup) on the Section 5.5 workloads
and the Theorem-2 counter-model corpus.  Node counts and verdicts are
deterministic; each entry reports them next to the wall time.

It also writes ``BENCH_hom.json``: microbenchmarks of the compiled
join-plan matcher (:mod:`repro.lf.plan`) on the workloads it was built
for — path joins, the rewriting engine's UCQ minimisation and
ptype-style per-element probes.  Each entry reports the result and the
matcher's counters next to the wall time (the ``ptype-probe`` counters
move with ``PYTHONHASHSEED``: each probe stops at its first match, and
index buckets iterate in hash order).

It also writes ``BENCH_rewrite.json``: the UCQ-rewriting scoreboard
(``bench_perf_rewriting``) — the indexed worklist engine on the
Theorem-2 corpus (``theorem2_corpus(extended=True)``, which opts into
the heavy ``linear-mix/P5-cycle-stress`` entry) and the deepest zoo
growth chain, with the subsumption cache cleared before each workload.
Each entry reports the output size and the run's deterministic
counters next to the wall time.

It also writes ``BENCH_guard.json``: the runtime-guard overhead.
Each workload (the recursive-chain chase and the Section 5.5
exhaustive search) runs once with an *active* guard — huge,
never-tripping ``wall_ms``/``max_rss_mb`` budgets, so every checkpoint
pays the real deadline/RSS bookkeeping — and once with no guard field
set, which runs under the shared inactive guard (NULL_GUARD).  The
bar is a median overhead of at most 2% (``bar_pct`` in the payload);
results must be identical between the modes.

It also writes ``BENCH_resil.json``: the overload-resilience
scoreboard.  Three tenant connections fire a paced 4x-capacity burst
of chase requests at a ``repro serve`` instance (admission control:
bounded queues, load shedding, queue deadlines) for a fixed window.
The metric is *goodput* — requests answered OK within
``SERVE_SLA_MS`` of submission — plus the accepted p99 and the
shed-latency p99.  The floor is ``floor_frac`` (one half) of the
burst window's serial capacity: the requests one worker could serve
back to back in ``window_s`` at the calibrated service time
``svc_ms``; the accepted p99 must stay under the SLA.

Usage::

    PYTHONPATH=src python benchmarks/run_smoke.py          # reduced sizes
    PYTHONPATH=src python benchmarks/run_smoke.py --full   # bench-file sizes

Timings are medians over ``--repeat`` runs; the stats counters
(triggers, probes, facts) are the real payload — a regression shows up
there even on a noisy machine.  Counters of full enumerations repeat
from run to run; counters of first-match probes (``ptype-probe``)
repeat only at a fixed ``PYTHONHASHSEED``, since each probe stops at
whichever match the hash-ordered index buckets yield first.  Each
payload records the ``PYTHONHASHSEED`` it ran under (``"unset"`` when
the variable was not set), so two scoreboards are compared only at the
same seed.
"""

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.chase import (
    ChaseConfig,
    ChaseView,
    IncrementalConfig,
    chase,
    chase_entails,
)
from repro.fc import SearchConfig, search_finite_model
from repro.lf import (
    HOM_STATS,
    Constant,
    ConjunctiveQuery,
    Variable,
    Structure,
    atom,
    clear_plan_cache,
    homomorphisms,
    satisfies,
)
from repro.config import OnBudget
from repro.rewriting import (
    RewriteConfig,
    clear_subsume_cache,
    minimize_ucq,
    rewrite,
)
from repro.zoo import (
    chain_growth_theory,
    churn_stream,
    disjoint_chains_database,
    random_edges_database,
    section55_database,
    section55_query,
    section55_theory,
    theorem2_corpus,
    transitive_theory,
)

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_chase.json"
HOM_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_hom.json"
FC_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_fc.json"
REWRITE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_rewrite.json"
GUARD_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_guard.json"
INCR_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_incr.json"

#: BENCH_incr acceptance bar: incremental view maintenance must beat
#: per-batch full rechase by at least this much on the small-delta
#: streaming workload (``tc-stream``).
INCR_SPEEDUP_BAR_X = 3.0

SERVE_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

#: BENCH_serve acceptance bar: a warm ``repro serve`` session must
#: answer the Theorem-2 corpus request mix at least this much faster
#: than the cold per-request baseline (fresh tenant + cleared process
#: caches on every request).
SERVE_SPEEDUP_BAR_X = 3.0

#: BENCH_serve per-request SLA: the server's default ``wall_ms`` for
#: the run; the warm mix's p99 latency must come in under it.
SERVE_SLA_MS = 1000.0

#: Never-tripping guard budgets: the guard is active (every checkpoint
#: pays the deadline check and the periodic RSS poll) but cannot stop
#: the run, so the gap to a run with no guard field set is pure
#: bookkeeping overhead.
GUARD_ON = {"wall_ms": 3_600_000.0, "max_rss_mb": 1_000_000.0}
GUARD_OVERHEAD_BAR_PCT = 2.0

RESIL_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_resil.json"

#: BENCH_resil floor: under a sustained 4x-capacity multi-tenant
#: burst, the server's goodput (requests answered OK *within the SLA*)
#: must reach this fraction of the window's serial capacity, the
#: requests one worker could serve back to back in the window.
RESIL_GOODPUT_FLOOR_FRAC = 0.5


def timed(fn, repeat):
    """(median wall seconds, last result) over *repeat* runs."""
    samples = []
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), result


def chase_entry(name, database, theory, config, repeat):
    wall, result = timed(lambda: chase(database, theory, config), repeat)
    stats = result.stats
    return {
        "workload": name,
        "wall_s": round(wall, 6),
        "depth": result.depth,
        "facts": len(result.structure),
        "triggers_evaluated": stats.triggers_evaluated,
        "triggers_fired": stats.triggers_fired,
        "triggers_suppressed": stats.triggers_suppressed,
        "index_probes": stats.index_probes,
        "rounds": len(stats.rounds),
    }


def _path_query(k):
    vs = [Variable(f"v{i}") for i in range(k + 1)]
    return ConjunctiveQuery(
        [atom("E", vs[i], vs[i + 1]) for i in range(k)], (vs[0], vs[-1])
    )


def _probe_query(k, reach=True):
    """A one-free-variable query, ptype-style: reachability down a
    k-path, or membership in a k-cycle."""
    f = Variable("f")
    if reach:
        vs = [f] + [Variable(f"r{i}") for i in range(1, k + 1)]
        return ConjunctiveQuery(
            [atom("E", vs[i], vs[i + 1]) for i in range(k)], (f,)
        )
    vs = [f] + [Variable(f"c{i}") for i in range(1, k)]
    return ConjunctiveQuery(
        [atom("E", vs[i], vs[(i + 1) % k]) for i in range(k)], (f,)
    )


def _marked_chain(k):
    """E-chains with U/V endpoint markers: pairwise incomparable, so
    ``minimize_ucq`` really performs all O(n²) containment checks."""
    vs = [Variable(f"v{i}") for i in range(k + 1)]
    atoms = [atom("E", vs[i], vs[i + 1]) for i in range(k)]
    atoms += [atom("U", vs[0]), atom("V", vs[k])]
    return ConjunctiveQuery(atoms, (vs[0],))


def hom_entries(full, repeat):
    """The BENCH_hom microbenchmarks: entries."""
    entries = []

    def measure(workload, fn, extra=None):
        """Time *fn* from cold caches; record its matcher counters."""
        clear_plan_cache()
        clear_subsume_cache()
        before = HOM_STATS.snapshot()
        wall, result = timed(fn, repeat)
        entries.append({**(extra or {}), "workload": workload,
                        "wall_s": round(wall, 6),
                        "result": result,
                        "hom": HOM_STATS.since(before).as_dict()})

    # enumeration: path joins, full binding enumeration — the shape of
    # the rewriting engine's containment checks
    nodes, edges, lengths = (60, 180, (6, 8)) if full else (40, 140, (5, 6))
    db = random_edges_database(nodes, edges, seed=11)
    queries = [_path_query(k) for k in lengths]

    def enumerate_paths():
        matches = 0
        for query in queries:
            for _ in homomorphisms(query.atoms, db):
                matches += 1
        return matches

    measure(f"path-join-{nodes}n{edges}e", enumerate_paths,
            {"paths": list(lengths)})

    # existence probes: satisfies() once per element per query with the
    # free variable prebound — the ptype workload
    p_nodes, p_edges, cycles = (120, 400, (6, 8)) if full else (100, 300, (6, 7))
    probe_db = random_edges_database(p_nodes, p_edges, seed=11)
    probe_queries = [_probe_query(6), _probe_query(8)] + [
        _probe_query(k, reach=False) for k in cycles
    ]
    probe_elements = sorted(probe_db.domain(), key=str)

    def probe_all():
        satisfied = 0
        for query in probe_queries:
            free = query.free[0]
            for element in probe_elements:
                if satisfies(probe_db, query, {free: element}):
                    satisfied += 1
        return satisfied

    measure(f"ptype-probe-{p_nodes}n{p_edges}e", probe_all,
            {"cycles": list(cycles)})

    # minimize_ucq: n pairwise-incomparable disjuncts, so every pair is
    # containment-checked — planned matcher + normalize/freeze caching
    n_disjuncts = 32 if full else 20
    disjuncts = [_marked_chain(k) for k in range(1, n_disjuncts + 1)]

    def minimize():
        clear_subsume_cache()
        return len(minimize_ucq(disjuncts))

    measure(f"minimize-ucq-{n_disjuncts}chains", minimize,
            {"disjuncts": n_disjuncts})

    return entries


def fc_entries(full, repeat):
    """The BENCH_fc scoreboard: entries with verdicts and node counts."""
    entries = []

    def measure(workload, database, theory, forbidden, max_elements):
        wall, outcome = timed(
            lambda: search_finite_model(
                database, theory, forbidden=forbidden,
                config=SearchConfig(max_elements=max_elements),
            ),
            repeat,
        )
        stats = outcome.stats
        entries.append({
            "workload": workload,
            "wall_s": round(wall, 6),
            "found": outcome.found,
            "model_size": outcome.model.domain_size if outcome.found else 0,
            "nodes_per_s": round(stats.nodes / max(wall, 1e-9), 1),
            "stats": stats.as_dict(timings=False),
        })

    theory = section55_theory()

    # Section 5.5 exhaustive: every finite model within the bound
    # satisfies the query, so the whole bounded space is swept.
    me = 12 if full else 10
    measure(f"s55-exhaustive-me{me}",
            section55_database(), theory, section55_query(), me)

    # Section 5.5 model search: a wide frontier of chain-end branches
    # the DFS never pops.
    chains = 12 if full else 10
    measure(f"s55-model-search-{chains}chains",
            disjoint_chains_database(chains), theory, None,
            44 if full else 40)

    # Theorem 2: counter-model search on a corpus entry whose theory
    # forks (two chains merge only in the forbidden query).
    for name, t2_theory, t2_db, t2_query in theorem2_corpus():
        if name == "two-chains/merge-query":
            measure("theorem2-two-chains", t2_db, t2_theory, t2_query, 7)

    return entries


def rewrite_entries(full, repeat):
    """The BENCH_rewrite scoreboard: entries with output sizes and the
    run's counters, every workload under the same budget."""
    entries = []

    config = RewriteConfig(
        max_steps=200_000 if full else 100_000,
        max_queries=4_000 if full else 2_000,
        on_budget=OnBudget.RETURN,
    )

    def measure(stage, workloads):
        for name, theory, query in workloads:
            clear_subsume_cache()
            wall, result = timed(lambda: rewrite(query, theory, config), repeat)
            entries.append({
                "stage": stage,
                "workload": name,
                "wall_s": round(wall, 6),
                "saturated": result.saturated,
                "disjuncts": len(result.ucq),
                "candidates": result.stats.candidates,
                "candidates_per_s": round(
                    result.stats.candidates / max(wall, 1e-9), 1),
                "stats": result.stats.as_dict(timings=False),
            })

    # Theorem-2 corpus, including the rewriting stress entry the
    # extended corpus opts into.
    measure("theorem2-corpus", [
        (name, theory, query)
        for name, theory, _db, query in theorem2_corpus(extended=True)
    ])

    # The deepest zoo growth chain: an 8-predicate ladder with a
    # multi-predicate path query.  Small closure: the per-step overhead
    # bound, kept as the low end of the scoreboard.
    depth = 8
    ladder = chain_growth_theory(depth)
    vs = [Variable(f"v{i}") for i in range(5)]
    path = ConjunctiveQuery(
        [atom(f"P{i % depth}", vs[i], vs[i + 1]) for i in range(4)], (vs[0],)
    )
    measure("zoo-chain", [(f"chain-growth-p{depth}-path4", ladder, path)])

    return entries


def guard_entries(full, repeat):
    """The BENCH_guard overhead: (entries, overheads).

    Each workload runs guarded (active guard, never-tripping budgets)
    and unguarded (no guard field set: the shared NULL_GUARD, which
    ``RuntimeGuard.from_config`` returns for such a config when no
    fault hook is installed); the overhead percentage
    is the guarded/unguarded wall ratio minus one.  Work counters must
    be identical — the guard may cost time, never change results.
    """
    entries = []
    overheads = {}

    def contrast(workload, key, run, checksum):
        per_mode = {}
        for mode, overrides in (
            ("guarded", GUARD_ON),
            ("unguarded", {}),
        ):
            wall, result = timed(lambda: run(**overrides), repeat)
            per_mode[mode] = (wall, checksum(result))
            entries.append({
                "workload": workload,
                "mode": mode,
                "wall_s": round(wall, 6),
                "checksum": checksum(result),
            })
        (guarded_wall, guarded_sum), (plain_wall, plain_sum) = (
            per_mode["guarded"], per_mode["unguarded"])
        assert guarded_sum == plain_sum, (workload, guarded_sum, plain_sum)
        overheads[key] = round(
            (guarded_wall / max(plain_wall, 1e-9) - 1.0) * 100.0, 2)

    # The recursive-chain chase of BENCH_chase: checkpoints per round,
    # per rule, and per 1024-trigger batch.
    depth = 40 if full else 20
    growth_theory = chain_growth_theory(3)
    growth_db = random_edges_database(4, 6, predicates=("P0",), seed=7)
    contrast(
        f"chase-recursive-chain-d{depth}", "chase",
        lambda **overrides: chase(
            growth_db, growth_theory,
            ChaseConfig(max_depth=depth, **overrides),
        ),
        lambda result: (result.depth, len(result.structure)),
    )

    # The Section 5.5 exhaustive search of BENCH_fc: one checkpoint per
    # node expansion.
    me = 12 if full else 10
    contrast(
        f"fc-s55-exhaustive-me{me}", "fc_search",
        lambda **overrides: search_finite_model(
            section55_database(), section55_theory(),
            forbidden=section55_query(),
            config=SearchConfig(max_elements=me, **overrides),
        ),
        lambda result: (result.found, result.stats.nodes),
    )

    return entries, overheads


def _evolved_bases(database, stream):
    """The base-fact snapshots after each batch of *stream* — what the
    rechase side chases from scratch, batch by batch."""
    live = set(database.facts())
    bases = []
    for adds, removes in stream:
        live.difference_update(removes)
        live.update(adds)
        bases.append(sorted(live, key=str))
    return bases


def incr_entries(full, repeat):
    """The BENCH_incr scoreboard: (entries, speedups).

    Each streaming workload runs twice: *incremental* builds one
    :class:`ChaseView` and applies every update batch (semi-naive delta
    resume on inserts, DRed overdelete/rederive on deletes), *rechase*
    chases every post-batch base from scratch.  Both sides see the same
    deterministic :func:`churn_stream`, so the comparison is exact:

    * ``tc-stream`` — transitive closure (datalog, saturating), the
      acceptance workload.  Final fact sets are asserted equal (datalog
      has no nulls, so homomorphic equivalence is plain set equality);
      the bar (``bar_x``) binds its speedup, ``tc_stream_dict``.
    * ``theorem2-stream`` — the Theorem-2 corpus *theories* on
      saturating cycle-core databases.  The corpus databases themselves
      all have divergent chases (there is no fixpoint to maintain), but
      under the restricted chase each theory saturates on a successor
      cycle: every node keeps an outgoing edge, so the growth
      existentials stay suppressed while the datalog rules (example7's
      E-confluence ``R``, two-chains' ``B`` marker) derive real facts
      the churn moves around.  The cycle core is protected from churn
      (``churn_stream(protected=...)``); chords churn freely.  No
      existential ever fires, so the view and the fresh rechase agree
      on the exact fact set and on the corpus query's verdict —
      asserted per entry.  The ≥5x small-delta target is read here.
    * ``batch-load`` — one huge insert batch, the workload incremental
      maintenance does *not* win (the resume does the same work as a
      fresh chase plus trace bookkeeping).  Reported honestly outside
      the bar as the scoreboard's low end.
    """
    entries = []
    speedups = {}
    theory = transitive_theory()

    def contrast(workload, key, run_incremental, run_rechase, batches, check):
        incr_wall, view = timed(run_incremental, repeat)
        full_wall, last = timed(run_rechase, repeat)
        check(view, last)
        updates = view.update_stats[-batches:]
        entries.append({
            "workload": workload,
            "mode": "incremental",
            "wall_s": round(incr_wall, 6),
            "facts": len(view),
            "updates": batches,
            "overdeleted": sum(u.overdeleted for u in updates),
            "rederived": sum(u.rederived for u in updates),
            "resumed_rounds": sum(u.resumed_rounds for u in updates),
            "saturated": view.saturated,
        })
        entries.append({
            "workload": workload,
            "mode": "rechase",
            "wall_s": round(full_wall, 6),
            "facts": len(last.structure),
            "updates": batches,
            "saturated": last.saturated,
        })
        speedups[key] = round(full_wall / max(incr_wall, 1e-9), 2)

    # tc-stream: small-delta churn over a random edge base — the
    # acceptance workload.
    nodes, edges, batches = (40, 90, 16) if full else (25, 55, 12)
    tc_db = random_edges_database(nodes, edges, seed=42)
    stream = churn_stream(tc_db, batches=batches, delta_size=1,
                          churn=0.5, seed=42)
    bases = _evolved_bases(tc_db, stream)

    def tc_incremental():
        view = ChaseView(tc_db, theory, IncrementalConfig(
            max_depth=None, max_facts=500_000))
        for adds, removes in stream:
            view.update(adds=adds, removes=removes)
        return view

    def tc_rechase():
        result = None
        for base in bases:
            result = chase(Structure(base), theory, ChaseConfig(
                max_depth=None, max_facts=500_000))
        return result

    def tc_check(view, last):
        assert view.saturated and last.saturated
        assert view.facts() == last.structure.facts()

    contrast(f"tc-stream-{nodes}n{edges}e-b{batches}", "tc_stream_dict",
             tc_incremental, tc_rechase, batches, tc_check)

    # theorem2-stream: corpus theories on saturating cycle cores.
    cycle_n = 36 if full else 24
    t2_batches = 16 if full else 12
    safety = dict(max_depth=None, max_facts=100_000)

    def cycle_core(pred):
        vs = [Constant(f"v{i}") for i in range(cycle_n)]
        return [atom(pred, vs[i], vs[(i + 1) % cycle_n])
                for i in range(cycle_n)]

    def chords(pred):
        # forward skip-2 chords: with the skip-1 core and cycle_n >= 7
        # no directed 3-cycle exists, so example1's triangle rule
        # (whose U-consequences diverge) can never fire from the seed
        vs = [Constant(f"v{i}") for i in range(cycle_n)]
        return [atom(pred, vs[i], vs[(i + 2) % cycle_n])
                for i in range(0, cycle_n, 3)]

    for name, t2_theory, _t2_db, t2_query in theorem2_corpus():
        if name == "binary-tree/F-G-join":
            core = cycle_core("F") + cycle_core("G")
            pred = "F"
        else:
            core = cycle_core("E")
            pred = "E"
        t2_db = Structure(core + chords(pred))
        t2_stream = churn_stream(t2_db, batches=t2_batches, delta_size=1,
                                 churn=0.5, pred=pred, seed=7,
                                 protected=core)
        if name == "example1/triangle-query":
            # drop adds that would close a directed closed 3-walk —
            # including self-loops, which satisfy the triangle body
            # with x=y=z: the triangle rule's U-consequences diverge,
            # and this stream maintains a fixpoint (deterministic,
            # documented filter)
            live = {(f.args[0], f.args[1]) for f in t2_db.facts()}
            succ = {}
            for u, v in live:
                succ.setdefault(u, set()).add(v)
            filtered = []
            for adds, removes in t2_stream:
                for f in removes:
                    live.discard((f.args[0], f.args[1]))
                    succ.get(f.args[0], set()).discard(f.args[1])
                kept = []
                for f in adds:
                    u, v = f.args
                    closes = u == v or any(
                        (w, u) in live for w in succ.get(v, ()))
                    if closes:
                        continue
                    kept.append(f)
                    live.add((u, v))
                    succ.setdefault(u, set()).add(v)
                filtered.append((kept, removes))
            t2_stream = filtered
        t2_bases = _evolved_bases(t2_db, t2_stream)

        def t2_incremental(t2_db=t2_db, t2_theory=t2_theory,
                           t2_stream=t2_stream):
            view = ChaseView(t2_db, t2_theory, IncrementalConfig(**safety))
            for adds, removes in t2_stream:
                view.update(adds=adds, removes=removes)
            return view

        def t2_rechase(t2_theory=t2_theory, t2_bases=t2_bases):
            result = None
            for base in t2_bases:
                result = chase(Structure(base), t2_theory,
                               ChaseConfig(**safety))
            return result

        def t2_check(view, last, t2_query=t2_query, name=name):
            assert view.saturated and last.saturated, name
            assert view.facts() == last.structure.facts(), name
            ours = view.certain_one(t2_query).verdict
            theirs = chase_entails(last, t2_query)
            assert ours == theirs, (name, ours, theirs)

        short = name.split("/")[0]
        contrast(f"theorem2-stream-{short}", f"theorem2_{short}",
                 t2_incremental, t2_rechase, t2_batches, t2_check)

    # the ≥5x small-delta target is read on the corpus aggregate
    t2_incr = sum(e["wall_s"] for e in entries
                  if e["workload"].startswith("theorem2-stream-")
                  and e["mode"] == "incremental")
    t2_full = sum(e["wall_s"] for e in entries
                  if e["workload"].startswith("theorem2-stream-")
                  and e["mode"] == "rechase")
    speedups["theorem2_stream"] = round(t2_full / max(t2_incr, 1e-9), 2)

    # batch-load: one big insert batch — the honest low end.
    load_facts = sorted(tc_db.facts(), key=str)
    half = len(load_facts) // 2
    start, bulk = load_facts[:half], load_facts[half:]

    def load_incremental():
        view = ChaseView(Structure(start), theory, IncrementalConfig(
            max_depth=None, max_facts=500_000))
        view.update(adds=bulk)
        return view

    def load_rechase():
        return chase(tc_db, theory, ChaseConfig(
            max_depth=None, max_facts=500_000))

    def load_check(view, last):
        assert view.saturated and last.saturated
        assert view.facts() == last.structure.facts()

    contrast(f"batch-load-{len(bulk)}adds", "batch_load",
             load_incremental, load_rechase, 1, load_check)

    return entries, speedups


def serve_entries(full, repeat):
    """The BENCH_serve scoreboard: (entries, speedups).

    One long-lived :class:`~repro.serve.ServerThread` answers the
    Theorem-2 corpus request mix (rewrite + chase + certain per entry)
    plus a set of rewrite-heavy "compile service" tenants — random
    linear theories whose 3-atom join queries take tens of ms to
    rewrite from scratch — over a real loopback socket, in two modes:

    * ``cold`` — one-shot economics inside the same transport: a fresh
      tenant per request and the process-wide caches (plan cache,
      subsumption memo, type-query memo) cleared before each, so every
      request pays parse + plan-compile + full rewriting again;
    * ``warm`` — one tenant throughout, measured after a warm-up pass:
      parsed artifacts, compiled plans, and finished rewritings are
      served from the session, which is the whole point of serve mode.

    Per-request latencies give sustained req/s and p50/p99; the
    acceptance bar is ``SERVE_SPEEDUP_BAR_X`` on total wall with the
    warm p99 under ``SERVE_SLA_MS`` (each request also *runs* under
    that deadline as its guard SLA).  Cold runs first so its cache
    clears cannot steal the warm mode's state.
    """
    from repro.lf.io import atom_to_text, query_to_text, theory_to_text
    from repro.ptypes.bruteforce import clear_type_query_cache
    from repro.serve import ServeConfig, ServerThread

    from repro.zoo import random_linear_theory

    corpus = theorem2_corpus()
    if not full:
        corpus = corpus[:5]
    jobs = []
    for name, theory, database, query in corpus:
        jobs.append(("mix", (
            name,
            theory_to_text(theory),
            "\n".join(atom_to_text(f)
                      for f in sorted(database.facts(), key=str)),
            query_to_text(query),
            [str(v) for v in query.free],
        )))
    # rewrite-heavy tenants: each pays a real UCQ saturation cold
    # (tens of ms) that the warm artifact cache answers instantly
    heavy_specs = [(16, 11), (18, 7), (20, 3)] if not full else \
        [(16, 11), (18, 7), (18, 11), (20, 3)]
    for rules, seed in heavy_specs:
        theory = random_linear_theory(predicates=3, rules=rules, seed=seed)
        jobs.append(("rewrite", (
            f"linear-{rules}r-s{seed}",
            theory_to_text(theory),
            None,
            "P0(x,y), P1(y,z), P2(z,w)",
            [],
        )))
    rounds = max(repeat, 6 if full else 3)

    def fire(client, job, tenant):
        kind, (name, ttext, dtext, qtext, free) = job
        responses = [
            client.request("rewrite", tenant=tenant, theory=ttext,
                           query=qtext, free=free),
        ]
        if kind == "mix":
            responses.append(
                client.request("chase", tenant=tenant, theory=ttext,
                               database=dtext, params={"depth": 6}))
            responses.append(
                client.request("certain", tenant=tenant, theory=ttext,
                               database=dtext, query=qtext, free=free,
                               params={"depth": 6}))
        for response in responses:
            assert response["status"] != "error", response
        return len(responses)

    def measure(client, mode):
        latencies = []
        requests = 0
        serial = 0
        for _ in range(rounds):
            for job in jobs:
                if mode == "cold":
                    clear_plan_cache()
                    clear_subsume_cache()
                    clear_type_query_cache()
                    serial += 1
                    tenant = f"cold-{serial}"
                else:
                    tenant = "warm"
                start = time.perf_counter()
                requests += fire(client, job, tenant)
                latencies.append(time.perf_counter() - start)
        return latencies, requests

    def entry(mode, latencies, requests):
        ordered = sorted(latencies)
        total = sum(latencies)
        count = len(latencies)
        return {
            "workload": f"theorem2-mix-{len(jobs)}jobs",
            "mode": mode,
            "requests": requests,
            "wall_s": round(total, 6),
            "req_per_s": round(requests / max(total, 1e-9), 2),
            "p50_ms": round(ordered[count // 2] * 1000.0, 3),
            "p99_ms": round(
                ordered[min(count - 1, int(0.99 * count))] * 1000.0, 3
            ),
        }

    config = ServeConfig(workers=2, wall_ms=SERVE_SLA_MS)
    with ServerThread(config) as handle:
        with handle.client(timeout=300) as client:
            cold, cold_requests = measure(client, "cold")
            for job in jobs:  # warm-up: populate caches
                fire(client, job, "warm")
            warm, warm_requests = measure(client, "warm")

    entries = [
        entry("cold", cold, cold_requests),
        entry("warm", warm, warm_requests),
    ]
    speedups = {
        "theorem2_mix": round(sum(cold) / max(sum(warm), 1e-9), 2),
    }
    return entries, speedups


def resil_entries(full, repeat):
    """The BENCH_resil scoreboard: a list of one entry.

    Goodput under a sustained 4x-capacity multi-tenant burst.  The
    workload is the transitive-closure chase through serve (tens of ms
    per request, measured serially per run to calibrate the burst
    rate); three tenant connections submit a paced open-loop burst for
    a fixed window while reader threads timestamp every response as it
    arrives.

    *Goodput* is the number of requests answered ``ok`` within
    ``SERVE_SLA_MS`` of their *submission* (queue time counts — the
    client experience, not the worker's).  A server that queued
    everything would answer late requests, but worthlessly; admission
    control sheds early (bounded queues + queue deadlines) and keeps
    the accepted requests' latency under the SLA.  The floor is
    ``RESIL_GOODPUT_FLOOR_FRAC`` of the window's serial capacity (the
    window over the calibrated service time), with the accepted p99
    under the SLA; the shed-latency p99 (how fast a shed request
    learns its fate) is reported alongside.
    """
    import socket
    import threading

    from repro.lf.io import atom_to_text, theory_to_text
    from repro.serve import ServeConfig, ServerThread

    workers = 2
    tenants = ("alpha", "beta", "gamma")
    size, edges = (30, 60) if full else (20, 40)
    duration_s = 4.0 if full else 3.0
    sla_s = SERVE_SLA_MS / 1000.0
    ttext = theory_to_text(transitive_theory())
    db = random_edges_database(size, edges, seed=42)
    dtext = "\n".join(atom_to_text(f) for f in sorted(db.facts(), key=str))

    def fire(client, tenant):
        return client.submit("chase", tenant=tenant, theory=ttext,
                             database=dtext, params={"depth": 4})

    def calibrate():
        """Steady-state service time, measured serially on a quiet
        server; the burst rate and the goodput floor derive from it."""
        with ServerThread(ServeConfig(workers=workers)) as handle:
            with handle.client(timeout=60) as client:
                client.response_for(fire(client, "calibrate"))  # warm
                samples = []
                for _ in range(7):
                    start = time.perf_counter()
                    response = client.response_for(fire(client, "calibrate"))
                    assert response["ok"], response
                    samples.append(time.perf_counter() - start)
        return max(statistics.median(samples), 1e-3)

    def burst(rate):
        # A short queue: accepted requests must clear well inside the
        # SLA even with the workers GIL-serialised under load.
        config = ServeConfig(workers=workers, wall_ms=SERVE_SLA_MS,
                             max_pending=2 * workers)
        total = max(workers * 4, int(rate * duration_s))
        records = {}
        with ServerThread(config) as handle:
            clients = [handle.client(timeout=60) for _ in tenants]
            try:
                # Warm each tenant's session caches before the clock runs.
                for client, tenant in zip(clients, tenants):
                    response = client.response_for(fire(client, tenant))
                    assert response["ok"], response

                expected = [0] * len(clients)
                done = threading.Event()
                lock = threading.Lock()

                def read_all(index, client):
                    seen = 0
                    while True:
                        if done.is_set():
                            with lock:
                                if seen >= expected[index]:
                                    return
                        try:
                            response = client.recv()
                        except socket.timeout:
                            continue  # re-check the exit condition
                        arrival = time.perf_counter()
                        with lock:
                            rec = records.setdefault(
                                (index, response["id"]), {})
                            rec["response"] = response
                            rec["recv"] = arrival
                        seen += 1

                readers = [
                    threading.Thread(target=read_all, args=(i, client),
                                     name=f"resil-reader-{i}", daemon=True)
                    for i, client in enumerate(clients)
                ]
                for reader in readers:
                    reader.start()
                # The paced open-loop burst, round-robin across tenants.
                begin = time.perf_counter()
                for i in range(total):
                    delay = begin + i / rate - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    index = i % len(clients)
                    submitted = time.perf_counter()
                    rid = fire(clients[index], tenants[index])
                    with lock:
                        rec = records.setdefault((index, rid), {})
                        rec["submit"] = submitted
                        expected[index] += 1
                done.set()
                for reader in readers:
                    reader.join(timeout=300)
                    assert not reader.is_alive(), "resil reader wedged"
            finally:
                for client in clients:
                    client.close()
        return records

    def p99_ms(samples):
        if not samples:
            return None
        ordered = sorted(samples)
        index = min(len(ordered) - 1, int(0.99 * len(ordered)))
        return round(ordered[index] * 1000.0, 3)

    def entry(records, rate, svc_s):
        ok_latencies = []
        shed_latencies = []
        for rec in records.values():
            response = rec["response"]
            assert isinstance(response.get("ok"), bool), response
            latency = rec["recv"] - rec["submit"]
            if response["ok"]:
                ok_latencies.append(latency)
            else:
                assert response["error"] in (
                    "overloaded", "queue_deadline"), response
                if response["error"] == "overloaded":
                    assert isinstance(response["retry_after_ms"], int)
                shed_latencies.append(latency)
        goodput = sum(1 for latency in ok_latencies if latency <= sla_s)
        serial_capacity = duration_s / svc_s
        return {
            "workload": f"tc-burst-{size}n{edges}e",
            "mode": "admission",
            "submitted": len(records),
            "rate_per_s": round(rate, 1),
            "svc_ms": round(svc_s * 1000.0, 3),
            "window_s": duration_s,
            "ok": len(ok_latencies),
            "shed": len(shed_latencies),
            "goodput": goodput,
            "goodput_per_s": round(goodput / duration_s, 2),
            "goodput_frac": round(goodput / serial_capacity, 3),
            "floor_frac": RESIL_GOODPUT_FLOOR_FRAC,
            "accepted_p99_ms": p99_ms(ok_latencies),
            "shed_p99_ms": p99_ms(shed_latencies),
        }

    svc_s = calibrate()
    rate = min(400.0, 4.0 * workers / svc_s)  # 4x nominal capacity
    return [entry(burst(rate), rate, svc_s)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run at the bench-file sizes instead of reduced")
    parser.add_argument("--repeat", type=int, default=3,
                        help="timing repetitions (median is reported)")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    parser.add_argument("--hom-output", type=Path, default=HOM_OUTPUT)
    parser.add_argument("--fc-output", type=Path, default=FC_OUTPUT)
    parser.add_argument("--rewrite-output", type=Path, default=REWRITE_OUTPUT)
    parser.add_argument("--guard-output", type=Path, default=GUARD_OUTPUT)
    parser.add_argument("--incr-output", type=Path, default=INCR_OUTPUT)
    parser.add_argument("--serve-output", type=Path, default=SERVE_OUTPUT)
    parser.add_argument("--resil-output", type=Path, default=RESIL_OUTPUT)
    args = parser.parse_args(argv)
    # the fields every payload starts with
    run_info = {
        "mode": "full" if args.full else "reduced",
        "repeat": args.repeat,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
    }

    depth = 40 if args.full else 20
    tc_size, tc_edges = (40, 80) if args.full else (15, 30)

    growth_theory = chain_growth_theory(3)
    growth_db = random_edges_database(4, 6, predicates=("P0",), seed=7)
    tc_theory = transitive_theory()
    tc_db = random_edges_database(tc_size, tc_edges, seed=42)

    entries = [
        # bench_perf_chase: deep existential recursive chain
        chase_entry(
            f"recursive-chain-d{depth}", growth_db, growth_theory,
            ChaseConfig(max_depth=depth), args.repeat,
        ),
        # bench_perf_chase: transitive closure (datalog, saturating)
        chase_entry(
            f"transitive-closure-{tc_size}n{tc_edges}e", tc_db, tc_theory,
            ChaseConfig(max_depth=None, max_facts=500_000), args.repeat,
        ),
    ]
    payload = {
        **run_info,
        "entries": entries,
    }
    args.output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for entry in entries:
        print(f"{entry['workload']:>34} "
              f"{entry['wall_s'] * 1000:9.2f} ms  {entry['facts']} facts")
    print(f"wrote {args.output}")

    hom_entry_list = hom_entries(args.full, args.repeat)
    hom_payload = {
        **run_info,
        "entries": hom_entry_list,
    }
    args.hom_output.write_text(
        json.dumps(hom_payload, indent=2, sort_keys=True) + "\n")
    for entry in hom_entry_list:
        print(f"{entry['workload']:>34} "
              f"{entry['wall_s'] * 1000:9.2f} ms  result={entry['result']}")
    print(f"wrote {args.hom_output}")

    fc_entry_list = fc_entries(args.full, args.repeat)
    fc_payload = {
        **run_info,
        "entries": fc_entry_list,
    }
    args.fc_output.write_text(
        json.dumps(fc_payload, indent=2, sort_keys=True) + "\n")
    for entry in fc_entry_list:
        print(f"{entry['workload']:>34} "
              f"{entry['wall_s'] * 1000:9.2f} ms  "
              f"nodes={entry['stats']['nodes']} found={entry['found']}")
    print(f"wrote {args.fc_output}")

    rw_entry_list = rewrite_entries(args.full, args.repeat)
    rw_payload = {
        **run_info,
        "entries": rw_entry_list,
    }
    args.rewrite_output.write_text(
        json.dumps(rw_payload, indent=2, sort_keys=True) + "\n")
    for entry in rw_entry_list:
        print(f"{entry['workload']:>34} "
              f"{entry['wall_s'] * 1000:9.2f} ms  "
              f"disjuncts={entry['disjuncts']} "
              f"cand/s={entry['candidates_per_s']}")
    print(f"wrote {args.rewrite_output}")

    guard_entry_list, guard_overheads = guard_entries(args.full, args.repeat)
    guard_payload = {
        **run_info,
        "bar_pct": GUARD_OVERHEAD_BAR_PCT,
        "entries": guard_entry_list,
        "overhead_pct": guard_overheads,
    }
    args.guard_output.write_text(
        json.dumps(guard_payload, indent=2, sort_keys=True) + "\n")
    for entry in guard_entry_list:
        print(f"{entry['workload']:>34} {entry['mode']:>20} "
              f"{entry['wall_s'] * 1000:9.2f} ms  "
              f"checksum={entry['checksum']}")
    for name, pct in guard_overheads.items():
        print(f"guard overhead, {name}: {pct}% "
              f"(bar: {GUARD_OVERHEAD_BAR_PCT}%)")
    print(f"wrote {args.guard_output}")

    incr_entry_list, incr_speedups = incr_entries(args.full, args.repeat)
    incr_payload = {
        **run_info,
        "bar_x": INCR_SPEEDUP_BAR_X,
        "entries": incr_entry_list,
        "speedups": incr_speedups,
    }
    args.incr_output.write_text(
        json.dumps(incr_payload, indent=2, sort_keys=True) + "\n")
    for entry in incr_entry_list:
        print(f"{entry['workload']:>34} {entry['mode']:>20} "
              f"{entry['wall_s'] * 1000:9.2f} ms  {entry['facts']} facts")
    for name, factor in incr_speedups.items():
        print(f"rechase/incremental speedup, {name}: {factor}x")
    print(f"wrote {args.incr_output}")

    serve_entry_list, serve_speedups = serve_entries(args.full, args.repeat)
    serve_payload = {
        **run_info,
        "bar_x": SERVE_SPEEDUP_BAR_X,
        "sla_ms": SERVE_SLA_MS,
        "entries": serve_entry_list,
        "speedups": serve_speedups,
    }
    args.serve_output.write_text(
        json.dumps(serve_payload, indent=2, sort_keys=True) + "\n")
    for entry in serve_entry_list:
        print(f"{entry['workload']:>34} {entry['mode']:>20} "
              f"{entry['wall_s'] * 1000:9.2f} ms  "
              f"{entry['req_per_s']} req/s  p50={entry['p50_ms']}ms "
              f"p99={entry['p99_ms']}ms")
    for name, factor in serve_speedups.items():
        print(f"cold/warm speedup, {name}: {factor}x "
              f"(bar: {SERVE_SPEEDUP_BAR_X}x)")
    print(f"wrote {args.serve_output}")

    resil_entry_list = resil_entries(args.full, args.repeat)
    resil_payload = {
        **run_info,
        "sla_ms": SERVE_SLA_MS,
        "entries": resil_entry_list,
    }
    args.resil_output.write_text(
        json.dumps(resil_payload, indent=2, sort_keys=True) + "\n")
    for entry in resil_entry_list:
        print(f"{entry['workload']:>34} {entry['mode']:>20} "
              f"goodput={entry['goodput']}/{entry['submitted']} "
              f"({entry['goodput_per_s']}/s)  "
              f"accepted_p99={entry['accepted_p99_ms']}ms "
              f"shed={entry['shed']} shed_p99={entry['shed_p99_ms']}ms")
        print(f"goodput / serial capacity: {entry['goodput_frac']} "
              f"(floor: {entry['floor_frac']})")
    print(f"wrote {args.resil_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
