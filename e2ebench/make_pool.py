"""Regenerate ``rewrite_pool.json``: the query-mix rewrite instances.

Each entry is a random linear theory with a path or cycle query, plus the
number of disjuncts of its saturated UCQ rewriting.  A non-redundant UCQ
rewriting has a unique disjunct count, so the benchmark checks every
``rewrite`` response against this number.  Instances whose rewriting
does not saturate, or takes longer than :data:`MAX_MS` in process, are
left out: query-mix keeps every request's own service time well below its
latency limit.

Run from the repository root, at the commit whose answers the benchmark
should expect::

    python3 e2ebench/make_pool.py
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import linear_theory, render_atoms, render_theory, shape_query  # noqa: E402

#: Random theories tried.
THEORIES = 400
#: In-process service time (ms) an entry must fall within.
MIN_MS, MAX_MS = 1.0, 30.0


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from repro.lf import parse_query, parse_theory
    from repro.rewriting import RewriteConfig, rewrite

    rng = random.Random("rewrite-pool")
    entries = []
    for index in range(THEORIES):
        predicates = rng.randint(3, 5)
        rules = linear_theory(predicates, rng.randint(4, 10), seed=index)
        cycle = rng.random() < 0.5
        atoms = shape_query(predicates, rng.randint(2, 4), cycle, seed=index)
        free = ["x0"] if rng.random() < 0.5 else []
        theory_text, query_text = render_theory(rules), render_atoms(atoms)
        config = RewriteConfig(max_steps=20_000, max_queries=2_000)
        theory, query = parse_theory(theory_text), parse_query(query_text, free=free)
        rewrite(query, theory, config)  # warm the plan and rule caches
        samples = []
        for _ in range(3):
            start = time.perf_counter()
            result = rewrite(query, theory, config)
            samples.append((time.perf_counter() - start) * 1000.0)
        service_ms = statistics.median(samples)
        if not result.saturated or not MIN_MS <= service_ms <= MAX_MS:
            continue
        entries.append({
            "theory": theory_text, "query": query_text, "free": free,
            "disjuncts": len(result.ucq), "service_ms": round(service_ms, 2),
        })
    path = os.path.join(HERE, "rewrite_pool.json")
    with open(path, "w") as handle:
        json.dump({"max_ms": MAX_MS, "min_ms": MIN_MS,
                   "entries": entries}, handle, indent=0)
        handle.write("\n")
    costs = sorted(e["service_ms"] for e in entries)
    print(f"{len(entries)} entries -> {path}; service ms p10/p50/p90 "
          f"{costs[len(costs) // 10]}/{costs[len(costs) // 2]}/"
          f"{costs[9 * len(costs) // 10]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
