"""P01 — chase throughput: facts per second vs database size.

Transitive closure over random graphs (datalog, saturating) and the
growing linear chase (existential, truncated).
"""

import pytest

from repro.chase import ChaseConfig, chase
from repro.zoo import chain_growth_theory, random_edges_database, transitive_theory


@pytest.mark.parametrize("size,edges", [(20, 40), (40, 80), (60, 120)])
def test_transitive_closure_scaling(benchmark, size, edges):
    theory = transitive_theory()
    database = random_edges_database(size, edges, seed=42)

    def run():
        return chase(database, theory, ChaseConfig(max_depth=None, max_facts=500_000))

    result = benchmark(run)
    benchmark.extra_info["input_edges"] = edges
    benchmark.extra_info["output_facts"] = len(result.structure)
    assert result.saturated


@pytest.mark.parametrize("depth", [10, 20, 40])
def test_linear_growth_scaling(benchmark, depth):
    theory = chain_growth_theory(3)
    database = random_edges_database(4, 6, predicates=("P0",), seed=7)

    def run():
        return chase(database, theory, ChaseConfig(max_depth=depth))

    result = benchmark(run)
    benchmark.extra_info["depth"] = depth
    benchmark.extra_info["elements"] = result.structure.domain_size
    assert result.depth == depth


def test_deep_recursive_chain(benchmark):
    """A deep existential recursive chain.

    Each round after the first joins only through the last round's
    delta; the trigger and probe counters sit next to the timings.
    """
    theory = chain_growth_theory(3)
    database = random_edges_database(4, 6, predicates=("P0",), seed=7)
    config = ChaseConfig(max_depth=40)

    def run():
        return chase(database, theory, config)

    result = benchmark(run)
    benchmark.extra_info["triggers_evaluated"] = result.stats.triggers_evaluated
    benchmark.extra_info["index_probes"] = result.stats.index_probes
    benchmark.extra_info["facts"] = len(result.structure)
    assert result.depth == 40


@pytest.mark.parametrize("delta_size,churn", [(1, 0.5), (4, 0.5), (1, 0.0)])
def test_streaming_churn_incremental(benchmark, delta_size, churn):
    """Streaming churn: maintain a TC view under insert/retract batches.

    The workload the incremental view exists for — small deltas against
    a large settled fixpoint.  The same stream feeds the smoke
    benchmark's incremental-vs-rechase comparison (BENCH_incr.json);
    the dials cover single-op and batched deltas plus a pure-insert
    stream.
    """
    from repro.chase import ChaseView, IncrementalConfig
    from repro.zoo import churn_stream

    theory = transitive_theory()
    database = random_edges_database(30, 60, seed=11)
    stream = churn_stream(
        database, batches=10, delta_size=delta_size, churn=churn, seed=11
    )

    def run():
        view = ChaseView(database, theory, IncrementalConfig(max_depth=None))
        for adds, removes in stream:
            view.update(adds=adds, removes=removes)
        return view

    view = benchmark(run)
    benchmark.extra_info["delta_size"] = delta_size
    benchmark.extra_info["churn"] = churn
    benchmark.extra_info["facts"] = len(view)
    benchmark.extra_info["overdeleted"] = sum(
        s.overdeleted for s in view.update_stats
    )
    benchmark.extra_info["rederived"] = sum(s.rederived for s in view.update_stats)
    assert view.saturated
