"""P06 — finite-model search throughput.

Three workloads:

* the Section 5.5 exhaustive sweep (no model avoids the query, so the
  whole bounded space is visited — the per-node cost of incremental
  saturation + canonical dedup);
* the Section 5.5 model search over disjoint chains (a wide frontier
  the winner never materialises — the lazy copy-on-write payoff);
* the Theorem-2 counter-model corpus (the paper's E10 pipeline).
"""

from repro.fc import SearchConfig, search_finite_model
from repro.zoo import (
    disjoint_chains_database,
    section55_database,
    section55_query,
    section55_theory,
    theorem2_corpus,
)


def run_search(database, theory, forbidden, max_elements):
    return search_finite_model(
        database,
        theory,
        forbidden=forbidden,
        config=SearchConfig(max_elements=max_elements),
    )


def record(benchmark, outcome):
    stats = outcome.stats
    benchmark.extra_info["nodes"] = stats.nodes
    benchmark.extra_info["duplicates"] = stats.duplicates
    benchmark.extra_info["states_materialised"] = stats.states_materialised
    benchmark.extra_info["states_created"] = stats.states_created
    benchmark.extra_info["found"] = outcome.found


def test_section55_exhaustive(benchmark):
    """Every finite model with <= 12 elements satisfies the query."""
    theory, database = section55_theory(), section55_database()
    forbidden = section55_query()

    outcome = benchmark(
        lambda: run_search(database, theory, forbidden, 12)
    )
    record(benchmark, outcome)
    assert not outcome.found
    assert outcome.stats.exhausted


def test_section55_model_search(benchmark):
    """Find a model over 12 disjoint chains: the frontier is wide but
    the winning branch is short, so lazy materialisation dominates."""
    theory = section55_theory()
    database = disjoint_chains_database(12)

    outcome = benchmark(lambda: run_search(database, theory, None, 44))
    record(benchmark, outcome)
    assert outcome.found


def test_theorem2_counter_models(benchmark):
    """Counter-model search across the whole Theorem-2 corpus."""
    corpus = theorem2_corpus()

    def run():
        outcomes = []
        for _name, theory, database, query in corpus:
            outcomes.append(run_search(database, theory, query, 7))
        return outcomes

    outcomes = benchmark(run)
    benchmark.extra_info["workloads"] = len(outcomes)
    benchmark.extra_info["counter_models"] = sum(o.found for o in outcomes)
    benchmark.extra_info["nodes"] = sum(o.stats.nodes for o in outcomes)
    assert all(outcome.found for outcome in outcomes)
