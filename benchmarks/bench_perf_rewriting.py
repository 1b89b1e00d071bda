"""P03 — rewriting-engine scaling: closure size vs theory size.

Random linear theories (always BDD-friendly shapes) with growing rule
counts; the UCQ closure and the κ profile; and the extended Theorem-2
corpus's stress entry.
"""

import pytest

from repro.lf import parse_query
from repro.rewriting import (
    RewriteConfig,
    bdd_profile,
    clear_subsume_cache,
    rewrite,
)
from repro.zoo import random_linear_theory, theorem2_corpus
from repro.config import OnBudget

CONFIG = RewriteConfig(max_steps=50_000, max_queries=5_000, on_budget=OnBudget.RETURN)


@pytest.mark.parametrize("rules", [4, 8, 12])
def test_rewriting_scaling_in_rules(benchmark, rules):
    theory = random_linear_theory(predicates=3, rules=rules, seed=11)
    query = parse_query("P0(x,y), P1(y,z)")

    def run():
        return rewrite(query, theory, CONFIG)

    result = benchmark(run)
    benchmark.extra_info["rules"] = rules
    benchmark.extra_info["disjuncts"] = len(result.ucq)
    benchmark.extra_info["steps"] = result.steps
    benchmark.extra_info["saturated"] = result.saturated
    assert result.saturated


@pytest.mark.parametrize("rules", [8, 12])
def test_linear_three_atom_query(benchmark, rules):
    """A three-atom query over a growing linear theory, cold caches."""
    theory = random_linear_theory(predicates=4, rules=rules, seed=11)
    query = parse_query("P0(x,y), P1(y,z), P2(z,w)")

    def run():
        clear_subsume_cache()
        return rewrite(query, theory, CONFIG)

    result = benchmark(run)
    benchmark.extra_info["rules"] = rules
    benchmark.extra_info["disjuncts"] = len(result.ucq)
    benchmark.extra_info["candidates"] = result.stats.candidates
    assert result.saturated


def test_corpus_stress(benchmark):
    """The extended Theorem-2 corpus's ``linear-mix/P5-cycle-stress``
    entry, cold caches."""
    name, theory, _db, query = theorem2_corpus(extended=True)[-1]
    assert name == "linear-mix/P5-cycle-stress"
    config = CONFIG.with_overrides(max_queries=2_000)

    def run():
        clear_subsume_cache()
        return rewrite(query, theory, config)

    result = benchmark(run)
    benchmark.extra_info["disjuncts"] = len(result.ucq)
    benchmark.extra_info["candidates"] = result.stats.candidates
    benchmark.extra_info["saturated"] = result.saturated


@pytest.mark.parametrize("predicates", [2, 3, 4])
def test_kappa_profile_scaling(benchmark, predicates):
    theory = random_linear_theory(predicates=predicates, rules=2 * predicates, seed=5)

    def run():
        return bdd_profile(theory, CONFIG)

    profile = benchmark(run)
    benchmark.extra_info["predicates"] = predicates
    benchmark.extra_info["kappa"] = profile.kappa
    benchmark.extra_info["saturated"] = profile.saturated
    assert profile.saturated
