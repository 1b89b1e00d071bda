"""Tests of the benchmark harness's own logic (no server needed).

Run from the repository root::

    python3 -m pytest e2ebench/tests -q
"""

import os
import random
import sys
import time
from collections import Counter

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import checks  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from loadgen import BenchError, Sample, encode  # noqa: E402


# -- tail percentile ------------------------------------------------------

@pytest.mark.parametrize("count, expected", [
    (10, None),       # nothing leaves 10 samples beyond
    (20, 50.0),       # p50 leaves 10
    (99, 75.0),       # p90 leaves 9, p75 leaves 24
    (100, 90.0),      # p90 leaves exactly 10
    (199, 90.0),      # p95 leaves 9
    (200, 95.0),
    (1000, 99.0),
    (9999, 99.0),     # p99.9 leaves 9
    (10000, 99.9),
])
def test_tail_percentile_leaves_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected


def test_tail_value_and_count():
    values = list(range(1, 201))  # 1..200
    value, pct, beyond = stats.tail(values)
    assert (pct, beyond) == (95.0, 10)
    assert value == 190
    assert sum(1 for v in values if v > value) == beyond


def test_tail_of_too_few_samples():
    assert stats.tail([1.0] * 5) == (None, None, 0)


def test_nearest_rank_percentile():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 100) == 5
    assert stats.percentile([7], 90) == 7


# -- seeded inputs --------------------------------------------------------

def _wire(workload):
    jobs = workload.prime + workload.setup + workload.timed
    return b"".join(encode(job.request) for job in jobs)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_bytes(name):
    first = workloads.build(name, 7, 6.0)
    second = workloads.build(name, 7, 6.0)
    assert _wire(first) == _wire(second)
    assert first.schedule == second.schedule


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_gives_other_bytes(name):
    assert _wire(workloads.build(name, 7, 6.0)) != _wire(workloads.build(name, 8, 6.0))


def test_open_loop_schedule_is_seeded_and_fills_the_window():
    first = workloads.build("query-mix", 3, 10.0).schedule
    assert first == workloads.build("query-mix", 3, 10.0).schedule
    assert first != workloads.build("query-mix", 4, 10.0).schedule
    assert len(first) == round(workloads.QM_RATE * 10.0)
    assert first[0] == 0.0
    assert first == sorted(first)
    assert 9.0 < first[-1] < 10.0


def test_amount_of_work_depends_on_seconds_only():
    for seed in (1, 2):
        fm = workloads.build("finite-models", seed, 30.0)
        assert len(fm.timed) == fm.info["rounds"] * fm.info["jobs_per_round"]
        vc = workloads.build("view-churn", seed, 30.0)
        assert len(vc.timed) == 2 * round(workloads.VC_UPDATES_PER_S * 30.0)


def test_deck_follows_shares_over_a_pass():
    deck = workloads.shares_deck(random.Random(0), (("a", 0.25), ("b", 0.75)), size=20)
    drawn = [deck.draw() for _ in range(20)]
    assert drawn.count("a") == 5 and drawn.count("b") == 15


def test_stratified_deck_visits_every_stratum_once_per_pass():
    deck = workloads.StratifiedDeck(random.Random(0), list(range(12)), 5)
    drawn = [deck.draw() for _ in range(3)]
    assert sorted(x // 5 for x in drawn) == [0, 1, 2]


def test_rewrite_pool_entries_are_checkable():
    pool = workloads.load_rewrite_pool()
    assert len(pool) >= 100
    assert all(entry["disjuncts"] >= 1 for entry in pool)


def test_churn_keeps_cluster_sizes_and_applies_in_order():
    rng = random.Random(5)
    edges = workloads.clustered_edges(rng)

    def sizes(graph):
        return sorted(Counter(u.split("v")[0] for u, _v in graph).items())

    start = sizes(edges)
    assert len(start) == workloads.VC_CLUSTERS
    live = set(edges)
    for adds, removes in workloads.churn(edges, 200, rng):
        assert set(removes) <= live and not set(adds) & live
        (u, v), (x, _y) = adds[0], removes[0]
        assert u.split("v")[0] == v.split("v")[0] == x.split("v")[0]
        live = (live - set(removes)) | set(adds)
        assert sizes(live) == start


# -- checkers -------------------------------------------------------------

RULES = workloads.THEOREM2[1][1]          # E(x,y) -> exists z. E(y,z)
DATABASE = workloads.THEOREM2[1][2]       # E(a,b)
QUERY = workloads.THEOREM2[1][3]          # E(x,x)


def _model_response(facts):
    return {"ok": True, "status": "model-found", "stopped_reason": "fixpoint",
            "facts": facts}


def test_model_check_accepts_a_counter_model():
    facts = ["E(a, b)", "E(b, _:0)", "E(_:0, b)"]
    check = ("model", RULES, DATABASE, QUERY)
    assert checks.check_response(check, _model_response(facts)) is None


@pytest.mark.parametrize("facts, reason", [
    (["E(b, _:0)", "E(_:0, b)"], "misses database fact"),      # D dropped
    (["E(a, b)", "E(b, _:0)"], "violated"),                     # _:0 has no successor
    (["E(a, b)", "E(b, b)"], "satisfies the query"),            # loop: Q holds
])
def test_model_check_rejects_corrupted_models(facts, reason):
    check = ("model", RULES, DATABASE, QUERY)
    failure = checks.check_response(check, _model_response(facts))
    assert failure is not None and reason in failure


def test_closure_check_rejects_a_wrong_closure():
    edges = (("a", "b"), ("b", "c"))
    good = {"ok": True, "status": "saturated", "stopped_reason": "fixpoint",
            "facts": ["E(a, b)", "E(a, c)", "E(b, c)"]}
    assert checks.check_response(("closure_facts", edges), good) is None
    missing = dict(good, facts=["E(a, b)", "E(b, c)"])
    extra = dict(good, facts=good["facts"] + ["E(c, a)"])
    assert checks.check_response(("closure_facts", edges), missing) is not None
    assert checks.check_response(("closure_facts", edges), extra) is not None


def test_answer_checks_reject_wrong_answer_sets():
    edges = (("a", "b"), ("b", "a"), ("b", "c"))
    cycle = {"ok": True, "status": "certain", "answers": [["a"], ["b"]]}
    assert checks.check_response(("cycle_nodes", edges), cycle) is None
    assert checks.check_response(("cycle_nodes", edges),
                                 dict(cycle, answers=[["a"], ["b"], ["c"]])) is not None
    reach = {"ok": True, "status": "certain", "stopped_reason": "fixpoint",
             "answers": [["a"], ["b"], ["c"]]}
    assert checks.check_response(("closure_answers", edges, "a"), reach) is None
    assert checks.check_response(("closure_answers", edges, "a"),
                                 dict(reach, answers=[["b"], ["c"]])) is not None


def test_rewrite_and_status_checks():
    ok = {"ok": True, "status": "saturated", "stopped_reason": "fixpoint",
          "counts": {"disjuncts": 3}}
    assert checks.check_response(("rewrite", 3), ok) is None
    assert checks.check_response(("rewrite", 4), ok) is not None
    truncated = dict(ok, status="budget-exhausted", stopped_reason="budget")
    assert checks.check_response(("rewrite", 3), truncated) is not None
    shed = {"ok": False, "status": "shed", "error": "overloaded"}
    assert checks.check_response(("status", "exhausted-no-model"), shed) is not None


def test_chain_check():
    facts = ["P0(a, b)", "P1(b, _:0)", "P0(_:0, _:1)"]
    response = {"ok": True, "status": "truncated", "stopped_reason": "budget",
                "facts": facts}
    assert checks.check_response(("chain", 2, 2), response) is None
    assert checks.check_response(("chain", 3, 2), response) is not None
    assert checks.check_response(("chain", 2, 3), response) is not None


def test_closure_by_bfs():
    assert checks.closure([("a", "b"), ("b", "c")]) == {("a", "b"), ("b", "c"), ("a", "c")}
    assert checks.cycle_nodes([("a", "b"), ("b", "a"), ("b", "c")]) == {"a", "b"}


# -- open-loop lateness ---------------------------------------------------

def test_lateness_counts_late_sends_and_clamps_early_ones():
    due = [10.0, 10.5, 11.0]
    sent = [10.0005, 10.4999, 11.25]
    lag = stats.lateness_ms(due, sent)
    assert lag[0] == pytest.approx(0.5)
    assert lag[1] == 0.0
    assert lag[2] == pytest.approx(250.0)


def test_open_loop_latency_is_measured_from_the_schedule():
    # A request due at t=1.0 s that waited behind a stall, was sent at
    # 1.2 s and answered at 1.3 s counts the stall: 300 ms, not 100 ms.
    sample = Sample(rid=1, job=None, due_ns=1_000_000_000, sent_ns=1_200_000_000,
                    recv_ns=1_300_000_000)
    assert sample.latency_ms == pytest.approx(300.0)
    closed = Sample(rid=2, job=None, sent_ns=1_200_000_000, recv_ns=1_300_000_000)
    assert closed.latency_ms == pytest.approx(100.0)


def test_lateness_needs_matching_lengths():
    with pytest.raises(ValueError):
        stats.lateness_ms([1.0], [])


# -- host speed -----------------------------------------------------------

def test_local_speed_uses_the_chunks_within_the_interval():
    # Chunks end every 10 ns; those ending in [100, 300] took 400 us.
    ends = list(range(0, 1000, 10))
    cpu = [400_000 if 100 <= e <= 300 else 200_000 for e in ends]
    found = speed.Speed(ends, cpu)
    assert found.local_chunk_us(100, 300, fewest=5) == pytest.approx(400.0)
    assert found.scale(100, 300) == pytest.approx(
        (speed.REF_CHUNK_US / 400.0) ** speed.ELASTICITY)


def test_local_speed_widens_to_the_nearest_chunks():
    # No chunk ends inside [500, 600]: the three nearest ones, at 490,
    # 610 and 480, are taken, not the far ones at 0 and 1000.
    found = speed.Speed([0, 480, 490, 610, 1000], [9_000, 300_000, 100_000, 200_000, 9_000])
    assert found.local_chunk_us(500, 600, fewest=3) == pytest.approx(200.0)


def test_local_speed_needs_chunks():
    with pytest.raises(BenchError):
        speed.Speed([], []).local_chunk_us(0, 1)


def test_calibrator_records_chunks_and_stops():
    calibrator = speed.Calibrator(max(os.sched_getaffinity(0)))
    with calibrator:
        time.sleep(0.05)
    assert calibrator.proc is None
    found = calibrator.speed
    assert len(found.ends) == len(found.cpu) >= 1
    assert found.ends == sorted(found.ends)
    assert all(used > 0 for used in found.cpu)


def test_reference_work_is_fixed():
    assert speed.reference_work() == speed.reference_work() == 551


# -- span trees -------------------------------------------------------------

#: (id, parent, name, start, end, request id); times in ns.
SPANS = [
    (1, 0, "serve.admit", 100, 110, 7),
    (2, 0, "serve.execute_request", 150, 900, 7),
    (3, 2, "lf.parser.parse_theory", 160, 200, 7),
    (4, 2, "chase.chase", 210, 800, 7),
    (5, 2, "payloads.chase_payload", 810, 850, 7),
    (6, 0, "serve.execute_request", 5, 9, 8),   # another request
]


def test_span_tree_self_times_and_unattributed():
    import tracing

    tree = tracing.request_trees(SPANS, {7: (50, 1000)})[7]
    names = {s[2] for s in tree["spans"]}
    assert "serve.queue_wait" in names and len(tree["spans"]) == 6
    assert tree["self"][2] == 750 - 40 - 590 - 40
    assert tree["unattributed"] == 950 - 10 - 40 - 750
    assert tracing.tree_problems(tree) == []
    assert tracing.layer_of("chase.view.update") == "chase.view.update"
    assert tracing.layer_of("chase.view.create") == "chase.view"
    assert tracing.layer_of("rewriting.bdd_profile") == "rewriting.kappa"


@pytest.mark.parametrize("spans, send_recv, problem", [
    # execution never recorded
    ([s for s in SPANS if s[0] != 2 and s[1] != 2], {7: (50, 1000)},
     "no serve.execute_request span"),
    # the client's receive stamp before the server finished
    (SPANS, {7: (50, 840)}, "negative unattributed time"),
    # a child longer than its parent
    (SPANS + [(9, 3, "lf.parser.parse_facts", 150, 260, 7)], {7: (50, 1000)},
     "negative self time"),
    # a span whose parent belongs to another request
    (SPANS + [(9, 6, "chase.chase", 6, 7, 7)], {7: (50, 1000)},
     "parent span outside the request"),
])
def test_tree_problems_are_found(spans, send_recv, problem):
    import tracing

    tree = tracing.request_trees(spans, send_recv)[7]
    assert problem in tracing.tree_problems(tree)
