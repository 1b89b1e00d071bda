"""The thread-safety audit's regression battery.

The server shares four process-wide caches across its worker pool:
``PLAN_CACHE`` (compiled join plans), the ``cq_subsumes``
normalise/freeze memos, the ``enumerate_type_queries`` memo, and each
columnar ``copy()`` family's ``TermTable``.  Each test here hammers
one of them from N threads and asserts no corruption, no duplicate
interning, and agreement with a single-threaded reference — exactly
the invariants the audit's locks exist to protect.  (Before the
locks, ``TermTable.intern`` could hand two elements the same dense id
from concurrent misses — an id-decode corruption, not just a stale
stat.)

The positive-type pass holds no shared cache: its incidence index
lives for one partition or report.  A last test pins that down, so a
later change that shares an index across requests has to keep many
threads typing one structure correct.
"""

import sys
import threading

import pytest

from repro.coloring import conservativity_report, natural_coloring
from repro.lf import Null, parse_query, parse_structure, parse_theory
from repro.lf.plan import PLAN_CACHE, clear_plan_cache, plan_for
from repro.lf.terms import Constant
from repro.ptypes import TypePartition, quotient
from repro.ptypes.bruteforce import clear_type_query_cache, enumerate_type_queries
from repro.rewriting.subsume import clear_subsume_cache, cq_subsumes
from repro.skeleton import skeleton
from repro.store import StoreBackend, ensure_backend
from repro.store.termtable import TermTable
from repro.zoo import example1_database, example1_theory

pytestmark = pytest.mark.timeout(120)

THREADS = 8
ROUNDS = 3


def hammer(worker, threads=THREADS):
    """Run *worker(index)* on N threads behind a start barrier; re-raise
    the first failure."""
    barrier = threading.Barrier(threads)
    failures = []

    def body(index):
        barrier.wait()
        try:
            worker(index)
        except BaseException as error:  # noqa: BLE001 - reported below
            failures.append(error)

    pool = [threading.Thread(target=body, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if failures:
        raise failures[0]


class TestTermTableInterning:
    def test_concurrent_interning_no_duplicates(self):
        for _ in range(ROUNDS):
            table = TermTable()
            # heavily overlapping element pools: every thread races on
            # most of its interns
            pools = [
                [Constant(f"c{(i * 7 + j) % 300}") for j in range(400)]
                for i in range(THREADS)
            ]
            results = [None] * THREADS

            def worker(index):
                results[index] = [table.intern(e) for e in pools[index]]

            hammer(worker)
            unique = {e for pool in pools for e in pool}
            assert len(table) == len(unique)
            # dense, collision-free ids that decode back to their element
            seen = set()
            for pool, ids in zip(pools, results):
                for element, eid in zip(pool, ids):
                    assert 0 <= eid < len(unique)
                    assert table.element(eid) == element
                    assert table.id_of(element) == eid
                    seen.add(eid)
            assert seen == set(range(len(unique)))

    def test_shared_copy_family_chase(self):
        # the server scenario: one cached columnar database, N workers
        # chasing independent copies that share its TermTable
        from repro.chase import ChaseConfig, chase

        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        base = ensure_backend(
            parse_structure("\n".join(f"E(n{i},n{i+1})" for i in range(12))),
            StoreBackend.COLUMNAR,
        )
        reference = chase(base, theory, ChaseConfig(max_depth=8))
        expected = {str(f) for f in reference.structure.facts()}
        outputs = [None] * THREADS

        def worker(index):
            result = chase(base, theory, ChaseConfig(max_depth=8))
            outputs[index] = {str(f) for f in result.structure.facts()}

        hammer(worker)
        assert all(facts == expected for facts in outputs)


class TestPlanCache:
    def test_one_plan_object_per_shape(self):
        structure = parse_structure("E(a,b)\nE(b,c)\nR(a,c)")
        shapes = [
            parse_query("E(x,y), E(y,z)", free=["x", "z"]),
            parse_query("E(x,y), R(x,z)", free=["y", "z"]),
            parse_query("R(x,y)", free=["x", "y"]),
            parse_query("E(x,y), E(y,z), R(x,z)", free=["x"]),
        ]
        for _ in range(ROUNDS):
            clear_plan_cache()
            results = [None] * THREADS

            def worker(index):
                results[index] = [
                    plan_for(q.atoms, frozenset(), structure) for q in shapes
                ] * 5

            hammer(worker)
            # every thread must have received the *same* compiled plan
            # per shape (the locked miss path compiles exactly once)
            for position in range(len(shapes)):
                identities = {id(r[position]) for r in results}
                assert len(identities) == 1
            assert len(PLAN_CACHE) == len(shapes)

    def test_concurrent_answers_match_reference(self):
        structure = parse_structure(
            "\n".join(f"E(n{i},n{i+1})" for i in range(20))
        )
        query = parse_query("E(x,y), E(y,z)", free=["x", "z"])
        clear_plan_cache()
        plan = plan_for(query.atoms, frozenset(), structure)
        expected = {tuple(b[v] for v in query.free)
                    for b in plan.bindings(structure)}
        outputs = [None] * THREADS

        def worker(index):
            p = plan_for(query.atoms, frozenset(), structure)
            outputs[index] = {tuple(b[v] for v in query.free)
                              for b in p.bindings(structure)}

        hammer(worker)
        assert all(found == expected for found in outputs)


class TestSubsumeMemo:
    def test_concurrent_subsumption_matches_reference(self):
        queries = [
            parse_query("E(x,y), E(y,z)", free=["x"]),
            parse_query("E(x,y)", free=["x"]),
            parse_query("E(x,x)", free=["x"]),
            parse_query("E(x,y), E(y,x)", free=["x"]),
            parse_query("E(x,y), E(y,z), E(z,w)", free=["x"]),
        ]
        pairs = [(a, b) for a in queries for b in queries]
        clear_subsume_cache()
        reference = [cq_subsumes(a, b) for a, b in pairs]
        for _ in range(ROUNDS):
            clear_subsume_cache()
            outputs = [None] * THREADS

            def worker(index):
                outputs[index] = [cq_subsumes(a, b) for a, b in pairs] \
                    == reference

            hammer(worker)
            assert all(outputs)

    def test_concurrent_clears_do_not_corrupt(self):
        a = parse_query("E(x,y), E(y,z)", free=["x"])
        b = parse_query("E(x,y)", free=["x"])
        expected = cq_subsumes(b, a)

        def worker(index):
            for _ in range(200):
                if index == 0:
                    clear_subsume_cache()
                assert cq_subsumes(b, a) == expected

        hammer(worker)


class TestTypeQueryMemo:
    def test_concurrent_enumeration_identical(self):
        signature = {"E": 2, "P": 1}
        constants = (Constant("a"),)
        clear_type_query_cache()
        reference = list(
            enumerate_type_queries(signature, constants, 2, 2)
        )
        for _ in range(ROUNDS):
            clear_type_query_cache()
            outputs = [None] * THREADS

            def worker(index):
                outputs[index] = list(
                    enumerate_type_queries(signature, constants, 2, 2)
                )

            hammer(worker)
            assert all(found == reference for found in outputs)


class TestSharedColoredSkeleton:
    def test_partitions_and_reports_match_serial(self):
        """8 threads partition and check one shared colored skeleton
        (Example 1 at depth 16, η = κ = 3, where some classes merge);
        each thread's classes, quotient and report must equal the
        serial run's."""
        skel = skeleton(example1_database(), example1_theory(), max_depth=16)
        colored = natural_coloring(skel.structure, 3)
        interior = {
            e for e in skel.structure.domain()
            if not isinstance(e, Null) or e.level <= 13
        }

        def run():
            partition = TypePartition(colored.structure, 3, elements=interior)
            classes = [sorted(map(str, group)) for group in partition.classes()]
            quotiented = quotient(colored.structure, 3, partition=partition)
            report = conservativity_report(colored, 3, 3, prebuilt=quotiented)
            return (
                classes,
                sorted(map(str, quotiented.structure.facts())),
                report.conservative,
                str(report.witness_query),
            )

        reference = run()
        assert len(reference[0]) < len(interior)  # some classes merged
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for _ in range(ROUNDS):
                outputs = [None] * THREADS

                def worker(index):
                    outputs[index] = run()

                hammer(worker)
                assert all(found == reference for found in outputs)
        finally:
            sys.setswitchinterval(interval)
