"""The thread-safety audit's regression battery.

The server shares four process-wide caches across its worker pool:
``PLAN_CACHE`` (compiled join plans), each rule's compiled forms
(``repro.chase.seminaive.rule_plans``), the ``cq_subsumes``
normalise/freeze memos, and the ``enumerate_type_queries`` memo.  Each
test here hammers one of them from N threads and asserts no corruption
and agreement with a single-threaded reference — exactly the
invariants the audit's locks exist to protect.  Sessions also share
each parsed database across requests, so the first test chases one
database from N threads at once.

The positive-type pass holds no shared cache: its incidence index
lives for one partition or report.  A last test pins that down, so a
later change that shares an index across requests has to keep many
threads typing one structure correct.
"""

import sys
import threading

import pytest

from repro.chase import violations
from repro.coloring import conservativity_report, natural_coloring
from repro.lf import Null, parse_query, parse_structure, parse_theory
from repro.lf.plan import PLAN_CACHE, clear_plan_cache, plan_for
from repro.lf.terms import Constant
from repro.ptypes import TypePartition, quotient
from repro.ptypes.bruteforce import clear_type_query_cache, enumerate_type_queries
from repro.rewriting.subsume import clear_subsume_cache, cq_subsumes
from repro.skeleton import skeleton
from repro.zoo import example1_database, example1_theory

from ..oracles import rule_violations

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


class TestSharedDatabase:
    def test_concurrent_chases_of_one_database(self):
        # the server scenario: one cached parsed database, N workers
        # each chasing their own copy of it
        from repro.chase import ChaseConfig, chase

        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        base = parse_structure("\n".join(f"E(n{i},n{i+1})" for i in range(12)))
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


class TestRulePlans:
    def test_first_use_of_a_rule_from_many_threads(self):
        # each round's rule is new to the process, so the threads race
        # to fetch its body and head plans on their first use
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            for round_index in range(ROUNDS):
                theory = parse_theory(
                    f"T{round_index}(x,y) -> exists z. "
                    f"R{round_index}(y,z), S{round_index}(z,x)"
                )
                structure = parse_structure("\n".join(
                    f"T{round_index}(n{i},n{i + 1})\nR{round_index}(n{i + 1},m{i})"
                    f"\nS{round_index}(m{i},n{i - i % 2})"
                    for i in range(12)
                ))
                expected = {
                    (rule, frozenset(binding.items()))
                    for rule, binding in rule_violations(structure, theory)
                }
                assert expected  # the odd i lack a witness
                outputs = [None] * THREADS

                def worker(index):
                    outputs[index] = {
                        (rule, frozenset(binding.items()))
                        for rule, binding in violations(structure, theory, limit=10**6)
                    }

                hammer(worker)
                assert all(found == expected for found in outputs)
        finally:
            sys.setswitchinterval(interval)


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
