"""End-to-end tests for the Theorem-2 pipeline (Section 3.3)."""

import hashlib
import itertools

import pytest

import repro.core.finite_model as pipeline
from repro.chase import chase
from repro.coloring.conservativity import ConservativityReport
from repro.config import OnBudget
from repro.lf import Null, Structure, Theory, parse_query, parse_structure, parse_theory
from repro.lf.canonical import canonical_key
from repro.core import (
    PipelineConfig,
    build_finite_counter_model,
    certify_counter_model,
)
from repro.errors import DeadlineExceeded, NotBinaryError
from repro.payloads import countermodel_payload
from repro.ptypes import TypePartition
from repro.runtime import CancelToken, StopReason
from repro.serve import ServeConfig, SessionRegistry, execute_request
from repro.testing import inject_fault
from repro.zoo import example9_theory, theorem2_corpus

from ..coloring.test_conservativity import report_by_element, report_summary
from ..oracles import query_holds, rule_violations
from ..test_cli_json import strip_timings

EXAMPLE1 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
    U(x,y) -> exists z. U(y,z)
    """
)
LINEAR = parse_theory("E(x,y) -> exists z. E(y,z)")
EXAMPLE7 = parse_theory(
    """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(u,y) -> R(x,u)
    """
)
DB = parse_structure("E(a,b)")


def assert_counter_model(result, theory, database, query):
    assert result.model is not None
    assert not result.query_certain
    assert certify_counter_model(result, theory, database, query)
    # explicit re-checks, belt and braces:
    assert result.model.contains_structure(database)
    assert list(rule_violations(result.model, theory)) == []
    assert not query_holds(result.model, query)


class TestPipeline:
    def test_example1_no_triangle_query(self):
        query = parse_query("U(x,y)")
        result = build_finite_counter_model(EXAMPLE1, DB, query)
        assert_counter_model(result, EXAMPLE1, DB, query)
        assert result.model_size < 60

    def test_linear_loop_query(self):
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert_counter_model(result, LINEAR, DB, query)

    def test_example7_theory(self):
        query = parse_query("R(x,u), P(u,w)")
        result = build_finite_counter_model(EXAMPLE7, DB, query)
        assert_counter_model(result, EXAMPLE7, DB, query)
        assert result.kappa == 3  # Example 7's rewriting width

    def test_certain_query_detected(self):
        query = parse_query("E(x,y), E(y,z)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert result.query_certain
        assert result.model is None

    def test_saturating_theory_shortcut(self):
        theory = parse_theory("E(x,y) -> exists z. R(y,z)")
        query = parse_query("R(x,y), R(y,z)")
        result = build_finite_counter_model(theory, DB, query)
        assert_counter_model(result, theory, DB, query)

    def test_datalog_only_theory(self):
        theory = parse_theory(
            """
            E(x,y) -> S(y,x)
            S(x,y) -> B(x,y)
            """
        )
        query = parse_query("B(x,x)")
        result = build_finite_counter_model(theory, DB, query)
        assert_counter_model(result, theory, DB, query)

    def test_non_bdd_theory_raises(self):
        """Transitivity is not FO-rewritable: κ cannot be certified and
        the pipeline refuses (Theorem 2 needs the BDD premise)."""
        from repro.errors import RewritingBudgetExceeded
        from repro.rewriting import RewriteConfig

        theory = parse_theory("E(x,y), E(y,z) -> E(x,z)")
        config = PipelineConfig(rewrite=RewriteConfig(max_steps=500, max_queries=100))
        with pytest.raises(RewritingBudgetExceeded):
            build_finite_counter_model(theory, DB, parse_query("E(x,x)"), config)

    def test_nonbinary_rejected(self):
        theory = parse_theory("P(x,y,z) -> exists w. P(y,z,w)")
        with pytest.raises(NotBinaryError):
            build_finite_counter_model(theory, DB, parse_query("P(x,y,z)"))

    def test_bigger_database(self):
        database = parse_structure("E(a,b)\nE(b,c)\nE(d,e)\nU0(d)")
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, database, query)
        assert_counter_model(result, LINEAR, database, query)

    def test_two_tgp_tree_theory(self):
        theory = parse_theory(
            """
            F(x,y) -> exists z. F(y,z)
            F(x,y) -> exists z. G(y,z)
            G(x,y) -> exists z. F(y,z)
            G(x,y) -> exists z. G(y,z)
            """
        )
        database = parse_structure("F(a,b)")
        query = parse_query("F(x,y), G(x,y)")
        # the chase is an exponentially growing tree: pin the depth that
        # is known sufficient instead of walking the default schedule
        config = PipelineConfig(chase_depths=(10,))
        result = build_finite_counter_model(theory, database, query, config)
        assert_counter_model(result, theory, database, query)

    def test_attempts_recorded(self):
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(EXAMPLE7, DB, query)
        # the shallow depths fail with embargo violations before success
        assert isinstance(result.attempts, list)

    def test_model_smaller_than_chase_budget(self):
        """The point of the theorem: the model is small and finite even
        though the chase is infinite."""
        query = parse_query("E(x,x)")
        result = build_finite_counter_model(LINEAR, DB, query)
        assert result.model_size <= result.skeleton_size


#: An Example-9 sub-theory whose first three attempts (depth 8) fail the
#: embargo saturation and whose fourth (depth 10, eta 2) is accepted.
EX9_TWO_RULES = parse_theory(
    """
    F(x,y) -> exists z. F(y,z)
    F(x,y) -> exists z. G(y,z)
    """
)
EX9_DB = parse_structure("F(a,b)")
EX9_QUERY = parse_query("F(x,y), G(x,y)")


class TestAttemptChecks:
    """Each (depth, eta) attempt runs the embargoed saturation first and
    the conservativity report only on the attempts that saturation lets
    through; an attempt is accepted only if both pass."""

    @staticmethod
    def _instrument(monkeypatch, reject_first=False):
        """Wrap the pipeline's saturation and report; return the log.

        With *reject_first*, the first report (the first attempt whose
        saturation completed) says "not conservative".
        """
        real_saturation = pipeline.chase_with_embargo
        real_report = pipeline.conservativity_report
        log = {"saturations": [], "reports": 0, "rejected": None}

        def saturation(*args, **kwargs):
            outcome = real_saturation(*args, **kwargs)
            log["saturations"].append(outcome)
            return outcome

        def report(colored, n, m, prebuilt=None):
            log["reports"] += 1
            verdict = real_report(colored, n, m, prebuilt=prebuilt)
            if reject_first and log["rejected"] is None:
                log["rejected"] = (n, log["saturations"][-1])
                return ConservativityReport(
                    conservative=False, quotient=verdict.quotient
                )
            return verdict

        monkeypatch.setattr(pipeline, "chase_with_embargo", saturation)
        monkeypatch.setattr(pipeline, "conservativity_report", report)
        return log

    def test_one_report_per_completed_saturation(self, monkeypatch):
        log = self._instrument(monkeypatch)
        result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert_counter_model(result, EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert (result.depth, result.eta) == (10, 2)
        assert len(result.attempts) == 3
        assert all("embargo violation" in reason for reason in result.attempts)
        # Reporting before saturating made 4 reports here, one per attempt.
        assert log["reports"] == len(log["saturations"]) == 1

    def test_rejected_report_rejects_the_attempt(self, monkeypatch):
        log = self._instrument(monkeypatch, reject_first=True)
        result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        eta, rejected = log["rejected"]
        assert eta == 2
        # The attempt is recorded as not conservative, the next eta is
        # tried, and a later attempt (depth 12, eta 2) is accepted.
        assert result.attempts[3].startswith("depth 10, eta 2: not conservative")
        assert result.attempts[4].startswith("depth 10, eta 3: ")
        assert_counter_model(result, EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        assert (result.depth, result.eta) == (12, 2)
        assert log["reports"] == 2
        # The stats list has the three truncation chases and the accepted
        # saturation; the rejected attempt's saturation is left out.
        assert rejected.stats is not None
        assert len(result.chase_stats) == 4
        assert all(stats is not rejected.stats for stats in result.chase_stats)
        assert result.chase_stats[-1] is log["saturations"][-1].stats


def example9_subtheories():
    """The ten 2- and 3-rule sub-theories of Example 9, on ``F(a,b)``.

    Each is asked the query the ``finite-models`` workload asks it:
    ``F(x,y), G(x,y)`` for two rules, ``G(x,y), F(y,x)`` for three.
    Yields ``(name, theory, database, query)`` with names like
    ``FF-GF``.
    """
    rules = dict(zip(("FF", "FG", "GF", "GG"), example9_theory().rules))
    queries = {2: parse_query("F(x,y), G(x,y)"), 3: parse_query("G(x,y), F(y,x)")}
    database = parse_structure("F(a,b)")
    for size in (2, 3):
        for names in itertools.combinations(sorted(rules), size):
            theory = Theory([rules[name] for name in names])
            yield "-".join(names), theory, database, queries[size]


EXAMPLE9_SUBTHEORIES = list(example9_subtheories())


class TestExample9SubTheories:
    """The counter-models of the Example-9 sub-theories: each is checked
    against the oracles, and its ``(depth, eta, model_size, attempts)``
    is pinned."""

    PINNED = {
        "FF-FG": (10, 2, 16, 3),
        "FF-GF": (10, 2, 9, 3),
        "FF-GG": (10, 2, 9, 3),
        "FG-GF": (10, 2, 9, 3),
        "FG-GG": (10, 2, 9, 3),
        # the chase saturates: it is the model, no (depth, eta) attempt
        "GF-GG": (8, 0, 2, 0),
        "FF-FG-GF": (10, 2, 24, 3),
        "FF-FG-GG": (10, 2, 23, 3),
        "FF-GF-GG": (10, 2, 9, 3),
        "FG-GF-GG": (10, 2, 20, 3),
    }

    @pytest.mark.parametrize(
        "name, theory, database, query",
        EXAMPLE9_SUBTHEORIES,
        ids=[name for name, *_ in EXAMPLE9_SUBTHEORIES],
    )
    def test_counter_model(self, name, theory, database, query):
        result = build_finite_counter_model(theory, database, query)
        assert_counter_model(result, theory, database, query)
        shape = (result.depth, result.eta, result.model_size, len(result.attempts))
        assert shape == self.PINNED[name]


#: The Theorem-2 corpus and the Example-9 sub-theories.
PIPELINE_INSTANCES = [*theorem2_corpus(), *EXAMPLE9_SUBTHEORIES]


def model_digest(model):
    """A short digest of the model's isomorphism class over the constants."""
    return hashlib.sha256(canonical_key(model).encode()).hexdigest()[:16]


class TestPinnedModels:
    """Every pipeline countermodel, pinned up to renaming its nulls: a
    change that only renumbers the quotient's nulls keeps these."""

    DIGESTS = {
        "example1/triangle-query": "b3b6521cf1b6cb20",
        "linear/loop-query": "1ae66a30cbdc4b00",
        "example7/foreign-pred": "1ea7b4738bf256c3",
        "binary-tree/F-G-join": "739d46288ae66652",
        "two-chains/merge-query": "b97c04947514a71c",
        "FF-FG": "bc244cb027addeb9",
        "FF-GF": "34275155cc92f0dd",
        "FF-GG": "34275155cc92f0dd",
        "FG-GF": "df7136ae56b20b75",
        "FG-GG": "afb5060fe22032ea",
        "GF-GG": "f100cdc98dfe9fe4",
        "FF-FG-GF": "b73cd8fd71f1c3e3",
        "FF-FG-GG": "418d8f200a5633c9",
        "FF-GF-GG": "34275155cc92f0dd",
        "FG-GF-GG": "b98a29c7a5f107a5",
    }

    @pytest.mark.parametrize(
        "name, theory, database, query",
        PIPELINE_INSTANCES,
        ids=[name for name, *_ in PIPELINE_INSTANCES],
    )
    def test_model_up_to_isomorphism(self, name, theory, database, query):
        model = build_finite_counter_model(theory, database, query).model
        assert model_digest(model) == self.DIGESTS[name]
        # the key is the isomorphism class, not the null names: renaming
        # the nulls in reverse keeps it (a key past MAX_ORDERS would not)
        nulls = sorted(model.nonconstant_elements())
        renaming = {old: Null(len(nulls) - i) for i, old in enumerate(nulls)}
        renamed = Structure(
            [fact.substitute(renaming) for fact in model.facts()],
            [renaming.get(e, e) for e in model.domain()],
        )
        assert model_digest(renamed) == self.DIGESTS[name]


class TestPartitionReuse:
    """Each depth's eta > kappa partitions refine the previous eta's
    (Lemma 1) instead of starting from scratch, and equal fresh ones."""

    @pytest.mark.parametrize(
        "name, theory, database, query",
        PIPELINE_INSTANCES,
        ids=[name for name, *_ in PIPELINE_INSTANCES],
    )
    def test_partitions_match_fresh_ones(
        self, monkeypatch, name, theory, database, query
    ):
        """At every (depth, eta) the schedule reaches, the pipeline's
        partition has the classes, in the same order, of a partition of
        the colored skeleton's interior built from scratch."""
        real_partition, real_quotient = pipeline.TypePartition, pipeline.quotient
        built, checked = [], []

        def partition(structure, n, **kwargs):
            made = real_partition(structure, n, **kwargs)
            built.append((made, kwargs["coarser"]))
            return made

        def quotient(structure, n, partition=None):
            fresh = TypePartition(structure, n, elements=partition.elements)
            assert partition.classes() == fresh.classes(), (name, n)
            checked.append(partition)
            return real_quotient(structure, n, partition=partition)

        monkeypatch.setattr(pipeline, "TypePartition", partition)
        monkeypatch.setattr(pipeline, "quotient", quotient)
        result = build_finite_counter_model(theory, database, query)
        assert_counter_model(result, theory, database, query)
        assert checked == [made for made, _ in built]
        # the first eta of a depth starts from scratch, each later one
        # refines the partition built just before it at that depth
        before = None
        for made, coarser in built:
            if made.n == result.kappa:
                assert coarser is None
            else:
                assert coarser is before and coarser.n == made.n - 1
            before = made

    #: The call counts over the 14 countermodel instances of the
    #: ``finite-models`` workload when every partition types every one
    #: of its elements (each later eta's partition refined from the one
    #: before, one form table per call).  Starting every partition from
    #: scratch, with its own table, made 5,742, 4,073 and 2,926.
    EVERY_ELEMENT_TYPED = {"canonical_query": 4_340, "canonical": 2_325, "equivalent": 1_718}

    def test_work_counts(self, monkeypatch):
        """Growing generators, typing only the elements that share a
        coarser class, and testing only within it cut the canonical
        queries, canonical forms and ≡ tests."""
        from repro.lf.queries import ConjunctiveQuery
        import repro.ptypes.ptype as ptype

        counts = dict.fromkeys(self.EVERY_ELEMENT_TYPED, 0)

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(ptype, "canonical_query")
        counted(ConjunctiveQuery, "canonical")
        counted(TypePartition, "equivalent")
        # the workload's instances: the corpus but its binary tree, and
        # the Example-9 sub-theories
        instances = [
            entry for entry in theorem2_corpus() if entry[0] != "binary-tree/F-G-join"
        ]
        for name, theory, database, query in instances + EXAMPLE9_SUBTHEORIES:
            result = build_finite_counter_model(theory, database, query)
            assert result.model is not None, name
        typed = self.EVERY_ELEMENT_TYPED
        assert counts["canonical_query"] <= typed["canonical_query"] * 3 / 4, counts
        assert counts["canonical"] <= typed["canonical"] * 2 / 3, counts
        assert counts["equivalent"] <= typed["equivalent"] / 4, counts


#: The 14 countermodel instances of the ``finite-models`` workload: the
#: corpus but its binary tree, and the Example-9 sub-theories.
WORKLOAD_INSTANCES = [
    entry for entry in theorem2_corpus() if entry[0] != "binary-tree/F-G-join"
] + EXAMPLE9_SUBTHEORIES

#: A chain that takes three rounds per witness: the pipeline fails at
#: depths 8, 12 and 16 alike, so each depth of a schedule runs.
SLOW_CHAIN = parse_theory(
    """
    E(x,y) -> A(x,y)
    A(x,y) -> B(x,y)
    B(x,y) -> exists z. E(y,z)
    """
)


class TestDeepening:
    """A depth past the deepest one chased so far continues that chase
    (``repro.chase.deepen``); any other depth is chased from scratch.
    Either way each depth sees the structure, and records the stats, of
    a chase of the database to that depth."""

    @staticmethod
    def _log_chases(monkeypatch):
        """Record ``(kind, depth, new rounds)`` per truncation chase."""
        real_chase, real_deepen = pipeline.chase, pipeline.deepen
        log = []

        def logged_chase(database, theory, config, **overrides):
            chased = real_chase(database, theory, config, **overrides)
            log.append(("chase", config.max_depth, len(chased.stats.rounds)))
            return chased

        def logged_deepen(result, theory, config, **overrides):
            deeper = real_deepen(result, theory, config, **overrides)
            new_rounds = len(deeper.stats.rounds) - len(result.stats.rounds)
            log.append(("deepen", config.max_depth, new_rounds))
            return deeper

        monkeypatch.setattr(pipeline, "chase", logged_chase)
        monkeypatch.setattr(pipeline, "deepen", logged_deepen)
        return log

    @staticmethod
    def _restart(monkeypatch, database):
        """Make the pipeline chase every depth from scratch."""

        def restart(result, theory, config, **overrides):
            return chase(database, theory, config, **overrides)

        monkeypatch.setattr(pipeline, "deepen", restart)

    def test_truncation_rounds(self, monkeypatch):
        """Chasing every depth from scratch evaluated 291 truncation
        rounds over the workload's instances."""
        log = self._log_chases(monkeypatch)
        for name, theory, database, query in WORKLOAD_INSTANCES:
            assert build_finite_counter_model(theory, database, query).model, name
        assert sum(rounds for _, _, rounds in log) == 143

    def test_out_of_order_depths_give_the_restart_payload(self, monkeypatch):
        query = parse_query("E(x,x)")
        config = PipelineConfig(chase_depths=(12, 8, 16), on_budget=OnBudget.RETURN)
        request = {
            "op": "countermodel",
            "theory": "E(x,y) -> A(x,y)\nA(x,y) -> B(x,y)\nB(x,y) -> exists z. E(y,z)",
            "database": "E(a,b)",
            "query": "E(x,x)",
            "params": {"depths": [12, 8, 16]},
        }

        def run():
            payload, _ = countermodel_payload(
                build_finite_counter_model(SLOW_CHAIN, DB, query, config)
            )
            response = execute_request(
                SessionRegistry(), dict(request), ServeConfig(), CancelToken()
            )
            return strip_timings(payload), strip_timings(response)

        log = self._log_chases(monkeypatch)
        deepened = run()
        assert [entry[:2] for entry in log[:3]] == [
            ("chase", 12), ("chase", 8), ("deepen", 16)
        ]
        assert len(deepened[0]["stats"]) == 3
        self._restart(monkeypatch, DB)
        assert run() == deepened

    def test_deadline_in_a_deepening_stops_the_pipeline(self, monkeypatch):
        """A deepening out of time leaves the truncation shallower than
        its depth: the pipeline stops rather than type it."""
        real_deepen = pipeline.deepen
        stopped = []

        def out_of_time(result, theory, config, **overrides):
            deeper = real_deepen(result, theory, config, **{**overrides, "wall_ms": 0})
            stopped.append((result, deeper))
            return deeper

        monkeypatch.setattr(pipeline, "deepen", out_of_time)
        config = PipelineConfig(on_budget=OnBudget.RETURN)
        result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY, config)
        assert result.stopped_reason is StopReason.DEADLINE
        assert result.model is None
        [(shallow, deeper)] = stopped
        assert deeper.stopped_reason is StopReason.DEADLINE
        assert deeper.structure == shallow.structure
        assert result.chase_stats[-1] is deeper.stats
        with pytest.raises(DeadlineExceeded):
            build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)

    def test_injected_chase_fault_in_a_deepening(self, monkeypatch):
        real_deepen = pipeline.deepen
        entered = []

        def deepen(result, theory, config, **overrides):
            entered.append(injector.calls)
            return real_deepen(result, theory, config, **overrides)

        monkeypatch.setattr(pipeline, "deepen", deepen)
        with inject_fault("chase", "deadline", at_checkpoint=10**9) as injector:
            build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)
        # trip at the deepening's second checkpoint: past its first check
        trip_at = entered[0] + 2
        entered.clear()
        config = PipelineConfig(on_budget=OnBudget.RETURN)
        with inject_fault("chase", "deadline", at_checkpoint=trip_at) as injector:
            result = build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY, config)
        assert injector.tripped and len(entered) == 1
        assert result.stopped_reason is StopReason.DEADLINE
        assert result.model is None
        with inject_fault("chase", "deadline", at_checkpoint=trip_at):
            with pytest.raises(DeadlineExceeded):
                build_finite_counter_model(EX9_TWO_RULES, EX9_DB, EX9_QUERY)


class TestLeastMemberReports:
    """The pipeline's reports (m = κ ≤ η = n) check one member per
    fiber, and say what checking every member says."""

    @pytest.mark.parametrize(
        "name, theory, database, query",
        PIPELINE_INSTANCES,
        ids=[name for name, *_ in PIPELINE_INSTANCES],
    )
    def test_every_attempt_matches_every_member(
        self, monkeypatch, name, theory, database, query
    ):
        """At every (depth, eta) the schedule reaches, whether or not
        the pipeline asks for the report there."""
        real_coloring, real_quotient = pipeline.natural_coloring, pipeline.quotient
        coloring, checked = {}, []

        def natural_coloring(structure, m):
            coloring.update(colored=real_coloring(structure, m), m=m)
            return coloring["colored"]

        def quotient(structure, n, partition=None):
            made = real_quotient(structure, n, partition=partition)
            colored, m = coloring["colored"], coloring["m"]
            report = pipeline.conservativity_report(colored, n, m, prebuilt=made)
            assert report_summary(report) == report_by_element(
                colored, n, m, prebuilt=made
            ), (name, n)
            checked.append(n)
            return made

        monkeypatch.setattr(pipeline, "natural_coloring", natural_coloring)
        monkeypatch.setattr(pipeline, "quotient", quotient)
        result = build_finite_counter_model(theory, database, query)
        assert_counter_model(result, theory, database, query)
        # every attempt past the interior check builds a quotient; a
        # saturated chase is its own model and makes none
        assert checked or result.eta == 0

    def test_satisfies_calls(self, monkeypatch):
        """Checking every member of every fiber made 1,461 calls over the
        workload's instances."""
        import repro.coloring.conservativity as conservativity

        calls = []
        real = conservativity.satisfies

        def counted(*args, **kwargs):
            calls.append(None)
            return real(*args, **kwargs)

        monkeypatch.setattr(conservativity, "satisfies", counted)
        for name, theory, database, query in WORKLOAD_INSTANCES:
            assert build_finite_counter_model(theory, database, query).model, name
        assert len(calls) <= 700


class TestPayloadFactsReadBack:
    """A ``countermodel`` payload's ``facts`` parse back, nulls included,
    to a structure isomorphic to the model over the constants."""

    @pytest.mark.parametrize(
        "name, theory, database, query",
        PIPELINE_INSTANCES,
        ids=[name for name, *_ in PIPELINE_INSTANCES],
    )
    def test_parsed_facts_have_the_model_key(self, name, theory, database, query):
        result = build_finite_counter_model(theory, database, query)
        payload, _ = countermodel_payload(result)
        parsed = parse_structure("\n".join(payload["facts"]))
        assert canonical_key(parsed) == canonical_key(result.model)
