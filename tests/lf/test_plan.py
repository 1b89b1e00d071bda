"""Unit tests for repro.lf.plan — compiled join plans and HomStats."""

import pytest

from repro.lf import (
    ConjunctiveQuery,
    Constant,
    HOM_STATS,
    HomStats,
    Null,
    PlanCache,
    Structure,
    Variable,
    all_answers,
    atom,
    clear_plan_cache,
    compile_plan,
    homomorphisms,
    plan_for,
)
x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b, c, d = Constant("a"), Constant("b"), Constant("c"), Constant("d")


def bindings_set(plan, structure, binding=None):
    return {frozenset(found.items()) for found in plan.bindings(structure, binding)}


class TestCompile:
    def test_constant_becomes_lookup_and_check(self):
        plan = compile_plan((atom("E", a, x),))
        (step,) = plan.steps
        assert plan.variables == (x,)
        assert step.lookups == ((0, a, None),)
        consts, checks, sames, binds = step.full
        assert consts == ((0, a),)
        assert binds == ((1, 0),)

    def test_prebound_variable_is_checked_not_bound(self):
        # prebound variables take the first slots, sorted; y, first
        # bound by the step, takes the next one
        plan = compile_plan((atom("E", y, z, x),), prebound={z, x})
        (step,) = plan.steps
        assert plan.variables == (x, z, y)
        assert (1, None, 1) in step.lookups
        assert (2, None, 0) in step.lookups
        consts, checks, sames, binds = step.full
        assert checks == ((1, 1), (2, 0))
        assert binds == ((0, 2),)

    def test_repeated_variable_binds_once_then_checks_positions(self):
        plan = compile_plan((atom("E", x, x),))
        (step,) = plan.steps
        assert plan.variables == (x,)
        consts, checks, sames, binds = step.full
        assert binds == ((0, 0),)
        assert sames == ((0, 1),)

    def test_variant_drops_the_guaranteed_check(self):
        # The bucket for a lookup position already filters on that
        # position, so its variant omits the corresponding test.
        plan = compile_plan((atom("E", a, x),))
        (step,) = plan.steps
        consts, checks, sames, binds = step.variants[0]
        assert consts == ()
        assert binds == ((1, 0),)
        # a later step's variable lookup drops its slot check the same way
        plan = compile_plan((atom("U", x), atom("E", x, y)))
        first, second = plan.steps
        assert plan.variables == (x, y)
        assert second.lookups == ((0, None, 0),)
        assert second.full[1] == ((0, 0),)
        consts, checks, sames, binds = second.variants[0]
        assert checks == ()
        assert binds == ((1, 1),)

    def test_most_constrained_atom_ordered_first(self):
        # U(x) has one unbound variable, E(y,z) has two: U leads.
        plan = compile_plan((atom("E", y, z), atom("U", x)))
        assert [s.pred for s in plan.steps] == ["U", "E"]

    def test_cardinality_breaks_ties(self):
        s = Structure(
            [atom("E", a, b), atom("E", b, c), atom("R", a, b)]
        )
        # Both atoms have two unbound variables; R has fewer facts.
        plan = compile_plan((atom("E", x, y), atom("R", z, y)), structure=s)
        assert plan.steps[0].pred == "R"

    def test_equality_atom_rejected(self):
        with pytest.raises(ValueError):
            compile_plan((atom("=", x, a),))

    def test_plan_valid_on_any_structure(self):
        # Statistics steer ordering only: a plan compiled against one
        # structure answers correctly on another.
        small = Structure([atom("E", a, b)])
        plan = compile_plan((atom("E", x, y),), structure=small)
        other = Structure([atom("E", b, c), atom("E", c, a)])
        assert bindings_set(plan, other) == {
            frozenset({(x, b), (y, c)}),
            frozenset({(x, c), (y, a)}),
        }


class TestEvaluation:
    def test_empty_plan_yields_initial_binding(self):
        plan = compile_plan(())
        assert list(plan.bindings(Structure())) == [{}]

    def test_join_answers(self):
        s = Structure([atom("E", a, b), atom("E", b, c)])
        plan = compile_plan((atom("E", x, y), atom("E", y, z)))
        assert bindings_set(plan, s) == {
            frozenset({(x, a), (y, b), (z, c)})
        }

    def test_prebinding_restricts_answers(self):
        s = Structure([atom("E", a, b), atom("E", b, c)])
        plan = compile_plan((atom("E", x, y),), prebound={x})
        assert bindings_set(plan, s, {x: b}) == {frozenset({(x, b), (y, c)})}

    def test_empty_bucket_short_circuits(self):
        s = Structure([atom("E", a, b)])
        plan = compile_plan((atom("E", c, x),))
        assert list(plan.bindings(s)) == []

    def test_generator_restarts_cleanly(self):
        s = Structure([atom("E", a, b), atom("E", a, c)])
        plan = compile_plan((atom("E", x, y),))
        first = bindings_set(plan, s)
        second = bindings_set(plan, s)
        assert first == second and len(first) == 2


class TestPlanCache:
    def test_hit_on_same_shape(self):
        cache = PlanCache()
        atoms = (atom("E", x, y),)
        first = cache.plan_for(atoms, frozenset())
        second = cache.plan_for(atoms, frozenset())
        assert first is second
        assert len(cache) == 1

    def test_prebound_distinguishes_entries(self):
        cache = PlanCache()
        atoms = (atom("E", x, y),)
        free_plan = cache.plan_for(atoms, frozenset())
        bound_plan = cache.plan_for(atoms, frozenset({x}))
        assert free_plan is not bound_plan
        assert len(cache) == 2

    def test_wholesale_clear_when_full(self):
        cache = PlanCache(maxsize=2)
        cache.plan_for((atom("E", x, y),), frozenset())
        cache.plan_for((atom("R", x, y),), frozenset())
        cache.plan_for((atom("S", x, y),), frozenset())
        assert len(cache) == 1

    def test_global_cache_counts_stats(self):
        clear_plan_cache()
        before = HOM_STATS.snapshot()
        atoms = (atom("E", x, Null(99)),)
        plan_for(atoms)
        plan_for(atoms)
        delta = HOM_STATS.since(before)
        assert delta.plan_cache_misses == 1
        assert delta.plan_cache_hits == 1
        assert delta.plans_compiled == 1
        assert delta.plan_requests == 2


class TestHomStats:
    def test_snapshot_is_independent(self):
        stats = HomStats(index_probes=3)
        copy = stats.snapshot()
        stats.index_probes = 7
        assert copy.index_probes == 3

    def test_since_diffs_every_field(self):
        earlier = HomStats(plan_cache_hits=1, index_probes=10, backtracks=2)
        later = HomStats(plan_cache_hits=4, index_probes=25, backtracks=2)
        delta = later.since(earlier)
        assert delta.plan_cache_hits == 3
        assert delta.index_probes == 15
        assert delta.backtracks == 0

    def test_as_dict_modes(self):
        stats = HomStats(plan_cache_hits=2, plan_cache_misses=1, index_probes=5)
        full = stats.as_dict()
        assert full["plan_requests"] == 3
        assert full["plan_cache_hits"] == 2
        bare = stats.as_dict(cache=False)
        assert bare["index_probes"] == 5
        assert "plan_requests" not in bare
        assert "plan_cache_hits" not in bare
        assert "plans_compiled" not in bare

    def test_matcher_counters_move(self):
        s = Structure([atom("E", a, b), atom("E", b, c)])
        plan = compile_plan((atom("E", x, y), atom("E", y, z)))
        before = HOM_STATS.snapshot()
        list(plan.bindings(s))
        delta = HOM_STATS.since(before)
        assert delta.candidates_scanned > 0
        assert delta.index_probes > 0
        assert delta.backtracks > 0

    # Exact work of full enumerations on one structure.  A full
    # enumeration scans every candidate whatever order the index
    # buckets iterate in, so these counts do not depend on the hash
    # seed (first-match probes, which stop early, would).
    CHAIN = Structure([atom("E", a, b), atom("E", b, a), atom("E", b, c), atom("E", c, d)])

    def work(self, run):
        """Run *run*; return its result and ``(probes, scanned,
        backtracks)``, checking the structure saw every probe."""
        before = HOM_STATS.snapshot()
        structure_before = self.CHAIN.index_probes
        result = run()
        delta = HOM_STATS.since(before)
        assert self.CHAIN.index_probes - structure_before == delta.index_probes
        return result, (delta.index_probes, delta.candidates_scanned, delta.backtracks)

    def test_path_enumeration_work(self):
        found, counts = self.work(
            lambda: list(homomorphisms((atom("E", x, y), atom("E", y, z)), self.CHAIN))
        )
        assert len(found) == 4
        assert counts == (5, 8, 5)

    def test_cycle_enumeration_work(self):
        atoms = (atom("E", x, y), atom("E", y, x))
        found, counts = self.work(lambda: list(homomorphisms(atoms, self.CHAIN)))
        assert len(found) == 2
        assert counts == (8, 7, 5)
        rows, counts = self.work(
            lambda: all_answers(self.CHAIN, ConjunctiveQuery(atoms, (x,)))
        )
        assert rows == {(a,), (b,)}
        assert counts == (8, 7, 5)

    def test_prebound_enumeration_work(self):
        found, counts = self.work(
            lambda: list(
                homomorphisms((atom("E", x, y), atom("E", y, z)), self.CHAIN, {x: b})
            )
        )
        assert len(found) == 2
        assert counts == (3, 4, 3)
