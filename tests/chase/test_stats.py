"""Instrumentation: the counters on :class:`repro.chase.ChaseStats`.

The stats are part of the public result surface (CLI ``--stats`` /
``--json`` and the benchmarks read them), so their internal consistency
and determinism are pinned here.
"""

import json

from repro.chase import (
    ChaseConfig,
    ChaseStats,
    RoundStats,
    chase,
    datalog_saturate,
)
from repro.cli import render_chase_stats
from repro.lf import parse_structure, parse_theory
from repro.payloads import TIMING_FIELDS
from repro.zoo import chain_structure, transitive_theory

from ..test_cli_json import strip_timings


def growing_chain():
    return (
        parse_structure("E(a,b)"),
        parse_theory("E(x,y) -> exists z. E(y,z)"),
    )


class TestCounters:
    def test_every_round_is_recorded(self):
        database, theory = growing_chain()
        result = chase(database, theory, ChaseConfig(max_depth=5))
        assert result.stats is not None
        # 5 growing rounds, truncated: no empty closing round.
        assert [r.round for r in result.stats.rounds] == [1, 2, 3, 4, 5]
        assert result.stats.facts_added == len(result.structure) - 1
        assert result.stats.nulls_invented == len(result.new_elements)

    def test_saturating_run_includes_the_empty_closing_round(self):
        result = chase(chain_structure(4), transitive_theory(),
                       ChaseConfig(max_depth=10))
        assert result.saturated
        last = result.stats.rounds[-1]
        assert last.facts_added == 0
        # The closing round joined through the last delta and found
        # nothing new.
        assert result.stats.facts_added == len(result.structure) - 4

    def test_totals_are_sums_of_rounds(self):
        result = chase(chain_structure(5), transitive_theory(),
                       ChaseConfig(max_depth=10))
        stats = result.stats
        for name in ("triggers_evaluated", "triggers_fired",
                     "triggers_suppressed", "facts_added", "nulls_invented",
                     "index_probes"):
            assert getattr(stats, name) == sum(
                getattr(r, name) for r in stats.rounds
            ), name
        assert stats.delta_sizes == [r.delta_in for r in stats.rounds]

    def test_suppression_counts_existing_witnesses(self):
        # a -> b already has an E-successor: the existential trigger on
        # E(a,b) is suppressed, never fired.
        database = parse_structure("E(a,b), E(b,c), E(c,a)")
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        result = chase(database, theory, ChaseConfig(max_depth=4))
        assert result.saturated
        assert result.stats.triggers_fired == 0
        assert result.stats.triggers_suppressed >= 3

    def test_index_probes_are_attributed_to_rounds(self):
        database, theory = growing_chain()
        result = chase(database, theory, ChaseConfig(max_depth=3))
        assert result.stats.index_probes > 0
        assert all(r.index_probes >= 0 for r in result.stats.rounds)

    def test_datalog_saturate_carries_stats(self):
        structure = chain_structure(4)
        saturated = datalog_saturate(structure, transitive_theory())
        assert saturated.stats is not None
        assert saturated.stats.triggers_fired > 0
        assert saturated.stats.facts_added == len(saturated.structure) - 4


class TestSerialization:
    def test_as_dict_round_trips_through_json(self):
        database, theory = growing_chain()
        stats = chase(database, theory, ChaseConfig(max_depth=3)).stats
        payload = json.loads(json.dumps(stats.as_dict()))
        assert len(payload["rounds"]) == 3
        assert payload["totals"]["facts_added"] == stats.facts_added

    def test_strip_timings_drops_every_wall_time(self):
        database, theory = growing_chain()
        stats = chase(database, theory, ChaseConfig(max_depth=3)).stats
        payload = stats.as_dict()
        assert "wall_ms" in payload["totals"]
        payload = strip_timings(payload)
        assert "wall_ms" not in payload["totals"]
        for entry in payload["rounds"] + [payload["hom"]]:
            for key in TIMING_FIELDS:
                assert key not in entry

    def test_counters_deterministic_across_runs(self):
        # Everything except the wall times is a pure function of the
        # inputs — rerunning must give byte-identical timing-free dicts.
        database, theory = growing_chain()
        config = ChaseConfig(max_depth=4)
        first = chase(database, theory, config).stats.as_dict()
        second = chase(database, theory, config).stats.as_dict()
        assert strip_timings(first) == strip_timings(second)

    def test_render_is_deterministic_modulo_wall(self):
        database, theory = growing_chain()
        config = ChaseConfig(max_depth=4)

        def strip_wall(text):
            return [line.split(" wall=")[0] for line in text.splitlines()]

        first = render_chase_stats(chase(database, theory, config).stats.as_dict())
        second = render_chase_stats(chase(database, theory, config).stats.as_dict())
        assert strip_wall(first) == strip_wall(second)

    def test_empty_stats_render(self):
        stats = ChaseStats(rounds=[RoundStats(round=1)])
        assert "round 1" in render_chase_stats(stats.as_dict())
        assert stats.triggers_evaluated == 0
