"""Run-level instrumentation for chase runs.

Every chase run records a :class:`ChaseStats` — one
:class:`RoundStats` per parallel round — exposed on
:attr:`repro.chase.ChaseResult.stats` and propagated up through
``certain_*``, ``datalog_saturate`` and the Theorem-2 pipeline.  The
counters are the language the benchmarks and the CLI's ``--stats`` /
``--json`` modes speak:

* *triggers evaluated* — body matches enumerated this round (after the
  first round only matches touching the previous round's delta: all-old
  matches are provably settled and never enumerated);
* *triggers fired* — matches that produced at least one new fact or a
  witness;
* *triggers suppressed* — existential matches skipped because a witness
  already existed (the non-oblivious "only if needed" check);
* *delta_in* — how many facts the round joined through as the delta
  (for the first round: the whole structure);
* *index_probes* — hash-index lookups performed on the
  :class:`~repro.lf.structures.Structure` during the round.

Each run also snapshots the homomorphism engine's process-global
:class:`~repro.lf.plan.HomStats` counters and stores the per-run delta
on :attr:`ChaseStats.hom` — plans requested, plan-cache hits/misses,
matcher index probes, candidate facts scanned, and backtracks.

Wall times and the plan-cache counters (requests, and their hit/miss
split) are the only environment-dependent fields: they depend on what
ran earlier in the process.  Everything else is a pure function of
(database, theory, config), which the CLI determinism tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..lf.plan import HomStats

#: Keys of the stats dicts that are *not* a pure function of the run's
#: inputs — wall times plus the plan-cache counters, which depend on
#: what ran earlier in the process (a rule's plans are fetched on its
#: first use only) — excluded by ``as_dict(timings=False)``; consumers
#: comparing runs should strip these.
TIMING_FIELDS = (
    "wall_ms",
    "plans_compiled",
    "plan_cache_hits",
    "plan_cache_misses",
    "plan_requests",
)


@dataclass
class RoundStats:
    """Counters for one parallel round of the chase."""

    round: int
    triggers_evaluated: int = 0
    triggers_fired: int = 0
    triggers_suppressed: int = 0
    facts_added: int = 0
    nulls_invented: int = 0
    delta_in: int = 0
    index_probes: int = 0
    wall_ms: float = 0.0

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``timings=False`` drops the wall time."""
        payload: Dict[str, Any] = {
            "round": self.round,
            "triggers_evaluated": self.triggers_evaluated,
            "triggers_fired": self.triggers_fired,
            "triggers_suppressed": self.triggers_suppressed,
            "facts_added": self.facts_added,
            "nulls_invented": self.nulls_invented,
            "delta_in": self.delta_in,
            "index_probes": self.index_probes,
        }
        if timings:
            payload["wall_ms"] = self.wall_ms
        return payload


@dataclass
class ChaseStats:
    """Aggregated instrumentation for a whole chase run.

    Attributes
    ----------
    rounds:
        One entry per evaluated round, including the final empty round
        that certifies saturation (it did real work: it enumerated and
        rejected every remaining trigger).
    hom:
        The homomorphism engine's per-run counters
        (:class:`~repro.lf.plan.HomStats`): plan requests and cache
        hits/misses, matcher index probes, candidate facts scanned,
        backtracks.  ``None`` only on hand-built stats.
    """

    rounds: List[RoundStats] = field(default_factory=list)
    hom: "Optional[HomStats]" = None

    # -- totals ---------------------------------------------------------
    @property
    def triggers_evaluated(self) -> int:
        return sum(r.triggers_evaluated for r in self.rounds)

    @property
    def triggers_fired(self) -> int:
        return sum(r.triggers_fired for r in self.rounds)

    @property
    def triggers_suppressed(self) -> int:
        return sum(r.triggers_suppressed for r in self.rounds)

    @property
    def facts_added(self) -> int:
        return sum(r.facts_added for r in self.rounds)

    @property
    def nulls_invented(self) -> int:
        return sum(r.nulls_invented for r in self.rounds)

    @property
    def index_probes(self) -> int:
        return sum(r.index_probes for r in self.rounds)

    @property
    def wall_ms(self) -> float:
        return sum(r.wall_ms for r in self.rounds)

    @property
    def delta_sizes(self) -> List[int]:
        """The delta fed into each round."""
        return [r.delta_in for r in self.rounds]

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``timings=False`` strips every wall time."""
        payload: Dict[str, Any] = {
            "rounds": [r.as_dict(timings=timings) for r in self.rounds],
            "totals": {
                "triggers_evaluated": self.triggers_evaluated,
                "triggers_fired": self.triggers_fired,
                "triggers_suppressed": self.triggers_suppressed,
                "facts_added": self.facts_added,
                "nulls_invented": self.nulls_invented,
                "index_probes": self.index_probes,
            },
        }
        if self.hom is not None:
            # the plan-cache counters depend on cache warmth: stripped
            # together with the wall times
            payload["hom"] = self.hom.as_dict(cache=timings)
        if timings:
            payload["totals"]["wall_ms"] = self.wall_ms
        return payload

    def __str__(self) -> str:
        return (
            f"ChaseStats({len(self.rounds)} rounds, "
            f"{self.triggers_evaluated} triggers, "
            f"{self.index_probes} probes)"
        )


@dataclass
class IncrStats:
    """Instrumentation for one incremental view update.

    Recorded by :meth:`repro.chase.view.ChaseView.update` on the shared
    stats contract: :meth:`as_dict` is what the JSON payloads carry
    (and what the CLI's text-mode ``--stats`` lines are rendered from),
    and everything except the wall time is a pure function of
    (view state, adds, removes).

    Attributes
    ----------
    adds_in / removes_in:
        Size of the requested delta (facts genuinely added to /
        removed from the base, after dedup against the current base).
    overdeleted:
        Facts removed by the DRed overdeletion sweep (transitive
        dependents of the removed base facts, base facts excluded).
    rederived:
        Overdeleted facts restored because an alternative recorded
        support survived — the multi-support payoff.
    fallback_rules:
        Rules evaluated by the goal-directed DRed fallback round
        (rules whose head predicate lost facts, enumerated against the
        lost facts only; 0 when rederivation already settled
        everything or nothing was removed).
    resumed_rounds:
        Semi-naive rounds run by the delta resume (insert seeding plus
        the post-delete repair), *excluding* the fallback enumeration.
    facts_added / nulls_invented:
        What the resume derived beyond the explicit adds.
    nulls_orphaned:
        Invented nulls left occurring in no fact after the retraction —
        dead weight the view drops from its level bookkeeping.
    rounds:
        Per-round counters of the fallback round and the resume, shaped
        exactly like a chase run's (:class:`RoundStats`).
    """

    adds_in: int = 0
    removes_in: int = 0
    overdeleted: int = 0
    rederived: int = 0
    fallback_rules: int = 0
    resumed_rounds: int = 0
    facts_added: int = 0
    nulls_invented: int = 0
    nulls_orphaned: int = 0
    rounds: List[RoundStats] = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def triggers_evaluated(self) -> int:
        return sum(r.triggers_evaluated for r in self.rounds)

    @property
    def delta_sizes(self) -> List[int]:
        """The delta fed into each round (``rounds[i].delta_in``)."""
        return [r.delta_in for r in self.rounds]

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``timings=False`` strips every wall time."""
        payload: Dict[str, Any] = {
            "adds_in": self.adds_in,
            "removes_in": self.removes_in,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "fallback_rules": self.fallback_rules,
            "resumed_rounds": self.resumed_rounds,
            "facts_added": self.facts_added,
            "nulls_invented": self.nulls_invented,
            "nulls_orphaned": self.nulls_orphaned,
            "delta_sizes": self.delta_sizes,
            "rounds": [r.as_dict(timings=timings) for r in self.rounds],
        }
        if timings:
            payload["wall_ms"] = self.wall_ms
        return payload

    def __str__(self) -> str:
        return (
            f"IncrStats(+{self.adds_in}/-{self.removes_in}, "
            f"overdeleted {self.overdeleted}, rederived {self.rederived}, "
            f"{self.resumed_rounds} resumed rounds)"
        )
