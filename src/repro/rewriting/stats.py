"""Run-level instrumentation for the rewriting engine.

Every run of the indexed worklist engine (:func:`repro.rewriting.rewrite`)
records a :class:`RewriteStats`, exposed on
:attr:`repro.rewriting.RewritingResult.stats` and surfaced by the CLI's
``rewrite --stats`` / ``--json`` modes — the same contract the chase
(:class:`~repro.chase.stats.ChaseStats`) and the finite-model search
(:class:`~repro.fc.SearchStats`) speak.

The counters tell the story of the worklist run:

* *steps* — rule applications and factorisations actually attempted
  (the budgeted quantity);
* *candidates / duplicates / unsatisfiable / subsumed / kept* — the
  funnel every generated disjunct passes through: raw candidates, minus
  canonical-dedup hits, minus equality-contradiction drops, minus
  eager-subsumption prunes, equals the disjuncts kept on the frontier;
* *prefilter_skips* — (rule, atom) resolution attempts rejected by the
  per-(predicate, arity) applicability prefilter *before* any
  unification work;
* *index_probes / subsumption_checks / pairwise_checks_avoided* — how
  the :class:`~repro.rewriting.index.SubsumptionIndex` avoids a
  quadratic frontier scan: each probe compares the candidate against
  only its structurally comparable group, and
  ``pairwise_checks_avoided`` counts the frontier entries the index
  filtered out without a homomorphism check;
* *rule_instances* — memoised rename-apart rule instances built (one
  per rule, not one per step).

Wall times (``*_ms``) are the only nondeterministic fields; everything
else is a pure function of (query, theory, config), which the CLI
determinism tests rely on.  :data:`REWRITE_TIMING_FIELDS` lists them so
consumers comparing runs can strip them, mirroring
:data:`repro.chase.stats.TIMING_FIELDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

#: Keys of :meth:`RewriteStats.as_dict` that are *not* a pure function
#: of the run's inputs (wall-clock phase times) — excluded by
#: ``as_dict(timings=False)``; consumers comparing runs should strip
#: these.
REWRITE_TIMING_FIELDS = (
    "wall_ms",
    "rewrite_ms",
    "factor_ms",
    "subsume_ms",
    "minimize_ms",
)


@dataclass
class RewriteStats:
    """Aggregated instrumentation for one rewriting run.

    Attributes
    ----------
    steps:
        Step applications performed (rewriting + factorisation) — the
        quantity ``RewriteConfig.max_steps`` budgets.
    rewrite_steps / factor_steps:
        The split of ``steps`` by kind.
    candidates:
        Candidate disjuncts handed to the dedup/prune funnel.
    duplicates:
        Candidates dropped as canonical-form duplicates of a seen
        disjunct.
    unsatisfiable:
        Candidates dropped because equality normalisation proved them
        unsatisfiable.
    subsumed:
        Candidates pruned eagerly because a kept disjunct contains them.
    kept:
        Disjuncts kept on the frontier (pre-minimisation).
    prefilter_skips:
        (rule, atom) pairs rejected by the applicability prefilter
        before building a unifier.
    rule_instances:
        Memoised rename-apart rule instances prepared for the run.
    index_probes:
        Queries against the subsumption index.
    subsumption_checks:
        Homomorphism-backed ``cq_subsumes`` calls actually performed.
    pairwise_checks_avoided:
        Frontier entries the index filtered out as structurally
        incomparable (a full frontier scan would have checked each).
    minimized:
        Disjuncts in the final minimised UCQ.
    wall_ms / rewrite_ms / factor_ms / subsume_ms / minimize_ms:
        Phase wall times (the only nondeterministic fields; see
        :data:`REWRITE_TIMING_FIELDS`).
    """

    steps: int = 0
    rewrite_steps: int = 0
    factor_steps: int = 0
    candidates: int = 0
    duplicates: int = 0
    unsatisfiable: int = 0
    subsumed: int = 0
    kept: int = 0
    prefilter_skips: int = 0
    rule_instances: int = 0
    index_probes: int = 0
    subsumption_checks: int = 0
    pairwise_checks_avoided: int = 0
    minimized: int = 0
    wall_ms: float = 0.0
    rewrite_ms: float = 0.0
    factor_ms: float = 0.0
    subsume_ms: float = 0.0
    minimize_ms: float = 0.0

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``timings=False`` strips every wall time."""
        payload: Dict[str, Any] = {
            "steps": self.steps,
            "rewrite_steps": self.rewrite_steps,
            "factor_steps": self.factor_steps,
            "candidates": self.candidates,
            "duplicates": self.duplicates,
            "unsatisfiable": self.unsatisfiable,
            "subsumed": self.subsumed,
            "kept": self.kept,
            "prefilter_skips": self.prefilter_skips,
            "rule_instances": self.rule_instances,
            "index_probes": self.index_probes,
            "subsumption_checks": self.subsumption_checks,
            "pairwise_checks_avoided": self.pairwise_checks_avoided,
            "minimized": self.minimized,
        }
        if timings:
            payload["wall_ms"] = round(self.wall_ms, 3)
            payload["rewrite_ms"] = round(self.rewrite_ms, 3)
            payload["factor_ms"] = round(self.factor_ms, 3)
            payload["subsume_ms"] = round(self.subsume_ms, 3)
            payload["minimize_ms"] = round(self.minimize_ms, 3)
        return payload

    def __str__(self) -> str:
        return (
            f"RewriteStats({self.steps} steps, "
            f"{self.candidates} candidates, {self.kept} kept, "
            f"{self.pairwise_checks_avoided} checks avoided)"
        )
