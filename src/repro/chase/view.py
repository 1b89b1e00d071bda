"""Incremental chase views: maintain a chased fixpoint under updates.

A :class:`ChaseView` wraps the result of a chase and keeps it a
fixpoint as the underlying database changes, without rechasing from
scratch:

* **insert** — resume the semi-naive chase with the delta seeded by
  exactly the new facts.  Sound for the same reason the delta strategy
  is sound within one run (:mod:`repro.chase.engine`): the pre-update
  structure is a fixpoint, so every trigger not touching a new fact is
  already settled, and only delta-touching matches can demand anything.

* **delete** — DRed (delete-and-rederive) driven by the recorded
  multi-support provenance (:class:`~repro.chase.provenance.SupportStore`):

  1. *overdelete* every derived fact reachable from a removed fact
     through the reverse dependents index (base facts are extensional
     and never overdeleted);
  2. *rederive* overdeleted facts bottom-up from surviving facts via
     their recorded alternative supports (well-founded: a fact only
     comes back through premises actually present);
  3. *fallback* — one goal-directed round over the rules whose head
     predicate lost facts, enumerating only body matches whose head
     unifies with a lost fact (:func:`~repro.chase.engine._head_delta_bindings`).
     This covers everything the records cannot: supports dropped by
     the per-fact bound, existential triggers whose witness died (the
     restricted chase is not monotone under deletion — removing a
     witness can *un-suppress* a trigger), and removed base facts that
     remain derivable;
  4. resume delta rounds with the full theory until a fixpoint.

The maintained fixpoint is **not** promised to be fact-for-fact equal
to a fresh rechase — the restricted chase is not confluent under
suppression, so the incremental result may keep nulls a fresh run
would suppress.  Both are universal models of (base, theory), hence
homomorphically equivalent: certain answers, Boolean verdicts, and the
constants-only facts coincide (pinned by the property suite in
``tests/property/test_view_parity.py``).

Budgets and cancellation go through the same
:class:`~repro.runtime.RuntimeGuard` contract as a batch chase: each
``update`` is guarded by the config's ``wall_ms`` / ``max_rss_mb`` /
``cancel_token``; an interrupted update leaves the view consistent at
the last completed phase and stashes the remaining frontier, which the
next ``update`` (or :meth:`ChaseView.refresh`) drains first.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ChaseBudgetExceeded, ChaseError
from ..lf.atoms import Atom
from ..lf.homomorphism import all_answers, satisfies
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Element, Null, NullFactory
from ..runtime.guard import GuardTripped, RuntimeGuard, StopReason
from .engine import ChaseConfig, ChaseStrategy, _evaluate_round, chase
from .provenance import SupportStore
from .results import ChaseResult
from .stats import IncrStats, RoundStats


@dataclass
class IncrementalConfig(ChaseConfig):
    """A :class:`~repro.chase.ChaseConfig` for incremental views.

    Tracing is forced on (the view *is* a consumer of the support
    records) and the delta strategy is forced (the resume is inherently
    semi-naive); the oblivious chase is rejected — an oblivious trigger
    re-fires every round, so "resume from a fixpoint" has no meaning
    there.

    Attributes
    ----------
    max_update_rounds:
        Per-``update`` bound on resumed semi-naive rounds (``None`` =
        unbounded).  Tripping it follows the config's ``on_budget``
        policy, and the unconsumed delta is stashed for the next
        update/refresh.
    """

    max_update_rounds: "Optional[int]" = None

    def __post_init__(self) -> None:
        self.trace = True
        self.strategy = ChaseStrategy.DELTA
        super().__post_init__()
        if self.oblivious:
            raise ValueError(
                "incremental views require the non-oblivious chase "
                "(oblivious triggers re-fire every round; there is no "
                "fixpoint to maintain)"
            )
        if self.max_update_rounds is not None and self.max_update_rounds < 1:
            raise ValueError(
                f"max_update_rounds must be >= 1, got {self.max_update_rounds}"
            )


@dataclass
class UpdateResult:
    """Outcome of one :meth:`ChaseView.update`.

    Attributes
    ----------
    added / removed:
        The *net* change to the view's fact set: facts present after
        the update that were absent before, and vice versa.  (A fact
        overdeleted and rederived within the update appears in
        neither.)
    saturated:
        Whether the view is a fixpoint again after this update.
    stopped_reason:
        ``fixpoint`` when saturated, otherwise the uniform
        :class:`~repro.runtime.StopReason` budget vocabulary.
    stats:
        The update's :class:`~repro.chase.stats.IncrStats`.
    """

    added: Tuple[Atom, ...]
    removed: Tuple[Atom, ...]
    saturated: bool
    stopped_reason: StopReason
    stats: IncrStats

    def __str__(self) -> str:
        status = "saturated" if self.saturated else f"stopped:{self.stopped_reason.value}"
        return (
            f"UpdateResult(+{len(self.added)}/-{len(self.removed)}, {status})"
        )


@dataclass
class ViewAnswer:
    """Certain-answer report for one query against a view.

    Mirrors :class:`~repro.chase.certain.CertainReport`'s three-valued
    contract: ``True`` iff a certain answer exists, ``False`` iff the
    view is saturated without one, ``None`` when the view is currently
    truncated (a pending budget-stopped update) and the query is
    absent.
    """

    verdict: "Optional[bool]"
    answers: "Set[Tuple[Element, ...]]"
    complete: bool


class ChaseView:
    """A chased fixpoint maintained incrementally under fact updates.

    Parameters
    ----------
    database:
        The initial base facts (the view never mutates the input).
    theory:
        The TGD theory the view stays closed under.
    config:
        An :class:`IncrementalConfig` (a plain
        :class:`~repro.chase.ChaseConfig` is promoted field-by-field);
        keyword *overrides* are applied on top.

    The view owns its working structure — callers must treat
    :attr:`structure` as read-only and go through :meth:`update`.
    """

    def __init__(
        self,
        database: Structure,
        theory: Theory,
        config: "Optional[ChaseConfig]" = None,
        **overrides,
    ):
        if config is None:
            config = IncrementalConfig()
        elif not isinstance(config, IncrementalConfig):
            config = IncrementalConfig(
                **{f.name: getattr(config, f.name) for f in fields(config)}
            )
        self.config: IncrementalConfig = config.with_overrides(**overrides)
        self.theory = theory
        self._base: Set[Atom] = set(database.facts())

        result = chase(database, theory, self.config)
        self._working: Structure = result.structure
        self._provenance: SupportStore = result.provenance  # trace is forced
        self._fact_level: Dict[Atom, int] = dict(result.fact_level)
        self._depth: int = result.depth
        self.saturated: bool = result.saturated
        self.stopped_reason: StopReason = result.stopped_reason
        self.initial_result: ChaseResult = result
        self._nulls = NullFactory.above(self._working.domain())

        # Stashed continuation state for budget-interrupted updates: the
        # unconsumed semi-naive frontier, overdeleted facts not yet
        # rederive-checked, and lost facts still owed a fallback round.
        self._pending_delta: List[Atom] = (
            [] if result.saturated else result.facts_at_level(result.depth)
        )
        self._pending_lost: Set[Atom] = set()
        self._fallback_lost: Set[Atom] = set()
        self.update_stats: List[IncrStats] = []

    # -- inspection -----------------------------------------------------
    @property
    def structure(self) -> Structure:
        """The maintained fixpoint (read-only by convention)."""
        return self._working

    def facts(self) -> "frozenset[Atom]":
        return self._working.facts()

    def __len__(self) -> int:
        return len(self._working)

    def base_facts(self) -> "frozenset[Atom]":
        """The current extensional database."""
        return frozenset(self._base)

    @property
    def depth(self) -> int:
        """Chase rounds completed over the view's lifetime."""
        return self._depth

    def level_of(self, fact: Atom) -> int:
        """The round that introduced *fact* (0 for base facts)."""
        return self._fact_level[fact]

    def as_result(self) -> ChaseResult:
        """A :class:`~repro.chase.ChaseResult` snapshot of the view.

        Shares the working structure and provenance (no copy) — usable
        with :func:`repro.chase.provenance.explain` and friends.
        """
        return ChaseResult(
            structure=self._working,
            depth=self._depth,
            saturated=self.saturated,
            fact_level=dict(self._fact_level),
            provenance=self._provenance,
            stopped_reason=self.stopped_reason,
        )

    # -- queries --------------------------------------------------------
    def certain(self, queries: Iterable[object]) -> "List[ViewAnswer]":
        """Batched certain answers against the maintained fixpoint.

        Each query is evaluated through the shared plan cache of
        :mod:`repro.lf.plan` (repeat shapes compile once across the
        batch and across updates).  Answers keep constants-only rows —
        rows mentioning nulls are not certain.
        """
        out: List[ViewAnswer] = []
        for query in queries:
            if getattr(query, "is_boolean", False):
                answers: Set[Tuple[Element, ...]] = (
                    {()} if satisfies(self._working, query) else set()
                )
            else:
                raw = all_answers(self._working, query)
                answers = {
                    row
                    for row in raw
                    if all(isinstance(value, Constant) for value in row)
                }
            if answers:
                verdict: "Optional[bool]" = True
            elif self.saturated:
                verdict = False
            else:
                verdict = None
            out.append(
                ViewAnswer(verdict=verdict, answers=answers, complete=self.saturated)
            )
        return out

    def certain_one(self, query: object) -> ViewAnswer:
        """Convenience: :meth:`certain` for a single query."""
        return self.certain([query])[0]

    # -- maintenance ----------------------------------------------------
    def refresh(self) -> UpdateResult:
        """Drain any stashed work from a budget-interrupted update."""
        return self.update()

    def update(
        self,
        adds: "Iterable[Atom]" = (),
        removes: "Iterable[Atom]" = (),
    ) -> UpdateResult:
        """Apply a batch of base-fact insertions and retractions.

        Retracting a fact that is not currently a base fact raises
        :class:`~repro.errors.ChaseError` (derived facts cannot be
        retracted — they are consequences, not data).  Adding a fact
        already in the base is a no-op.  A removed base fact that is
        still derivable from the surviving base comes back as a
        *derived* fact.

        Raises the config's budget exceptions when ``on_budget`` is
        ``RAISE``; otherwise a budget trip returns with
        ``saturated=False`` and the remaining frontier stashed (see
        :meth:`refresh`).
        """
        add_list = list(adds)
        remove_list = list(removes)
        for fact in add_list + remove_list:
            if not fact.is_fact:
                raise ChaseError(f"update facts must be ground, got {fact}")

        guard = RuntimeGuard.from_config(self.config, "chase-view")
        stats = IncrStats()
        started = time.perf_counter()
        came: Set[Atom] = set()
        gone: Set[Atom] = set()

        def note_added(fact: Atom) -> None:
            if fact in gone:
                gone.discard(fact)
            else:
                came.add(fact)

        def note_removed(fact: Atom) -> None:
            if fact in came:
                came.discard(fact)
            else:
                gone.add(fact)

        # ---- phase 1: retract + DRed overdeletion (index walk; not
        # interruptible — bounded by the recorded trace, no rule
        # evaluation happens here) --------------------------------------
        for fact in remove_list:
            if fact not in self._base:
                raise ChaseError(
                    f"cannot retract {fact}: not a database fact of the view"
                )
            self._base.discard(fact)
        stats.removes_in = len(remove_list)
        worklist: "deque[Atom]" = deque()
        for fact in remove_list:
            if self._working.discard_fact(fact):
                note_removed(fact)
                self._fact_level.pop(fact, None)
                self._pending_lost.add(fact)
                worklist.append(fact)
        while worklist:
            dead = worklist.popleft()
            for dependent in self._provenance.dependents(dead):
                if dependent in self._base:
                    continue  # extensional: deletion never cascades into it
                if self._working.discard_fact(dependent):
                    note_removed(dependent)
                    self._fact_level.pop(dependent, None)
                    stats.overdeleted += 1
                    self._pending_lost.add(dependent)
                    worklist.append(dependent)

        # ---- phase 2: rederive from surviving supports ----------------
        pending = set(self._pending_lost)
        queue: "deque[Atom]" = deque(sorted(pending, key=str))
        while queue:
            fact = queue.popleft()
            if self._working.has_fact(fact):
                continue
            for support in self._provenance.supports(fact):
                if all(self._working.has_fact(p) for p in support.premises):
                    self._working.add_fact(fact)
                    note_added(fact)
                    self._fact_level[fact] = 1 + max(
                        (self._fact_level.get(p, 0) for p in support.premises),
                        default=0,
                    )
                    stats.rederived += 1
                    for dependent in self._provenance.dependents(fact):
                        if dependent in pending and not self._working.has_fact(
                            dependent
                        ):
                            queue.append(dependent)
                    break
        confirmed_lost = {f for f in pending if not self._working.has_fact(f)}
        self._pending_lost = set()
        self._fallback_lost |= confirmed_lost
        for fact in confirmed_lost:
            self._provenance.discard(fact)

        # Null bookkeeping: invented elements left occurring in no fact.
        dead_nulls: Set[Null] = set()
        for fact in confirmed_lost:
            dead_nulls.update(fact.nulls())
        stats.nulls_orphaned = sum(
            1 for null in dead_nulls if not self._working.facts_about(null)
        )

        # ---- phase 3: inserts seed the delta --------------------------
        # A stashed frontier fact may have been deleted above before it
        # was ever consumed: drop it (delta enumeration pins body atoms
        # to frontier facts without re-checking presence).
        delta_seed: List[Atom] = [
            fact for fact in self._pending_delta if self._working.has_fact(fact)
        ]
        self._pending_delta = []
        seen_seed: Set[Atom] = set(delta_seed)
        for fact in add_list:
            if fact in self._base:
                continue
            self._base.add(fact)
            stats.adds_in += 1
            self._fact_level[fact] = 0  # extensional now, even if derived before
            if self._working.add_fact(fact):
                note_added(fact)
                if fact not in seen_seed:
                    seen_seed.add(fact)
                    delta_seed.append(fact)

        def finish(reason: StopReason, saturated: bool) -> UpdateResult:
            self.saturated = saturated
            self.stopped_reason = reason
            stats.wall_ms = (time.perf_counter() - started) * 1000.0
            self.update_stats.append(stats)
            return UpdateResult(
                added=tuple(sorted(came, key=str)),
                removed=tuple(sorted(gone, key=str)),
                saturated=saturated,
                stopped_reason=reason,
                stats=stats,
            )

        def budget_stop(reason: StopReason, frontier: "List[Atom]") -> UpdateResult:
            self._pending_delta = frontier
            if self.config.should_raise:
                stats.wall_ms = (time.perf_counter() - started) * 1000.0
                self.update_stats.append(stats)
                self.saturated = False
                self.stopped_reason = reason
                raise guard.exception(reason, stats=stats)
            return finish(reason, saturated=False)

        # ---- phase 4: goal-directed fallback over affected rules ------
        if self._fallback_lost:
            lost_preds = {fact.pred for fact in self._fallback_lost}
            indices = [
                index
                for index, rule in enumerate(self.theory.rules)
                if any(head.pred in lost_preds for head in rule.head)
            ]
            stats.fallback_rules = len(indices)
            if indices:
                lost_by_pred: Dict[str, List[Atom]] = {}
                for fact in sorted(self._fallback_lost, key=str):
                    lost_by_pred.setdefault(fact.pred, []).append(fact)
                round_stats = RoundStats(
                    round=self._depth + 1, delta_in=len(self._fallback_lost)
                )
                round_started = time.perf_counter()
                try:
                    produced, invented = _evaluate_round(
                        self._working,
                        self.theory,
                        self._nulls,
                        self._depth + 1,
                        self.config,
                        self._provenance,
                        None,
                        round_stats,
                        guard,
                        rule_indices=indices,
                        head_delta=lost_by_pred,
                    )
                except GuardTripped as trip:
                    # Nothing was inserted; the fallback is still owed
                    # (self._fallback_lost is intact) and the seed is
                    # the whole remaining frontier.
                    round_stats.wall_ms = (
                        time.perf_counter() - round_started
                    ) * 1000.0
                    stats.rounds.append(round_stats)
                    stats.delta_sizes.append(round_stats.delta_in)
                    return budget_stop(trip.reason, delta_seed)
                round_stats.wall_ms = (time.perf_counter() - round_started) * 1000.0
                stats.rounds.append(round_stats)
                stats.delta_sizes.append(round_stats.delta_in)
                if produced or invented:
                    self._depth += 1
                    stats.facts_added += len(produced)
                    stats.nulls_invented += len(invented)
                    for fact in produced:
                        note_added(fact)
                        self._fact_level.setdefault(fact, self._depth)
                        if fact not in seen_seed:
                            seen_seed.add(fact)
                            delta_seed.append(fact)
            self._fallback_lost.clear()

        # ---- phase 5: semi-naive delta resume to fixpoint -------------
        delta = delta_seed
        while delta:
            reason = guard.check()
            if reason is not None:
                return budget_stop(reason, delta)
            if (
                self.config.max_update_rounds is not None
                and stats.resumed_rounds >= self.config.max_update_rounds
            ):
                return budget_stop(StopReason.BUDGET, delta)
            round_stats = RoundStats(round=self._depth + 1, delta_in=len(delta))
            round_started = time.perf_counter()
            try:
                produced, invented = _evaluate_round(
                    self._working,
                    self.theory,
                    self._nulls,
                    self._depth + 1,
                    self.config,
                    self._provenance,
                    delta,
                    round_stats,
                    guard,
                )
            except GuardTripped as trip:
                round_stats.wall_ms = (time.perf_counter() - round_started) * 1000.0
                stats.rounds.append(round_stats)
                stats.delta_sizes.append(round_stats.delta_in)
                return budget_stop(trip.reason, delta)
            round_stats.wall_ms = (time.perf_counter() - round_started) * 1000.0
            stats.rounds.append(round_stats)
            stats.delta_sizes.append(round_stats.delta_in)
            stats.resumed_rounds += 1
            if not produced and not invented:
                break  # fixpoint certified
            self._depth += 1
            stats.facts_added += len(produced)
            stats.nulls_invented += len(invented)
            for fact in produced:
                note_added(fact)
                self._fact_level.setdefault(fact, self._depth)
            delta = produced
            over_facts = (
                self.config.max_facts is not None
                and len(self._working) > self.config.max_facts
            )
            over_elements = (
                self.config.max_elements is not None
                and self._working.domain_size > self.config.max_elements
            )
            if over_facts or over_elements:
                self._pending_delta = delta
                self.saturated = False
                self.stopped_reason = StopReason.BUDGET
                stats.wall_ms = (time.perf_counter() - started) * 1000.0
                self.update_stats.append(stats)
                if self.config.should_raise:
                    raise ChaseBudgetExceeded(
                        f"view update exceeded budget at depth {self._depth}",
                        stats=stats,
                    )
                return UpdateResult(
                    added=tuple(sorted(came, key=str)),
                    removed=tuple(sorted(gone, key=str)),
                    saturated=False,
                    stopped_reason=StopReason.BUDGET,
                    stats=stats,
                )

        return finish(StopReason.FIXPOINT, saturated=True)

    def __str__(self) -> str:
        status = "saturated" if self.saturated else "truncated"
        return (
            f"ChaseView({status} at depth {self._depth}, "
            f"{len(self._working)} facts over {len(self._base)} base facts, "
            f"{len(self.update_stats)} updates)"
        )


def chase_view(
    database: Structure,
    theory: Theory,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> ChaseView:
    """Build a :class:`ChaseView` (chases *database* once, eagerly)."""
    return ChaseView(database, theory, config, **overrides)
