"""Incremental chase views: maintain a chased fixpoint under updates.

A :class:`ChaseView` wraps the result of a chase and keeps it a
fixpoint as the underlying database changes, without rechasing from
scratch:

* **insert** — resume the semi-naive chase with the delta seeded by
  exactly the new facts.  Sound for the same reason delta rounds are
  sound within one run (:mod:`repro.chase.engine`): the pre-update
  structure is a fixpoint, so every trigger not touching a new fact is
  already settled, and only delta-touching matches can demand anything.
  The resume runs through the engine's one round loop
  (:func:`~repro.chase.engine._run_rounds`), which keeps the guard
  checks, round stats, budgets and stop policy of a batch chase.

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
next ``update`` (or :meth:`ChaseView.refresh`) drains first.  So does
an update that runs out of ``max_update_rounds`` or over ``max_facts``
/ ``max_elements``.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ChaseError
from ..lf.atoms import Atom
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Element, Null, NullFactory
from ..runtime.guard import RuntimeGuard, StopReason
from .certain import evaluate_certain
from .engine import ChaseConfig, _recorded_round, _run_rounds, chase
from .provenance import SupportStore
from .results import ChaseResult
from .stats import IncrStats


@dataclass
class IncrementalConfig(ChaseConfig):
    """A :class:`~repro.chase.ChaseConfig` for incremental views.

    Tracing is forced on: the view *is* a consumer of the support
    records.

    Attributes
    ----------
    max_update_rounds:
        Per-``update`` bound on resumed semi-naive rounds (``None`` =
        unbounded).  Running out stashes the unconsumed delta for the
        next update/refresh and follows the config's ``on_budget``
        policy (``RAISE`` raises
        :class:`~repro.errors.ChaseBudgetExceeded`).  The resume
        ignores ``max_depth``, which bounds only the initial chase.
    """

    max_update_rounds: "Optional[int]" = None

    def __post_init__(self) -> None:
        self.trace = True
        super().__post_init__()
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
            verdict, answers = evaluate_certain(self._working, query, self.saturated)
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

        def settle(reason: StopReason, frontier: "List[Atom]", completed: int) -> None:
            # Called before any exception is raised: the view keeps the
            # frontier it still owes and records the update.
            stats.resumed_rounds = completed
            self._pending_delta = frontier
            self.saturated = reason is StopReason.FIXPOINT
            self.stopped_reason = reason
            stats.wall_ms = (time.perf_counter() - started) * 1000.0
            self.update_stats.append(stats)

        def on_round(level: int, produced: "List[Atom]", invented: "List[Null]") -> None:
            self._depth = level
            stats.facts_added += len(produced)
            stats.nulls_invented += len(invented)
            for fact in produced:
                note_added(fact)
                self._fact_level.setdefault(fact, level)

        def outcome(reason: StopReason) -> UpdateResult:
            return UpdateResult(
                added=tuple(sorted(came, key=str)),
                removed=tuple(sorted(gone, key=str)),
                saturated=self.saturated,
                stopped_reason=reason,
                stats=stats,
            )

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
                tripped, produced, invented = _recorded_round(
                    self._working,
                    self.theory,
                    self._nulls,
                    self._depth + 1,
                    self.config,
                    self._provenance,
                    None,
                    guard,
                    stats.rounds,
                    len(self._fallback_lost),
                    rule_indices=indices,
                    head_delta=lost_by_pred,
                )
                if tripped is not None:
                    # Nothing was inserted; the fallback is still owed
                    # (self._fallback_lost is intact) and the seed is
                    # the whole remaining frontier.
                    settle(tripped, delta_seed, 0)
                    if self.config.should_raise:
                        raise guard.exception(tripped, stats=stats)
                    return outcome(tripped)
                if produced:
                    on_round(self._depth + 1, produced, invented)
                    for fact in produced:
                        if fact not in seen_seed:
                            seen_seed.add(fact)
                            delta_seed.append(fact)
            self._fallback_lost.clear()

        # ---- phase 5: semi-naive delta resume to fixpoint -------------
        reason = _run_rounds(
            self._working,
            self.theory,
            self._nulls,
            self.config,
            self._provenance,
            guard,
            stats,
            self._depth,
            delta_seed,
            self.config.max_update_rounds,
            on_round,
            settle,
            raise_at_max_rounds=True,
        )
        return outcome(reason)

    def __str__(self) -> str:
        status = "saturated" if self.saturated else "truncated"
        return (
            f"ChaseView({status} at depth {self._depth}, "
            f"{len(self._working)} facts over {len(self._base)} base facts, "
            f"{len(self.update_stats)} updates)"
        )

