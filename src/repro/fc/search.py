"""Finite-model search: the independent check on finite controllability.

Definition 1 makes FC a statement about the existence of finite models:
``T is FC`` iff whenever ``Chase(D, T) ⊭ Φ`` there is a finite
``M ⊨ D, T`` with ``M ⊭ Φ``.  The Theorem-2 pipeline *constructs* such
an M for binary BDD theories; this module *searches* for one with no
theory-side assumptions, which gives the experiments an independent
oracle to cross-check against — and, crucially, a way to explore the
paper's **negative** example (Section 5.5), where every finite model
satisfies the query.

The search explores chase states in which an existential trigger may be
satisfied by **reusing** any existing element before inventing a fresh
one (fresh elements bounded by ``max_elements``).  Datalog rules are
saturated deterministically at every node.  Within its bounds the
search is complete: if it reports "no model avoiding Φ with ≤ N
elements", there is none.

The engine is built for throughput:

* **copy-on-write states** — a branch records only its parent pointer
  and the handful of head facts it adds; the full structure is
  materialised lazily when (and only when) the state is expanded;
* **incremental saturation** — the root is saturated once by
  :func:`repro.chase.engine.datalog_saturate`; every other state
  re-saturates from its delta
  (:func:`repro.chase.seminaive.incremental_datalog_saturate`) instead
  of re-running the fixpoint from scratch; a state whose saturation
  exceeds ``max_facts`` is treated as a pruned branch;
* **canonical dedup** — branches that differ only in invented null
  names collapse (sound: rules and queries never mention nulls, so
  isomorphic-over-constants states have identical futures).  States
  are bucketed by a cheap isomorphism invariant (:func:`_invariant`);
  a state alone in its bucket is new, and only states that share a
  bucket are compared by their null-renaming-invariant keys
  (:func:`repro.lf.canonical.canonical_key`), each computed at most
  once;
* **compiled triggers** — a node's first violated existential trigger
  comes from :func:`repro.chase.seminaive.unsatisfied_triggers`, whose
  per-rule body and frontier-prebound head plans are compiled once per
  process and shared with the chase and with ``is_model``;
* **configurable frontier** — depth-first, reuse first, by default,
  or best-first by smallest domain / fewest violations via
  :class:`SearchConfig`.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from ..chase.engine import datalog_saturate
from ..chase.seminaive import incremental_datalog_saturate, unsatisfied_triggers
from ..config import BudgetedConfig, OnBudget, coerce_enum
from ..errors import ChaseBudgetExceeded, ModelSearchExhausted
from ..runtime.guard import RuntimeGuard, StopReason
from ..lf.atoms import Atom
from ..lf.canonical import canonical_key
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Element, NullFactory, Variable

#: Stats keys that are wall times — not a pure function of the inputs —
#: mirroring :data:`repro.chase.stats.TIMING_FIELDS`; stripped by
#: ``SearchStats.as_dict(timings=False)``.
SEARCH_TIMING_FIELDS = (
    "wall_ms",
    "materialise_ms",
    "saturate_ms",
    "canonical_ms",
    "query_ms",
    "expand_ms",
)


class SearchHeuristic(str, Enum):
    """Frontier orderings of the finite-model search.

    Attributes
    ----------
    DFS:
        Depth-first, reuse-combinations first — the classic order of
        the definitional search, which surfaces small models quickly.
    SMALLEST_DOMAIN:
        Best-first by the state's domain size: prefer states that
        invented fewer elements (a small-model bias that, unlike DFS,
        never commits to a deep fruitless branch).
    FEWEST_VIOLATIONS:
        Best-first by how many existential triggers the expanded parent
        still violated: prefer branches whose parents were closest to
        being models.
    """

    DFS = "dfs"
    SMALLEST_DOMAIN = "smallest-domain"
    FEWEST_VIOLATIONS = "fewest-violations"

    @classmethod
    def coerce(cls, value: "SearchHeuristic | str") -> "SearchHeuristic":
        return coerce_enum(value, cls, "heuristic")


@dataclass
class SearchConfig(BudgetedConfig):
    """Budgets and frontier ordering of :func:`search_finite_model`.

    Follows the library-wide config contract (:mod:`repro.config`):
    budgets plus an :class:`~repro.config.OnBudget` policy, overridable
    via :meth:`~repro.config.BudgetedConfig.with_overrides`.

    Parameters
    ----------
    max_elements:
        Cap on the model's domain size — this *defines* the bounded
        search space ("models with at most N elements"), it is not an
        ``on_budget`` event.
    max_nodes:
        Node budget.  Hitting it ends the run with
        ``stats.exhausted=False``; under ``OnBudget.RAISE`` it raises
        :class:`~repro.errors.ModelSearchExhausted` instead.
    max_facts:
        Per-state saturation budget.  A state whose datalog fixpoint
        exceeds it is pruned (counted in ``stats.saturation_pruned``)
        and the run loses its exhaustiveness claim.
    heuristic:
        Frontier ordering (:class:`SearchHeuristic`; strings accepted).
    """

    max_elements: int = 10
    max_nodes: int = 50_000
    max_facts: "Optional[int]" = 100_000
    heuristic: SearchHeuristic = SearchHeuristic.DFS
    on_budget: OnBudget = OnBudget.RETURN

    def __post_init__(self) -> None:
        super().__post_init__()
        self.heuristic = SearchHeuristic.coerce(self.heuristic)


@dataclass
class SearchStats:
    """Diagnostics of a search run.

    Attributes
    ----------
    heuristic:
        The frontier ordering used.
    nodes:
        States expanded.
    pruned_by_query:
        Branches cut because the forbidden query became true.
    duplicates:
        States skipped as already seen, including states identical
        only up to renaming invented nulls (canonical dedup).
    exhausted:
        ``True`` iff the whole bounded space was explored (makes a
        negative answer a *proof* for the given bounds).  Any pruned
        saturation or a node-budget stop clears it.
    states_created:
        Branch states pushed onto the frontier (copy-on-write: a
        created state holds only its delta until materialised).
    states_materialised:
        States actually built into full structures (created minus
        materialised = work the laziness and pre-dedup saved).
    canonical_keys:
        Canonical-form computations performed (a state needs one only
        when its invariant matches an earlier state's).
    saturation_new_facts:
        Datalog facts derived across all incremental saturations.
    saturation_rounds:
        Semi-naive rounds across all incremental saturations.
    saturation_pruned:
        States discarded because their saturation exceeded
        ``max_facts``.
    frontier_peak:
        Largest frontier size reached.
    wall_ms / materialise_ms / saturate_ms / canonical_ms / query_ms /
    expand_ms:
        Phase wall times (the only nondeterministic fields; see
        :data:`SEARCH_TIMING_FIELDS`).  ``canonical_ms`` covers the
        whole dedup check: invariants and canonical keys.
    """

    nodes: int = 0
    pruned_by_query: int = 0
    duplicates: int = 0
    exhausted: bool = True
    heuristic: str = "dfs"
    states_created: int = 0
    states_materialised: int = 0
    canonical_keys: int = 0
    saturation_new_facts: int = 0
    saturation_rounds: int = 0
    saturation_pruned: int = 0
    frontier_peak: int = 0
    wall_ms: float = 0.0
    materialise_ms: float = 0.0
    saturate_ms: float = 0.0
    canonical_ms: float = 0.0
    query_ms: float = 0.0
    expand_ms: float = 0.0

    def as_dict(self, timings: bool = True) -> Dict[str, Any]:
        """A JSON-ready dict; ``timings=False`` strips every wall time."""
        payload: Dict[str, Any] = {
            "heuristic": self.heuristic,
            "nodes": self.nodes,
            "pruned_by_query": self.pruned_by_query,
            "duplicates": self.duplicates,
            "exhausted": self.exhausted,
            "states_created": self.states_created,
            "states_materialised": self.states_materialised,
            "canonical_keys": self.canonical_keys,
            "saturation_new_facts": self.saturation_new_facts,
            "saturation_rounds": self.saturation_rounds,
            "saturation_pruned": self.saturation_pruned,
            "frontier_peak": self.frontier_peak,
        }
        if timings:
            payload["wall_ms"] = round(self.wall_ms, 3)
            payload["materialise_ms"] = round(self.materialise_ms, 3)
            payload["saturate_ms"] = round(self.saturate_ms, 3)
            payload["canonical_ms"] = round(self.canonical_ms, 3)
            payload["query_ms"] = round(self.query_ms, 3)
            payload["expand_ms"] = round(self.expand_ms, 3)
        return payload


@dataclass
class SearchResult:
    """Outcome of :func:`search_finite_model`.

    Attributes
    ----------
    model:
        A finite model (``None`` if none found within bounds).
    stats:
        Search diagnostics.
    stopped_reason:
        Why the run ended (:class:`~repro.runtime.StopReason`):
        ``fixpoint`` when the search settled (model found, or the
        bounded space fully explored), ``budget`` on the node or
        saturation budget, ``deadline``/``cancelled``/``memory`` when a
        runtime guard tripped.
    """

    model: "Optional[Structure]"
    stats: SearchStats
    stopped_reason: StopReason = StopReason.FIXPOINT

    @property
    def found(self) -> bool:
        return self.model is not None


# ----------------------------------------------------------------------
# Copy-on-write search states
# ----------------------------------------------------------------------
class _State:
    """A search state: parent pointer + local delta, materialised lazily.

    Until expanded, a state costs only its delta (the substituted head
    facts of one trigger).  ``structure`` and ``facts`` are filled in
    at expansion time, after incremental saturation.
    """

    __slots__ = ("parent", "delta", "structure", "facts", "domain_size")

    def __init__(
        self,
        parent: "Optional[_State]",
        delta: Tuple[Atom, ...],
        structure: "Optional[Structure]" = None,
        domain_size: int = 0,
    ):
        self.parent = parent
        self.delta = delta
        self.structure = structure
        self.facts: "Optional[FrozenSet[Atom]]" = (
            structure.facts() if structure is not None else None
        )
        self.domain_size = domain_size


def _head_delta(
    structure: Structure,
    rule: Rule,
    binding: Dict[Variable, Element],
    witnesses: Dict[Variable, Element],
) -> Tuple[Atom, ...]:
    """The facts this branch adds (substituted heads not already present)."""
    extended = dict(binding)
    extended.update(witnesses)
    return tuple(
        fact
        for fact in (head.substitute(extended) for head in rule.head)  # type: ignore[arg-type]
        if not structure.has_fact(fact)
    )


# ----------------------------------------------------------------------
# Dedup up to renaming invented nulls
# ----------------------------------------------------------------------
def _invariant(facts: FrozenSet[Atom], domain_size: int) -> Tuple[Any, ...]:
    """A cheap invariant of a state under bijections fixing the constants.

    The domain size, the fact count, and the sorted multiset of each
    non-constant element's sorted (predicate, position) occurrences, all
    read in one pass over the facts.  It never reads a null's name, so
    states isomorphic over the constants get equal invariants; the
    converse may fail, which :class:`_SeenStates` settles with keys.
    """
    occurrences: Dict[Element, List[Tuple[str, int]]] = {}
    for fact in facts:
        pred = fact.pred
        for position, arg in enumerate(fact.args):
            if not isinstance(arg, Constant):
                occurrences.setdefault(arg, []).append((pred, position))
    profile = sorted(tuple(sorted(places)) for places in occurrences.values())
    return (domain_size, len(facts), tuple(profile))


class _SeenStates:
    """The expanded states of one search, up to renaming invented nulls.

    States are bucketed by :func:`_invariant`.  A state alone in its
    bucket is new and costs no canonical key.  When a second state
    arrives, both get keys, and from then on the bucket holds the key of
    every state in it; a state is a duplicate iff its key is there.
    Equal keys mean isomorphic over the constants, and isomorphic states
    share a bucket, so this decides exactly what comparing every state's
    key would.

    The lone state of a bucket is kept as its saturated fact set.  Its
    key is computed on a structure rebuilt from those facts and the
    root's domain: every state's domain is the root's plus the
    arguments of its facts.
    """

    def __init__(self, root_domain: FrozenSet[Element], stats: SearchStats):
        self.root_domain = root_domain
        self.stats = stats
        #: Constant-only states, keyed by their fact sets.
        self.plain: Set[FrozenSet[Atom]] = set()
        #: invariant -> the lone state's fact set, or every state's key
        self.buckets: Dict[Any, "FrozenSet[Atom] | Set[str]"] = {}

    def _key(self, structure: Structure) -> str:
        self.stats.canonical_keys += 1
        return canonical_key(structure)

    def add(self, structure: Structure, facts: FrozenSet[Atom]) -> bool:
        """Record a state; ``False`` when an isomorphic one was recorded."""
        if not structure.nonconstant_elements():
            # The identity is the only isomorphism fixing every
            # constant, so the fact set already is the canonical form.
            if facts in self.plain:
                return False
            self.plain.add(facts)
            return True
        invariant = _invariant(facts, structure.domain_size)
        bucket = self.buckets.get(invariant)
        if bucket is None:
            self.buckets[invariant] = facts
            return True
        if isinstance(bucket, frozenset):
            bucket = {self._key(Structure(bucket, self.root_domain))}
            self.buckets[invariant] = bucket
        key = self._key(structure)
        if key in bucket:
            return False
        bucket.add(key)
        return True


# ----------------------------------------------------------------------
# The search
# ----------------------------------------------------------------------
def _search(
    database: Structure,
    theory: Theory,
    forbidden: "Optional[ConjunctiveQuery | UnionOfConjunctiveQueries]",
    config: SearchConfig,
) -> SearchResult:
    started = time.perf_counter()
    stats = SearchStats(heuristic=config.heuristic.value)
    guard = RuntimeGuard.from_config(config, "fc-search")

    def finish(
        model: "Optional[Structure]",
        reason: StopReason = StopReason.FIXPOINT,
    ) -> SearchResult:
        stats.wall_ms = (time.perf_counter() - started) * 1000.0
        if stats.saturation_pruned:
            stats.exhausted = False
        return SearchResult(model=model, stats=stats, stopped_reason=reason)

    nulls = NullFactory.above(database.domain())
    datalog_rules = [rule for rule in theory.rules if rule.is_datalog]
    existential_rules = [rule for rule in theory.rules if not rule.is_datalog]

    try:
        root_structure = datalog_saturate(
            database, theory, max_facts=config.max_facts, on_budget=OnBudget.RAISE
        ).structure
    except ChaseBudgetExceeded:
        stats.saturation_pruned += 1
        stats.exhausted = False
        return finish(None, StopReason.BUDGET)

    root = _State(None, (), root_structure, root_structure.domain_size)

    best_first = config.heuristic is not SearchHeuristic.DFS
    stack: List[_State] = []
    heap: List[Tuple[int, int, _State]] = []
    pushes = itertools.count()

    def push(state: _State, score: int) -> None:
        stats.states_created += 1
        if best_first:
            heapq.heappush(heap, (score, next(pushes), state))
        else:
            stack.append(state)
        stats.frontier_peak = max(stats.frontier_peak, len(stack) + len(heap))

    def pop() -> _State:
        if best_first:
            return heapq.heappop(heap)[2]
        return stack.pop()

    push(root, 0)
    stats.states_created = 0  # the root is given, not branched
    seen = _SeenStates(root_structure.domain(), stats)
    seen_raw: Set[FrozenSet[Atom]] = set()

    while stack or heap:
        reason = guard.check()
        if reason is not None:
            stats.exhausted = False
            if config.should_raise:
                stats.wall_ms = (time.perf_counter() - started) * 1000.0
                raise guard.exception(reason, stats=stats)
            return finish(None, reason)
        if stats.nodes >= config.max_nodes:
            stats.exhausted = False
            if config.should_raise:
                stats.wall_ms = (time.perf_counter() - started) * 1000.0
                raise ModelSearchExhausted(
                    f"node budget exhausted ({config.max_nodes} nodes) "
                    "before a verdict",
                    stats=stats,
                )
            return finish(None, StopReason.BUDGET)
        state = pop()

        if state.structure is None:
            # Cheap raw pre-check: saturation is deterministic, so equal
            # pre-saturation fact sets yield equal states — skip before
            # paying for materialisation.
            raw = state.parent.facts.union(state.delta)  # type: ignore[union-attr]
            if raw in seen_raw:
                stats.duplicates += 1
                continue
            seen_raw.add(raw)

            clock = time.perf_counter()
            working = state.parent.structure.copy()  # type: ignore[union-attr]
            for fact in state.delta:
                working.add_fact(fact)
            stats.states_materialised += 1
            stats.materialise_ms += (time.perf_counter() - clock) * 1000.0

            clock = time.perf_counter()
            try:
                added, rounds = incremental_datalog_saturate(
                    working,
                    theory,
                    state.delta,
                    max_facts=config.max_facts,
                    rules=datalog_rules,
                )
            except ChaseBudgetExceeded:
                stats.saturation_pruned += 1
                stats.saturate_ms += (time.perf_counter() - clock) * 1000.0
                continue
            stats.saturation_new_facts += added
            stats.saturation_rounds += rounds
            stats.saturate_ms += (time.perf_counter() - clock) * 1000.0

            state.structure = working
            state.facts = working.facts()
            state.domain_size = working.domain_size
        else:
            seen_raw.add(state.facts)

        structure = state.structure
        clock = time.perf_counter()
        new = seen.add(structure, state.facts)
        stats.canonical_ms += (time.perf_counter() - clock) * 1000.0
        if not new:
            stats.duplicates += 1
            continue
        stats.nodes += 1

        if forbidden is not None:
            clock = time.perf_counter()
            forbidden_holds = satisfies(structure, forbidden)
            stats.query_ms += (time.perf_counter() - clock) * 1000.0
            if forbidden_holds:
                stats.pruned_by_query += 1
                continue

        clock = time.perf_counter()
        trigger = next(unsatisfied_triggers(structure, existential_rules), None)
        if trigger is None:
            stats.expand_ms += (time.perf_counter() - clock) * 1000.0
            return finish(structure)

        rule, binding = trigger
        existentials = sorted(rule.existential_variables())
        domain = sorted(structure.domain(), key=str)

        score = 0
        if config.heuristic is SearchHeuristic.FEWEST_VIOLATIONS:
            violated = unsatisfied_triggers(structure, existential_rules)
            score = sum(1 for _ in itertools.islice(violated, 64))

        pushed_deltas: Set[FrozenSet[Atom]] = set()

        def branch(witnesses: Dict[Variable, Element], child_domain: int) -> None:
            delta = _head_delta(structure, rule, binding, witnesses)
            if not delta:
                return
            key = frozenset(delta)
            if key in pushed_deltas:
                return
            pushed_deltas.add(key)
            child = _State(state, delta, domain_size=child_domain)
            child_score = score
            if config.heuristic is SearchHeuristic.SMALLEST_DOMAIN:
                child_score = child_domain
            push(child, child_score)

        # Fresh pushed first, reuse combinations after: the LIFO stack
        # then explores reuse first.
        if state.domain_size < config.max_elements:
            fresh = {var: nulls.fresh() for var in existentials}
            branch(fresh, state.domain_size + len(existentials))
        for combination in itertools.product(domain, repeat=len(existentials)):
            branch(dict(zip(existentials, combination)), state.domain_size)
        stats.expand_ms += (time.perf_counter() - clock) * 1000.0

    return finish(None)


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def search_finite_model(
    database: Structure,
    theory: Theory,
    forbidden: "Optional[ConjunctiveQuery | UnionOfConjunctiveQueries]" = None,
    max_elements: int = 10,
    max_nodes: int = 50_000,
    config: "Optional[SearchConfig]" = None,
    **overrides,
) -> SearchResult:
    """Search for a finite ``M ⊨ database, theory`` (avoiding *forbidden*).

    Existential triggers branch over every reuse of an existing element
    (per existential variable) and, while the domain is below
    ``max_elements``, one fresh element.  The default DFS frontier
    prefers reuse, so small models surface first.

    When ``forbidden`` is given, any state satisfying it is pruned —
    sound because states only grow along a branch and CQs are monotone.

    Pass a :class:`SearchConfig` for the full set of knobs (an explicit
    *config* wins over the ``max_elements`` / ``max_nodes`` shorthands);
    extra keyword overrides (``wall_ms=...``, ``heuristic=...``) are
    applied on top via
    :meth:`~repro.config.BudgetedConfig.with_overrides`.
    """
    if config is None:
        config = SearchConfig(max_elements=max_elements, max_nodes=max_nodes)
    config = config.with_overrides(**overrides)
    return _search(database, theory, forbidden, config)


def every_finite_model_satisfies(
    database: Structure,
    theory: Theory,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
    max_elements: int = 8,
    max_nodes: int = 50_000,
    config: "Optional[SearchConfig]" = None,
) -> Tuple[bool, SearchStats]:
    """Check the Section 5.5 phenomenon: within the bounds, does *every*
    finite model of (database, theory) satisfy *query*?

    Returns ``(verdict, stats)``.  A ``True`` verdict with
    ``stats.exhausted`` is a proof for models with at most
    *max_elements* elements; without exhaustion it is only "none
    found".  A ``False`` verdict is always a hard counterexample (a
    model avoiding the query was found).
    """
    outcome = search_finite_model(
        database,
        theory,
        forbidden=query,
        max_elements=max_elements,
        max_nodes=max_nodes,
        config=config,
    )
    return (not outcome.found), outcome.stats


def find_counter_model(
    database: Structure,
    theory: Theory,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
    max_elements: int = 10,
    max_nodes: int = 50_000,
    config: "Optional[SearchConfig]" = None,
) -> Structure:
    """A finite model of (database, theory) avoiding *query*.

    Raises
    ------
    ModelSearchExhausted
        When the bounded search finds none (see
        :func:`every_finite_model_satisfies` for what that means).
    """
    outcome = search_finite_model(
        database,
        theory,
        forbidden=query,
        max_elements=max_elements,
        max_nodes=max_nodes,
        config=config,
    )
    if outcome.model is None:
        raise ModelSearchExhausted(
            f"no finite model avoiding the query within bounds "
            f"(exhausted={outcome.stats.exhausted})",
            stats=outcome.stats,
        )
    return outcome.model
