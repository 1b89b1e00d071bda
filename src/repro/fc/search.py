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
* **incremental saturation** — a materialised state re-saturates from
  its delta via the semi-naive machinery
  (:func:`repro.chase.seminaive.incremental_datalog_saturate`) instead
  of re-running the fixpoint from scratch; a state whose saturation
  exceeds ``max_facts`` is treated as a pruned branch;
* **canonical dedup** — states are hashed by a null-renaming-invariant
  key (:func:`repro.lf.canonical.canonical_key`), collapsing branches
  that differ only in invented null names (sound: rules and queries
  never mention nulls, so isomorphic-over-constants states have
  identical futures);
* **compiled triggers** — violated-existential detection runs on
  per-rule precompiled join plans (:mod:`repro.lf.plan`), reused across
  every node of the run;
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
from typing import Any, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..chase.seminaive import incremental_datalog_saturate, seminaive_saturate
from ..config import BudgetedConfig, OnBudget, coerce_enum
from ..errors import ChaseBudgetExceeded, ModelSearchExhausted
from ..runtime.guard import RuntimeGuard, StopReason
from ..lf.atoms import Atom
from ..lf.canonical import canonical_key
from ..lf.homomorphism import find_homomorphism, homomorphisms, satisfies
from ..lf.plan import QueryPlan, plan_for
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Element, NullFactory, Variable

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
    """Budgets and knobs of :func:`search_finite_model`.

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
    canonical_dedup:
        Hash states by the null-renaming-invariant
        :func:`~repro.lf.canonical.canonical_key` (default) instead of
        the raw fact set — the raw mode is the ablation switch.
    """

    max_elements: int = 10
    max_nodes: int = 50_000
    max_facts: "Optional[int]" = 100_000
    heuristic: SearchHeuristic = SearchHeuristic.DFS
    canonical_dedup: bool = True
    on_budget: OnBudget = OnBudget.RETURN

    def __post_init__(self) -> None:
        super().__post_init__()
        self.heuristic = SearchHeuristic.coerce(self.heuristic)


@dataclass
class SearchStats:
    """Diagnostics of a search run.

    Attributes
    ----------
    engine:
        Always ``"delta"`` (the incremental engine).
    heuristic:
        The frontier ordering used.
    nodes:
        States expanded.
    pruned_by_query:
        Branches cut because the forbidden query became true.
    duplicates:
        States skipped as already seen — under canonical dedup this
        includes states identical only up to renaming invented nulls.
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
        Canonical-form computations performed.
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
        :data:`SEARCH_TIMING_FIELDS`).
    """

    nodes: int = 0
    pruned_by_query: int = 0
    duplicates: int = 0
    exhausted: bool = True
    engine: str = "delta"
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
            "engine": self.engine,
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

    def render(self) -> str:
        """Deterministically ordered text lines for the CLI's ``--stats``."""
        lines = [
            f"# search: engine={self.engine} heuristic={self.heuristic} "
            f"nodes={self.nodes} duplicates={self.duplicates} "
            f"pruned_by_query={self.pruned_by_query} "
            f"exhausted={self.exhausted}",
            f"# states: created={self.states_created} "
            f"materialised={self.states_materialised} "
            f"canonical_keys={self.canonical_keys} "
            f"frontier_peak={self.frontier_peak}",
            f"# saturation: facts+={self.saturation_new_facts} "
            f"rounds={self.saturation_rounds} pruned={self.saturation_pruned}",
            f"# wall: total={self.wall_ms:.2f}ms "
            f"materialise={self.materialise_ms:.2f}ms "
            f"saturate={self.saturate_ms:.2f}ms "
            f"canonical={self.canonical_ms:.2f}ms "
            f"query={self.query_ms:.2f}ms expand={self.expand_ms:.2f}ms",
        ]
        return "\n".join(lines)


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
# Compiled trigger detection (shared plans across every node of a run)
# ----------------------------------------------------------------------
class _CompiledRule:
    """Precompiled plans for one existential rule.

    The body plan enumerates the rule's triggers; the head plan, with
    the frontier variables prebound, answers "does a witness exist?".
    Rules whose body or head contains equality atoms fall back to the
    generic matcher (the planner rejects equalities by design).
    """

    __slots__ = ("rule", "frontier", "body_plan", "head_plan")

    def __init__(self, rule: Rule, structure: Structure):
        self.rule = rule
        self.frontier = frozenset(rule.head_variables() - rule.existential_variables())
        self.body_plan: "Optional[QueryPlan]" = None
        self.head_plan: "Optional[QueryPlan]" = None
        if not any(a.is_equality for a in rule.body):
            self.body_plan = plan_for(tuple(rule.body), frozenset(), structure)
        if not any(a.is_equality for a in rule.head):
            self.head_plan = plan_for(tuple(rule.head), self.frontier, structure)

    def triggers(self, structure: Structure) -> "Iterator[Dict[Variable, Element]]":
        if self.body_plan is None:
            return homomorphisms(self.rule.body, structure)
        return self.body_plan.bindings(structure)

    def head_satisfied(
        self, structure: Structure, binding: Dict[Variable, Element]
    ) -> bool:
        frontier_binding = {var: binding[var] for var in self.frontier}
        if self.head_plan is None:
            return (
                find_homomorphism(self.rule.head, structure, frontier_binding)
                is not None
            )
        return next(self.head_plan.bindings(structure, frontier_binding), None) is not None


class _TriggerFinder:
    """All existential rules of a theory, compiled once per run."""

    def __init__(self, theory: Theory, structure: Structure):
        self.compiled = [
            _CompiledRule(rule, structure)
            for rule in theory.rules
            if not rule.is_datalog
        ]

    def first_violation(
        self, structure: Structure
    ) -> "Optional[Tuple[Rule, Dict[Variable, Element]]]":
        for entry in self.compiled:
            for binding in entry.triggers(structure):
                if not entry.head_satisfied(structure, binding):
                    return entry.rule, binding
        return None

    def count_violations(self, structure: Structure, cap: int = 64) -> int:
        found = 0
        for entry in self.compiled:
            for binding in entry.triggers(structure):
                if not entry.head_satisfied(structure, binding):
                    found += 1
                    if found >= cap:
                        return found
        return found


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
# The delta engine
# ----------------------------------------------------------------------
def _delta_search(
    database: Structure,
    theory: Theory,
    forbidden: "Optional[ConjunctiveQuery | UnionOfConjunctiveQueries]",
    config: SearchConfig,
) -> SearchResult:
    started = time.perf_counter()
    stats = SearchStats(engine="delta", heuristic=config.heuristic.value)
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

    try:
        root_structure = seminaive_saturate(
            database, theory, max_facts=config.max_facts
        )
    except ChaseBudgetExceeded:
        stats.saturation_pruned += 1
        stats.exhausted = False
        return finish(None, StopReason.BUDGET)

    finder = _TriggerFinder(theory, root_structure)
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
    seen: Set[Any] = set()
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
        if config.canonical_dedup and structure.nonconstant_elements():
            # Constant-only states skip canonicalisation: the identity
            # is the only isomorphism fixing every constant, so the raw
            # fact set already is the canonical form.
            marker: Any = canonical_key(structure)
            stats.canonical_keys += 1
        else:
            marker = state.facts
        stats.canonical_ms += (time.perf_counter() - clock) * 1000.0
        if marker in seen:
            stats.duplicates += 1
            continue
        seen.add(marker)
        stats.nodes += 1

        if forbidden is not None:
            clock = time.perf_counter()
            forbidden_holds = satisfies(structure, forbidden)
            stats.query_ms += (time.perf_counter() - clock) * 1000.0
            if forbidden_holds:
                stats.pruned_by_query += 1
                continue

        clock = time.perf_counter()
        trigger = finder.first_violation(structure)
        if trigger is None:
            stats.expand_ms += (time.perf_counter() - clock) * 1000.0
            return finish(structure)

        rule, binding = trigger
        existentials = sorted(rule.existential_variables())
        domain = sorted(structure.domain(), key=str)

        score = 0
        if config.heuristic is SearchHeuristic.FEWEST_VIOLATIONS:
            score = finder.count_violations(structure)

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
    return _delta_search(database, theory, forbidden, config)


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
