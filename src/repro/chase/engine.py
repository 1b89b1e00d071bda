"""The chase engine.

Implements the paper's chase (Section 1.1) faithfully:

* **non-oblivious** (a.k.a. restricted): an existential TGD fires on a
  body match only if no witness already exists — "new elements are only
  created if needed";
* **parallel rounds**: ``Chase^{i+1}(D,T) = Chase^1(Chase^i(D,T), T)``,
  where one application of ``Chase^1`` fires *all* triggers that are
  unsatisfied at the start of the round simultaneously;
* **one witness per demanded head atom**: within a round, triggers that
  demand the same head atom (same TGP, same frontier value) share a
  single fresh null.  This is what makes Lemma 3(iv) true — "for any
  fixed a ∈ S and TGP R at most one b can exist with S ⊨ R(a, b)".

Two evaluation strategies compute the *same* rounds (property-tested
fact-for-fact equal, nulls included):

* ``"delta"`` (default) — semi-naive trigger enumeration generalised
  from :mod:`repro.chase.seminaive` to existential TGDs.  A rule body
  ``B_1 … B_k`` is evaluated as the union of the k plans "``B_i`` from
  the previous round's delta, the rest from the full indexed
  structure".  Sound because visibility only grows: a body match whose
  facts all predate the last round was enumerated in an earlier round,
  and its head has been satisfied ever since (it either fired or was
  suppressed) — so only delta-touching matches can still demand
  anything.  Cost per round is proportional to the *new* work, where
  the naive strategy re-enumerates every match of every rule each
  round (quadratic in chase depth on growing instances).

* ``"naive"`` — the literal ``Chase^1`` iteration, kept for
  faithfulness ablations and forced automatically for oblivious runs
  (an oblivious trigger re-fires every round, so old matches can never
  be skipped).

Neither strategy copies the structure: a round evaluates against the
working structure and buffers its insertions until all triggers of the
round are enumerated, which *is* the paper's "all triggers evaluated at
the start of the round" semantics.  Witnesses are assigned in a
canonical order at the end of the round, making null identities
independent of enumeration order (and hence of the strategy).

An *oblivious* mode (every trigger creates a witness, used only for
contrast experiments) and a *new-element embargo* mode (used by the
Theorem-2 pipeline to realise Lemma 5's claim) are provided as flags.
Every run records a :class:`~repro.chase.stats.ChaseStats` on its
result — per-round wall time, trigger/delta counters, and index-probe
counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..config import BudgetedConfig, OnBudget, coerce_enum
from ..errors import ChaseBudgetExceeded, NewElementEmbargoViolation
from ..runtime.guard import NULL_GUARD, GuardTripped, RuntimeGuard, StopReason
from ..lf.atoms import Atom
from ..lf.homomorphism import find_homomorphism, homomorphisms
from ..lf.plan import HOM_STATS
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Element, Null, NullFactory, Variable
from .provenance import DEFAULT_MAX_SUPPORTS, SupportStore
from .results import ChaseResult
from .seminaive import _delta_bindings
from .stats import ChaseStats, RoundStats


class ChaseStrategy(str, Enum):
    """How a round's triggers are enumerated (semantics are identical)."""

    DELTA = "delta"
    NAIVE = "naive"

    @classmethod
    def coerce(cls, value: "ChaseStrategy | str") -> "ChaseStrategy":
        """Accept the enum or its string value."""
        return coerce_enum(value, cls, "strategy")


@dataclass
class ChaseConfig(BudgetedConfig):
    """Tuning knobs for a chase run.

    Attributes
    ----------
    max_depth:
        Maximum number of parallel rounds (``None`` = unbounded).
    max_facts:
        Stop when the structure exceeds this many facts.
    max_elements:
        Stop when the domain exceeds this many elements.
    oblivious:
        Fire every trigger regardless of existing witnesses.  Forces
        the naive strategy (old triggers re-fire every round, so delta
        enumeration would change the semantics).
    allow_new_elements:
        When ``False``, a TGD trigger with no witness raises
        :class:`~repro.errors.NewElementEmbargoViolation` instead of
        inventing a null (Lemma 5 saturation mode).
    on_budget:
        :attr:`~repro.config.OnBudget.RETURN` (default) stops quietly
        with ``saturated=False``; :attr:`~repro.config.OnBudget.RAISE`
        raises :class:`~repro.errors.ChaseBudgetExceeded`.  The strings
        ``"return"``/``"raise"`` are accepted too.
    trace:
        Record, for every derived fact, the rules and premise facts
        that produced it — *all* distinct derivations up to
        :attr:`max_supports` per fact, not just the first (see
        :class:`~repro.chase.provenance.SupportStore`).  Off by
        default — it costs memory proportional to the run.
    max_supports:
        Bound on distinct supports recorded per fact when tracing
        (default :data:`~repro.chase.provenance.DEFAULT_MAX_SUPPORTS`).
        The incremental view (:mod:`repro.chase.view`) raises or lowers
        it to trade rederive coverage against trace memory.
    strategy:
        ``"delta"`` (default) or ``"naive"`` — see the module docstring.
        Both produce identical results; naive exists for ablations.
    """

    max_depth: "Optional[int]" = None
    max_facts: "Optional[int]" = 200_000
    max_elements: "Optional[int]" = 50_000
    oblivious: bool = False
    allow_new_elements: bool = True
    on_budget: OnBudget = OnBudget.RETURN
    trace: bool = False
    strategy: ChaseStrategy = ChaseStrategy.DELTA
    max_supports: int = DEFAULT_MAX_SUPPORTS

    def __post_init__(self) -> None:
        super().__post_init__()
        self.strategy = ChaseStrategy.coerce(self.strategy)
        if self.max_depth is None and self.max_facts is None and self.max_elements is None:
            raise ValueError("at least one budget must be set (the chase may diverge)")
        if self.max_supports < 1:
            raise ValueError(f"max_supports must be >= 1, got {self.max_supports}")

    @property
    def effective_strategy(self) -> ChaseStrategy:
        """The strategy actually run: oblivious mode forces naive."""
        return ChaseStrategy.NAIVE if self.oblivious else self.strategy


def _head_satisfied(structure: Structure, rule: Rule, binding: Dict[Variable, Element]) -> bool:
    """Whether the (possibly existential) head already holds under *binding*.

    The frontier variables are bound; the existential ones are left free
    and searched for — the paper's "there is no y ∈ D satisfying
    D ⊨ Q(y, ȳ)" condition, generalised to multi-head rules.
    """
    frontier_binding = {
        var: value for var, value in binding.items() if var in rule.head_variables()
    }
    return find_homomorphism(rule.head, structure, frontier_binding) is not None


def _witness_key(rule: Rule, rule_index: int, binding: Dict[Variable, Element]) -> tuple:
    """Round-local key under which triggers share a witness.

    For (♠5)-shaped TGDs — single head ``R(y, z)`` with ``z`` the
    witness — the key is ``(R, value-of-y)``: any two rules demanding
    the same head atom share the null, which keeps the skeleton's
    out-degree per TGP at one (Lemma 3).  Other shapes fall back to a
    per-rule key on the frontier values.
    """
    if rule.is_single_head:
        head = rule.head_atom
        existentials = rule.existential_variables()
        bound_args = tuple(
            binding[arg] if isinstance(arg, Variable) and arg in binding else None
            for arg in head.args
        )
        if head.arity == 2 and isinstance(head.args[1], Variable) and head.args[1] in existentials:
            if bound_args[0] is not None:
                return ("atom", head.pred, bound_args[0])
    frontier_values = tuple(
        (var.name, binding[var]) for var in sorted(rule.frontier())
    )
    return ("rule", rule_index, frontier_values)


def _oblivious_key(rule_index: int, binding: Dict[Variable, Element], serial: int) -> tuple:
    """Witness key for an oblivious trigger: never shared.

    The *serial* is an explicit per-round trigger counter, so every
    oblivious body match gets its own witnesses (the paper's
    ``c_{t_i, x̄}`` with the trigger identity spelled out; previously
    the uniqueness leaked in from the enclosing scope's invented-null
    count, which depended on evaluation order).
    """
    frontier = tuple(sorted((var.name, value) for var, value in binding.items()))
    return ("oblivious", rule_index, frontier, serial)


def _canonical_key_order(key: tuple) -> "Tuple[str, ...]":
    """A total order on witness keys independent of discovery order.

    Keys mix strings, ints, and domain elements, so they are compared
    through their string forms (element ``str`` is injective per kind:
    constants print their name, nulls ``_:ident``)."""
    return tuple(str(part) for part in key)


def _head_delta_bindings(
    rule: Rule,
    structure: Structure,
    lost_by_pred: "Dict[str, List[Atom]]",
) -> "Iterator[Dict[Variable, Element]]":
    """Goal-directed body matches: triggers whose head could hit a lost fact.

    For each head atom and each lost fact of its predicate, unify the
    head's *universal* positions against the fact (existential
    positions are unconstrained — any witness of the same frontier is
    the same trigger) and enumerate the body under the resulting
    partial binding.  This recovers exactly the triggers a deletion can
    have re-violated: datalog matches whose head fact died, and
    existential matches whose suppressing witness died.  Triggers
    enabled by facts this pass *re-produces* are caught afterwards by
    the ordinary delta resume, so one pass suffices.
    """
    existentials = rule.existential_variables()
    seen: Set[tuple] = set()
    for head in rule.head:
        for fact in lost_by_pred.get(head.pred, ()):
            if fact.arity != head.arity:
                continue
            binding: Dict[Variable, Element] = {}
            consistent = True
            for arg, value in zip(head.args, fact.args):
                if isinstance(arg, Variable):
                    if arg in existentials:
                        continue
                    if binding.setdefault(arg, value) != value:
                        consistent = False
                        break
                elif arg != value:
                    consistent = False
                    break
            if not consistent:
                continue
            for full in homomorphisms(rule.body, structure, binding):
                fingerprint = tuple(
                    sorted((var.name, val) for var, val in full.items())
                )
                if fingerprint in seen:
                    continue
                seen.add(fingerprint)
                yield full


#: A trigger demanding a witness: (rule index, rule, body binding).
_Demand = Tuple[int, Rule, Dict[Variable, Element]]

#: Within one trigger batch (one rule's bindings), how many triggers
#: pass between two guard checkpoints — bounds how long a single
#: enormous rule body can overshoot a deadline.
_TRIGGER_CHECK_INTERVAL = 1024


def _evaluate_round(
    structure: Structure,
    theory: Theory,
    nulls: NullFactory,
    level: int,
    config: ChaseConfig,
    provenance: "Optional[SupportStore]",
    delta: "Optional[Sequence[Atom]]",
    stats: RoundStats,
    guard: RuntimeGuard = NULL_GUARD,
    rule_indices: "Optional[Sequence[int]]" = None,
    head_delta: "Optional[Dict[str, List[Atom]]]" = None,
) -> Tuple[List[Atom], List[Null]]:
    """One parallel round (``Chase^1``) against the round-start state.

    *structure* is not touched until every trigger of the round has
    been enumerated (insertions are buffered), so all triggers see the
    structure "as it was at the start of the round" without a copy.
    With ``delta=None`` every rule body is fully enumerated (naive /
    first round); otherwise only matches touching the delta are.

    Phase 1 enumerates triggers: datalog heads go straight to the
    buffer; existential triggers with unsatisfied heads are collected
    as witness *demands*.  Phase 2 assigns fresh nulls per demand key
    in a canonical key order — making null identities (and hence the
    whole run) independent of enumeration order and strategy.

    The *guard* is checkpointed per trigger batch (each rule's
    enumeration, plus every :data:`_TRIGGER_CHECK_INTERVAL` triggers
    within one batch); a trip raises
    :class:`~repro.runtime.GuardTripped` *before* any buffered fact is
    inserted, so the caller's structure still holds exactly the last
    completed round.

    *rule_indices* restricts enumeration to the given rules of the
    theory (the incremental view's DRed fallback round evaluates only
    rules whose head predicate lost facts).  Indices stay relative to
    the full theory, so provenance records and witness keys are
    identical to a full round's.  *head_delta* switches those rules to
    goal-directed enumeration against the lost facts
    (:func:`_head_delta_bindings`) instead of a full body sweep.
    """
    produced: List[Atom] = []
    produced_set: Set[Atom] = set()
    demands: "Dict[tuple, List[_Demand]]" = {}
    demand_seen: Set[tuple] = set()
    oblivious_serial = 0

    def record(fact: Atom, rule_index: int, rule: Rule, binding) -> None:
        # Multi-support: every derivation event is offered, including
        # re-derivations of facts that already exist — the SupportStore
        # dedupes and bounds them.  Alternative supports are what let
        # the incremental view (repro.chase.view) rederive cheaply
        # after a deletion instead of falling back to a rechase.
        if provenance.at_capacity(fact):
            return  # skip the premise substitution for saturated facts
        premises = tuple(
            a.substitute(binding) for a in rule.body if not a.is_equality
        )
        provenance.record(fact, rule_index, premises)

    rule_items: "List[Tuple[int, Rule]]" = (
        list(enumerate(theory.rules))
        if rule_indices is None
        else [(index, theory.rules[index]) for index in rule_indices]
    )
    for rule_index, rule in rule_items:
        guard.checkpoint()
        if head_delta is not None:
            bindings = _head_delta_bindings(rule, structure, head_delta)
        elif delta is None:
            bindings: "Iterator[Dict[Variable, Element]]" = homomorphisms(
                rule.body, structure
            )
        else:
            bindings = _delta_bindings(rule, structure, delta)
        for binding in bindings:
            stats.triggers_evaluated += 1
            if stats.triggers_evaluated % _TRIGGER_CHECK_INTERVAL == 0:
                guard.checkpoint()
            if rule.is_datalog:
                fired = False
                for head in rule.head:
                    fact = head.substitute(binding)  # type: ignore[arg-type]
                    if fact not in produced_set and not structure.has_fact(fact):
                        produced_set.add(fact)
                        produced.append(fact)
                        fired = True
                    if provenance is not None:
                        record(fact, rule_index, rule, binding)
                if fired:
                    stats.triggers_fired += 1
                continue
            if not config.oblivious and _head_satisfied(structure, rule, binding):
                stats.triggers_suppressed += 1
                continue
            if not config.allow_new_elements:
                raise NewElementEmbargoViolation(
                    f"rule {rule} demands a new witness on {binding} "
                    f"(Lemma 5 embargo)"
                )
            if config.oblivious:
                key = _oblivious_key(rule_index, binding, oblivious_serial)
                oblivious_serial += 1
            else:
                key = _witness_key(rule, rule_index, binding)
            # Delta enumeration can yield the same trigger through
            # several pivots; demand each (key, rule, binding) once.
            fingerprint = (
                key,
                rule_index,
                tuple(sorted((var.name, value) for var, value in binding.items())),
            )
            if fingerprint in demand_seen:
                continue
            demand_seen.add(fingerprint)
            demands.setdefault(key, []).append((rule_index, rule, binding))

    invented: List[Null] = []
    for key in sorted(demands, key=_canonical_key_order):
        entries = demands[key]
        # Rules sharing a key demand the same head atom and carry
        # exactly one existential each ((♠5) shape); per-rule keys have
        # a single rule.  Either way the witness count is uniform.
        owner_index = min(entry[0] for entry in entries)
        witness_count = len(entries[0][1].existential_variables())
        values = [
            nulls.fresh(rule_index=owner_index, level=level)
            for _ in range(witness_count)
        ]
        invented.extend(values)
        for rule_index, rule, binding in entries:
            stats.triggers_fired += 1
            extended = dict(binding)
            extended.update(zip(sorted(rule.existential_variables()), values))
            for head in rule.head:
                fact = head.substitute(extended)  # type: ignore[arg-type]
                if fact not in produced_set and not structure.has_fact(fact):
                    produced_set.add(fact)
                    produced.append(fact)
                if provenance is not None:
                    record(fact, rule_index, rule, binding)

    for fact in produced:
        structure.add_fact(fact)
    stats.facts_added = len(produced)
    stats.nulls_invented = len(invented)
    return produced, invented


def chase_step(
    structure: Structure,
    theory: Theory,
    nulls: NullFactory,
    level: int,
    config: "Optional[ChaseConfig]" = None,
    provenance: "Optional[SupportStore]" = None,
) -> Tuple[List[Atom], List[Null]]:
    """One parallel round (``Chase^1``) applied in place.

    All triggers are evaluated against the structure *as it was at the
    start of the round* (full naive enumeration); the produced facts
    and nulls are returned (and already inserted into *structure*).
    When *provenance* (a :class:`~repro.chase.provenance.SupportStore`)
    is given, every derivation event of the round is recorded in it.

    A passed *config* is used as given; only ``None`` selects the
    single-round default (an earlier version replaced any falsy value).
    """
    if config is None:
        config = ChaseConfig(max_depth=1)
    stats = RoundStats(round=level)
    return _evaluate_round(
        structure, theory, nulls, level, config, provenance, None, stats
    )


def chase(
    database: Structure,
    theory: Theory,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> ChaseResult:
    """Run the chase on a copy of *database* under *theory*.

    Keyword overrides (``max_depth=...``, ``strategy="naive"`` etc.)
    are applied on top of *config* (or the default config) via
    :meth:`~repro.config.BudgetedConfig.with_overrides` — a validated
    ``dataclasses.replace``.  The input structure is never mutated.

    Returns
    -------
    ChaseResult
        With ``saturated=True`` iff a fixpoint was reached within the
        budgets; the result's :attr:`~ChaseResult.fact_level` maps every
        fact to the round that introduced it (database facts at 0), and
        :attr:`~ChaseResult.stats` carries the run's per-round
        instrumentation.

    Raises
    ------
    ChaseBudgetExceeded
        Only when ``config.on_budget == OnBudget.RAISE``.
    NewElementEmbargoViolation
        When ``allow_new_elements=False`` and an existential trigger
        has no witness.
    """
    if config is None:
        config = ChaseConfig()
    config = config.with_overrides(**overrides)

    working = database.copy()
    nulls = NullFactory.above(working.domain())
    fact_level: Dict[Atom, int] = {fact: 0 for fact in working.facts()}
    new_elements: List[Null] = []
    rounds_fired: List[int] = []
    provenance: "Optional[SupportStore]" = (
        SupportStore(config.max_supports) if config.trace else None
    )
    strategy = config.effective_strategy
    stats = ChaseStats(strategy=strategy.value)
    hom_before = HOM_STATS.snapshot()
    guard = RuntimeGuard.from_config(config, "chase")
    depth = 0
    saturated = False
    stopped_reason = StopReason.BUDGET
    # None = full enumeration: always for naive, and for delta's first
    # round (where the whole database is the delta).
    delta: "Optional[List[Atom]]" = None

    def guard_stop(reason: StopReason) -> StopReason:
        """Finalise stats and apply the on_budget policy for *reason*."""
        stats.hom = HOM_STATS.since(hom_before)
        if config.should_raise:
            raise guard.exception(reason, stats=stats)
        return reason

    while True:
        reason = guard.check()
        if reason is not None:
            stopped_reason = guard_stop(reason)
            break
        if config.max_depth is not None and depth >= config.max_depth:
            break
        round_stats = RoundStats(
            round=depth + 1,
            delta_in=len(working) if delta is None else len(delta),
        )
        probes_before = working.index_probes
        started = time.perf_counter()
        try:
            produced, invented = _evaluate_round(
                working, theory, nulls, depth + 1, config, provenance, delta,
                round_stats, guard,
            )
        except GuardTripped as trip:
            # The aborted round inserted nothing (insertions are
            # buffered until enumeration completes): the structure is
            # exactly the last completed round.  Record the partial
            # round's counters so the stop is visible in the stats.
            round_stats.wall_ms = (time.perf_counter() - started) * 1000.0
            round_stats.index_probes = working.index_probes - probes_before
            stats.rounds.append(round_stats)
            stopped_reason = guard_stop(trip.reason)
            break
        round_stats.wall_ms = (time.perf_counter() - started) * 1000.0
        round_stats.index_probes = working.index_probes - probes_before
        stats.rounds.append(round_stats)
        if not produced and not invented:
            saturated = True
            stopped_reason = StopReason.FIXPOINT
            break
        depth += 1
        rounds_fired.append(len(produced))
        new_elements.extend(invented)
        for fact in produced:
            fact_level.setdefault(fact, depth)
        delta = produced if strategy is ChaseStrategy.DELTA else None
        over_facts = config.max_facts is not None and len(working) > config.max_facts
        over_elements = (
            config.max_elements is not None and working.domain_size > config.max_elements
        )
        if over_facts or over_elements:
            if config.should_raise:
                stats.hom = HOM_STATS.since(hom_before)
                raise ChaseBudgetExceeded(
                    f"chase exceeded budget at depth {depth}", stats=stats
                )
            break

    stats.hom = HOM_STATS.since(hom_before)
    return ChaseResult(
        structure=working,
        depth=depth,
        saturated=saturated,
        fact_level=fact_level,
        new_elements=new_elements,
        rounds_fired=rounds_fired,
        provenance=provenance,
        stats=stats,
        stopped_reason=stopped_reason,
    )


def datalog_saturate(
    structure: Structure,
    theory: Theory,
    max_depth: "Optional[int]" = None,
    max_facts: "Optional[int]" = 500_000,
    **overrides,
) -> ChaseResult:
    """Saturate *structure* under the *datalog* rules of the theory only.

    On a finite structure this always terminates (no new elements are
    ever created).  Used as a building block by the Theorem-2 pipeline
    and by model checking.  The returned result carries the run's
    :class:`~repro.chase.stats.ChaseStats` like any chase.  Extra
    keyword overrides (``wall_ms=...``, ``cancel_token=...``) are
    forwarded to the :class:`ChaseConfig`, which is how the pipeline
    propagates its remaining guard budget into inner saturations.
    """
    datalog_only = Theory(theory.datalog_rules(), theory.signature)
    return chase(
        structure,
        datalog_only,
        ChaseConfig(max_depth=max_depth, max_facts=max_facts, max_elements=None),
        **overrides,
    )


def chase_with_embargo(
    structure: Structure,
    theory: Theory,
    max_depth: "Optional[int]" = None,
    max_facts: "Optional[int]" = 500_000,
    **overrides,
) -> ChaseResult:
    """Chase *structure* under the full theory, forbidding new elements.

    This is the executable form of Lemma 5: on the quotient of a
    conservative coloring the full chase needs no new elements, so this
    call saturates; on an insufficient quotient it raises
    :class:`~repro.errors.NewElementEmbargoViolation`.  Extra keyword
    overrides are forwarded to the :class:`ChaseConfig` (guard-budget
    propagation, as in :func:`datalog_saturate`).
    """
    return chase(
        structure,
        theory,
        ChaseConfig(
            max_depth=max_depth,
            max_facts=max_facts,
            max_elements=None,
            allow_new_elements=False,
        ),
        **overrides,
    )


def is_model(structure: Structure, theory: Theory) -> bool:
    """Whether every rule of *theory* is satisfied in *structure*.

    For each rule and each body match, the head must hold (with the
    existential variables witnessed by existing elements).
    """
    for rule in theory.rules:
        for binding in homomorphisms(rule.body, structure):
            if not _head_satisfied(structure, rule, binding):
                return False
    return True


def violations(structure: Structure, theory: Theory, limit: int = 10) -> List[Tuple[Rule, Dict[Variable, Element]]]:
    """Up to *limit* (rule, body-match) pairs whose head fails.

    Useful diagnostics when :func:`is_model` returns ``False``.
    """
    found: List[Tuple[Rule, Dict[Variable, Element]]] = []
    for rule in theory.rules:
        for binding in homomorphisms(rule.body, structure):
            if not _head_satisfied(structure, rule, binding):
                found.append((rule, binding))
                if len(found) >= limit:
                    return found
    return found
