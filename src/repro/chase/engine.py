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

Rounds after the first enumerate triggers semi-naively: a rule body
``B_1 … B_k`` is evaluated as the union of the k plans "``B_i`` from
the previous round's delta, the rest from the full indexed structure"
(:meth:`repro.chase.seminaive._RulePlans.delta_triggers`).  Sound because
visibility only grows: a body match whose facts all predate the last
round was enumerated in an earlier round, and its head has been
satisfied ever since (it either fired or was suppressed) — so only
delta-touching matches can still demand anything.  The rounds are the
literal ``Chase^1`` iteration's, nulls included; ``tests/oracles.py``
keeps that iteration (:func:`chase_step` repeated) as the reference
``tests/property/test_strategy_parity.py`` compares against.

A round does not copy the structure: it evaluates against the working
structure and buffers its insertions until all triggers of the round
are enumerated, which *is* the paper's "all triggers evaluated at the
start of the round" semantics.  Witnesses are assigned in a canonical
order at the end of the round, making null identities independent of
enumeration order.

One loop, :func:`_run_rounds`, runs the rounds of every :func:`chase`,
of every :func:`deepen` (which continues a truncated result by more
rounds instead of chasing the database again) and of every resume of an
incremental view (:meth:`repro.chase.view.ChaseView.update`): it owns
the guard checks, the per-round :class:`~repro.chase.stats.RoundStats`,
the size budgets and the ``on_budget`` stop policy.  A *new-element
embargo* mode (used by the Theorem-2 pipeline to realise Lemma 5's
claim) is provided as a flag.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..config import BudgetedConfig, OnBudget
from ..errors import ChaseBudgetExceeded, NewElementEmbargoViolation
from ..runtime.guard import (
    GUARD_REASONS,
    NULL_GUARD,
    GuardTripped,
    RuntimeGuard,
    StopReason,
)
from ..lf.atoms import Atom
from ..lf.homomorphism import homomorphisms
from ..lf.plan import HOM_STATS
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Element, Null, NullFactory, Variable
from .provenance import SupportStore
from .results import ChaseResult
from .seminaive import rule_plans, unsatisfied_triggers
from .stats import ChaseStats, IncrStats, RoundStats


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
    allow_new_elements:
        When ``False``, a TGD trigger with no witness raises
        :class:`~repro.errors.NewElementEmbargoViolation` instead of
        inventing a null (Lemma 5 saturation mode).  Such a run keeps
        the domain it starts with, so it always ends and may leave all
        three budgets unset; a run that may invent elements needs one.
    on_budget:
        :attr:`~repro.config.OnBudget.RETURN` (default) stops quietly
        with ``saturated=False``; :attr:`~repro.config.OnBudget.RAISE`
        raises :class:`~repro.errors.ChaseBudgetExceeded`.  The strings
        ``"return"``/``"raise"`` are accepted too.
    trace:
        Record, for every derived fact, the rules and premise facts
        that produced it — *all* distinct derivations up to
        :data:`~repro.chase.provenance.DEFAULT_MAX_SUPPORTS` per fact,
        not just the first (see
        :class:`~repro.chase.provenance.SupportStore`).  Off by
        default — it costs memory proportional to the run.
    """

    max_depth: "Optional[int]" = None
    max_facts: "Optional[int]" = 200_000
    max_elements: "Optional[int]" = 50_000
    allow_new_elements: bool = True
    on_budget: OnBudget = OnBudget.RETURN
    trace: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if (
            self.allow_new_elements
            and self.max_depth is None
            and self.max_facts is None
            and self.max_elements is None
        ):
            raise ValueError("at least one budget must be set (the chase may diverge)")


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
    With ``delta=None`` every rule body is fully enumerated (the first
    round, and every round of :func:`chase_step`); otherwise only
    matches touching the delta are.

    Phase 1 enumerates triggers: datalog heads go straight to the
    buffer; existential triggers with unsatisfied heads are collected
    as witness *demands*.  Phase 2 assigns fresh nulls per demand key
    in a canonical key order — making null identities (and hence the
    whole run) independent of enumeration order.

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
        plans = rule_plans(rule)
        if head_delta is not None:
            bindings = _head_delta_bindings(rule, structure, head_delta)
        elif delta is None:
            bindings: "Iterator[Dict[Variable, Element]]" = plans.triggers(structure)
        else:
            bindings = plans.delta_triggers(structure, delta)
        datalog = rule.is_datalog
        for binding in bindings:
            stats.triggers_evaluated += 1
            if stats.triggers_evaluated % _TRIGGER_CHECK_INTERVAL == 0:
                guard.checkpoint()
            if datalog:
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
            # the paper's "there is no y ∈ D satisfying D ⊨ Q(y, ȳ)",
            # generalised to multi-head rules
            if plans.head_holds(structure, binding):
                stats.triggers_suppressed += 1
                continue
            if not config.allow_new_elements:
                raise NewElementEmbargoViolation(
                    f"rule {rule} demands a new witness on {binding} "
                    f"(Lemma 5 embargo)"
                )
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


def _recorded_round(
    structure: Structure,
    theory: Theory,
    nulls: NullFactory,
    level: int,
    config: ChaseConfig,
    provenance: "Optional[SupportStore]",
    delta: "Optional[Sequence[Atom]]",
    guard: RuntimeGuard,
    rounds: List[RoundStats],
    delta_in: int,
    **restrict,
) -> "Tuple[Optional[StopReason], List[Atom], List[Null]]":
    """:func:`_evaluate_round`, timed, its :class:`RoundStats` appended to *rounds*.

    Returns ``(tripped, produced, invented)``.  A guard trip mid-round
    returns its reason with nothing produced: the aborted round
    inserted nothing (insertions are buffered until enumeration
    completes), and its partial counters are still recorded so the
    stop shows in the stats.  *restrict* passes ``rule_indices`` and
    ``head_delta`` through (the incremental view's fallback round).
    """
    round_stats = RoundStats(round=level, delta_in=delta_in)
    probes_before = structure.index_probes
    started = time.perf_counter()
    tripped: "Optional[StopReason]" = None
    produced: List[Atom] = []
    invented: List[Null] = []
    try:
        produced, invented = _evaluate_round(
            structure, theory, nulls, level, config, provenance, delta,
            round_stats, guard, **restrict,
        )
    except GuardTripped as trip:
        tripped = trip.reason
    round_stats.wall_ms = (time.perf_counter() - started) * 1000.0
    round_stats.index_probes = structure.index_probes - probes_before
    rounds.append(round_stats)
    return tripped, produced, invented


def _over_budget(structure: Structure, config: ChaseConfig) -> bool:
    """Whether *structure* exceeds the ``max_facts``/``max_elements`` budgets."""
    over_facts = config.max_facts is not None and len(structure) > config.max_facts
    over_elements = (
        config.max_elements is not None and structure.domain_size > config.max_elements
    )
    return over_facts or over_elements


def _run_rounds(
    structure: Structure,
    theory: Theory,
    nulls: NullFactory,
    config: ChaseConfig,
    provenance: "Optional[SupportStore]",
    guard: RuntimeGuard,
    stats: "ChaseStats | IncrStats",
    level: int,
    delta: "Optional[List[Atom]]",
    max_rounds: "Optional[int]",
    on_round: "Callable[[int, List[Atom], List[Null]], None]",
    on_stop: "Callable[[StopReason, Optional[List[Atom]], int], None]",
    raise_at_max_rounds: bool = False,
) -> StopReason:
    """Chase *structure* in place, round by round, and return why it stopped.

    The one round loop of :func:`chase` and of the incremental view's
    resume (:meth:`repro.chase.view.ChaseView.update`).  Rounds are
    numbered from ``level + 1``.  The first joins through *delta*
    (``None``: a full first round), each later one through the facts
    its predecessor added.  Before each round the guard is checked and
    the cap *max_rounds* (rounds of this call) applied.  Each round
    appends its :class:`RoundStats` to ``stats.rounds``.  An empty
    round is a fixpoint.  After each round that added facts,
    ``on_round(level, produced, invented)`` lets the caller record
    them, and then the ``max_facts``/``max_elements`` budgets are
    checked.

    Every exit first calls ``on_stop(reason, frontier, completed)``:
    *frontier* is the delta the next round would join through (empty
    at a fixpoint), *completed* the rounds this call finished.  Then
    the ``on_budget`` policy applies.  Under ``RAISE`` a guard stop
    raises the guard's typed exception, and a size overrun (or the cap,
    when *raise_at_max_rounds*) raises
    :class:`~repro.errors.ChaseBudgetExceeded`; both carry *stats*.
    """
    completed = 0
    reason = StopReason.FIXPOINT
    overrun: "Optional[str]" = None
    while delta is None or delta:
        tripped = guard.check()
        if tripped is not None:
            reason = tripped
            break
        if max_rounds is not None and completed >= max_rounds:
            reason = StopReason.BUDGET
            if raise_at_max_rounds:
                overrun = f"chase stopped after {max_rounds} rounds at depth {level}"
            break
        tripped, produced, invented = _recorded_round(
            structure, theory, nulls, level + 1, config, provenance, delta,
            guard, stats.rounds, len(structure) if delta is None else len(delta),
        )
        if tripped is not None:
            reason = tripped
            break
        completed += 1
        delta = produced
        if not produced:
            continue  # the fixpoint: the loop condition ends the run
        level += 1
        on_round(level, produced, invented)
        if _over_budget(structure, config):
            reason = StopReason.BUDGET
            overrun = f"chase exceeded budget at depth {level}"
            break
    on_stop(reason, delta, completed)
    if config.should_raise:
        if overrun is not None:
            raise ChaseBudgetExceeded(overrun, stats=stats)
        if reason is not StopReason.FIXPOINT and reason is not StopReason.BUDGET:
            raise guard.exception(reason, stats=stats)
    return reason


def chase(
    database: Structure,
    theory: Theory,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> ChaseResult:
    """Run the chase on a copy of *database* under *theory*.

    Keyword overrides (``max_depth=...``, ``wall_ms=...`` etc.) are
    applied on top of *config* (or the default config) via
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
        Only when ``config.on_budget == OnBudget.RAISE``; reaching
        ``max_depth`` never raises.
    NewElementEmbargoViolation
        When ``allow_new_elements=False`` and an existential trigger
        has no witness.
    """
    if config is None:
        config = ChaseConfig()
    config = config.with_overrides(**overrides)
    working = database.copy()
    return _chase_on(
        working, theory, config, {fact: 0 for fact in working.facts()},
        [], [], ChaseStats(), None, config.max_depth,
    )


def deepen(
    result: ChaseResult,
    theory: Theory,
    config: ChaseConfig,
    **overrides,
) -> ChaseResult:
    """Continue the truncated chase *result* to ``config.max_depth`` rounds.

    ``Chase^b(D,T) = Chase^{b-a}(Chase^a(D,T), T)`` (Section 1.1).
    *result* must come from :func:`chase` (or :func:`deepen`) of some
    database D under *theory* and a config that differs from *config*
    (with the *overrides* applied) at most in ``max_depth`` and the
    guard fields.  The new rounds run through :func:`_run_rounds` as a
    fresh chase's would: the first joins through *result*'s last-level
    facts, in the order they were produced, and new nulls are numbered
    on from *result*'s.  So the returned result equals
    ``chase(D, theory, config)`` but for wall times and plan-cache
    counters: its round list continues *result*'s, and its ``hom``
    counters are *result*'s plus the new rounds'.  A saturated result,
    or one whose last round left it over the size budgets, gets no new
    round, because a fresh chase stops at that same round.  *result* is
    never mutated; the rounds run under a ``chase`` guard.

    Raises
    ------
    ValueError
        When *result* evaluated more rounds than ``config.max_depth``, was
        stopped by a guard (its last round was cut short), or was traced
        (its supports are not carried on).
    """
    config = config.with_overrides(**overrides)
    evaluated = result.depth + (1 if result.saturated else 0)
    if config.max_depth is not None and config.max_depth < evaluated:
        raise ValueError(
            f"cannot deepen a chase of {evaluated} rounds to {config.max_depth}"
        )
    if result.stopped_reason in GUARD_REASONS:
        raise ValueError(
            f"cannot deepen a chase stopped by {result.stopped_reason.value}"
        )
    if config.trace or result.provenance is not None:
        raise ValueError("cannot deepen a traced chase")
    working = result.structure.copy()
    if result.saturated:
        frontier: "Optional[List[Atom]]" = []  # its empty round already ran
    elif result.depth == 0:
        frontier = None  # no round ran: a full first round
    else:
        frontier = [
            fact for fact, level in result.fact_level.items() if level == result.depth
        ]
    if result.depth and _over_budget(working, config):
        # a chase checks the size budgets after each round: it stopped here
        max_rounds: "Optional[int]" = 0
    elif config.max_depth is None:
        max_rounds = None
    else:
        max_rounds = config.max_depth - result.depth
    return _chase_on(
        working, theory, config, dict(result.fact_level),
        list(result.new_elements), list(result.rounds_fired),
        ChaseStats(rounds=list(result.stats.rounds), hom=result.stats.hom),
        frontier, max_rounds,
    )


def _chase_on(
    working: Structure,
    theory: Theory,
    config: ChaseConfig,
    fact_level: Dict[Atom, int],
    new_elements: List[Null],
    rounds_fired: List[int],
    stats: ChaseStats,
    frontier: "Optional[List[Atom]]",
    max_rounds: "Optional[int]",
) -> ChaseResult:
    """Chase *working* in place from round ``len(rounds_fired) + 1``.

    The shared body of :func:`chase` and :func:`deepen`: the bookkeeping
    arguments hold the run so far and grow with each round; *frontier*
    and *max_rounds* are :func:`_run_rounds`' *delta* and cap.  The
    run's ``HOM_STATS`` delta is added to ``stats.hom``.
    """
    nulls = NullFactory.above(working.domain())
    provenance = SupportStore() if config.trace else None
    hom_so_far = stats.hom
    hom_before = HOM_STATS.snapshot()

    def on_round(level: int, produced: List[Atom], invented: List[Null]) -> None:
        rounds_fired.append(len(produced))
        new_elements.extend(invented)
        for fact in produced:
            fact_level.setdefault(fact, level)

    def on_stop(reason: StopReason, delta: object, completed: int) -> None:
        hom = HOM_STATS.since(hom_before)
        stats.hom = hom if hom_so_far is None else hom_so_far.plus(hom)

    reason = _run_rounds(
        working, theory, nulls, config, provenance,
        RuntimeGuard.from_config(config, "chase"), stats, len(rounds_fired),
        frontier, max_rounds, on_round, on_stop,
    )
    return ChaseResult(
        structure=working,
        depth=len(rounds_fired),
        saturated=reason is StopReason.FIXPOINT,
        fact_level=fact_level,
        new_elements=new_elements,
        rounds_fired=rounds_fired,
        provenance=provenance,
        stats=stats,
        stopped_reason=reason,
    )


#: The default budgets of :func:`chase_with_embargo` and
#: :func:`datalog_saturate`: no depth or element cap (an embargoed run
#: keeps its domain, so it always ends) and a fact cap.
_EMBARGO = ChaseConfig(
    max_depth=None, max_facts=500_000, max_elements=None, allow_new_elements=False
)


def datalog_saturate(structure: Structure, theory: Theory, **overrides) -> ChaseResult:
    """Saturate *structure* under the *datalog* rules of the theory only.

    On a finite structure this always terminates (no new elements are
    ever created).  Used as a building block by the Theorem-2 pipeline,
    the finite-model search and model checking.  Its budgets are
    :func:`chase_with_embargo`'s; the returned result carries the run's
    :class:`~repro.chase.stats.ChaseStats` like any chase.
    """
    datalog_only = Theory(theory.datalog_rules(), theory.signature)
    return chase_with_embargo(structure, datalog_only, **overrides)


def chase_with_embargo(structure: Structure, theory: Theory, **overrides) -> ChaseResult:
    """Chase *structure* under the full theory, forbidding new elements.

    This is the executable form of Lemma 5: on the quotient of a
    conservative coloring the full chase needs no new elements, so this
    call saturates; on an insufficient quotient it raises
    :class:`~repro.errors.NewElementEmbargoViolation`.  Runs with no
    depth or element cap and at most 500,000 facts, the keyword
    *overrides* applied on top.
    """
    return chase(structure, theory, _EMBARGO, **overrides)


def is_model(structure: Structure, theory: Theory) -> bool:
    """Whether every rule of *theory* is satisfied in *structure*.

    For each rule and each body match, the head must hold (with the
    existential variables witnessed by existing elements): no
    :func:`violations`.
    """
    return next(unsatisfied_triggers(structure, theory.rules), None) is None


def violations(structure: Structure, theory: Theory, limit: int = 10) -> List[Tuple[Rule, Dict[Variable, Element]]]:
    """Up to *limit* (rule, body-match) pairs whose head fails.

    Useful diagnostics when :func:`is_model` returns ``False``.
    """
    return list(itertools.islice(unsatisfied_triggers(structure, theory.rules), limit))
