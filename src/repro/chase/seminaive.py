"""Trigger enumeration and the trigger check, compiled once per rule.

A rule body with atoms ``B_1 … B_k`` only needs the matches where at
least one ``B_i`` is matched against the *delta* (the facts new in the
previous round), evaluated as the union of the k plans "``B_i`` from
delta, the rest from the full structure"
(:meth:`_RulePlans.delta_triggers`).

The chase engine (:mod:`repro.chase.engine`) enumerates every round
after its first this way, for existential TGDs as well (see DESIGN.md
§4); :func:`repro.chase.engine.datalog_saturate` is the datalog
fixpoint built on it.  :func:`incremental_datalog_saturate` is the
finite-model search's per-node loop: the same enumeration, kept apart
from the engine's round loop so that a node does not pay for per-round
stats, timing and guard checks on a delta of a few facts.  Insertions
are buffered per round — the homomorphism matcher hands out live index
views, so the structure must not grow mid-enumeration.

The *trigger check* (:meth:`_RulePlans.head_holds`) asks whether a
rule's head already holds under a body match, with the frontier fixed
and the existential variables searched for.  The chase runs it to
create new elements "only if needed"; :func:`unsatisfied_triggers`,
the one loop over the matches whose head fails, is the model check and
the finite-model search's branching point.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ChaseBudgetExceeded
from ..lf.atoms import Atom, atoms_variables
from ..lf.homomorphism import homomorphisms
from ..lf.plan import Binding, QueryPlan, plan_for
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Variable


class _RulePlans:
    """One rule's compiled forms, each fetched through
    :func:`~repro.lf.plan.plan_for` on its first use, against the
    structure of that use: the body plan, one rest-plan per pivot, and
    the head plan with the frontier prebound.  The planner rejects
    ``=`` atoms, so a body that has any is matched through
    :func:`homomorphisms` instead.  Threads that race on a first use
    each store the one plan the plan cache hands out for those atoms.
    """

    __slots__ = ("rule", "relational", "equalities", "frontier", "_body", "_pivots", "_head")

    def __init__(self, rule: Rule):
        self.rule = rule
        self.relational = tuple(a for a in rule.body if not a.is_equality)
        self.equalities = tuple(a for a in rule.body if a.is_equality)
        self.frontier = rule.frontier()
        self._body: "Optional[QueryPlan]" = None
        self._pivots: "Optional[List[Tuple[Atom, QueryPlan]]]" = None
        self._head: "Optional[QueryPlan]" = None

    def triggers(self, structure: Structure) -> Iterator[Binding]:
        """Every body match in *structure*."""
        if self.equalities:
            return homomorphisms(self.rule.body, structure)
        if self._body is None:
            self._body = plan_for(self.relational, frozenset(), structure)
        return self._body.bindings(structure)

    def delta_triggers(
        self, structure: Structure, delta: "Sequence[Atom]"
    ) -> Iterator[Binding]:
        """Body matches with at least one atom matched in *delta*.

        The union over the pivot position: the pivot is matched against
        the delta, the other atoms against the full structure through
        the indexed matcher.  A match found through two pivots is
        yielded twice, which is harmless: head insertion is idempotent.
        Each pivot's rest-plan runs directly per seed; going through
        :func:`homomorphisms` would re-resolve equalities and re-hash
        the plan-cache key per seed, pure overhead on small deltas.
        """
        relational = self.relational
        if self.equalities:
            for index, pivot in enumerate(relational):
                rest = relational[:index] + relational[index + 1:] + self.equalities
                for seed in _match_atom_against_facts(pivot, delta, {}):
                    yield from homomorphisms(rest, structure, seed)
            return
        if self._pivots is None:
            pivots = []
            for index, pivot in enumerate(relational):
                rest = relational[:index] + relational[index + 1:]
                shared = pivot.variable_set() & atoms_variables(rest)
                pivots.append((pivot, plan_for(rest, shared, structure)))
            self._pivots = pivots
        for pivot, plan in self._pivots:
            for seed in _match_atom_against_facts(pivot, delta, {}):
                yield from plan.bindings(structure, seed)

    def head_holds(self, structure: Structure, binding: Binding) -> bool:
        """Whether some values of the existential variables make every
        head atom a fact of *structure* under the body match *binding*.
        The head plan reads the frontier's values from *binding* and
        builds no dict per match."""
        if self._head is None:
            self._head = plan_for(self.rule.head, self.frontier, structure)
        return next(self._head.answers(structure, (), binding), None) is not None


#: ``rule -> _RulePlans``.  Bounded like the plan cache: cleared
#: wholesale if it ever fills.
_RULE_PLANS: Dict[Rule, _RulePlans] = {}
_RULE_PLANS_MAX = 4096


def rule_plans(rule: Rule) -> _RulePlans:
    """The compiled forms of *rule*, created on its first use."""
    plans = _RULE_PLANS.get(rule)
    if plans is None:
        plans = _RulePlans(rule)
        if len(_RULE_PLANS) >= _RULE_PLANS_MAX:
            _RULE_PLANS.clear()
        _RULE_PLANS[rule] = plans
    return plans


def unsatisfied_triggers(
    structure: Structure, rules: "Sequence[Rule]"
) -> "Iterator[Tuple[Rule, Binding]]":
    """Every ``(rule, body match)`` of *rules* whose head fails in
    *structure*, rule by rule."""
    for rule in rules:
        plans = rule_plans(rule)
        for binding in plans.triggers(structure):
            if not plans.head_holds(structure, binding):
                yield rule, binding


def _match_atom_against_facts(
    atom: Atom, facts: "Sequence[Atom]", binding: Binding
) -> Iterator[Binding]:
    """All extensions of *binding* matching *atom* against *facts*."""
    for fact in facts:
        if fact.pred != atom.pred or fact.arity != atom.arity:
            continue
        extended = dict(binding)
        good = True
        for arg, value in zip(atom.args, fact.args):
            if isinstance(arg, Variable):
                bound = extended.get(arg)
                if bound is None:
                    extended[arg] = value
                elif bound != value:
                    good = False
                    break
            elif arg != value:
                good = False
                break
        if good:
            yield extended


def incremental_datalog_saturate(
    structure: Structure,
    theory: Theory,
    seed: "Sequence[Atom]",
    max_facts: "Optional[int]" = 1_000_000,
    rules: "Optional[Sequence[Rule]]" = None,
) -> "Tuple[int, int]":
    """Re-saturate *structure* **in place** after adding the *seed* facts.

    Precondition: ``structure`` minus *seed* was already saturated under
    the datalog rules of *theory* (then only bindings touching the seed
    can fire, so the full first round of
    :func:`~repro.chase.engine.datalog_saturate` is unnecessary — this
    is the per-node saturation of the finite-model search, where every
    state extends an already-saturated parent by a handful of head
    facts).

    Returns ``(facts_added, rounds)`` — the seed itself is not counted.

    *rules*, when given, must be exactly the datalog rules of *theory*
    — callers saturating many states against one theory precompute the
    list once instead of re-filtering (and re-deriving variable sets)
    per state.

    Raises
    ------
    ChaseBudgetExceeded
        If the fixpoint exceeds *max_facts* facts; the structure is left
        partially saturated (callers treating this as a pruned branch
        must discard it).
    """
    if rules is None:
        rules = [r for r in theory.rules if r.is_datalog]
    added = 0
    rounds = 0
    delta: "Sequence[Atom]" = list(seed)
    while delta and rules:
        rounds += 1
        produced: List[Atom] = []
        produced_set: Set[Atom] = set()
        for rule in rules:
            for binding in rule_plans(rule).delta_triggers(structure, delta):
                for head in rule.head:
                    fact = head.substitute(binding)  # type: ignore[arg-type]
                    if fact not in produced_set and not structure.has_fact(fact):
                        produced_set.add(fact)
                        produced.append(fact)
        for fact in produced:
            structure.add_fact(fact)
        added += len(produced)
        if max_facts is not None and len(structure) > max_facts:
            raise ChaseBudgetExceeded(
                f"incremental saturation exceeded {max_facts} facts"
            )
        delta = produced
    return added, rounds
