"""Trigger enumeration and the trigger check, compiled once per rule.

A rule body with atoms ``B_1 … B_k`` only needs the matches where at
least one ``B_i`` is matched against the *delta* (the facts new in the
previous round), evaluated as the union of the k plans "``B_i`` from
delta, the rest from the full structure"
(:meth:`_BodyPlans.delta_triggers`).

The chase engine (:mod:`repro.chase.engine`) enumerates every round
after its first this way, for existential TGDs as well (see DESIGN.md
§4); :func:`repro.chase.engine.datalog_saturate` is the datalog
fixpoint built on it.  :func:`incremental_datalog_saturate` is the
finite-model search's per-node loop: the same enumeration, kept apart
from the engine's round loop so that a node does not pay for per-round
stats, timing and guard checks on a delta of a few facts.  Insertions
are buffered per round — the homomorphism matcher hands out live index
views, so the structure must not grow mid-enumeration.  The same pivot
plans, compiled for a forbidden query's disjuncts, stop that loop at
the query's first match.

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
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule
from ..lf.structures import Structure
from ..lf.terms import Variable


class _BodyPlans:
    """One conjunction's compiled forms, each fetched through
    :func:`~repro.lf.plan.plan_for` on its first use, against the
    structure of that use: the plan of the whole body and one
    rest-plan per pivot.  The planner rejects ``=`` atoms, so a body
    that has any is matched through :func:`homomorphisms` instead.
    Threads that race on a first use each store the one plan the plan
    cache hands out for those atoms.
    """

    __slots__ = ("atoms", "relational", "equalities", "_body", "_pivots")

    def __init__(self, atoms: "Sequence[Atom]"):
        self.atoms = tuple(atoms)
        self.relational = tuple(a for a in self.atoms if not a.is_equality)
        self.equalities = tuple(a for a in self.atoms if a.is_equality)
        self._body: "Optional[QueryPlan]" = None
        self._pivots: "Optional[List[Tuple[Atom, QueryPlan]]]" = None

    def triggers(self, structure: Structure) -> Iterator[Binding]:
        """Every body match in *structure*."""
        if self.equalities:
            return homomorphisms(self.atoms, structure)
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


class _RulePlans(_BodyPlans):
    """A rule's body plans (:class:`_BodyPlans`) and its head plan with
    the frontier prebound."""

    __slots__ = ("rule", "frontier", "_head")

    def __init__(self, rule: Rule):
        super().__init__(rule.body)
        self.rule = rule
        self.frontier = rule.frontier()
        self._head: "Optional[QueryPlan]" = None

    def head_holds(self, structure: Structure, binding: Binding) -> bool:
        """Whether some values of the existential variables make every
        head atom a fact of *structure* under the body match *binding*.
        The head plan reads the frontier's values from *binding* and
        builds no dict per match."""
        if self._head is None:
            self._head = plan_for(self.rule.head, self.frontier, structure)
        return next(self._head.answers(structure, (), binding), None) is not None


#: ``rule -> _RulePlans`` and ``conjunctive query -> _BodyPlans``.
#: Bounded like the plan cache: cleared wholesale if it ever fills.
_PLANS: "Dict[Rule | ConjunctiveQuery, _BodyPlans]" = {}
_PLANS_MAX = 4096


def _cached_plans(key: "Rule | ConjunctiveQuery", build) -> _BodyPlans:
    plans = _PLANS.get(key)
    if plans is None:
        plans = build(key)
        if len(_PLANS) >= _PLANS_MAX:
            _PLANS.clear()
        _PLANS[key] = plans
    return plans


def rule_plans(rule: Rule) -> _RulePlans:
    """The compiled forms of *rule*, created on its first use."""
    return _cached_plans(rule, _RulePlans)  # type: ignore[return-value]


def query_plans(query: ConjunctiveQuery) -> _BodyPlans:
    """The compiled body forms of *query*, created on its first use."""
    return _cached_plans(query, lambda cq: _BodyPlans(cq.atoms))


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
    rules: "Sequence[Rule]",
    seed: "Sequence[Atom]",
    forbidden: "Optional[ConjunctiveQuery | UnionOfConjunctiveQueries]" = None,
    max_facts: "Optional[int]" = 1_000_000,
) -> "Tuple[int, int, bool]":
    """Re-saturate *structure* **in place** after adding the *seed* facts,
    stopping at the first match of *forbidden*.

    Precondition: ``structure`` minus *seed* was already saturated under
    the datalog *rules* (then only bindings touching the seed can fire,
    so the full first round of
    :func:`~repro.chase.engine.datalog_saturate` is unnecessary — this
    is the per-node saturation of the finite-model search, where every
    state extends an already-saturated parent by a handful of head
    facts).  *rules* are the datalog rules of a theory
    (:meth:`~repro.lf.rules.Theory.datalog_rules`); callers saturating
    many states against one theory compute the list once.

    When *forbidden* is given, ``structure`` minus *seed* must not
    satisfy it.  Then a match of any disjunct in a later structure uses
    a fact that the seed or some round added, so after the seed and
    after each round every disjunct's body is matched with one atom
    pivoted on those new facts (the pivot plans of
    :meth:`_BodyPlans.delta_triggers`), and the first match ends the
    saturation.  A run that reaches the fixpoint without one leaves a
    structure that does not satisfy *forbidden*.

    Returns ``(facts_added, rounds, matched)``: the facts and rounds
    actually added and run (the seed itself is not counted), and
    whether *forbidden* matched.  A matched structure is partially
    saturated; callers prune it.

    Raises
    ------
    ChaseBudgetExceeded
        If the structure exceeds *max_facts* facts after a round in
        which *forbidden* did not match; the structure is left partially
        saturated (callers treating this as a pruned branch must
        discard it).
    """
    if forbidden is None:
        stops: "List[_BodyPlans]" = []
    elif isinstance(forbidden, UnionOfConjunctiveQueries):
        stops = [query_plans(cq) for cq in forbidden]
    else:
        stops = [query_plans(forbidden)]

    def matched(delta: "Sequence[Atom]") -> bool:
        return any(
            next(plans.delta_triggers(structure, delta), None) is not None
            for plans in stops
        )

    added = 0
    rounds = 0
    delta: "Sequence[Atom]" = seed
    if matched(delta):
        return added, rounds, True
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
        if matched(produced):
            return added, rounds, True
        if max_facts is not None and len(structure) > max_facts:
            raise ChaseBudgetExceeded(
                f"incremental saturation exceeded {max_facts} facts"
            )
        delta = produced
    return added, rounds, False
