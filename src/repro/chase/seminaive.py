"""Semi-naive datalog evaluation.

The round-based engine in :mod:`repro.chase.engine` re-evaluates every
rule against the whole structure each round — faithful to the paper's
``Chase^i`` but wasteful for pure datalog saturation, where the final
fixpoint is all that matters.  This module implements the classic
semi-naive strategy: a rule body with atoms ``B_1 … B_k`` only needs
the matches where at least one ``B_i`` is matched against the *delta*
(the facts new in the previous iteration), evaluated as the union of
the k plans "``B_i`` from delta, the rest from the full structure".

The result is fact-for-fact identical to the naive fixpoint (property
tested), usually much faster on recursive rules — the
``bench_ablation_seminaive`` benchmark quantifies it.

The delta machinery below (:func:`_delta_bindings`) is shared with the
main chase engine: :mod:`repro.chase.engine` generalises it to
existential TGDs as its default ``"delta"`` strategy (see DESIGN.md §4).
Insertions are buffered per iteration — the homomorphism matcher hands
out live index views, so the structure must not grow mid-enumeration.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import ChaseBudgetExceeded
from ..lf.atoms import Atom
from ..lf.homomorphism import homomorphisms
from ..lf.plan import plan_for
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Element, Variable


#: Per-rule delta-evaluation info: ``rule -> (relational, equalities,
#: pivot_plans)`` where ``pivot_plans`` is one ``(pivot, rest-plan)``
#: per body position, or ``None`` when the body has equality atoms (the
#: planner rejects those; such rules use the generic matcher).  Bounded
#: like the plan cache: cleared wholesale if it ever fills.
_RULE_DELTA_CACHE: Dict[Rule, tuple] = {}
_RULE_DELTA_CACHE_MAX = 4096


def _rule_delta_info(rule: Rule, structure: Structure) -> tuple:
    info = _RULE_DELTA_CACHE.get(rule)
    if info is not None:
        return info
    relational = tuple(a for a in rule.body if not a.is_equality)
    equalities = tuple(a for a in rule.body if a.is_equality)
    pivot_plans = None
    if not equalities:
        pivot_plans = []
        for pivot_index, pivot in enumerate(relational):
            rest = relational[:pivot_index] + relational[pivot_index + 1:]
            rest_vars: Set[Variable] = set()
            for item in rest:
                rest_vars.update(item.variable_set())
            prebound = frozenset(pivot.variable_set() & rest_vars)
            pivot_plans.append((pivot, plan_for(rest, prebound, structure)))
    info = (relational, equalities, pivot_plans)
    if len(_RULE_DELTA_CACHE) >= _RULE_DELTA_CACHE_MAX:
        _RULE_DELTA_CACHE.clear()
    _RULE_DELTA_CACHE[rule] = info
    return info


def _match_atom_against_facts(
    atom: Atom,
    facts: "Sequence[Atom]",
    binding: Dict[Variable, Element],
) -> Iterator[Dict[Variable, Element]]:
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


def _delta_bindings(
    rule: Rule,
    structure: Structure,
    delta: "Sequence[Atom]",
) -> Iterator[Dict[Variable, Element]]:
    """Bindings of the rule body with at least one atom in *delta*.

    Evaluated as the union over the pivot position; the pivot is
    matched against the delta, the remaining atoms against the full
    structure via the indexed matcher.  Duplicate bindings across
    pivots are fine — head insertion is idempotent.

    When the body has no equality atoms, each pivot's rest-plan is
    fetched once and run directly per seed — per-seed calls through
    :func:`homomorphisms` would re-resolve equalities and re-hash the
    plan-cache key every time, which is pure overhead on the small
    deltas this is built for.
    """
    relational, equalities, pivot_plans = _rule_delta_info(rule, structure)
    if pivot_plans is not None:
        for pivot, plan in pivot_plans:
            for seed in _match_atom_against_facts(pivot, delta, {}):
                yield from plan.bindings(structure, seed)
        return
    for pivot_index, pivot in enumerate(relational):
        rest = list(relational[:pivot_index] + relational[pivot_index + 1:]) + list(equalities)
        for seed in _match_atom_against_facts(pivot, delta, {}):
            yield from homomorphisms(rest, structure, seed)


def seminaive_saturate(
    structure: Structure,
    theory: Theory,
    max_facts: "Optional[int]" = 1_000_000,
) -> Structure:
    """Saturate *structure* under the datalog rules of *theory*.

    Returns a new structure (the input is not mutated) with exactly the
    naive fixpoint's facts.  Existential rules are ignored, matching
    :func:`repro.chase.engine.datalog_saturate`.

    Raises
    ------
    ChaseBudgetExceeded
        If the fixpoint exceeds *max_facts* facts.
    """
    rules = [r for r in theory.rules if r.is_datalog]
    working = structure.copy()

    def one_iteration(delta: "Optional[Sequence[Atom]]") -> List[Atom]:
        """One pass over the rules; new facts are buffered, then
        inserted (the matcher iterates live index views).  ``delta is
        None`` means the initial full evaluation."""
        produced: List[Atom] = []
        produced_set: Set[Atom] = set()
        for rule in rules:
            bindings = (
                homomorphisms(rule.body, working)
                if delta is None
                else _delta_bindings(rule, working, delta)
            )
            for binding in bindings:
                for head in rule.head:
                    fact = head.substitute(binding)  # type: ignore[arg-type]
                    if fact not in produced_set and not working.has_fact(fact):
                        produced_set.add(fact)
                        produced.append(fact)
        for fact in produced:
            working.add_fact(fact)
        return produced

    # Iteration 0: full naive round (every fact is "new").
    delta = one_iteration(None)
    while delta:
        if max_facts is not None and len(working) > max_facts:
            raise ChaseBudgetExceeded(
                f"semi-naive saturation exceeded {max_facts} facts"
            )
        delta = one_iteration(delta)
    return working


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
    can fire, so the initial full round of :func:`seminaive_saturate` is
    unnecessary — this is the per-node saturation of the finite-model
    search, where every state extends an already-saturated parent by a
    handful of head facts).

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
            for binding in _delta_bindings(rule, structure, delta):
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
