"""Small reference implementations the engines are checked against.

Each oracle is the definition its engine optimises, written as plainly
as possible and kept out of ``src/``: no index, plan, cache, guard or
stats.  The chase stays the rewriting engine's semantic reference
(Definition 2, ``tests/property/test_rewrite_parity.py``);
:func:`exact_rewriting` is the reference for its eager pruning.
:func:`naive_chase` is the exception to "no index": it repeats the
engine's own round with every body enumerated in full, the reference
for the engine's delta rounds.  :func:`rule_violations`, the model
check that tier-1 applies to every model an engine builds, groups the
facts by predicate and nothing more; so does :func:`query_holds`, the
check that such a model avoids its query.  :func:`isomorphic_by_bijection`
tries every bijection of the non-constant elements: the reference for
:func:`repro.lf.canonical.canonical_key`.
"""

import itertools
from collections import Counter
from types import SimpleNamespace

from repro.chase import ChaseConfig, RoundStats, datalog_saturate
from repro.chase.engine import _evaluate_round
from repro.lf import ConjunctiveQuery, NullFactory, UnionOfConjunctiveQueries, Variable
from repro.rewriting import Unifier, minimize_ucq, normalize_equalities
from repro.rewriting.rewriter import (
    _applicable_classes,
    _factorizations,
    _protect_free_variables,
)


def nested_loop_bindings(atoms, structure, binding=None):
    """Every binding of the variables of *atoms* into *structure* that
    makes each atom a fact, extending *binding*.

    Matches the atoms in the given order, each against every fact of
    the structure, with no index and no plan.
    """
    results = [dict(binding or {})]
    for item in atoms:
        extended = []
        for current in results:
            for fact in structure.facts():
                if fact.pred != item.pred or fact.arity != item.arity:
                    continue
                candidate = dict(current)
                for arg, value in zip(item.args, fact.args):
                    if isinstance(arg, Variable):
                        if candidate.setdefault(arg, value) != value:
                            break
                    elif arg != value:
                        break
                else:
                    extended.append(candidate)
        results = extended
    return results


def isomorphic_by_bijection(left, right):
    """Whether some bijection fixing every constant maps the facts of
    *left* onto those of *right*, trying the bijections one by one."""
    if left.constant_elements() != right.constant_elements():
        return False
    mine = sorted(left.nonconstant_elements(), key=str)
    theirs = sorted(right.nonconstant_elements(), key=str)
    if len(mine) != len(theirs):
        return False
    target = right.facts()
    for image in itertools.permutations(theirs):
        table = dict(zip(mine, image))
        if {fact.substitute(table) for fact in left.facts()} == target:
            return True
    return False


def _extensions(atoms, facts_by_pred, binding):
    """Every extension of *binding* that maps the relational *atoms*,
    in the given order, onto facts of *facts_by_pred* (predicate ->
    facts)."""
    if not atoms:
        yield binding
        return
    first, rest = atoms[0], atoms[1:]
    for fact in facts_by_pred.get(first.pred, ()):
        if fact.arity != first.arity:
            continue
        extended = dict(binding)
        for arg, value in zip(first.args, fact.args):
            if isinstance(arg, Variable):
                if extended.setdefault(arg, value) != value:
                    break
            elif arg != value:
                break
        else:
            yield from _extensions(rest, facts_by_pred, extended)


def _with_equalities(equalities, binding):
    """*binding* extended by the ``=`` atoms, or ``None`` when one fails.

    An equality with one side unbound binds it to the other side; one
    between two unbound variables binds neither.
    """
    binding = dict(binding)
    pending = list(equalities)
    while pending:
        waiting = []
        for item in pending:
            left, right = (
                binding.get(term) if isinstance(term, Variable) else term
                for term in item.args
            )
            if left is None and right is None:
                waiting.append(item)
            elif left is None:
                binding[item.args[0]] = right
            elif right is None:
                binding[item.args[1]] = left
            elif left != right:
                return None
        if len(waiting) == len(pending):
            break
        pending = waiting
    return binding


def _facts_by_pred(structure):
    """The facts of *structure* grouped by predicate, the only index
    the planner-free checks use."""
    facts_by_pred = {}
    for fact in structure.facts():
        facts_by_pred.setdefault(fact.pred, []).append(fact)
    return facts_by_pred


def query_holds(structure, query):
    """Whether *structure* satisfies the conjunctive *query*, every
    variable read as existential (``M ⊨ Q``).

    The query check written out: the relational atoms are matched atom
    by atom against the facts of their predicate and the ``=`` atoms
    applied to each match, as :func:`rule_violations` matches a rule
    body.  No plan.
    """
    relational = [item for item in query.atoms if not item.is_equality]
    equalities = [item for item in query.atoms if item.is_equality]
    return any(
        _with_equalities(equalities, match) is not None
        for match in _extensions(relational, _facts_by_pred(structure), {})
    )


def rule_violations(structure, theory):
    """Yield every ``(rule, body match)`` of *theory* whose head fails
    in *structure*, rule by rule.

    The model check written out: each rule body is matched atom by
    atom against the facts of its predicate, its ``=`` atoms applied
    afterwards, and the head is searched for the same way with the
    frontier fixed.  Facts are indexed by predicate only; no plan.
    """
    facts_by_pred = _facts_by_pred(structure)
    for rule in theory.rules:
        relational = [item for item in rule.body if not item.is_equality]
        equalities = [item for item in rule.body if item.is_equality]
        for match in _extensions(relational, facts_by_pred, {}):
            binding = _with_equalities(equalities, match)
            if binding is None:
                continue
            frontier = {
                var: binding[var] for var in rule.frontier() if var in binding
            }
            if next(_extensions(rule.head, facts_by_pred, frontier), None) is None:
                yield rule, binding


def definitional_search(
    database, theory, forbidden=None, max_elements=10, max_nodes=50_000
):
    """Search for a finite ``M ⊨ database, theory`` avoiding the CQ
    *forbidden*.

    Depth-first over chase states, reuse first: a violated existential
    trigger branches into one state per reuse of existing elements and,
    below *max_elements*, one with fresh nulls.  Every branch is a full
    copy, saturated from scratch; states are deduplicated by their raw
    fact sets.  Returns ``(model or None, exhausted)``, where
    *exhausted* is ``False`` only when *max_nodes* ran out.
    """
    nulls = NullFactory.above(database.domain())
    seen = set()
    stack = [datalog_saturate(database, theory).structure]
    nodes = 0
    while stack:
        if nodes >= max_nodes:
            return None, False
        state = stack.pop()
        if state.facts() in seen:
            continue
        seen.add(state.facts())
        nodes += 1
        if forbidden is not None and nested_loop_bindings(forbidden.atoms, state):
            continue
        # datalog rules hold in every saturated state: only existential
        # triggers can be violated
        trigger = next(rule_violations(state, theory), None)
        if trigger is None:
            return state, True
        rule, binding = trigger
        existentials = sorted(rule.existential_variables())
        choices = []
        if state.domain_size < max_elements:
            choices.append([nulls.fresh() for _ in existentials])
        domain = sorted(state.domain(), key=str)
        choices.extend(itertools.product(domain, repeat=len(existentials)))
        # Fresh pushed first: the stack pops the reuse branches first.
        for witnesses in choices:
            extended = dict(binding)
            extended.update(zip(existentials, witnesses))
            branch = state.copy()
            for head in rule.head:
                branch.add_fact(head.substitute(extended))
            stack.append(datalog_saturate(branch, theory).structure)
    return None, True


def naive_chase(database, theory, max_depth=None, max_facts=5_000):
    """The literal iteration ``Chase^{i+1}(D,T) = Chase^1(Chase^i(D,T),T)``.

    Every round enumerates every rule body in full against the
    round-start structure, as :func:`repro.chase.chase_step` does (its
    round is called directly to keep the per-round counters).  Stops
    when a round adds nothing, after *max_depth* rounds, or once the
    structure holds more than *max_facts* facts.  Returns a namespace
    with ``structure``, ``fact_level``, ``depth``, ``saturated``,
    ``new_elements`` and ``rounds`` (one ``RoundStats`` per round).
    """
    structure = database.copy()
    nulls = NullFactory.above(structure.domain())
    config = ChaseConfig(max_depth=max_depth, max_facts=max_facts)
    fact_level = {fact: 0 for fact in structure.facts()}
    new_elements = []
    rounds = []
    depth = 0
    saturated = False
    while max_depth is None or depth < max_depth:
        counters = RoundStats(round=depth + 1)
        produced, invented = _evaluate_round(
            structure, theory, nulls, depth + 1, config, None, None, counters
        )
        rounds.append(counters)
        if not produced:
            saturated = True
            break
        depth += 1
        new_elements.extend(invented)
        for fact in produced:
            fact_level.setdefault(fact, depth)
        if len(structure) > max_facts:
            break
    return SimpleNamespace(
        structure=structure,
        fact_level=fact_level,
        depth=depth,
        saturated=saturated,
        new_elements=new_elements,
        rounds=rounds,
    )


def _rewriting_steps(query, theory, fresh):
    """Every one-step rewriting of *query*: an atom resolved against
    the head of a rule renamed apart for this step, when the
    applicability condition on existential variables holds."""
    free = set(query.free)
    query_vars = query.variables()
    prefer = tuple(query.free) + tuple(sorted(query_vars - free))
    occurrences = Counter(
        arg for item in query.atoms for arg in item.args
        if isinstance(arg, Variable)
    )
    for target in query.atoms:
        if target.is_equality:
            continue
        inside = Counter(arg for arg in target.args if isinstance(arg, Variable))
        for rule in theory.rules:
            step = next(fresh)
            renamed = rule.substitute({
                var: Variable(f"_r{step}_{j}")
                for j, var in enumerate(sorted(rule.variables()))
            })
            unifier = Unifier()
            if not unifier.unify_atoms(target, renamed.head_atom):
                continue
            if not _applicable_classes(
                unifier, renamed.existential_variables(), occurrences,
                inside, free, query_vars,
            ):
                continue
            substitution = unifier.substitution(prefer=prefer)
            atoms = [
                item.substitute(substitution)
                for item in query.atoms if item != target
            ]
            atoms.extend(item.substitute(substitution) for item in renamed.body)
            _protect_free_variables(query, substitution, atoms)
            yield ConjunctiveQuery(atoms, query.free)


def exact_rewriting(query, theory, max_queries=2_000, factorize=True):
    """The whole rewriting closure of *query* under the single-head
    *theory*, minimised once.

    Breadth-first over every rewriting and factorisation step, with no
    pruning: a new query is dropped only when its canonical form was
    seen before.  Returns ``None`` when more than *max_queries*
    distinct queries turn up (the closure may be infinite).  With
    *factorize* false only rewriting steps are taken; the closure is
    then sound but may miss answers (Example 7).
    """
    start = normalize_equalities(query)
    if start is None:
        return UnionOfConjunctiveQueries([])
    frontier = [start.canonical()]
    seen = set(frontier)
    fresh = itertools.count()
    while frontier:
        successors = []
        for current in frontier:
            steps = _rewriting_steps(current, theory, fresh)
            if factorize:
                steps = itertools.chain(steps, _factorizations(current))
            for candidate in steps:
                normal = normalize_equalities(candidate)
                if normal is None:
                    continue
                marker = normal.canonical()
                if marker in seen:
                    continue
                seen.add(marker)
                if len(seen) > max_queries:
                    return None
                successors.append(marker)
        frontier = successors
    return UnionOfConjunctiveQueries(minimize_ucq(list(seen)))
