"""Small reference implementations the engines are checked against.

Each oracle is the definition its engine optimises, written as plainly
as possible and kept out of ``src/``: no index, plan, cache, guard or
stats.  The rewriting engine needs no oracle here; Definition 2 makes
the chase its reference (``tests/property/test_rewrite_parity.py``).
"""

import itertools

from repro.chase import datalog_saturate
from repro.lf import NullFactory, Variable


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


def _violated_trigger(structure, theory):
    """First existential trigger of *theory* whose head has no witness."""
    for rule in theory.rules:
        if rule.is_datalog:
            continue
        for binding in nested_loop_bindings(rule.body, structure):
            frontier = {
                var: value
                for var, value in binding.items()
                if var in rule.head_variables()
            }
            if not nested_loop_bindings(rule.head, structure, frontier):
                return rule, binding
    return None


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
        trigger = _violated_trigger(state, theory)
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
