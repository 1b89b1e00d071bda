"""Syntactic class recognisers for Datalog∃ theories.

The classes the paper situates itself among:

* **linear** — every TGD has a single body atom ([8], Rosati);
* **guarded** — some body atom contains all body variables ([1],
  Barany–Gottlob–Otto; Section 5.6 of the paper);
* **sticky** — the Calì–Gottlob–Pieris marking condition ([4], [5]);
* **frontier-1 / single-frontier-variable heads** — the shape of
  Theorem 3: every existential head is ``Ψ(x̄, y) ⇒ ∃z̄ Φ(y, z̄)``;
* **binary** — arity ≤ 2 everywhere (Theorem 1's scope);
* **full datalog** — no existential variables at all;
* **weakly acyclic** — re-exported from the chase package.

These are decidable syntactic conditions, unlike BDD and FC.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..chase.termination import is_weakly_acyclic
from ..lf.atoms import Atom
from ..lf.rules import Rule, Theory
from ..lf.terms import Variable


def is_linear(theory: Theory) -> bool:
    """Every rule has exactly one (relational) body atom."""
    for rule in theory.rules:
        relational = [a for a in rule.body if not a.is_equality]
        if len(relational) != 1:
            return False
    return True


def guard_of(rule: Rule) -> "Atom | None":
    """The guard: a body atom containing every body variable, if any."""
    body_vars = rule.body_variables()
    for candidate in rule.body:
        if candidate.is_equality:
            continue
        if body_vars <= candidate.variable_set():
            return candidate
    return None


def is_guarded(theory: Theory) -> bool:
    """Every rule has a guard (linear ⟹ guarded)."""
    return all(guard_of(rule) is not None for rule in theory.rules)


def is_full_datalog(theory: Theory) -> bool:
    """No existential variables anywhere."""
    return all(rule.is_datalog for rule in theory.rules)


def is_binary(theory: Theory) -> bool:
    """Arity at most 2 for every predicate (Theorem 1's scope)."""
    return theory.is_binary


def is_frontier_one_heads(theory: Theory) -> bool:
    """Theorem 3's shape: each existential TGD is
    ``Ψ(x̄, y) ⇒ ∃z̄ Φ(y, z̄)`` — at most one frontier variable."""
    for rule in theory.rules:
        if rule.is_existential and len(rule.frontier()) > 1:
            return False
    return True


# ----------------------------------------------------------------------
# Stickiness (Calì–Gottlob–Pieris marking procedure)
# ----------------------------------------------------------------------

#: A body position: (rule index, body-atom index, argument index).
BodyPosition = Tuple[int, int, int]


def _sticky_marking(theory: Theory) -> Set[BodyPosition]:
    """The marked body positions.

    Initial step: mark every body occurrence of a variable that does
    not appear in the rule's head.  Propagation: if a variable occurs
    in a *marked* position of predicate R at argument i (in any body),
    then for every rule whose head is R, every body occurrence of the
    variable at head-position i gets marked.  Iterate to fixpoint.
    """
    marked: Set[BodyPosition] = set()
    # initial marking
    for r_index, rule in enumerate(theory.rules):
        head_vars = rule.head_variables()
        for a_index, body_atom in enumerate(rule.body):
            if body_atom.is_equality:
                continue
            for p_index, arg in enumerate(body_atom.args):
                if isinstance(arg, Variable) and arg not in head_vars:
                    marked.add((r_index, a_index, p_index))

    # propagation via marked predicate positions
    changed = True
    while changed:
        changed = False
        marked_pred_positions: Set[Tuple[str, int]] = set()
        for r_index, a_index, p_index in marked:
            body_atom = theory.rules[r_index].body[a_index]
            marked_pred_positions.add((body_atom.pred, p_index))
        for r_index, rule in enumerate(theory.rules):
            for head_atom in rule.head:
                for h_index, head_arg in enumerate(head_atom.args):
                    if not isinstance(head_arg, Variable):
                        continue
                    if (head_atom.pred, h_index) not in marked_pred_positions:
                        continue
                    # the variable flowing into a marked position: mark
                    # all its body occurrences in this rule
                    for a_index, body_atom in enumerate(rule.body):
                        if body_atom.is_equality:
                            continue
                        for p_index, arg in enumerate(body_atom.args):
                            if arg == head_arg:
                                position = (r_index, a_index, p_index)
                                if position not in marked:
                                    marked.add(position)
                                    changed = True
    return marked


def is_sticky(theory: Theory) -> bool:
    """The sticky condition: no variable occurs in two (or more) body
    atoms while having some *marked* occurrence."""
    marked = _sticky_marking(theory)
    for r_index, rule in enumerate(theory.rules):
        occurrences: Dict[Variable, List[BodyPosition]] = {}
        atom_sets: Dict[Variable, Set[int]] = {}
        for a_index, body_atom in enumerate(rule.body):
            if body_atom.is_equality:
                continue
            for p_index, arg in enumerate(body_atom.args):
                if isinstance(arg, Variable):
                    occurrences.setdefault(arg, []).append((r_index, a_index, p_index))
                    atom_sets.setdefault(arg, set()).add(a_index)
        for variable, positions in occurrences.items():
            appears_in_joins = len(atom_sets[variable]) > 1
            has_marked = any(position in marked for position in positions)
            if appears_in_joins and has_marked:
                return False
    return True


def classify(theory: Theory) -> Dict[str, bool]:
    """All recognisers at once — the profile printed by experiments."""
    return {
        "binary": is_binary(theory),
        "linear": is_linear(theory),
        "guarded": is_guarded(theory),
        "sticky": is_sticky(theory),
        "frontier_one_heads": is_frontier_one_heads(theory),
        "full_datalog": is_full_datalog(theory),
        "weakly_acyclic": is_weakly_acyclic(theory),
        "single_head": theory.is_single_head,
        "spade5": theory.satisfies_spade5,
    }
