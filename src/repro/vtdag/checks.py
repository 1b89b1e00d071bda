"""Very Treelike DAG recognition (Definition 11) and related checks.

A structure C is a VTDAG when ``C_non`` is a DAG and

1. for each binary relation R and each ``e ∈ C_non`` there is at most
   one ``d ∈ C_non`` with ``R(d, e)`` — unique non-constant direct
   predecessor per relation;
2. for each ``e ∈ C_non``, ``P(e)`` is a directed clique: any two
   predecessors are comparable under ``P``.

Every (directed) tree is a VTDAG; the skeletons of Section 3.2 are
forests, hence VTDAGs.  The Main Lemma (Lemma 2) — every VTDAG is
ptp-conservative — is exercised over these structures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..lf.structures import Structure
from ..lf.terms import Constant, Element
from .predecessors import predecessor_set


@dataclass
class VTDAGReport:
    """Outcome of a VTDAG check, with human-readable violations.

    Attributes
    ----------
    is_vtdag:
        The verdict.
    violations:
        Messages describing each failed condition (empty when valid).
    """

    is_vtdag: bool
    violations: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.is_vtdag


def _nonconstant_cycle(structure: Structure) -> "Optional[List[Element]]":
    """A directed cycle within ``C_non`` (through binary atoms), if any."""
    nonconstants = structure.nonconstant_elements()
    WHITE, GREY, BLACK = 0, 1, 2
    state: Dict[Element, int] = {e: WHITE for e in nonconstants}
    parent: Dict[Element, Element] = {}

    for start in sorted(nonconstants, key=str):
        if state[start] != WHITE:
            continue
        stack: List[tuple] = [(start, iter(sorted(structure.successors(start), key=str)))]
        state[start] = GREY
        while stack:
            node, successors = stack[-1]
            advanced = False
            for successor in successors:
                if successor not in nonconstants:
                    continue
                if state[successor] == GREY:
                    # reconstruct the cycle
                    cycle = [successor, node]
                    walker = node
                    while walker != successor and walker in parent:
                        walker = parent[walker]
                        cycle.append(walker)
                    return cycle
                if state[successor] == WHITE:
                    state[successor] = GREY
                    parent[successor] = node
                    stack.append(
                        (successor, iter(sorted(structure.successors(successor), key=str)))
                    )
                    advanced = True
                    break
            if not advanced:
                state[node] = BLACK
                stack.pop()
    return None


def vtdag_report(structure: Structure) -> VTDAGReport:
    """Check Definition 11, reporting every violation found."""
    violations: List[str] = []

    cycle = _nonconstant_cycle(structure)
    if cycle is not None:
        violations.append(f"C_non contains a directed cycle: {cycle}")

    nonconstants = structure.nonconstant_elements()
    for relation in sorted(structure.signature.binary_relations()):
        for element in sorted(nonconstants, key=str):
            parents = [
                d
                for d in structure.predecessors(element, relation)
                if not isinstance(d, Constant)
            ]
            if len(parents) > 1:
                violations.append(
                    f"{element} has {len(parents)} non-constant "
                    f"{relation}-predecessors: {sorted(parents, key=str)}"
                )

    for element in sorted(nonconstants, key=str):
        predecessors = predecessor_set(structure, element)
        members = sorted(predecessors, key=str)
        for i, left in enumerate(members):
            for right in members[i + 1:]:
                left_set = predecessor_set(structure, left)
                right_set = predecessor_set(structure, right)
                if left not in right_set and right not in left_set:
                    violations.append(
                        f"P({element}) is not a directed clique: "
                        f"{left} and {right} are incomparable"
                    )

    return VTDAGReport(is_vtdag=not violations, violations=violations)


def is_vtdag(structure: Structure) -> bool:
    """Whether *structure* satisfies Definition 11."""
    return vtdag_report(structure).is_vtdag


def is_forest(structure: Structure) -> bool:
    """Whether ``C_non`` is a forest: acyclic with in-degree ≤ 1
    counting *all* binary atoms from non-constant parents.

    This is the shape Lemma 3(iii) proves for skeletons; every forest
    is a VTDAG (the ``P``-clique condition is vacuous with one parent).
    """
    if _nonconstant_cycle(structure) is not None:
        return False
    for element in structure.nonconstant_elements():
        parents = {
            d
            for d in structure.predecessors(element)
            if not isinstance(d, Constant)
        }
        if len(parents) > 1:
            return False
    return True


def max_degree(structure: Structure) -> int:
    """Largest number of facts touching a single non-constant element
    (the measure bounded by Lemma 3(iv))."""
    return max(
        (structure.degree(e) for e in structure.nonconstant_elements()),
        default=0,
    )
