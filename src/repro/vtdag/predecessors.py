"""Predecessor sets ``P(e)`` and their iterates ``P_k(e)``.

Definition 10 of the paper: for ``e ∈ C_con``, ``P(e) = {e}``; for
``e ∈ C_non``,

    P(e) = {e} ∪ { x ∈ C_non : C ⊨ R(x, e) for some binary R ∈ Σ }.

Definition 13 iterates this: ``P_0(e) = P(e)`` and
``P_k(e) = ⋃_{a ∈ P_{k-1}(e)} P(a)`` — the ancestors reachable within
``k`` backward steps.  These sets drive both the VTDAG conditions
(Definition 11) and natural colorings (Definition 14).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional, Set

from ..lf.canonical import Incidence
from ..lf.structures import Structure
from ..lf.terms import Constant, Element


def predecessor_set(structure: Structure, element: Element) -> FrozenSet[Element]:
    """The paper's ``P(e)`` (Definition 10).

    Constants are their own predecessor set; for non-constants the set
    additionally contains every *non-constant* direct predecessor
    through any binary relation.
    """
    if isinstance(element, Constant):
        return frozenset([element])
    found: Set[Element] = {element}
    for parent in structure.predecessors(element):
        if not isinstance(parent, Constant):
            found.add(parent)
    return frozenset(found)


def iterated_predecessors(
    structure: Structure, element: Element, k: int
) -> FrozenSet[Element]:
    """The paper's ``P_k(e)`` (Definition 13): ``P`` iterated ``k`` times.

    ``P_0(e) = P(e)``; each further step closes under ``P`` once.
    """
    current: Set[Element] = set(predecessor_set(structure, element))
    for _ in range(k):
        grown: Set[Element] = set()
        for member in current:
            grown.update(predecessor_set(structure, member))
        if grown == current:
            break  # reached the ancestor closure early
        current = grown
    return frozenset(current)


def predecessor_neighbourhood(
    structure: Structure,
    element: Element,
    index: "Optional[Incidence]" = None,
) -> Structure:
    """The structure ``C ↾ (P(e) ∪ C_con)`` used as a color's lightness.

    Definition 14's second condition compares these neighbourhoods up to
    isomorphism.  The facts are read from the structure's
    :class:`~repro.lf.canonical.Incidence` *index* (one is built when it
    is omitted), so a pass that builds many neighbourhoods of one
    structure passes one index instead of rescanning the structure per
    element.
    """
    index = Incidence.of(structure, None, index)
    elements = {
        m for m in predecessor_set(structure, element) if structure.has_element(m)
    } | index.constants
    return Structure._from_validated(
        index.facts_among(elements), elements, structure.signature, structure.strict
    )
