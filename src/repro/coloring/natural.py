"""Natural colorings (Definition 14).

A coloring C̄ of C is *natural* (for a target type size ``m``) when

1. elements within ``P^m`` of one another have different **hues**, and
2. elements with equal **lightness** have isomorphic predecessor
   neighbourhoods ``C ↾ (P(e) ∪ C_con)``.

Construction ("It is easy to see that for each VTDAG C there exists a
natural coloring"):

* lightness — index the isomorphism class (over fixed constants) of
  each element's predecessor neighbourhood;
* hue — greedy coloring of the conflict graph whose edges join ``e``
  with every other element of ``P_m(e)``; for a structure of bounded
  in-degree the greedy pass needs only boundedly many hues (the paper's
  ``m + 1`` colors on a chain fall out of exactly this).

Constants additionally receive pairwise distinct hues, realising the
uniqueness used in Lemma 7(iii).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..lf.canonical import Incidence, canonical_label
from ..lf.structures import Structure
from ..lf.terms import Constant, Element
from ..vtdag.predecessors import (
    iterated_predecessors,
    predecessor_neighbourhood,
)
from .colors import Color, ColoredStructure, apply_coloring


def lightness_classes(structure: Structure) -> Dict[Element, int]:
    """Assign a lightness to every element.

    The lightness is an index of the isomorphism class (fixing the
    constants) of ``C ↾ (P(e) ∪ C_con)``, so Definition 14's second
    condition holds by construction.  Constants get the dedicated
    lightness key of their own identity (they are all forced distinct
    from non-constants).
    """
    table: Dict[Tuple, int] = {}
    assignment: Dict[Element, int] = {}
    incidence = Incidence(structure)
    for element in sorted(structure.domain(), key=str):
        if isinstance(element, Constant):
            key: Tuple = ("constant",)
        else:
            neighbourhood = predecessor_neighbourhood(structure, element, incidence)
            if len(neighbourhood.nonconstant_elements()) <= 7:
                key = (
                    "nonconstant",
                    canonical_label(neighbourhood),
                    neighbourhood.domain_size,
                )
            else:
                # Exact iso-labels are exponential; beyond the VTDAG
                # regime (where P(e) is tiny) fall back to a coarse
                # invariant.  Definition 14's condition 2 may then be
                # violated for exotic inputs — naturality_violations
                # still reports it honestly.
                profile = tuple(
                    sorted(
                        (fact.pred, tuple(arg == element for arg in fact.args))
                        for fact in neighbourhood.facts_about(element)
                    )
                )
                key = (
                    "approx",
                    neighbourhood.domain_size,
                    len(neighbourhood.facts()),
                    profile,
                )
        index = table.get(key)
        if index is None:
            index = len(table)
            table[key] = index
        assignment[element] = index
    return assignment


def hue_assignment(structure: Structure, m: int) -> Dict[Element, int]:
    """Greedy hues such that any two elements of one ``P_m`` set differ.

    The conflict graph joins ``e`` to every *other* member of
    ``P_m(e)``; greedy coloring over a deterministic element order
    assigns each element the least hue unused among its already-colored
    conflicts.  Constants get unique hues from a disjoint range.
    """
    conflicts: Dict[Element, Set[Element]] = {e: set() for e in structure.domain()}
    for element in structure.domain():
        if isinstance(element, Constant):
            continue
        for ancestor in iterated_predecessors(structure, element, m):
            if ancestor != element:
                conflicts[element].add(ancestor)
                conflicts.setdefault(ancestor, set()).add(element)

    hues: Dict[Element, int] = {}

    def creation_order(element: Element):
        # Nulls sort by numeric identifier (chase-creation order), so a
        # chain is greedily colored root-to-leaf and gets the paper's
        # m+1 hues rather than a scrambled-order surplus.
        from ..lf.terms import Null

        if isinstance(element, Null):
            return (0, element.ident, "")
        return (1, 0, str(element))

    nonconstants = sorted(
        (e for e in structure.domain() if not isinstance(e, Constant)),
        key=creation_order,
    )
    for element in nonconstants:
        used = {hues[other] for other in conflicts[element] if other in hues}
        hue = 0
        while hue in used:
            hue += 1
        hues[element] = hue
    highest = max(hues.values(), default=-1)
    for offset, constant in enumerate(
        sorted(structure.constant_elements(), key=str), start=1
    ):
        hues[constant] = highest + offset
    return hues


def natural_coloring(structure: Structure, m: int) -> ColoredStructure:
    """A natural coloring of *structure* for type size *m* (Def. 14)."""
    lightness = lightness_classes(structure)
    hues = hue_assignment(structure, m)
    assignment = {
        element: Color(hues[element], lightness[element])
        for element in structure.domain()
    }
    return apply_coloring(structure, assignment)


def cyclic_coloring(structure: Structure, palette: int) -> ColoredStructure:
    """A *bounded-palette* coloring: hues cycle through ``palette`` values.

    This is the coloring of the paper's Example 4 (``K_{i mod (m+1)}``)
    and the right tool for the negative experiments: Example 6 and
    Remark 3 assert that **no coloring with a fixed palette** can be
    conservative on arbitrarily long orders/chains, which only shows up
    when the palette does not grow with the structure (a fresh color
    per element always yields the identity quotient).

    Elements are cycled in a deterministic order; for a chain built
    with increasing :class:`~repro.lf.terms.Null` identifiers this
    reproduces Example 4's ``a_i ↦ K_{i mod palette}`` exactly.
    """
    if palette < 1:
        raise ValueError("palette must have at least one color")

    def order_key(element: Element):
        from ..lf.terms import Null

        if isinstance(element, Null):
            return (0, element.ident, "")
        return (1, 0, str(element))

    assignment: Dict[Element, Color] = {}
    for index, element in enumerate(sorted(structure.domain(), key=order_key)):
        assignment[element] = Color(index % palette, 0)
    return apply_coloring(structure, assignment)


def distinct_coloring(structure: Structure) -> ColoredStructure:
    """Every element its own color: the quotient becomes the identity.

    Useful as a control in experiments — trivially conservative, but
    with a palette that grows with the structure, which is exactly what
    Definition 9 does *not* allow a single coloring to do as m grows.
    """
    assignment = {
        element: Color(index, 0)
        for index, element in enumerate(sorted(structure.domain(), key=str))
    }
    return apply_coloring(structure, assignment)


def naturality_violations(
    colored: ColoredStructure, m: int
) -> List[str]:
    """Check Definition 14 on an arbitrary coloring; list violations.

    Condition 2 is checked via isomorphism over fixed constants of the
    predecessor neighbourhoods (on the *base* structure, colors
    stripped).
    """
    from ..lf.canonical import isomorphic_over_constants

    problems: List[str] = []
    base = colored.base
    incidence = Incidence(base)
    elements = sorted(base.domain(), key=str)
    for element in elements:
        for ancestor in iterated_predecessors(base, element, m):
            if ancestor == element:
                continue
            mine = colored.assignment[element]
            theirs = colored.assignment[ancestor]
            if mine.hue == theirs.hue:
                problems.append(
                    f"{element} and its P^{m}-ancestor {ancestor} share hue "
                    f"{mine.hue}"
                )
    by_lightness: Dict[int, List[Element]] = {}
    for element in elements:
        by_lightness.setdefault(colored.assignment[element].lightness, []).append(
            element
        )
    for lightness, members in sorted(by_lightness.items()):
        reference = members[0]
        reference_hood = predecessor_neighbourhood(base, reference, incidence)
        for other in members[1:]:
            other_hood = predecessor_neighbourhood(base, other, incidence)
            if isinstance(reference, Constant) != isinstance(other, Constant):
                problems.append(
                    f"lightness {lightness} mixes constants and non-constants"
                )
                continue
            if isinstance(reference, Constant):
                continue  # all constant neighbourhoods are C ↾ C_con
            try:
                isomorphic = isomorphic_over_constants(reference_hood, other_hood)
            except ValueError:
                # neighbourhoods too large for the exact test: compare
                # the cheap invariants only (see lightness_classes)
                isomorphic = (
                    reference_hood.domain_size == other_hood.domain_size
                    and len(reference_hood.facts()) == len(other_hood.facts())
                )
            if not isomorphic:
                problems.append(
                    f"lightness {lightness}: P-neighbourhoods of {reference} "
                    f"and {other} are not isomorphic"
                )
    return problems


def is_natural(colored: ColoredStructure, m: int) -> bool:
    """Whether the coloring satisfies Definition 14 for size *m*."""
    return not naturality_violations(colored, m)
