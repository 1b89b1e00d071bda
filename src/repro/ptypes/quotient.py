"""Quotient structures ``M_n(C)`` (Definition 5) and the projections ``q_n``.

``M_n(C)`` has the ``≡_n``-classes as elements, with the minimal
relations making the quotient map a homomorphism: a tuple of classes is
related iff some tuple of representatives is.  Constants are singleton
classes (Remark 1) and keep their identity; every other class is
materialised as a fresh :class:`~repro.lf.terms.Null` so quotients can
be chased, colored, and quotiented again.

Lemma 1's two claims are executable here:
:func:`projections_compatible` checks that ``q_n``-equal elements are
``q_{n-1}``-equal, and :func:`induced_projection` builds the map
``M_{n+1}(C) → M_n(C)`` of (♠1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from ..lf.atoms import Atom
from ..lf.structures import Structure
from ..lf.terms import Constant, Element, Null
from .partition import TypePartition


@dataclass
class Quotient:
    """The result of a quotient operation.

    Attributes
    ----------
    structure:
        ``M_n(C)`` itself.
    projection:
        The map ``q_n : Dom(C) → Dom(M_n(C))``.
    classes:
        The underlying ``≡_n``-classes, aligned with class elements.
    n:
        The type size used.
    source:
        The structure that was quotiented.
    """

    structure: Structure
    projection: Dict[Element, Element]
    classes: List[FrozenSet[Element]]
    n: int
    source: Structure

    def project(self, element: Element) -> Element:
        """``q_n(element)``."""
        return self.projection[element]

    def project_fact(self, fact: Atom) -> Atom:
        """The image of a fact under ``q_n``."""
        return fact.substitute(self.projection)  # type: ignore[arg-type]

    def fiber(self, image: Element) -> FrozenSet[Element]:
        """``q_n^{-1}(image)``: the class projected onto *image*."""
        members = [e for e, v in self.projection.items() if v == image]
        return frozenset(members)

    @property
    def size(self) -> int:
        """Number of elements of the quotient."""
        return self.structure.domain_size


def quotient(
    structure: Structure,
    n: int,
    partition: "Optional[TypePartition]" = None,
    elements: "Optional[Iterable[Element]]" = None,
) -> Quotient:
    """Build ``M_n(C)`` per Definition 5.

    Parameters
    ----------
    structure:
        The structure C (usually a colored skeleton ``S̄``).  Types range
        over all its relations — the paper's ``M_n^{Σ̄}(C̄)`` when C is
        colored.
    n:
        The type size.
    partition:
        A pre-computed ``≡_n`` partition of this structure object to
        reuse; one of another structure, at another n, or of other
        elements than *elements* (when given) is a :class:`ValueError`.
    elements:
        Quotient only this subset of the domain (types still computed in
        the whole structure); facts touching excluded elements are
        dropped.  Used by the Theorem-2 pipeline to quotient the
        interior of a truncated skeleton.  With a *partition*, the
        default is the partition's elements.
    """
    if partition is None:
        partition = TypePartition(structure, n, elements)
    elif partition.structure is not structure:
        raise ValueError("the partition must be of the quotiented structure")
    elif partition.n != n:
        raise ValueError(f"the partition is at n = {partition.n}, not {n}")
    elif elements is not None and frozenset(elements) != partition.elements:
        raise ValueError("the partition must be of the given elements")
    classes = partition.classes()

    projection: Dict[Element, Element] = {}
    next_null = 0
    for group in classes:
        representative = sorted(group, key=str)[0]
        if isinstance(representative, Constant):
            image: Element = representative
        else:
            image = Null(next_null, rule_index=-1, level=-1)
            next_null += 1
        for member in group:
            projection[member] = image

    projected = Structure(signature=structure.signature)
    for element in structure.domain():
        if element in projection:
            projected.add_element(projection[element])
    for fact in structure.facts():
        if all(arg in projection for arg in fact.args):
            projected.add_fact(fact.substitute(projection))  # type: ignore[arg-type]

    return Quotient(
        structure=projected,
        projection=projection,
        classes=classes,
        n=n,
        source=structure,
    )


def projections_compatible(finer: Quotient, coarser: Quotient) -> bool:
    """Lemma 1, first claim: ``q_n(d) = q_n(e) ⟹ q_{n-1}(d) = q_{n-1}(e)``.

    *finer* is the quotient at the larger n, *coarser* at the smaller.
    """
    if finer.source is not coarser.source and not finer.source.same_facts(
        coarser.source
    ):
        raise ValueError("quotients must be of the same structure")
    by_fine_image: Dict[Element, Element] = {}
    for element, fine_image in finer.projection.items():
        coarse_image = coarser.projection[element]
        known = by_fine_image.get(fine_image)
        if known is None:
            by_fine_image[fine_image] = coarse_image
        elif known != coarse_image:
            return False
    return True


def induced_projection(finer: Quotient, coarser: Quotient) -> Dict[Element, Element]:
    """The map ``M_{n+1}(C) → M_n(C)`` of (♠1).

    Well defined by Lemma 1; raises if the quotients are incompatible
    (which would falsify the lemma).
    """
    if not projections_compatible(finer, coarser):
        raise ValueError("projections are not compatible (Lemma 1 violated?)")
    mapping: Dict[Element, Element] = {}
    for element, fine_image in finer.projection.items():
        mapping[fine_image] = coarser.projection[element]
    return mapping


def is_homomorphic_image(quotiented: Quotient) -> bool:
    """Sanity check: ``q_n`` is a homomorphism and the relations of
    ``M_n(C)`` are minimal (every quotient fact is the image of a
    source fact) — the two halves of Definition 5."""
    source_images = {
        fact.substitute(quotiented.projection)  # type: ignore[arg-type]
        for fact in quotiented.source.facts()
        if all(arg in quotiented.projection for arg in fact.args)
    }
    return source_images == set(quotiented.structure.facts())
