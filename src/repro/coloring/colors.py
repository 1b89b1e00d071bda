"""Colors ``K_h^l`` and colorings (Definitions 6 and 7).

A *color* is a unary predicate with two coordinates: its **hue** ``h``
and its **lightness** ``l``.  A *coloring* of a structure C over Σ is a
structure C̄ over Σ̄ ⊆ Σ ∪ K that restricts to C over Σ and gives every
element exactly one color.

Hue and lightness play different roles in natural colorings
(Definition 14): hues must differ along short ancestor chains, while
equal lightness certifies isomorphic predecessor neighbourhoods.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional

from ..errors import ColoringError
from ..lf.atoms import Atom
from ..lf.structures import Structure
from ..lf.terms import Constant, Element

_COLOR_NAME = re.compile(r"^K_h(\d+)_l(\d+)$")


@dataclass(frozen=True, order=True)
class Color:
    """The color ``K_h^l`` (Definition 6).

    Attributes
    ----------
    hue:
        The paper's ``h``.
    lightness:
        The paper's ``l``.
    """

    hue: int
    lightness: int

    @property
    def predicate(self) -> str:
        """The unary predicate name encoding this color."""
        return f"K_h{self.hue}_l{self.lightness}"

    @staticmethod
    def parse(name: str) -> "Optional[Color]":
        """Recover a color from its predicate name, or ``None``."""
        match = _COLOR_NAME.match(name)
        if match is None:
            return None
        return Color(int(match.group(1)), int(match.group(2)))

    def __str__(self) -> str:
        return f"K_h{self.hue}^l{self.lightness}"


@dataclass
class ColoredStructure:
    """A coloring C̄ of a structure C (Definition 7).

    Attributes
    ----------
    structure:
        C̄ itself: the base facts plus one color atom per element.
    base_relations:
        The names of Σ (the color predicates are exactly the rest).
    assignment:
        element → :class:`Color`.
    """

    structure: Structure
    base_relations: FrozenSet[str]
    assignment: Dict[Element, Color]

    @property
    def base(self) -> Structure:
        """``C̄ ↾ Σ``: the structure without its colors."""
        return self.structure.restrict_signature(self.base_relations)

    def colors_used(self) -> FrozenSet[Color]:
        """The set of colors actually assigned."""
        return frozenset(self.assignment.values())

    @property
    def palette_size(self) -> int:
        """Number of distinct colors."""
        return len(self.colors_used())

    def verify(self) -> List[str]:
        """Check Definition 7; return violations (empty = valid).

        1. color predicates are disjoint from Σ;
        2. ``C̄ ↾ Σ`` equals the base facts;
        3. every element has exactly one color atom, matching the
           assignment table.
        """
        problems: List[str] = []
        for name in self.base_relations:
            if Color.parse(name) is not None:
                problems.append(f"base relation {name} looks like a color")
        counts: Dict[Element, int] = {e: 0 for e in self.structure.domain()}
        for fact in self.structure.facts():
            color = Color.parse(fact.pred)
            if color is None:
                continue
            if fact.arity != 1:
                problems.append(f"color atom not unary: {fact}")
                continue
            element = fact.args[0]
            counts[element] = counts.get(element, 0) + 1
            if self.assignment.get(element) != color:
                problems.append(
                    f"{element} colored {color} but assigned "
                    f"{self.assignment.get(element)}"
                )
        for element, count in counts.items():
            if count != 1:
                problems.append(f"{element} has {count} color atoms (need 1)")
        return problems


def apply_coloring(
    structure: Structure,
    assignment: Dict[Element, Color],
) -> ColoredStructure:
    """Build C̄ from C and a total color assignment.

    Raises
    ------
    ColoringError
        If some domain element lacks a color, or a base relation name
        collides with a color predicate.
    """
    missing = [e for e in structure.domain() if e not in assignment]
    if missing:
        raise ColoringError(f"elements without a color: {sorted(missing, key=str)[:5]}")
    base_names = structure.signature.relation_names()
    for name in base_names:
        if Color.parse(name) is not None:
            raise ColoringError(f"base relation {name} collides with color namespace")
    domain = structure.domain()
    color_facts = [
        Atom(assignment[element].predicate, (element,))
        for element in sorted(domain, key=str)
    ]
    # One signature extension: the color predicates, and the constants
    # that only a color fact names (an isolated domain constant).
    signature = structure.signature.with_relations(
        {fact.pred: 1 for fact in color_facts}
    ).with_constants(
        element for element in domain if isinstance(element, Constant)
    )
    colored = Structure._from_validated(
        itertools.chain(structure, color_facts), set(domain), signature
    )
    return ColoredStructure(
        structure=colored,
        base_relations=frozenset(base_names),
        assignment=dict(assignment),
    )


def coloring_from_structure(structure: Structure) -> ColoredStructure:
    """Recover a :class:`ColoredStructure` from a structure that already
    contains color atoms (e.g. after parsing or quotienting).

    Raises
    ------
    ColoringError
        If some element does not have exactly one color atom.
    """
    assignment: Dict[Element, Color] = {}
    base_names = set()
    for name in structure.signature.relation_names():
        if Color.parse(name) is None:
            base_names.add(name)
    for fact in structure.facts():
        color = Color.parse(fact.pred)
        if color is None:
            continue
        element = fact.args[0]
        if element in assignment and assignment[element] != color:
            raise ColoringError(f"{element} has two colors")
        assignment[element] = color
    missing = [e for e in structure.domain() if e not in assignment]
    if missing:
        raise ColoringError(f"uncolored elements: {sorted(missing, key=str)[:5]}")
    return ColoredStructure(
        structure=structure.copy(),
        base_relations=frozenset(base_names),
        assignment=assignment,
    )
