"""Partitioning a structure's domain by ``≡_n`` (Definition 4).

The quotient structures ``M_n(C)`` of Definition 5 live on exactly this
partition.  Computing it naively is quadratic in the domain with an
expensive test per pair; :class:`TypePartition` makes it practical:

* every element's canonical type generators are computed once and
  cached, all from one incidence index of the structure, so each
  generator reads only the facts of its own subset, and each distinct
  canonical query is put in canonical form once per partition;
* elements are pre-grouped by a cheap invariant (their generator
  *set*, which over-refines nothing: equal types need not mean equal
  generator sets, so groups are then merged by the real ``≡_n`` test);
* constants are singletons by Remark 1 and skip all tests.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..lf.canonical import Incidence
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.structures import Structure
from ..lf.terms import Constant, Element
from .ptype import type_generators


class TypePartition:
    """The ``≡_n`` partition of a structure's domain.

    Parameters
    ----------
    structure:
        The structure whose domain is partitioned.
    n:
        The type size (Definition 3's bound: at most ``n`` variables).
    relation_names:
        Optional sub-signature over which types are computed — when
        partitioning a colored structure ``C̄`` the types are taken over
        the *full* colored signature (that is what ``M_n^Σ̄(C̄)`` uses),
        so this is usually left ``None``.
    elements:
        Restrict the partition to these elements (types are still
        computed within the whole structure).  The Theorem-2 pipeline
        uses this to quotient only the *interior* of a depth-truncated
        skeleton, whose types provably agree with the infinite chase.
    """

    def __init__(
        self,
        structure: Structure,
        n: int,
        relation_names: "Optional[Iterable[str]]" = None,
        elements: "Optional[Iterable[Element]]" = None,
    ):
        self.structure = structure
        self.n = n
        self.relation_names = (
            frozenset(relation_names) if relation_names is not None else None
        )
        self.elements = (
            frozenset(elements) if elements is not None else structure.domain()
        )
        self._index: "Optional[Incidence]" = None
        self._forms: Dict[ConjunctiveQuery, ConjunctiveQuery] = {}
        self._generators: Dict[Element, Dict[ConjunctiveQuery, ConjunctiveQuery]] = {}
        self._classes: "Optional[List[FrozenSet[Element]]]" = None
        self._class_of: Dict[Element, int] = {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _generators_of(
        self, element: Element
    ) -> Dict[ConjunctiveQuery, ConjunctiveQuery]:
        """Cached generators of *element*, keyed by canonical form."""
        cached = self._generators.get(element)
        if cached is None:
            if self._index is None:
                self._index = Incidence(self.structure, self.relation_names)
            cached = type_generators(
                self.structure,
                element,
                self.n,
                self.relation_names,
                self._index,
                self._forms,
            )
            self._generators[element] = cached
        return cached

    def _subsumed(self, left: Element, right: Element) -> bool:
        """``ptp_n(left) ⊆ ptp_n(right)`` using cached generators."""
        for query in self._generators_of(left).values():
            if not satisfies(self.structure, query, {query.free[0]: right}):
                return False
        return True

    def equivalent(self, left: Element, right: Element) -> bool:
        """Definition 4's ``≡_n`` (cached, constant-aware)."""
        if left == right:
            return True
        if isinstance(left, Constant) or isinstance(right, Constant):
            return False
        return self._subsumed(left, right) and self._subsumed(right, left)

    # ------------------------------------------------------------------
    # The partition
    # ------------------------------------------------------------------
    def classes(self) -> List[FrozenSet[Element]]:
        """The equivalence classes, deterministically ordered."""
        if self._classes is not None:
            return self._classes

        classes: List[FrozenSet[Element]] = []
        # Constants are singletons (Remark 1) — no tests needed.
        for constant in sorted(self.structure.constant_elements(), key=str):
            if constant in self.elements:
                classes.append(frozenset([constant]))

        # Pre-group by the canonical generator set: a sound
        # under-approximation of ≡_n (equal sets ⟹ equal types) —
        # those groups merge instantly; the remaining merges use the
        # pairwise test.
        buckets: Dict[FrozenSet, List[Element]] = {}
        chosen = [
            e
            for e in sorted(self.structure.nonconstant_elements(), key=str)
            if e in self.elements
        ]
        for element in chosen:
            marker = frozenset(self._generators_of(element))
            buckets.setdefault(marker, []).append(element)

        representatives: List[Tuple[Element, List[Element]]] = []
        for marker in sorted(buckets, key=lambda m: sorted(str(q) for q in m)):
            members = buckets[marker]
            # equal generator sets ⟹ equivalent: one group
            placed = False
            for rep, group in representatives:
                if self.equivalent(rep, members[0]):
                    group.extend(members)
                    placed = True
                    break
            if not placed:
                representatives.append((members[0], list(members)))

        for _, group in representatives:
            classes.append(frozenset(group))
        self._classes = classes
        self._class_of = {}
        for index, group in enumerate(classes):
            for member in group:
                self._class_of[member] = index
        return classes

    def class_index(self, element: Element) -> int:
        """Index of the class containing *element*."""
        self.classes()
        return self._class_of[element]

    def same_class(self, left: Element, right: Element) -> bool:
        """Whether the two elements are ``≡_n`` (via the partition)."""
        return self.class_index(left) == self.class_index(right)

    def __len__(self) -> int:
        return len(self.classes())
