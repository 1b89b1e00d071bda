"""Partitioning a structure's domain by ``≡_n`` (Definition 4).

The quotient structures ``M_n(C)`` of Definition 5 live on exactly this
partition.  Types range over every relation of the partitioned
structure: the Theorem-2 pipeline partitions a colored skeleton ``S̄``,
colors included, since ``M_n^{Σ̄}(S̄)`` types over ``Σ̄``.  Computing
the partition naively is quadratic in the domain with an expensive
test per pair; :class:`TypePartition` makes it practical:

* the classes come in the ``str`` order of their least members, so the
  order is fixed by the class *sets* alone, whatever work found them;
* constants are singletons by Remark 1 and skip all tests;
* by Lemma 1, ``≡_n`` refines ``≡_m`` for every m < n, so each
  partition refines a coarser one: an element alone (among the
  partitioned ones) in its ``≡_m`` class is alone in its ``≡_n``
  class, with no type computed.  Without a given ``coarser=``, a
  partition at n > 1 refines its own ``≡_1`` partition;
* at n = 1 an element's only generator is the query of its 1-subset,
  which has no existential variable, so ``≡_1`` is equality of that
  query's canonical form: the ``≡_1`` partition runs no ``≡`` test;
* inside a coarser class of two or more elements, every element's
  canonical type generators are computed once and cached, all from one
  incidence index of the structure, so each generator reads only the
  facts of its own subset;
* each distinct canonical query is put in canonical form once per
  *forms* table — the Theorem-2 pipeline passes one table for its whole
  call;
* the elements of one coarser class are pre-grouped by their generator
  *set*, which over-refines nothing: equal types need not mean equal
  generator sets, so groups are then merged by the real ``≡_n`` test.

A partition refined from a coarser one at m (given, or its own
``≡_1`` one) has the classes, in the same order, of one computed by
pairwise tests, and reuses the coarser partition's work:

* it shares the coarser partition's incidence index, and grows each
  element's n-generators from its m-generators, so canonical queries
  are built only for the connected subsets of ``m + 1`` to n elements;
* two ``≡_m``-equal elements already agree on every generator of at
  most m elements: the ``≡_n`` test between them checks the grown
  generators only.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, FrozenSet, Iterable, List, Optional

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
        Types range over all the structure's relations: partitioning a
        colored structure ``C̄`` types over the full colored signature,
        which is what ``M_n^Σ̄(C̄)`` uses.
    elements:
        Restrict the partition to these elements (types are still
        computed within the whole structure).  The Theorem-2 pipeline
        uses this to quotient only the *interior* of a depth-truncated
        skeleton, whose types provably agree with the infinite chase.
    forms:
        The canonical-form table (canonical query → its
        :meth:`~repro.lf.queries.ConjunctiveQuery.canonical` form),
        filled in as generators are built.  Forms do not depend on the
        structure, so one table can serve every partition of a pass;
        by default the coarser partition's table, else a new one.
    coarser:
        A partition of the same structure object, at a smaller n,
        whose elements include these.  Its incidence index, generators
        and classes are reused (see the module docstring); the result is
        unchanged.  Anything else is a :class:`ValueError`.  Without it,
        a partition at n > 1 refines its own ``≡_1`` partition.
    """

    def __init__(
        self,
        structure: Structure,
        n: int,
        elements: "Optional[Iterable[Element]]" = None,
        forms: "Optional[Dict[ConjunctiveQuery, ConjunctiveQuery]]" = None,
        coarser: "Optional[TypePartition]" = None,
    ):
        self.structure = structure
        self.n = n
        self.elements = (
            frozenset(elements) if elements is not None else structure.domain()
        )
        if coarser is not None:
            _check_coarser(self, coarser)
            if forms is None:
                forms = coarser._forms
        self._index: "Optional[Incidence]" = None
        self._forms: Dict[ConjunctiveQuery, ConjunctiveQuery] = (
            forms if forms is not None else {}
        )
        if coarser is None and n > 1:
            coarser = TypePartition(structure, 1, self.elements, self._forms)
        self._coarser = coarser
        self._generators: Dict[Element, Dict[ConjunctiveQuery, ConjunctiveQuery]] = {}
        self._classes: "Optional[List[FrozenSet[Element]]]" = None
        self._class_of: Dict[Element, int] = {}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _incidence(self) -> Incidence:
        """The structure's incidence index, shared along the chain."""
        if self._index is None:
            if self._coarser is not None:
                self._index = self._coarser._incidence()
            else:
                self._index = Incidence(self.structure)
        return self._index

    def _generators_of(
        self, element: Element
    ) -> Dict[ConjunctiveQuery, ConjunctiveQuery]:
        """Cached generators of *element*, keyed by canonical form."""
        cached = self._generators.get(element)
        if cached is None:
            coarser = self._coarser
            base = None
            if coarser is not None:
                base = (coarser.n, coarser._generators_of(element))
            cached = type_generators(
                self.structure, element, self.n, self._incidence(), self._forms, base
            )
            self._generators[element] = cached
        return cached

    def _subsumed(self, left: Element, right: Element) -> bool:
        """``ptp_n(left) ⊆ ptp_n(right)`` using cached generators.

        When *left* and *right* are in one class of the coarser
        partition, the generators *left* has there (the first ones
        here) hold at *right* already: only the grown ones are checked.
        """
        queries: "Iterable[ConjunctiveQuery]" = self._generators_of(left).values()
        coarser = self._coarser
        if coarser is not None and coarser._same_known_class(left, right):
            queries = islice(queries, len(coarser._generators_of(left)), None)
        for query in queries:
            if not satisfies(self.structure, query, {query.free[0]: right}):
                return False
        return True

    def _same_known_class(self, left: Element, right: Element) -> bool:
        """Whether both elements are partitioned here, in one class."""
        return (
            left in self.elements
            and right in self.elements
            and self.same_class(left, right)
        )

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
        """The equivalence classes, in the ``str`` order of their least
        members."""
        if self._classes is not None:
            return self._classes

        # Members are met in str order, so each group's first member is
        # its least.  Constants are singletons (Remark 1): no tests.
        # The others are keyed by their coarser class (Lemma 1: ≡_n
        # classes lie inside it), or at n = 1 by their generator set,
        # which there is the class itself.
        groups: List[List[Element]] = []
        keyed: Dict[object, List[Element]] = {}
        coarser = self._coarser
        for element in sorted(self.elements & self.structure.domain(), key=str):
            if isinstance(element, Constant):
                groups.append([element])
            else:
                key = (
                    coarser.class_index(element)
                    if coarser is not None
                    else self._marker(element)
                )
                keyed.setdefault(key, []).append(element)
        for members in keyed.values():
            if coarser is None or len(members) == 1:
                groups.append(members)
            else:
                groups.extend(self._refine(members))
        groups.sort(key=lambda group: str(group[0]))

        classes = [frozenset(group) for group in groups]
        self._classes = classes
        self._class_of = {}
        for index, group in enumerate(classes):
            for member in group:
                self._class_of[member] = index
        return classes

    def _marker(self, element: Element) -> FrozenSet[ConjunctiveQuery]:
        """The canonical generator set of *element*: equal sets mean
        ``≡_n`` (and at n = 1 the converse holds too)."""
        return frozenset(self._generators_of(element))

    def _refine(self, members: List[Element]) -> List[List[Element]]:
        """Split one coarser class (its members here, in ``str`` order)
        into ``≡_n`` classes.

        Members are pre-grouped by their generator set — a sound
        under-approximation of ``≡_n`` — and each pre-group joins the
        first class it is ``≡_n`` to.  Pre-groups come in the order of
        their first members, so each class's first member is its least.
        """
        buckets: Dict[FrozenSet[ConjunctiveQuery], List[Element]] = {}
        for element in members:
            buckets.setdefault(self._marker(element), []).append(element)
        groups: List[List[Element]] = []
        for bucket in buckets.values():
            for group in groups:
                if self.equivalent(group[0], bucket[0]):
                    group.extend(bucket)
                    break
            else:
                groups.append(bucket)
        return groups

    def class_index(self, element: Element) -> int:
        """Index of the class containing *element*."""
        self.classes()
        return self._class_of[element]

    def same_class(self, left: Element, right: Element) -> bool:
        """Whether the two elements are ``≡_n`` (via the partition)."""
        return self.class_index(left) == self.class_index(right)

    def __len__(self) -> int:
        return len(self.classes())


def _check_coarser(partition: TypePartition, coarser: object) -> None:
    """Raise :class:`ValueError` unless *coarser* can refine into
    *partition* (see the ``coarser`` parameter)."""
    if not isinstance(coarser, TypePartition):
        raise ValueError(
            f"coarser must be a TypePartition, not {type(coarser).__name__}"
        )
    if coarser.structure is not partition.structure:
        raise ValueError("coarser must partition the same structure")
    if not coarser.n < partition.n:
        raise ValueError(
            f"coarser must be at a smaller n (got {coarser.n}, not below {partition.n})"
        )
    if not partition.elements <= coarser.elements:
        raise ValueError("coarser must partition every element partitioned here")
