"""Canonical queries of substructures, and canonical keys of structures.

Two constructions used throughout the positive-type machinery:

* the **canonical query** of ``C ↾ S`` around a distinguished element
  ``d``: every fact of C whose arguments lie in S becomes an atom, but
  those whose arguments are all constants other than ``d``, with
  non-constant elements turned into variables (``d`` becoming the free
  variable ``y``) and constants kept.  The key property (proved in
  :mod:`repro.ptypes.ptype`) is that the canonical queries of the
  ≤ n-element subsets around ``d`` *generate* the positive n-type of
  ``d`` under query homomorphism.  The query ranges over every relation
  of C: a caller that types over a sub-signature Σ passes ``C ↾ Σ``.

* the **canonical key** of a structure: a string that two structures
  share exactly when they are isomorphic over the constants — the
  *lightness* of a color in natural colorings (Definition 14 requires
  equal lightness to imply isomorphic ``C ↾ (P(e) ∪ C_con)``) and the
  finite-model search's dedup key.

Canonical queries and neighbourhoods read a structure through an
:class:`Incidence` index — each element's facts, built in one pass —
so they cost the facts of their own elements, not a scan of the whole
structure.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .queries import ConjunctiveQuery, _atom_sort_key, numbered_variables
from .structures import Structure
from .terms import Constant, Element, Variable

#: The free variable of canonical type queries — the paper's ``y``.
FREE_VARIABLE = Variable("y")

#: The most orders of the non-constant elements :func:`canonical_key`
#: renders (8!, one class of 8); past it the key is no longer canonical.
MAX_ORDERS = 40_320


class Incidence:
    """Which facts mention each element, for one structure.

    Built in one pass over the structure's facts.  The readers below
    then touch only the facts of the elements they care about, instead
    of scanning the whole structure once per subset.

    The index is a snapshot: it does not follow later changes to the
    structure.  Build one per pass (a partition, a report, a coloring)
    and drop it with the pass.

    Attributes
    ----------
    constants:
        ``C_con``, the constant elements of the structure's domain.
    pinned:
        The facts with no non-constant argument, nullary facts
        included — the part of the structure that every restriction
        ``C ↾ (S ∪ C_con)`` keeps whatever S is.
    """

    __slots__ = ("constants", "pinned", "_facts", "_neighbours")

    def __init__(self, structure: Structure):
        self.constants: FrozenSet[Constant] = structure.constant_elements()
        self.pinned: List[Atom] = []
        self._facts: Dict[Element, List[Atom]] = {}
        self._neighbours: Dict[Element, List[Element]] = {}
        for fact in structure:
            pinned = True
            for arg in set(fact.args):
                self._facts.setdefault(arg, []).append(fact)
                if not isinstance(arg, Constant):
                    pinned = False
            if pinned:
                self.pinned.append(fact)

    def facts_of(self, element: Element) -> "Sequence[Atom]":
        """The facts that mention *element*."""
        return self._facts.get(element, ())

    def facts_among(self, chosen: "Set[Element]") -> List[Atom]:
        """The facts whose arguments all lie in *chosen*.

        A fact with a non-constant argument is listed under that
        argument, which must itself be chosen, so the candidates are the
        chosen non-constant elements' facts plus the pinned facts.
        """
        candidates: Set[Atom] = set()
        for element in chosen:
            if not isinstance(element, Constant):
                candidates.update(self.facts_of(element))
        candidates.update(self.pinned)
        return [fact for fact in candidates if chosen.issuperset(fact.args)]

    def neighbours(self, element: Element) -> List[Element]:
        """The non-constant elements sharing a fact with *element*, sorted."""
        found = self._neighbours.get(element)
        if found is None:
            found = sorted(
                {
                    arg
                    for fact in self.facts_of(element)
                    for arg in fact.args
                    if arg != element and not isinstance(arg, Constant)
                },
                key=str,
            )
            self._neighbours[element] = found
        return found


def canonical_query(
    structure: Structure,
    elements: Iterable[Element],
    distinguished: Element,
    index: "Optional[Incidence]" = None,
) -> ConjunctiveQuery:
    """The canonical CQ of ``structure ↾ elements`` around *distinguished*.

    Atoms whose arguments are all constants other than *distinguished*
    are left out: as the paper notes in Section 4, they are irrelevant,
    because projections leave the constant part of a structure
    unchanged.

    Parameters
    ----------
    structure:
        The ambient structure; the query ranges over all its relations
        (to type over a sub-signature Σ, pass ``C ↾ Σ``, see
        :meth:`~repro.lf.structures.Structure.restrict_signature`).
    elements:
        The subset S (must contain *distinguished*).
    distinguished:
        The element that becomes the free variable ``y``.  If it is a
        constant, the query additionally contains the equality atom
        ``y = c`` — this is how Remark 1's separation of constants is
        realised.
    index:
        The structure's :class:`Incidence`.  Callers that build many
        canonical queries of one structure pass it so each query reads
        only the facts of its own elements; without it one is built
        here.

    Returns
    -------
    ConjunctiveQuery
        With exactly one free variable ``y``; all other elements of S
        that are not constants become existential variables.
    """
    chosen = set(elements)
    if distinguished not in chosen:
        raise ValueError("distinguished element must belong to the subset")
    if index is None:
        index = Incidence(structure)

    # The distinguished element becomes y, the other non-constant
    # elements x0, x1, ... in str order; constants stay themselves.
    table: Dict[Element, object] = {distinguished: FREE_VARIABLE}
    others = sorted(
        (e for e in chosen if e != distinguished and not isinstance(e, Constant)),
        key=str,
    )
    table.update(zip(others, numbered_variables("x", len(others))))

    # A fact that is not constant-only (bar y) has a non-constant
    # argument or y among its arguments, so it is listed under a chosen
    # non-constant element or under y.  The facts are distinct and the
    # table is injective, so the atoms are distinct too, and y = c
    # cannot repeat one (c itself maps to y).
    candidates: Set[Atom] = set()
    for element in chosen:
        if not isinstance(element, Constant) or element == distinguished:
            candidates.update(index.facts_of(element))
    constant_anchor = isinstance(distinguished, Constant)
    anchored = constant_anchor
    atoms: List[Atom] = []
    for fact in candidates:
        args = fact.args
        if not chosen.issuperset(args):
            continue
        terms = tuple(map(table.get, args, args))
        if not anchored and FREE_VARIABLE in terms:
            anchored = True
        atoms.append(Atom(fact.pred, terms))
    if constant_anchor:
        atoms.append(Atom("=", (FREE_VARIABLE, distinguished)))
    if not anchored:
        # The distinguished element occurs in no selected fact; the type
        # contribution is the trivial query "y exists", which we encode
        # as the empty conjunction with a free variable obtained from a
        # vacuous equality y = y (always true).
        atoms.append(Atom("=", (FREE_VARIABLE, FREE_VARIABLE)))
    atoms.sort(key=_atom_sort_key)
    return ConjunctiveQuery._from_validated(tuple(atoms), (FREE_VARIABLE,))


def subsets_containing(
    pool: Iterable[Element],
    anchor: Element,
    max_size: int,
) -> "Iterable[FrozenSet[Element]]":
    """All subsets of *pool* ∪ {anchor} of size ≤ *max_size* containing
    *anchor*, enumerated without repetition (anchor excluded from pool).

    The enumeration is depth-first over a sorted pool, so it is
    deterministic.
    """
    others = sorted((e for e in pool if e != anchor), key=str)
    chosen: List[Element] = []

    def walk(start: int, remaining: int):
        yield frozenset([anchor, *chosen])
        if remaining == 0:
            return
        for index in range(start, len(others)):
            chosen.append(others[index])
            yield from walk(index + 1, remaining - 1)
            chosen.pop()

    yield from walk(0, max_size - 1)


def connected_subsets_containing(
    structure: Structure,
    anchor: Element,
    max_size: int,
    index: "Optional[Incidence]" = None,
    min_size: int = 1,
) -> "Iterable[FrozenSet[Element]]":
    """Connected subsets of the non-constant elements containing *anchor*,
    of *min_size* to *max_size* elements.

    Two non-constant elements are adjacent when they co-occur in a fact;
    constants never connect anything — in a query, constants are fixed
    pins, so components joined only through a constant are
    independently satisfiable.  Enumerating connected subsets (instead
    of all subsets) is exactly what the positive-type machinery needs;
    see :mod:`repro.ptypes.ptype` for the argument.

    Uses the standard extension enumeration: a subset is grown only
    through neighbours of its members, and elements already *declined*
    at an earlier branch are excluded, so each subset appears once.
    Adjacency is read from the structure's *index* (one is built here
    when it is omitted).  Subsets below *min_size* are still walked
    through, but not yielded.
    """
    if index is None:
        index = Incidence(structure)
    neighbours = index.neighbours

    # The anchor itself is always connectable — even when it is a
    # constant: in the canonical query the distinguished element becomes
    # the *variable* y, so connectivity through it is real connectivity.
    # All other constants stay cuts (they are pins in the query).
    chosen: List[Element] = [anchor]
    banned: Set[Element] = {anchor}

    def frontier() -> List[Element]:
        found = set()
        for member in chosen:
            for neighbour in neighbours(member):
                if neighbour not in banned:
                    found.add(neighbour)
        return sorted(found, key=str)

    def walk(remaining: int):
        if len(chosen) >= min_size:
            yield frozenset(chosen)
        if remaining == 0:
            return
        candidates = frontier()
        declined: List[Element] = []
        for candidate in candidates:
            chosen.append(candidate)
            banned.add(candidate)
            yield from walk(remaining - 1)
            chosen.pop()
            declined.append(candidate)
        for candidate in declined:
            banned.discard(candidate)

    yield from walk(max_size - 1)


def _refine_classes(
    structure: Structure, nonconstants: "Sequence[Element]"
) -> "List[List[Element]]":
    """Partition *nonconstants* by iterated neighbourhood colors.

    Classic color refinement (1-WL) with constants as fixed anchors:
    the initial color of an element is the multiset of fact shapes it
    occurs in (constants spelled out, other non-constants blanked);
    each round re-colors by the neighbours' current colors, until the
    partition stops splitting.  Elements in different classes cannot be
    exchanged by any isomorphism fixing the constants, so a canonical
    form only needs to consider permutations *within* classes.

    The class order returned is itself canonical (colors are ranks of
    canonically-sorted view values, so the final color order is the
    same for isomorphic structures), so renderings may rely on it.
    """
    # Elements are mapped to dense indices up front so the refinement
    # rounds touch only ints and lists — the dict probe that finds an
    # element's slot is paid once here, not once per neighbour per round.
    #
    # Per-index templates, built once: each incident fact becomes a
    # ``(skeleton, neighbours)`` pair where the skeleton spells out the
    # predicate plus the constant/null positions, and *neighbours* lists
    # the fact's non-constant arguments (as indices) in position order.
    # A round's view of an element is then just the skeletons with the
    # current neighbour colors appended — no per-round arg inspection.
    # The same pass records who shares a fact, for the color seed below.
    total = len(nonconstants)
    index: Dict[Element, int] = {element: i for i, element in enumerate(nonconstants)}
    templates: List[List[Tuple]] = [[] for _ in range(total)]
    neighbours: List[Set[int]] = [set() for _ in range(total)]
    anchored: Set[int] = set()
    for fact in structure.facts():
        skeleton: List[str] = [fact.pred]
        nulls: List[int] = []
        for arg in fact.args:
            if isinstance(arg, Constant):
                skeleton.append("c:" + str(arg))
            else:
                skeleton.append("v%d" % len(nulls))
                nulls.append(index[arg])
        if not nulls:
            continue
        entry = (tuple(skeleton), tuple(nulls))
        members = set(nulls)
        if len(nulls) < len(fact.args):
            anchored.update(members)
        for i in members:
            templates[i].append(entry)
            neighbours[i].update(members)

    # Seed colors with the BFS distance to the constants (through
    # shared facts).  Distance is invariant under any isomorphism
    # fixing the constants, and for the tree/path-shaped states the
    # chase builds it discriminates most elements immediately — pure
    # refinement from a uniform coloring would need one round per hop
    # of diameter to propagate the same information.
    distance = [total + 1] * total  # sentinel: unreachable from constants
    frontier = sorted(anchored)
    depth = 0
    while frontier:
        next_frontier: Set[int] = set()
        for i in frontier:
            if distance[i] <= depth:
                continue
            distance[i] = depth
            next_frontier.update(neighbours[i])
        frontier = [i for i in next_frontier if distance[i] > depth + 1]
        depth += 1

    # Colors are integers (ranks of sorted distinct views).  Because a
    # view embeds the element's current color, colors only ever refine:
    # once two elements get different colors they keep different colors,
    # so the *final* color alone identifies an element's class.
    rank = {d: r for r, d in enumerate(sorted(set(distance)))}
    color = [rank[d] for d in distance]
    classes = len(rank)

    while classes < total:
        views = [
            (color[i], tuple(sorted(
                (skeleton, tuple(color[j] for j in nulls))
                for skeleton, nulls in templates[i]
            )))
            for i in range(total)
        ]
        palette = {v: rank for rank, v in enumerate(sorted(set(views)))}
        color = [palette[view] for view in views]
        if len(palette) == classes:
            break
        classes = len(palette)

    grouped: Dict[int, List[Element]] = {}
    for i, element in enumerate(nonconstants):
        grouped.setdefault(color[i], []).append(element)
    return [grouped[key] for key in sorted(grouped)]


def canonical_key(structure: Structure) -> str:
    """The canonical form of *structure* up to renaming its non-constant
    elements: equal keys exactly for structures isomorphic over the
    constants.

    A key spells out the full fact set with the non-constant elements
    indexed, so equal keys imply isomorphism.  The indexing is the one
    that renders least among the orders of the non-constant elements
    that keep color refinement's classes in their canonical order, so
    isomorphic structures render the same least key.  This is the
    lightness of natural colorings (Definition 14), and what the
    finite-model search hashes its states by: rules and queries never
    mention nulls, so states that differ only in invented null names
    have identical futures.

    When the classes allow more than :data:`MAX_ORDERS` orders, the key
    renders the raw element names instead: equal keys still imply
    isomorphism, but isomorphic structures may get different keys.
    """
    # Predicates and constants are spelled by the builtin repr of their
    # names, which no name can imitate: a quoted constant may hold
    # commas, and a predicate built outside the parser anything.
    nonconstants = sorted(structure.nonconstant_elements(), key=str)
    suffix = "|n=%d|con=%s" % (
        len(nonconstants),
        ",".join(sorted(map(str.__repr__, structure.constant_elements()))),
    )

    def render(order: Sequence[Element]) -> str:
        table = {element: f"#{i}" for i, element in enumerate(order)}
        lines = []
        for fact in structure.facts():
            args = ",".join(
                str.__repr__(arg) if isinstance(arg, Constant) else table[arg]
                for arg in fact.args
            )
            lines.append(f"{str.__repr__(fact.pred)}({args})")
        lines.sort()
        return ";".join(lines) + suffix

    if len(nonconstants) <= 2:
        # At most two orders: rendering both costs less than refining.
        return min(render(order) for order in permutations(nonconstants))

    classes = _refine_classes(structure, nonconstants)
    total = 1
    for group in classes:
        for size in range(2, len(group) + 1):
            total *= size
        if total > MAX_ORDERS:
            return render(nonconstants)

    if total == 1:
        return render([element for group in classes for element in group])
    orderings = product(*(permutations(group) for group in classes))
    return min(
        render([element for group in ordering for element in group])
        for ordering in orderings
    )


def isomorphic_over_constants(left: Structure, right: Structure) -> bool:
    """Whether a bijection fixing every constant maps *left* onto *right*.

    Structures with different constant elements, domain sizes or fact
    counts are rejected at once; the others compare their
    :func:`canonical_key`.  The test is exact unless a side's refinement
    classes allow more than :data:`MAX_ORDERS` orders (for a single
    class, more than 8 elements): ``True`` is always a proof, ``False``
    then may not be.
    """
    if left.constant_elements() != right.constant_elements():
        return False
    if left.domain_size != right.domain_size or len(left.facts()) != len(right.facts()):
        return False
    return canonical_key(left) == canonical_key(right)
