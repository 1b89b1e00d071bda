"""Canonical queries of substructures, and canonical labels.

Two constructions used throughout the positive-type machinery:

* the **canonical query** of ``C ↾ S`` around a distinguished element
  ``d``: every fact of C whose arguments lie in S becomes an atom, with
  non-constant elements turned into variables (``d`` becoming the free
  variable ``y``) and constants kept.  The key property (proved in
  :mod:`repro.ptypes.ptype`) is that the canonical queries of the
  ≤ n-element subsets around ``d`` *generate* the positive n-type of
  ``d`` under query homomorphism.

* a **canonical label** of a small structure: a string invariant under
  isomorphisms that fix the constants — used as the *lightness* of a
  color in natural colorings (Definition 14 requires equal lightness to
  imply isomorphic ``C ↾ (P(e) ∪ C_con)``).

Both read a structure through an :class:`Incidence` index — each
element's facts, built in one pass — so a canonical query or a
neighbourhood costs the facts of its own elements, not a scan of the
whole structure.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .queries import ConjunctiveQuery
from .structures import Structure
from .terms import Constant, Element, Variable

#: The free variable of canonical type queries — the paper's ``y``.
FREE_VARIABLE = Variable("y")


class Incidence:
    """Which facts mention each element, for one structure.

    Built in one pass over the structure's public iteration protocol
    (so every fact-store backend takes the same path), restricted to
    *relation_names* when given.  The readers below then touch only the
    facts of the elements they care about, instead of scanning the
    whole structure once per subset.

    The index is a snapshot: it does not follow later changes to the
    structure.  Build one per pass (a partition, a report, a coloring)
    and drop it with the pass.

    Attributes
    ----------
    relation_names:
        The relations the index was restricted to (``None``: all).
    constants:
        ``C_con``, the constant elements of the structure's domain.
    pinned:
        The facts with no non-constant argument, nullary facts
        included — the part of the structure that every restriction
        ``C ↾ (S ∪ C_con)`` keeps whatever S is.
    """

    __slots__ = ("relation_names", "constants", "pinned", "_facts", "_neighbours")

    def __init__(
        self,
        structure: Structure,
        relation_names: "Optional[Iterable[str]]" = None,
    ):
        allowed = frozenset(relation_names) if relation_names is not None else None
        self.relation_names: "Optional[FrozenSet[str]]" = allowed
        self.constants: FrozenSet[Constant] = structure.constant_elements()
        self.pinned: List[Atom] = []
        self._facts: Dict[Element, List[Atom]] = {}
        self._neighbours: Dict[Element, List[Element]] = {}
        for fact in structure:
            if allowed is not None and fact.pred not in allowed:
                continue
            pinned = True
            for arg in set(fact.args):
                self._facts.setdefault(arg, []).append(fact)
                if not isinstance(arg, Constant):
                    pinned = False
            if pinned:
                self.pinned.append(fact)

    @classmethod
    def of(
        cls,
        structure: Structure,
        relation_names: "Optional[Iterable[str]]" = None,
        index: "Optional[Incidence]" = None,
    ) -> "Incidence":
        """*index* when one is given, else a new index of *structure*.

        A given index must have been built for *relation_names*: reading
        facts of other relations would change the queries built from it.
        """
        if index is None:
            return cls(structure, relation_names)
        wanted = frozenset(relation_names) if relation_names is not None else None
        if index.relation_names != wanted:
            raise ValueError(
                "the incidence index was built for other relations "
                f"({sorted(index.relation_names or ())} vs {sorted(wanted or ())})"
            )
        return index

    def facts_of(self, element: Element) -> "Sequence[Atom]":
        """The facts (of the indexed relations) that mention *element*."""
        return self._facts.get(element, ())

    def facts_among(
        self, chosen: "Set[Element]", pinned: bool = True
    ) -> List[Atom]:
        """The indexed facts whose arguments all lie in *chosen*.

        A fact with a non-constant argument is listed under that
        argument, which must itself be chosen, so the candidates are the
        chosen non-constant elements' facts plus, when *pinned* is true,
        the pinned facts.  With *pinned* false the facts among constants
        only are left out.
        """
        candidates: Set[Atom] = set()
        for element in chosen:
            if not isinstance(element, Constant):
                candidates.update(self.facts_of(element))
        if pinned:
            candidates.update(self.pinned)
        return [
            fact for fact in candidates if all(arg in chosen for arg in fact.args)
        ]

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
    relation_names: "Optional[Iterable[str]]" = None,
    skip_constant_only: bool = False,
    index: "Optional[Incidence]" = None,
) -> ConjunctiveQuery:
    """The canonical CQ of ``structure ↾ elements`` around *distinguished*.

    Parameters
    ----------
    structure:
        The ambient structure.
    elements:
        The subset S (must contain *distinguished*).
    distinguished:
        The element that becomes the free variable ``y``.  If it is a
        constant, the query additionally contains the equality atom
        ``y = c`` — this is how Remark 1's separation of constants is
        realised.
    relation_names:
        Restrict to these relations (the paper's ``Σ`` inside ``Σ̄``,
        Definition 8 computes types over Σ only, ignoring colors).
    skip_constant_only:
        Drop atoms whose arguments are all constants (and differ from
        the distinguished element).  The positive-type machinery sets
        this: as the paper notes in Section 4, atoms between constants
        are irrelevant because the constant part of the structure is
        unchanged by projections.
    index:
        The structure's :class:`Incidence`, built for the same
        *relation_names*.  Callers that build many canonical queries of
        one structure pass it so each query reads only the facts of its
        own elements; without it one is built here.

    Returns
    -------
    ConjunctiveQuery
        With exactly one free variable ``y``; all other elements of S
        that are not constants become existential variables.
    """
    chosen = set(elements)
    if distinguished not in chosen:
        raise ValueError("distinguished element must belong to the subset")
    index = Incidence.of(structure, relation_names, index)

    table: Dict[Element, object] = {}
    counter = 0
    for element in sorted(chosen, key=str):
        if element == distinguished:
            table[element] = FREE_VARIABLE
        elif isinstance(element, Constant):
            table[element] = element
        else:
            table[element] = Variable(f"x{counter}")
            counter += 1

    # The pinned facts matter only when constant-only atoms are kept, or
    # when they may mention a constant distinguished element.
    atoms: List[Atom] = []
    for fact in index.facts_among(
        chosen, pinned=not skip_constant_only or isinstance(distinguished, Constant)
    ):
        if skip_constant_only and all(
            isinstance(arg, Constant) and arg != distinguished for arg in fact.args
        ):
            continue
        atoms.append(Atom(fact.pred, tuple(table[arg] for arg in fact.args)))
    if isinstance(distinguished, Constant):
        atoms.append(Atom("=", (FREE_VARIABLE, distinguished)))
    if not any(FREE_VARIABLE in a.variable_set() for a in atoms):
        # The distinguished element occurs in no selected fact; the type
        # contribution is the trivial query "y exists", which we encode
        # as the empty conjunction with a free variable obtained from a
        # vacuous equality y = y (always true).
        atoms.append(Atom("=", (FREE_VARIABLE, FREE_VARIABLE)))
    return ConjunctiveQuery(atoms, (FREE_VARIABLE,))


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
    relation_names: "Optional[Iterable[str]]" = None,
    index: "Optional[Incidence]" = None,
) -> "Iterable[FrozenSet[Element]]":
    """Connected subsets of the non-constant elements containing *anchor*.

    Two non-constant elements are adjacent when they co-occur in a fact
    (of an allowed relation); constants never connect anything — in a
    query, constants are fixed pins, so components joined only through
    a constant are independently satisfiable.  Enumerating connected
    subsets (instead of all subsets) is exactly what the positive-type
    machinery needs; see :mod:`repro.ptypes.ptype` for the argument.

    Uses the standard extension enumeration: a subset is grown only
    through neighbours of its members, and elements already *declined*
    at an earlier branch are excluded, so each subset appears once.
    Adjacency is read from *index* (built for the same
    *relation_names*; one is built here when it is omitted).
    """
    neighbours = Incidence.of(structure, relation_names, index).neighbours

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


def canonical_label(structure: Structure) -> str:
    """A string invariant under isomorphisms fixing the constants.

    Non-constant elements are assigned indices; the label is the
    lexicographically least rendering of the fact set over all
    assignments.  Exponential in the number of non-constant elements —
    fine for the paper's use (``P(e) ∪ C_con`` has at most two
    non-constant elements in a VTDAG skeleton, Definition 10/11).
    """
    nonconstants = sorted(structure.nonconstant_elements(), key=str)
    if len(nonconstants) > 7:
        raise ValueError(
            f"canonical_label is exponential; got {len(nonconstants)} "
            "non-constant elements (max 7)"
        )

    def render(order: Sequence[Element]) -> str:
        table = {element: f"#{i}" for i, element in enumerate(order)}
        lines = []
        for fact in structure.facts():
            args = ",".join(
                table.get(arg, str(arg)) if not isinstance(arg, Constant) else f"c:{arg}"
                for arg in fact.args
            )
            lines.append(f"{fact.pred}({args})")
        lines.sort()
        return ";".join(lines)

    if not nonconstants:
        return render(())
    return min(render(order) for order in permutations(nonconstants))


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
    # rounds touch only ints and lists — Element hashes (dataclass
    # field hashes) are paid once here, not once per lookup per round.
    #
    # Per-index templates, built once: each incident fact becomes a
    # ``(skeleton, neighbours)`` pair where the skeleton spells out the
    # predicate plus the constant/null positions, and *neighbours* lists
    # the fact's non-constant arguments (as indices) in position order.
    # A round's view of an element is then just the skeletons with the
    # current neighbour colors appended — no per-round arg inspection.
    total = len(nonconstants)
    index: Dict[Element, int] = {element: i for i, element in enumerate(nonconstants)}
    templates: List[List[Tuple]] = [[] for _ in range(total)]
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
        for i in set(nulls):
            templates[i].append(entry)

    # Seed colors with the BFS distance to the constants (through
    # shared facts).  Distance is invariant under any isomorphism
    # fixing the constants, and for the tree/path-shaped states the
    # chase builds it discriminates most elements immediately — pure
    # refinement from a uniform coloring would need one round per hop
    # of diameter to propagate the same information.
    neighbours: List[Set[int]] = [set() for _ in range(total)]
    anchored: Set[int] = set()
    for fact in structure.facts():
        members = [index[arg] for arg in fact.args if not isinstance(arg, Constant)]
        if not members:
            continue
        if len(members) < len(fact.args):
            anchored.update(members)
        for i in members:
            neighbours[i].update(members)
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


def canonical_key(structure: Structure, max_orders: int = 40_320) -> str:
    """A dedup key invariant under renaming the non-constant elements.

    Two structures with equal keys are isomorphic over the constants
    (a key spells out the full fact set up to element indexing), and —
    when the permutation search below is exact — isomorphic structures
    get equal keys.  This is what the finite-model search hashes its
    states by: rules and queries never mention nulls, so states that
    differ only in invented null names have identical futures.

    Unlike :func:`canonical_label` this has no hard size limit: color
    refinement first splits the non-constant elements into
    exchangeability classes, and only permutations within classes are
    searched.  If that search space still exceeds *max_orders*, the key
    falls back to the raw element names — still sound for dedup (equal
    keys still imply isomorphism), merely no longer renaming-invariant
    for that state.
    """
    nonconstants = sorted(structure.nonconstant_elements(), key=str)
    suffix = "|n=%d|con=%s" % (
        len(nonconstants),
        ",".join(sorted(str(c) for c in structure.constant_elements())),
    )

    def render(order: Sequence[Element]) -> str:
        table = {element: f"#{i}" for i, element in enumerate(order)}
        lines = []
        for fact in structure.facts():
            args = ",".join(
                f"c:{arg}" if isinstance(arg, Constant) else table[arg]
                for arg in fact.args
            )
            lines.append(f"{fact.pred}({args})")
        lines.sort()
        return ";".join(lines) + suffix

    if not nonconstants:
        return render(())

    classes = _refine_classes(structure, nonconstants)
    total = 1
    for group in classes:
        for size in range(2, len(group) + 1):
            total *= size
        if total > max_orders:
            return render(nonconstants)

    if total == 1:
        return render([element for group in classes for element in group])
    orderings = product(*(permutations(group) for group in classes))
    return min(
        render([element for group in ordering for element in group])
        for ordering in orderings
    )


def isomorphic_over_constants(left: Structure, right: Structure) -> bool:
    """Isomorphism fixing every constant, via canonical labels.

    The two structures must have the same constant elements (otherwise
    they are trivially non-isomorphic over constants).
    """
    if left.constant_elements() != right.constant_elements():
        return False
    if left.domain_size != right.domain_size or len(left.facts()) != len(right.facts()):
        return False
    return canonical_label(left) == canonical_label(right)
