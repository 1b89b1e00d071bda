"""An indexed subsumption frontier for the rewriting engine.

Pruning each fresh disjunct by checking
``cq_subsumes(existing, candidate)`` against *every* kept disjunct is a
quadratic pairwise sweep where each check is a homomorphism search.
Most of those checks are structurally hopeless: ``general ⊇ specific``
requires a homomorphism from *general*'s atoms into the canonical
database of *specific*, which is impossible unless

* the free tuples have the same arity (answer columns must align),
* every relation named by *general* occurs in *specific* (an atom can
  only map to a fact over the same predicate),
* every constant of *general* occurs in *specific* (constants map to
  themselves), and
* every *link* of *general* — a variable shared between two atom slots
  ``(pred, position)`` — must be realised by a single element of
  *specific*'s canonical database occupying both slots (a homomorphism
  maps the shared variable to one element).

:class:`SubsumptionIndex` groups the kept disjuncts by their structural
signature — free-tuple shape, variable width, and the multiset of
relation names — and answers "which kept disjuncts could possibly
subsume this candidate?" by scanning *group keys* (few) instead of
disjuncts (many), applying the necessary conditions above before any
homomorphism is attempted.  Width and the full predicate multiset do
not constrain containment (a homomorphism may merge variables and
collapse atoms), so they participate in the grouping key — keeping
structurally identical disjuncts together and the per-group filter
work shared — but only the sound conditions filter.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Tuple

from ..lf.queries import ConjunctiveQuery
from ..lf.terms import Variable

#: A structural signature: (free arity, width, predicate multiset).
SignatureKey = Tuple[int, int, Tuple[Tuple[str, int], ...]]

#: A slot is one argument position of one relation; a link is an
#: (ordered) pair of slots co-occupied by one variable/element.
Slot = Tuple[str, int]
Link = Tuple[Slot, Slot]


def required_links(query: ConjunctiveQuery) -> FrozenSet[Link]:
    """The slot pairs *query*'s variables force onto any hom image.

    For each variable, every pair of relational slots it occupies (a
    variable in ``P0(v, _) ∧ P1(_, v)`` occupies ``(P0, 0)`` and
    ``(P1, 1)``).  A homomorphism maps the variable to one element,
    which then occupies both slots in the target — so a containment
    ``general ⊇ specific`` needs every link of *general* available in
    *specific* (see :func:`available_links`).
    """
    slots: Dict[Variable, List[Slot]] = {}
    for item in query.atoms:
        if item.is_equality:
            continue
        for position, arg in enumerate(item.args):
            if isinstance(arg, Variable):
                slots.setdefault(arg, []).append((item.pred, position))
    links: set = set()
    for occupied in slots.values():
        if len(occupied) < 2:
            continue
        ordered = sorted(set(occupied))
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                links.add((ordered[i], ordered[j]))
    return frozenset(links)


def available_links(query: ConjunctiveQuery) -> FrozenSet[Link]:
    """The slot pairs realised by some element of *query*'s canonical DB.

    Computed on the frozen canonical database, so equality atoms
    (pinning a free variable to a constant or merging two frees) are
    respected.  Superset-closed target of :func:`required_links`.
    """
    from .subsume import freeze  # deferred: subsume imports nothing from here

    canonical, _ = freeze(query)
    slots: Dict[object, List[Slot]] = {}
    for fact in canonical:
        for position, arg in enumerate(fact.args):
            slots.setdefault(arg, []).append((fact.pred, position))
    links: set = set()
    for occupied in slots.values():
        if len(occupied) < 2:
            continue
        ordered = sorted(set(occupied))
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                links.add((ordered[i], ordered[j]))
    return frozenset(links)


def signature_of(query: ConjunctiveQuery) -> SignatureKey:
    """The (free-tuple shape, width, predicate multiset) key of a CQ.

    The predicate multiset counts relational (non-equality) atoms per
    predicate name, sorted for determinism.  Two CQs equal up to
    variable renaming always share a signature.
    """
    counts: Dict[str, int] = {}
    for item in query.atoms:
        if not item.is_equality:
            counts[item.pred] = counts.get(item.pred, 0) + 1
    multiset = tuple(sorted(counts.items()))
    return (len(query.free), query.width, multiset)


class _Group:
    """All indexed disjuncts sharing one structural signature."""

    __slots__ = ("free_arity", "preds", "members", "constants", "links")

    def __init__(self, key: SignatureKey):
        self.free_arity = key[0]
        self.preds: FrozenSet[str] = frozenset(name for name, _ in key[2])
        self.members: List[ConjunctiveQuery] = []
        #: Per-member constant sets, parallel to ``members``.
        self.constants: List[FrozenSet] = []
        #: Per-member required link sets, parallel to ``members``.
        self.links: List[FrozenSet[Link]] = []


class SubsumptionIndex:
    """The kept-disjunct frontier, grouped by structural signature.

    Supports the one query the engine's eager-subsumption pruning
    needs: :meth:`subsumer_candidates` — the kept disjuncts that pass
    every *sound necessary condition* for containing a given candidate.
    The caller still confirms each survivor with the homomorphism-backed
    :func:`~repro.rewriting.subsume.cq_subsumes`; the index only
    guarantees it never filters out a true subsumer.
    """

    __slots__ = ("_groups", "_size")

    def __init__(self) -> None:
        self._groups: Dict[SignatureKey, _Group] = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, query: ConjunctiveQuery) -> None:
        """Index a kept disjunct under its structural signature."""
        key = signature_of(query)
        group = self._groups.get(key)
        if group is None:
            group = _Group(key)
            self._groups[key] = group
        group.members.append(query)
        group.constants.append(query.constants())
        group.links.append(required_links(query))
        self._size += 1

    def subsumer_candidates(
        self, candidate: ConjunctiveQuery
    ) -> List[ConjunctiveQuery]:
        """Kept disjuncts that could contain *candidate*.

        Applies the sound filters (free arity equal, predicate set a
        subset of the candidate's, constants a subset of the
        candidate's); everything else is left to the homomorphism
        check.  Disjuncts sharing the candidate's exact signature are
        listed first — equivalent duplicates are the most common
        subsumers, so callers that stop at the first hit benefit.
        """
        arity = len(candidate.free)
        preds = frozenset(
            item.pred for item in candidate.atoms if not item.is_equality
        )
        constants = candidate.constants()
        links = available_links(candidate)
        own_key = signature_of(candidate)
        survivors: List[ConjunctiveQuery] = []

        def scan(key: SignatureKey, group: _Group) -> None:
            if group.free_arity != arity or not group.preds <= preds:
                return
            for member, member_constants, member_links in zip(
                group.members, group.constants, group.links
            ):
                if member_constants <= constants and member_links <= links:
                    survivors.append(member)

        own_group = self._groups.get(own_key)
        if own_group is not None:
            scan(own_key, own_group)
        for key, group in self._groups.items():
            if key != own_key:
                scan(key, group)
        return survivors

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        for group in self._groups.values():
            yield from group.members


def minimize_indexed(
    disjuncts: List[ConjunctiveQuery], stats: object = None
) -> List[ConjunctiveQuery]:
    """Drop disjuncts subsumed by another disjunct, with prefilters.

    Produces exactly the list :func:`~repro.rewriting.subsume.minimize_ucq`
    would — same candidate order, same keep-first-representative rule —
    but guards every ``cq_subsumes`` call with the sound necessary
    conditions of :class:`SubsumptionIndex` (free arity, predicate-set,
    constant-set, and link-set containment), so the quadratic sweep
    performs homomorphism searches only on structurally comparable
    pairs.  When *stats* is a :class:`~repro.rewriting.stats.RewriteStats`
    its ``subsumption_checks`` / ``pairwise_checks_avoided`` counters
    absorb the sweep.
    """
    from .subsume import cq_subsumes

    checks = 0
    avoided = 0
    entries: List[tuple] = []
    for query in sorted(
        disjuncts, key=lambda q: (len(q.atoms), q.width, str(q))
    ):
        entries.append(
            (
                query,
                len(query.free),
                frozenset(a.pred for a in query.atoms if not a.is_equality),
                query.constants(),
                required_links(query),
                available_links(query),
            )
        )
    kept: List[tuple] = []
    for entry in entries:
        query, arity, preds, constants, required, available = entry
        dominated = False
        for other in kept:
            if (
                other[1] == arity
                and other[2] <= preds
                and other[3] <= constants
                and other[4] <= available
            ):
                checks += 1
                if cq_subsumes(other[0], query):
                    dominated = True
                    break
            else:
                avoided += 1
        if dominated:
            if stats is not None:
                stats.subsumption_checks += checks
                stats.pairwise_checks_avoided += avoided
                checks = avoided = 0
            continue
        survivors: List[tuple] = []
        for other in kept:
            if (
                other[1] == arity
                and preds <= other[2]
                and constants <= other[3]
                and required <= other[5]
            ):
                checks += 1
                if cq_subsumes(query, other[0]):
                    continue
            else:
                avoided += 1
            survivors.append(other)
        survivors.append(entry)
        kept = survivors
        if stats is not None:
            stats.subsumption_checks += checks
            stats.pairwise_checks_avoided += avoided
            checks = avoided = 0
    return [entry[0] for entry in kept]
