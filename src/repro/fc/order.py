"""The (dead-end) ordering conjecture of Section 5.5.

Conjecture 2 (refuted by the paper): *T is not FC iff T defines an
ordering* — i.e. there are D, an infinite ``A ⊆ Chase(D, T)`` and a CQ
``Φ(x, y)`` with ``Chase ⊭ ∃x Φ(x, x)`` such that Φ strictly totally
orders A.

The "if" direction is true and executable: :func:`ordering_implies_query`
verifies the paper's argument that a defined ordering forces
``∃x Φ(x, x)`` in every finite model.  The "only if" direction fails on
the notorious Section 5.5 theory; :func:`find_ordering` is the bounded
detector used to show that *no small Φ orders a large subset* of its
chase, while the same detector instantly finds the ordering in the
natural non-FC example (successor + transitivity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

from ..chase.engine import ChaseConfig, chase
from ..lf.atoms import atom
from ..lf.homomorphism import all_answers, satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Element, Variable


@dataclass
class OrderingWitness:
    """A found ordering: the query and the ordered subset.

    Attributes
    ----------
    query:
        Φ(x, y), irreflexive on the (truncated) chase.
    ordered:
        A ⊆ chase elements on which Φ is a strict total order, in
        order.
    """

    query: ConjunctiveQuery
    ordered: List[Element] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.ordered)


def default_candidates(theory: Theory, max_length: int = 2) -> List[ConjunctiveQuery]:
    """A candidate pool of ordering queries: single binary atoms and
    short compositions ``R1(x, u) ∧ R2(u, y)`` over the theory's binary
    predicates (the shapes that order chase levels in practice)."""
    x, y, u = Variable("x"), Variable("y"), Variable("u")
    binaries = sorted(
        pred
        for pred, arity in theory.signature.relations.items()
        if arity == 2
    )
    pool: List[ConjunctiveQuery] = []
    for pred in binaries:
        pool.append(ConjunctiveQuery([atom(pred, x, y)], (x, y)))
    if max_length >= 2:
        for first in binaries:
            for second in binaries:
                pool.append(
                    ConjunctiveQuery(
                        [atom(first, x, u), atom(second, u, y)], (x, y)
                    )
                )
    return pool


def _strict_total_chain(
    relation: Set[Tuple[Element, Element]], elements: Sequence[Element]
) -> List[Element]:
    """A longest-effort chain on which the relation is a strict total
    order: greedy extension of chains under the relation (with the
    converse absent), checked for totality pairwise."""
    best: List[Element] = []
    ordered = set(relation)
    for start in elements:
        chain = [start]
        frontier = start
        improved = True
        while improved:
            improved = False
            for candidate in elements:
                if candidate in chain:
                    continue
                forward = (frontier, candidate) in ordered
                backward = (candidate, frontier) in ordered
                if forward and not backward:
                    # totality & antisymmetry against the whole chain
                    if all(
                        (link, candidate) in ordered and (candidate, link) not in ordered
                        for link in chain
                    ):
                        chain.append(candidate)
                        frontier = candidate
                        improved = True
                        break
        if len(chain) > len(best):
            best = chain
    return best


def find_ordering(
    theory: Theory,
    database: Structure,
    min_size: int = 5,
    max_depth: int = 8,
    candidates: "Optional[List[ConjunctiveQuery]]" = None,
    max_facts: "Optional[int]" = 50_000,
) -> "Optional[OrderingWitness]":
    """Bounded search for a defined ordering (Conjecture 2's premise).

    Chases the database to *max_depth*, then tests each candidate Φ:
    Φ must be irreflexive on the whole truncation, and must totally
    order at least *min_size* elements.  Returns the first witness, or
    ``None`` (which, being a bounded search, refutes nothing — but on
    the Section 5.5 theory it illustrates the paper's point that no
    natural ordering exists, while on successor+transitivity it finds
    ``E`` itself immediately).
    """
    result = chase(
        database,
        theory,
        ChaseConfig(max_depth=max_depth, max_facts=max_facts, max_elements=None),
    )
    structure = result.structure
    pool = candidates if candidates is not None else default_candidates(theory)
    elements = sorted(structure.domain(), key=str)
    for query in pool:
        x, y = query.free
        reflexive = ConjunctiveQuery(
            [a.substitute({y: x}) for a in query.atoms], ()
        )
        if satisfies(structure, reflexive):
            continue  # Chase ⊨ ∃x Φ(x,x): not irreflexive
        relation = all_answers(structure, query)
        chainlike = _strict_total_chain(relation, elements)
        if len(chainlike) >= min_size:
            return OrderingWitness(query=query, ordered=chainlike)
    return None


def ordering_implies_query(
    witness: OrderingWitness,
    finite_model: Structure,
) -> bool:
    """The true half of Conjecture 2, checked on a concrete model.

    If Φ orders an infinite subset of the chase, any finite model —
    which receives the chase through a homomorphism — must identify two
    ordered elements, making ``∃x Φ(x, x)`` true.  For a finite chase
    subset the argument needs the model to be smaller than the ordered
    chain; this helper just evaluates ``∃x Φ(x, x)`` on the model.
    """
    query = witness.query
    x, y = query.free
    reflexive = ConjunctiveQuery([a.substitute({y: x}) for a in query.atoms], ())
    return satisfies(finite_model, reflexive)
