"""Positive n-types (Definition 3) and their comparison.

``ptp_n(C, e, Σ)`` is the set of all conjunctive queries ``Ψ(x̄, y)``
over Σ with ``|x̄| < n`` (so at most ``n`` variables counting ``y``)
such that ``C ⊨ Ψ(x̄, e)``.  The set is infinite, but it is *generated*
under query homomorphism by finitely many **canonical subqueries**, and
the generators can be restricted to *connected* subsets.

Soundness/completeness of the reduction
----------------------------------------
Write a query Ψ(x̄, y) as the conjunction of its *y-component* Ψ_y (the
atoms reachable from y through shared **variables** — constants do not
connect, they are fixed pins) and its remaining components Ψ_1, …, Ψ_k
(each a Boolean query).

* Each canonical query of a connected subset ``V ∋ e`` (with
  ``|V| ≤ n``; all constants and their atoms included, constant-only
  atoms dropped) is true at ``e`` by the identity valuation, and its
  image set is variable-connected.
* Conversely, if ``C ⊨ Ψ(x̄, e)`` via σ, then ``σ(vars(Ψ_y))`` is a
  connected subset of size ≤ n containing e whose canonical query
  entails Ψ_y (compose the satisfying valuation with σ), and each Ψ_i
  is entailed by the canonical Boolean query of ``σ(vars(Ψ_i))``.

Hence:

* **within one structure** ``ptp_n(C, d) ⊆ ptp_n(C, e)`` iff every
  connected canonical query of ``d`` is satisfied at ``e`` — the
  Boolean components are satisfied in C by σ itself, so they never
  discriminate (:func:`less_equal`, :func:`equivalent`);
* **across two structures** (the conservativity condition (♠2),
  comparing C with ``M_n(C̄)``) the Boolean components *do* matter —
  they are exactly the (♠3) content of Remark 3 — so
  :func:`type_subsumed` combines the anchored connected generators with
  the connected Boolean generators of at most ``n - 1`` variables.

Equality atoms ``y = c`` are generated when the distinguished element
is a constant, realising Remark 1 (constants are never merged with
anything else).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..lf.canonical import (
    FREE_VARIABLE,
    Incidence,
    canonical_query,
    connected_subsets_containing,
)
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.structures import Structure
from ..lf.terms import Constant, Element


def type_generators(
    structure: Structure,
    element: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
    index: "Optional[Incidence]" = None,
) -> Dict[ConjunctiveQuery, ConjunctiveQuery]:
    """The connected canonical generators of ``ptp_n(C, element, Σ)``,
    keyed by their canonical forms.

    The dict keeps enumeration order, so its values are exactly
    :func:`type_queries` and its keys their renaming-invariant markers.
    *index* is the structure's :class:`~repro.lf.canonical.Incidence`
    over *relation_names*; callers typing many elements of one
    structure build it once and pass it.
    """
    if n < 1:
        raise ValueError("positive n-types need n >= 1")
    names = frozenset(relation_names) if relation_names is not None else None
    index = Incidence.of(structure, names, index)
    constants = index.constants
    generators: Dict[ConjunctiveQuery, ConjunctiveQuery] = {}
    for subset in connected_subsets_containing(
        structure, element, n, names, index=index
    ):
        query = canonical_query(
            structure,
            subset | constants,
            element,
            relation_names=names,
            skip_constant_only=True,
            index=index,
        )
        generators.setdefault(query.canonical(), query)
    return generators


def type_queries(
    structure: Structure,
    element: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
    index: "Optional[Incidence]" = None,
) -> List[ConjunctiveQuery]:
    """The connected canonical generators of ``ptp_n(C, element, Σ)``.

    De-duplicated up to variable renaming.  ``relation_names`` restricts
    to a sub-signature (the Σ of a colored signature Σ̄).  Constant-only
    atoms are skipped — the constant part of a structure is unchanged by
    the quotient operations this machinery serves.
    """
    return list(
        type_generators(structure, element, n, relation_names, index).values()
    )


def boolean_type_queries(
    structure: Structure,
    max_variables: int,
    relation_names: "Optional[Iterable[str]]" = None,
    index: "Optional[Incidence]" = None,
) -> List[ConjunctiveQuery]:
    """The connected Boolean sentences of ≤ ``max_variables`` variables
    true in *structure* (canonical generators, deduplicated).

    These are the Ψ_i components of the reduction above, and also the
    exact content of condition (♠3) in Remark 3.  One incidence index
    (*index*, or one built here) serves every anchor.
    """
    if max_variables < 1:
        return []
    names = frozenset(relation_names) if relation_names is not None else None
    index = Incidence.of(structure, names, index)
    constants = index.constants
    sentences: Dict[ConjunctiveQuery, ConjunctiveQuery] = {}
    for anchor in sorted(structure.domain(), key=str):
        for subset in connected_subsets_containing(
            structure, anchor, max_variables, names, index=index
        ):
            query = canonical_query(
                structure,
                subset | constants,
                anchor,
                relation_names=names,
                skip_constant_only=True,
                index=index,
            ).boolean()
            sentences.setdefault(query.canonical(), query)
    return list(sentences.values())


def ptp_contains(
    structure: Structure,
    element: Element,
    query: ConjunctiveQuery,
) -> bool:
    """Whether ``query ∈ ptp(structure, element)``: satisfaction at the
    element.  The query must have exactly one free variable (the ``y``
    of Definition 3)."""
    if len(query.free) != 1:
        raise ValueError("a type query has exactly one free variable")
    return satisfies(structure, query, {query.free[0]: element})


def type_subsumed(
    source: Structure,
    source_element: Element,
    target: Structure,
    target_element: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
    source_queries: "Optional[List[ConjunctiveQuery]]" = None,
    check_boolean: bool = True,
) -> bool:
    """``ptp_n(source, source_element) ⊆ ptp_n(target, target_element)``.

    The anchored connected generators of the source (optionally supplied
    pre-computed via *source_queries*) must hold at the target element;
    when *source* and *target* are different structures, the connected
    Boolean sentences of the source with at most ``n - 1`` variables
    must also hold in the target (set ``check_boolean=False`` to skip,
    e.g. when the caller checks them once for many elements).
    """
    queries = (
        source_queries
        if source_queries is not None
        else type_queries(source, source_element, n, relation_names)
    )
    for query in queries:
        if not satisfies(target, query, {query.free[0]: target_element}):
            return False
    if check_boolean and source is not target and not source.same_facts(target):
        for sentence in boolean_type_queries(source, n - 1, relation_names):
            if not satisfies(target, sentence):
                return False
    return True


def types_equal(
    source: Structure,
    source_element: Element,
    target: Structure,
    target_element: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
) -> bool:
    """``ptp_n(source, e) = ptp_n(target, e')`` — both inclusions."""
    return type_subsumed(
        source, source_element, target, target_element, n, relation_names
    ) and type_subsumed(
        target, target_element, source, source_element, n, relation_names
    )


def less_equal(
    structure: Structure,
    left: Element,
    right: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
) -> bool:
    """The preorder ``≼_n`` within one structure:
    ``ptp_n(C, left) ⊆ ptp_n(C, right)``."""
    return type_subsumed(
        structure, left, structure, right, n, relation_names, check_boolean=False
    )


def equivalent(
    structure: Structure,
    left: Element,
    right: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
) -> bool:
    """Definition 4's ``≡_n``: equal positive n-types.

    Constants short-circuit: by Remark 1 a constant is ``≡_n``-related
    only to itself (the query ``y = c`` separates it from everything).
    """
    if left == right:
        return True
    if isinstance(left, Constant) or isinstance(right, Constant):
        return False
    return less_equal(structure, left, right, n, relation_names) and less_equal(
        structure, right, left, n, relation_names
    )


def ptp_as_query_set(
    structure: Structure,
    element: Element,
    n: int,
    relation_names: "Optional[Iterable[str]]" = None,
) -> FrozenSet[ConjunctiveQuery]:
    """The canonical generators as a frozen set of canonical forms.

    Two elements with equal generator sets are ``≡_n`` (each generator
    of one is a true-at-the-other generator of the other); the converse
    may fail, so use :func:`equivalent` for the real comparison.  This
    set is still handy as a cheap pre-partitioning key.
    """
    return frozenset(type_generators(structure, element, n, relation_names))
