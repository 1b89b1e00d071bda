"""Brute-force positive-type comparison: the reference implementation.

:mod:`repro.ptypes.ptype` decides ``ptp_n`` inclusion through canonical
subqueries of connected subsets — fast, but its correctness rests on a
reduction argument.  This module provides the *definitionally obvious*
(and exponentially slow) alternative: enumerate every conjunctive query
``Ψ(x̄, y)`` with at most ``n`` variables and at most ``k`` atoms over
the structure's signature, and compare memberships directly.

The two implementations are cross-validated in the property suite
(``tests/property/test_bruteforce_validation.py``).

Only practical for tiny parameters: the query count is roughly
``(#atom-shapes)^k`` with ``#atom-shapes = Σ_R (n+#constants)^arity``.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Iterator, List, Set, Tuple

from ..lf.atoms import Atom
from ..lf.canonical import FREE_VARIABLE
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.structures import Structure
from ..lf.terms import Constant, Element, Variable


#: Memo for :func:`enumerate_type_queries`: the enumeration is pure in
#: its parameters and exponentially expensive, and the brute-force
#: cross-validators call it once per element pair with identical
#: parameters.  Keyed on the full (normalised) parameter tuple; bounded
#: — cleared wholesale when full — because cached tuples hold entire
#: query lists.
_TYPE_QUERY_CACHE: "dict[tuple, Tuple[ConjunctiveQuery, ...]]" = {}
_TYPE_QUERY_CACHE_MAX = 64
#: Miss-path guard for multi-threaded callers (the serve worker pool):
#: hits stay lock-free; the size-check + insert is atomic.  A duplicate
#: enumeration outside the lock is idempotent, never corrupting.
_TYPE_QUERY_CACHE_LOCK = threading.Lock()


def clear_type_query_cache() -> None:
    """Drop the :func:`enumerate_type_queries` memo (for tests)."""
    with _TYPE_QUERY_CACHE_LOCK:
        _TYPE_QUERY_CACHE.clear()


def enumerate_type_queries(
    signature_relations: "dict[str, int]",
    constants: Iterable[Constant],
    n: int,
    max_atoms: int,
    include_equalities: bool = True,
) -> Iterator[ConjunctiveQuery]:
    """Every CQ ``Ψ(x̄, y)`` with ``|x̄| < n`` and ≤ *max_atoms* atoms.

    Variables are the free ``y`` plus ``x0 … x_{n-2}``; deduplicated up
    to canonical renaming.  Queries whose free variable does not occur
    are skipped (they say nothing about the element).  With
    *include_equalities*, the Remark-1 queries ``y = c`` are included.

    Results are memoised per parameter set (the enumeration is pure and
    deterministic); callers get a generator over the cached tuple.
    """
    if n < 1:
        return
    constant_list = sorted(constants, key=str)
    key = (
        tuple(sorted(signature_relations.items())),
        tuple(constant_list),
        n,
        max_atoms,
        include_equalities,
    )
    cached = _TYPE_QUERY_CACHE.get(key)
    if cached is None:
        cached = tuple(
            _enumerate_type_queries(
                signature_relations, constant_list, n, max_atoms, include_equalities
            )
        )
        with _TYPE_QUERY_CACHE_LOCK:
            if len(_TYPE_QUERY_CACHE) >= _TYPE_QUERY_CACHE_MAX:
                _TYPE_QUERY_CACHE.clear()
            _TYPE_QUERY_CACHE[key] = cached
    yield from cached


def _enumerate_type_queries(
    signature_relations: "dict[str, int]",
    constants: Iterable[Constant],
    n: int,
    max_atoms: int,
    include_equalities: bool,
) -> Iterator[ConjunctiveQuery]:
    variables: List[Variable] = [FREE_VARIABLE] + [
        Variable(f"x{i}") for i in range(n - 1)
    ]
    terms: List = list(variables) + sorted(constants, key=str)

    shapes: List[Atom] = []
    for pred, arity in sorted(signature_relations.items()):
        for combo in itertools.product(terms, repeat=arity):
            if any(isinstance(t, Variable) for t in combo):
                shapes.append(Atom(pred, combo))

    seen: Set[ConjunctiveQuery] = set()
    if include_equalities:
        for constant in sorted(constants, key=str):
            query = ConjunctiveQuery(
                [Atom("=", (FREE_VARIABLE, constant))], (FREE_VARIABLE,)
            )
            marker = query.canonical()
            if marker not in seen:
                seen.add(marker)
                yield query

    for count in range(1, max_atoms + 1):
        for combo in itertools.combinations(shapes, count):
            used = {v for atom in combo for v in atom.variable_set()}
            if FREE_VARIABLE not in used:
                continue
            query = ConjunctiveQuery(combo, (FREE_VARIABLE,))
            marker = query.canonical()
            if marker in seen:
                continue
            seen.add(marker)
            yield query


def brute_force_subsumed(
    source: Structure,
    source_element: Element,
    target: Structure,
    target_element: Element,
    n: int,
    max_atoms: int,
) -> bool:
    """Reference for :func:`repro.ptypes.type_subsumed`, restricted to
    queries with at most *max_atoms* atoms: every enumerated query true
    at the source element must hold at the target element.

    Note the one-sided relationship to the real (unbounded) inclusion:
    if the real inclusion holds, so does every bounded one; a bounded
    inclusion may be optimistic.  The cross-validation therefore checks
    *(real says ⊆) ⟹ (bounded says ⊆)* exactly, and treats a bounded-⊆
    with real-⊄ as expected slack when ``max_atoms`` is small.
    """
    constants = source.constant_elements() | target.constant_elements()
    for query in enumerate_type_queries(
        source.signature.relations, constants, n, max_atoms
    ):
        if satisfies(source, query, {FREE_VARIABLE: source_element}):
            if not satisfies(target, query, {FREE_VARIABLE: target_element}):
                return False
    return True


def brute_force_equivalent(
    structure: Structure,
    left: Element,
    right: Element,
    n: int,
    max_atoms: int,
) -> bool:
    """Reference for :func:`repro.ptypes.equivalent` (atom-bounded)."""
    return brute_force_subsumed(
        structure, left, structure, right, n, max_atoms
    ) and brute_force_subsumed(structure, right, structure, left, n, max_atoms)
