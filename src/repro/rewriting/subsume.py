"""Query subsumption (containment) via canonical databases.

For CQs, ``general ⊇ specific`` (every database satisfying *specific*
satisfies *general*) iff there is a homomorphism from *general* into the
*frozen* canonical database of *specific* that maps free variables to
the corresponding frozen free variables — the classical
Chandra–Merlin criterion, which is what the rewriting engine uses to
minimise its UCQs.

Equality atoms
--------------
Rewriting steps may force a free variable to coincide with a constant
or with another free variable.  To keep every disjunct of a UCQ on the
same free-variable schema, such constraints are represented as equality
atoms ``f = t`` rather than substituted away.  :func:`normalize_equalities`
eliminates all equalities *except* those protecting free variables;
:func:`freeze` resolves the remaining ones into the canonical database.

Caching
-------
``minimize_ucq`` performs O(n²) containment checks over the same n
disjuncts, and the rewriting engine's eager-subsumption pruning calls
:func:`cq_subsumes` against every kept disjunct — without memoisation
each pair re-normalises and re-freezes both queries from scratch.
:func:`cq_subsumes` therefore routes through process-wide caches keyed
on the (immutable, hashable) query itself; since CQ atoms are kept in
a deterministic order, this key identifies the query's canonical shape
for all the repeat calls that matter.  The cached canonical database
is shared read-only across containment checks (the homomorphism
engine never mutates its target).  :func:`clear_subsume_cache` empties
them for benchmarks and tests.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..lf.atoms import Atom
from ..lf.homomorphism import find_homomorphism
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.structures import Structure
from ..lf.terms import Constant, Null, Variable

#: Bounded memo tables for the containment hot path; cleared wholesale
#: when full (entries are cheap to rebuild).  Shared across the server's
#: worker threads: hits are lock-free dict probes; the size-check +
#: insert on a miss runs under ``_CACHE_LOCK`` so a concurrent clear
#: cannot interleave with an insert (a duplicate *compute* outside the
#: lock is harmless — both threads produce the same value).
_CACHE_MAXSIZE = 8192
_NORMALIZE_CACHE: "Dict[ConjunctiveQuery, Optional[ConjunctiveQuery]]" = {}
_FREEZE_CACHE: "Dict[ConjunctiveQuery, Tuple[Structure, Dict[Variable, object]]]" = {}
_CACHE_LOCK = threading.Lock()


def clear_subsume_cache() -> None:
    """Empty the normalise/freeze memo tables (benchmarks and tests)."""
    with _CACHE_LOCK:
        _NORMALIZE_CACHE.clear()
        _FREEZE_CACHE.clear()


def _normalized(query: ConjunctiveQuery) -> "Optional[ConjunctiveQuery]":
    """Memoised :func:`normalize_equalities`."""
    try:
        return _NORMALIZE_CACHE[query]
    except KeyError:
        pass
    result = normalize_equalities(query)
    with _CACHE_LOCK:
        if len(_NORMALIZE_CACHE) >= _CACHE_MAXSIZE:
            _NORMALIZE_CACHE.clear()
        _NORMALIZE_CACHE[query] = result
    return result


def _frozen(query: ConjunctiveQuery) -> "Tuple[Structure, Dict[Variable, object]]":
    """Memoised :func:`freeze`: the shared, read-only canonical database."""
    try:
        return _FREEZE_CACHE[query]
    except KeyError:
        pass
    result = freeze(query)
    with _CACHE_LOCK:
        if len(_FREEZE_CACHE) >= _CACHE_MAXSIZE:
            _FREEZE_CACHE.clear()
        _FREEZE_CACHE[query] = result
    return result


def normalize_equalities(query: ConjunctiveQuery) -> "Optional[ConjunctiveQuery]":
    """Eliminate equality atoms, except those anchoring free variables.

    * ``x = t`` with ``x`` existential: substitute ``t`` for ``x``.
    * ``f = t`` with ``f`` free and ``t`` a constant or another free
      variable: substitute in the relational atoms but *keep* the
      equality atom, so the free tuple is unchanged.
    * Ground equalities are checked; an inconsistency yields ``None``
      (the query is unsatisfiable).
    """
    free = set(query.free)
    mapping: Dict[Variable, object] = {}

    def resolve(term):
        seen = set()
        while isinstance(term, Variable) and term in mapping:
            if term in seen:  # pragma: no cover - defensive
                break
            seen.add(term)
            term = mapping[term]
        return term

    kept_equalities: List[Tuple[Variable, object]] = []
    relational = [a for a in query.atoms if not a.is_equality]
    for eq in (a for a in query.atoms if a.is_equality):
        left, right = (resolve(t) for t in eq.args)
        if left == right:
            continue
        left_var = isinstance(left, Variable)
        right_var = isinstance(right, Variable)
        if left_var and left not in free:
            mapping[left] = right
        elif right_var and right not in free:
            mapping[right] = left
        elif left_var and right_var:
            # two free variables: identify in atoms, keep the constraint
            mapping[right] = left
            kept_equalities.append((right, left))
        elif left_var:
            mapping[left] = right
            kept_equalities.append((left, right))
        elif right_var:
            mapping[right] = left
            kept_equalities.append((right, left))
        else:
            return None  # two distinct constants

    resolved = {var: resolve(var) for var in mapping}
    new_atoms = [a.substitute(resolved) for a in relational]
    for variable, target in kept_equalities:
        new_atoms.append(Atom("=", (variable, resolve(target))))
    # free variables whose only occurrence was a *trivial* equality that
    # we dropped must be kept alive:
    occurring = set()
    for item in new_atoms:
        occurring.update(item.variable_set())
    for variable in query.free:
        if variable not in occurring:
            new_atoms.append(Atom("=", (variable, variable)))
    return ConjunctiveQuery(new_atoms, query.free)


def freeze(query: ConjunctiveQuery) -> Tuple[Structure, Dict[Variable, object]]:
    """The canonical database of a CQ: variables become fresh nulls.

    Equality atoms are resolved: ``f = c`` pins the variable to the
    constant; ``f = f'`` shares one null.  Returns the structure and the
    variable→element table.
    """
    pinned: Dict[Variable, object] = {}
    merged: Dict[Variable, Variable] = {}

    def root(var: Variable) -> Variable:
        while var in merged:
            var = merged[var]
        return var

    for item in query.atoms:
        if not item.is_equality:
            continue
        left, right = item.args
        if isinstance(left, Variable) and isinstance(right, Variable):
            if root(left) != root(right):
                merged[root(left)] = root(right)
        elif isinstance(left, Variable):
            pinned[root(left)] = right
        elif isinstance(right, Variable):
            pinned[root(right)] = left

    table: Dict[Variable, object] = {}
    counter = [0]

    def element_of(var: Variable) -> object:
        representative = root(var)
        found = table.get(representative)
        if found is None:
            found = pinned.get(representative)
            if found is None:
                counter[0] += 1
                found = Null(-counter[0])
            table[representative] = found
        table[var] = found
        return found

    facts: List[Atom] = []
    for item in query.atoms:
        if item.is_equality:
            for arg in item.args:
                if isinstance(arg, Variable):
                    element_of(arg)
            continue
        args = []
        for arg in item.args:
            if isinstance(arg, Variable):
                args.append(element_of(arg))
            else:
                args.append(arg)
        facts.append(Atom(item.pred, tuple(args)))
    return Structure(facts), table


def cq_subsumes(general: ConjunctiveQuery, specific: ConjunctiveQuery) -> bool:
    """Whether *general* contains *specific* (as queries).

    ``True`` iff every database satisfying *specific* satisfies
    *general* — decided by homomorphism into the frozen canonical
    database of *specific*, with free variables pinned pairwise.
    Queries must have the same number of free variables.
    """
    if len(general.free) != len(specific.free):
        return False
    general_n = _normalized(general)
    specific_n = _normalized(specific)
    if specific_n is None:
        return True  # an unsatisfiable query is contained in anything
    if general_n is None:
        return False
    canonical, table = _frozen(specific_n)
    binding: Dict[Variable, object] = {}
    for mine, theirs in zip(general_n.free, specific_n.free):
        target = table.get(theirs)
        if target is None:
            return False  # free variable of specific never materialised
        existing = binding.get(mine)
        if existing is not None and existing != target:
            return False
        binding[mine] = target
    return find_homomorphism(general_n.atoms, canonical, binding) is not None  # type: ignore[arg-type]


def cq_equivalent(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Logical equivalence of two CQs (containment both ways)."""
    return cq_subsumes(left, right) and cq_subsumes(right, left)


def minimize_ucq(disjuncts: List[ConjunctiveQuery]) -> List[ConjunctiveQuery]:
    """Drop disjuncts subsumed by another disjunct.

    Keeps the first representative of each equivalence class, and every
    query not contained in a kept one.  The result denotes the same UCQ.
    """
    kept: List[ConjunctiveQuery] = []
    for candidate in sorted(disjuncts, key=lambda q: (len(q.atoms), q.width, str(q))):
        if any(cq_subsumes(existing, candidate) for existing in kept):
            continue
        kept = [existing for existing in kept if not cq_subsumes(candidate, existing)]
        kept.append(candidate)
    return kept


def ucq_subsumes(general: UnionOfConjunctiveQueries, specific: UnionOfConjunctiveQueries) -> bool:
    """Whether every disjunct of *specific* is contained in some
    disjunct of *general* (this is exactly UCQ containment, by the
    canonical-database argument)."""
    return all(
        any(cq_subsumes(g, s) for g in general.disjuncts)
        for s in specific.disjuncts
    )


def ucq_equivalent(left: UnionOfConjunctiveQueries, right: UnionOfConjunctiveQueries) -> bool:
    """UCQ equivalence (containment both ways)."""
    return ucq_subsumes(left, right) and ucq_subsumes(right, left)
