"""Compiled join plans: the query-evaluation path.

Every engine in the lab (chase trigger evaluation, the PerfectRef-style
rewriter's subsumption checks, ptype computation, the FC model search)
bottoms out in :func:`repro.lf.homomorphism.homomorphisms`.  A matcher
that re-derived a join order atom-by-atom on every call — re-scoring
every pending atom at each search node and copying the whole binding
dict per variable extension — would pay those costs on every call.

This module compiles each conjunction of atoms *once* into an explicit
:class:`QueryPlan`:

* a **static atom ordering** chosen greedily — most-constrained atom
  first, ties broken by predicate cardinality when a structure's index
  statistics are available at compile time (plans stay valid on any
  structure; the statistics only steer the order);
* **numbered slots**: every variable of the plan lives in a slot of a
  value list — the prebound variables first, sorted, then each other
  variable at the step that first binds it (:attr:`QueryPlan.variables`
  maps slot to variable);
* **per-step specs**: for each atom, which argument positions hold
  constants (checked early), which hold variables bound by earlier
  steps (checked against their slots), and which bind a variable for
  the first time (written to its slot);
* **per-atom index selection**: the candidate positions usable for an
  index lookup are precompiled; at run time the smallest bucket among
  them is chosen (an empty bucket cuts the branch immediately).

Plans are cached in a process-wide :class:`PlanCache` keyed on the
atom tuple plus the set of pre-bound variables — the atoms of a
:class:`~repro.lf.queries.ConjunctiveQuery` are deterministically
ordered, so for query evaluation this key coincides with the query's
canonical shape and repeated evaluation (chase rounds, ``minimize_ucq``
containment pairs, ptype probes) compiles nothing after the first call.

Evaluation is **iterative**: an explicit stack of candidate iterators
over one value list.  Lookups and checks read slots, binds write them,
and nothing is undone on backtracking — a slot is read only below the
step that binds it, and that step overwrites it at its next candidate.
The one loop emits in two ways: :meth:`QueryPlan.bindings` yields
``Variable``-keyed dicts (written as the search binds, copied per
match), and :meth:`QueryPlan.answers` reads answer tuples straight out
of the slots, building no dict per match.  The result is binding-for-
binding equal (as a set) to a nested-loop scan of every fact per atom —
the property suite checks this against such a scan.

Instrumentation lives in :class:`HomStats`; a process-global instance
(:data:`HOM_STATS`) accumulates counters that the chase engine
snapshots per run and folds into
:class:`~repro.chase.stats.ChaseStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
from operator import itemgetter
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .structures import Structure
from .terms import Element, Variable

Binding = Dict[Variable, Element]


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------

@dataclass
class HomStats:
    """Counters of the planned homomorphism engine.

    ``plans_compiled`` / ``plan_cache_hits`` / ``plan_cache_misses``
    and ``plan_requests`` (plan lookups: hits + misses) describe the
    plan cache and therefore depend on *cache warmth* (what ran earlier
    in the process), not only on the inputs: a rule's compiled forms
    (:func:`repro.chase.seminaive.rule_plans`) fetch their plans on the
    rule's first use in the process and never again.  They are treated
    like wall times by the determinism machinery (see
    :data:`repro.payloads.TIMING_FIELDS`).  The remaining counters
    are pure functions of (queries, structures, bindings):

    * ``index_probes`` — hash-index lookups issued by the matcher;
    * ``candidates_scanned`` — candidate facts pulled from index
      buckets;
    * ``backtracks`` — search-node exhaustions (the matcher popped a
      level).
    """

    plans_compiled: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    index_probes: int = 0
    candidates_scanned: int = 0
    backtracks: int = 0

    @property
    def plan_requests(self) -> int:
        """Plan-cache lookups (hits + misses)."""
        return self.plan_cache_hits + self.plan_cache_misses

    def snapshot(self) -> "HomStats":
        """An independent copy (use with :meth:`since` to scope a run)."""
        return replace(self)

    def since(self, earlier: "HomStats") -> "HomStats":
        """Field-wise difference ``self - earlier`` (per-run deltas)."""
        return HomStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def plus(self, other: "HomStats") -> "HomStats":
        """Field-wise sum ``self + other`` (a run continued by another)."""
        return HomStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> Dict[str, int]:
        """JSON-ready counters."""
        return {
            "index_probes": self.index_probes,
            "candidates_scanned": self.candidates_scanned,
            "backtracks": self.backtracks,
            "plan_requests": self.plan_requests,
            "plans_compiled": self.plans_compiled,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_cache_misses": self.plan_cache_misses,
        }

    def __str__(self) -> str:
        return (
            f"HomStats(plans={self.plan_requests}, "
            f"probes={self.index_probes}, "
            f"scanned={self.candidates_scanned}, "
            f"backtracks={self.backtracks})"
        )


#: Process-global counters; the chase engine snapshots these per run.
HOM_STATS = HomStats()


# ----------------------------------------------------------------------
# Plan representation
# ----------------------------------------------------------------------

#: A step's per-candidate tests and effects, split so that failing
#: candidates never write a slot: ``(consts, checks, sames, binds)`` —
#: ``consts`` are ``(position, element)`` equality tests, ``checks``
#: are ``(position, slot)`` tests against the value an earlier step
#: (or the prebinding) put in that slot, ``sames`` are
#: ``(first_position, later_position)`` intra-atom repeat tests, and
#: ``binds`` are ``(position, slot)`` first-occurrence assignments
#: applied only once everything passed.
CheckSet = Tuple[
    Tuple[Tuple[int, Element], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, int], ...],
]


@dataclass(frozen=True)
class PlanStep:
    """One atom of a plan, with everything the matcher needs precompiled.

    Attributes
    ----------
    atom:
        The source atom (diagnostics only).
    pred / arity:
        Predicate and expected fact arity.
    lookups:
        ``(position, constant, slot)`` triples usable for an index
        lookup — exactly one of *constant* / *slot* is set, and a slot
        here is statically guaranteed filled before this step.
    variants:
        Parallel to *lookups*: the :data:`CheckSet` to run when that
        lookup's bucket was chosen.  Every fact in the
        ``(pred, position, element)`` bucket satisfies that position's
        test by construction, so the corresponding check is dropped.
        The compare itself runs in C (elements are ``str`` and ``int``
        subclasses), but each check is a pass of the matcher's Python
        loop — an unpack, an index and a compare — and this skips it
        once per candidate.
    full:
        The unfiltered :data:`CheckSet`, for the predicate-wide
        fallback bucket.
    """

    atom: Atom
    pred: str
    arity: int
    lookups: Tuple[Tuple[int, Optional[Element], Optional[int]], ...]
    variants: Tuple[CheckSet, ...]
    full: CheckSet


def _compile_step(atom: Atom, slots: Dict[Variable, int]) -> PlanStep:
    """Compile one atom given the slots of the variables bound earlier.

    Variables first bound by this atom are given the next free slots:
    *slots* is extended in place.
    """
    lookups: List[Tuple[int, Optional[Element], Optional[int]]] = []
    consts: List[Tuple[int, Element]] = []
    checks: List[Tuple[int, int]] = []
    sames: List[Tuple[int, int]] = []
    binds: List[Tuple[int, int]] = []
    first_at: Dict[Variable, int] = {}
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg in first_at:
                # repeated within this atom: compare the two positions
                # directly, no slot needed to test it
                sames.append((first_at[arg], position))
            elif arg in slots:
                lookups.append((position, None, slots[arg]))
                checks.append((position, slots[arg]))
            else:
                first_at[arg] = position
                slots[arg] = len(slots)
                binds.append((position, slots[arg]))
        else:
            lookups.append((position, arg, None))
            consts.append((position, arg))
    full: CheckSet = (tuple(consts), tuple(checks), tuple(sames), tuple(binds))
    variants: List[CheckSet] = []
    for position, constant, slot in lookups:
        if slot is None:
            variants.append((
                tuple(pair for pair in consts if pair[0] != position),
                full[1], full[2], full[3],
            ))
        else:
            variants.append((
                full[0],
                tuple(pair for pair in checks if pair[0] != position),
                full[2], full[3],
            ))
    return PlanStep(
        atom=atom,
        pred=atom.pred,
        arity=atom.arity,
        lookups=tuple(lookups),
        variants=tuple(variants),
        full=full,
    )


def _static_score(
    atom: Atom, bound: "Dict[Variable, int]", structure: "Optional[Structure]"
) -> tuple:
    """Ordering key: most-constrained first, then index statistics.

    The classic ``(unbound, -bound)`` most-constrained-first heuristic —
    computed over argument occurrences — which breaks ties with the
    predicate's fact count when a structure was supplied at compile
    time, then deterministically by the atom itself.
    """
    unbound = 0
    bound_args = 0
    for arg in atom.args:
        if isinstance(arg, Variable) and arg not in bound:
            unbound += 1
        else:
            bound_args += 1
    cardinality = structure.pred_size(atom.pred) if structure is not None else 0
    return (unbound, -bound_args, cardinality, atom.pred, tuple(map(str, atom.args)))


@dataclass(frozen=True)
class QueryPlan:
    """A compiled join plan for a conjunction of relational atoms.

    Valid on *any* structure: compile-time index statistics influence
    only the atom ordering, never correctness.  Equality atoms must be
    resolved away before compilation
    (:func:`repro.lf.homomorphism._resolve_equalities` does this for
    every public entry point).

    Each variable lives in a numbered slot: ``variables[slot]`` is the
    variable of that slot.  The prebound variables take the first
    slots, sorted; every other variable takes the next slot at the step
    that first binds it.
    """

    steps: Tuple[PlanStep, ...]
    prebound: FrozenSet[Variable]
    variables: Tuple[Variable, ...]

    def _start(self, binding: Binding) -> List[Optional[Element]]:
        """A value list with the prebound slots filled from *binding*."""
        values: List[Optional[Element]] = [None] * len(self.variables)
        for slot in range(len(self.prebound)):
            values[slot] = binding[self.variables[slot]]
        return values

    def bindings(
        self, structure: Structure, binding: "Optional[Binding]" = None
    ) -> Iterator[Binding]:
        """Generate every satisfying binding (the planned matcher).

        Each emitted dict holds every key of *binding* plus one per
        variable of the plan.  It is written as the search binds —
        every variable is rebound on the current path before the next
        match, so nothing is ever deleted — and copied at emission, a
        copy that rehashes nothing.  Callers must not mutate
        *structure* while consuming the generator (it iterates live
        index views).
        """
        current: Binding = dict(binding) if binding else {}
        return self._matches(structure, self._start(current), current)

    def answers(
        self,
        structure: Structure,
        columns: Sequence[Variable],
        binding: "Optional[Binding]" = None,
    ) -> Iterator[Tuple[Element, ...]]:
        """Generate ``tuple(found[v] for v in columns)`` for each
        binding *found* that :meth:`bindings` would emit, without
        building any of them.

        A column is read from its variable's slot, or from *binding*
        when the variable has no slot; a column in neither raises
        :class:`KeyError` at the first match, as the dict lookup
        would.
        """
        start = binding or {}
        values = self._start(start)
        slot_of = {var: slot for slot, var in enumerate(self.variables)}
        slots = [slot_of.get(var) for var in columns]
        matches = self._matches(structure, values, None)
        if not slots or None in slots:
            return (
                tuple(
                    values[slot] if slot is not None else start[var]
                    for slot, var in zip(slots, columns)
                )
                for _ in matches
            )
        if len(slots) == 1:
            # itemgetter of one slot returns the bare value: zip makes
            # the 1-tuple without a Python call per row
            return zip(map(itemgetter(slots[0]), matches))
        return map(itemgetter(*slots), matches)

    def _matches(
        self,
        structure: Structure,
        values: List[Optional[Element]],
        current: "Optional[Binding]",
    ) -> Iterator:
        """The one matcher loop: iterative backtracking over the
        precompiled step order, on the value list *values*.

        Lookups and checks read slots and binds write them.  A slot is
        read only by steps deeper than the one that binds it, and that
        step overwrites it at its next candidate, so backtracking
        undoes nothing.  Yields ``dict(current)`` per match when
        *current* is a dict (each bind also writes it), else the live
        *values* list, which the caller must project before resuming.
        Candidate selection and spec application are inlined — this
        loop runs once per candidate fact of every engine in the lab,
        so each avoided function call is paid back millions of times.
        """
        steps = self.steps
        total = len(steps)
        record = current is not None
        if total == 0:
            yield dict(current) if record else values
            return
        variables = self.variables
        probes = scanned = backtracks = 0
        facts_with_view = structure.facts_with_view
        facts_with_pred = structure.facts_with_pred_view
        iterators: List[Optional[Iterator[Atom]]] = [None] * total
        checksets: List[Optional[CheckSet]] = [None] * total
        last = total - 1
        depth = 0
        fresh = True  # the current depth needs a new candidate iterator
        try:
            while depth >= 0:
                step = steps[depth]
                if fresh:
                    # pick the smallest usable index bucket for the step
                    best = None
                    best_size = 0
                    best_idx = -1
                    empty = False
                    for idx, (position, constant, slot) in enumerate(step.lookups):
                        value = constant if slot is None else values[slot]
                        probes += 1
                        bucket = facts_with_view(step.pred, position, value)
                        size = len(bucket)
                        if best is None or size < best_size:
                            if not size:
                                empty = True
                                break
                            best = bucket
                            best_size = size
                            best_idx = idx
                    if empty:
                        backtracks += 1
                        depth -= 1
                        fresh = False
                        continue
                    if best is None:
                        probes += 1
                        best = facts_with_pred(step.pred)
                        checksets[depth] = step.full
                    else:
                        checksets[depth] = step.variants[best_idx]
                    iterators[depth] = iter(best)
                matched = False
                arity = step.arity
                consts, checks, sames, binds = checksets[depth]  # type: ignore[misc]
                # checks never bind, binds never fail: failing
                # candidates write no slot
                for fact in iterators[depth]:  # type: ignore[union-attr]
                    scanned += 1
                    fact_args = fact.args
                    if len(fact_args) != arity:
                        continue
                    for position, element in consts:
                        if fact_args[position] != element:
                            break
                    else:
                        for position, slot in checks:
                            if values[slot] != fact_args[position]:
                                break
                        else:
                            for earlier, later in sames:
                                if fact_args[earlier] != fact_args[later]:
                                    break
                            else:
                                for position, slot in binds:
                                    values[slot] = fact_args[position]
                                if record:
                                    for position, slot in binds:
                                        current[variables[slot]] = fact_args[position]
                                matched = True
                                break
                if not matched:
                    backtracks += 1
                    depth -= 1
                    fresh = False
                    continue
                if depth == last:
                    yield dict(current) if record else values
                    fresh = False
                else:
                    depth += 1
                    fresh = True
        finally:
            # flush local counters even when the consumer abandons the
            # generator early (find_homomorphism, satisfies, limits)
            stats = HOM_STATS
            stats.index_probes += probes
            stats.candidates_scanned += scanned
            stats.backtracks += backtracks


def compile_plan(
    atoms: Sequence[Atom],
    prebound: "FrozenSet[Variable] | Set[Variable]" = frozenset(),
    structure: "Optional[Structure]" = None,
) -> QueryPlan:
    """Compile *atoms* (no equalities) into a :class:`QueryPlan`.

    *prebound* are the variables the caller will supply in the initial
    binding — they count as bound for ordering, take the first slots
    (sorted, so the slot order does not depend on the set's iteration
    order), and become checks, not binds.  *structure*, when given,
    contributes predicate cardinalities to the ordering heuristic only.
    """
    for item in atoms:
        if item.is_equality:
            raise ValueError(
                f"equality atom {item} must be resolved before planning"
            )
    remaining = list(atoms)
    slots: Dict[Variable, int] = {
        var: slot for slot, var in enumerate(sorted(prebound))
    }
    steps: List[PlanStep] = []
    while remaining:
        index = min(
            range(len(remaining)),
            key=lambda i: _static_score(remaining[i], slots, structure),
        )
        steps.append(_compile_step(remaining.pop(index), slots))
    return QueryPlan(
        steps=tuple(steps), prebound=frozenset(prebound), variables=tuple(slots)
    )


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------

class PlanCache:
    """A bounded map ``(atom tuple, prebound vars) -> QueryPlan``.

    The key is the query's shape as the engines see it: CQ atoms are
    deterministically ordered, so syntactically equal queries share an
    entry regardless of construction order.  The cache is cleared
    wholesale when full (entries are cheap to rebuild and real
    workloads never approach the bound).

    Thread-safe for the server's shared-worker use: the hit path stays
    a lock-free dict probe (plans are immutable once published), while
    the compile-and-insert miss path runs under a lock with a
    double-check, so every thread asking for one shape gets the *same*
    plan object and a concurrent wholesale clear cannot interleave
    with an insert.
    """

    def __init__(self, maxsize: int = 8192):
        self._maxsize = maxsize
        self._plans: Dict[
            Tuple[Tuple[Atom, ...], FrozenSet[Variable]], QueryPlan
        ] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()

    def plan_for(
        self,
        atoms: Tuple[Atom, ...],
        prebound: FrozenSet[Variable],
        structure: "Optional[Structure]" = None,
    ) -> QueryPlan:
        """Fetch or compile the plan for this query shape."""
        key = (atoms, prebound)
        plan = self._plans.get(key)
        if plan is not None:
            HOM_STATS.plan_cache_hits += 1
            return plan
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                HOM_STATS.plan_cache_hits += 1
                return plan
            HOM_STATS.plan_cache_misses += 1
            plan = compile_plan(atoms, prebound, structure)
            HOM_STATS.plans_compiled += 1
            if len(self._plans) >= self._maxsize:
                self._plans.clear()
            self._plans[key] = plan
        return plan


#: The process-wide plan cache used by :mod:`repro.lf.homomorphism`.
PLAN_CACHE = PlanCache()


def plan_for(
    atoms: Sequence[Atom],
    prebound: "FrozenSet[Variable] | Set[Variable]" = frozenset(),
    structure: "Optional[Structure]" = None,
) -> QueryPlan:
    """Module-level convenience over :data:`PLAN_CACHE`."""
    return PLAN_CACHE.plan_for(tuple(atoms), frozenset(prebound), structure)


def clear_plan_cache() -> None:
    """Empty the process-wide plan cache (benchmarks and tests)."""
    PLAN_CACHE.clear()
