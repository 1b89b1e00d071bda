"""Compiled join plans: the planned query-evaluation path.

The legacy matcher in :mod:`repro.lf.homomorphism` re-derives a join
order atom-by-atom on every call — each search node re-scores every
pending atom with ``min()`` and each variable extension copies the whole
binding dict.  Every engine in the lab (chase trigger evaluation, the
PerfectRef-style rewriter's subsumption checks, ptype computation, the
FC model search) bottoms out there, so those costs multiply.

This module compiles each conjunction of atoms *once* into an explicit
:class:`QueryPlan`:

* a **static atom ordering** chosen greedily — most-constrained atom
  first, ties broken by predicate cardinality when a structure's index
  statistics are available at compile time (plans stay valid on any
  structure; the statistics only steer the order);
* **per-step specs**: for each atom, which argument positions hold
  constants (checked early), which hold variables bound by earlier
  steps (checked against the running binding), and which bind a
  variable for the first time;
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
with a per-depth undo trail mutates a single binding dict, copying it
only when a complete match is yielded.  The result is binding-for-
binding equal (as a set) to the legacy backtracking matcher — the
property suite enforces this.

Instrumentation lives in :class:`HomStats`; a process-global instance
(:data:`HOM_STATS`) accumulates counters that the chase engine
snapshots per run and folds into
:class:`~repro.chase.stats.ChaseStats`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields, replace
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
    describe the plan cache and therefore depend on *cache warmth*
    (what ran earlier in the process), not only on the inputs — they
    are treated like wall times by the determinism machinery (see
    :data:`repro.chase.stats.TIMING_FIELDS`).  The remaining counters
    are pure functions of (queries, structures, bindings):

    * ``plan_requests`` — plan lookups (hits + misses);
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
        """Plan-cache lookups: deterministic, unlike the hit/miss split."""
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

    def as_dict(self, cache: bool = True) -> Dict[str, int]:
        """JSON-ready counters; ``cache=False`` drops the warmth-dependent
        plan-cache split (keeping the deterministic ``plan_requests``)."""
        payload: Dict[str, int] = {
            "plan_requests": self.plan_requests,
            "index_probes": self.index_probes,
            "candidates_scanned": self.candidates_scanned,
            "backtracks": self.backtracks,
        }
        if cache:
            payload["plans_compiled"] = self.plans_compiled
            payload["plan_cache_hits"] = self.plan_cache_hits
            payload["plan_cache_misses"] = self.plan_cache_misses
        return payload

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
#: candidates never touch the binding: ``(consts, checks, sames,
#: binds)`` — ``consts`` are ``(position, element)`` equality tests,
#: ``checks`` are ``(position, variable)`` tests against the running
#: binding, ``sames`` are ``(first_position, later_position)``
#: intra-atom repeat tests, and ``binds`` are ``(position, variable)``
#: first-occurrence assignments applied only once everything passed.
CheckSet = Tuple[
    Tuple[Tuple[int, Element], ...],
    Tuple[Tuple[int, Variable], ...],
    Tuple[Tuple[int, int], ...],
    Tuple[Tuple[int, Variable], ...],
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
        ``(position, constant, variable)`` triples usable for an index
        lookup — exactly one of *constant* / *variable* is set, and a
        variable here is statically guaranteed bound before this step.
    variants:
        Parallel to *lookups*: the :data:`CheckSet` to run when that
        lookup's bucket was chosen.  Every fact in the
        ``(pred, position, element)`` bucket satisfies that position's
        test by construction, so the corresponding check is dropped —
        element equality is a Python-level call, and this skips it once
        per candidate.
    full:
        The unfiltered :data:`CheckSet`, for the predicate-wide
        fallback bucket.
    """

    atom: Atom
    pred: str
    arity: int
    lookups: Tuple[Tuple[int, Optional[Element], Optional[Variable]], ...]
    variants: Tuple[CheckSet, ...]
    full: CheckSet


def _compile_step(atom: Atom, bound: Set[Variable]) -> PlanStep:
    """Compile one atom given the variables bound by earlier steps."""
    lookups: List[Tuple[int, Optional[Element], Optional[Variable]]] = []
    consts: List[Tuple[int, Element]] = []
    checks: List[Tuple[int, Variable]] = []
    sames: List[Tuple[int, int]] = []
    binds: List[Tuple[int, Variable]] = []
    first_at: Dict[Variable, int] = {}
    for position, arg in enumerate(atom.args):
        if isinstance(arg, Variable):
            if arg in bound:
                lookups.append((position, None, arg))
                checks.append((position, arg))
            elif arg in first_at:
                # repeated within this atom: compare the two positions
                # directly, no binding needed to test it
                sames.append((first_at[arg], position))
            else:
                first_at[arg] = position
                binds.append((position, arg))
        else:
            lookups.append((position, arg, None))
            consts.append((position, arg))
    full: CheckSet = (tuple(consts), tuple(checks), tuple(sames), tuple(binds))
    variants: List[CheckSet] = []
    for position, constant, variable in lookups:
        if variable is None:
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
    atom: Atom, bound: Set[Variable], structure: "Optional[Structure]"
) -> tuple:
    """Ordering key: most-constrained first, then index statistics.

    Mirrors the legacy matcher's ``(unbound, -bound)`` heuristic —
    computed over argument occurrences — and breaks ties with the
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
    """

    steps: Tuple[PlanStep, ...]
    prebound: FrozenSet[Variable]

    def bindings(
        self, structure: Structure, binding: "Optional[Binding]" = None
    ) -> Iterator[Binding]:
        """Generate every satisfying binding (the planned matcher).

        Iterative backtracking over the precompiled step order: a
        single binding dict is mutated through an undo trail per depth
        and copied only when a full match is emitted.  Candidate
        selection and spec application are inlined — this loop runs
        once per candidate fact of every engine in the lab, so each
        avoided function call is paid back millions of times.  Callers
        must not mutate *structure* while consuming the generator (live
        index views, same contract as the legacy matcher).
        """
        current: Binding = dict(binding) if binding else {}
        steps = self.steps
        total = len(steps)
        if total == 0:
            yield dict(current)
            return
        probes = scanned = backtracks = 0
        facts_with_view = structure.facts_with_view
        facts_with_pred = structure.facts_with_pred_view
        iterators: List[Optional[Iterator[Atom]]] = [None] * total
        checksets: List[Optional[CheckSet]] = [None] * total
        trails: List[List[Variable]] = [[] for _ in range(total)]
        depth = 0
        fresh = True  # the current depth needs a new candidate iterator
        try:
            while depth >= 0:
                step = steps[depth]
                trail = trails[depth]
                if fresh:
                    # pick the smallest usable index bucket for the step
                    best = None
                    best_size = 0
                    best_idx = -1
                    empty = False
                    for idx, (position, constant, variable) in enumerate(step.lookups):
                        value = constant if variable is None else current[variable]
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
                while trail:
                    del current[trail.pop()]
                matched = False
                arity = step.arity
                consts, checks, sames, binds = checksets[depth]  # type: ignore[misc]
                # checks never bind, binds never fail: failing
                # candidates leave the binding and trail untouched
                for fact in iterators[depth]:  # type: ignore[union-attr]
                    scanned += 1
                    fact_args = fact.args
                    if len(fact_args) != arity:
                        continue
                    for position, element in consts:
                        if fact_args[position] != element:
                            break
                    else:
                        for position, variable in checks:
                            if current[variable] != fact_args[position]:
                                break
                        else:
                            for earlier, later in sames:
                                if fact_args[earlier] != fact_args[later]:
                                    break
                            else:
                                for position, variable in binds:
                                    current[variable] = fact_args[position]
                                    trail.append(variable)
                                matched = True
                                break
                if not matched:
                    backtracks += 1
                    depth -= 1
                    fresh = False
                    continue
                if depth + 1 == total:
                    yield dict(current)
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
    binding — they count as bound for ordering and become checks, not
    binds.  *structure*, when given, contributes predicate cardinalities
    to the ordering heuristic only.
    """
    for item in atoms:
        if item.is_equality:
            raise ValueError(
                f"equality atom {item} must be resolved before planning"
            )
    remaining = list(atoms)
    bound: Set[Variable] = set(prebound)
    steps: List[PlanStep] = []
    while remaining:
        index = min(
            range(len(remaining)),
            key=lambda i: _static_score(remaining[i], bound, structure),
        )
        chosen = remaining.pop(index)
        steps.append(_compile_step(chosen, bound))
        bound.update(chosen.variable_set())
    return QueryPlan(steps=tuple(steps), prebound=frozenset(prebound))


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
