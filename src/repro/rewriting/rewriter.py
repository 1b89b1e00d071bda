"""Piece-wise UCQ rewriting: the executable face of BDD.

Definition 2 of the paper: ``T`` is BDD iff every query Φ has a UCQ
rewriting Φ′ with ``T, D ⊨ Φ ⟺ D ⊨ Φ′`` for all D.  This module
computes Φ′ by the classical resolution-style procedure (PerfectRef /
XRewrite family) for single-head rules:

* **rewriting step** — an atom α of a disjunct is resolved against a
  rule head, replacing α by the (renamed) rule body, subject to the
  applicability condition on existential variables: the term unified
  with an existential variable must be a variable occurring nowhere
  else in the query and not free;

* **factorisation step** — two atoms with the same predicate are
  unified into one, which can enable a rewriting step that the
  applicability condition would otherwise block (needed e.g. for the
  paper's Example 7 theory, where ``E(x,y) ∧ E(x',y)`` must be
  factorised before the TGD ``E(x,y) ⇒ ∃z E(y,z)`` can resolve).

Saturation of this procedure is a *certificate* that the input query is
FO-rewritable under T; exhaustion of the step budget leaves the status
unknown (BDD is undecidable, so a budget is unavoidable).

Engine architecture
-------------------
:func:`rewrite` is a worklist engine built for throughput on the
rewriting-set explosion both follow-up papers identify as the central
computational obstacle:

* the worklist holds *canonical forms* (variables ``f0…/v0…``), so one
  reserved-namespace rule instance per rule (``_w{i}_{j}`` variables)
  is provably disjoint from every query it resolves against — no rule
  is renamed apart per step;
* rules are dispatched from a per-(predicate, arity) table, and cheap
  *applicability prefilters* (head constants clashing with the target,
  existential head positions unified with a constant or a free
  variable) reject hopeless resolution attempts before any unifier is
  built;
* the eager-subsumption frontier is a
  :class:`~repro.rewriting.index.SubsumptionIndex`: a fresh disjunct is
  homomorphism-checked only against structurally comparable kept
  disjuncts instead of the whole UCQ;
* every run records a :class:`~repro.rewriting.stats.RewriteStats`
  (step/candidate funnel, index effectiveness, phase wall times) on
  :attr:`RewritingResult.stats`.

The property suite (``tests/property/test_rewrite_parity.py``) checks
saturated rewritings against Definition 2 itself: on drawn databases,
and on fixed cases that need a factorisation, their answers agree with
the chase's.  It checks the eager pruning against the unpruned
closure of ``tests/oracles.py`` (``exact_rewriting``), and
``depth_bound`` against the chase of each disjunct's canonical
database.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..config import BudgetedConfig, OnBudget
from ..errors import RewritingBudgetExceeded, RuleError
from ..runtime.guard import RuntimeGuard, StopReason
from ..lf.atoms import Atom
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule, Theory
from ..lf.terms import Constant, Term, Variable
from .index import SubsumptionIndex, minimize_indexed
from .stats import RewriteStats
from .subsume import cq_subsumes, normalize_equalities
from .unify import Unifier


@dataclass
class RewriteConfig(BudgetedConfig):
    """Budgets for the rewriting engine.

    Shares the library-wide budget contract
    (:class:`~repro.config.BudgetedConfig`): ``should_raise``,
    ``with_overrides``, and the :class:`~repro.config.OnBudget` enum
    (its string values are accepted too).

    Attributes
    ----------
    max_steps:
        Maximum number of (rewriting + factorisation) step applications.
    max_queries:
        Maximum number of distinct disjuncts generated.
    on_budget:
        :attr:`~repro.config.OnBudget.RAISE` (default) raises
        :class:`~repro.errors.RewritingBudgetExceeded`;
        :attr:`~repro.config.OnBudget.RETURN` stops quietly with
        ``saturated=False``.
    """

    max_steps: int = 20_000
    max_queries: int = 2_000
    on_budget: OnBudget = OnBudget.RAISE


@dataclass
class RewritingResult:
    """Outcome of a rewriting run.

    Attributes
    ----------
    ucq:
        The rewriting computed so far (complete iff ``saturated``).
    saturated:
        ``True`` iff the closure was reached: the UCQ is a certified
        positive first-order rewriting of the input query under the
        theory (witnessing Definition 2 for this query).
    steps:
        Number of step applications performed.
    generated:
        Number of distinct disjuncts ever generated (pre-minimisation).
    depth_bound:
        The paper's constant ``k_Ψ``, certified: each disjunct records
        how many resolution steps produced it, and a database match of
        a disjunct at resolution depth d yields the original query
        within d chase rounds.  Hence ``Chase(D,T) ⊨ Ψ`` implies
        ``Chase^{depth_bound}(D,T) ⊨ Ψ`` — the standard definition of
        BDD from Section 1.1, made effective.  (Factorisation steps do
        not count: a factored match *is* a match of its parent.)
    stats:
        Per-run instrumentation (:class:`~repro.rewriting.stats.RewriteStats`).
        ``None`` only on hand-built results.
    stopped_reason:
        Why the run ended (:class:`~repro.runtime.StopReason`):
        ``fixpoint`` iff :attr:`saturated`, ``budget`` on an exhausted
        step/query budget, and ``deadline``/``cancelled``/``memory``
        when a runtime guard tripped.
    """

    ucq: UnionOfConjunctiveQueries
    saturated: bool
    steps: int
    generated: int
    depth_bound: int = 0
    stats: "Optional[RewriteStats]" = None
    stopped_reason: StopReason = StopReason.FIXPOINT

    @property
    def max_width(self) -> int:
        """Largest variable count among disjuncts (κ's ingredient).

        ``0`` for the empty rewriting — an unsatisfiable query rewrites
        to the empty UCQ (``false``), and hand-built results may carry
        ``ucq=None``; neither case may raise (regression: the κ
        aggregation and ``__str__`` both touch this on every result).
        """
        if self.ucq is None or len(self.ucq) == 0:
            return 0
        return self.ucq.max_width

    def __str__(self) -> str:
        status = "saturated" if self.saturated else "budget-exhausted"
        disjuncts = 0 if self.ucq is None else len(self.ucq)
        return (
            f"RewritingResult({status}, {disjuncts} disjuncts, "
            f"{self.steps} steps, max width {self.max_width})"
        )


# ----------------------------------------------------------------------
# Step primitives (tested directly)
# ----------------------------------------------------------------------

def _applicable_classes(
    unifier: Unifier,
    existentials,
    occurrences: Dict[Variable, int],
    inside_target: Dict[Variable, int],
    free: Set[Variable],
    query_vars,
) -> bool:
    """The applicability condition for existential variables.

    For each existential variable ``z`` of the (renamed) rule, the
    unification class of ``z`` may contain, besides ``z`` itself, only
    query variables that occur in the query *exclusively inside the
    resolved atom* and are not free.  Constants, free variables,
    rule-frontier variables, shared query variables, and other
    existential variables in the class all block the step — the witness
    produced by the chase is a fresh null that cannot coincide with any
    of those.  The engine feeds it per-query memoised occurrence maps
    instead of recomputing them per (rule, atom) pair.
    """
    for z in existentials:
        for member in unifier.class_of(z):
            if member == z:
                continue
            if isinstance(member, Constant):
                return False
            if member in existentials:
                return False  # two distinct witnesses forced equal
            if member in query_vars:
                if member in free:
                    return False
                if occurrences.get(member, 0) != inside_target.get(member, 0):
                    return False  # occurs elsewhere in the query
            else:
                return False  # a universal variable of the rule
    return True


def _protect_free_variables(
    query: ConjunctiveQuery,
    substitution: Dict[Variable, Term],
    new_atoms: List[Atom],
) -> None:
    """Keep the free-variable schema stable across a substitution.

    When a free variable's image under *substitution* differs from
    itself (it was merged with a constant or another variable), append
    the equality atom ``f = image`` so that ``f`` still occurs in the
    query and the free tuple can stay unchanged.
    """
    for var in query.free:
        image = substitution.get(var, var)
        if image != var:
            new_atoms.append(Atom("=", (var, image)))


def _factorizations(
    query: ConjunctiveQuery,
    prefer: "Optional[Tuple[Variable, ...]]" = None,
) -> "Iterable[ConjunctiveQuery]":
    """All one-step factorisations: unify two same-predicate atoms.

    Sound (the result is contained in the original query) and needed to
    unblock rewriting steps whose existential witness occurs in several
    atoms.  Atoms are bucketed by (predicate, arity) so only genuinely
    unifiable pairs are enumerated; *prefer* lets the worklist engine
    pass its per-query representative order instead of recomputing it.
    """
    if prefer is None:
        prefer = tuple(query.free) + tuple(
            sorted(query.variables() - set(query.free))
        )
    buckets: Dict[Tuple[str, int], List[Atom]] = {}
    for item in query.atoms:
        if not item.is_equality:
            buckets.setdefault((item.pred, item.arity), []).append(item)
    for bucket in buckets.values():
        for i in range(len(bucket)):
            for j in range(i + 1, len(bucket)):
                unifier = Unifier()
                if not unifier.unify_atoms(bucket[i], bucket[j]):
                    continue
                substitution = unifier.substitution(prefer=prefer)
                merged = [a.substitute(substitution) for a in query.atoms]  # type: ignore[arg-type]
                _protect_free_variables(query, substitution, merged)
                yield ConjunctiveQuery(merged, query.free)


# ----------------------------------------------------------------------
# Prepared rules: memoised rename-apart instances with prefilters
# ----------------------------------------------------------------------

class _PreparedRule:
    """One rule, renamed once into the reserved ``_w`` namespace.

    The worklist engine only ever resolves against *canonical* queries
    (variables named ``f0…``/``v0…``), so a single instance whose
    variables are ``_w{rule}_{j}`` is disjoint from every query for the
    whole run, so no per-step rename is needed.
    The precomputed head shape powers the applicability prefilter.
    """

    __slots__ = (
        "rule",
        "head",
        "body",
        "existentials",
        "is_existential",
        "const_positions",
        "exist_positions",
    )

    def __init__(self, rule: Rule, index: int):
        mapping = {
            var: Variable(f"_w{index}_{j}")
            for j, var in enumerate(sorted(rule.variables()))
        }
        instance = rule.substitute(mapping)
        self.rule = instance
        self.head = instance.head_atom
        self.body = instance.body
        self.existentials = instance.existential_variables()
        self.is_existential = bool(self.existentials)
        self.const_positions: Tuple[Tuple[int, Constant], ...] = tuple(
            (i, arg)
            for i, arg in enumerate(self.head.args)
            if isinstance(arg, Constant)
        )
        self.exist_positions: Tuple[int, ...] = tuple(
            i for i, arg in enumerate(self.head.args) if arg in self.existentials
        )

    def prefiltered(self, target: Atom, free: Set[Variable]) -> bool:
        """``True`` iff the resolution is *provably* hopeless, cheaply.

        Sound rejections only: a head constant clashing with a target
        constant fails unification; a target constant or free variable
        at an existential head position lands in the existential's
        unification class and fails the applicability condition.
        """
        args = target.args
        for i, const in self.const_positions:
            arg = args[i]
            if isinstance(arg, Constant) and arg != const:
                return True
        for i in self.exist_positions:
            arg = args[i]
            if isinstance(arg, Constant) or arg in free:
                return True
        return False


def _prepare_rules(theory: Theory) -> Dict[Tuple[str, int], List[_PreparedRule]]:
    """The per-(head predicate, arity) dispatch table of prepared rules."""
    table: Dict[Tuple[str, int], List[_PreparedRule]] = {}
    for index, rule in enumerate(theory.rules):
        prepared = _PreparedRule(rule, index)
        key = (prepared.head.pred, prepared.head.arity)
        table.setdefault(key, []).append(prepared)
    return table


def _require_single_head(theory: Theory) -> None:
    for rule in theory.rules:
        if not rule.is_single_head:
            raise RuleError(f"rewriting requires single-head rules, got: {rule}")


# ----------------------------------------------------------------------
# The worklist engine
# ----------------------------------------------------------------------

def rewrite(
    query: ConjunctiveQuery,
    theory: Theory,
    config: "Optional[RewriteConfig]" = None,
    **overrides,
) -> RewritingResult:
    """Compute the UCQ rewriting of *query* under *theory*.

    The indexed worklist engine (see the module docstring).  Requires
    single-head rules (convert multi-head theories with
    :mod:`repro.transforms.multihead` first).  Keyword overrides
    (``max_steps=...``, ``wall_ms=...``) are applied on top of *config*
    via :meth:`~repro.config.BudgetedConfig.with_overrides`.

    Raises
    ------
    RewritingBudgetExceeded
        When the budget is hit and ``config.should_raise``.
    DeadlineExceeded / Cancelled / MemoryBudgetExceeded
        When a runtime guard trips and ``config.should_raise``.
    RuleError
        If the theory contains a multi-head rule.
    """
    config = (config or RewriteConfig()).with_overrides(**overrides)
    _require_single_head(theory)
    stats = RewriteStats()
    run_start = time.perf_counter()
    guard = RuntimeGuard.from_config(config, "rewrite")

    start = normalize_equalities(query)
    if start is None:
        stats.wall_ms = (time.perf_counter() - run_start) * 1000.0
        return RewritingResult(
            UnionOfConjunctiveQueries([]), True, 0, 0, stats=stats
        )

    dispatch = _prepare_rules(theory)
    stats.rule_instances = len(theory.rules)

    index = SubsumptionIndex()
    start_marker = start.canonical()
    seen: Set[ConjunctiveQuery] = {start_marker}
    pruned: Set[ConjunctiveQuery] = set()
    kept: List[ConjunctiveQuery] = [start]
    index.add(start)
    depth_of: Dict[ConjunctiveQuery, int] = {start_marker: 0}
    #: The worklist holds canonical forms: their variables are drawn
    #: from the reserved ``f*``/``v*`` pools, disjoint from every
    #: prepared rule instance by construction.  It is a best-first
    #: min-heap on (atom count, width): the most general disjuncts are
    #: expanded first, so strong subsumers reach the frontier early and
    #: the eager pruning bites sooner.
    tick = 0
    worklist: List[Tuple[int, int, int, ConjunctiveQuery, int]] = [
        (len(start_marker.atoms), start_marker.width, tick, start_marker, 0)
    ]
    steps = 0
    generated = 1
    saturated = True
    stopped_reason = StopReason.FIXPOINT
    stats.kept = 1

    def consider(
        candidate: "Optional[ConjunctiveQuery]",
        depth: int,
        prunable: bool = True,
    ) -> None:
        """Queue *candidate* unless it is a duplicate.

        Eager subsumption pruning is applied only when *prunable*:
        factorisation results are *always* contained in their parent, so
        pruning them would (incorrectly) prevent the very rewriting
        steps factorisation exists to enable.
        """
        nonlocal generated
        if candidate is None:
            return
        stats.candidates += 1
        normal = normalize_equalities(candidate)
        if normal is None:
            stats.unsatisfiable += 1
            return
        marker = normal.canonical()
        if marker in seen:
            if depth < depth_of.get(marker, depth):
                depth_of[marker] = depth
            # A query pruned on an earlier (prunable) arrival must be
            # resurrected when it re-arrives as a kept query's
            # factorisation: those are kept unconditionally for
            # completeness, and the first arrival's seen-marker must
            # not veto that (the pruned copy never ran its own rewrite
            # steps, so dropping this one would cut a derivation chain).
            if prunable or marker not in pruned:
                stats.duplicates += 1
                return
            pruned.discard(marker)
        else:
            seen.add(marker)
            depth_of[marker] = depth
            generated += 1
        if prunable:
            probe_start = time.perf_counter()
            stats.index_probes += 1
            candidates = index.subsumer_candidates(normal)
            stats.pairwise_checks_avoided += len(index) - len(candidates)
            contained = False
            for existing in candidates:
                stats.subsumption_checks += 1
                if cq_subsumes(existing, normal):
                    contained = True
                    break
            stats.subsume_ms += (time.perf_counter() - probe_start) * 1000.0
            if contained:
                stats.subsumed += 1
                pruned.add(marker)
                # The pruned query's factorisations are contained in
                # the same subsumer, so each is pruned on arrival too.
                # Offering them here records this query's depth for
                # them: when a kept query's factorisation later
                # resurrects one, depth_bound reads that lower depth
                # instead of the kept query's.
                for factored in _factorizations(normal):
                    stats.factor_steps += 1
                    consider(factored, depth, prunable=True)
                return
        kept.append(normal)
        index.add(normal)
        stats.kept += 1
        nonlocal tick
        tick += 1
        heapq.heappush(
            worklist, (len(marker.atoms), marker.width, tick, marker, depth)
        )

    while worklist:
        reason = guard.check()
        if reason is not None:
            saturated = False
            stopped_reason = reason
            if config.should_raise:
                stats.steps = steps
                stats.wall_ms = (time.perf_counter() - run_start) * 1000.0
                raise guard.exception(reason, stats=stats)
            break
        if steps >= config.max_steps or len(seen) >= config.max_queries:
            saturated = False
            stopped_reason = StopReason.BUDGET
            if config.should_raise:
                stats.steps = steps
                stats.wall_ms = (time.perf_counter() - run_start) * 1000.0
                raise RewritingBudgetExceeded(
                    f"rewriting budget exhausted ({steps} steps, "
                    f"{len(seen)} queries)",
                    stats=stats,
                )
            break
        _, _, _, current, current_depth = heapq.heappop(worklist)

        phase_start = time.perf_counter()
        free_set = set(current.free)
        query_vars = current.variables()
        prefer = tuple(current.free) + tuple(sorted(query_vars - free_set))
        occurrences: Dict[Variable, int] = {}
        for item in current.atoms:
            for arg in item.args:
                if isinstance(arg, Variable):
                    occurrences[arg] = occurrences.get(arg, 0) + 1

        for target in current.atoms:
            if target.is_equality:
                continue
            bucket = dispatch.get((target.pred, target.arity))
            if not bucket:
                continue
            inside_target: Dict[Variable, int] = {}
            for arg in target.args:
                if isinstance(arg, Variable):
                    inside_target[arg] = inside_target.get(arg, 0) + 1
            for prepared in bucket:
                if prepared.prefiltered(target, free_set):
                    stats.prefilter_skips += 1
                    continue
                steps += 1
                stats.rewrite_steps += 1
                unifier = Unifier()
                if not unifier.unify_atoms(target, prepared.head):
                    continue
                if prepared.is_existential and not _applicable_classes(
                    unifier,
                    prepared.existentials,
                    occurrences,
                    inside_target,
                    free_set,
                    query_vars,
                ):
                    continue
                substitution = unifier.substitution(prefer=prefer)
                new_atoms = [
                    item.substitute(substitution)  # type: ignore[arg-type]
                    for item in current.atoms
                    if item != target
                ]
                new_atoms.extend(
                    item.substitute(substitution)  # type: ignore[arg-type]
                    for item in prepared.body
                )
                _protect_free_variables(current, substitution, new_atoms)
                consider(
                    ConjunctiveQuery(new_atoms, current.free), current_depth + 1
                )
        stats.rewrite_ms += (time.perf_counter() - phase_start) * 1000.0

        phase_start = time.perf_counter()
        for factored in _factorizations(current, prefer=prefer):
            steps += 1
            stats.factor_steps += 1
            # a match of the factored query is a match of current:
            # no chase step involved, so the depth does not grow
            consider(factored, current_depth, prunable=False)
        stats.factor_ms += (time.perf_counter() - phase_start) * 1000.0

    phase_start = time.perf_counter()
    final = minimize_indexed(kept, stats)
    stats.minimize_ms = (time.perf_counter() - phase_start) * 1000.0
    depth_bound = max(
        (depth_of.get(disjunct.canonical(), 0) for disjunct in final),
        default=0,
    )
    stats.steps = steps
    stats.minimized = len(final)
    stats.wall_ms = (time.perf_counter() - run_start) * 1000.0
    return RewritingResult(
        ucq=UnionOfConjunctiveQueries(final),
        saturated=saturated,
        steps=steps,
        generated=generated,
        depth_bound=depth_bound,
        stats=stats,
        stopped_reason=stopped_reason,
    )
