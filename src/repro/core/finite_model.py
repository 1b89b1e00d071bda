"""The Theorem-2 pipeline: finite counter-models for binary BDD theories.

Given a binary theory T₀, a database D, and a conjunctive query Q with
``Chase(D, T₀) ⊭ Q``, the paper proves a finite ``M ⊨ D, T₀`` with
``M ⊭ Q`` exists, by the construction this module executes:

1.  (♠4)+(♠5): hide Q behind a fresh flag F and normalise (Section 3.1);
2.  chase D (Section 3.2) to the schedule's next depth and extract the
    skeleton S — if an F-atom ever appears, the query was certain and
    no counter-model exists.  The chase runs in parallel rounds, so
    ``Chase^b = Chase^{b−a}(Chase^a)``: a depth past the deepest one
    chased so far continues that chase by the missing rounds
    (:func:`repro.chase.deepen`), and only a shallower depth chases D
    from scratch.  Either way the depth sees the same structure and
    stats;
3.  compute κ — the maximal number of variables in the positive
    first-order rewriting of any rule body (Section 3.3; the one place
    BDD is used);
4.  take a natural coloring S̄ of S for size κ; for each η in turn,
    build ``M_η(S̄)`` and strip the colors.  The η attempts of one
    depth share their type work: the ``≡_κ`` partition is built from
    scratch, and each later ``≡_η`` partition is refined from the one
    before it (Lemma 1: ``≡_{η+1}`` refines ``≡_η``), with the same
    classes in the same order; one canonical-form table serves the
    whole call;
5.  saturate under T with the **new-element embargo** — Lemma 5 says no
    existential witness is ever missing; a violation means the
    truncation/η were too small and the pipeline retries larger (the
    next η still refines the rejected attempt's partition);
6.  check that S̄ is η-conservative up to κ (Lemma 2).  An attempt must
    pass steps 5 and 6 both, so their order decides nothing but the
    cost: the saturation is cheaper and rejects most failing attempts,
    so the report runs only on the attempts it lets through;
7.  verify: the result contains D, satisfies every rule of T₀, and has
    no F-atom (hence ``M ⊭ Q``).

Truncation note (the one substitution w.r.t. the paper, which chases to
ω): the chase runs to a finite depth d and the quotient is taken over
the skeleton's *interior* — elements of level ≤ d − margin with
``margin = max(η, κ)``.  Skeleton atoms are created together with their
child element, so the truncated skeleton is atom-complete on its
elements, and a connected positive type of size ``s`` inspects a radius
``< s`` neighbourhood: interior types computed in the truncation agree
exactly with the infinite skeleton.  If the interior misses a type
class whose witnesses are needed (possible when d is too small), step 5
or 7 fails and the pipeline moves on to the next depth, continuing the
truncation it has rather than chasing D again — the final verification
is therefore unconditional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..chase.engine import (
    ChaseConfig,
    chase,
    chase_with_embargo,
    deepen,
    is_model,
    violations,
)
from ..chase.results import ChaseResult
from ..chase.stats import ChaseStats
from ..config import BudgetedConfig, OnBudget
from ..coloring.conservativity import conservativity_report
from ..coloring.natural import natural_coloring
from ..errors import NewElementEmbargoViolation, PipelineError
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..runtime.guard import GUARD_REASONS, RuntimeGuard, StopReason
from ..lf.terms import Element, Null
from ..ptypes.partition import TypePartition
from ..ptypes.quotient import quotient
from ..rewriting.bdd import bdd_profile
from ..rewriting.rewriter import RewriteConfig
from ..skeleton.skeleton import skeleton_of_chase
from .normalize import PreparedTheory, prepare

#: At each chase depth, η is searched in ``[κ, κ + ETA_EXTRA]``.
ETA_EXTRA = 2


@dataclass
class PipelineConfig(BudgetedConfig):
    """Budgets for :func:`build_finite_counter_model`.

    Shares the library-wide budget contract
    (:class:`~repro.config.BudgetedConfig`): ``should_raise``,
    ``with_overrides``, and the :class:`~repro.config.OnBudget` enum.

    Attributes
    ----------
    chase_depths:
        The schedule of truncation depths to try, in order (η is
        searched in ``[κ, κ + ETA_EXTRA]`` at each).
    rewrite:
        Budget for the κ-computation (BDD rewriting).
    max_facts:
        Fact budget per chase run.
    on_budget:
        :attr:`~repro.config.OnBudget.RAISE` (default) raises
        :class:`~repro.errors.PipelineError` when every (depth, η) in
        the schedule fails; :attr:`~repro.config.OnBudget.RETURN`
        returns the result with ``model=None`` and the per-attempt
        reasons in :attr:`FiniteModelResult.attempts`.
    """

    chase_depths: Tuple[int, ...] = (8, 10, 12, 16)
    rewrite: "Optional[RewriteConfig]" = None
    max_facts: "Optional[int]" = 100_000
    on_budget: OnBudget = OnBudget.RAISE


@dataclass
class FiniteModelResult:
    """A verified finite counter-model and the pipeline's trace.

    Attributes
    ----------
    model:
        The finite structure M: ``M ⊨ D, T₀`` and ``M ⊭ Q``.
    query_certain:
        ``True`` when the pipeline instead discovered that the query is
        *certain* (an F-atom appeared in the chase) — then ``model`` is
        ``None`` and no counter-model exists.
    kappa / eta / depth:
        The constants the construction settled on.
    skeleton_size / interior_size / model_size:
        Element counts at the three stages.
    prepared:
        The normalised theory and flag predicate.
    attempts:
        One entry per (depth, η) tried, with the failure reason.
    chase_stats:
        Instrumentation of every chase the pipeline ran (the truncation
        chase per depth and each embargo saturation), in execution
        order — see :class:`~repro.chase.stats.ChaseStats`.  A depth
        that deepened an earlier truncation has the stats of a chase to
        that depth: the earlier rounds, then its own.
    stopped_reason:
        Why the pipeline ended (:class:`~repro.runtime.StopReason`):
        ``fixpoint`` on a verdict (model built, or query certain),
        ``budget`` when the whole (depth, η) schedule failed, and
        ``deadline``/``cancelled``/``memory`` when a runtime guard
        tripped mid-schedule.
    """

    model: "Optional[Structure]"
    query_certain: bool
    kappa: int = 0
    eta: int = 0
    depth: int = 0
    skeleton_size: int = 0
    interior_size: int = 0
    model_size: int = 0
    prepared: "Optional[PreparedTheory]" = None
    attempts: List[str] = field(default_factory=list)
    chase_stats: List[ChaseStats] = field(default_factory=list)
    stopped_reason: StopReason = StopReason.FIXPOINT


def _interior_elements(
    skeleton_structure: Structure, depth: int, margin: int
) -> "frozenset[Element]":
    """Elements of level ≤ depth − margin (constants are level 0)."""
    cutoff = depth - margin
    chosen = set()
    for element in skeleton_structure.domain():
        level = element.level if isinstance(element, Null) else 0
        if level <= cutoff:
            chosen.add(element)
    return frozenset(chosen)


def _level_gap(skeleton_structure: Structure) -> int:
    """The largest chase-level jump along one skeleton edge.

    A type query of radius r around an interior element can reach
    elements up to ``r * gap`` levels deeper — e.g. when creating a
    witness takes several datalog rounds (Mgr → Emp → witness), one
    skeleton edge spans several levels.  The interior margin must scale
    by this gap for truncated types to be exact.
    """
    gap = 1
    for fact in skeleton_structure.facts():
        if fact.arity != 2:
            continue
        parent, child = fact.args
        if isinstance(child, Null):
            parent_level = parent.level if isinstance(parent, Null) else 0
            gap = max(gap, child.level - parent_level)
    return gap


def build_finite_counter_model(
    theory: Theory,
    database: Structure,
    query: ConjunctiveQuery,
    config: "Optional[PipelineConfig]" = None,
) -> FiniteModelResult:
    """Run the full Theorem-2 construction (see the module docstring).

    Returns a result whose ``model`` is a *verified* finite model of
    ``D ∧ T`` avoiding the query — or, when the chase derives the
    query, a result with ``query_certain=True`` (the paper's premise
    ``Chase(D,T) ⊭ Q`` fails, so no counter-model exists).

    Raises
    ------
    NotBinaryError
        If the signature is not binary.
    RewritingBudgetExceeded
        If κ cannot be certified (theory not known to be BDD).
    PipelineError
        If every (depth, η) in the budget fails — with the per-attempt
        reasons attached.
    """
    config = config or PipelineConfig()
    guard = RuntimeGuard.from_config(config, "pipeline")
    # prepare() accepts binary theories and Theorem 3's frontier-1
    # shape (splitting heads via §5.1); anything else raises there.
    prepared = prepare(theory, query)
    working_theory = prepared.theory
    flag = prepared.flag_predicate

    profile = bdd_profile(prepared.theory_for_kappa, config.rewrite)
    kappa = max(profile.kappa, working_theory.max_body_width(), 2)

    result = FiniteModelResult(
        model=None, query_certain=False, kappa=kappa, prepared=prepared
    )

    def guard_stop(reason: StopReason) -> FiniteModelResult:
        """Apply the on_budget policy for a tripped guard *reason*."""
        result.stopped_reason = reason
        if config.should_raise:
            raise guard.exception(reason, stats=result)
        return result

    # Inner chases inherit the pipeline's remaining wall budget, memory
    # ceiling, and cancel token (always OnBudget.RETURN: they stop
    # promptly with a partial result, and the pipeline's own checkpoint
    # right after translates the stop into the configured policy).
    def inner_budgets() -> Dict[str, object]:
        return {
            "wall_ms": guard.remaining_ms(),
            "max_rss_mb": config.max_rss_mb,
            "cancel_token": config.cancel_token,
        }

    # One canonical-form table for the whole call: forms do not depend
    # on the structure, and the depths meet mostly the same queries.
    forms: Dict[ConjunctiveQuery, ConjunctiveQuery] = {}
    # The deepest truncation chased so far: Chase^b is Chase^a plus b − a
    # rounds, so a deeper depth continues it instead of starting over.
    deepest: "Optional[ChaseResult]" = None
    deepest_depth = -1
    for depth in config.chase_depths:
        reason = guard.check()
        if reason is not None:
            return guard_stop(reason)
        truncation = ChaseConfig(
            max_depth=depth, max_facts=config.max_facts, max_elements=None
        )
        if deepest is None or depth <= deepest_depth:
            chased = chase(database, working_theory, truncation, **inner_budgets())
        else:
            chased = deepen(deepest, working_theory, truncation, **inner_budgets())
        if depth > deepest_depth:
            deepest, deepest_depth = chased, depth
        if chased.stats is not None:
            result.chase_stats.append(chased.stats)
        reason = guard.check()
        if reason is None and chased.stopped_reason in GUARD_REASONS:
            # A guard that stopped the chase stops the pipeline: the
            # truncation is shallower than its depth says.
            reason = chased.stopped_reason
        if reason is not None:
            return guard_stop(reason)
        if chased.structure.facts_with_pred(flag):
            result.query_certain = True
            result.depth = depth
            return result
        skel = skeleton_of_chase(chased, database, working_theory)
        result.skeleton_size = skel.structure.domain_size

        if chased.saturated:
            # The chase itself is a finite model; Theorem 2 is immediate.
            model = chased.structure
            verdict, reason = _verify(model, prepared, database, query)
            if verdict:
                result.model = model
                result.depth = depth
                result.model_size = model.domain_size
                result.interior_size = model.domain_size
                return result
            result.attempts.append(f"depth {depth}: saturated chase fails: {reason}")
            continue

        colored = natural_coloring(skel.structure, kappa)
        gap = _level_gap(skel.structure)
        # The last partition built at this depth: by Lemma 1 the next
        # one refines it, and its interior (a larger margin) is smaller.
        coarser: "Optional[TypePartition]" = None
        for eta in range(kappa, kappa + ETA_EXTRA + 1):
            reason = guard.check()
            if reason is not None:
                return guard_stop(reason)
            margin = max(eta, kappa) * gap
            interior = _interior_elements(skel.structure, depth, margin)
            if not database.domain() <= interior or len(interior) <= database.domain_size:
                result.attempts.append(
                    f"depth {depth}, eta {eta}: interior too small "
                    f"({len(interior)} elements)"
                )
                continue
            partition = TypePartition(
                colored.structure,
                eta,
                elements=interior,
                forms=forms,
                coarser=coarser,
            )
            quotiented = quotient(colored.structure, eta, partition=partition)
            coarser = partition
            candidate = quotiented.structure.restrict_signature(
                colored.base_relations
            )
            try:
                saturated = chase_with_embargo(
                    candidate, working_theory, **inner_budgets()
                )
            except NewElementEmbargoViolation as violation:
                result.attempts.append(
                    f"depth {depth}, eta {eta}: embargo violation: {violation}"
                )
                continue
            report = conservativity_report(colored, eta, kappa, prebuilt=quotiented)
            if not report.conservative:
                result.attempts.append(
                    f"depth {depth}, eta {eta}: not conservative "
                    f"(witness {report.witness_query})"
                )
                continue
            if saturated.stats is not None:
                result.chase_stats.append(saturated.stats)
            model = saturated.structure
            if model.facts_with_pred(flag):
                result.attempts.append(
                    f"depth {depth}, eta {eta}: flag {flag} derived in the "
                    "quotient (conservativity too weak)"
                )
                continue
            verdict, reason = _verify(model, prepared, database, query)
            if not verdict:
                result.attempts.append(
                    f"depth {depth}, eta {eta}: verification failed: {reason}"
                )
                continue
            result.model = model
            result.eta = eta
            result.depth = depth
            result.interior_size = len(interior)
            result.model_size = model.domain_size
            return result

    result.stopped_reason = StopReason.BUDGET
    if not config.should_raise:
        return result
    raise PipelineError(
        "no (depth, eta) in the budget produced a verified finite model "
        "(slow-growing chases — e.g. several datalog rounds per witness — "
        "often need a deeper schedule: PipelineConfig(chase_depths=(32,))); "
        "attempts: " + "; ".join(result.attempts),
        stats=result,
    )


def _verify(
    model: Structure,
    prepared: PreparedTheory,
    database: Structure,
    query: ConjunctiveQuery,
) -> Tuple[bool, "Optional[str]"]:
    """The unconditional final checks of the pipeline."""
    if not model.contains_structure(database):
        return False, "model does not contain the database"
    if not is_model(model, prepared.theory):
        sample = violations(model, prepared.theory, limit=1)
        return False, f"model violates the theory, e.g. {sample}"
    if not is_model(model, prepared.original_theory):
        sample = violations(model, prepared.original_theory, limit=1)
        return False, f"model violates the original theory, e.g. {sample}"
    if model.facts_with_pred(prepared.flag_predicate):
        return False, f"flag predicate {prepared.flag_predicate} present"
    if satisfies(model, query.boolean()):
        return False, "the query holds in the model"
    return True, None


def certify_counter_model(
    result: FiniteModelResult,
    theory: Theory,
    database: Structure,
    query: ConjunctiveQuery,
) -> bool:
    """Re-verify a pipeline result from scratch (used by experiments
    and cross-checks; independent of any pipeline state)."""
    if result.model is None:
        return False
    model = result.model
    return (
        model.contains_structure(database)
        and is_model(model, theory)
        and not satisfies(model, query.boolean())
    )
