"""BDD certificates, the constant κ, and rewriting-based answering.

The paper uses the BDD property in exactly one way (proof of Lemma 5):
for each rule body Ψ it takes the positive first-order rewriting Ψ′ and
the constant

    κ = max { |Var(Ψ′)| : Ψ ⇒ ψ is a rule of T }     (Section 3.3)

— the largest number of variables in the rewriting of any rule body.
:func:`kappa` computes that constant with the rewriting engine;
:func:`bdd_profile` exposes the per-rule rewritings for inspection.

``is_bdd_for`` returns a *three-valued* verdict: BDD is undecidable, so
budget exhaustion yields ``None`` rather than a guess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..config import OnBudget
from ..errors import RewritingBudgetExceeded
from ..lf.homomorphism import all_answers, satisfies
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Element
from ..runtime.guard import StopReason, guard_exception
from .rewriter import RewriteConfig, RewritingResult, rewrite


@dataclass
class RuleRewriting:
    """The rewriting of one rule body (an entry of the BDD profile).

    Attributes
    ----------
    rule:
        The rule whose body was rewritten.
    result:
        The rewriting of ``rule.body_query()`` (frontier variables free).
    """

    rule: Rule
    result: RewritingResult

    @property
    def width(self) -> int:
        """``|Var(Ψ′)|`` for this rule's body."""
        return self.result.max_width


@dataclass
class BDDProfile:
    """The rewritings of every rule body of a theory.

    Attributes
    ----------
    entries:
        One :class:`RuleRewriting` per rule.
    saturated:
        Whether *every* rewriting saturated.  If so the profile is a
        certificate that all rule bodies are FO-rewritable — the
        precise ingredient the Theorem-2 pipeline needs.
    """

    entries: List[RuleRewriting] = field(default_factory=list)

    @property
    def saturated(self) -> bool:
        return all(entry.result.saturated for entry in self.entries)

    @property
    def kappa(self) -> int:
        """The paper's κ: max rewriting width over rule bodies."""
        return max((entry.width for entry in self.entries), default=0)

    def rewriting_of(self, rule: Rule) -> RewritingResult:
        """The rewriting of a specific rule's body."""
        for entry in self.entries:
            if entry.rule == rule:
                return entry.result
        raise KeyError(f"rule not in profile: {rule}")


def rewrite_query(
    query: ConjunctiveQuery,
    theory: Theory,
    config: "Optional[RewriteConfig]" = None,
) -> RewritingResult:
    """Alias of :func:`repro.rewriting.rewriter.rewrite` (re-exported
    here so the BDD-facing API is self-contained)."""
    return rewrite(query, theory, config)


def is_bdd_for(
    theory: Theory,
    query: ConjunctiveQuery,
    config: "Optional[RewriteConfig]" = None,
) -> "Optional[bool]":
    """Three-valued FO-rewritability of *query* under *theory*.

    ``True`` — the rewriting saturated (certificate in hand);
    ``None`` — the budget ran out (status unknown; raise the budget).
    ``False`` is never returned: divergence within a budget is not a
    proof of non-rewritability.
    """
    config = config or RewriteConfig()
    quiet = config.with_overrides(on_budget=OnBudget.RETURN)
    result = rewrite(query, theory, quiet)
    return True if result.saturated else None


def bdd_profile(
    theory: Theory,
    config: "Optional[RewriteConfig]" = None,
) -> BDDProfile:
    """Rewrite every rule body of *theory* (frontier variables free).

    Raises
    ------
    RewritingBudgetExceeded
        If some rule body's rewriting exhausts its budget and the
        config says :attr:`~repro.config.OnBudget.RAISE` (the default):
        the theory's
        BDD status is then unknown and κ cannot be certified.
    """
    profile = BDDProfile()
    for rule in theory.rules:
        result = rewrite(rule.body_query(), theory, config)
        profile.entries.append(RuleRewriting(rule, result))
    return profile


def kappa(theory: Theory, config: "Optional[RewriteConfig]" = None) -> int:
    """The constant κ of Section 3.3 (requires all rewritings to
    saturate; see :func:`bdd_profile`)."""
    return bdd_profile(theory, config).kappa


def _unsaturated(result: RewritingResult, message: str) -> Exception:
    """The exception for a rewrite that stopped short: the budget error
    for a count stop, the guard's typed exception for a guard stop, each
    carrying the run's stats."""
    if result.stopped_reason is StopReason.BUDGET:
        return RewritingBudgetExceeded(message, stats=result.stats)
    return guard_exception(result.stopped_reason, message, stats=result.stats)


def answer_by_rewriting(
    database: Structure,
    theory: Theory,
    query: ConjunctiveQuery,
    config: "Optional[RewriteConfig]" = None,
) -> bool:
    """Certain Boolean answer via Definition 2: ``D ⊨ Φ′``.

    Unlike the chase route this is always terminating — but it requires
    the rewriting to saturate (raises otherwise).
    """
    result = rewrite(query, theory, config)
    if not result.saturated:
        raise _unsaturated(result, "rewriting did not saturate; answer unknown")
    return satisfies(database, result.ucq)


def answers_by_rewriting(
    database: Structure,
    theory: Theory,
    query: ConjunctiveQuery,
    config: "Optional[RewriteConfig]" = None,
) -> "set[Tuple[Element, ...]]":
    """Certain answers (free variables) via the rewriting.

    Only constant tuples are returned, mirroring
    :func:`repro.chase.certain.certain_answers`.
    """
    result = rewrite(query, theory, config)
    if not result.saturated:
        raise _unsaturated(result, "rewriting did not saturate; answers unknown")
    raw = all_answers(database, result.ucq)
    return {row for row in raw if all(isinstance(v, Constant) for v in row)}
