"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch one type at an API boundary.  Subclasses are grouped by
the subsystem that raises them.

Budget-family exceptions — everything an engine raises when it stops
short of its verdict, whether on a count budget, a wall-clock deadline,
a memory ceiling, or cancellation — share the :class:`BudgetError`
base and its ``.stats`` attribute: the engine's stats snapshot at stop
time (:class:`~repro.chase.stats.ChaseStats`,
:class:`~repro.rewriting.stats.RewriteStats`,
:class:`~repro.fc.SearchStats`, or the pipeline's partial
:class:`~repro.core.FiniteModelResult`).
"""

from __future__ import annotations

from typing import Any, Optional


class ReproError(Exception):
    """Base class for every error raised by the library."""


class ParseError(ReproError):
    """A rule, query, or fact string could not be parsed.

    Attributes
    ----------
    text:
        The offending input fragment.
    position:
        Character offset of the error inside ``text`` (or ``None``).
    """

    def __init__(self, message: str, text: str = "", position: "int | None" = None):
        super().__init__(message)
        self.text = text
        self.position = position


class SignatureError(ReproError):
    """A term, atom, or rule is inconsistent with the ambient signature.

    Raised for arity mismatches, unknown relation symbols when strict
    checking is requested, or attempts to use a reserved predicate name.
    """


class ArityError(SignatureError):
    """An atom has the wrong number of arguments for its predicate."""


class NotBinaryError(SignatureError):
    """An operation that requires a binary signature received a theory or
    structure with a relation of arity greater than two."""


class RuleError(ReproError):
    """A rule is malformed (e.g. unsafe head variables in a datalog rule,
    or an existential TGD whose frontier is not contained in the body)."""


class BudgetError(ReproError):
    """Common base of every "stopped short of the verdict" exception.

    Attributes
    ----------
    stats:
        The raising engine's stats snapshot at stop time (the same
        object a quiet ``OnBudget.RETURN`` run would have put on its
        partial result), or ``None`` on hand-built instances.
    stopped_reason:
        The :class:`~repro.runtime.StopReason` value naming the cause
        (``"budget"`` for count budgets; ``"deadline"`` /
        ``"cancelled"`` / ``"memory"`` for the runtime guards).
    """

    stopped_reason: str = "budget"

    def __init__(self, message: str, stats: Any = None):
        super().__init__(message)
        self.stats = stats


class DeadlineExceeded(BudgetError):
    """The run's wall-clock budget (``wall_ms``) expired before the
    verdict.  Carries the partial stats snapshot on ``.stats``."""

    stopped_reason = "deadline"


class Cancelled(BudgetError):
    """The run was cooperatively cancelled (Ctrl-C / SIGTERM under the
    CLI, or a tripped :class:`~repro.runtime.CancelToken`).  Carries
    the partial stats snapshot on ``.stats``."""

    stopped_reason = "cancelled"


class MemoryBudgetExceeded(BudgetError):
    """Peak RSS crossed the soft ceiling (``max_rss_mb``) before the
    verdict.  Carries the partial stats snapshot on ``.stats``."""

    stopped_reason = "memory"


class ChaseError(ReproError):
    """The chase engine was asked to do something it cannot do."""


class ChaseBudgetExceeded(ChaseError, BudgetError):
    """The chase hit its depth or fact budget before reaching a fixpoint.

    ``.stats`` carries the run's :class:`~repro.chase.stats.ChaseStats`
    at stop time (``len(stats.rounds)``, ``stats.facts_added``).
    """


class NewElementEmbargoViolation(ChaseError):
    """A chase run with ``allow_new_elements=False`` required a fresh null.

    This is the runtime manifestation of a failure of Lemma 5 of the
    paper: the quotient structure was not conservative enough, and the
    datalog saturation demanded an existential witness that does not
    exist.  The Theorem-2 pipeline catches this and retries with larger
    parameters.
    """


class RewritingBudgetExceeded(BudgetError):
    """The UCQ rewriting engine exhausted its step budget.

    The theory may still be BDD; the caller should either raise the
    budget or treat the BDD status as unknown.  ``.stats`` carries the
    run's :class:`~repro.rewriting.stats.RewriteStats` at stop time.
    """


class NotBDDWitness(ReproError):
    """Evidence was found that the theory is *not* BDD for some query
    (the rewriting diverged past a proven-divergence criterion)."""


class ColoringError(ReproError):
    """A coloring violates Definition 7 or 14 of the paper."""


class ConservativityError(ReproError):
    """A conservativity search failed within its budget."""


class PipelineError(BudgetError):
    """The Theorem-2 finite-model pipeline could not produce a verified
    model within the configured budgets.  ``.stats`` carries the
    partial :class:`~repro.core.FiniteModelResult` (per-attempt
    reasons, chase stats) at stop time."""


class ModelSearchExhausted(BudgetError):
    """The finite-model search explored its whole budget without finding
    a model (which is *not* a proof that none exists unless the search
    space was complete).  ``.stats`` carries the run's
    :class:`~repro.fc.SearchStats` at stop time."""
