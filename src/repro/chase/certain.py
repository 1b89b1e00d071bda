"""Certain answers: ``T, D |= Φ`` via the chase.

Since the chase is a free structure, ``D, T ⊨ Φ`` iff
``Chase(D,T) ⊨ Φ`` (Section 1.1).  The chase may be infinite, so the
harness below works level by level and reports three-valued verdicts:

* ``True``  — the query holds in some finite truncation (hence in the
  chase: truncations are substructures and CQs are preserved);
* ``False`` — the chase saturated without the query: it provably fails;
* ``None``  — the budget was exhausted with the query still absent; on
  a BDD theory, combine with the rewriting engine
  (:mod:`repro.rewriting`) for a definite answer.

:func:`certain_report` is the full-fat entry point: one chase run, the
verdict, the answer relation, and the run's
:class:`~repro.chase.stats.ChaseStats` in a single
:class:`CertainReport`.  :func:`certain_boolean` and
:func:`certain_answers` are thin wrappers over it.
:func:`evaluate_certain` reads verdict and answers off a chased
structure, here and in :meth:`repro.chase.view.ChaseView.certain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Tuple

from ..lf.homomorphism import all_answers, satisfies
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Element
from .engine import ChaseConfig, chase
from .results import ChaseResult
from .stats import ChaseStats

Query = "ConjunctiveQuery | UnionOfConjunctiveQueries"


@dataclass
class CertainReport:
    """Everything one chase-based certain-answer computation produced.

    Attributes
    ----------
    verdict:
        The three-valued Boolean verdict (module docstring).  For a
        query with free variables: ``True`` iff some certain answer
        exists, ``False`` iff the chase saturated with none, ``None``
        when the budget ran out with none found.
    answers:
        The certain answer tuples (constants only; ``{()}`` for a
        satisfied Boolean query).
    complete:
        Whether the chase saturated, making *answers* provably complete.
    result:
        The underlying :class:`~repro.chase.ChaseResult` (structure,
        depth, fact levels, stats).
    """

    verdict: "Optional[bool]"
    answers: "Set[Tuple[Element, ...]]"
    complete: bool
    result: ChaseResult

    @property
    def stats(self) -> "Optional[ChaseStats]":
        """The chase run's instrumentation (see :class:`ChaseStats`)."""
        return self.result.stats


def evaluate_certain(
    structure: Structure, query: Query, saturated: bool
) -> "Tuple[Optional[bool], Set[Tuple[Element, ...]]]":
    """The verdict and the certain answers of *query* on a chased
    *structure*, *saturated* when the chase reached its fixpoint.

    A Boolean query stops at its first match; otherwise only the answer
    rows built from constants are certain (see :class:`CertainReport`).
    """
    if getattr(query, "is_boolean", False):
        answers: "Set[Tuple[Element, ...]]" = (
            {()} if satisfies(structure, query) else set()
        )
    else:
        answers = {
            row
            for row in all_answers(structure, query)
            if all(isinstance(value, Constant) for value in row)
        }
    if answers:
        return True, answers
    return (False if saturated else None), answers


#: The default budgets of :func:`certain_report` and its wrappers.
_CERTAIN = ChaseConfig(max_depth=20, max_elements=None)


def certain_report(
    database: Structure,
    theory: Theory,
    query: Query,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> CertainReport:
    """Chase once and report verdict, answers, and instrumentation.

    The chase runs under *config* (by default 20 rounds, 200,000 facts
    and no element cap) with the keyword *overrides* applied on top.
    """
    result = chase(database, theory, config or _CERTAIN, **overrides)
    verdict, answers = evaluate_certain(result.structure, query, result.saturated)
    return CertainReport(
        verdict=verdict,
        answers=answers,
        complete=result.saturated,
        result=result,
    )


def certain_boolean(
    database: Structure,
    theory: Theory,
    query: Query,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> "Optional[bool]":
    """Three-valued certain answer for a Boolean query.

    See the module docstring for the meaning of the verdicts, and
    :func:`certain_report` for the budgets.
    """
    return certain_report(database, theory, query, config, **overrides).verdict


def certain_answers(
    database: Structure,
    theory: Theory,
    query: Query,
    config: "Optional[ChaseConfig]" = None,
    **overrides,
) -> "Tuple[Set[Tuple[Element, ...]], bool]":
    """Certain answers of a query with free variables.

    Returns ``(answers, complete)``: the answer tuples built from
    *constants only* (tuples containing nulls are not certain answers —
    nulls are not part of any real database), and whether the chase
    saturated (making the answer set provably complete).  The budgets
    are :func:`certain_report`'s.
    """
    report = certain_report(database, theory, query, config, **overrides)
    return report.answers, report.complete
