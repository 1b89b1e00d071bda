"""Counter-model minimisation.

The Theorem-2 pipeline and the model search both tend to produce models
with some slack.  :func:`minimize_model` greedily shrinks a model while
preserving the three certificate properties (contains D, satisfies T,
avoids Q): first dropping whole elements, then individual non-database
facts.  Greedy means locally minimal, not globally smallest — finding
the smallest model is as hard as the search itself.
"""

from __future__ import annotations

from typing import Optional

from ..chase.engine import is_model
from ..lf.homomorphism import satisfies
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Constant


def _acceptable(
    candidate: Structure,
    theory: Theory,
    database: Structure,
    forbidden,
) -> bool:
    if not candidate.contains_structure(database):
        return False
    if forbidden is not None and satisfies(candidate, forbidden):
        return False
    return is_model(candidate, theory)


def minimize_model(
    model: Structure,
    theory: Theory,
    database: Structure,
    forbidden: "Optional[ConjunctiveQuery | UnionOfConjunctiveQueries]" = None,
    drop_facts: bool = True,
) -> Structure:
    """Greedily shrink *model* while keeping it a counter-model.

    Parameters
    ----------
    model:
        A structure with ``model ⊇ database``, ``model ⊨ theory`` and
        (if *forbidden* is given) ``model ⊭ forbidden``.
    drop_facts:
        After the element pass, also try dropping individual facts that
        are not database facts.

    Returns
    -------
    Structure
        A locally minimal model with the same certificate properties
        (verified on every accepted step, so the result is always
        valid even if the input was not minimal-izable).
    """
    current = model.copy()

    # Pass 1: drop whole elements (all facts touching them).
    changed = True
    while changed:
        changed = False
        candidates = sorted(
            (e for e in current.domain() if not isinstance(e, Constant)),
            key=lambda e: -current.degree(e),
        )
        for element in candidates:
            survivors = current.domain() - {element}
            candidate = current.restrict_elements(survivors)
            if _acceptable(candidate, theory, database, forbidden):
                current = candidate
                changed = True
                break

    # Pass 2: drop redundant facts.
    if drop_facts:
        changed = True
        while changed:
            changed = False
            for fact in current.sorted_facts():
                if database.has_fact(fact):
                    continue
                candidate = current.copy()
                candidate.discard_fact(fact)
                if _acceptable(candidate, theory, database, forbidden):
                    current = candidate
                    changed = True
                    break

    return current
