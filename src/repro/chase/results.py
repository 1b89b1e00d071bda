"""Result objects for chase runs.

A :class:`ChaseResult` bundles the structure produced by a chase with
the bookkeeping the rest of the library needs: at which round each fact
was derived (the *derivation depth* underlying the BDD property), which
elements were invented, and whether the run reached a fixpoint or hit a
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from ..lf.atoms import Atom
from ..lf.structures import Structure
from ..lf.terms import Null
from ..runtime.guard import StopReason
from .stats import ChaseStats

if TYPE_CHECKING:  # pragma: no cover
    from .provenance import SupportStore


@dataclass
class ChaseResult:
    """Outcome of a chase run.

    Attributes
    ----------
    structure:
        The chased structure (``Chase^depth(D, T)``).
    depth:
        Number of completed parallel rounds.
    saturated:
        ``True`` iff the last round produced nothing, i.e. the structure
        is a fixpoint: a genuine model of the theory.  When ``False``
        the run stopped on a budget and the structure is only a
        truncation ``Chase^depth`` of the (possibly infinite) chase.
    fact_level:
        For each fact, the round at which it first appeared (``0`` for
        database facts).  This is the paper's derivation depth: a query
        Ψ with ``Chase ⊨ Ψ`` holds in ``Chase^k`` where ``k`` is the
        maximum level over the matched facts.
    new_elements:
        The nulls invented by this run, in creation order.
    rounds_fired:
        Per round, how many facts were added (diagnostic/benchmarks).
    provenance:
        When the run was traced (``ChaseConfig(trace=True)``): a
        :class:`~repro.chase.provenance.SupportStore` holding, for each
        derived fact, all recorded ``(rule index, premise facts)``
        supports (bounded, deduped).  ``None`` on untraced runs.  Use
        :mod:`repro.chase.provenance` to build derivation trees; the
        incremental view (:mod:`repro.chase.view`) drives DRed
        deletion from the same records.
    stats:
        Per-round instrumentation (wall time, trigger/delta counters,
        index probes) — see :class:`~repro.chase.stats.ChaseStats`.
        Always populated by :func:`repro.chase.chase`; ``None`` only on
        hand-built results.
    stopped_reason:
        Why the run ended — the uniform
        :class:`~repro.runtime.StopReason` vocabulary
        (``fixpoint``/``budget``/``deadline``/``cancelled``/``memory``).
        ``fixpoint`` iff :attr:`saturated`.
    """

    structure: Structure
    depth: int
    saturated: bool
    fact_level: Dict[Atom, int] = field(default_factory=dict)
    new_elements: List[Null] = field(default_factory=list)
    rounds_fired: List[int] = field(default_factory=list)
    provenance: "Optional[SupportStore]" = None
    stats: "Optional[ChaseStats]" = None
    stopped_reason: StopReason = StopReason.FIXPOINT

    def level_of(self, fact: Atom) -> int:
        """The round at which *fact* appeared (raises if absent)."""
        return self.fact_level[fact]

    def facts_at_level(self, level: int) -> List[Atom]:
        """Facts first derived at exactly the given round."""
        return [fact for fact, at in self.fact_level.items() if at == level]

    def truncate(self, depth: int) -> Structure:
        """The structure ``Chase^depth``: facts of level ≤ *depth*.

        The returned structure contains precisely the facts derived in
        the first *depth* rounds (round 0 being the database itself).
        """
        kept = [fact for fact, at in self.fact_level.items() if at <= depth]
        return Structure(kept, signature=self.structure.signature)

    def __str__(self) -> str:
        status = "saturated" if self.saturated else "truncated"
        return (
            f"ChaseResult({status} at depth {self.depth}, "
            f"{len(self.structure)} facts, "
            f"{len(self.new_elements)} new elements)"
        )
