"""The skeleton ``S(D, T)`` (Definition 12) and Lemmas 3–4.

For a theory in (♠5) form chased on a database D, the skeleton keeps

* every element of the chase,
* every atom of D ("named" constants), and
* every atom of a *tuple generating predicate* (TGP — a predicate that
  appears as the head of an existential TGD).

The remaining chase atoms — those produced by datalog rules — are the
*flesh*.  Lemma 3 asserts the skeleton's non-constant part is a forest
of bounded degree; Lemma 4 asserts the chase can be rebuilt from the
skeleton using only datalog derivations (no new elements), i.e.
``Chase(S, T) = Chase(D, T)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from ..chase.engine import ChaseConfig, chase
from ..chase.results import ChaseResult
from ..lf.atoms import Atom
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Constant
from ..vtdag.checks import _nonconstant_cycle, max_degree, vtdag_report


@dataclass
class SkeletonResult:
    """A skeleton together with its provenance.

    Attributes
    ----------
    structure:
        The skeleton S: database atoms + TGP atoms, over the full chase
        domain (datalog-only elements appear as isolated elements —
        there are none when the theory is in (♠5) form, since every
        chase element is created by a TGP atom).
    tgp_predicates:
        The TGPs used for the split.
    database_facts:
        The facts of D (always skeleton atoms).
    chase_result:
        The chase run the skeleton was extracted from.
    """

    structure: Structure
    tgp_predicates: FrozenSet[str]
    database_facts: FrozenSet[Atom]
    chase_result: ChaseResult

    @property
    def skeleton_atoms(self) -> FrozenSet[Atom]:
        """All atoms of S."""
        return self.structure.facts()

    @property
    def flesh(self) -> FrozenSet[Atom]:
        """The chase atoms *not* in S (datalog-derived)."""
        return self.chase_result.structure.facts() - self.structure.facts()


def skeleton_of_chase(
    chase_result: ChaseResult,
    database: Structure,
    theory: Theory,
) -> SkeletonResult:
    """Extract ``S(D, T)`` from an already-run chase (Definition 12)."""
    tgps = theory.tgp_predicates()
    database_facts = database.facts()
    chased = chase_result.structure
    kept = [
        fact for fact in chased.facts() if fact in database_facts or fact.pred in tgps
    ]
    # Chase facts passed the signature checks when the chase added them.
    structure = Structure._from_validated(
        kept, set(chased.domain()), chased.signature
    )
    return SkeletonResult(
        structure=structure,
        tgp_predicates=tgps,
        database_facts=database_facts,
        chase_result=chase_result,
    )


def skeleton(
    database: Structure,
    theory: Theory,
    max_depth: int = 10,
    max_facts: "Optional[int]" = 100_000,
    **overrides,
) -> SkeletonResult:
    """Chase *database* under *theory* and extract the skeleton.

    The chase is truncated at *max_depth* rounds; the skeleton of a
    truncation is the truncation of the skeleton, so deeper runs only
    extend the forest downward.  Extra keyword overrides (``wall_ms``,
    ``cancel_token``, ...) are forwarded to the chase config.
    """
    result = chase(
        database,
        theory,
        ChaseConfig(max_depth=max_depth, max_facts=max_facts, max_elements=None),
        **overrides,
    )
    return skeleton_of_chase(result, database, theory)


def flesh_atoms(chased: Structure, skeleton_structure: Structure) -> FrozenSet[Atom]:
    """The flesh: atoms of the chase that are not skeleton atoms."""
    return chased.facts() - skeleton_structure.facts()


@dataclass
class Lemma3Report:
    """The four claims of Lemma 3, each checked separately.

    (i) ``S_non`` is acyclic; (ii) in-degree ≤ 1; (iii) forest;
    (iv) degree bounded by ``|Σ| + 1``.
    """

    acyclic: bool
    in_degree_at_most_one: bool
    forest: bool
    degree_bound: int
    degree_observed: int
    vtdag: bool
    details: List[str] = field(default_factory=list)

    @property
    def all_hold(self) -> bool:
        return (
            self.acyclic
            and self.in_degree_at_most_one
            and self.forest
            and self.degree_observed <= self.degree_bound
            and self.vtdag
        )


def lemma3_report(skeleton_result: SkeletonResult) -> Lemma3Report:
    """Check Lemma 3 on a concrete skeleton.

    The degree bound (iv) uses ``|Σ| + 1`` with |Σ| the number of
    relations of the ambient signature, as in the paper (each element
    has at most one outgoing TGP atom per TGP, one incoming creating
    atom, plus database/unary atoms).
    """
    structure = skeleton_result.structure
    report = vtdag_report(structure)
    acyclic = _nonconstant_cycle(structure) is None
    in_degree_ok = True
    for element in structure.nonconstant_elements():
        parents = {
            d
            for d in structure.predecessors(element)
            if not isinstance(d, Constant)
        }
        if len(parents) > 1:
            in_degree_ok = False
            break
    signature_size = len(structure.signature.relation_names())
    observed = max_degree(structure)
    return Lemma3Report(
        acyclic=acyclic,
        in_degree_at_most_one=in_degree_ok,
        forest=acyclic and in_degree_ok,
        degree_bound=signature_size + 1,
        degree_observed=observed,
        vtdag=report.is_vtdag,
        details=report.violations,
    )


def verify_lemma4(
    skeleton_result: SkeletonResult,
    theory: Theory,
    max_depth: "Optional[int]" = None,
) -> Tuple[bool, "Optional[str]"]:
    """Empirically check Lemma 4: ``Chase(S, T) = Chase(D, T)``.

    Re-chases the skeleton as a database instance.  On a *truncated*
    chase the claim to check is containment both ways up to the
    truncation depth:

    * every fact of ``Chase^k(D, T)`` is derived from S (Lemma 4's
      statement), and
    * chasing S creates **no new elements** (the paper's point: only
      datalog rules fire — the witnesses are already in the skeleton).

    The second bullet is checked exactly; the first up to *max_depth*
    (defaulting to the original chase's depth).

    Returns ``(verdict, explanation-on-failure)``.
    """
    depth = max_depth if max_depth is not None else skeleton_result.chase_result.depth
    rechased = chase(
        skeleton_result.structure,
        theory,
        ChaseConfig(max_depth=depth, max_facts=None, max_elements=None),
    )
    # On the *infinite* chase, Lemma 4 says no new elements at all.  On
    # a depth-d truncation the frontier (level-d) elements legitimately
    # lack their witnesses, so re-chasing extends past them; the lemma's
    # content is that no new element hangs off the *interior*.
    from ..lf.terms import Null

    original_domain = skeleton_result.chase_result.structure.domain()
    frontier_levels = {
        element
        for element in original_domain
        if isinstance(element, Null)
        and element.level >= skeleton_result.chase_result.depth
    }
    fresh = set(rechased.new_elements)
    for newborn in rechased.new_elements:
        creators = {
            parent
            for parent in rechased.structure.predecessors(newborn)
            if parent not in fresh
        }
        interior_creators = creators & (original_domain - frontier_levels)
        if interior_creators:
            return False, (
                f"chasing the skeleton created {newborn} from the interior "
                f"element(s) {sorted(interior_creators, key=str)[:2]}; the "
                "skeleton lost a needed witness"
            )
    original = skeleton_result.chase_result.structure.facts()
    rebuilt = rechased.structure.facts()
    missing = original - rebuilt
    if missing:
        sample = sorted(missing, key=str)[:3]
        return False, f"{len(missing)} chase facts not rebuilt from S, e.g. {sample}"
    extra = rebuilt - original
    if extra:
        # Facts derivable from S but beyond the original truncation are
        # fine on a truncated run only if the original was truncated.
        if skeleton_result.chase_result.saturated:
            sample = sorted(extra, key=str)[:3]
            return False, f"{len(extra)} unexpected facts beyond the chase, e.g. {sample}"
    return True, None
