"""Relational structures (database instances).

A :class:`Structure` is a finite set of facts over a signature, plus a
domain that may include isolated elements.  Following the paper's
conventions (Section 1.1, Notations):

* ``C |= R(ā)`` — fact membership — is :meth:`Structure.has_fact`;
* ``C1 |= C2`` — every atom of C2 is an atom of C1 — is
  :meth:`Structure.contains_structure`;
* ``C ↾ A`` (restriction to a set of elements) and ``C ↾ Σ``
  (restriction to a signature) are :meth:`restrict_elements` and
  :meth:`restrict_signature`;
* ``C_con`` / ``C_non`` — the constant and non-constant elements — are
  :meth:`constant_elements` and :meth:`nonconstant_elements`.

The structure maintains hash indexes per predicate and per
(predicate, position, element), which the homomorphism engine and the
chase use to find candidate matches in roughly constant time.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import ArityError, SignatureError
from .atoms import Atom
from .signature import Signature
from .terms import Constant, Element, Null, Variable

#: Shared empty bucket returned by the index views on a miss.
_EMPTY: FrozenSet[Atom] = frozenset()


class Structure:
    """A mutable finite relational structure.

    Parameters
    ----------
    facts:
        Initial facts (ground atoms).
    domain:
        Extra elements that should belong to the domain even if they
        occur in no fact.
    signature:
        The ambient signature.  When omitted it is inferred from the
        facts and grows automatically as new predicates appear.
    strict:
        When ``True``, adding a fact whose predicate is not in the
        signature (or has the wrong arity) raises instead of enlarging.
    """

    def __init__(
        self,
        facts: Iterable[Atom] = (),
        domain: Iterable[Element] = (),
        signature: Optional[Signature] = None,
        strict: bool = False,
    ):
        self._facts: Set[Atom] = set()
        self._domain: Set[Element] = set(domain)
        self._by_pred: Dict[str, Set[Atom]] = {}
        self._by_pred_pos: Dict[Tuple[str, int, Element], Set[Atom]] = {}
        self._probe_count = 0
        self._strict = strict
        self._signature = signature if signature is not None else Signature.make()
        for fact in facts:
            self.add_fact(fact)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_fact(self, fact: Atom) -> bool:
        """Insert *fact*; return ``True`` iff it was new.

        Every argument of the fact joins the domain.  Variables are
        rejected: facts are ground.
        """
        for arg in fact.args:
            if isinstance(arg, Variable):
                raise ValueError(f"fact {fact} contains a variable")
        if fact in self._facts:
            return False
        self._check_signature(fact)
        self._facts.add(fact)
        self._by_pred.setdefault(fact.pred, set()).add(fact)
        for position, arg in enumerate(fact.args):
            self._domain.add(arg)
            self._by_pred_pos.setdefault((fact.pred, position, arg), set()).add(fact)
        return True

    def add_facts(self, facts: Iterable[Atom]) -> int:
        """Insert many facts; return how many were new."""
        return sum(1 for fact in facts if self.add_fact(fact))

    def add_element(self, element: Element) -> None:
        """Add an element to the domain (it may occur in no fact)."""
        self._domain.add(element)

    def discard_fact(self, fact: Atom) -> bool:
        """Remove *fact* if present; return ``True`` iff it was there.

        Elements are never removed from the domain (the paper's
        restriction operators build new structures instead).
        """
        if fact not in self._facts:
            return False
        self._facts.discard(fact)
        bucket = self._by_pred.get(fact.pred)
        if bucket is not None:
            bucket.discard(fact)
            if not bucket:
                # Prune emptied buckets: an earlier version kept them
                # forever, and copy() cloned the husks into every
                # descendant — memory bloat across COW search states.
                del self._by_pred[fact.pred]
        for position, arg in enumerate(fact.args):
            key = (fact.pred, position, arg)
            bucket = self._by_pred_pos.get(key)
            if bucket is not None:
                bucket.discard(fact)
                if not bucket:
                    del self._by_pred_pos[key]
        return True

    def _check_signature(self, fact: Atom) -> None:
        if fact.pred in self._signature:
            if self._signature.arity(fact.pred) != fact.arity:
                raise ArityError(
                    f"{fact.pred} has arity {self._signature.arity(fact.pred)}, "
                    f"got {fact.arity}"
                )
        elif self._strict:
            raise SignatureError(f"unknown predicate {fact.pred} (strict mode)")
        else:
            self._signature = self._signature.with_relations({fact.pred: fact.arity})
        new_constants = [c for c in fact.constants() if c not in self._signature.constants]
        if new_constants:
            self._signature = self._signature.with_constants(new_constants)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def signature(self) -> Signature:
        """The (possibly grown) ambient signature."""
        return self._signature

    @property
    def strict(self) -> bool:
        """Whether unknown predicates are rejected instead of adopted."""
        return self._strict

    def facts(self) -> FrozenSet[Atom]:
        """All facts, as a frozen set."""
        return frozenset(self._facts)

    def domain(self) -> FrozenSet[Element]:
        """All domain elements."""
        return frozenset(self._domain)

    def __len__(self) -> int:
        """Number of facts (use :meth:`domain_size` for elements)."""
        return len(self._facts)

    @property
    def domain_size(self) -> int:
        """Number of domain elements."""
        return len(self._domain)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._facts)

    def has_fact(self, fact: Atom) -> bool:
        """The paper's ``C |= R(ā)`` for a ground atom."""
        return fact in self._facts

    __contains__ = has_fact

    def has_element(self, element: Element) -> bool:
        """Whether *element* belongs to the domain."""
        return element in self._domain

    def facts_with_pred(self, pred: str) -> FrozenSet[Atom]:
        """All facts of the given predicate."""
        return frozenset(self.facts_with_pred_view(pred))

    def facts_with(self, pred: str, position: int, element: Element) -> FrozenSet[Atom]:
        """All facts ``pred(... element ...)`` with *element* at *position*."""
        return frozenset(self.facts_with_view(pred, position, element))

    def facts_with_pred_view(self, pred: str) -> "Set[Atom] | FrozenSet[Atom]":
        """The per-predicate index bucket itself, without copying.

        Read-only by contract: callers must not mutate it, and must not
        add or remove facts while iterating it (the hot-path engines —
        the homomorphism matcher and the chase — buffer their insertions
        for exactly this reason).  Use :meth:`facts_with_pred` for an
        independent snapshot.
        """
        self._probe_count += 1
        return self._by_pred.get(pred, _EMPTY)

    def facts_with_view(
        self, pred: str, position: int, element: Element
    ) -> "Set[Atom] | FrozenSet[Atom]":
        """The (predicate, position, element) index bucket, without
        copying.  Same read-only contract as :meth:`facts_with_pred_view`."""
        self._probe_count += 1
        return self._by_pred_pos.get((pred, position, element), _EMPTY)

    def pred_size(self, pred: str) -> int:
        """Number of facts of *pred*, without counting as an index probe.

        Used by the query planner (:mod:`repro.lf.plan`) for ordering
        statistics; statistics reads must not perturb the probe
        counters the benchmarks compare.
        """
        bucket = self._by_pred.get(pred)
        return len(bucket) if bucket else 0

    @property
    def index_probes(self) -> int:
        """Number of index lookups served since construction.

        The chase's :class:`~repro.chase.stats.ChaseStats` reads this
        before and after each round; copies start back at zero.
        """
        return self._probe_count

    def facts_about(self, element: Element) -> FrozenSet[Atom]:
        """All facts mentioning *element* in any position."""
        found: Set[Atom] = set()
        for pred, arity in self._signature.relations.items():
            for position in range(arity):
                found.update(self._by_pred_pos.get((pred, position, element), ()))
        return frozenset(found)

    def predicates_in_use(self) -> FrozenSet[str]:
        """Predicates with at least one fact."""
        return frozenset(pred for pred, bucket in self._by_pred.items() if bucket)

    # ------------------------------------------------------------------
    # Graph view (binary signatures)
    # ------------------------------------------------------------------
    def successors(self, element: Element, pred: Optional[str] = None) -> FrozenSet[Element]:
        """Elements ``d`` with ``pred(element, d)`` (any binary pred if None)."""
        preds = [pred] if pred is not None else sorted(self._signature.binary_relations())
        found: Set[Element] = set()
        for name in preds:
            for fact in self._by_pred_pos.get((name, 0, element), ()):
                if fact.arity == 2:
                    found.add(fact.args[1])
        return frozenset(found)

    def predecessors(self, element: Element, pred: Optional[str] = None) -> FrozenSet[Element]:
        """Elements ``d`` with ``pred(d, element)`` (any binary pred if None)."""
        preds = [pred] if pred is not None else sorted(self._signature.binary_relations())
        found: Set[Element] = set()
        for name in preds:
            for fact in self._by_pred_pos.get((name, 1, element), ()):
                if fact.arity == 2:
                    found.add(fact.args[0])
        return frozenset(found)

    def neighbours(self, element: Element) -> FrozenSet[Element]:
        """Elements sharing a fact with *element* (any arity)."""
        found: Set[Element] = set()
        for fact in self.facts_about(element):
            found.update(arg for arg in fact.args if arg != element)
        return frozenset(found)

    def degree(self, element: Element) -> int:
        """Number of facts mentioning *element* (Lemma 3(iv)'s measure)."""
        return len(self.facts_about(element))

    # ------------------------------------------------------------------
    # Paper notation: C_con, C_non, restrictions, containment
    # ------------------------------------------------------------------
    def constant_elements(self) -> FrozenSet[Constant]:
        """``C_con``: domain elements that are (interpretations of) constants."""
        return frozenset(e for e in self._domain if isinstance(e, Constant))

    def nonconstant_elements(self) -> FrozenSet[Element]:
        """``C_non``: domain elements that are not constants."""
        return frozenset(e for e in self._domain if not isinstance(e, Constant))

    def restrict_elements(self, elements: Iterable[Element]) -> "Structure":
        """``C ↾ A``: the facts whose arguments all lie in *elements*.

        The new structure's domain is exactly ``A ∩ Dom(C)``.
        """
        wanted = set(elements) & self._domain
        kept = [f for f in self._facts if all(a in wanted for a in f.args)]
        return self._from_validated(kept, wanted, self._signature, self._strict)

    def restrict_signature(self, names: Iterable[str]) -> "Structure":
        """``C ↾ Σ``: keep only facts of the given relations.

        The domain is preserved in full, matching the paper's use where
        ``C̄ ↾ Σ = C`` strips colors without losing elements (Def. 7).
        """
        wanted = set(names)
        kept = [f for f in self._facts if f.pred in wanted]
        return self._from_validated(
            kept, set(self._domain), self._signature.restrict_to(wanted), self._strict
        )

    def contains_structure(self, other: "Structure") -> bool:
        """The paper's ``C1 |= C2``: every fact of *other* is a fact here."""
        return all(self.has_fact(fact) for fact in other)

    def same_facts(self, other: "Structure") -> bool:
        """Fact-set equality (ignores isolated domain elements)."""
        if len(self) != len(other):
            return False
        return all(self.has_fact(fact) for fact in other)

    # ------------------------------------------------------------------
    # Query satisfaction (delegates to the homomorphism engine)
    # ------------------------------------------------------------------
    def satisfies(self, query, binding: Optional[Dict[Variable, Element]] = None) -> bool:
        """``C |= ∃x̄ Φ(x̄)`` for a conjunctive query, under *binding*.

        Free variables not in *binding* are treated as existentially
        quantified, matching the paper's convention (Section 1.1).
        """
        from .homomorphism import satisfies as _satisfies

        return _satisfies(self, query, binding)

    # ------------------------------------------------------------------
    # Copying and presentation
    # ------------------------------------------------------------------
    @classmethod
    def _from_validated(
        cls,
        facts: Iterable[Atom],
        domain: Set[Element],
        signature: Signature,
        strict: bool,
    ) -> "Structure":
        """Build a structure from facts that already passed validation.

        The restriction operators and :meth:`copy` land here: their
        facts were signature-checked when first added, so re-running
        :meth:`_check_signature` per fact (as the constructor does) is
        pure overhead.  Indexes are rebuilt directly.  *domain* is
        owned by the new structure (callers pass a fresh set).
        """
        clone = object.__new__(Structure)
        clone._facts = set()
        clone._domain = domain
        clone._by_pred = {}
        clone._by_pred_pos = {}
        clone._probe_count = 0
        clone._strict = strict
        clone._signature = signature
        fact_set = clone._facts
        by_pred = clone._by_pred
        by_pred_pos = clone._by_pred_pos
        for fact in facts:
            fact_set.add(fact)
            by_pred.setdefault(fact.pred, set()).add(fact)
            for position, arg in enumerate(fact.args):
                domain.add(arg)
                by_pred_pos.setdefault((fact.pred, position, arg), set()).add(fact)
        return clone

    def copy(self) -> "Structure":
        """An independent copy with the same facts, domain and signature.

        Copies the indexes directly instead of re-inserting every fact:
        the facts already passed the signature checks when first added,
        so re-validating them is pure overhead.  This is the branching
        cost of every search/chase state, hence the fast path.  The
        probe counter starts back at zero (see :attr:`index_probes`).
        Empty buckets (impossible after the discard-time pruning, but
        cheap to guard) are not carried over.
        """
        clone = Structure.__new__(Structure)
        clone._facts = set(self._facts)
        clone._domain = set(self._domain)
        clone._by_pred = {
            pred: set(bucket) for pred, bucket in self._by_pred.items() if bucket
        }
        clone._by_pred_pos = {
            key: set(bucket) for key, bucket in self._by_pred_pos.items() if bucket
        }
        clone._probe_count = 0
        clone._strict = self._strict
        clone._signature = self._signature
        return clone

    def sorted_facts(self) -> List[Atom]:
        """Facts in a deterministic order (for display and hashing)."""
        return sorted(self._facts, key=lambda f: (f.pred, tuple(map(str, f.args))))

    def __str__(self) -> str:
        shown = ", ".join(str(f) for f in self.sorted_facts()[:12])
        suffix = ", ..." if len(self) > 12 else ""
        return (
            f"{type(self).__name__}({len(self)} facts, "
            f"{self.domain_size} elements: {shown}{suffix})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return str(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Structure):
            return NotImplemented
        return self.facts() == other.facts() and self.domain() == other.domain()

    # Structures are mutable containers with value equality; an earlier
    # version paired that __eq__ with identity hashing, so two equal
    # structures landed in different hash buckets and any set/dict keyed
    # on structures silently admitted duplicates.  They are now
    # explicitly unhashable — key on frozen_key() instead.
    __hash__ = None  # type: ignore[assignment]

    def frozen_key(self) -> Tuple[FrozenSet[Atom], FrozenSet[Element]]:
        """An immutable, hashable snapshot of the structure's value.

        Two structures compare equal (``a == b``) iff their frozen keys
        are equal, so this is the supported way to key a set or dict on
        a structure's current contents.
        """
        return (self.facts(), self.domain())
