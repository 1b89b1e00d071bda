"""Rules and theories: existential TGDs and plain datalog rules.

Per Section 1.1 of the paper, a *TGD* is a formula
``∀x̄ (Φ(x̄) ⇒ ∃y Q(y, ȳ))`` with Φ a conjunctive query and ``ȳ ⊆ x̄``;
a *plain datalog rule* has no existential variable.  A *theory* is a
finite set of such rules.  We additionally support multi-head rules
(needed for Section 5.3), but the main development assumes single
heads, and :meth:`Rule.head_atom` enforces it where required.

The (♠5) normal form of Section 3.1 — every existential head of the
shape ``∃z R(y, z)`` with the witness in the second position, and TGP
predicates never appearing in datalog heads — is *checked* here
(:meth:`Theory.spade5_violations`) and *established* by
:mod:`repro.core.normalize`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import RuleError
from .atoms import (
    UNSAFE_REASON,
    Atom,
    atoms_constants,
    atoms_variables,
    unsafe_free_variable,
)
from .queries import ConjunctiveQuery
from .signature import Signature
from .terms import Constant, Term, Variable


class Rule:
    """A single rule: body ⇒ head, with implicit quantification.

    Variables in the head that do not occur in the body are read as
    existentially quantified (the paper's ``∃y``); all others are
    universally quantified.

    Parameters
    ----------
    body:
        The body atoms (must be non-empty; equality atoms allowed, but a
        frontier variable that no body match gives a value is a
        :class:`~repro.errors.RuleError`).
    head:
        The head atoms (must be non-empty; usually a single atom).
    label:
        Optional human-readable name, used in provenance and display.
    """

    __slots__ = ("_body", "_head", "label", "_hash")

    def __init__(self, body: Iterable[Atom], head: Iterable[Atom], label: str = ""):
        self._body: Tuple[Atom, ...] = tuple(body)
        self._head: Tuple[Atom, ...] = tuple(head)
        self.label = label
        if not self._body:
            raise RuleError("rule body must be non-empty")
        if not self._head:
            raise RuleError("rule head must be non-empty")
        for item in self._head:
            if item.is_equality:
                raise RuleError("equality atoms are not allowed in rule heads")
        if any(item.is_equality for item in self._body):
            unsafe = unsafe_free_variable(self._body, sorted(self.frontier()))
            if unsafe is not None:
                raise RuleError(f"unsafe frontier variable {unsafe}: {UNSAFE_REASON}")
        self._hash = hash((frozenset(self._body), frozenset(self._head)))

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def body(self) -> Tuple[Atom, ...]:
        """The body atoms."""
        return self._body

    @property
    def head(self) -> Tuple[Atom, ...]:
        """The head atoms (singleton for single-head rules)."""
        return self._head

    @property
    def is_single_head(self) -> bool:
        """Whether the head consists of one atom."""
        return len(self._head) == 1

    @property
    def head_atom(self) -> Atom:
        """The unique head atom.

        Raises
        ------
        RuleError
            If the rule is multi-head.
        """
        if not self.is_single_head:
            raise RuleError(f"rule has {len(self._head)} head atoms: {self}")
        return self._head[0]

    def body_variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the body."""
        return atoms_variables(self._body)

    def head_variables(self) -> FrozenSet[Variable]:
        """Variables occurring in the head."""
        return atoms_variables(self._head)

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the rule."""
        return self.body_variables() | self.head_variables()

    def existential_variables(self) -> FrozenSet[Variable]:
        """Head variables absent from the body (the ``∃y`` of the TGD)."""
        return self.head_variables() - self.body_variables()

    def frontier(self) -> FrozenSet[Variable]:
        """Body variables that also occur in the head (the ``ȳ``)."""
        return self.head_variables() & self.body_variables()

    @property
    def is_datalog(self) -> bool:
        """Plain datalog rule: no existential variable."""
        return not self.existential_variables()

    @property
    def is_existential(self) -> bool:
        """Existential TGD: at least one existential variable."""
        return bool(self.existential_variables())

    def constants(self) -> FrozenSet[Constant]:
        """All constants of the rule."""
        return atoms_constants(self._body) | atoms_constants(self._head)

    def predicates(self) -> FrozenSet[str]:
        """All predicates (equality excluded)."""
        return frozenset(
            a.pred for a in self._body + self._head if not a.is_equality
        )

    def body_query(self, free: Sequence[Variable] = ()) -> ConjunctiveQuery:
        """The body as a conjunctive query with the given free variables.

        By default the frontier variables are free — this is the query
        whose rewriting defines the constant κ in Section 3.3.
        """
        chosen = tuple(free) if free else tuple(sorted(self.frontier()))
        return ConjunctiveQuery(self._body, chosen)

    @property
    def body_width(self) -> int:
        """Number of distinct variables in the body."""
        return len(self.body_variables())

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Dict[Variable, Term]) -> "Rule":
        """Apply a substitution to both body and head."""
        return Rule(
            (a.substitute(mapping) for a in self._body),
            (a.substitute(mapping) for a in self._head),
            self.label,
        )

    def rename_apart(self, taken: Iterable[Variable], stem: str = "u") -> "Rule":
        """Rename the rule's variables to avoid *taken*."""
        forbidden = {v.name for v in taken}
        mapping: Dict[Variable, Variable] = {}
        counter = 0
        for var in sorted(self.variables()):
            if var.name in forbidden:
                while f"{stem}{counter}" in forbidden:
                    counter += 1
                fresh = Variable(f"{stem}{counter}")
                counter += 1
                forbidden.add(fresh.name)
                mapping[var] = fresh
        return self.substitute(dict(mapping)) if mapping else self

    def split_heads(self) -> "List[Rule]":
        """Split a multi-head *datalog* rule into single-head rules.

        For existential multi-head rules this naive split is *not*
        equivalent (the shared witness is lost) — use
        :mod:`repro.transforms.multihead` instead; calling this on such
        a rule raises.
        """
        if self.is_single_head:
            return [self]
        if self.is_existential:
            raise RuleError(
                "splitting an existential multi-head rule loses the shared "
                "witness; use repro.transforms.multihead"
            )
        return [Rule(self._body, (h,), self.label) for h in self._head]

    # ------------------------------------------------------------------
    # Identity and presentation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return (
            frozenset(self._body) == frozenset(other._body)
            and frozenset(self._head) == frozenset(other._head)
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        body = ", ".join(str(a) for a in self._body)
        existentials = sorted(self.existential_variables())
        prefix = ""
        if existentials:
            names = ", ".join(str(v) for v in existentials)
            prefix = f"exists {names}. "
        head = ", ".join(str(a) for a in self._head)
        return f"{body} -> {prefix}{head}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Rule[{self}]"


class Theory:
    """A finite set of rules (order preserved for provenance).

    The signature is the union of the rules' predicates and constants,
    optionally enlarged via the *signature* parameter (e.g. to declare
    database predicates that no rule mentions).
    """

    __slots__ = ("_rules", "_signature")

    def __init__(self, rules: Iterable[Rule], signature: Optional[Signature] = None):
        self._rules: Tuple[Rule, ...] = tuple(rules)
        inferred = Signature.make()
        for rule in self._rules:
            inferred = inferred.union(
                Signature.of_atoms(rule.body + rule.head)
            )
        if signature is not None:
            inferred = inferred.union(signature)
        self._signature = inferred

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def rules(self) -> Tuple[Rule, ...]:
        """All rules, in declaration order."""
        return self._rules

    @property
    def signature(self) -> Signature:
        """The ambient signature."""
        return self._signature

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    def tgds(self) -> Tuple[Rule, ...]:
        """The existential TGDs."""
        return tuple(r for r in self._rules if r.is_existential)

    def datalog_rules(self) -> Tuple[Rule, ...]:
        """The plain datalog rules."""
        return tuple(r for r in self._rules if r.is_datalog)

    def predicates(self) -> FrozenSet[str]:
        """All predicates of the theory."""
        found = set()
        for rule in self._rules:
            found.update(rule.predicates())
        return frozenset(found)

    def constants(self) -> FrozenSet[Constant]:
        """All constants of the theory."""
        found = set()
        for rule in self._rules:
            found.update(rule.constants())
        return frozenset(found)

    @property
    def is_binary(self) -> bool:
        """Whether the signature is binary (arity ≤ 2)."""
        return self._signature.is_binary

    @property
    def is_single_head(self) -> bool:
        """Whether every rule has a single head atom."""
        return all(r.is_single_head for r in self._rules)

    def tgp_predicates(self) -> FrozenSet[str]:
        """Tuple generating predicates: heads of existential TGDs (♠5)."""
        return frozenset(
            atom.pred for rule in self.tgds() for atom in rule.head
        )

    def max_body_width(self) -> int:
        """Largest number of body variables across rules."""
        return max((r.body_width for r in self._rules), default=0)

    def spade5_violations(self) -> List[str]:
        """Check the (♠5) normal form of Section 3.1.

        Returns a list of human-readable violations (empty = compliant):

        * every existential TGD head has the shape ``∃z R(y, z)`` —
          binary, witness second, frontier variable first;
        * TGP predicates do not occur in datalog-rule heads;
        * TGP predicates do not occur in *any* non-creating head.
        """
        problems: List[str] = []
        tgps = self.tgp_predicates()
        for rule in self._rules:
            if rule.is_existential:
                if not rule.is_single_head:
                    problems.append(f"multi-head TGD: {rule}")
                    continue
                head = rule.head_atom
                if head.arity != 2:
                    problems.append(f"TGD head not binary: {rule}")
                    continue
                first, second = head.args
                existentials = rule.existential_variables()
                if not (isinstance(second, Variable) and second in existentials):
                    problems.append(f"witness not in second head position: {rule}")
                if not (isinstance(first, Variable) and first in rule.frontier()):
                    problems.append(f"first head argument not a frontier variable: {rule}")
                if len(existentials) != 1:
                    problems.append(f"TGD with {len(existentials)} existential variables: {rule}")
            else:
                for head in rule.head:
                    if head.pred in tgps:
                        problems.append(
                            f"TGP {head.pred} in datalog head: {rule}"
                        )
        return problems

    @property
    def satisfies_spade5(self) -> bool:
        """Whether the theory is already in (♠5) normal form."""
        return not self.spade5_violations()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def with_rules(self, extra: Iterable[Rule]) -> "Theory":
        """A theory extended with more rules (duplicates dropped)."""
        seen = set(self._rules)
        added = [r for r in extra if r not in seen]
        return Theory(self._rules + tuple(added), self._signature)

    def without_predicates(self, names: Iterable[str]) -> "Theory":
        """Drop every rule mentioning any of the given predicates."""
        dropped = set(names)
        kept = [r for r in self._rules if not (r.predicates() & dropped)]
        return Theory(kept, self._signature.without_relations(dropped))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Theory):
            return NotImplemented
        return frozenset(self._rules) == frozenset(other._rules)

    def __hash__(self) -> int:
        return hash(frozenset(self._rules))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Theory({len(self._rules)} rules)"


def rule(body: Iterable[Atom], head: "Iterable[Atom] | Atom", label: str = "") -> Rule:
    """Convenience constructor accepting a single head atom directly."""
    if isinstance(head, Atom):
        head = (head,)
    return Rule(body, head, label)
