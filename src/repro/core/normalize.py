"""Theory normalisation: query hiding (♠4) and the (♠5) normal form.

Section 3.1 of the paper makes two without-loss-of-generality moves
before the main construction:

* **(♠4) query hiding** — for a query Q(x̄, y), add the TGD
  ``Q(x̄, y) ⇒ ∃z F(y, z)`` with F fresh; a finite model of ``T₀, D, ¬Q``
  exists iff a finite model of ``T, D, ¬F`` does.

* **(♠5) normal form** — every existential TGD's head has the shape
  ``∃z R(y, z)`` (the witness second), and TGPs (predicates heading
  existential TGDs) never head datalog rules.  The paper's Hint: for a
  backwards head ``∃z R(z, y)`` introduce ``R″`` with
  ``R″(x, y) → R(y, x)`` and use ``∃z R″(y, z)`` instead; TGP/datalog
  clashes are resolved by a fresh TGP copy plus a projection rule.

Both transformations preserve certain answers over the original
signature and neither changes the BDD or FC status of the theory (the
paper leaves this as an exercise; the test-suite checks it empirically
on the zoo).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import NotBinaryError, RuleError
from ..lf.atoms import Atom
from ..lf.queries import ConjunctiveQuery
from ..lf.rules import Rule, Theory
from ..lf.terms import Variable


@dataclass
class HiddenQuery:
    """The (♠4) construction.

    Attributes
    ----------
    theory:
        T₀ plus the hiding rule.
    flag_predicate:
        The fresh F: the query holds somewhere iff an F-atom is
        derivable.
    hiding_rule:
        The added rule ``Q ⇒ ∃z F(y, z)``.
    """

    theory: Theory
    flag_predicate: str
    hiding_rule: Rule


def hide_query(theory: Theory, query: ConjunctiveQuery) -> HiddenQuery:
    """Apply (♠4): fold *query* into the theory behind a fresh flag F.

    The paper's Q(x̄, y) designates one variable ``y`` as the frontier
    of the hiding rule; any variable works, and we take the first free
    variable (or the least variable of a Boolean query).
    """
    variables = sorted(query.variables())
    if not variables:
        raise RuleError("cannot hide a ground query (it has no variables)")
    anchor = query.free[0] if query.free else variables[0]
    flag = theory.signature.fresh_relation_name("F")
    witness = Variable("z_flag")
    while witness in query.variables():
        witness = Variable(witness.name + "'")
    hiding = Rule(
        query.atoms,
        (Atom(flag, (anchor, witness)),),
        label="spade4-hiding",
    )
    return HiddenQuery(
        theory=theory.with_rules([hiding]),
        flag_predicate=flag,
        hiding_rule=hiding,
    )


@dataclass
class Spade5Result:
    """The (♠5) normalisation.

    Attributes
    ----------
    theory:
        The normalised theory.
    original:
        The input theory.
    renamed_heads:
        original predicate → fresh predicate, for every head that was
        re-oriented (``R → R″``) or split off a datalog clash.
    added_rules:
        The projection datalog rules introduced by the transformation.
    """

    theory: Theory
    original: Theory
    renamed_heads: Dict[str, str] = field(default_factory=dict)
    added_rules: List[Rule] = field(default_factory=list)


def _needs_reorientation(rule: Rule) -> bool:
    """Whether an existential TGD head is not of the shape ``R(y, z)``
    with ``z`` the (sole) existential witness in second position."""
    head = rule.head_atom
    existentials = rule.existential_variables()
    if len(existentials) != 1:
        raise RuleError(
            f"(♠5) normalisation handles single-witness TGDs; use "
            f"repro.transforms for: {rule}"
        )
    if head.arity != 2:
        return True
    first, second = head.args
    witness = next(iter(existentials))
    return not (second == witness and isinstance(first, Variable) and first != witness)


def spade5_normalize(theory: Theory) -> Spade5Result:
    """Normalise *theory* into the (♠5) form of Section 3.1.

    Requires single-head rules with **binary existential-TGD heads**
    (datalog rules and rule bodies may use any arity — the paper's
    proof "only used the binarity assumption for heads of existential
    TGDs", Section 5.1).  Three fixes are applied as needed:

    1. heads ``∃z R(z, y)`` become ``∃z R″(y, z)`` with the datalog rule
       ``R″(x, y) → R(y, x)``;
    2. degenerate heads (``∃z U(z)``, ``∃z R(z, z)``, or a head whose
       first argument is a constant) are routed through a fresh binary
       predicate anchored at a body variable;
    3. a TGP also heading datalog rules gets a fresh TGP copy plus the
       projection rule ``R_t(x, y) → R(x, y)``.
    """
    for rule in theory.rules:
        if not rule.is_single_head:
            raise RuleError(f"(♠5) normalisation needs single-head rules: {rule}")
        if rule.is_existential and rule.head_atom.arity > 2:
            raise NotBinaryError(
                f"existential head of arity {rule.head_atom.arity}: {rule} — "
                "split it first with repro.transforms.split_frontier_one_heads"
            )

    signature = theory.signature
    renamed: Dict[str, str] = {}
    added: List[Rule] = []
    rewritten: List[Rule] = []

    for rule in theory.rules:
        if rule.is_datalog:
            rewritten.append(rule)
            continue
        head = rule.head_atom
        witness = next(iter(rule.existential_variables()))
        if not _needs_reorientation(rule):
            rewritten.append(rule)
            continue
        x, y = Variable("x"), Variable("y")
        if head.arity == 2 and head.args == (witness, head.args[1]) and head.args[1] != witness and isinstance(head.args[1], Variable):
            # backwards: ∃z R(z, y)  ⇒  ∃z R″(y, z), R″(x,y) → R(y,x)
            fresh = signature.fresh_relation_name(head.pred + "_rev")
            signature = signature.with_relations({fresh: 2})
            rewritten.append(
                Rule(rule.body, (Atom(fresh, (head.args[1], witness)),), rule.label)
            )
            projection = Rule((Atom(fresh, (x, y)),), (Atom(head.pred, (y, x)),), "spade5-rev")
            added.append(projection)
            renamed[head.pred] = fresh
        else:
            # degenerate: anchor at some body variable w, route through
            # a fresh binary predicate: Φ ⇒ ∃z P(w, z), P(w,z) → head'
            body_vars = sorted(rule.body_variables())
            if not body_vars:
                raise RuleError(f"body of {rule} has no variable to anchor (♠5)")
            anchor = body_vars[0]
            fresh = signature.fresh_relation_name(head.pred + "_mk")
            signature = signature.with_relations({fresh: 2})
            rewritten.append(
                Rule(rule.body, (Atom(fresh, (anchor, witness)),), rule.label)
            )
            projected_head = head.substitute({witness: y})
            projection = Rule((Atom(fresh, (x, y)),), (projected_head,), "spade5-mk")
            added.append(projection)
            renamed[head.pred] = fresh

    # TGP/datalog separation on the re-oriented rule set.
    working = Theory(rewritten + added, signature)
    tgps = working.tgp_predicates()
    datalog_heads = {
        atom.pred for rule in working.datalog_rules() for atom in rule.head
    }
    clashes = sorted(tgps & datalog_heads)
    final_rules = list(working.rules)
    for pred in clashes:
        fresh = signature.fresh_relation_name(pred + "_tgp")
        signature = signature.with_relations({fresh: 2})
        replaced: List[Rule] = []
        for rule in final_rules:
            if rule.is_existential and rule.head_atom.pred == pred:
                head = rule.head_atom
                replaced.append(Rule(rule.body, (Atom(fresh, head.args),), rule.label))
            else:
                replaced.append(rule)
        x, y = Variable("x"), Variable("y")
        projection = Rule((Atom(fresh, (x, y)),), (Atom(pred, (x, y)),), "spade5-tgp")
        replaced.append(projection)
        added.append(projection)
        renamed[pred] = fresh
        final_rules = replaced

    return Spade5Result(
        theory=Theory(final_rules, signature),
        original=theory,
        renamed_heads=renamed,
        added_rules=added,
    )


@dataclass
class PreparedTheory:
    """A theory readied for the Theorem-2 pipeline: query hidden (♠4)
    and (♠5)-normalised.

    Attributes
    ----------
    theory:
        The final theory T.
    flag_predicate:
        The F whose absence certifies ``M ⊭ Q``.
    original_theory / original_query:
        The inputs, for reporting.
    spade5:
        The normalisation details.
    """

    theory: Theory
    flag_predicate: str
    original_theory: Theory
    original_query: ConjunctiveQuery
    spade5: Spade5Result
    #: The theory whose rule-body rewritings define κ.  Equal to
    #: ``theory`` in the binary case.  On the Theorem-3 route it is the
    #: *pre-split* theory: the §5.1 join rules open a resolution
    #: back-door that makes body rewritings diverge under the split
    #: theory, while the paper's κ concerns the original bodies — whose
    #: rewritings under the original theory are exactly Ψ′.
    kappa_theory: "Optional[Theory]" = None

    @property
    def theory_for_kappa(self) -> Theory:
        """The theory to feed :func:`repro.rewriting.bdd_profile`."""
        return self.kappa_theory if self.kappa_theory is not None else self.theory


def prepare(theory: Theory, query: ConjunctiveQuery) -> PreparedTheory:
    """Apply (♠4) then (♠5); the combined preprocessing of Section 3.1.

    Binary theories pass straight through.  A non-binary theory is
    accepted when every existential TGD is *frontier-1* (the shape of
    Theorem 3): its heads are first split into binary creations via the
    Section 5.1 rewriting, after which the Theorem-2 machinery applies
    unchanged — "in the proof of Theorem 2 we only used the binarity
    assumption for heads of existential TGDs".
    """
    working = theory
    kappa_theory: "Optional[Theory]" = None
    if not theory.signature.is_binary:
        from ..classes.recognizers import is_frontier_one_heads
        from ..transforms.binary_heads import split_frontier_one_heads

        if not (theory.is_single_head and is_frontier_one_heads(theory)):
            raise NotBinaryError(
                "non-binary theory outside Theorem 3's scope (existential "
                "TGDs must have a single frontier variable)"
            )
        working = split_frontier_one_heads(theory)
        kappa_theory = hide_query(theory, query).theory
    hidden = hide_query(working, query)
    normalised = spade5_normalize(hidden.theory)
    flag = hidden.flag_predicate
    # The hiding rule's head may itself have been renamed by (♠5); track it.
    flag = normalised.renamed_heads.get(flag, flag)
    return PreparedTheory(
        theory=normalised.theory,
        flag_predicate=flag,
        original_theory=theory,
        original_query=query,
        spade5=normalised,
        kappa_theory=kappa_theory,
    )
