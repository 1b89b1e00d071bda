"""Multi-head TGDs (Section 5.3).

Two directions are implemented:

* :func:`multihead_to_singlehead` — for unrestricted arity, a
  multi-head TGD is replaced by one single-head TGD whose head is the
  *join* of the head atoms (a fresh predicate over all head variables)
  plus datalog rules splitting the join back (the paper's observation
  that the conjecture's single-head restriction is harmless when arity
  is unrestricted).

* :func:`atoms_to_binary_encoding` — the paper's encoding showing the
  multi-head binary conjecture equals the full conjecture: each atom
  ``P(x1, …, xk)`` becomes ``A¹_P(t, x1) ∧ … ∧ A^k_P(t, x2)`` with a
  fresh *atom-identifier* variable ``t`` (read ``A^i_P(t, x)`` as "x is
  the i-th argument of the P-atom t").  Heads become multi-head binary
  TGDs with the identifier existential.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..lf.atoms import Atom
from ..lf.rules import Rule, Theory
from ..lf.signature import Signature
from ..lf.structures import Structure
from ..lf.terms import Element, NullFactory, Variable


def multihead_to_singlehead(theory: Theory) -> Theory:
    """Replace every multi-head rule by a join-headed TGD + splitters.

    Datalog multi-head rules are simply split (no shared witness).  For
    an existential rule ``Ψ ⇒ ∃z̄ (H1 ∧ … ∧ Hk)`` a fresh predicate
    ``J`` over the head variables is introduced:

        ``Ψ ⇒ ∃z̄ J(v̄)``  and  ``J(v̄) → Hi``  for each i.
    """
    signature = theory.signature
    rewritten: List[Rule] = []
    for rule in theory.rules:
        if rule.is_single_head:
            rewritten.append(rule)
            continue
        if rule.is_datalog:
            rewritten.extend(rule.split_heads())
            continue
        head_vars = sorted(rule.head_variables())
        join = signature.fresh_relation_name("J")
        signature = signature.with_relations({join: len(head_vars)})
        join_atom = Atom(join, tuple(head_vars))
        rewritten.append(Rule(rule.body, (join_atom,), rule.label))
        for head in rule.head:
            rewritten.append(Rule((join_atom,), (head,), f"{rule.label}-split"))
    return Theory(rewritten, signature)


def _argument_predicate(pred: str, position: int) -> str:
    """The name ``A^i_P``: position is 1-based in the paper."""
    return f"A{position}_{pred}"


def _atom_identifier(index: int, taken: "set[str]") -> Variable:
    name = f"t{index}"
    while name in taken:
        name += "'"
    return Variable(name)


def encode_atom_binary(
    atom: Atom, identifier: Variable
) -> List[Atom]:
    """``P(x1, …, xk)`` ⟶ ``A1_P(t, x1), …, Ak_P(t, xk)``."""
    return [
        Atom(_argument_predicate(atom.pred, position + 1), (identifier, arg))
        for position, arg in enumerate(atom.args)
    ]


def atoms_to_binary_encoding(theory: Theory) -> Theory:
    """The Section 5.3 binary multi-head encoding of an arbitrary theory.

    Every body atom receives its own universally quantified identifier
    variable; every head atom an existentially quantified one.  The
    result is a theory over binary predicates ``A^i_P`` whose rules are
    (in general) multi-head.
    """
    rewritten: List[Rule] = []
    for rule in theory.rules:
        taken = {v.name for v in rule.variables()}
        counter = 0
        body: List[Atom] = []
        for body_atom in rule.body:
            if body_atom.is_equality:
                body.append(body_atom)
                continue
            identifier = _atom_identifier(counter, taken)
            taken.add(identifier.name)
            counter += 1
            body.extend(encode_atom_binary(body_atom, identifier))
        head: List[Atom] = []
        for head_atom in rule.head:
            identifier = _atom_identifier(counter, taken)
            taken.add(identifier.name)
            counter += 1
            head.extend(encode_atom_binary(head_atom, identifier))
        rewritten.append(Rule(body, head, rule.label))
    return Theory(rewritten)


def encode_structure_binary(structure: Structure) -> Structure:
    """Encode a database with one fresh identifier element per fact."""
    encoded = Structure()
    nulls = NullFactory.above(structure.domain())
    for fact in structure.sorted_facts():
        identifier = nulls.fresh()
        for position, arg in enumerate(fact.args):
            encoded.add_fact(
                Atom(_argument_predicate(fact.pred, position + 1), (identifier, arg))
            )
    for element in structure.domain():
        encoded.add_element(element)
    return encoded


def decode_structure_binary(
    encoded: Structure, signature: Signature
) -> Structure:
    """Invert :func:`encode_structure_binary`: group the ``A^i_P`` facts
    by identifier and rebuild each original atom that is complete."""
    partial: Dict[Tuple[str, Element], Dict[int, Element]] = {}
    for fact in encoded.facts():
        name = fact.pred
        for pred, arity in signature.relations.items():
            for position in range(1, arity + 1):
                if name == _argument_predicate(pred, position):
                    identifier, value = fact.args
                    partial.setdefault((pred, identifier), {})[position] = value
    decoded = Structure(signature=signature)
    for (pred, _identifier), arguments in partial.items():
        arity = signature.arity(pred)
        if set(arguments) == set(range(1, arity + 1)):
            decoded.add_fact(
                Atom(pred, tuple(arguments[i] for i in range(1, arity + 1)))
            )
    return decoded
