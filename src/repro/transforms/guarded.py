"""Guarded Datalog∃ is binary in disguise (Section 5.6).

The paper re-proves finite controllability of Guarded Datalog∃ by
rewriting any guarded program into a *binary* program to which the
toolkit of Sections 2 and 4 applies.  This module implements that
rewriting, with the paper's predicates:

* ``F_i(x, y)`` — "x is the i-th parent of y" (step ii);
* ``ER_R(y, z)`` — "the unique rule deriving the TGP R was applied to a
  tuple led by y, creating z" (step vi);
* ``Rm_R(z)`` — the monadic tuple marker for the TGP atom led by z;
* ``Qm_Q_<i1,…,il>(y)`` — monadic memory: "Q holds of the parents
  i1 … il of y" (step vii), with the extra index ``0`` meaning "y
  itself" (needed when an atom mentions its own guard element).

Guardedness is what makes the enumeration of parent indices complete:
every body variable occurs in the guard, hence denotes a parent of the
guard atom's youngest element (or that element itself), so a rule can
be replaced by all its parent-index instantiations (steps iii/v).

Databases are translated by giving each fact a guard: a TGP-shaped
fact ``R(ā, c)`` is guarded by its own last element; any other fact
gets a fresh guard constant remembering the tuple (the practical form
of the paper's "D can also be hardwired into T").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..classes.recognizers import guard_of, is_guarded
from ..lf.atoms import Atom
from ..lf.queries import ConjunctiveQuery, UnionOfConjunctiveQueries
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Term, Variable


def _parent_pred(index: int) -> str:
    return f"F_{index}"


def _creation_pred(tgp: str) -> str:
    return f"ER_{tgp}"


def _tuple_marker(tgp: str) -> str:
    return f"Rm_{tgp}"


def _monadic_pred(pred: str, indices: Sequence[int]) -> str:
    return f"Qm_{pred}_" + "_".join(str(i) for i in indices)


@dataclass
class GuardedTranslation:
    """The binary program T′ plus everything needed to use it.

    Attributes
    ----------
    theory:
        The binary theory.
    original:
        The guarded input theory.
    parent_count:
        K: the number of parent indices in play.
    tgps:
        The TGPs of the (preprocessed) original theory.
    non_tgp_arities:
        Arity of each predicate remembered monadically.
    """

    theory: Theory
    original: Theory
    parent_count: int
    tgps: FrozenSet[str]
    non_tgp_arities: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Databases
    # ------------------------------------------------------------------
    def translate_database(self, database: Structure) -> Structure:
        """Give every fact a guard element and encode it binarily."""
        translated = Structure()
        guard_counter = [0]
        for fact in database.sorted_facts():
            if fact.pred in self.tgps and fact.arity >= 2:
                # guarded by its own last element
                *parents, young = fact.args
                for position, parent in enumerate(parents, start=1):
                    translated.add_fact(
                        Atom(_parent_pred(position), (parent, young))
                    )
                translated.add_fact(Atom(_tuple_marker(fact.pred), (young,)))
            else:
                guard = Constant(f"_guard{guard_counter[0]}")
                guard_counter[0] += 1
                indices = tuple(range(1, fact.arity + 1))
                for position, value in zip(indices, fact.args):
                    translated.add_fact(Atom(_parent_pred(position), (value, guard)))
                translated.add_fact(
                    Atom(_monadic_pred(fact.pred, indices), (guard,))
                )
        for element in database.domain():
            translated.add_element(element)
        return translated

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def translate_atom_variants(
        self, atom: Atom, leader: Variable
    ) -> "List[List[Atom]]":
        """All binary encodings of one query atom, with *leader* as the
        knowing element (each variant is a conjunction)."""
        variants: List[List[Atom]] = []
        if atom.pred in self.tgps and atom.arity >= 2:
            *parents, young = atom.args
            conjunction = [
                Atom(_parent_pred(position), (parent, young))
                for position, parent in enumerate(parents, start=1)
            ]
            conjunction.append(Atom(_tuple_marker(atom.pred), (young,)))
            return [conjunction]
        for indices in itertools.product(
            range(0, self.parent_count + 1), repeat=atom.arity
        ):
            # index 0 pins the leader to that argument's value: the atom
            # is then remembered by the argument itself.
            pinned: "Optional[Term]" = None
            consistent = True
            for index, value in zip(indices, atom.args):
                if index == 0:
                    if pinned is not None and pinned != value:
                        consistent = False
                        break
                    pinned = value
            if not consistent:
                continue
            knower: Term = pinned if pinned is not None else leader
            conjunction: List[Atom] = []
            for index, value in zip(indices, atom.args):
                if index > 0:
                    conjunction.append(Atom(_parent_pred(index), (value, knower)))
            conjunction.append(Atom(_monadic_pred(atom.pred, indices), (knower,)))
            variants.append(conjunction)
        return variants

    def translate_query(self, query: ConjunctiveQuery) -> UnionOfConjunctiveQueries:
        """Translate a CQ into a UCQ over the binary signature.

        Each atom gets its own (fresh, existential) leading variable;
        the parent-index choices per atom multiply into the union, which
        keeps every combination: a dropped one could be the only
        disjunct that holds.
        """
        taken = {v.name for v in query.variables()}
        per_atom: List[List[List[Atom]]] = []
        for position, atom in enumerate(query.atoms):
            if atom.is_equality:
                per_atom.append([[atom]])
                continue
            name = f"lead{position}"
            while name in taken:
                name += "'"
            taken.add(name)
            leader = Variable(name)
            per_atom.append(self.translate_atom_variants(atom, leader))
        disjuncts: List[ConjunctiveQuery] = []
        for combination in itertools.product(*per_atom):
            atoms = [a for conjunction in combination for a in conjunction]
            disjuncts.append(ConjunctiveQuery(atoms, query.free))
        return UnionOfConjunctiveQueries(disjuncts)


def _preprocess(theory: Theory) -> Tuple[Theory, FrozenSet[str]]:
    """Steps (i)/(iv): single-head, witness-last, one TGD per TGP,
    TGPs separated from datalog heads."""
    if not is_guarded(theory):
        raise ValueError("theory is not guarded")
    rules: List[Rule] = []
    signature = theory.signature
    tgd_count: Dict[str, int] = {}
    for rule in theory.rules:
        if not rule.is_single_head:
            raise ValueError(f"guarded translation needs single-head rules: {rule}")
        if rule.is_existential:
            witnesses = sorted(rule.existential_variables())
            if len(witnesses) != 1:
                raise ValueError(f"one witness per TGD expected: {rule}")
            head = rule.head_atom
            if head.args[-1] != witnesses[0] or head.args[:-1].count(witnesses[0]):
                raise ValueError(
                    f"the witness must be exactly the last head argument: {rule}"
                )
            tgd_count[head.pred] = tgd_count.get(head.pred, 0) + 1
        rules.append(rule)

    datalog_heads = {
        r.head_atom.pred for r in rules if r.is_datalog
    }
    adjusted: List[Rule] = []
    for rule in rules:
        if not rule.is_existential:
            adjusted.append(rule)
            continue
        head = rule.head_atom
        clash = head.pred in datalog_heads
        shared = tgd_count.get(head.pred, 0) > 1
        if clash or shared:
            fresh = signature.fresh_relation_name(head.pred + "_tgp")
            signature = signature.with_relations({fresh: head.arity})
            adjusted.append(Rule(rule.body, (Atom(fresh, head.args),), rule.label))
            variables = tuple(Variable(f"v{i}") for i in range(head.arity))
            adjusted.append(
                Rule((Atom(fresh, variables),), (Atom(head.pred, variables),), "tgp-split")
            )
            tgd_count[head.pred] -= 1
            tgd_count[fresh] = 1
            datalog_heads.add(head.pred)
        else:
            adjusted.append(rule)
    final = Theory(adjusted, signature)
    return final, final.tgp_predicates()


def _index_assignments(
    variables: Sequence[Variable], parent_count: int
) -> "Iterable[Dict[Variable, int]]":
    """All maps body-variable → parent-index (1..K). Index 0 (the
    leader itself) is reserved for the leader variable, handled apart."""
    for combination in itertools.product(
        range(1, parent_count + 1), repeat=len(variables)
    ):
        yield dict(zip(variables, combination))


def guarded_to_binary(theory: Theory) -> GuardedTranslation:
    """Run the full Section 5.6 translation (steps i–vii).

    Returns the binary program together with database/query
    translators.  The blow-up is exponential in the number of body
    variables per rule (the paper's "all possible rules of the form
    (♠11)") — fine for the bounded-arity guarded programs the
    construction targets.
    """
    prepared, tgps = _preprocess(theory)
    for rule in prepared.rules:
        for atom in rule.body + rule.head:
            if atom.is_equality or (atom.pred in tgps and atom.arity >= 2):
                continue
            if any(not isinstance(arg, Variable) for arg in atom.args):
                raise ValueError(
                    f"constants in non-TGP atoms are not supported by the "
                    f"guarded translation: {atom} in {rule}"
                )
    parent_count = max(
        (arity for _, arity in prepared.signature.relations.items()), default=2
    )
    non_tgp_arities: Dict[str, int] = {
        pred: arity
        for pred, arity in prepared.signature.relations.items()
        if pred not in tgps
    }

    output: List[Rule] = []

    def translate_body_atom(
        atom: Atom, leader: Variable, assignment: Dict[Variable, int]
    ) -> "Optional[List[Atom]]":
        """One body atom under one index assignment (None = unsupported)."""
        if atom.is_equality:
            return [atom]
        if atom.pred in tgps and atom.arity >= 2:
            *parents, young = atom.args
            conjunction = [
                Atom(_parent_pred(position), (parent, young))
                for position, parent in enumerate(parents, start=1)
            ]
            conjunction.append(Atom(_tuple_marker(atom.pred), (young,)))
            return conjunction
        indices: List[int] = []
        conjunction = []
        for value in atom.args:
            if value == leader:
                indices.append(0)  # the leading variable itself
            elif isinstance(value, Variable):
                index = assignment[value]
                indices.append(index)
                conjunction.append(Atom(_parent_pred(index), (value, leader)))
            else:
                return None  # constants in guarded rule bodies: unsupported
        conjunction.append(Atom(_monadic_pred(atom.pred, indices), (leader,)))
        return conjunction

    for rule in prepared.rules:
        guard = guard_of(rule)
        if guard is None:  # pragma: no cover - is_guarded checked earlier
            raise ValueError(f"rule has no guard: {rule}")
        guard_variables = [a for a in guard.args if isinstance(a, Variable)]
        if not guard_variables:
            raise ValueError(f"guard without variables: {guard} in {rule}")
        # The paper's leading variable: the rightmost variable of the
        # guard — in a chase match it denotes the youngest element, of
        # which every other body variable is a parent.
        leader = guard_variables[-1]
        others = sorted(rule.body_variables() - {leader})
        for assignment in _index_assignments(others, parent_count):
            # distinct variables may share an index only when they can
            # map to one element; F_i is functional so other instances
            # simply never fire — kept for completeness.
            parent_atoms = [
                Atom(_parent_pred(assignment[variable]), (variable, leader))
                for variable in others
            ]
            translated_body: List[Atom] = list(parent_atoms)
            consistent = True
            for atom in rule.body:
                part = translate_body_atom(atom, leader, assignment)
                if part is None:
                    consistent = False
                    break
                translated_body.extend(part)
            if not consistent:
                continue

            if rule.is_existential:
                head = rule.head_atom
                witness = head.args[-1]
                creation = Atom(_creation_pred(head.pred), (leader, witness))
                output.append(
                    Rule(tuple(translated_body), (creation,), f"{rule.label}-create")
                )
                with_creation = tuple(translated_body) + (creation,)
                output.append(
                    Rule(
                        with_creation,
                        (Atom(_tuple_marker(head.pred), (witness,)),),
                        f"{rule.label}-mark",
                    )
                )
                # (♦): the newborn learns its parents
                for position, parent in enumerate(head.args[:-1], start=1):
                    output.append(
                        Rule(
                            with_creation,
                            (Atom(_parent_pred(position), (parent, witness)),),
                            f"{rule.label}-parent{position}",
                        )
                    )
            else:
                head = rule.head_atom
                part = translate_body_atom(head, leader, assignment)
                if part is None:
                    continue
                # the monadic head is the last atom of the translation;
                # any F-atoms it mentions are already in the body.
                output.append(
                    Rule(tuple(translated_body), (part[-1],), f"{rule.label}-know")
                )

    # Step (vii) transfer rules: knowledge spreads to every element
    # sharing the parents.  Index 0 stands for the knowing element
    # itself, so a source index 0 pins the position's variable to the
    # source element and a target index 0 pins it to the target.
    x_vars = [Variable(f"t{i}") for i in range(parent_count + 1)]
    other = Variable("zOther")
    for pred, arity in sorted(non_tgp_arities.items()):
        index_space = list(
            itertools.product(range(0, parent_count + 1), repeat=arity)
        )
        for source_indices in index_space:
            for target_indices in index_space:
                body: List[Atom] = []
                consistent = True
                for position in range(arity):
                    s_index = source_indices[position]
                    t_index = target_indices[position]
                    if s_index == 0 and t_index == 0:
                        consistent = False  # would force leader == other
                        break
                    if s_index == 0:
                        variable: Variable = leader
                    elif t_index == 0:
                        variable = other
                    else:
                        variable = x_vars[position]
                    if s_index > 0:
                        body.append(Atom(_parent_pred(s_index), (variable, leader)))
                    if t_index > 0:
                        body.append(Atom(_parent_pred(t_index), (variable, other)))
                if not consistent:
                    continue
                body.append(Atom(_monadic_pred(pred, source_indices), (leader,)))
                output.append(
                    Rule(
                        tuple(body),
                        (Atom(_monadic_pred(pred, target_indices), (other,)),),
                        f"transfer-{pred}",
                    )
                )

    return GuardedTranslation(
        theory=Theory(output),
        original=theory,
        parent_count=parent_count,
        tgps=tgps,
        non_tgp_arities=non_tgp_arities,
    )
