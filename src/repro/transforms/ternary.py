"""The general → ternary reduction (Section 5.2, Theorem 4).

"Using ternary predicates we can give names to lists of variables, in
the good old Prolog way."  Every atom of arity ``k > 3`` is flattened
into a chain of ternary *list* atoms::

    P(a1, …, ak)   ⟿   P_1(a1, a2, u1), P_2(u1, a3, u2), …,
                        P_{k-2}(u_{k-3}, a_{k-1}, u_{k-2}),
                        P_last(u_{k-2}, a_k)

with fresh list elements ``u_i``.  In rule *bodies* the ``u_i`` are
plain (universally quantified) variables — the original predicate is
"just a view over the real predicates" — while a *head* atom is built
step by step through a cascade of TGDs creating the list nodes, exactly
as in the paper's worked example::

    P(x,y,z,x) ⇒ ∃t R(x,y,z,t)

    becomes   body* ⇒ ∃w1 R_1(x, y, w1)
              body* ∧ R_1(x, y, w1) ⇒ ∃w2 R_2(w1, z, w2)
              body* ∧ R_1(x, y, r) ∧ R_2(r, z, s) ⇒ ∃t R_last(s, t)

(where ``body*`` is the body with its own big atoms viewed through the
list predicates).  Databases are translated by materialising the list
elements as fresh constants ("possibly adding some new elements to
denote lists of elements of D"); queries by the same view expansion as
bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..lf.atoms import Atom
from ..lf.queries import ConjunctiveQuery
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Variable


def _chain_predicates(pred: str, arity: int) -> List[str]:
    """The list-predicate names for flattening ``pred/arity`` (k > 3):
    ``k - 2`` ternary links followed by one binary closer."""
    return [f"{pred}__{i}" for i in range(1, arity - 1)] + [f"{pred}__last"]


def flatten_atom(
    atom: Atom, fresh: "Dict[str, int]", stem: str = "u"
) -> List[Atom]:
    """Flatten one atom of arity > 3 into its chain (fresh variables
    for the list nodes, numbered through *fresh* to avoid clashes).

    ``P(a1, …, ak)`` yields ``P__1(a1, a2, u1)``, then
    ``P__i(u_{i-1}, a_{i+1}, u_i)`` for ``i = 2 … k-2``, and finally
    ``P__last(u_{k-2}, ak)``.
    """
    k = atom.arity
    if k <= 3:
        return [atom]
    names = _chain_predicates(atom.pred, k)

    def fresh_var() -> Variable:
        fresh[stem] = fresh.get(stem, 0) + 1
        return Variable(f"{stem}{fresh[stem]}")

    chain: List[Atom] = []
    previous = fresh_var()
    chain.append(Atom(names[0], (atom.args[0], atom.args[1], previous)))
    for index in range(1, k - 2):
        nxt = fresh_var()
        chain.append(Atom(names[index], (previous, atom.args[index + 1], nxt)))
        previous = nxt
    chain.append(Atom(names[-1], (previous, atom.args[k - 1])))
    return chain


def _flatten_body(body: Tuple[Atom, ...], fresh: "Dict[str, int]") -> List[Atom]:
    flattened: List[Atom] = []
    for atom in body:
        flattened.extend(flatten_atom(atom, fresh))
    return flattened


@dataclass
class TernaryReduction:
    """The reduced theory and the translation helpers.

    Attributes
    ----------
    theory:
        The ternary theory T′.
    original:
        The input theory.
    """

    theory: Theory
    original: Theory

    def translate_database(self, database: Structure) -> Structure:
        """Flatten a database, materialising list nodes as constants."""
        translated = Structure()
        counter = [0]
        for fact in database.sorted_facts():
            if fact.arity <= 3:
                translated.add_fact(fact)
                continue
            fresh: Dict[str, int] = {}
            atoms = flatten_atom(fact, fresh)
            table: Dict[Variable, Constant] = {}
            for item in atoms:
                args = []
                for arg in item.args:
                    if isinstance(arg, Variable):
                        named = table.get(arg)
                        if named is None:
                            named = Constant(f"_list{counter[0]}")
                            counter[0] += 1
                            table[arg] = named
                        args.append(named)
                    else:
                        args.append(arg)
                translated.add_fact(Atom(item.pred, tuple(args)))
        for element in database.domain():
            translated.add_element(element)
        return translated

    def translate_query(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """Flatten a query through the same views as rule bodies."""
        fresh: Dict[str, int] = {"u": sum(1 for _ in query.variables())}
        atoms = _flatten_body(query.atoms, fresh)
        return ConjunctiveQuery(atoms, query.free)


def ternary_reduction(theory: Theory) -> TernaryReduction:
    """Reduce an arbitrary single-head theory to a ternary one.

    Rules whose atoms are all of arity ≤ 3 pass through unchanged; big
    bodies are viewed through the list predicates; big heads become the
    paper's creation cascade (datalog heads use plain datalog rules for
    the cascade's last step; existential heads put the real witness in
    the closer).
    """
    rewritten: List[Rule] = []
    for rule in theory.rules:
        if not rule.is_single_head:
            raise ValueError(f"ternary reduction needs single-head rules: {rule}")
        fresh: Dict[str, int] = {}
        body = _flatten_body(rule.body, fresh)
        head = rule.head_atom
        if head.arity <= 3:
            rewritten.append(Rule(body, (head,), rule.label))
            continue
        witnesses = rule.existential_variables()
        chain = flatten_atom(head, fresh, stem="w")
        # Cascade: each link rule sees the body plus the previous links;
        # the list-node variables (and, in the closer, the original
        # witness) are implicitly existential — they are absent from
        # the accumulated body at their creation step.
        accumulated: List[Atom] = list(body)
        for index, link in enumerate(chain):
            rewritten.append(Rule(tuple(accumulated), (link,), f"{rule.label}-t{index}"))
            accumulated.append(link)
    return TernaryReduction(theory=Theory(rewritten), original=theory)
