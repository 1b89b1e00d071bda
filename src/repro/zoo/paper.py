"""Every named theory, database, and structure of the paper.

Each entry is a function returning fresh objects, so tests and
benchmarks cannot contaminate one another.  Section references are to
*On the BDD/FC Conjecture* (Gogacz & Marcinkowski).
"""

from __future__ import annotations

from typing import List, Tuple

from ..lf.atoms import atom
from ..lf.parser import parse_query, parse_structure, parse_theory
from ..lf.queries import ConjunctiveQuery
from ..lf.rules import Theory
from ..lf.structures import Structure
from ..lf.terms import Null


def example1_theory() -> Theory:
    """Example 1: the chain theory whose naive homomorphic image blows up.

    ``Chase({E(a,b)})`` is an infinite E-chain — the triangle rule never
    fires; but the 3-cycle image M′ triggers it and ``Chase(M′, T)`` is
    infinite.
    """
    return parse_theory(
        """
        E(x,y) -> exists z. E(y,z)
        E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
        U(x,y) -> exists z. U(y,z)
        """
    )


def example1_database() -> Structure:
    """``D = {E(a, b)}``."""
    return parse_structure("E(a,b)")


def example1_triangle() -> Structure:
    """The homomorphic image M′: a directed 3-cycle through a and b."""
    return parse_structure("E(a,b)\nE(b,c)\nE(c,a)")


def example3_chain(length: int) -> Structure:
    """Example 3: the chain ``a_0 → a_1 → …`` (anonymous elements).

    The paper's chain is infinite; *length* is the truncation (number
    of edges).
    """
    elements = [Null(i) for i in range(length + 1)]
    return Structure(atom("E", u, v) for u, v in zip(elements, elements[1:]))


def example6_total_order(size: int) -> Structure:
    """Example 6: a (finite prefix of an) irreflexive total order."""
    elements = [Null(i) for i in range(size)]
    return Structure(
        atom("E", elements[i], elements[j])
        for i in range(size)
        for j in range(i + 1, size)
    )


def remark3_theory() -> Theory:
    """Remark 3: successor + transitivity."""
    return parse_theory(
        """
        E(x,y) -> exists z. E(y,z)
        E(x,y), E(y,z) -> E(x,z)
        """
    )


def remark3_database() -> Structure:
    """``D = {E(a,a), E(b,c)}`` — the loop makes every sentence true."""
    return parse_structure("E(a,a)\nE(b,c)")


def example7_theory() -> Theory:
    """Example 7 (also Example 8): growth + E-confluence.

    BDD; the datalog rule is the troublemaker that survives the
    quotient and must be saturated (Lemma 5 territory).
    """
    return parse_theory(
        """
        E(x,y) -> exists z. E(y,z)
        E(x,y), E(u,y) -> R(x,u)
        """
    )


def example7_database() -> Structure:
    """``D = {E(a, b)}``."""
    return parse_structure("E(a,b)")


def example9_theory() -> Theory:
    """Example 9: the full binary F/G-tree theory.

    ``Chase({F(a,b)})`` is an infinite binary tree; its quotients
    contain *undirected* 4-cycles but no small directed cycles.
    """
    return parse_theory(
        """
        F(x,y) -> exists z. F(y,z)
        F(x,y) -> exists z. G(y,z)
        G(x,y) -> exists z. F(y,z)
        G(x,y) -> exists z. G(y,z)
        """
    )


def example9_database() -> Structure:
    """``D = {F(a, b)}``."""
    return parse_structure("F(a,b)")


def section54_theory() -> Theory:
    """Section 5.4: the quaternary obstruction.

    ``R(x,x',y,z) ⇒ E(y,z)`` and ``E(x,y), E(t,y) ⇒ ∃z R(x,t,y,z)`` —
    BDD, but any identification forces fresh witnesses that spawn new
    E-chains, defeating every Lemma-5-like embargo.
    """
    return parse_theory(
        """
        R(x,u,y,z) -> E(y,z)
        E(x,y), E(t,y) -> exists z. R(x,t,y,z)
        """
    )


def section54_database() -> Structure:
    """``D = {E(a, b)}``."""
    return parse_structure("E(a,b)")


def section55_theory() -> Theory:
    """Section 5.5's notorious example: not FC, yet defines no ordering.

    ``E`` grows a chain; the datalog rule walks ``R`` two steps along
    the chain for every one step on the left.
    """
    return parse_theory(
        """
        E(x,y) -> exists z. E(y,z)
        R(x,y), E(x,u), E(y,z), E(z,w) -> R(u,w)
        """
    )


def section55_database() -> Structure:
    """``D = {E(a0, a1), R(a0, a0)}``."""
    return parse_structure("E(a0,a1)\nR(a0,a0)")


def section55_query() -> ConjunctiveQuery:
    """``Φ(x, y) = E(x, y) ∧ R(y, y)`` — false in the chase, true in
    every finite model of the theory (the paper's argument)."""
    return parse_query("E(x,y), R(y,y)")


def guarded_example_theory() -> Theory:
    """A small guarded program (for the Section 5.6 translation): every
    rule has a body atom containing all body variables."""
    return parse_theory(
        """
        P(x,y,z) -> exists w. R(y,z,w)
        R(x,y,z) -> exists w. P(z,y,w)
        P(x,y,z), S(y) -> G(z)
        """
    )


def guarded_example_database() -> Structure:
    """Seed facts for the guarded example."""
    return parse_structure("P(a,b,c)\nS(b)")


def lemma13_bounded_degree_structure() -> Structure:
    """Section 5.5's chase shape: an E-chain with ``R(a_i, a_{2i})``
    (here truncated), degree bounded by 4 — the structure Lemma 13
    declares ptp-conservative."""
    length = 16
    elements = [Null(i) for i in range(length + 1)]
    facts = [atom("E", elements[i], elements[i + 1]) for i in range(length)]
    facts += [
        atom("R", elements[i], elements[2 * i])
        for i in range(1, length // 2 + 1)
    ]
    return Structure(facts)


#: Binary BDD theories with databases and non-certain queries for the
#: Theorem-2 corpus (experiment E10): (name, theory, database, query).
def theorem2_corpus(
    extended: bool = False,
) -> "List[Tuple[str, Theory, Structure, ConjunctiveQuery]]":
    """The corpus of (T, D, Q) triples the pipeline is exercised on.

    Every theory is binary and BDD (certified by the rewriting engine
    in the tests); every query is *not* certain, so Theorem 2 promises
    a finite counter-model.

    With ``extended=True`` the corpus additionally carries the
    rewriting stress entry ``linear-mix/P5-cycle-stress``: an 18-rule
    random linear theory whose 4-cycle query saturates only after a
    600+-disjunct frontier.  It satisfies every corpus invariant but
    is far too heavy for the per-entry pipeline tests, so only the
    rewriting benchmark (``benchmarks/bench_perf_rewriting.py``) opts
    in.
    """
    corpus: List[Tuple[str, Theory, Structure, ConjunctiveQuery]] = []
    corpus.append(
        (
            "example1/triangle-query",
            example1_theory(),
            example1_database(),
            parse_query("U(x,y)"),
        )
    )
    corpus.append(
        (
            "linear/loop-query",
            parse_theory("E(x,y) -> exists z. E(y,z)"),
            parse_structure("E(a,b)"),
            parse_query("E(x,x)"),
        )
    )
    corpus.append(
        (
            "example7/foreign-pred",
            example7_theory(),
            example7_database(),
            parse_query("R(x,u), P(u,w)"),
        )
    )
    corpus.append(
        (
            "binary-tree/F-G-join",
            example9_theory(),
            example9_database(),
            parse_query("F(x,y), G(x,y)"),
        )
    )
    corpus.append(
        (
            "two-chains/merge-query",
            parse_theory(
                """
                E(x,y) -> exists z. E(y,z)
                E(x,y) -> B(y)
                """
            ),
            parse_structure("E(a,b)\nE(c,d)"),
            parse_query("E(x,y), E(y,x)"),
        )
    )
    if extended:
        from .generators import random_linear_theory
        from ..lf.terms import Variable

        cycle = [Variable(f"x{i}") for i in range(4)]
        corpus.append(
            (
                "linear-mix/P5-cycle-stress",
                random_linear_theory(predicates=5, rules=18, seed=2),
                parse_structure("P0(a,b)"),
                ConjunctiveQuery(
                    [
                        atom(f"P{i % 5}", cycle[i], cycle[(i + 1) % 4])
                        for i in range(4)
                    ],
                    [cycle[0]],
                ),
            )
        )
    return corpus
