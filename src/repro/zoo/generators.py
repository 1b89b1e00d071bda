"""Synthetic generators: structures and theories for benchmarks.

Everything is deterministic given the seed — benchmarks must be
reproducible run to run.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from ..lf.atoms import Atom, atom
from ..lf.rules import Rule, Theory
from ..lf.structures import Structure
from ..lf.terms import Constant, Null, Variable


def chain_structure(length: int, pred: str = "E", constants: bool = False) -> Structure:
    """A directed chain with *length* edges.

    With ``constants=True`` the elements are named constants
    ``v0 … vN`` (a plain database); otherwise anonymous nulls.
    """
    if constants:
        elements: List = [Constant(f"v{i}") for i in range(length + 1)]
    else:
        elements = [Null(i) for i in range(length + 1)]
    return Structure(atom(pred, u, v) for u, v in zip(elements, elements[1:]))


def cycle_structure(size: int, pred: str = "E") -> Structure:
    """A directed cycle on *size* anonymous elements."""
    elements = [Null(i) for i in range(size)]
    return Structure(
        atom(pred, elements[i], elements[(i + 1) % size]) for i in range(size)
    )


def binary_tree_structure(depth: int, preds: Tuple[str, str] = ("F", "G")) -> Structure:
    """A complete binary tree of the given depth with two edge labels."""
    facts: List[Atom] = []
    counter = [1]
    root = Null(0)

    def grow(parent: Null, remaining: int) -> None:
        if remaining == 0:
            return
        for pred in preds:
            child = Null(counter[0])
            counter[0] += 1
            facts.append(atom(pred, parent, child))
            grow(child, remaining - 1)

    grow(root, depth)
    return Structure(facts, domain=[root])


def grid_structure(rows: int, cols: int) -> Structure:
    """A directed grid: H-edges rightward, V-edges downward."""
    def node(r: int, c: int) -> Null:
        return Null(r * cols + c)

    facts: List[Atom] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                facts.append(atom("H", node(r, c), node(r, c + 1)))
            if r + 1 < rows:
                facts.append(atom("V", node(r, c), node(r + 1, c)))
    return Structure(facts)


def disjoint_chains_database(
    chains: int,
    length: int = 1,
    pred: str = "E",
    anchor: Optional[str] = "R",
) -> Structure:
    """*chains* disjoint E-chains of *length* edges over named constants,
    plus one ``anchor(a0, a0)`` loop (skipped when *anchor* is None).

    The Section 5.5 model-search benchmark workload: every chain end
    violates the growth rule, so an eager engine saturates a wide
    frontier of branches the search never pops — exactly the work the
    copy-on-write engine skips.
    """
    facts: List[Atom] = []
    counter = 0
    for _ in range(chains):
        elements = [Constant(f"b{counter + i}") for i in range(length + 1)]
        counter += length + 1
        facts.extend(atom(pred, u, v) for u, v in zip(elements, elements[1:]))
    if anchor is not None:
        a0 = Constant("a0")
        facts.append(atom(anchor, a0, a0))
    return Structure(facts)


def random_edges_database(
    size: int,
    edges: int,
    predicates: Tuple[str, ...] = ("E",),
    seed: int = 0,
) -> Structure:
    """A random database over named constants (for chase benchmarks)."""
    rng = random.Random(seed)
    elements = [Constant(f"v{i}") for i in range(size)]
    facts = set()
    while len(facts) < edges:
        pred = rng.choice(predicates)
        facts.add(atom(pred, rng.choice(elements), rng.choice(elements)))
    return Structure(facts, domain=elements)


def random_linear_theory(
    predicates: int,
    rules: int,
    seed: int = 0,
) -> Theory:
    """A random *linear* Datalog∃ theory over binary predicates.

    Linear TGDs (single body atom) are BDD, so these theories feed the
    rewriting and Theorem-2 benchmarks.  Shapes generated, all in (♠5)
    form: ``P(x,y) → ∃z Q(y,z)`` and datalog ``P(x,y) → Q(x,y)`` /
    ``P(x,y) → Q(y,x)``.
    """
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(predicates)]
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    generated: List[Rule] = []
    for index in range(rules):
        source, target = rng.choice(names), rng.choice(names)
        shape = rng.randrange(3)
        if shape == 0:
            generated.append(
                Rule((atom(source, x, y),), (atom(target, y, z),), f"r{index}")
            )
        elif shape == 1:
            generated.append(
                Rule((atom(source, x, y),), (atom(target, x, y),), f"r{index}")
            )
        else:
            generated.append(
                Rule((atom(source, x, y),), (atom(target, y, x),), f"r{index}")
            )
    return Theory(generated)


def chain_growth_theory(predicates: int) -> Theory:
    """A deterministic ladder of growth rules:
    ``P0(x,y) → ∃z P1(y,z) → … → ∃z P0(y,z)`` — a BDD theory whose
    chase is an infinite path cycling through *predicates* labels."""
    names = [f"P{i}" for i in range(predicates)]
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    generated = [
        Rule(
            (atom(names[i], x, y),),
            (atom(names[(i + 1) % predicates], y, z),),
            f"grow{i}",
        )
        for i in range(predicates)
    ]
    return Theory(generated)


def transitive_theory(pred: str = "E") -> Theory:
    """Plain transitivity — datalog, terminating chase, not FO-rewritable."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    return Theory([Rule((atom(pred, x, y), atom(pred, y, z)), (atom(pred, x, z),))])


def churn_stream(
    database: Structure,
    batches: int,
    delta_size: int = 1,
    churn: float = 0.5,
    pred: str = "E",
    seed: int = 0,
) -> "List[Tuple[List[Atom], List[Atom]]]":
    """A deterministic streaming-update workload over *database*.

    Yields *batches* update batches ``(adds, removes)`` of *delta_size*
    operations each, where *churn* is the fraction of operations that
    retract a currently-live base fact (the rest insert fresh *pred*
    edges over the database's constants).  Retractions only ever pick
    facts that are live in the simulated base at that point, so every
    batch is applicable in order — both to a
    :class:`~repro.chase.view.ChaseView` and to a from-scratch rechase.

    The stream is a pure function of its arguments (fixed *seed*),
    which is what lets a test or a benchmark compare incremental
    maintenance against full rechase on identical inputs.
    """
    rng = random.Random(seed)
    elements = sorted(
        (e for e in database.domain() if isinstance(e, Constant)),
        key=str,
    )
    if not elements:
        raise ValueError("churn_stream needs a database with constants")
    live = set(database.facts())
    stream: "List[Tuple[List[Atom], List[Atom]]]" = []
    for _ in range(batches):
        adds: List[Atom] = []
        removes: List[Atom] = []
        for _ in range(delta_size):
            removable = sorted(live - set(removes), key=str)
            if removable and rng.random() < churn:
                victim = removable[rng.randrange(len(removable))]
                removes.append(victim)
            else:
                for _attempt in range(32):
                    fact = atom(
                        pred,
                        elements[rng.randrange(len(elements))],
                        elements[rng.randrange(len(elements))],
                    )
                    if fact not in live and fact not in adds:
                        break
                adds.append(fact)
        live.difference_update(removes)
        live.update(adds)
        stream.append((adds, removes))
    return stream
