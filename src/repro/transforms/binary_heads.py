"""Frontier-1 heads → binary heads (Section 5.1, Theorem 3).

Theorem 3 extends Theorem 1 to theories whose existential TGDs all have
the shape ``Ψ(x̄, y) ⇒ ∃z̄ Φ(y, z̄)`` — a single frontier variable,
arbitrarily many witnesses, arbitrary arity in Φ.  The paper's hint:

    For each such TGD add new relation symbols ``R¹_Φ(y, z1) …
    Rⁿ_Φ(y, zn)`` (n = |z̄|), the binary-headed TGDs
    ``Ψ(x̄, y) ⇒ ∃zi Rⁱ_Φ(y, zi)``, and the datalog rule
    ``R¹_Φ(y, z1) ∧ … ∧ Rⁿ_Φ(y, zn) → Φ(y, z̄)``.

The binarity assumption of Theorem 2's proof is only used for the heads
of existential TGDs, so the whole proof survives this rewriting.

Note the deliberate semantic wrinkle (inherited from the paper): after
the split, the witnesses ``z1 … zn`` are created *independently* (one
per ``Rⁱ_Φ``), and the datalog rule joins every combination — this is a
sound over-approximation whose certain answers agree with the original
on the fragments the paper uses it for (multi-head Φ whose atoms each
use one witness).  The tests pin down exactly that agreement.
"""

from __future__ import annotations

from typing import List

from ..lf.atoms import Atom
from ..lf.rules import Rule, Theory


def is_frontier_one(rule: Rule) -> bool:
    """Whether an existential rule has at most one frontier variable."""
    return not rule.is_existential or len(rule.frontier()) <= 1


def split_frontier_one_heads(theory: Theory) -> Theory:
    """Apply the Section 5.1 rewriting to every eligible TGD.

    Rules that are already binary-headed single-witness TGDs (the (♠5)
    shape) and datalog rules pass through unchanged.  A TGD whose
    frontier has more than one variable is rejected — Theorem 3 does
    not cover it (and Section 5.4 explains why no such reduction is
    expected).
    """
    signature = theory.signature
    rewritten: List[Rule] = []
    counter = 0
    for rule in theory.rules:
        if rule.is_datalog:
            rewritten.append(rule)
            continue
        if not is_frontier_one(rule):
            raise ValueError(
                f"rule has more than one frontier variable (beyond "
                f"Theorem 3): {rule}"
            )
        witnesses = sorted(rule.existential_variables())
        frontier = sorted(rule.frontier())
        single_binary = (
            len(rule.head) == 1
            and rule.head[0].arity == 2
            and len(witnesses) == 1
            and rule.head[0].args[1] == witnesses[0]
        )
        if single_binary:
            rewritten.append(rule)
            continue
        if not frontier:
            raise ValueError(
                f"rule has no frontier variable to anchor the split: {rule}"
            )
        anchor = frontier[0]
        link_atoms: List[Atom] = []
        for witness in witnesses:
            link = signature.fresh_relation_name(f"R{counter}")
            counter += 1
            signature = signature.with_relations({link: 2})
            link_atom = Atom(link, (anchor, witness))
            link_atoms.append(link_atom)
            rewritten.append(Rule(rule.body, (link_atom,), f"{rule.label}-w{witness}"))
        rewritten.append(
            Rule(tuple(link_atoms), rule.head, f"{rule.label}-join")
        )
    return Theory(rewritten, signature)
