"""repro — a Datalog∃ laboratory for *On the BDD/FC Conjecture*.

This library implements, end to end and from scratch, every object
defined in Gogacz & Marcinkowski's paper *On the BDD/FC Conjecture*
(PODS 2013): existential tuple-generating dependencies and datalog
rules, the (non-oblivious) chase, positive-first-order query rewriting
(the BDD property), positive n-types and their quotient structures,
colorings and conservativity, Very Treelike DAGs, the skeleton of a
chase, and the finite counter-model construction of Theorem 2 — plus
the transformations of Section 5 (binary heads, ternary reduction,
multi-head encodings, guarded-to-binary) and an independent
finite-model search used to cross-check the pipeline.

Quickstart
----------
>>> from repro import parse_theory, parse_structure, parse_query
>>> from repro.core import build_finite_counter_model
>>> theory = parse_theory("E(x,y) -> exists z. E(y,z)")
>>> result = build_finite_counter_model(
...     theory, parse_structure("E(a,b)"), parse_query("E(x,x)"))
>>> result.model is not None
True

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
executable reproduction of every example in the paper.
"""

from . import chase, classes, coloring, core, fc, lf, ptypes, rewriting
from . import skeleton, transforms, vtdag, zoo
from .config import BudgetedConfig, OnBudget
from .lf import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Null,
    Rule,
    Signature,
    Structure,
    Theory,
    UnionOfConjunctiveQueries,
    Variable,
    parse_facts,
    parse_query,
    parse_rule,
    parse_structure,
    parse_theory,
)

__version__ = "1.0.0"

__all__ = [
    "Atom",
    "BudgetedConfig",
    "ConjunctiveQuery",
    "Constant",
    "Null",
    "OnBudget",
    "Rule",
    "Signature",
    "Structure",
    "Theory",
    "UnionOfConjunctiveQueries",
    "Variable",
    "chase",
    "classes",
    "coloring",
    "core",
    "fc",
    "lf",
    "parse_facts",
    "parse_query",
    "parse_rule",
    "parse_structure",
    "parse_theory",
    "ptypes",
    "rewriting",
    "skeleton",
    "transforms",
    "vtdag",
    "zoo",
]
