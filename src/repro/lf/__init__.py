"""Logical foundations: terms, atoms, structures, queries, rules.

This subpackage is the substrate everything else is built on.  It has
no dependencies outside the standard library.

Quick tour
----------
>>> from repro.lf import parse_theory, parse_structure, parse_query
>>> theory = parse_theory("E(x,y) -> exists z. E(y,z)")
>>> database = parse_structure("E(a,b)")
>>> query = parse_query("E(x,y), E(y,z)")
"""

from .atoms import EQUALITY, Atom, atom, atoms_constants, atoms_variables
from .canonical import (
    FREE_VARIABLE,
    canonical_key,
    canonical_label,
    canonical_query,
    isomorphic_over_constants,
    subsets_containing,
)
from .io import (
    atom_to_text,
    element_from_value,
    element_to_value,
    query_to_text,
    rule_to_text,
    structure_from_dict,
    structure_to_dict,
    theory_to_text,
    to_dot,
)
from .homomorphism import (
    all_answers,
    count_homomorphisms,
    find_homomorphism,
    homomorphisms,
    satisfies,
    structure_homomorphism,
    structure_homomorphisms,
    structures_hom_equivalent,
    structures_isomorphic,
)
from .plan import (
    HOM_STATS,
    HomStats,
    PlanCache,
    QueryPlan,
    clear_plan_cache,
    compile_plan,
    plan_for,
)
from .parser import (
    parse_atom,
    parse_fact,
    parse_facts,
    parse_query,
    parse_rule,
    parse_structure,
    parse_theory,
)
from .queries import ConjunctiveQuery, UnionOfConjunctiveQueries, align_free, cq
from .rules import Rule, Theory, rule
from .signature import Signature
from .structures import Structure
from .terms import (
    Constant,
    Element,
    Null,
    NullFactory,
    Term,
    Variable,
    is_constant,
    is_ground,
    is_null,
    is_variable,
)

__all__ = [
    "EQUALITY",
    "FREE_VARIABLE",
    "HOM_STATS",
    "Atom",
    "ConjunctiveQuery",
    "Constant",
    "Element",
    "HomStats",
    "Null",
    "NullFactory",
    "PlanCache",
    "QueryPlan",
    "Rule",
    "Signature",
    "Structure",
    "Term",
    "Theory",
    "UnionOfConjunctiveQueries",
    "Variable",
    "align_free",
    "all_answers",
    "atom",
    "atom_to_text",
    "atoms_constants",
    "atoms_variables",
    "canonical_key",
    "canonical_label",
    "canonical_query",
    "clear_plan_cache",
    "compile_plan",
    "count_homomorphisms",
    "cq",
    "element_from_value",
    "element_to_value",
    "find_homomorphism",
    "homomorphisms",
    "plan_for",
    "is_constant",
    "is_ground",
    "is_null",
    "is_variable",
    "isomorphic_over_constants",
    "parse_atom",
    "parse_fact",
    "parse_facts",
    "parse_query",
    "parse_rule",
    "parse_structure",
    "parse_theory",
    "query_to_text",
    "rule",
    "rule_to_text",
    "satisfies",
    "structure_from_dict",
    "structure_homomorphism",
    "structure_homomorphisms",
    "structure_to_dict",
    "structures_hom_equivalent",
    "structures_isomorphic",
    "subsets_containing",
    "theory_to_text",
    "to_dot",
]
