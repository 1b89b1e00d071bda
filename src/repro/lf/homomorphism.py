"""Homomorphism search: the query-evaluation engine.

Everything in the paper runs on homomorphisms: ``C |= Φ`` for a CQ Φ is
the existence of a homomorphism from Φ's atoms to C; positive types are
sets of CQs; the finite counter-model contains a homomorphic image of
the chase.  Evaluation runs through the compiled join plans of
:mod:`repro.lf.plan` (static atom ordering, per-atom index selection,
iterative matching, process-wide plan cache).

Public entry points
-------------------
``homomorphisms``          — generate all satisfying bindings of a set of atoms
``find_homomorphism``      — first satisfying binding or ``None``
``satisfies``              — boolean satisfaction of a CQ (under a partial binding)
``all_answers``            — the answer relation of a CQ over a structure
``structure_homomorphism`` — homomorphism between two structures (constants fixed)
``structures_hom_equivalent`` / ``structures_isomorphic`` — comparisons
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .atoms import Atom
from .plan import QueryPlan, plan_for
from .queries import ConjunctiveQuery, UnionOfConjunctiveQueries, align_free
from .structures import Structure
from .terms import Constant, Element, Null, Variable

Binding = Dict[Variable, Element]

def _resolve_equalities(
    atoms: Sequence[Atom], binding: Binding
) -> "Optional[Tuple[List[Atom], Binding, Dict[Variable, Variable]]]":
    """Process ``=`` atoms: bind variables, check ground equalities.

    Returns the relational atoms (with forced substitutions applied),
    the extended binding, and the variable-to-variable renaming induced
    by unresolved ``x = y`` equalities (callers must copy the
    representative's value back onto the renamed variables so that every
    original variable appears in the produced bindings), or ``None`` on
    an inconsistency.
    """
    relational = [a for a in atoms if not a.is_equality]
    equalities = [a for a in atoms if a.is_equality]
    binding = dict(binding)
    # Fixpoint: each pass may ground more equalities.
    changed = True
    while changed and equalities:
        changed = False
        remaining: List[Atom] = []
        for eq in equalities:
            if eq.arity != 2:
                raise ValueError(f"equality atom must be binary: {eq}")
            left, right = eq.args
            left = binding.get(left, left) if isinstance(left, Variable) else left
            right = binding.get(right, right) if isinstance(right, Variable) else right
            if isinstance(left, Variable) and isinstance(right, Variable):
                if left == right:
                    changed = True
                    continue
                remaining.append(Atom("=", (left, right)))
            elif isinstance(left, Variable):
                binding[left] = right  # type: ignore[assignment]
                changed = True
            elif isinstance(right, Variable):
                binding[right] = left  # type: ignore[assignment]
                changed = True
            else:
                if left != right:
                    return None
                changed = True
        equalities = remaining
    # Unresolved var=var equalities: unify by renaming one to the other.
    rename: Dict[Variable, Variable] = {}
    for eq in equalities:
        left, right = eq.args
        while left in rename:
            left = rename[left]
        while right in rename:
            right = rename[right]
        if left != right:
            rename[left] = right
    flattened: Dict[Variable, Variable] = {}
    if rename:
        def _chase(var):
            while isinstance(var, Variable) and var in rename:
                var = rename[var]
            return var
        relational = [
            Atom(a.pred, tuple(_chase(t) if isinstance(t, Variable) else t for t in a.args))
            for a in relational
        ]
        for var in list(binding):
            target = _chase(var)
            if target != var and isinstance(target, Variable):
                if target in binding and binding[target] != binding[var]:
                    return None
                binding[target] = binding[var]
        flattened = {var: _chase(var) for var in rename}
    return relational, binding, flattened


def _planned(
    atoms: Sequence[Atom], structure: Structure, binding: "Optional[Binding]"
) -> "Optional[Tuple[QueryPlan, Binding, Dict[Variable, Variable]]]":
    """Resolve the equalities of *atoms* and fetch the plan of the rest.

    Returns the plan, the binding it starts from and the renaming of
    :func:`_resolve_equalities`, or ``None`` when the equalities are
    inconsistent.
    """
    resolved = _resolve_equalities(list(atoms), binding or {})
    if resolved is None:
        return None
    todo, start, renamed = resolved
    atom_vars: Set[Variable] = set()
    for item in todo:
        atom_vars.update(item.variable_set())
    prebound = frozenset(var for var in start if var in atom_vars)
    return plan_for(tuple(todo), prebound, structure), start, renamed


def homomorphisms(
    atoms: Sequence[Atom],
    structure: Structure,
    binding: "Optional[Binding]" = None,
) -> Iterator[Binding]:
    """Generate every binding of the variables of *atoms* into
    *structure* that makes all atoms facts of the structure.

    Constants in the atoms must match themselves.  The optional
    *binding* pre-binds some variables.  Equality atoms are resolved
    up-front; the rest runs on a compiled plan (:mod:`repro.lf.plan`).
    """
    planned = _planned(atoms, structure, binding)
    if planned is None:
        return
    plan, start, renamed = planned
    for found in plan.bindings(structure, start):
        for original, representative in renamed.items():
            if representative in found:
                found[original] = found[representative]
        yield found


def find_homomorphism(
    atoms: Sequence[Atom],
    structure: Structure,
    binding: "Optional[Binding]" = None,
) -> "Optional[Binding]":
    """First satisfying binding, or ``None``."""
    for found in homomorphisms(atoms, structure, binding):
        return found
    return None


def satisfies(
    structure: Structure,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
    binding: "Optional[Binding]" = None,
) -> bool:
    """``C |= ∃ (unbound vars) query`` under the partial *binding*."""
    if isinstance(query, UnionOfConjunctiveQueries):
        return any(satisfies(structure, cq, binding) for cq in query)
    return find_homomorphism(query.atoms, structure, binding) is not None


def all_answers(
    structure: Structure,
    query: "ConjunctiveQuery | UnionOfConjunctiveQueries",
) -> "Set[Tuple[Element, ...]]":
    """The answer relation: tuples for the free variables.

    For a Boolean query the result is ``{()}`` if satisfied, else ``∅``.
    """
    if isinstance(query, UnionOfConjunctiveQueries):
        answers: Set[Tuple[Element, ...]] = set()
        for cq in query:
            # Capture-avoiding alignment: a bare zip-substitution turns
            # ∃x R(x,z) with free (z,) into R(x,x) when aligned to
            # (x,), silently dropping answers.
            aligned = align_free(cq, query.free) if cq.free != query.free else cq
            answers.update(all_answers(structure, aligned))
        return answers
    planned = _planned(query.atoms, structure, None)
    if planned is None:
        return set()
    plan, start, renamed = planned
    # a renamed variable takes its representative's value, as in the
    # bindings homomorphisms() emits; the rows come straight from the
    # plan's slots, with no binding dict per match
    columns = [renamed.get(var, var) for var in query.free]
    return set(plan.answers(structure, columns, start))


# ----------------------------------------------------------------------
# Structure-to-structure homomorphisms
# ----------------------------------------------------------------------

def _structure_as_query(
    source: Structure, fixed: "Optional[Dict[Element, Element]]" = None
) -> Tuple[List[Atom], Dict[Variable, Element], Dict[Element, Variable]]:
    """View *source* as a CQ: non-constant elements become variables.

    Returns the query atoms, the pre-binding induced by *fixed*, and the
    element→variable table.
    """
    table: Dict[Element, Variable] = {}
    prebound: Dict[Variable, Element] = {}

    def var_of(element: Element) -> Variable:
        found = table.get(element)
        if found is None:
            found = Variable(f"_e{len(table)}")
            table[element] = found
        return found

    atoms: List[Atom] = []
    for fact in source.sorted_facts():
        args = []
        for arg in fact.args:
            if isinstance(arg, Constant):
                args.append(arg)
            else:
                args.append(var_of(arg))
        atoms.append(Atom(fact.pred, tuple(args)))
    if fixed:
        for element, image in fixed.items():
            if isinstance(element, Constant):
                if element != image:
                    raise ValueError("constants must be fixed to themselves")
                continue
            prebound[var_of(element)] = image
    return atoms, prebound, table


def structure_homomorphisms(
    source: Structure,
    target: Structure,
    fixed: "Optional[Dict[Element, Element]]" = None,
) -> Iterator[Dict[Element, Element]]:
    """Generate homomorphisms ``source → target`` as element mappings.

    Constants are mapped to themselves (and must exist in *target* as
    far as the facts require).  *fixed* pre-commits some non-constant
    elements.  Isolated elements of *source* (in no fact) are mapped to
    an arbitrary element of *target* only if requested via *fixed*;
    otherwise they are left out of the mapping.
    """
    atoms, prebound, table = _structure_as_query(source, fixed)
    for binding in homomorphisms(atoms, target, prebound):
        mapping: Dict[Element, Element] = {}
        for element, variable in table.items():
            mapping[element] = binding[variable]
        for constant in source.constant_elements():
            mapping.setdefault(constant, constant)
        yield mapping


def structure_homomorphism(
    source: Structure,
    target: Structure,
    fixed: "Optional[Dict[Element, Element]]" = None,
) -> "Optional[Dict[Element, Element]]":
    """First homomorphism ``source → target``, or ``None``."""
    for mapping in structure_homomorphisms(source, target, fixed):
        return mapping
    return None


def structures_hom_equivalent(left: Structure, right: Structure) -> bool:
    """Homomorphic equivalence (maps both ways, constants fixed)."""
    return (
        structure_homomorphism(left, right) is not None
        and structure_homomorphism(right, left) is not None
    )


def structures_isomorphic(
    left: Structure,
    right: Structure,
    fixed: "Optional[Dict[Element, Element]]" = None,
) -> bool:
    """Isomorphism test by searching for a bijective homomorphism whose
    inverse is also a homomorphism.

    Exponential in general; intended for the small local structures the
    paper compares (``C ↾ (P(e) ∪ C_con)`` in Definition 14).
    """
    if len(left.facts()) != len(right.facts()):
        return False
    if left.domain_size != right.domain_size:
        return False
    if left.constant_elements() != right.constant_elements():
        return False
    for mapping in structure_homomorphisms(left, right, fixed):
        values = list(mapping.values())
        if len(set(values)) != len(values):
            continue  # not injective
        image_facts = {fact.substitute(mapping) for fact in left.facts()}
        if len(image_facts) != len(left.facts()):
            continue  # two facts collapsed (cannot happen when injective)
        # Injective + equal fact counts + image ⊆ right ⟹ image = right,
        # so the inverse is a homomorphism too: this is an isomorphism.
        if all(right.has_fact(fact) for fact in image_facts):
            return True
    return False


def count_homomorphisms(
    atoms: Sequence[Atom],
    structure: Structure,
    limit: "Optional[int]" = None,
) -> int:
    """Number of satisfying bindings (capped at *limit* if given)."""
    total = 0
    for _ in homomorphisms(atoms, structure):
        total += 1
        if limit is not None and total >= limit:
            return total
    return total
