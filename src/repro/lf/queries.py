"""Conjunctive queries and unions of conjunctive queries.

Throughout the paper "query" means a conjunctive query (CQ) without
negation, and the rewriting Ψ′ of Definition 2 is a union of conjunctive
queries (UCQ).  Free variables that are omitted are read as existentially
quantified (Section 1.1); we mirror that by allowing a CQ to designate
any subset of its variables as *free* and treating the rest as
existential.

Queries are immutable; transformations return new queries.  Equality of
queries is syntactic up to atom-set equality; :meth:`ConjunctiveQuery.canonical`
produces a representative that is stable under variable renaming, which
is what the rewriting engine and the positive-type generators use for
de-duplication.

Atoms are kept in one total order (:func:`_atom_sort_key`): predicate,
then the ``str`` of each argument, then the kind of each argument, so a
constant and a variable of the same name never leave the order to the
hash seed.  The canonical form is computed on integer *slots*: the
query's variables are numbered once, each atom becomes a row of slots,
and the renaming fixpoint sorts and renumbers those rows until a
renaming leaves them unchanged (at most four renamings).  The result is
built once, through a trusted constructor that does not re-sort or
re-check atoms it already knows to be sorted and unique.  Like any
first-occurrence normal form it is sound (never merges distinct
queries) but incomplete (two renamings of one query may still get
different forms).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .atoms import Atom, atoms_constants, atoms_variables
from .terms import Constant, Term, Variable


def _atom_sort_key(item: Atom) -> Tuple[str, Tuple[str, ...], Tuple[str, ...]]:
    """The atom order every query keeps: predicate, then the ``str`` of
    each argument, then (only to break the remaining ties, e.g. ``P(x)``
    against ``P('x')``) the kind of each argument."""
    args = item.args
    return (
        item.pred,
        tuple(str(arg) for arg in args),
        tuple(type(arg).__name__ for arg in args),
    )


#: How many canonical variable names of each stem are prebuilt.
_PREBUILT_NAMES = 64
_NAME_TABLES: Dict[str, Tuple[Variable, ...]] = {
    stem: tuple(Variable(f"{stem}{i}") for i in range(_PREBUILT_NAMES))
    for stem in ("f", "v", "x")
}


def numbered_variables(stem: str, count: int) -> Tuple[Variable, ...]:
    """The variables ``stem0, stem1, ...`` up to *count*, for the
    canonical stems: ``f`` and ``v`` of :meth:`ConjunctiveQuery.canonical`
    and ``x`` of :func:`repro.lf.canonical.canonical_query`.

    They come from a fixed table; names past its end are made here.
    """
    table = _NAME_TABLES[stem]
    if count <= len(table):
        return table[:count]
    return table + tuple(Variable(f"{stem}{i}") for i in range(len(table), count))


class ConjunctiveQuery:
    """A conjunctive query: a finite conjunction of atoms.

    Parameters
    ----------
    atoms:
        The atoms of the query.  Duplicates are removed.
    free:
        The designated free variables, in order.  Every free variable
        must occur in some atom (or be constrained by an equality atom).

    Notes
    -----
    The paper's positive types (Definition 3) allow equality atoms of
    the form ``x = c``; these are represented as atoms with the reserved
    predicate ``"="`` and participate in evaluation.
    """

    __slots__ = ("_atoms", "_free", "_hash")

    def __init__(self, atoms: Iterable[Atom], free: Sequence[Variable] = ()):
        unique = sorted(set(atoms), key=_atom_sort_key)
        self._atoms: Tuple[Atom, ...] = tuple(unique)
        self._free: Tuple[Variable, ...] = tuple(free)
        if len(set(self._free)) != len(self._free):
            raise ValueError("repeated free variable")
        all_vars = atoms_variables(self._atoms)
        for var in self._free:
            if var not in all_vars:
                raise ValueError(f"free variable {var} does not occur in the query")
        self._hash = hash((frozenset(self._atoms), self._free))

    @classmethod
    def _from_validated(
        cls, atoms: Tuple[Atom, ...], free: Tuple[Variable, ...]
    ) -> "ConjunctiveQuery":
        """Build a query from atoms known to be sorted and unique.

        The internal constructions land here (:meth:`canonical`,
        :meth:`boolean`, :func:`repro.lf.canonical.canonical_query`):
        they produce *atoms* already unique and in :func:`_atom_sort_key`
        order, and a *free* tuple of distinct variables that occur in
        them, so the constructor's sort and checks would be pure
        overhead.  The hash is the constructor's.
        """
        query = object.__new__(cls)
        query._atoms = atoms
        query._free = free
        query._hash = hash((frozenset(atoms), free))
        return query

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def atoms(self) -> Tuple[Atom, ...]:
        """The atoms, deterministically ordered."""
        return self._atoms

    @property
    def free(self) -> Tuple[Variable, ...]:
        """The free variables, in declared order."""
        return self._free

    def variables(self) -> FrozenSet[Variable]:
        """All variables of the query."""
        return atoms_variables(self._atoms)

    def existential_variables(self) -> FrozenSet[Variable]:
        """Variables that are not free (read as ∃-quantified)."""
        return self.variables() - frozenset(self._free)

    def constants(self) -> FrozenSet[Constant]:
        """All constants of the query."""
        return atoms_constants(self._atoms)

    @property
    def width(self) -> int:
        """Total number of distinct variables.

        Positive ``n``-types (Definition 3) collect queries ``Ψ(x̄, y)``
        with ``|x̄| < n``, i.e. with at most ``n`` variables in total
        when ``y`` is counted; ``width`` is that total count.
        """
        return len(self.variables())

    @property
    def is_boolean(self) -> bool:
        """Whether the query has no free variables."""
        return not self._free

    def relation_names(self) -> FrozenSet[str]:
        """Predicates used by the query (equality excluded)."""
        return frozenset(a.pred for a in self._atoms if not a.is_equality)

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Dict[Variable, Term]) -> "ConjunctiveQuery":
        """Apply a (simultaneous) substitution.

        Free variables mapped to variables stay free (renamed); those
        mapped to constants are dropped from the free tuple (the query
        loses an answer column by design — equality-protected callers
        use :func:`repro.rewriting.subsume.normalize_equalities`).

        Raises
        ------
        ValueError
            When two free variables are mapped to the *same* variable:
            that would silently shrink the free tuple's arity and
            misalign every downstream positional ``zip`` over it.
            Callers that genuinely want to merge answer columns must
            restate the free tuple explicitly via :meth:`with_free`.
        """
        new_atoms = [a.substitute(mapping) for a in self._atoms]
        new_free: List[Variable] = []
        for var in self._free:
            image = mapping.get(var, var)
            if isinstance(image, Variable):
                if image in new_free:
                    raise ValueError(
                        f"substitution collapses free variables: {var} and "
                        f"another free variable both map to {image} "
                        f"(free tuple arity would silently shrink)"
                    )
                new_free.append(image)
        return ConjunctiveQuery(new_atoms, new_free)

    def with_free(self, free: Sequence[Variable]) -> "ConjunctiveQuery":
        """Same atoms, different choice of free variables."""
        return ConjunctiveQuery(self._atoms, free)

    def boolean(self) -> "ConjunctiveQuery":
        """Existentially close all variables."""
        return ConjunctiveQuery._from_validated(self._atoms, ())

    def conjoin(self, other: "ConjunctiveQuery") -> "ConjunctiveQuery":
        """Conjunction of two queries (free variables concatenated,
        duplicates removed, order preserved)."""
        free = list(self._free)
        for var in other._free:
            if var not in free:
                free.append(var)
        return ConjunctiveQuery(self._atoms + other._atoms, free)

    def rename_apart(self, taken: Iterable[Variable], stem: str = "r") -> "ConjunctiveQuery":
        """Rename variables so they avoid *taken* (for resolution steps)."""
        forbidden = {v.name for v in taken}
        mapping: Dict[Variable, Variable] = {}
        counter = 0
        for var in sorted(self.variables()):
            if var.name in forbidden:
                while f"{stem}{counter}" in forbidden:
                    counter += 1
                fresh = Variable(f"{stem}{counter}")
                counter += 1
                forbidden.add(fresh.name)
                mapping[var] = fresh
        if not mapping:
            return self
        return self.substitute(dict(mapping))

    def canonical(self) -> "ConjunctiveQuery":
        """A renaming-invariant representative.

        Variables are renamed by first occurrence in the deterministic
        atom order; free variables get names ``f0, f1, ...`` (keeping
        their declared order), existential ones ``v0, v1, ...``.
        Renaming may change the atom order, which may give another
        first-occurrence renaming, so the renaming is repeated until it
        leaves the atoms unchanged (at most four renamings in all).

        The fixpoint runs on integer slots rather than on queries: the
        variables are numbered once, in the order of the first renaming,
        each atom becomes a ``(predicate, slots)`` row with the
        constants after the variables, and a renaming only renumbers
        the rows.  Rows sort by :func:`_atom_sort_key` of the atoms they
        stand for, and the result is built once.  A query whose variables
        already carry the names of the first renaming is its own
        canonical form and is returned as it is.

        Two queries equal up to variable renaming have equal canonical
        forms *provided* the renaming respects the atom ordering — this
        is a cheap sound (never merges distinct queries) but incomplete
        normal form; the rewriting engine supplements it with
        homomorphic-equivalence checks.
        """
        free = self._free
        bound = len(free)
        slot: Dict[object, int] = {var: i for i, var in enumerate(free)}
        for item in self._atoms:
            for arg in item.args:
                if arg not in slot and isinstance(arg, Variable):
                    slot[arg] = len(slot)
        width = len(slot)
        terms: List[object] = [
            *numbered_variables("f", bound),
            *numbered_variables("v", width - bound),
        ]
        if all(var.name == term.name for var, term in zip(slot, terms)):
            # The first renaming is the identity, so every later one is
            # too: the query is its own canonical form.
            return self
        rows: List[Tuple[str, Tuple[int, ...], Tuple[str, ...]]] = []
        for item in self._atoms:
            args = []
            for arg in item.args:
                index = slot.get(arg)
                if index is None:
                    index = slot[arg] = len(terms)
                    terms.append(arg)
                args.append(index)
            rows.append(
                (item.pred, tuple(args), tuple(type(arg).__name__ for arg in item.args))
            )
        labels = [var.name for var in terms[:width]]
        labels += [str(term) for term in terms[width:]]

        def row_key(row):
            return (row[0], tuple(map(labels.__getitem__, row[1])), row[2])

        current = sorted(rows, key=row_key)
        for _ in range(3):
            renumber: Dict[int, int] = {}
            for _pred, args, _kinds in current:
                for index in args:
                    if bound <= index < width and index not in renumber:
                        renumber[index] = bound + len(renumber)
            if all(old == new for old, new in renumber.items()):
                break
            current = sorted(
                (
                    (pred, tuple(renumber.get(index, index) for index in args), kinds)
                    for pred, args, kinds in current
                ),
                key=row_key,
            )
        return ConjunctiveQuery._from_validated(
            tuple(
                Atom(pred, tuple(map(terms.__getitem__, args)))
                for pred, args, _kinds in current
            ),
            tuple(terms[:bound]),
        )

    # ------------------------------------------------------------------
    # Identity and presentation
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            frozenset(self._atoms) == frozenset(other._atoms)
            and self._free == other._free
        )

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        body = " & ".join(str(a) for a in self._atoms) or "true"
        if self._free:
            head = ", ".join(str(v) for v in self._free)
            return f"({head}) <- {body}"
        return body

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CQ[{self}]"


def align_free(
    query: ConjunctiveQuery, target_free: Sequence[Variable]
) -> ConjunctiveQuery:
    """Rename *query*'s free tuple to *target_free*, capture-avoidingly.

    A bare ``query.substitute(dict(zip(query.free, target_free)))`` is
    wrong whenever a *target* name already occurs existentially in the
    query: aligning ``∃x R(x, z)`` (free ``(z,)``) to the tuple
    ``(x,)`` would produce ``R(x, x)``, silently identifying the answer
    variable with the witness and dropping answers.  This helper first
    renames any clashing existential variables apart, then applies the
    (simultaneous, hence swap-safe) free renaming.
    """
    target = tuple(target_free)
    if len(target) != len(query.free):
        raise ValueError(
            f"cannot align free tuple of arity {len(query.free)} "
            f"to arity {len(target)}"
        )
    if query.free == target:
        return query
    clashes = (query.variables() - frozenset(query.free)) & set(target)
    if clashes:
        taken = {v.name for v in query.variables()} | {v.name for v in target}
        renaming: Dict[Variable, Variable] = {}
        counter = 0
        for var in sorted(clashes):
            while f"e{counter}" in taken:
                counter += 1
            fresh = Variable(f"e{counter}")
            taken.add(fresh.name)
            renaming[var] = fresh
        query = query.substitute(dict(renaming))
    return query.substitute(dict(zip(query.free, target)))


class UnionOfConjunctiveQueries:
    """A finite union (disjunction) of conjunctive queries.

    All disjuncts must agree on their free-variable tuple length; the
    free variables of the union are those of the first disjunct (each
    disjunct is rewritten to use them).
    """

    __slots__ = ("_disjuncts", "_free")

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery]):
        pool = list(disjuncts)
        if not pool:
            self._disjuncts: Tuple[ConjunctiveQuery, ...] = ()
            self._free: Tuple[Variable, ...] = ()
            return
        lead = pool[0]
        aligned: List[ConjunctiveQuery] = []
        for cq in pool:
            if len(cq.free) != len(lead.free):
                raise ValueError("disjuncts disagree on the number of free variables")
            if cq.free != lead.free:
                # capture-avoiding: see align_free (a bare zip-substitution
                # captures existential variables named after lead's frees)
                cq = align_free(cq, lead.free)
            aligned.append(cq)
        unique: List[ConjunctiveQuery] = []
        seen = set()
        for cq in aligned:
            marker = cq.canonical()
            if marker not in seen:
                seen.add(marker)
                unique.append(cq)
        self._disjuncts = tuple(unique)
        self._free = lead.free

    @property
    def disjuncts(self) -> Tuple[ConjunctiveQuery, ...]:
        """The disjuncts (de-duplicated up to canonical renaming)."""
        return self._disjuncts

    @property
    def free(self) -> Tuple[Variable, ...]:
        """The shared free-variable tuple."""
        return self._free

    def variables(self) -> FrozenSet[Variable]:
        """All variables across disjuncts."""
        seen = set()
        for cq in self._disjuncts:
            seen.update(cq.variables())
        return frozenset(seen)

    @property
    def max_width(self) -> int:
        """Largest number of variables in any disjunct.

        This is the quantity the paper calls ``|Var(Ψ′)|`` when defining
        κ in Section 3.3.
        """
        return max((cq.width for cq in self._disjuncts), default=0)

    def __len__(self) -> int:
        return len(self._disjuncts)

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self._disjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionOfConjunctiveQueries):
            return NotImplemented
        mine = {cq.canonical() for cq in self._disjuncts}
        theirs = {cq.canonical() for cq in other._disjuncts}
        return mine == theirs

    def __hash__(self) -> int:
        return hash(frozenset(cq.canonical() for cq in self._disjuncts))

    def __str__(self) -> str:
        return " | ".join(f"({cq})" for cq in self._disjuncts) or "false"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UCQ[{self}]"


def cq(atoms: Iterable[Atom], free: Sequence[Variable] = ()) -> ConjunctiveQuery:
    """Convenience constructor for :class:`ConjunctiveQuery`."""
    return ConjunctiveQuery(atoms, free)
