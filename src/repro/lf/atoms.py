"""Atoms: relational facts and rule/query atoms.

An :class:`Atom` is a predicate name applied to a tuple of arguments.
In rules and queries the arguments are variables and constants; in
structures ("facts") the arguments are domain elements (constants and
nulls).  The same class serves both roles, which keeps the substitution
and homomorphism machinery uniform.

The reserved predicate name ``"="`` encodes the equality atoms ``x = c``
that the paper allows inside positive types (Definition 3).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Iterator, Optional, Sequence

from .terms import Constant, Null, Term, Variable, is_ground

#: Reserved predicate name for equality atoms ``x = c`` (Definition 3).
EQUALITY = "="


class Atom(tuple):
    """A predicate applied to arguments: the ``tuple`` ``(pred, args)``.

    Being a tuple, an atom is hashed, compared and ordered in C, by
    ``(pred, args)`` — in every set of facts, index bucket and matcher
    check — and it equals the plain ``(pred, args)`` tuple, with an
    equal hash, so no container may mix atoms with raw 2-tuples.

    Attributes
    ----------
    pred:
        Predicate (relation) name.  ``"="`` is reserved for equality.
    args:
        The argument tuple.  Variables and constants for rule/query
        atoms; constants and nulls for facts.
    """

    __slots__ = ()

    def __new__(cls, pred: str, args: Iterable[object]) -> "Atom":
        if not pred:
            raise ValueError("predicate name must be non-empty")
        if not isinstance(args, tuple):
            args = tuple(args)
        return super().__new__(cls, (pred, args))

    pred = property(itemgetter(0))
    args = property(itemgetter(1))

    def __getnewargs__(self):
        # pickle and copy call Atom(pred, args), not Atom((pred, args))
        return tuple(self)

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of arguments."""
        return len(self.args)

    @property
    def is_equality(self) -> bool:
        """Whether this is an equality atom ``x = c``."""
        return self.pred == EQUALITY

    def variables(self) -> Iterator[Variable]:
        """Yield the variables occurring in the atom (with repetitions)."""
        for arg in self.args:
            if isinstance(arg, Variable):
                yield arg

    def constants(self) -> Iterator[Constant]:
        """Yield the constants occurring in the atom (with repetitions)."""
        for arg in self.args:
            if isinstance(arg, Constant):
                yield arg

    def nulls(self) -> Iterator[Null]:
        """Yield the nulls occurring in the atom (with repetitions)."""
        for arg in self.args:
            if isinstance(arg, Null):
                yield arg

    def variable_set(self) -> "frozenset[Variable]":
        """The set of variables occurring in the atom."""
        return frozenset(self.variables())

    @property
    def is_fact(self) -> bool:
        """Whether every argument is a domain element (no variables)."""
        return all(is_ground(arg) for arg in self.args)

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, mapping: Dict[object, object]) -> "Atom":
        """Apply *mapping* to the arguments, leaving unmapped ones alone.

        The mapping may send variables to terms or elements, and (for
        quotient projections) elements to elements.
        """
        return Atom(self.pred, tuple(mapping.get(arg, arg) for arg in self.args))

    def rename_predicate(self, new_pred: str) -> "Atom":
        """Return the same atom under a different predicate name."""
        return Atom(new_pred, self.args)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        if self.is_equality and len(self.args) == 2:
            return f"{self.args[0]} = {self.args[1]}"
        rendered = ", ".join(str(arg) for arg in self.args)
        return f"{self.pred}({rendered})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom({self})"


def atom(pred: str, *args: object) -> Atom:
    """Convenience constructor: ``atom("E", x, y)``."""
    return Atom(pred, tuple(args))


def atoms_variables(atoms: Iterable[Atom]) -> "frozenset[Variable]":
    """The set of variables occurring in *atoms*."""
    seen = set()
    for item in atoms:
        seen.update(item.variables())
    return frozenset(seen)


#: Why :func:`unsafe_free_variable` rejected a variable.
UNSAFE_REASON = (
    "it occurs in no relational atom, and no equality links it to a "
    "constant or to a variable of one"
)


def unsafe_free_variable(
    atoms: Sequence[Atom], free: Iterable[Variable]
) -> "Optional[Variable]":
    """The first of *free* that no match of *atoms* gives a value.

    A free variable has one when it occurs in a relational atom, or a
    chain of equality atoms links it to a constant or to a variable of
    a relational atom.
    """
    parent: Dict[Term, Term] = {}

    def root(term: Term) -> Term:
        while term in parent:
            term = parent[term]
        return term

    for item in atoms:
        if item.is_equality:
            left, right = (root(arg) for arg in item.args)
            if left != right:
                parent[left] = right
    anchored = {
        root(arg)
        for item in atoms
        for arg in item.args
        if not item.is_equality or isinstance(arg, Constant)
    }
    for var in free:
        if root(var) not in anchored:
            return var
    return None


def atoms_constants(atoms: Iterable[Atom]) -> "frozenset[Constant]":
    """The set of constants occurring in *atoms*."""
    seen = set()
    for item in atoms:
        seen.update(item.constants())
    return frozenset(seen)
