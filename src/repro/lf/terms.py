"""Terms: variables, constants, and labelled nulls.

The term language of the paper is minimal: rule and query atoms contain
*variables* and *constants*; the chase invents fresh elements, written
``c_{t,x̄}`` in the paper, which we represent as :class:`Null` objects
carrying their provenance (which rule fired, on which trigger, at which
chase level).

Design notes
------------
* All three classes are immutable and hashable so they can live in sets,
  dict keys, and atoms.
* Elements are builtin subclasses, hashed and compared in C: a
  :class:`Constant` equals the ``str`` of its name and a :class:`Null`
  the ``int`` of its ident, so no container may mix them with raw
  ``str`` or ``int`` keys.  A :class:`Variable` equals no constant.
* :class:`Constant` doubles as a *domain element*: the interpretation of
  a constant in every structure is itself (Herbrand-style), matching the
  paper's convention ("we are not always going to make this distinction"
  between a constant and its value, Section 2.2, footnote 2).
* :class:`Null` is also a domain element but never occurs in rules or
  queries — queries about the chase refer to nulls only through
  variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, order=True)
class Variable:
    """A first-order variable, identified by its name.

    Two variables with the same name are the same variable.  Names are
    arbitrary non-empty strings; the parser produces identifiers.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("variable name must be non-empty")

    def __hash__(self) -> int:
        # Cached: terms are hashed millions of times (set members, dict
        # keys in bindings and indexes) and the generated dataclass hash
        # rebuilds a field tuple per call.  Consistent with the
        # generated __eq__ (same class, same name).
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            value = hash(("Variable", self.name))
            object.__setattr__(self, "_hash", value)
            return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"?{self.name}"

    def __str__(self) -> str:
        return self.name


class Constant(str):
    """A named constant from the signature: the ``str`` of its name.

    Constants are interpreted as themselves in every structure.  The
    paper's structure ``C_con`` (Section 1.1, Notations) is exactly the
    set of :class:`Constant` elements of a structure's domain.
    """

    __slots__ = ()

    def __new__(cls, name: str) -> "Constant":
        if not name:
            raise ValueError("constant name must be non-empty")
        return super().__new__(cls, name)

    name = property(str.__str__)  # a plain ``str``

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"'{self}'"


class Null(int):
    """A labelled null, invented by the chase: the ``int`` of its ident.

    The paper writes these elements ``c_{t_i, x̄}`` — one per (rule,
    trigger) pair.  We carry the same provenance, read-only; equality,
    hash and order see the ident alone.

    Attributes
    ----------
    ident:
        A unique integer within the chase run that created the null.
    rule_index:
        Index of the rule whose existential head demanded the witness
        (``-1`` when unknown, e.g. for hand-built structures).
    level:
        The chase level (``i`` such that the null first appears in
        ``Chase^i``); ``-1`` when unknown.
    """

    def __new__(cls, ident: int, rule_index: int = -1, level: int = -1) -> "Null":
        null = super().__new__(cls, ident)
        null.__dict__.update(rule_index=rule_index, level=level)
        return null

    ident = property(int.__int__)

    def __setattr__(self, name: str, *value: object) -> None:
        raise AttributeError(f"Null is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __bool__(self) -> bool:
        return True  # Null(0) too: every element is truthy

    def __format__(self, spec: str) -> str:
        return format(str(self), spec)  # the rendering, not the bare ident

    def __reduce__(self):
        # pickle and copy keep the provenance
        return (type(self), (int(self), self.rule_index, self.level))

    def __str__(self) -> str:
        return f"_:{int(self)}"

    __repr__ = __str__


#: A term as it appears in rules and queries.
Term = Union[Variable, Constant]

#: A domain element of a structure.
Element = Union[Constant, Null]


def is_variable(term: object) -> bool:
    """Return ``True`` iff *term* is a :class:`Variable`."""
    return isinstance(term, Variable)


def is_constant(term: object) -> bool:
    """Return ``True`` iff *term* is a :class:`Constant`."""
    return isinstance(term, Constant)


def is_null(term: object) -> bool:
    """Return ``True`` iff *term* is a :class:`Null`."""
    return isinstance(term, Null)


def is_ground(term: object) -> bool:
    """Return ``True`` iff *term* can be a domain element (not a variable)."""
    return isinstance(term, (Constant, Null))


class NullFactory:
    """Produces fresh :class:`Null` elements with increasing identifiers.

    A chase run owns one factory, so its nulls are unique within the run.
    The factory can be seeded above any existing identifier to keep
    freshness when chasing a structure that already contains nulls.
    """

    def __init__(self, start: int = 0):
        self._next = start

    @classmethod
    def above(cls, elements: "object") -> "NullFactory":
        """Create a factory whose identifiers exceed every :class:`Null`
        identifier occurring in *elements* (an iterable of elements)."""
        highest = -1
        for element in elements:
            if isinstance(element, Null) and element.ident > highest:
                highest = element.ident
        return cls(highest + 1)

    def fresh(self, rule_index: int = -1, level: int = -1) -> Null:
        """Return a brand-new null, recording its provenance."""
        null = Null(self._next, rule_index, level)
        self._next += 1
        return null

    @property
    def issued(self) -> int:
        """Number of nulls issued so far."""
        return self._next
