"""A text syntax for rules, queries, facts, and theories.

The syntax mirrors how the paper writes its rules::

    E(x,y) -> exists z. E(y,z)
    E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
    U(x,y) -> exists z. U(y,z)

Grammar (informal)
------------------
* **Rule**: ``body -> head`` where each side is a comma- (or ``&``-)
  separated list of atoms.  ``=>``, ``⇒`` and ``→`` are accepted for
  the arrow.  Head variables absent from the body are existential; an
  optional explicit ``exists z1, z2.`` prefix on the head is checked
  against that set.
* **Atom**: ``R(t1, ..., tk)`` or the equality ``t1 = t2``.
* **Term**: an identifier.  In rules and queries identifiers are
  *variables* unless quoted (``'a'``) or listed in the ``constants``
  argument.  In facts every identifier is a constant, and ``_:N`` is
  the null ``Null(N)``, as facts print it (so a printed model reads
  back); rules and queries have no nulls.
* **Theory**: one rule per line; blank lines and ``#``/``%``/``//``
  comments ignored.
* **Facts / structures**: one atom per line (trailing ``.`` allowed).

These parsers raise :class:`~repro.errors.ParseError` with the position
of the first offending token.
"""

from __future__ import annotations

import re
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from ..errors import ParseError
from .atoms import UNSAFE_REASON, Atom, atoms_variables, unsafe_free_variable
from .queries import ConjunctiveQuery
from .rules import Rule, Theory
from .signature import Signature
from .structures import Structure
from .terms import Constant, Null, Term, Variable

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<arrow>->|=>|⇒|→)"
    r"|(?P<quoted>'[^']*')"
    r"|(?P<null>_:\d+)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<punct>[(),.&=])"
    r"|(?P<exists>∃)"
    r")"
)

_COMMENT = re.compile(r"(#|%|//).*$")


class _Tokens:
    """A tiny cursor over the token stream of one input string."""

    def __init__(self, text: str):
        self.text = text
        self.items: List[Tuple[str, str, int]] = []
        position = 0
        while position < len(text):
            match = _TOKEN.match(text, position)
            if match is None or match.end() == position:
                if text[position:].strip():
                    raise ParseError(
                        f"unexpected character {text[position]!r}", text, position
                    )
                break
            position = match.end()
            kind = match.lastgroup  # the one alternative that matched
            self.items.append((kind, match.group(kind), match.start()))
        self.index = 0

    def peek(self) -> "Optional[Tuple[str, str, int]]":
        if self.index < len(self.items):
            return self.items[self.index]
        return None

    def next(self) -> Tuple[str, str, int]:
        item = self.peek()
        if item is None:
            raise ParseError("unexpected end of input", self.text, len(self.text))
        self.index += 1
        return item

    def expect(self, kind: str, value: "Optional[str]" = None) -> Tuple[str, str, int]:
        got = self.next()
        if got[0] != kind or (value is not None and got[1] != value):
            wanted = value or kind
            raise ParseError(
                f"expected {wanted!r}, got {got[1]!r}", self.text, got[2]
            )
        return got

    def accept(self, kind: str, value: "Optional[str]" = None) -> bool:
        item = self.peek()
        if item is not None and item[0] == kind and (value is None or item[1] == value):
            self.index += 1
            return True
        return False

    @property
    def exhausted(self) -> bool:
        return self.index >= len(self.items)


def _term(tokens: _Tokens, constants: Set[str], all_constants: bool) -> Term:
    kind, value, position = tokens.next()
    if kind == "quoted":
        return Constant(value[1:-1])
    if kind == "name":
        if all_constants or value in constants:
            return Constant(value)
        return Variable(value)
    if kind == "null" and all_constants:
        return Null(int(value[2:]))
    raise ParseError(f"expected a term, got {value!r}", tokens.text, position)


def _atom(tokens: _Tokens, constants: Set[str], all_constants: bool) -> Atom:
    kind, value, position = tokens.next()
    upcoming = tokens.peek()
    if kind in ("quoted", "name") and upcoming is not None and upcoming[:2] == ("punct", "="):
        # equality atom: t1 = t2
        tokens.expect("punct", "=")
        left: Term
        if kind == "quoted":
            left = Constant(value[1:-1])
        elif all_constants or value in constants:
            left = Constant(value)
        else:
            left = Variable(value)
        right = _term(tokens, constants, all_constants)
        return Atom("=", (left, right))
    if kind != "name":
        raise ParseError(f"expected an atom, got {value!r}", tokens.text, position)
    tokens.expect("punct", "(")
    args: List[Term] = []
    if not tokens.accept("punct", ")"):
        args.append(_term(tokens, constants, all_constants))
        while tokens.accept("punct", ","):
            args.append(_term(tokens, constants, all_constants))
        tokens.expect("punct", ")")
    return Atom(value, tuple(args))


def _atom_list(tokens: _Tokens, constants: Set[str], all_constants: bool) -> List[Atom]:
    atoms = [_atom(tokens, constants, all_constants)]
    while tokens.accept("punct", ",") or tokens.accept("punct", "&"):
        atoms.append(_atom(tokens, constants, all_constants))
    return atoms


def parse_atom(text: str, constants: Iterable[str] = ()) -> Atom:
    """Parse a single atom, e.g. ``E(x, 'a')``."""
    tokens = _Tokens(text)
    result = _atom(tokens, set(constants), all_constants=False)
    tokens.accept("punct", ".")
    if not tokens.exhausted:
        raise ParseError("trailing input after atom", text, tokens.peek()[2])
    return result


def parse_query(
    text: str,
    constants: Iterable[str] = (),
    free: Sequence[str] = (),
) -> ConjunctiveQuery:
    """Parse a conjunctive query, e.g. ``E(x,y), E(y,z)``.

    Variables named in *free* are the free variables (in that order);
    all others are existential, following the paper's convention of
    omitting quantifiers.  A free variable that no match could give a
    value is a :class:`ParseError`, as is one missing from the query.
    """
    tokens = _Tokens(text)
    atoms = _atom_list(tokens, set(constants), all_constants=False)
    tokens.accept("punct", ".")
    if not tokens.exhausted:
        raise ParseError("trailing input after query", text, tokens.peek()[2])
    free_vars = tuple(Variable(name) for name in free)
    if any(item.is_equality for item in atoms):
        unsafe = unsafe_free_variable(atoms, free_vars)
        if unsafe is not None:
            raise ParseError(f"unsafe free variable {unsafe}: {UNSAFE_REASON}", text)
    try:
        return ConjunctiveQuery(atoms, free_vars)
    except ValueError as error:
        raise ParseError(str(error), text) from None


def parse_rule(text: str, constants: Iterable[str] = (), label: str = "") -> Rule:
    """Parse a rule, e.g. ``E(x,y) -> exists z. E(y,z)``.

    An explicit ``exists`` prefix on the head is optional; when present
    it must name exactly the head variables that are absent from the
    body (otherwise a :class:`ParseError` is raised, which catches the
    common typo of an unsafe variable).  A frontier variable that no
    body match could give a value is a :class:`ParseError` too.
    """
    tokens = _Tokens(text)
    fixed = set(constants)
    body = _atom_list(tokens, fixed, all_constants=False)
    tokens.expect("arrow")
    declared: "Optional[List[str]]" = None
    if tokens.accept("name", "exists") or tokens.accept("exists"):
        declared = []
        kind, value, position = tokens.next()
        if kind != "name":
            raise ParseError("expected variable after 'exists'", text, position)
        declared.append(value)
        while tokens.accept("punct", ","):
            kind, value, position = tokens.next()
            if kind != "name":
                raise ParseError("expected variable after ','", text, position)
            declared.append(value)
        tokens.expect("punct", ".")
    head = _atom_list(tokens, fixed, all_constants=False)
    tokens.accept("punct", ".")
    if not tokens.exhausted:
        raise ParseError("trailing input after rule", text, tokens.peek()[2])
    if any(item.is_equality for item in body):
        frontier = sorted(atoms_variables(head) & atoms_variables(body))
        unsafe = unsafe_free_variable(body, frontier)
        if unsafe is not None:
            raise ParseError(
                f"unsafe frontier variable {unsafe}: {UNSAFE_REASON}", text
            )
    parsed = Rule(body, head, label)
    if declared is not None:
        actual = {v.name for v in parsed.existential_variables()}
        if actual != set(declared):
            raise ParseError(
                f"declared existential variables {sorted(declared)} do not "
                f"match the implicit ones {sorted(actual)}",
                text,
            )
    return parsed


def parse_theory(text: str, constants: Iterable[str] = ()) -> Theory:
    """Parse a theory: one rule per line, comments and blanks ignored."""
    rules: List[Rule] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        try:
            rules.append(parse_rule(line, constants, label=f"line{lineno}"))
        except ParseError as error:
            raise ParseError(f"line {lineno}: {error}", raw) from error
    return Theory(rules)


def parse_fact(text: str) -> Atom:
    """Parse a ground fact; every identifier is a constant."""
    tokens = _Tokens(text)
    result = _atom(tokens, set(), all_constants=True)
    tokens.accept("punct", ".")
    if not tokens.exhausted:
        raise ParseError("trailing input after fact", text, tokens.peek()[2])
    if result.is_equality:
        raise ParseError("equality is not a fact", text)
    return result


def parse_facts(text: str) -> List[Atom]:
    """Parse many facts: one per line, or comma-separated on one line."""
    facts: List[Atom] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw).strip()
        if not line:
            continue
        tokens = _Tokens(line)
        try:
            atoms = _atom_list(tokens, set(), all_constants=True)
            tokens.accept("punct", ".")
            if not tokens.exhausted:
                raise ParseError("trailing input", line, tokens.peek()[2])
        except ParseError as error:
            raise ParseError(f"line {lineno}: {error}", raw) from error
        facts.extend(atoms)
    return facts


def parse_structure(text: str, signature: Optional[Signature] = None) -> Structure:
    """Parse a database instance from its facts."""
    return Structure(parse_facts(text), signature=signature)
