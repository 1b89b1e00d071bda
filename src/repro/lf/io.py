"""Serialisation and export: JSON-able dicts, parseable text, DOT graphs.

Round-trip guarantees (all property-tested):

* ``structure_from_dict(structure_to_dict(s))`` has the same facts and
  domain;
* ``parse_rule(rule_to_text(r))`` equals ``r`` (constants are quoted, so
  the parser cannot mistake them for variables);
* ``parse_theory(theory_to_text(t))`` equals ``t``.

``to_dot`` renders a binary structure as a GraphViz digraph — handy for
eyeballing skeletons, quotients, and counter-models.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..errors import ParseError
from .atoms import Atom
from .queries import ConjunctiveQuery
from .rules import Rule, Theory
from .structures import Structure
from .terms import Constant, Element, Null


# ----------------------------------------------------------------------
# Elements and atoms as JSON-able values
# ----------------------------------------------------------------------

def element_to_value(element: Element) -> "str | Dict[str, Any]":
    """A JSON-able encoding of a domain element."""
    if isinstance(element, Constant):
        return str(element.name)
    if isinstance(element, Null):
        return {"null": element.ident, "rule": element.rule_index, "level": element.level}
    raise TypeError(f"not a domain element: {element!r}")


def element_from_value(value: "str | Dict[str, Any]") -> Element:
    """Invert :func:`element_to_value`."""
    if isinstance(value, str):
        return Constant(value)
    if isinstance(value, dict) and "null" in value:
        return Null(
            int(value["null"]),
            rule_index=int(value.get("rule", -1)),
            level=int(value.get("level", -1)),
        )
    raise ParseError(f"not an element encoding: {value!r}")


def structure_to_dict(structure: Structure) -> Dict[str, Any]:
    """A JSON-able snapshot of a structure (facts + isolated elements)."""
    facts = [
        {"pred": fact.pred, "args": [element_to_value(a) for a in fact.args]}
        for fact in structure.sorted_facts()
    ]
    used = {arg for fact in structure.facts() for arg in fact.args}
    isolated = [
        element_to_value(e)
        for e in sorted(structure.domain() - used, key=str)
    ]
    return {"facts": facts, "isolated": isolated}


def structure_from_dict(data: Dict[str, Any]) -> Structure:
    """Invert :func:`structure_to_dict`."""
    structure = Structure()
    for entry in data.get("facts", ()):
        args = tuple(element_from_value(v) for v in entry["args"])
        structure.add_fact(Atom(entry["pred"], args))
    for value in data.get("isolated", ()):
        structure.add_element(element_from_value(value))
    return structure


# ----------------------------------------------------------------------
# Rules and theories as parseable text
# ----------------------------------------------------------------------

def _term_to_text(term) -> str:
    if isinstance(term, Constant):
        return f"'{term.name}'"
    return str(term)


def atom_to_text(atom: Atom) -> str:
    """Render an atom with constants quoted (parser-safe)."""
    if atom.is_equality:
        left, right = atom.args
        return f"{_term_to_text(left)} = {_term_to_text(right)}"
    args = ", ".join(_term_to_text(a) for a in atom.args)
    return f"{atom.pred}({args})"


def rule_to_text(rule: Rule) -> str:
    """Render a rule so that :func:`repro.lf.parse_rule` reads it back."""
    body = ", ".join(atom_to_text(a) for a in rule.body)
    head = ", ".join(atom_to_text(a) for a in rule.head)
    existentials = sorted(rule.existential_variables())
    if existentials:
        names = ", ".join(str(v) for v in existentials)
        return f"{body} -> exists {names}. {head}"
    return f"{body} -> {head}"


def theory_to_text(theory: Theory) -> str:
    """One rule per line; parseable by :func:`repro.lf.parse_theory`."""
    return "\n".join(rule_to_text(rule) for rule in theory.rules)


def query_to_text(query: ConjunctiveQuery) -> str:
    """Render a CQ's atoms (free variables are reported separately)."""
    return ", ".join(atom_to_text(a) for a in query.atoms)


# ----------------------------------------------------------------------
# DOT export
# ----------------------------------------------------------------------

def to_dot(
    structure: Structure,
    name: str = "structure",
    highlight: "Optional[Dict[Element, str]]" = None,
) -> str:
    """A GraphViz digraph of a (mostly) binary structure.

    Binary facts become labelled edges; unary facts accumulate into the
    node labels; higher-arity facts are rendered as comment lines (DOT
    has no native hyperedges).  *highlight* maps elements to fill
    colors.
    """
    highlight = highlight or {}
    identifiers: Dict[Element, str] = {}
    for index, element in enumerate(sorted(structure.domain(), key=str)):
        identifiers[element] = f"n{index}"

    unary: Dict[Element, List[str]] = {}
    for fact in structure.facts():
        if fact.arity == 1:
            unary.setdefault(fact.args[0], []).append(fact.pred)

    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for element, identifier in identifiers.items():
        label = str(element)
        tags = sorted(unary.get(element, ()))
        if tags:
            label += "\\n" + ",".join(tags)
        shape = "box" if isinstance(element, Constant) else "ellipse"
        style = ""
        color = highlight.get(element)
        if color:
            style = f', style=filled, fillcolor="{color}"'
        lines.append(f'  {identifier} [label="{label}", shape={shape}{style}];')
    for fact in structure.sorted_facts():
        if fact.arity == 2:
            source, target = (identifiers[a] for a in fact.args)
            lines.append(f'  {source} -> {target} [label="{fact.pred}"];')
        elif fact.arity > 2:
            lines.append(f"  // {fact}")
    lines.append("}")
    return "\n".join(lines)
