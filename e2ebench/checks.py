"""Output checks that do not use the engines under test.

Every response is checked against what the semantics say it must be:

* transitive closure by breadth-first search, for ``view-create``,
  ``view-update``, ``chase`` and ``certain`` over closure graphs;
* the nodes on a cycle, for ``view-query E(x,x)``;
* a small backtracking evaluator over each returned fact list, for
  ``countermodel`` and ``fc-search`` models: the model contains D,
  satisfies every rule of T and does not satisfy Q;
* ``exhausted-no-model`` on the Section-5.5 exhaustive searches;
* ``saturated`` plus the expected disjunct count, for ``rewrite``;
* the path shape of a truncated growth-chain chase.

:func:`check_response` returns ``None`` when the response passes and a
one-line reason when it does not.
"""

from __future__ import annotations

import re
from collections import defaultdict, deque
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

Fact = Tuple[str, Tuple[str, ...]]

_FACT = re.compile(r"^\s*([A-Za-z_][\w]*)\((.*)\)\s*$")


def parse_fact(text: str) -> Fact:
    """``"E(a, _:3)"`` -> ``("E", ("a", "_:3"))``."""
    match = _FACT.match(text)
    if match is None:
        raise ValueError(f"not a fact: {text!r}")
    args = tuple(a.strip() for a in match.group(2).split(",")) if match.group(2) else ()
    return match.group(1), args


def closure(edges: Iterable[Tuple[str, str]]) -> Set[Tuple[str, str]]:
    """Every pair ``(u, v)`` with a path of one or more edges u -> v."""
    succ: Dict[str, List[str]] = defaultdict(list)
    for u, v in edges:
        succ[u].append(v)
    pairs = set()
    for start in list(succ):
        seen: Set[str] = set()
        queue = deque(succ[start])
        while queue:
            node = queue.popleft()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(succ.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs


def cycle_nodes(edges: Iterable[Tuple[str, str]]) -> Set[str]:
    """Nodes that reach themselves by one or more edges."""
    return {u for u, v in closure(edges) if u == v}


class Model:
    """A finite structure with a tiny join evaluator (no planner)."""

    def __init__(self, facts: Iterable[Fact]) -> None:
        self.facts: Set[Fact] = set(facts)
        self.by_pred: Dict[str, List[Tuple[str, ...]]] = defaultdict(list)
        for pred, args in self.facts:
            self.by_pred[pred].append(args)

    def matches(self, atoms: Sequence[Fact], binding: Dict[str, str]):
        """Yield every extension of *binding* mapping *atoms* into the model.

        An argument quoted with ``'`` is a constant; any other is a
        variable.
        """
        if not atoms:
            yield binding
            return
        pred, args = atoms[0]
        for row in self.by_pred.get(pred, ()):
            if len(row) != len(args):
                continue
            extended = dict(binding)
            for arg, value in zip(args, row):
                if arg.startswith("'"):
                    if arg.strip("'") != value:
                        break
                elif extended.setdefault(arg, value) != value:
                    break
            else:
                yield from self.matches(atoms[1:], extended)

    def satisfies(self, atoms: Sequence[Fact]) -> bool:
        return next(self.matches(atoms, {}), None) is not None

    def violated_rule(self, rules) -> Optional[str]:
        """The first rule with a body match no head extension satisfies."""
        for body, head in rules:
            for binding in self.matches(body, {}):
                if next(self.matches(head, binding), None) is None:
                    return f"rule {body} -> {head} violated at {binding}"
        return None


def check_model(facts: Sequence[str], rules, database, query) -> Optional[str]:
    """``None`` iff the facts contain D, satisfy T and avoid Q."""
    model = Model(parse_fact(f) for f in facts)
    missing = [f for f in database if f not in model.facts]
    if missing:
        return f"model misses database fact {missing[0]}"
    reason = model.violated_rule(rules)
    if reason is not None:
        return reason
    if query and model.satisfies(query):
        return "model satisfies the query"
    return None


def _facts_as_pairs(facts: Sequence[str]) -> Set[Tuple[str, str]]:
    pairs = set()
    for text in facts:
        pred, args = parse_fact(text)
        if pred != "E" or len(args) != 2:
            raise ValueError(f"unexpected fact {text!r}")
        pairs.add(args)
    return pairs


def _answer_set(response: Dict[str, Any]) -> Set[Tuple[str, ...]]:
    return {tuple(row) for row in response.get("answers", [])}


def check_chain(facts: Sequence[str], predicates: int, depth: int) -> Optional[str]:
    """A truncated growth-chain chase from ``P0(a,b)``: one path of
    ``depth + 1`` facts whose predicates cycle ``P0, P1, ...``."""
    if len(facts) != depth + 1:
        return f"expected {depth + 1} facts, got {len(facts)}"
    succ = {}
    for text in facts:
        pred, (u, v) = parse_fact(text)
        succ[u] = (pred, v)
    node = "a"
    for step in range(depth + 1):
        if node not in succ:
            return f"chain breaks after {step} facts"
        pred, node = succ[node]
        if pred != f"P{step % predicates}":
            return f"fact {step} has predicate {pred}"
    return None


#: The ``stopped_reason`` each check expects; a truncated growth-chain
#: chase stops on its depth budget, every other run reaches a fixpoint.
EXPECTED_STOP = {"chain": "budget"}


def check_response(check: Tuple[Any, ...], response: Dict[str, Any]) -> Optional[str]:
    """Check one response against its job's expectation."""
    if response.get("ok") is not True:
        return f"not ok: {response.get('status')} {response.get('error')}"
    kind = check[0]
    status = response.get("status")
    reason = response.get("stopped_reason")
    if kind == "ok":
        return None
    if kind == "status":
        return None if status == check[1] else f"status {status}, expected {check[1]}"
    expected_stop = EXPECTED_STOP.get(kind, "fixpoint")
    if reason not in (None, expected_stop):
        return f"stopped_reason {reason}, expected {expected_stop}"
    if kind == "model":
        if status != "model-found":
            return f"status {status}, expected model-found"
        return check_model(response["facts"], *check[1:])
    if kind == "rewrite":
        if status != "saturated":
            return f"rewrite status {status}"
        count = response["counts"]["disjuncts"]
        return None if count == check[1] else f"{count} disjuncts, expected {check[1]}"
    if kind == "classify":
        profile = response.get("profile", {})
        wrong = [k for k, v in check[1].items() if profile.get(k) != v]
        return f"classify {wrong} wrong" if wrong else None
    if kind == "chain":
        return check_chain(response["facts"], check[1], check[2])
    if kind == "closure_facts":
        if status != "saturated":
            return f"status {status}, expected saturated"
        got = _facts_as_pairs(response["facts"])
        return None if got == closure(check[1]) else "facts differ from the closure"
    if kind == "closure_answers":
        pairs = closure(check[1])
        source = check[2]
        if source is None:
            expected = pairs
        else:
            expected = {(v,) for u, v in pairs if u == source}
        got = _answer_set(response)
        return None if got == expected else f"{len(got)} answers, expected {len(expected)}"
    if kind == "cycle_nodes":
        expected = {(v,) for v in cycle_nodes(check[1])}
        got = _answer_set(response)
        return None if got == expected else f"{len(got)} cycle nodes, expected {len(expected)}"
    return f"unknown check {kind!r}"
