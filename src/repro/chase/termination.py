"""Chase termination criteria.

The chase of an arbitrary theory need not terminate (Example 1 of the
paper already diverges).  The classical sufficient criterion is **weak
acyclicity** (Fagin et al.): build a graph over *positions* — pairs
``(predicate, argument index)`` — with

* a *normal* edge ``p → q`` whenever some frontier variable occurs at
  body position ``p`` and head position ``q`` of a rule, and
* a *special* edge ``p ⇒ q`` whenever some frontier variable occurs at
  body position ``p`` of a rule with an existential variable at head
  position ``q``.

The theory is weakly acyclic iff no cycle goes through a special edge;
then every chase sequence terminates on every database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..lf.rules import Theory
from ..lf.terms import Variable

#: A position: (predicate name, 0-based argument index).
Position = Tuple[str, int]


@dataclass
class DependencyGraph:
    """The position dependency graph of a theory.

    Attributes
    ----------
    normal:
        Normal edges, as a position → set-of-positions mapping.
    special:
        Special edges (into existential positions).
    """

    normal: Dict[Position, Set[Position]] = field(default_factory=dict)
    special: Dict[Position, Set[Position]] = field(default_factory=dict)

    def add_normal(self, source: Position, target: Position) -> None:
        self.normal.setdefault(source, set()).add(target)

    def add_special(self, source: Position, target: Position) -> None:
        self.special.setdefault(source, set()).add(target)

    def positions(self) -> Set[Position]:
        found: Set[Position] = set()
        for table in (self.normal, self.special):
            for source, targets in table.items():
                found.add(source)
                found.update(targets)
        return found

    def successors(self, position: Position) -> Set[Position]:
        return self.normal.get(position, set()) | self.special.get(position, set())


def dependency_graph(theory: Theory) -> DependencyGraph:
    """Build the position dependency graph of *theory*."""
    graph = DependencyGraph()
    for rule in theory.rules:
        body_positions: Dict[Variable, List[Position]] = {}
        for atom in rule.body:
            if atom.is_equality:
                continue
            for index, arg in enumerate(atom.args):
                if isinstance(arg, Variable):
                    body_positions.setdefault(arg, []).append((atom.pred, index))
        existentials = rule.existential_variables()
        for atom in rule.head:
            for index, arg in enumerate(atom.args):
                if not isinstance(arg, Variable):
                    continue
                target = (atom.pred, index)
                if arg in existentials:
                    for variable, sources in body_positions.items():
                        if variable in rule.frontier():
                            for source in sources:
                                graph.add_special(source, target)
                else:
                    for source in body_positions.get(arg, []):
                        graph.add_normal(source, target)
    return graph


def _strongly_connected_components(graph: DependencyGraph) -> List[Set[Position]]:
    """Tarjan's algorithm (iterative) over the combined edge set."""
    index_counter = [0]
    stack: List[Position] = []
    lowlink: Dict[Position, int] = {}
    index: Dict[Position, int] = {}
    on_stack: Set[Position] = set()
    components: List[Set[Position]] = []

    def visit(root: Position) -> None:
        work = [(root, iter(sorted(graph.successors(root))))]
        index[root] = lowlink[root] = index_counter[0]
        index_counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph.successors(successor)))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component: Set[Position] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)

    for position in sorted(graph.positions()):
        if position not in index:
            visit(position)
    return components


def is_weakly_acyclic(theory: Theory) -> bool:
    """Whether *theory* is weakly acyclic (chase guaranteed to terminate).

    A cycle through a special edge exists iff some strongly connected
    component contains both endpoints of a special edge.
    """
    graph = dependency_graph(theory)
    components = _strongly_connected_components(graph)
    component_of: Dict[Position, int] = {}
    for number, component in enumerate(components):
        for position in component:
            component_of[position] = number
    for source, targets in graph.special.items():
        for target in targets:
            if component_of.get(source) == component_of.get(target) and source in component_of:
                return False
    return True


def special_cycle_witness(theory: Theory) -> "List[Position]":
    """A list of positions forming (part of) a special cycle, or ``[]``.

    When the theory is not weakly acyclic this returns the offending
    strongly connected component (sorted), which is usually enough to
    see why the chase may diverge.
    """
    graph = dependency_graph(theory)
    components = _strongly_connected_components(graph)
    component_of: Dict[Position, int] = {}
    for number, component in enumerate(components):
        for position in component:
            component_of[position] = number
    for source, targets in graph.special.items():
        for target in targets:
            if component_of.get(source) == component_of.get(target) and source in component_of:
                return sorted(components[component_of[source]])
    return []
