"""E09 — Example 9 and Lemmas 8/9: cycles in quotients of the tree.

Quotients of the colored binary F/G-tree contain *undirected* cycles
(Example 9 exhibits one of length 4) but no small *directed* cycles
(Lemma 9), and tree-shaped queries are preserved (Lemma 8).

Measured: quotient construction on trees; cycle detection.
"""

from repro.coloring import natural_coloring
from repro.lf import Null, satisfies
from repro.ptypes import TypePartition, quotient, type_queries
from repro.zoo import binary_tree_structure


def _tree_quotient(depth=6, n=2):
    tree = binary_tree_structure(depth)
    colored = natural_coloring(tree, 2)
    partition = TypePartition(colored.structure, n)
    quotiented = quotient(colored.structure, n, partition=partition)
    return tree, colored, quotiented


def _undirected_4cycle(structure, base_preds):
    """Find a,b,c,d with R1(a,c), R2(b,c), R3(b,d), R4(a,d), a≠b, c≠d."""
    for pred1 in base_preds:
        for fact1 in structure.facts_with_pred(pred1):
            a, c = fact1.args
            for pred2 in base_preds:
                for fact2 in structure.facts_with("%s" % pred2, 1, c):
                    b = fact2.args[0]
                    if b == a:
                        continue
                    for pred3 in base_preds:
                        for fact3 in structure.facts_with(pred3, 0, b):
                            d = fact3.args[1]
                            if d == c:
                                continue
                            for pred4 in base_preds:
                                if structure.facts_with(pred4, 0, a) & structure.facts_with(pred4, 1, d):
                                    return (a, b, c, d)
    return None


def _directed_cycle_exists(structure, max_length=4):
    """DFS for a short directed cycle through binary atoms."""
    domain = sorted(structure.domain(), key=str)
    for start in domain:
        stack = [(start, 0)]
        seen_path = [start]

        def walk(node, length):
            if length >= max_length:
                return False
            for successor in structure.successors(node):
                if successor == start and length >= 1:
                    return True
                if successor not in seen_path:
                    seen_path.append(successor)
                    if walk(successor, length + 1):
                        return True
                    seen_path.pop()
            return False

        if walk(start, 0):
            return True
    return False


def test_undirected_cycle_appears(benchmark):
    def run():
        return _tree_quotient(depth=6, n=2)

    tree, colored, quotiented = benchmark(run)
    stripped = quotiented.structure.restrict_signature(["F", "G"])
    found = _undirected_4cycle(stripped, ["F", "G"])
    benchmark.extra_info["tree_size"] = tree.domain_size
    benchmark.extra_info["quotient_size"] = quotiented.size
    benchmark.extra_info["undirected_4cycle"] = str(found)
    assert found is not None, "Example 9 promises an undirected 4-cycle"


def test_no_small_directed_cycle(benchmark):
    tree, colored, quotiented = _tree_quotient(depth=6, n=2)
    stripped = quotiented.structure.restrict_signature(["F", "G"])

    def run():
        return _directed_cycle_exists(stripped, max_length=2)

    found = benchmark(run)
    benchmark.extra_info["directed_cycle_len_le_2"] = found
    # Lemma 9 for m=2, n=2: no directed cycle of length < m is visible
    assert not found


def test_tree_queries_preserved(benchmark):
    """Lemma 8: tree-shaped type queries survive the quotient.

    Checked on the near-root elements, whose finite-truncation types
    agree with the infinite tree (the interior argument of the
    pipeline); deeper frontier elements are exactly the ones a
    truncated quotient may distort.
    """
    tree, colored, quotiented = _tree_quotient(depth=6, n=3)
    base = quotiented.structure.restrict_signature(["F", "G"])
    root = Null(0)
    near_root = {root} | tree.successors(root)
    for child in list(tree.successors(root)):
        near_root |= tree.successors(child)

    def run():
        checked = 0
        for element in sorted(near_root, key=str):
            image = quotiented.project(element)
            for query in type_queries(base, image, 2):
                assert satisfies(
                    colored.structure, query, {query.free[0]: element}
                )
                checked += 1
        return checked

    checked = benchmark(run)
    benchmark.extra_info["queries_checked"] = checked
    assert checked > 0
