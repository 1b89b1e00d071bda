"""Unit tests for repro.rewriting.subsume (containment machinery)."""

from repro.lf import Constant, Variable, atom, cq, parse_query
from repro.rewriting import (
    clear_subsume_cache,
    cq_equivalent,
    cq_subsumes,
    freeze,
    minimize_ucq,
    normalize_equalities,
    ucq_equivalent,
    ucq_subsumes,
)
from repro.lf.queries import UnionOfConjunctiveQueries

x, y, z, u, w = (Variable(n) for n in "xyzuw")
a, b = Constant("a"), Constant("b")


class TestNormalizeEqualities:
    def test_existential_substituted(self):
        q = cq([atom("E", x, y), atom("=", x, a)])
        normal = normalize_equalities(q)
        assert atom("E", a, y) in normal.atoms
        assert not any(at.is_equality for at in normal.atoms)

    def test_free_variable_kept(self):
        q = cq([atom("E", x, y), atom("=", x, a)], free=(x,))
        normal = normalize_equalities(q)
        assert normal.free == (x,)
        assert any(at.is_equality for at in normal.atoms)
        assert atom("E", a, y) in normal.atoms

    def test_two_free_variables_merged(self):
        q = cq([atom("E", x, y), atom("E", u, y), atom("=", u, x)], free=(x, u))
        normal = normalize_equalities(q)
        assert normal.free == (x, u)
        # relational atoms identified
        relational = [at for at in normal.atoms if not at.is_equality]
        assert len(relational) == 1

    def test_inconsistent_constants(self):
        q = cq([atom("E", x, y), atom("=", a, b)])
        assert normalize_equalities(q) is None

    def test_var_var_chain(self):
        q = cq([atom("E", x, y), atom("=", y, z), atom("=", z, a)])
        normal = normalize_equalities(q)
        assert atom("E", x, a) in normal.atoms

    def test_no_equalities_noop(self):
        q = cq([atom("E", x, y)])
        assert normalize_equalities(q) == q


class TestFreeze:
    def test_variables_become_nulls(self):
        structure, table = freeze(cq([atom("E", x, y)]))
        assert len(structure) == 1
        assert table[x] != table[y]

    def test_shared_variables_shared_elements(self):
        structure, table = freeze(cq([atom("E", x, y), atom("E", y, z)]))
        fact_args = {arg for fact in structure.facts() for arg in fact.args}
        assert len(fact_args) == 3

    def test_pinned_free_variable(self):
        q = cq([atom("E", x, y), atom("=", x, a)], free=(x,))
        structure, table = freeze(q)
        assert table[x] == a
        assert atom("E", a, table[y]) in structure

    def test_merged_free_variables(self):
        q = cq([atom("E", x, y), atom("=", u, x)], free=(x, u))
        structure, table = freeze(q)
        assert table[x] == table[u]


class TestCQSubsumes:
    def test_shorter_path_contains_longer(self):
        edge = parse_query("E(x,y)")
        path = parse_query("E(x,y), E(y,z)")
        assert cq_subsumes(edge, path)
        assert not cq_subsumes(path, edge)

    def test_free_variables_pinned(self):
        general = parse_query("E(x,y)", free=["x"])
        specific = parse_query("E(x,y), E(y,z)", free=["x"])
        assert cq_subsumes(general, specific)
        backwards = parse_query("E(x,y), E(y,z)", free=["z"])
        assert not cq_subsumes(general, backwards)

    def test_free_arity_mismatch(self):
        assert not cq_subsumes(parse_query("E(x,y)", free=["x"]), parse_query("E(x,y)"))

    def test_constant_pinning(self):
        general = parse_query("E('a', y)")
        specific_match = parse_query("E('a', y), E(y, z)")
        specific_miss = parse_query("E('b', y)")
        assert cq_subsumes(general, specific_match)
        assert not cq_subsumes(general, specific_miss)

    def test_equality_constrained_specific(self):
        general = parse_query("E(u, y), E(x, y)", free=["x", "u"])
        specific = cq([atom("E", x, y), atom("=", u, x)], free=(x, u))
        assert cq_subsumes(general, specific)
        assert not cq_subsumes(specific, general)

    def test_equivalence_up_to_renaming(self):
        left = parse_query("E(x,y), E(y,z)")
        right = parse_query("E(u,w), E(w,x)")
        assert cq_equivalent(left, right)

    def test_redundant_atom_equivalence(self):
        lean = parse_query("E(x,y)")
        padded = parse_query("E(x,y), E(u,w)")
        assert cq_equivalent(lean, padded)


class TestMinimize:
    def test_drops_subsumed(self):
        edge = parse_query("E(x,y)")
        path = parse_query("E(x,y), E(y,z)")
        kept = minimize_ucq([path, edge])
        assert kept == [edge]

    def test_keeps_incomparable(self):
        left = parse_query("E(x,y)")
        right = parse_query("R(x,y)")
        assert len(minimize_ucq([left, right])) == 2

    def test_equivalent_collapse(self):
        left = parse_query("E(x,y)")
        right = parse_query("E(u,w)")
        assert len(minimize_ucq([left, right])) == 1


class TestCaching:
    def test_cached_and_uncached_agree(self):
        pairs = [
            (parse_query("E(x,y)"), parse_query("E(x,y), E(y,z)")),
            (parse_query("E(x,y), E(y,x)"), parse_query("E(x,x)")),
            (parse_query("R(x,y)"), parse_query("E(x,y)")),
            (cq([atom("E", x, y), atom("=", x, a)], free=(x,)),
             cq([atom("E", a, y), atom("=", x, a)], free=(x,))),
        ]
        clear_subsume_cache()
        cached = [cq_subsumes(g, s) for g, s in pairs]
        cached_again = [cq_subsumes(g, s) for g, s in pairs]  # warm hits
        uncached = []
        for general, specific in pairs:
            clear_subsume_cache()
            uncached.append(cq_subsumes(general, specific))
        assert cached == cached_again == uncached

    def test_clear_is_safe_between_checks(self):
        edge = parse_query("E(x,y)")
        path = parse_query("E(x,y), E(y,z)")
        assert cq_subsumes(edge, path)
        clear_subsume_cache()
        assert cq_subsumes(edge, path)


class TestUCQ:
    def test_ucq_subsumes(self):
        big = UnionOfConjunctiveQueries([parse_query("E(x,y)"), parse_query("R(x,y)")])
        small = UnionOfConjunctiveQueries([parse_query("E(x,y), E(y,z)")])
        assert ucq_subsumes(big, small)
        assert not ucq_subsumes(small, big)

    def test_ucq_equivalent(self):
        left = UnionOfConjunctiveQueries([parse_query("E(x,y)")])
        right = UnionOfConjunctiveQueries(
            [parse_query("E(u,w)"), parse_query("E(x,y), E(y,z)")]
        )
        assert ucq_equivalent(left, right)
