"""Unit tests for repro.lf.queries."""

import os
import subprocess
import sys
import textwrap

import pytest

import repro

from repro.lf import (
    ConjunctiveQuery,
    Constant,
    UnionOfConjunctiveQueries,
    Variable,
    align_free,
    atom,
    cq,
    parse_query,
)

x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")
a = Constant("a")


class TestConstruction:
    def test_atoms_deduplicated(self):
        q = cq([atom("E", x, y), atom("E", x, y)])
        assert len(q) == 1

    def test_free_variable_must_occur(self):
        with pytest.raises(ValueError):
            cq([atom("E", x, y)], free=(z,))

    def test_repeated_free_rejected(self):
        with pytest.raises(ValueError):
            cq([atom("E", x, y)], free=(x, x))

    def test_width_counts_distinct_variables(self):
        q = cq([atom("E", x, y), atom("E", y, z)])
        assert q.width == 3

    def test_boolean_flag(self):
        assert cq([atom("E", x, y)]).is_boolean
        assert not cq([atom("E", x, y)], free=(x,)).is_boolean


class TestInspection:
    def test_variable_partition(self):
        q = cq([atom("E", x, y), atom("U", z)], free=(x,))
        assert q.variables() == {x, y, z}
        assert q.existential_variables() == {y, z}

    def test_constants(self):
        q = cq([atom("E", x, a)])
        assert q.constants() == {a}

    def test_relation_names_skip_equality(self):
        q = cq([atom("E", x, y), atom("=", x, a)])
        assert q.relation_names() == {"E"}


class TestTransformation:
    def test_substitute_to_constant_drops_free(self):
        q = cq([atom("E", x, y)], free=(x, y))
        substituted = q.substitute({x: a})
        assert substituted.free == (y,)
        assert atom("E", a, y) in substituted.atoms

    def test_substitute_renames_free(self):
        q = cq([atom("E", x, y)], free=(x,))
        renamed = q.substitute({x: z})
        assert renamed.free == (z,)

    def test_conjoin_merges(self):
        left = cq([atom("E", x, y)], free=(x,))
        right = cq([atom("U", x)], free=(x,))
        joined = left.conjoin(right)
        assert len(joined) == 2
        assert joined.free == (x,)

    def test_boolean_closure(self):
        q = cq([atom("E", x, y)], free=(x,)).boolean()
        assert q.is_boolean

    def test_rename_apart(self):
        q = cq([atom("E", x, y)])
        renamed = q.rename_apart([x])
        assert x not in renamed.variables()
        assert len(renamed.variables()) == 2

    def test_rename_apart_noop(self):
        q = cq([atom("E", x, y)])
        assert q.rename_apart([z]) == q

    def test_substitute_collapsing_free_variables_raises(self):
        # Regression: mapping two free variables to the same variable
        # used to silently shrink the free tuple from (x, y) to (z,),
        # changing the query's arity.
        q = cq([atom("E", x, y)], free=(x, y))
        with pytest.raises(ValueError):
            q.substitute({x: z, y: z})

    def test_substitute_free_onto_existing_free_raises(self):
        q = cq([atom("E", x, y)], free=(x, y))
        with pytest.raises(ValueError):
            q.substitute({x: y})

    def test_substitute_swap_free_variables_ok(self):
        # Simultaneous application: a swap is injective on the free
        # tuple and must keep working.
        q = cq([atom("E", x, y)], free=(x, y))
        swapped = q.substitute({x: y, y: x})
        assert swapped.free == (y, x)
        assert atom("E", y, x) in swapped.atoms


class TestAlignFree:
    def test_plain_rename(self):
        q = cq([atom("E", x, y)], free=(x,))
        aligned = align_free(q, (z,))
        assert aligned.free == (z,)
        assert atom("E", z, y) in aligned.atoms

    def test_noop_when_already_aligned(self):
        q = cq([atom("E", x, y)], free=(x,))
        assert align_free(q, (x,)) is q

    def test_existential_clash_renamed_apart(self):
        # Regression: aligning ∃x R(x,z) with free (z,) onto target (x,)
        # used to capture the existential, yielding R(x,x).
        q = cq([atom("R", x, z)], free=(z,))
        aligned = align_free(q, (x,))
        assert aligned.free == (x,)
        (only,) = aligned.atoms
        assert only.pred == "R"
        first, second = only.args
        assert second == x
        assert first != x  # the existential stayed distinct

    def test_arity_mismatch_rejected(self):
        q = cq([atom("E", x, y)], free=(x,))
        with pytest.raises(ValueError):
            align_free(q, (x, y))

    def test_free_swap(self):
        q = cq([atom("E", x, y)], free=(x, y))
        aligned = align_free(q, (y, x))
        assert aligned.free == (y, x)
        assert atom("E", y, x) in aligned.atoms


class TestCanonical:
    def test_canonical_identifies_renamings(self):
        left = cq([atom("E", x, y), atom("E", y, z)])
        right = cq([atom("E", w, x), atom("E", x, z)])
        assert left.canonical() == right.canonical()

    def test_canonical_distinguishes_structure(self):
        path = cq([atom("E", x, y), atom("E", y, z)])
        fork = cq([atom("E", x, y), atom("E", x, z)])
        assert path.canonical() != fork.canonical()

    def test_canonical_respects_free_vars(self):
        q1 = cq([atom("E", x, y)], free=(x,))
        q2 = cq([atom("E", x, y)], free=(y,))
        assert q1.canonical() != q2.canonical()

    def test_canonical_idempotent(self):
        q = cq([atom("E", x, y), atom("R", y, z), atom("E", z, x)])
        assert q.canonical() == q.canonical().canonical()


#: Prints the atom order, argument kinds included, of queries whose
#: atoms tie on predicate and argument names: a constant and a variable
#: named alike, before and after canonical renaming (``'v0'`` and
#: ``'f0'`` are the names the renaming gives).
ORDER_SCRIPT = textwrap.dedent(
    """
    from repro.lf import Atom, ConjunctiveQuery, Constant, Variable

    x, y = Variable("x"), Variable("y")
    queries = [
        ConjunctiveQuery(
            [Atom("P", (x,)), Atom("P", (Constant("x"),)), Atom("Q", (x, y))]
        ),
        ConjunctiveQuery(
            [Atom("P", (x,)), Atom("P", (Constant("v0"),)), Atom("Q", (x, y))]
        ),
        ConjunctiveQuery(
            [Atom("E", (y, x)), Atom("E", (Constant("f0"), x))], free=(y,)
        ),
    ]
    for query in queries:
        for form in (query, query.canonical(), query.canonical().boolean()):
            print([
                (a.pred, [(type(t).__name__, str(t)) for t in a.args])
                for a in form.atoms
            ])
    """
)


class TestAtomOrder:
    def test_constant_and_variable_of_one_name_keep_their_order(self):
        q = cq([atom("P", x), atom("P", Constant("x"))])
        assert [type(a.args[0]) for a in q.atoms] == [Constant, Variable]

    def test_order_does_not_depend_on_the_hash_seed(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            outputs.append(
                subprocess.run(
                    [sys.executable, "-c", ORDER_SCRIPT],
                    env=env, capture_output=True, text=True, check=True,
                ).stdout
            )
        assert outputs[0].count("\n") == 9
        assert outputs[0] == outputs[1]


class TestUCQ:
    def test_dedup_by_canonical_form(self):
        u = UnionOfConjunctiveQueries(
            [cq([atom("E", x, y)]), cq([atom("E", z, w)])]
        )
        assert len(u) == 1

    def test_free_alignment(self):
        u = UnionOfConjunctiveQueries(
            [cq([atom("E", x, y)], free=(x,)), cq([atom("U", z)], free=(z,))]
        )
        assert u.free == (x,)
        assert all(d.free == (x,) for d in u)

    def test_mismatched_free_arity_rejected(self):
        with pytest.raises(ValueError):
            UnionOfConjunctiveQueries(
                [cq([atom("E", x, y)], free=(x,)), cq([atom("E", x, y)], free=(x, y))]
            )

    def test_max_width(self):
        u = UnionOfConjunctiveQueries(
            [cq([atom("E", x, y)]), cq([atom("E", x, y), atom("E", y, z)])]
        )
        assert u.max_width == 3

    def test_empty_union(self):
        u = UnionOfConjunctiveQueries([])
        assert len(u) == 0
        assert str(u) == "false"

    def test_alignment_avoids_existential_capture(self):
        # Regression: the second disjunct ∃x R(x,z) with free (z,) used
        # to be aligned to the lead's free (x,) by a bare substitution,
        # collapsing it to R(x,x).
        u = UnionOfConjunctiveQueries(
            [
                cq([atom("R", x, x)], free=(x,)),
                cq([atom("R", x, z)], free=(z,)),
            ]
        )
        assert len(u) == 2
        second = u.disjuncts[1]
        assert second.free == (x,)
        (only,) = second.atoms
        assert only.args[0] != only.args[1]

    def test_equality_up_to_renaming(self):
        left = UnionOfConjunctiveQueries([cq([atom("E", x, y)])])
        right = UnionOfConjunctiveQueries([cq([atom("E", z, w)])])
        assert left == right
        assert hash(left) == hash(right)


class TestParsing:
    def test_parse_roundtrip(self):
        q = parse_query("E(x,y), E(y,z)", free=["x"])
        assert q.free == (x,)
        assert q.width == 3

    def test_parse_with_constants(self):
        q = parse_query("E(x, 'a')")
        assert q.constants() == {a}
