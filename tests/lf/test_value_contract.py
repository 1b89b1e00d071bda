"""The contract of the value types ``Constant``, ``Null`` and ``Atom``.

They are ``str``, ``int`` and ``tuple`` subclasses, so hashing,
equality and ordering run in C.  Within each type these behave as they
did when the three were frozen dataclasses: a constant by its name, a
null by its ident alone (its provenance is not compared), an atom by
``(pred, args)``.  Across the types nothing is equal, and a
``Variable`` never equals the constant of its name.  What is new is
that each value equals its builtin form: the plain name, the ident,
the ``(pred, args)`` tuple.
"""

import copy
import pickle
from dataclasses import dataclass, field

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lf import Atom, Constant, Null, Structure, Variable, atom
from repro.lf.io import structure_from_dict, structure_to_dict

a, b = Constant("a"), Constant("b")


class TestKindsNeverMix:
    @pytest.mark.parametrize("left, right", [
        (Constant("x"), Variable("x")),
        (Null(1), Constant("1")),
        (Atom("E", (Constant("a"),)), Atom("E", (Variable("a"),))),
    ], ids=["constant-variable", "null-constant", "fact-atom"])
    def test_unequal_both_ways_and_both_kept_in_a_set(self, left, right):
        assert left != right and right != left
        assert not left == right and not right == left
        assert len({left, right}) == 2

    def test_ordering_across_kinds_raises(self):
        with pytest.raises(TypeError):
            sorted([Constant("a"), Null(0)])
        with pytest.raises(TypeError):
            sorted([Constant("a"), Variable("a")])


class TestBuiltinForms:
    def test_each_value_equals_its_builtin_form(self):
        fact = Atom("E", (a, Null(3)))
        for value, plain in ((a, "a"), (Null(3), 3), (fact, ("E", ("a", 3)))):
            assert value == plain and hash(value) == hash(plain)

    def test_fields_read_as_plain_builtins(self):
        fact = Atom("E", (a, Null(3)))
        assert type(a.name) is str and type(Null(3).ident) is int
        assert fact.pred == "E" and fact.args == (a, Null(3))

    def test_str_and_repr(self):
        fact = atom("E", a, Null(3))
        assert (str(a), repr(a)) == ("a", "'a'")
        assert (str(Null(3)), repr(Null(3))) == ("_:3", "_:3")
        assert (str(fact), repr(fact)) == ("E(a, _:3)", "Atom(E(a, _:3))")
        assert f"{Null(3)}" == "_:3" and f"{fact}" == "E(a, _:3)"

    def test_format_renders_the_null_not_its_ident(self):
        assert format(Null(0), ">4") == " _:0"
        assert format(Null(12), "<6") + "|" == "_:12  |"


class TestNull:
    def test_equal_by_ident_each_keeping_its_provenance(self):
        first, second = Null(3, 0, 1), Null(3, 2, 5)
        assert first == second and hash(first) == hash(second)
        assert (first.rule_index, first.level) == (0, 1)
        assert (second.rule_index, second.level) == (2, 5)

    def test_defaults(self):
        assert (Null(4).rule_index, Null(4).level) == (-1, -1)

    def test_null_zero_is_truthy(self):
        assert bool(Null(0))


class TestImmutable:
    @pytest.mark.parametrize("value, name", [
        (Constant("a"), "name"),
        (Constant("a"), "other"),
        (Null(1, 2, 3), "ident"),
        (Null(1, 2, 3), "rule_index"),
        (Null(1, 2, 3), "level"),
        (Null(1, 2, 3), "other"),
        (atom("E", a), "pred"),
        (atom("E", a), "args"),
        (atom("E", a), "other"),
    ])
    def test_set_and_delete_raise(self, value, name):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)

    def test_provenance_survives_a_rejected_write(self):
        null = Null(1, 2, 3)
        with pytest.raises(AttributeError):
            null.level = 9
        assert (null.ident, null.rule_index, null.level) == (1, 2, 3)


def _provenance(structure):
    return sorted(
        (e.ident, e.rule_index, e.level)
        for e in structure.domain() if isinstance(e, Null)
    )


class TestRoundTrips:
    @pytest.mark.parametrize("clone", [
        lambda v: pickle.loads(pickle.dumps(v)),
        lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "pickle-0", "copy", "deepcopy"])
    def test_values_survive(self, clone):
        null = Null(7, 2, 5)
        fact = atom("E", a, null)
        for value in (a, null, fact):
            twin = clone(value)
            assert twin == value and type(twin) is type(value)
        twin = clone(null)
        assert (twin.rule_index, twin.level) == (2, 5)
        assert clone(fact).args[1].level == 5

    def test_structure_dict_round_trip_keeps_provenance(self):
        first, second = Null(0, 0, 1), Null(1, 0, 2)
        structure = Structure([atom("E", a, first), atom("E", first, second)])
        structure.add_element(Null(9, 3, 4))
        again = structure_from_dict(structure_to_dict(structure))
        assert again.facts() == structure.facts()
        assert _provenance(again) == _provenance(structure) == [
            (0, 0, 1), (1, 0, 2), (9, 3, 4),
        ]


def test_atom_construction():
    built = Atom("E", [a, b])
    assert type(built.args) is tuple and built == atom("E", a, b)
    with pytest.raises(ValueError):
        Atom("", [a])


# ----------------------------------------------------------------------
# Ordering: the same as the frozen dataclasses' generated order
# ----------------------------------------------------------------------

@dataclass(frozen=True, order=True)
class DataclassConstant:
    name: str


@dataclass(frozen=True, order=True)
class DataclassNull:
    ident: int
    rule_index: int = field(default=-1, compare=False)
    level: int = field(default=-1, compare=False)


@dataclass(frozen=True, order=True)
class DataclassAtom:
    pred: str
    args: tuple


def as_dataclass(value):
    if isinstance(value, Constant):
        return DataclassConstant(value.name)
    if isinstance(value, Null):
        return DataclassNull(value.ident, value.rule_index, value.level)
    return DataclassAtom(value.pred, tuple(as_dataclass(arg) for arg in value.args))


def exact(value):
    """A value with its provenance, so that stable-sort order shows."""
    if isinstance(value, (Null, DataclassNull)):
        return ("null", value.ident, value.rule_index, value.level)
    if isinstance(value, (Constant, DataclassConstant)):
        return ("constant", value.name)
    return (value.pred, tuple(exact(arg) for arg in value.args))


def sorted_exact(values):
    try:
        return [exact(value) for value in sorted(values)]
    except TypeError:
        return TypeError


constants = st.builds(Constant, st.text("abcAB_1", min_size=1, max_size=3))
nulls = st.builds(
    Null, st.integers(-3, 40), st.integers(-1, 3), st.integers(-1, 5)
)


@st.composite
def atom_lists(draw):
    """Atoms of at most three arguments.  Unless *mixed*, one kind per
    position for the whole list, so that the list sorts; a list that
    mixes kinds at a position must raise on both sides."""
    kinds = draw(st.lists(st.sampled_from([constants, nulls]), max_size=3))
    mixed = draw(st.booleans())

    def args():
        if mixed:
            return draw(st.lists(st.one_of(constants, nulls), max_size=3))
        return [draw(kind) for kind in kinds[:draw(st.integers(0, len(kinds)))]]

    preds = st.sampled_from(["E", "R", "=", "E2"])
    return [Atom(draw(preds), args()) for _ in range(draw(st.integers(0, 12)))]


@pytest.mark.parametrize("values", [
    st.lists(constants, max_size=12),
    st.lists(nulls, max_size=12),
    atom_lists(),
], ids=["constants", "nulls", "atoms"])
def test_sorted_matches_the_dataclass_order(values):
    @given(values)
    def check(drawn):
        assert sorted_exact(drawn) == sorted_exact([as_dataclass(v) for v in drawn])

    check()
