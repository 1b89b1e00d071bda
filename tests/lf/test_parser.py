"""Unit tests for repro.lf.parser."""

import pytest

from repro.errors import ParseError
from repro.lf import (
    Constant,
    Null,
    Variable,
    atom,
    parse_atom,
    parse_fact,
    parse_facts,
    parse_query,
    parse_rule,
    parse_structure,
    parse_theory,
)

x, y, z = Variable("x"), Variable("y"), Variable("z")
a, b = Constant("a"), Constant("b")


class TestAtoms:
    def test_plain_atom(self):
        assert parse_atom("E(x, y)") == atom("E", x, y)

    def test_quoted_constant(self):
        assert parse_atom("E(x, 'a')") == atom("E", x, a)

    def test_declared_constant(self):
        assert parse_atom("E(x, a)", constants=["a"]) == atom("E", x, a)

    def test_nullary_atom(self):
        assert parse_atom("Flag()") == atom("Flag")

    def test_equality_atom(self):
        assert parse_atom("x = 'a'") == atom("=", x, a)

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("E(x, y) E")

    def test_unbalanced_paren_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("E(x, y")

    def test_weird_character_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("E(x; y)")


class TestRules:
    def test_implicit_existential(self):
        r = parse_rule("E(x,y) -> E(y,z)")
        assert r.existential_variables() == {z}

    def test_explicit_existential_checked(self):
        r = parse_rule("E(x,y) -> exists z. E(y,z)")
        assert r.existential_variables() == {z}

    def test_explicit_existential_mismatch(self):
        with pytest.raises(ParseError):
            parse_rule("E(x,y) -> exists x. E(y,z)")

    def test_unicode_arrow_and_exists(self):
        r = parse_rule("E(x,y) ⇒ ∃ z. E(y,z)")
        assert r.existential_variables() == {z}

    def test_multiple_existentials(self):
        r = parse_rule("E(x,y) -> exists z, w. R(z, w)")
        assert len(r.existential_variables()) == 2

    def test_datalog_rule(self):
        r = parse_rule("E(x,y), E(y,z) -> E(x,z)")
        assert r.is_datalog
        assert len(r.body) == 2

    def test_multi_head(self):
        r = parse_rule("E(x,y) -> U(x), U(y)")
        assert len(r.head) == 2

    def test_ampersand_separator(self):
        r = parse_rule("E(x,y) & E(y,z) -> E(x,z)")
        assert len(r.body) == 2

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_rule("E(x,y) E(y,z)")

    def test_unsafe_frontier_variable_is_named(self):
        # x reaches the head, but only an equality with the unbound y
        # mentions it: no body match gives it a value
        with pytest.raises(ParseError, match="unsafe frontier variable x"):
            parse_rule("E(u,v), x = y -> exists z. R(x,z)")
        with pytest.raises(ParseError, match="line 2: unsafe frontier"):
            parse_theory("E(x,y) -> E(y,x)\nE(u,v), x = y -> exists z. R(x,z)")

    def test_frontier_variable_anchored_by_equality(self):
        r = parse_rule("E(u,v), x = u -> exists z. R(x,z)")
        assert r.frontier() == {x}
        r = parse_rule("E(u,v), x = 'a' -> R(x,v)")
        assert r.frontier() == {x, Variable("v")}


class TestTheories:
    def test_comments_and_blanks_skipped(self):
        theory = parse_theory(
            """
            # a comment
            E(x,y) -> exists z. E(y,z)

            % another comment
            E(x,y), E(y,z) -> E(x,z)  // trailing comment
            """
        )
        assert len(theory) == 2

    def test_line_number_in_error(self):
        with pytest.raises(ParseError) as excinfo:
            parse_theory("E(x,y) -> E(y,z)\nE(x,y) ->")
        assert "line 2" in str(excinfo.value)

    def test_labels_record_lines(self):
        theory = parse_theory("E(x,y) -> E(y,z)")
        assert theory[0].label.startswith("line")


class TestFactsAndStructures:
    def test_fact_all_constants(self):
        assert parse_fact("E(a, b)") == atom("E", a, b)

    def test_fact_trailing_dot(self):
        assert parse_fact("E(a, b).") == atom("E", a, b)

    def test_equality_fact_rejected(self):
        with pytest.raises(ParseError):
            parse_fact("a = b")

    def test_facts_multiline_and_comma(self):
        facts = parse_facts("E(a,b), E(b,c)\nU(a)")
        assert len(facts) == 3

    def test_structure(self):
        s = parse_structure("E(a,b)\nE(b,c)")
        assert s.domain() == {a, b, Constant("c")}
        assert len(s) == 2

    def test_error_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_facts("E(a,b)\nE(a,")
        assert "line 2" in str(excinfo.value)

    def test_nulls_read_back(self):
        s = parse_structure("E(a, _:0), E(_:0, _:12)")
        assert s.domain() == {a, Null(0), Null(12)}
        assert all(type(e) is Null for e in s.nonconstant_elements())
        assert [str(f) for f in s.sorted_facts()] == ["E(_:0, _:12)", "E(a, _:0)"]

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_query, "E(x, _:0)"),
            (parse_rule, "E(x, _:1) -> E(x, x)"),
            (parse_rule, "E(x, y) -> exists _:1. E(y, _:1)"),
            (parse_fact, "E(a, _:)"),
        ],
    )
    def test_nulls_only_in_facts(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)


class TestQueries:
    def test_free_variables_in_order(self):
        q = parse_query("E(x,y), E(y,z)", free=["y", "x"])
        assert q.free == (y, x)

    def test_prime_in_names(self):
        q = parse_query("E(x', x'')")
        assert q.width == 2
