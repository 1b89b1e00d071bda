"""Unit tests for repro.lf.rules."""

import pytest

from repro.errors import RuleError
from repro.lf import Constant, Rule, Theory, Variable, atom, parse_theory, rule

x, y, z, t = Variable("x"), Variable("y"), Variable("z"), Variable("t")
a = Constant("a")


class TestRule:
    def test_datalog_vs_existential(self):
        datalog = rule([atom("E", x, y)], atom("R", y, x))
        tgd = rule([atom("E", x, y)], atom("E", y, z))
        assert datalog.is_datalog and not datalog.is_existential
        assert tgd.is_existential and not tgd.is_datalog

    def test_existential_variables(self):
        tgd = rule([atom("E", x, y)], atom("R", y, z))
        assert tgd.existential_variables() == {z}
        assert tgd.frontier() == {y}

    def test_empty_body_rejected(self):
        with pytest.raises(RuleError):
            Rule((), (atom("E", x, y),))

    def test_empty_head_rejected(self):
        with pytest.raises(RuleError):
            Rule((atom("E", x, y),), ())

    def test_equality_in_head_rejected(self):
        with pytest.raises(RuleError):
            rule([atom("E", x, y)], atom("=", x, y))

    def test_unsafe_frontier_variable_rejected(self):
        # x reaches the head, but only an equality with the unbound u
        # mentions it: no body match gives it a value
        u, v = Variable("u"), Variable("v")
        with pytest.raises(RuleError, match="unsafe frontier variable x"):
            Rule([atom("E", u, v), atom("=", x, y)], [atom("R", x, z)])

    def test_unsafe_rule_never_reaches_the_chase(self):
        """The constructor's check is what stops the chase's KeyError."""
        from repro.chase import chase
        from repro.lf import parse_structure

        u, v = Variable("u"), Variable("v")
        with pytest.raises(RuleError):
            chase(
                parse_structure("E(a,b)"),
                Theory([Rule([atom("E", u, v), atom("=", x, y)], [atom("R", x, z)])]),
                max_depth=2,
            )

    def test_frontier_variable_anchored_by_equality(self):
        u, v = Variable("u"), Variable("v")
        anchored = Rule([atom("E", u, v), atom("=", x, u)], [atom("R", x, z)])
        assert anchored.frontier() == {x}
        pinned = Rule([atom("E", u, v), atom("=", x, a)], [atom("R", x, v)])
        assert pinned.frontier() == {x, v}

    def test_head_atom_single(self):
        tgd = rule([atom("E", x, y)], atom("E", y, z))
        assert tgd.head_atom == atom("E", y, z)

    def test_head_atom_multi_raises(self):
        multi = Rule((atom("E", x, y),), (atom("U", x), atom("U", y)))
        with pytest.raises(RuleError):
            multi.head_atom

    def test_body_query_defaults_to_frontier(self):
        tgd = rule([atom("E", x, y), atom("E", y, z)], atom("R", y, t))
        q = tgd.body_query()
        assert q.free == (y,)
        assert q.width == 3

    def test_substitute(self):
        tgd = rule([atom("E", x, y)], atom("E", y, z))
        ground = tgd.substitute({x: a})
        assert atom("E", a, y) in ground.body

    def test_rename_apart(self):
        tgd = rule([atom("E", x, y)], atom("E", y, z))
        renamed = tgd.rename_apart([x, y, z])
        assert not (renamed.variables() & {x, y, z})
        # structure preserved: still one existential variable
        assert len(renamed.existential_variables()) == 1

    def test_split_heads_datalog(self):
        multi = Rule((atom("E", x, y),), (atom("U", x), atom("U", y)))
        parts = multi.split_heads()
        assert len(parts) == 2
        assert all(p.is_single_head for p in parts)

    def test_split_heads_existential_raises(self):
        multi = Rule((atom("E", x, y),), (atom("R", y, z), atom("U", z)))
        with pytest.raises(RuleError):
            multi.split_heads()

    def test_str_shows_existentials(self):
        tgd = rule([atom("E", x, y)], atom("E", y, z))
        assert "exists z." in str(tgd)

    def test_equality_ignores_label_and_order(self):
        left = Rule((atom("E", x, y), atom("U", x)), (atom("R", x, y),), "one")
        right = Rule((atom("U", x), atom("E", x, y)), (atom("R", x, y),), "two")
        assert left == right
        assert hash(left) == hash(right)


class TestTheory:
    EXAMPLE1 = """
    E(x,y) -> exists z. E(y,z)
    E(x,y), E(y,z), E(z,x) -> exists t. U(x,t)
    U(x,y) -> exists z. U(y,z)
    """

    def test_parse_and_partition(self):
        theory = parse_theory(self.EXAMPLE1)
        assert len(theory) == 3
        assert len(theory.tgds()) == 3
        assert not theory.datalog_rules()

    def test_signature_inferred(self):
        theory = parse_theory(self.EXAMPLE1)
        assert theory.signature.arity("E") == 2
        assert theory.is_binary

    def test_tgp_predicates(self):
        theory = parse_theory(self.EXAMPLE1)
        assert theory.tgp_predicates() == {"E", "U"}

    def test_max_body_width(self):
        theory = parse_theory(self.EXAMPLE1)
        assert theory.max_body_width() == 3

    def test_with_rules_dedup(self):
        theory = parse_theory(self.EXAMPLE1)
        again = theory.with_rules(theory.rules)
        assert len(again) == 3

    def test_without_predicates(self):
        theory = parse_theory(self.EXAMPLE1)
        trimmed = theory.without_predicates(["U"])
        assert len(trimmed) == 1
        assert trimmed.predicates() == {"E"}

    def test_spade5_detection_good(self):
        # Already in (♠5) form: witness second, E not in datalog heads.
        theory = parse_theory("E(x,y) -> exists z. E(y,z)")
        assert theory.satisfies_spade5

    def test_spade5_detection_witness_first(self):
        theory = parse_theory("E(x,y) -> exists z. E(z,y)")
        assert not theory.satisfies_spade5

    def test_spade5_detection_tgp_in_datalog_head(self):
        theory = parse_theory(
            """
            E(x,y) -> exists z. E(y,z)
            R(x,y) -> E(x,y)
            """
        )
        violations = theory.spade5_violations()
        assert any("TGP" in v for v in violations)

    def test_spade5_detection_unary_head(self):
        theory = Theory([rule([atom("E", x, y)], atom("U", z))])
        assert not theory.satisfies_spade5

    def test_theory_equality(self):
        left = parse_theory(self.EXAMPLE1)
        right = parse_theory(self.EXAMPLE1)
        assert left == right
        assert hash(left) == hash(right)
