"""Unit tests for atoms and literals."""

import pytest

from repro.datalog.atoms import Atom, atom, neg, pos
from repro.datalog.terms import Constant, Variable


class TestAtom:
    def test_str_with_args(self):
        assert str(atom("edge", 1, "X")) == "edge(1, X)"

    def test_str_propositional(self):
        assert str(Atom("p")) == "p"

    def test_arity(self):
        assert atom("p", "X", "Y").arity == 2
        assert Atom("p").arity == 0

    def test_is_ground(self):
        assert atom("p", "a", 1).is_ground
        assert not atom("p", "X").is_ground
        assert Atom("p").is_ground

    def test_variables_in_order(self):
        a = atom("p", "X", "a", "Y", "X")
        assert [v.name for v in a.variables()] == ["X", "Y", "X"]

    def test_substitute_total(self):
        a = atom("p", "X", "Y")
        result = a.substitute({Variable("X"): Constant(1), Variable("Y"): Constant(2)})
        assert result == atom("p", 1, 2)

    def test_substitute_partial(self):
        a = atom("p", "X", "Y")
        result = a.substitute({Variable("X"): Constant(1)})
        assert result == atom("p", 1, "Y")

    def test_substitute_propositional_is_identity(self):
        a = Atom("p")
        assert a.substitute({}) is a

    def test_ground_key(self):
        assert atom("p", "a", 1).ground_key() == ("p", ("a", 1))

    def test_ground_key_rejects_nonground(self):
        with pytest.raises(ValueError):
            atom("p", "X").ground_key()

    def test_empty_predicate_rejected(self):
        with pytest.raises(ValueError):
            Atom("")

    def test_hashable_and_equal(self):
        assert atom("p", "X") == atom("p", "X")
        assert len({atom("p", "X"), atom("p", "X")}) == 1


class TestLiteral:
    def test_str_positive(self):
        assert str(pos("p", "X")) == "p(X)"

    def test_str_negative(self):
        assert str(neg("p", "X")) == "¬p(X)"

    def test_negated_roundtrip(self):
        lit = pos("p", "X")
        assert lit.negated().negated() == lit
        assert not lit.negated().positive

    def test_predicate_accessor(self):
        assert neg("q", 1).predicate == "q"

    def test_substitute(self):
        lit = neg("p", "X")
        assert lit.substitute({Variable("X"): Constant("a")}) == neg("p", "a")
