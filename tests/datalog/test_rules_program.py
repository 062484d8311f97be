"""Unit tests for rules and programs (EDB/IDB split, arity validation)."""

import pytest

from repro.datalog.atoms import Atom, atom, neg, pos
from repro.datalog.program import Program
from repro.datalog.rules import rule
from repro.datalog.terms import Constant, Variable
from repro.errors import ArityError


class TestRule:
    def test_str(self):
        r = rule(atom("win", "X"), atom("move", "X", "Y"), neg("win", "Y"))
        assert str(r) == "win(X) :- move(X, Y), ¬win(Y)."

    def test_fact_str(self):
        assert str(rule(atom("p", "a"))) == "p(a)."

    def test_is_fact(self):
        assert rule(atom("p", "a")).is_fact
        assert not rule(atom("p", "X")).is_fact
        assert not rule(atom("p", "a"), atom("q", "a")).is_fact

    def test_variables_order_head_first(self):
        r = rule(atom("p", "Y"), atom("e", "X", "Y"), neg("q", "Z"))
        assert [v.name for v in r.variables()] == ["Y", "X", "Z"]

    def test_positive_negative_body(self):
        r = rule(atom("p"), pos("a"), neg("b"), pos("c"))
        assert [l.predicate for l in r.positive_body()] == ["a", "c"]
        assert [l.predicate for l in r.negative_body()] == ["b"]

    def test_substitute(self):
        r = rule(atom("p", "X"), neg("q", "X", "Y"))
        s = r.substitute({Variable("X"): Constant(1), Variable("Y"): Constant(2)})
        assert str(s) == "p(1) :- ¬q(1, 2)."
        assert s.is_ground

    def test_atoms_accept_atom_or_literal(self):
        r = rule(atom("p"), atom("q"), neg("r"))
        assert r.body[0].positive and not r.body[1].positive


class TestProgram:
    def test_edb_idb_split(self):
        prog = Program([
            rule(atom("p", "X"), atom("e", "X"), neg("q", "X")),
            rule(atom("q", "X"), atom("e", "X"), neg("p", "X")),
        ])
        assert prog.idb_predicates == {"p", "q"}
        assert prog.edb_predicates == {"e"}

    def test_predicate_in_head_only_is_idb(self):
        prog = Program([rule(atom("p", "a"))])
        assert prog.idb_predicates == {"p"}
        assert prog.edb_predicates == set()

    def test_arity_conflict_rejected(self):
        with pytest.raises(ArityError):
            Program([
                rule(atom("p", "X"), atom("e", "X")),
                rule(atom("p", "X", "Y"), atom("e", "X")),
            ])

    def test_arity_conflict_head_vs_body(self):
        with pytest.raises(ArityError):
            Program([rule(atom("p", "X"), atom("p", "X", "Y"))])

    def test_arities(self):
        prog = Program([rule(atom("p", "X"), atom("e", "X", "Y"))])
        assert prog.arities == {"p": 1, "e": 2}

    def test_is_propositional(self):
        assert Program([rule(Atom("p"), neg("q"))]).is_propositional
        assert not Program([rule(atom("p", "X"))]).is_propositional

    def test_is_positive(self):
        assert Program([rule(Atom("p"), pos("q"))]).is_positive
        assert not Program([rule(Atom("p"), neg("q"))]).is_positive

    def test_constants(self):
        prog = Program([rule(atom("p", "a"), atom("e", "X", 3))])
        assert prog.constants == {Constant("a"), Constant(3)}

    def test_rules_for(self):
        r1 = rule(Atom("p"), pos("q"))
        r2 = rule(Atom("p"), pos("r"))
        r3 = rule(Atom("q"))
        prog = Program([r1, r2, r3])
        assert prog.rules_for("p") == (r1, r2)
        assert prog.rules_for("missing") == ()

    def test_with_rules(self):
        prog = Program([rule(Atom("p"))])
        extended = prog.with_rules([rule(Atom("q"))])
        assert len(extended) == 2 and len(prog) == 1

    def test_iteration(self):
        rules = [rule(Atom("p")), rule(Atom("q"))]
        assert list(Program(rules)) == rules
