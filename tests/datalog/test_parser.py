"""Parser tests: grammar coverage, round-tripping, error reporting."""

import pytest

from repro.datalog.atoms import atom
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.printer import format_program
from repro.datalog.terms import Constant, Variable
from repro.errors import ParseError


class TestParseProgram:
    def test_simple_rule(self):
        prog = parse_program("win(X) :- move(X, Y), not win(Y).")
        assert len(prog) == 1
        r = prog.rules[0]
        assert r.head == atom("win", "X")
        assert r.body[0].atom == atom("move", "X", "Y") and r.body[0].positive
        assert str(r) == "win(X) :- move(X, Y), ¬win(Y)."

    def test_propositional_rules(self):
        prog = parse_program("p :- p, not q. q :- q, not p.")
        assert len(prog) == 2
        assert prog.is_propositional

    def test_fact(self):
        prog = parse_program("p(a).")
        assert prog.rules[0].is_fact

    def test_negation_spellings(self):
        for negation in ["not q", "!q", "¬q", "\\+ q"]:
            prog = parse_program(f"p :- {negation}.")
            assert not prog.rules[0].body[0].positive, negation

    def test_integer_and_string_constants(self):
        prog = parse_program('p(X) :- e(X, 42), f("new york").')
        e_atom = prog.rules[0].body[0].atom
        f_atom = prog.rules[0].body[1].atom
        assert e_atom.args[1] == Constant(42)
        assert f_atom.args[0] == Constant("new york")

    def test_negative_integer(self):
        prog = parse_program("p(-3).")
        assert prog.rules[0].head.args[0] == Constant(-3)

    def test_variables_uppercase_or_underscore(self):
        prog = parse_program("p(X, _y, abc).")
        args = prog.rules[0].head.args
        assert args[0] == Variable("X")
        assert args[1] == Variable("_y")
        assert args[2] == Constant("abc")

    def test_comments_ignored(self):
        prog = parse_program(
            """
            % a comment
            p(a).  # trailing comment
            q(b).
            """
        )
        assert len(prog) == 2

    def test_paper_program_1(self):
        """Program (1) of the paper: P(a) :- ¬P(x), E(b)."""
        prog = parse_program("p(a) :- not p(X), e(b).")
        assert prog.idb_predicates == {"p"}
        assert prog.edb_predicates == {"e"}

    def test_roundtrip_through_printer(self):
        source = """
        win(X) :- move(X, Y), not win(Y).
        p(a) :- not p(X), e(b).
        t :- not t.
        """
        prog = parse_program(source)
        assert parse_program(format_program(prog)) == prog


class TestParseErrors:
    def test_missing_dot(self):
        with pytest.raises(ParseError):
            parse_program("p(a)")

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse_program("p(a.")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            parse_program('p("abc).')

    def test_error_carries_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("p(a).\nq(b) :- .")
        assert excinfo.value.line == 2

    def test_head_cannot_be_negative(self):
        with pytest.raises(ParseError):
            parse_program("not p :- q.")

    def test_unexpected_character(self):
        with pytest.raises(ParseError):
            parse_program("p :- q & r.")

    # Digits outside ASCII: superscripts pass str.isdigit() but not int(),
    # and other scripts' decimal digits would silently become integers.
    @pytest.mark.parametrize(
        "digit",
        ["²", "³", "¹", "٣", "３"],
        ids=["super2", "super3", "super1", "arabic_indic3", "fullwidth3"],
    )
    @pytest.mark.parametrize(
        "parse,text",
        [
            (parse_program, "move(2, {}1)."),
            (parse_database, "move(2, {}1)."),
            (parse_atom, "move(2, {}1)"),
        ],
        ids=["program", "database", "atom"],
    )
    def test_non_ascii_digit_rejected(self, parse, text, digit):
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            parse(text.format(digit))
        assert excinfo.value.column == 9


class TestParseDatabase:
    def test_facts(self):
        db = parse_database("edge(1, 2). edge(2, 3). start(1).")
        assert db.contains("edge", 1, 2)
        assert db.contains("start", 1)
        assert len(db) == 3

    def test_rejects_rules(self):
        with pytest.raises(ParseError):
            parse_database("p(X) :- q(X).")

    def test_rejects_nonground_facts(self):
        with pytest.raises(ParseError):
            parse_database("p(X).")


class TestParseAtom:
    def test_atom(self):
        assert parse_atom("p(X, a)") == atom("p", "X", "a")

    def test_trailing_junk_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("p(X) :-")
