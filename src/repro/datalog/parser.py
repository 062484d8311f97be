"""Parser for the concrete Datalog¬ syntax.

Grammar (EBNF)::

    program  := statement*
    statement:= rule | fact
    rule     := atom ":-" literal { "," literal } "."
    fact     := atom "."
    literal  := [ "not" | "!" | "¬" | "\\+" ] atom
    atom     := IDENT [ "(" term { "," term } ")" ]
    term     := VARIABLE | CONSTANT | INTEGER | STRING

Lexical rules:

* ``VARIABLE``  — identifier starting with an uppercase letter or ``_``;
* ``CONSTANT``  — identifier starting with a lowercase letter;
* ``INTEGER``   — optional ``-`` followed by ASCII digits ``0``-``9``;
* ``STRING``    — double-quoted, no escapes;
* comments run from ``%`` or ``#`` to end of line.

``parse_program`` returns a validated :class:`~repro.datalog.program.Program`;
``parse_database`` parses a list of ground facts into a
:class:`~repro.datalog.database.Database`.

Fact files are large and plain, so ``parse_database`` first tries a fast
path: one compiled regex scans the text fact after fact and fills the
database's relation sets directly, with no tokens, atoms or rules.  It
accepts only a conservative subset: ASCII whitespace, ``%``/``#``
comments between facts, ASCII identifiers starting with a lowercase
letter (not the word ``not``), ``-?[0-9]+`` integers, strings without
escapes, and zero-arity facts.  Any text it does not consume whole, and
any arity clash, goes to the recursive-descent parser, which stays the
one source of results and errors: both paths give equal databases, and
every error comes from the general parser.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from repro.datalog.atoms import Atom, Literal
from repro.datalog.database import Database
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import Constant, Term, Variable
from repro.errors import ParseError

__all__ = ["parse_program", "parse_rules", "parse_database", "parse_atom"]

_PUNCT = {":-": "IMPLIES", "(": "LPAREN", ")": "RPAREN", ",": "COMMA", ".": "DOT"}
_NEGATION_WORDS = {"not"}
_NEGATION_SYMBOLS = {"!", "¬", "\\+"}
_DIGITS = frozenset("0123456789")


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # IDENT, VARIABLE, INTEGER, STRING, punctuation kinds, NEG, EOF
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch in "%#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith(":-", i):
            yield _Token("IMPLIES", ":-", line, col)
            i += 2
            col += 2
            continue
        if source.startswith("\\+", i):
            yield _Token("NEG", "\\+", line, col)
            i += 2
            col += 2
            continue
        if ch in "(),.":
            yield _Token(_PUNCT[ch], ch, line, col)
            i += 1
            col += 1
            continue
        if ch in "!¬":
            yield _Token("NEG", ch, line, col)
            i += 1
            col += 1
            continue
        if ch == '"':
            j = source.find('"', i + 1)
            if j < 0:
                raise ParseError("unterminated string literal", line, col)
            text = source[i + 1 : j]
            yield _Token("STRING", text, line, col)
            col += j + 1 - i
            i = j + 1
            continue
        if ch in _DIGITS or (ch == "-" and i + 1 < n and source[i + 1] in _DIGITS):
            j = i + 1
            while j < n and source[j] in _DIGITS:
                j += 1
            yield _Token("INTEGER", source[i:j], line, col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            if text in _NEGATION_WORDS:
                kind = "NEG"
            elif text[0].isupper() or text[0] == "_":
                kind = "VARIABLE"
            else:
                kind = "IDENT"
            yield _Token(kind, text, line, col)
            col += j - i
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    yield _Token("EOF", "", line, col)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self._tokens = list(_tokenize(source))
        self._pos = 0

    @property
    def _current(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "EOF":
            self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._current
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.kind} ({tok.text!r})", tok.line, tok.column
            )
        return self._advance()

    def parse_rules(self) -> list[Rule]:
        rules: list[Rule] = []
        while self._current.kind != "EOF":
            rules.append(self._rule())
        return rules

    def _rule(self) -> Rule:
        head = self._atom()
        body: tuple[Literal, ...] = ()
        if self._current.kind == "IMPLIES":
            self._advance()
            literals = [self._literal()]
            while self._current.kind == "COMMA":
                self._advance()
                literals.append(self._literal())
            body = tuple(literals)
        self._expect("DOT")
        return Rule(head, body)

    def _literal(self) -> Literal:
        positive = True
        if self._current.kind == "NEG":
            self._advance()
            positive = False
        return Literal(self._atom(), positive)

    def _atom(self) -> Atom:
        name = self._expect("IDENT")
        args: tuple[Term, ...] = ()
        if self._current.kind == "LPAREN":
            self._advance()
            terms = [self._term()]
            while self._current.kind == "COMMA":
                self._advance()
                terms.append(self._term())
            self._expect("RPAREN")
            args = tuple(terms)
        return Atom(name.text, args)

    def _term(self) -> Term:
        tok = self._current
        if tok.kind == "VARIABLE":
            self._advance()
            return Variable(tok.text)
        if tok.kind == "IDENT":
            self._advance()
            return Constant(tok.text)
        if tok.kind == "INTEGER":
            self._advance()
            return Constant(int(tok.text))
        if tok.kind == "STRING":
            self._advance()
            return Constant(tok.text)
        raise ParseError(f"expected a term, found {tok.kind} ({tok.text!r})", tok.line, tok.column)


def parse_rules(source: str) -> list[Rule]:
    """Parse source text into a list of rules without program validation."""
    return _Parser(source).parse_rules()


def parse_program(source: str) -> Program:
    """Parse source text into a validated :class:`Program`.

    >>> prog = parse_program('''
    ...     win(X) :- move(X, Y), not win(Y).
    ... ''')
    >>> sorted(prog.edb_predicates)
    ['move']
    """
    return Program(parse_rules(source))


# The fact scanner.  Each match of ``_FACT`` is the whitespace and comments
# before one fact plus, optionally, that fact: predicate in group 1, the
# argument text in group 2 (None for a zero-arity fact).  When no fact
# follows, the match ends where the scan must stop: at the end of the text
# on success, else at the first thing the subset does not cover.  Because
# the trailing fact is optional, the regex never backtracks into the gap,
# so a failed scan costs one linear pass.
_WS = r"[ \t\n\r\f\v]*"
_IDENT = r"(?!not(?![A-Za-z0-9_]))[a-z][A-Za-z0-9_]*"
_TERM = rf'(?:"[^"]*"|-?[0-9]+|{_IDENT})'
_FACT = re.compile(
    r"(?:[ \t\n\r\f\v]|[%#][^\n]*)*"
    rf"(?:({_IDENT}){_WS}(?:\({_WS}({_TERM}(?:{_WS},{_WS}{_TERM})*){_WS}\){_WS})?\.)?"
)
# Term texts inside an argument text ``_FACT`` has already validated: a
# string is taken whole, so its commas, parentheses and dots stay in it.
_TERM_TEXT = re.compile(r'"[^"]*"|[-0-9A-Za-z_]+')


class _Constants(dict):
    """Term text → :class:`Constant`, one object per distinct text."""

    def __missing__(self, text: str) -> Constant:
        if text[0] == '"':
            value: str | int = text[1:-1]
        elif text[0] == "-" or text[0] in _DIGITS:
            value = int(text)
        else:
            value = text
        constant = self[text] = Constant(value)
        return constant


def _scan_facts(source: str) -> Database | None:
    """The database of ``source`` if the fast subset covers it, else None.

    None means "ask the general parser": the text has something the scan
    does not consume, or a predicate with two arities.
    """
    relations: dict[str, set[tuple[Constant, ...]]] = {}
    arities: dict[str, int] = {}
    term_texts = _TERM_TEXT.findall
    constant = _Constants().__getitem__
    end = len(source)
    for match in _FACT.finditer(source):
        predicate, args = match.groups()
        if predicate is None:
            if match.end() == end:
                break
            return None
        row = () if args is None else tuple(map(constant, term_texts(args)))
        rows = relations.get(predicate)
        if rows is None:
            relations[predicate] = {row}
            arities[predicate] = len(row)
        elif arities[predicate] == len(row):
            rows.add(row)
        else:
            return None
    return Database._from_relations(relations)


def parse_database(source: str) -> Database:
    """Parse a list of ground facts (``p(a, 1). q.``) into a :class:`Database`.

    Plain fact text takes the regex fast path; anything else is parsed,
    and any error raised, by the general parser.

    >>> db = parse_database("edge(1, 2). edge(2, 3). start(1).")
    >>> len(db)
    3
    """
    db = _scan_facts(source)
    return db if db is not None else _parse_database_general(source)


def _parse_database_general(source: str) -> Database:
    """``parse_database`` through the recursive-descent parser alone."""
    rules = parse_rules(source)
    db = Database()
    for r in rules:
        if r.body:
            raise ParseError(f"database may contain only facts, found rule {r}")
        if not r.head.is_ground:
            raise ParseError(f"database fact {r.head} is not ground")
        db.add_atom(r.head)
    return db


def read_source(path: str | Path) -> str:
    """The text of a program, fact or request file, read as UTF-8.

    Line endings are normalised to ``\\n`` as :meth:`Path.read_text` does.
    Bytes that are not UTF-8 raise :class:`ParseError` naming the file
    and the byte offset; an unreadable path raises ``OSError``.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ParseError(
            f"{path}: not valid UTF-8 (byte 0x{raw[error.start]:02x} at offset {error.start})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_atom(source: str) -> Atom:
    """Parse a single atom (without trailing dot)."""
    parser = _Parser(source)
    result = parser._atom()
    parser._expect("EOF")
    return result
