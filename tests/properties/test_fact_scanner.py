"""The fact scanner agrees with the general parser on every text.

``parse_database`` first tries a regex scan that covers plain fact text
and hands everything else to the recursive-descent parser.  The scan is
an optimisation only: for any text, ``parse_database`` must give what
the general parser alone gives — an equal :class:`Database`, or an
exception of the same class with the same message.  Inputs are every
bench family's database text and generated texts that straddle the
edge of the scanned subset: comments, odd whitespace, strings full of
punctuation, ``not``, variables, Unicode identifiers, rules, arity
clashes and plain syntax errors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import FAMILIES
from repro.datalog.parser import _parse_database_general, _scan_facts, parse_database
from repro.datalog.printer import format_database
from repro.errors import ReproError, ValidationError


def outcome(parse, text):
    """What ``parse(text)`` gives: a database, or (error class, message)."""
    try:
        return parse(text)
    except ReproError as error:
        return type(error), str(error)


def assert_agrees(text):
    expected = outcome(_parse_database_general, text)
    assert outcome(parse_database, text) == expected
    scanned = _scan_facts(text)
    if scanned is not None:
        assert scanned == expected


# -- every bench family -----------------------------------------------------


@pytest.mark.parametrize("n", [4, 60])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_bench_family_database_takes_the_fast_path(family, n):
    _, database = FAMILIES[family].generator(n)
    text = format_database(database)
    assert _scan_facts(text) is not None, "family text left the scanned subset"
    assert parse_database(text) == database
    assert_agrees(text)


# -- the edge of the subset ---------------------------------------------------

FAST = [
    "",
    "p.",
    "p .\nq.",
    "move(a, b). move(b, c).",
    'name(1, "a, b). % c # d", ")(").',
    'note("\nspans\nlines.").',
    "n(-0, 007, -12, 0).",
    "not_x(nota, not_y, not1).",
    "% leading comment\np(a). # trailing comment",
    "p(a).% no newline at the end",
    "\r\n\t\x0b\x0cp(\n a ,\r\n b\t)\n.\n",
    "p(a). p(a). p(b).",
    "e(a). e(b). f(c, d).",
]

FALLBACK = [
    "not.",
    "not(a).",
    "p(not).",
    "p(X).",
    "p(_x).",
    "P(a).",
    "p(é).",
    "é(a).",
    "p(a)\xa0.",
    "p(a).\u2003",
    "p(a) :- q(a).",
    "p(a) % inside\n.",
    "p().",
    "p(a)",
    "p(1.5).",
    '"unterminated',
    "p(1). p(1, 2).",
    "p. p(a).",
]


@pytest.mark.parametrize("text", FAST)
def test_fast_subset_is_scanned(text):
    assert _scan_facts(text) is not None
    assert_agrees(text)


@pytest.mark.parametrize("text", FALLBACK)
def test_other_text_goes_to_the_general_parser(text):
    assert _scan_facts(text) is None
    assert_agrees(text)


def test_arity_clash_is_the_general_parsers_error():
    with pytest.raises(ValidationError, match="inconsistent arity") as scanned:
        parse_database("p(1).\np(1, 2).")
    with pytest.raises(ValidationError) as general:
        _parse_database_general("p(1).\np(1, 2).")
    assert str(scanned.value) == str(general.value)


def test_equal_term_texts_share_one_constant():
    db = parse_database("e(a, 1). e(1, a). f(a).")
    constants = [c for pred in ("e", "f") for row in db[pred] for c in row if c.value == "a"]
    assert len(constants) == 3 and len({id(c) for c in constants}) == 1


# -- generated texts ---------------------------------------------------------

IDENTS = st.sampled_from(["a", "b1", "node_7", "zZ9", "not_x", "nota", "n0f3a2"])
ODD_IDENTS = st.sampled_from(["not", "X", "_y", "Abc", "é", "naïve", "中", "a²"])
INTEGERS = st.integers(-20, 20).map(str) | st.sampled_from(["-0", "007", "00", "-012"])
STRINGS = st.text(st.sampled_from(list("ab ,).(%#:-\n\té")), max_size=6).map(
    lambda s: f'"{s}"'
)
TERMS = st.one_of(IDENTS, IDENTS, INTEGERS, STRINGS, ODD_IDENTS)
PREDICATES = st.one_of(st.sampled_from(["p", "q", "move", "not_x", "e1"]), ODD_IDENTS)

# Between tokens of one fact, and between facts.  Non-ASCII whitespace
# and comments inside a fact are valid text outside the scanned subset.
IN_FACT = st.sampled_from(["", "", " ", "\t", "\n", "\r\n", " \n  ", "\x0b", "\x0c", "\xa0"])
BETWEEN = st.sampled_from(
    ["", " ", "\n", "\r\n", "\t", "\n\n", "% comment, with ). in it\n", "# hash\n", "%\n"]
)
JUNK = st.sampled_from(
    [
        "p(X) :- q(X).",
        "p(1) :- not q(1).",
        "win(X) :- move(X, Y), not win(Y).",
        '"unterminated',
        "p(1.5).",
        "p().",
        "p(a)",
        "!",
        ":-",
        "p(a) % comment inside\n.",
        " ",
        "\x1c",
    ]
)


@st.composite
def facts(draw) -> str:
    def gap() -> str:
        return draw(IN_FACT)

    text = draw(PREDICATES) + gap()
    terms = draw(st.lists(TERMS, max_size=3))
    if terms:
        separators = [gap() + "," + gap() for _ in terms[1:]]
        inner = terms[0] + "".join(s + t for s, t in zip(separators, terms[1:]))
        text += "(" + gap() + inner + gap() + ")" + gap()
    return text + "."


@st.composite
def fact_texts(draw) -> str:
    pieces = facts() | JUNK if draw(st.booleans()) else facts()
    text = draw(BETWEEN)
    for piece in draw(st.lists(pieces, max_size=8)):
        text += piece + draw(BETWEEN)
    if draw(st.booleans()):
        text += "% no newline at the end"
    return text


@settings(max_examples=400, deadline=None)
@given(text=fact_texts())
def test_generated_text_agrees(text):
    assert_agrees(text)
