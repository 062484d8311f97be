"""The parsers accept mutated input or fail with a structured error.

Every untrusted text (program, database, query atom) must either parse
or raise a :class:`~repro.errors.ReproError` — never an ``IndexError``,
``ValueError`` or any other exception.  Inputs are each bench family's
own program and database text (and one of its atoms, the shape
``parse_atom`` sees on the wire), hit by a few byte-level mutations:
insert, delete, bit flip, truncate.  Bytes decode as Latin-1, so a
mutation can leave any character from U+0000 to U+00FF behind.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import FAMILIES
from repro.datalog.parser import parse_atom, parse_database, parse_program
from repro.datalog.printer import format_atom, format_database, format_program
from repro.errors import ReproError


PARSERS = {"program": parse_program, "database": parse_database, "atom": parse_atom}


def _source(name: str) -> tuple[str, str, str]:
    """(program, database, one atom) text of one bench family."""
    program, database = FAMILIES[name].generator(4)
    facts = format_database(database)
    atom = facts.split(".", 1)[0] if facts else format_atom(program.rules[0].head)
    return format_program(program), facts, atom


SOURCES = {name: _source(name) for name in FAMILIES}


def mutated_texts(texts: tuple[str, ...]) -> st.SearchStrategy[str]:
    """One of ``texts`` after one to four byte-level mutations."""

    @st.composite
    def mutate(draw) -> str:
        data = bytearray(draw(st.sampled_from(texts)).encode())
        for _ in range(draw(st.integers(1, 4))):
            op = draw(st.sampled_from(("insert", "delete", "flip", "truncate")))
            pos = draw(st.integers(0, len(data)))
            if op == "insert":
                data.insert(pos, draw(st.integers(0, 255)))
            elif op == "truncate":
                del data[pos:]
            elif pos < len(data):
                if op == "delete":
                    del data[pos]
                else:
                    data[pos] ^= 1 << draw(st.integers(0, 7))
        return data.decode("latin-1")

    return mutate()


@pytest.mark.parametrize("family", SOURCES)
def test_every_source_parses_unmutated(family):
    program, facts, atom = SOURCES[family]
    parse_program(program)
    parse_database(facts)
    parse_atom(atom)


@pytest.mark.parametrize("parser", PARSERS)
@pytest.mark.parametrize("family", SOURCES)
def test_mutated_text_parses_or_raises_repro_error(family, parser):
    parse = PARSERS[parser]

    @settings(max_examples=150, deadline=None)
    @given(text=mutated_texts(SOURCES[family]))
    def check(text):
        try:
            parse(text)
        except ReproError:
            pass

    check()
