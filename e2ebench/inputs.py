"""Seeded inputs: the paper's two workload families as Datalog¬ text.

The structures are fixed here, in the benchmark, so that inputs never move
with the program.  A seed only relabels constants (fixed-length labels, so
the text has the same size for every seed) and shuffles fact order: every
seed costs the same work, while no two seeds give the program the same
text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WIN_MOVE_PROGRAM = "win(X) :- move(X, Y), not win(Y).\n"

ARGUMENTATION_PROGRAM = (
    "accepted(X) :- arg(X), not defeated(X).\n"
    "defeated(X) :- attacks(Y, X), accepted(Y).\n"
)

#: The cold board: a line that ``close`` resolves, plus an even cycle that
#: stays undefined (a draw), 2000 move edges in all.
BOARD_LINE_EDGES = 1800
BOARD_CYCLE_NODES = 200

#: Arguments in the served / churn framework.
ARGUMENTS = 2000


def labels(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct symbol constants of one fixed length."""
    return [f"n{value:05x}" for value in rng.sample(range(16**5), count)]


def board_edges() -> list[tuple[int, int]]:
    """The canonical win-move board over node numbers."""
    edges = [(i, i + 1) for i in range(BOARD_LINE_EDGES)]
    base = BOARD_LINE_EDGES + 1
    edges += [
        (base + i, base + (i + 1) % BOARD_CYCLE_NODES) for i in range(BOARD_CYCLE_NODES)
    ]
    return edges


def board_nodes() -> int:
    return BOARD_LINE_EDGES + 1 + BOARD_CYCLE_NODES


@dataclass(frozen=True)
class Board:
    """One relabelled, shuffled board: its fact text and node labels."""

    facts: str
    label: list[str]


def board(rng: random.Random, edges: list[tuple[int, int]]) -> Board:
    label = labels(rng, board_nodes())
    lines = [f"move({label[a]}, {label[b]}).\n" for a, b in edges]
    rng.shuffle(lines)
    return Board("".join(lines), label)


def argumentation_attacks(n: int = ARGUMENTS) -> list[tuple[int, int]]:
    """The canonical attack relation over argument numbers.

    Three regimes interleave in blocks of four arguments: defense chains
    (resolved by ``close``), pairs of mutual attacks (independent ties),
    and floating defeats (a mutual pair that both attack a third
    argument, undecided in the grounded labelling but defeated under
    every tie orientation).
    """
    attacks: list[tuple[int, int]] = []
    p = 0
    while p + 3 < n:
        kind = p % 3
        if kind == 0:
            attacks += [(p, p + 1), (p + 1, p + 2), (p + 2, p + 3)]
        elif kind == 1:
            attacks += [(p, p + 1), (p + 1, p), (p + 2, p + 3), (p + 3, p + 2)]
        else:
            attacks += [(p, p + 1), (p + 1, p), (p, p + 2), (p + 1, p + 2), (p + 2, p + 3)]
        p += 4
    return attacks


@dataclass(frozen=True)
class Framework:
    """One relabelled argumentation framework as text plus its labels."""

    facts: str
    arguments: list[str]
    attacks: list[str]


def framework(rng: random.Random, n: int = ARGUMENTS) -> Framework:
    label = labels(rng, n)
    attacks = [f"attacks({label[a]}, {label[b]})" for a, b in argumentation_attacks(n)]
    lines = [f"arg({name}).\n" for name in label] + [f"{fact}.\n" for fact in attacks]
    rng.shuffle(lines)
    return Framework("".join(lines), label, attacks)


def framework_text(facts: list[str]) -> str:
    """Fact text of a framework from its fact strings (for replay)."""
    return "".join(f"{fact}.\n" for fact in facts)
