"""The python kernel at bench-family sizes: caches, clones, tie counts.

Three checks on :class:`~repro.ground.state.GroundGraphState` over every
bench family (at the sizes the property suites do not reach) and a few
random programs:

* **sides cache** — the incremental (K, L) sides cache and the memoized
  bottom components are invisible to the semantics: a state whose caches
  are dropped before every tie selection takes the identical decisions
  and ends every round on identical raw buffers, also when a tie is
  only partly assigned and splits into pieces;
* **clone** — a clone taken mid-run carries every raw buffer, and
  driving it leaves the original untouched;
* **tie count** — ``committee(n)``'s ``n`` independent ties are each
  broken exactly once, through the kernel and through the ``Engine``.
"""

from __future__ import annotations

import pytest

from repro.api import Engine
from repro.datalog.database import Database
from repro.datalog.grounding import ground
from repro.ground.model import FALSE, TRUE
from repro.ground.state import GroundGraphState
from repro.workloads import families
from repro.workloads.random_programs import random_propositional_program

MAX_STEPS = 256

FAMILY_CASES = [
    ("win_move_line", families.win_move_line, 40, "relevant"),
    ("win_move_cycle", families.win_move_cycle, 41, "relevant"),
    ("unfounded_tower", families.unfounded_tower, 24, "relevant"),
    ("negation_tower", families.negation_tower, 16, "relevant"),
    ("tie_chain", families.tie_chain, 20, "relevant"),
    ("committee", families.committee, 16, "relevant"),
    ("grounded_argumentation", families.grounded_argumentation, 21, "relevant"),
    ("adversarial_scc", families.adversarial_scc, 12, "relevant"),
]


def _grounds():
    for name, generator, n, mode in FAMILY_CASES:
        program, db = generator(n)
        yield f"{name}({n})", ground(program, db, mode=mode)
    for seed in range(3):
        program = random_propositional_program(
            seed=seed, n_predicates=8, n_rules=14, negation_probability=0.45, edb_predicates=2
        )
        yield f"random-seed{seed}", ground(program, Database(), mode="full")


GROUND_CASES = list(_grounds())
GROUND_IDS = [name for name, _ in GROUND_CASES]


def _snapshot(state: GroundGraphState) -> tuple:
    """Raw-buffer view of one state."""
    return (
        bytes(state.status),
        bytes(state.atom_alive),
        bytes(state.rule_alive),
        list(state.rule_pending),
        list(state.atom_support),
        list(state.pos_live),
        sorted(state._live_atoms),
        sorted(state._live_rules),
        state.live_atom_count,
    )


def _orient_min(
    state: GroundGraphState, tie, *, partial: bool = False
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orient one tie deterministically (min-atom side true); return sides.

    With ``partial`` only the tie's smallest atom is assigned (true).
    """
    side_atoms: tuple[list[int], list[int]] = ([], [])
    for atom_id, side in tie.side_of_atom().items():
        side_atoms[side].append(atom_id)
    if not side_atoms[0]:
        true_side = 0
    elif not side_atoms[1]:
        true_side = 1
    else:
        true_side = 0 if min(side_atoms[0]) <= min(side_atoms[1]) else 1
    if partial:
        state.assign_many([min(side_atoms[true_side])], TRUE, ("tie", true_side))
    else:
        state.assign_many(side_atoms[true_side], TRUE, ("tie", true_side))
        state.assign_many(side_atoms[1 - true_side], FALSE, ("tie", 1 - true_side))
    return (
        tuple(sorted(side_atoms[true_side])),
        tuple(sorted(side_atoms[1 - true_side])),
    )


def _settle(state: GroundGraphState) -> None:
    state.close()
    state.falsify_unfounded(numbered=False)
    state.close()


@pytest.mark.parametrize("name,gp", GROUND_CASES, ids=GROUND_IDS)
def test_lockstep_with_and_without_sides_cache(name, gp):
    """The incremental (K, L) sides cache is invisible to the semantics.

    Drives the kernel twice through identical rounds — once with the
    caches operating normally, once with ``_tie_sides`` and the memoized
    bottom components cleared before every select (forcing fresh
    analyses throughout) — and requires the identical tie-decision
    sequence and identical raw buffers after every round.  Each round
    assigns only the tie's smallest atom, as an outside assignment would:
    the rest of the tie can survive as smaller pieces, which the cached
    leg labels by restricting the old sides instead of analyzing them
    afresh.
    """
    cached = GroundGraphState(gp)
    uncached = GroundGraphState(gp)
    for s in (cached, uncached):
        _settle(s)
    assert _snapshot(cached) == _snapshot(uncached)
    for _ in range(MAX_STEPS):
        uncached._tie_sides.clear()  # cache-off leg: every analysis fresh
        uncached._scc_bottom_obj.clear()
        tc = cached.select_tie()
        tu = uncached.select_tie()
        if tc is None or tu is None:
            assert tc is None and tu is None
            break
        assert tuple(tc.atom_ids) == tuple(tu.atom_ids)
        assert _orient_min(cached, tc, partial=True) == _orient_min(
            uncached, tu, partial=True
        ), "tie decisions diverge without the cache"
        for s in (cached, uncached):
            _settle(s)
        assert _snapshot(cached) == _snapshot(uncached), "divergence after tie round"
    else:
        pytest.fail("drive did not converge")
    assert cached.interpretation().status == uncached.interpretation().status


def test_clone_is_independent():
    program, db = families.tie_chain(12)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    _settle(state)
    assert state.select_tie() is not None
    copy = state.clone()
    assert _snapshot(copy) == _snapshot(state)
    # Diverge the clone; the original must not move.
    before = _snapshot(state)
    tie = copy.select_tie()
    assert tie is not None
    _orient_min(copy, tie)
    copy.close()
    assert _snapshot(state) == before
    assert _snapshot(copy) != before


@pytest.mark.parametrize("n", [6, 12, 24])
def test_committee_breaks_each_tie_once(n):
    """committee(n) has n independent ties: n rounds, n disjoint choices."""
    program, db = families.committee(n)
    state = GroundGraphState(ground(program, db, mode="relevant"))
    _settle(state)
    decisions = []
    for _ in range(MAX_STEPS):
        tie = state.select_tie()
        if tie is None:
            break
        decisions.append(_orient_min(state, tie))
        _settle(state)
    else:
        pytest.fail("drive did not converge")
    assert len(decisions) == n
    broken = [a for true_ids, false_ids in decisions for a in true_ids + false_ids]
    assert len(broken) == len(set(broken)) == 2 * n
    solution = Engine(program, db).solve("tie_breaking")
    assert solution.total
    assert len(solution.choices) == n
