"""``cold_oneshot``: program and fact text in, answer bytes out, in-process.

Each operation builds a new ``Engine`` from the text of a freshly
relabelled and shuffled win-move board, solves ``well_founded`` and encodes
the whole ``repro-solution/1`` document with the streaming encoder.  Parse,
ground and compile dominate this path; it is the one workload on which the
parser is measured.  No two operations see the same text, so nothing the
program could cache across calls applies.

Every answer is checked against the frozen seed grounder and seed kernel
(``repro.bench.seed_grounder`` / ``repro.bench.seed_kernel``), run once on
the canonical board and mapped through each operation's labels.  The
check runs right after each operation, outside its timing, and keeps
nothing, so ``peak_rss_mb`` holds the program's memory and not the
benchmark's.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
from statistics import median
from time import perf_counter

import inputs
from common import (
    Context,
    Outcome,
    end_to_end,
    launcher,
    read_boot,
    reset_hwm,
    timing_diagnostics,
    traced_metrics,
    vm_hwm_mb,
)
from probe import Normaliser

#: Program start-ups per run; ``setup_s`` is their median.
SETUPS = 20
#: ``peak_rss_mb`` is read after this many operations, so that it always
#: covers the same work.
RSS_AFTER_OPS = 30


def measure_setup(ctx: Context) -> list[tuple[float, float]]:
    """Raw and normalised ms of ``SETUPS`` fresh processes importing the
    program and answering a first solve, each timed inside the process."""
    times = []
    for _ in range(SETUPS):
        proc = subprocess.run(
            [ctx.python, launcher(ctx), "startup"],
            cwd=ctx.root,
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        times.append(read_boot(proc.stdout.splitlines()[-1]))
    return times


class Oracle:
    """The well-founded model of the canonical board, by the frozen oracle."""

    def __init__(self, edges: list[tuple[int, int]]) -> None:
        from repro.bench.seed_grounder import seed_ground
        from repro.bench.seed_kernel import SeedGroundGraphState
        from repro.datalog.database import Database
        from repro.datalog.parser import parse_program
        from repro.ground.model import FALSE, TRUE, UNDEF

        program = parse_program(inputs.WIN_MOVE_PROGRAM)
        gp = seed_ground(program, Database.from_dict({"move": edges}), mode="relevant")
        state = SeedGroundGraphState(gp)
        state.close()
        while True:
            unfounded = state.unfounded_atoms()
            if not unfounded:
                break
            state.assign_many(unfounded, FALSE, ("unfounded",))
            state.close()
        status = state.interpretation().status
        self.parts: dict[int, list[tuple[str, tuple[int, ...]]]] = {TRUE: [], FALSE: [], UNDEF: []}
        for index, value in enumerate(status):
            atom = gp.atoms.atom(index)
            self.parts[value].append((atom.predicate, tuple(c.value for c in atom.args)))
        self.true, self.false, self.undefined = TRUE, FALSE, UNDEF

    def expected(self, label: list[str], value: int) -> set[str]:
        return {
            f"{pred}({', '.join(label[node] for node in args)})"
            for pred, args in self.parts[value]
        }


def check(data: str, board: inputs.Board, oracle: Oracle) -> bool:
    """True iff the encoded answer is the oracle's model under the board's labels."""
    obj = json.loads(data)
    model = obj.get("model") or {}
    if obj.get("semantics") != "well_founded" or not obj.get("found"):
        return False
    if set(model.get("true") or ()) != oracle.expected(board.label, oracle.true):
        return False
    if set(model.get("undefined") or ()) != oracle.expected(board.label, oracle.undefined):
        return False
    false = model.get("false")
    return false is None or set(false) == oracle.expected(board.label, oracle.false)


def run(ctx: Context) -> Outcome:
    setups = measure_setup(ctx)
    setup_s = median(norm for _, norm in setups) / 1e3

    from repro import Engine
    from repro.io import json_io

    import spans

    edges = inputs.board_edges()
    oracle = Oracle(edges)
    rng = random.Random(ctx.seed)
    outcome = Outcome()

    def one_op(norm: Normaliser) -> None:
        board = inputs.board(rng, edges)
        t0 = perf_counter()
        engine = Engine(inputs.WIN_MOVE_PROGRAM, board.facts)
        solution = engine.solve("well_founded")
        data = "".join(json_io.solution_to_jsonl_chunks(solution))
        norm.record((perf_counter() - t0) * 1e3)
        norm.probe()
        if ctx.plant:
            data = data.replace('"true": ["', '"true": ["x', 1)
        outcome.attempted += 1
        if not check(data, board, oracle):
            outcome.failed += 1

    def segment(seconds: float, norm: Normaliser, rss: list[float]) -> float:
        """Run operations for ``seconds``; returns generator time outside them."""
        norm.probe()
        start = perf_counter()
        busy_ms = 0.0
        while perf_counter() - start < seconds:
            t_loop = perf_counter()
            probes = len(norm.probes)
            one_op(norm)
            if outcome.attempted == RSS_AFTER_OPS:
                rss.append(vm_hwm_mb())
            loop_ms = (perf_counter() - t_loop) * 1e3
            busy_ms += loop_ms - norm.raw_ms[-1] - sum(norm.probes[probes:])
        return busy_ms

    rss: list[float] = []
    # The oracle's own peak is the benchmark's, not the program's.
    reset_hwm()
    if not ctx.trace:
        norm = Normaliser()
        segment(ctx.seconds, norm, rss)
        outcome.metrics = end_to_end(norm, setup_s, rss[0] if rss else vm_hwm_mb())
        outcome.diagnostics = timing_diagnostics(norm)
        outcome.diagnostics["raw.setup_s"] = median(raw for raw, _ in setups) / 1e3
    else:
        plain = Normaliser()
        segment(ctx.seconds / 3.0, plain, rss)
        tracer = spans.Tracer()
        tracer.phase = "run"
        spans.install(tracer)
        traced = Normaliser()
        try:
            client_ms = segment(ctx.seconds * 2.0 / 3.0, traced, rss)
        finally:
            tracer.uninstall()
        tracer.dump(os.path.join(ctx.work, "cold_oneshot.spans.jsonl"))
        report = tracer.report().get("run", {})
        outcome.metrics, outcome.diagnostics = traced_metrics(
            report, [], plain, traced, client_ms
        )
    return outcome
