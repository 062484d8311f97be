"""Span recording around the program's public layer boundaries.

Nothing under ``src/`` is changed: :func:`install` replaces functions and
methods of the program's modules with wrappers that record a span around
each call, and :meth:`Tracer.uninstall` puts the originals back.  Spans
are kept in memory (up to a cap) and can be dumped as JSON lines at exit.

A span's *self time* is its duration minus the union of its children.
Children are found two ways:

* in one thread or asyncio task, by nesting (a ``ContextVar`` holds the
  open span, so each task has its own stack);
* across threads, by hand-off: a span that awaits work on an executor
  thread marks itself as the hand-off parent, and a span that starts in
  a thread with no open span adopts it.  The benchmark keeps exactly one
  request in flight, so the adopted parent is always the right one.

The kernel's hot loop (close, unfounded sets, ties) makes thousands of
calls per solve, too many to wrap without timing the wrappers rather
than the kernel.  The kernel times those phases itself on every solve
(``Solution.timings``), and :func:`install` books them as children of the
solve span.

Self times are summed per layer and per phase (``setup``/``run``), so the
sum over layers plus the unattributed remainder equals wall-clock time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import defaultdict
from contextvars import ContextVar
from time import perf_counter
from typing import Any, Callable

__all__ = ["Tracer", "install"]

_SPAN_CAP = 200_000


class _Span:
    __slots__ = ("layer", "t0", "child", "parent", "token", "index")

    def __init__(self, layer: str, t0: float, parent: "_Span | None", token: Any, index: int):
        self.layer = layer
        self.t0 = t0
        self.child = 0.0
        self.parent = parent
        self.token = token
        self.index = index


class Tracer:
    """In-memory span recorder with per-phase self-time totals."""

    def __init__(self) -> None:
        self.self_s: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.phase = "setup"
        self.spans: list[tuple] = []
        self.handoff: _Span | None = None
        self._current: ContextVar[_Span | None] = ContextVar("e2ebench_span", default=None)
        self._next = 0
        self._patches: list[tuple[Any, str, Any]] = []

    @property
    def phase(self) -> str:
        """The phase later spans are booked to (``setup``, ``run``, ...)."""
        return self._phase

    @phase.setter
    def phase(self, name: str) -> None:
        self._phase = name
        self._phase_self = self.self_s[name]

    # -- recording -------------------------------------------------------

    def enter(self, layer: str) -> _Span:
        parent = self._current.get() or self.handoff
        self._next += 1
        span = _Span(layer, 0.0, parent, None, self._next)
        span.token = self._current.set(span)
        span.t0 = perf_counter()
        return span

    def exit(self, span: _Span, *, keep: bool = True) -> None:
        t1 = perf_counter()
        self._current.reset(span.token)
        if not keep:
            # Booked as if the call had not been wrapped: its whole
            # duration stays self time of the enclosing span.
            return
        duration = t1 - span.t0
        self._phase_self[span.layer] += duration - span.child
        parent = span.parent
        if parent is not None:
            parent.child += duration
        if len(self.spans) < _SPAN_CAP:
            self.spans.append(
                (span.index, parent.index if parent else 0, span.layer, self._phase, span.t0, t1)
            )

    def book(self, span: _Span, layer: str, seconds: float) -> None:
        """Book ``seconds`` of the open ``span``, timed by the program, to ``layer``."""
        self._phase_self[layer] += seconds
        span.child += seconds

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[self.phase][name] += value

    # -- reporting -------------------------------------------------------

    def report(self) -> dict[str, Any]:
        phases = set(self.self_s) | set(self.counters)
        return {
            phase: {
                "self_s": dict(self.self_s.get(phase, {})),
                "counters": dict(self.counters.get(phase, {})),
            }
            for phase in phases
        }

    def dump(self, path: str) -> None:
        """Write the kept spans as JSON lines (index, parent, layer, phase, t0, t1)."""
        with open(path, "w", encoding="utf-8") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")

    # -- wrappers --------------------------------------------------------

    def wrap(
        self,
        layer: str,
        fn: Callable,
        *,
        after: Callable[["Tracer", tuple, dict, Any], None] | None = None,
        consume: bool = False,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
                if consume:
                    # The function returns a lazy iterator: the work
                    # happens when it is consumed, so consume it here.
                    result = list(result)
            finally:
                tracer.exit(span)
            if after is not None:
                after(tracer, args, kwargs, result)
            return iter(result) if consume else result

        return wrapper

    def wrap_async(self, layer: str, fn: Callable, *, handoff: bool = False) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = tracer.enter(layer)
            previous = tracer.handoff
            if handoff:
                tracer.handoff = span
            try:
                return await fn(*args, **kwargs)
            finally:
                if handoff:
                    tracer.handoff = previous
                tracer.exit(span)

        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner: Any, name: str, replacement: Any) -> None:
        # A class keeps its raw attribute (a classmethod or property
        # object), so restoring it restores the descriptor too.
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        self._patches.append((owner, name, original))
        setattr(owner, name, replacement)

    def patch_function(self, module: Any, name: str, replacement: Callable) -> None:
        """Replace a module function everywhere it was imported by name."""
        original = getattr(module, name)
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and mod is not None:
                if mod.__dict__.get(name) is original:
                    self.patch(mod, name, replacement)

    def uninstall(self) -> None:
        """Put back everything :func:`install` replaced."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# The layer map: which public call is booked to which layer.
# ---------------------------------------------------------------------------


def _after_parse(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    source = args[0] if args else next(iter(kwargs.values()), "")
    tracer.count("parser.bytes", len(source.encode("utf-8")))


def _after_ground(tracer: Tracer, args: tuple, kwargs: dict, gp: Any) -> None:
    tracer.count("grounding.instances", gp.rule_count)


def _after_delta(tracer: Tracer, args: tuple, kwargs: dict, applied: bool) -> None:
    tracer.count("grounding.delta_applied", 1 if applied else 0)


def _after_update(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("grounding.update_calls")


def _after_save(tracer: Tracer, args: tuple, kwargs: dict, path: Any) -> None:
    tracer.count("artifact.bytes", os.path.getsize(path))


def _after_encode(tracer: Tracer, args: tuple, kwargs: dict, chunks: list) -> None:
    tracer.count("encode.bytes", sum(len(c.encode("utf-8")) for c in chunks))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the program in spans of ``tracer``."""
    from repro.api import engine as engine_mod
    from repro.datalog import grounding, parser
    from repro.ground.state import GroundGraphState
    from repro.io import artifact, json_io
    from repro.service import batch, server, sessions

    for name in ("parse_program", "parse_database", "parse_atom"):
        tracer.patch_function(
            parser, name, tracer.wrap("parser", getattr(parser, name), after=_after_parse)
        )
    tracer.patch_function(
        grounding, "ground", tracer.wrap("grounding.ground", grounding.ground, after=_after_ground)
    )
    tracer.patch_function(
        grounding,
        "apply_facts_delta",
        tracer.wrap("grounding.delta", grounding.apply_facts_delta, after=_after_delta),
    )
    tracer.patch(
        engine_mod.Engine,
        "_apply_update",
        tracer.wrap("grounding.delta", engine_mod.Engine._apply_update, after=_after_update),
    )
    _install_index(tracer, grounding.GroundProgram)
    tracer.patch_function(
        artifact, "load_artifact", tracer.wrap("artifact.load", artifact.load_artifact)
    )
    tracer.patch_function(
        artifact,
        "save_ground_program",
        tracer.wrap("artifact.save", artifact.save_ground_program, after=_after_save),
    )
    tracer.patch(
        GroundGraphState, "__init__", tracer.wrap("kernel.init", GroundGraphState.__init__)
    )
    _install_solve(tracer, engine_mod.Engine)
    for name in ("result_to_json_chunks", "solution_to_jsonl_chunks"):
        tracer.patch_function(
            json_io,
            name,
            tracer.wrap("encode", getattr(json_io, name), after=_after_encode, consume=True),
        )
    tracer.patch(
        batch.BatchRequest,
        "from_obj",
        classmethod(tracer.wrap("batch", batch.BatchRequest.__dict__["from_obj"].__func__)),
    )
    tracer.patch_function(batch, "solve_one", tracer.wrap("batch", batch.solve_one))
    server_cls = server.ReproServer
    tracer.patch(
        server_cls, "_serve_line", tracer.wrap_async("server.self", server_cls._serve_line)
    )
    for name in ("_solve_inline", "_solve_session"):
        tracer.patch(
            server_cls,
            name,
            tracer.wrap_async("server.queue_wait", getattr(server_cls, name), handoff=True),
        )
    _install_sessions(tracer, sessions.SessionManager)


#: The kernel's own phase timers in ``Solution.timings`` -> layer.  The
#: phases are disjoint: together they make up the kernel part of a solve.
KERNEL_PHASES = {
    "close_s": "kernel.close",
    "unfounded_s": "kernel.unfounded",
    "tie_select_s": "kernel.ties",
    "tie_analysis_s": "kernel.ties",
    "tie_apply_s": "kernel.ties",
}


def _install_solve(tracer: Tracer, engine_cls: type) -> None:
    """Span ``Engine.solve`` and book the kernel phases it timed as children."""
    solve = engine_cls.solve

    def traced_solve(engine: Any, *args: Any, **kwargs: Any) -> Any:
        hits = engine.solution_cache_hits
        span = tracer.enter("engine.solve_self")
        try:
            solution = solve(engine, *args, **kwargs)
            if engine.solution_cache_hits == hits:
                # Solved now, not served from the engine's cache.
                timings = solution.timings
                for phase, layer in KERNEL_PHASES.items():
                    tracer.book(span, layer, timings.get(phase, 0.0))
                tracer.count("kernel.free_choices", solution.free_choice_count)
        finally:
            tracer.exit(span)
        return solution

    tracer.patch(engine_cls, "solve", functools.wraps(solve)(traced_solve))


def _install_index(tracer: Tracer, gp_cls: type) -> None:
    """Book ``GroundProgram.index`` only when it actually compiles."""
    prop = gp_cls.__dict__["index"]
    fget = prop.fget

    def index(gp: Any) -> Any:
        before = gp.__dict__.get("_index_cache")
        span = tracer.enter("grounding.compile")
        try:
            result = fget(gp)
        except BaseException:
            tracer.exit(span, keep=False)
            raise
        tracer.exit(span, keep=result is not before)
        return result

    tracer.patch(gp_cls, "index", property(index, doc=prop.__doc__))


def _install_sessions(tracer: Tracer, manager_cls: type) -> None:
    """Split a session operation into lock wait and apply under the lock."""
    run = manager_cls.run

    async def traced_run(self: Any, name: str, work: Callable) -> Any:
        traced_work = tracer.wrap_async("sessions.apply", work, handoff=True)
        return await tracer.wrap_async("sessions.lock_wait", run)(self, name, traced_work)

    tracer.patch(manager_cls, "run", functools.wraps(run)(traced_run))
