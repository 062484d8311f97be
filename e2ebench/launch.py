"""Start the program the way a user would, from the benchmark's files.

    python3 e2ebench/launch.py startup
        A fresh interpreter imports the program and answers one tiny solve:
        the program's start-up cost (the cold workload's set-up).  Prints
        that time as a boot record (below).

    python3 e2ebench/launch.py [--trace DUMP] [--plant KIND] -- <repro CLI args>
        Runs ``repro.cli.main`` (for example ``server ...``).  A server
        prints a boot record on standard error just before its ``listening
        on`` line: the time from before the program's first import until
        the server listens.  With
        ``--trace`` the layer wrappers of :mod:`spans` are installed in this
        process before the CLI starts, and ping control requests whose id
        starts with ``e2ebench:`` steer them:

        ``e2ebench:phase:<name>``  book later spans to phase ``<name>``
        ``e2ebench:uninstall``     remove the wrappers (untraced segment)
        ``e2ebench:install``       put them back
        ``e2ebench:report``        reply with the per-phase totals

        The kept spans are written to DUMP when the process exits.
        ``--plant`` makes the server answer wrongly on purpose (the
        benchmark's self-check that wrong answers are caught).

A boot record is one line, ``e2ebench-boot`` and a JSON object with the
raw time in ms and the probes (``probe.probe_ms``) run in this process
just before and just after it.  Timing inside the process leaves out the
interpreter's own start and exit, which follow the probe poorly, and the
probes next to the timed span let the generator normalise it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from common import BOOT_PREFIX  # noqa: E402
from probe import probe_ms  # noqa: E402

CONTROL_PREFIX = "e2ebench:"


class BootClock:
    """Times this process's program start-up, between two probes."""

    def __init__(self) -> None:
        probe_ms()  # the first probe of a fresh process runs slow
        self.before = probe_ms()
        self.t0 = perf_counter()

    def record(self) -> str:
        raw_ms = (perf_counter() - self.t0) * 1e3
        return BOOT_PREFIX + json.dumps({"raw_ms": raw_ms, "probes": [self.before, probe_ms()]})


def _startup(clock: BootClock) -> int:
    from repro import Engine

    Engine("p :- not q.\nq :- not p.\n").solve("well_founded")
    print(clock.record(), flush=True)
    return 0


def _report_boot(clock: BootClock) -> None:
    """Print the boot record once the server has bound its socket."""
    from repro.service.server import ReproServer

    start = ReproServer.start

    async def timed_start(self, *args, **kwargs):
        result = await start(self, *args, **kwargs)
        print(clock.record(), file=sys.stderr, flush=True)
        return result

    ReproServer.start = timed_start


def _install_control(tracer) -> None:
    import spans as tracing

    from repro.service.batch import BATCH_SCHEMA
    from repro.service.server import ReproServer

    original = ReproServer._control

    def control(self, obj):
        request_id = obj.get("id")
        if obj.get("op") != "ping" or not str(request_id).startswith(CONTROL_PREFIX):
            return original(self, obj)
        command = request_id[len(CONTROL_PREFIX):]
        reply = {"schema": BATCH_SCHEMA, "op": "ping", "ok": True, "id": request_id}
        if command.startswith("phase:"):
            tracer.phase = command[len("phase:"):]
        elif command == "uninstall":
            tracer.uninstall()
        elif command == "install":
            tracing.install(tracer)
        elif command == "report":
            reply["trace"] = tracer.report()
        else:
            reply = {"schema": BATCH_SCHEMA, "ok": False, "id": request_id}
        return reply

    ReproServer._control = control


def _plant(kind: str) -> None:
    """Corrupt every answer of the server: a wrong program, on purpose."""
    from repro.io.json_io import solution_to_obj
    from repro.service import server

    solve_one = server.solve_one

    def wrong(engine, request, **kwargs):
        result = solve_one(engine, request, **kwargs)
        if kind == "values" and result.get("values"):
            first = next(iter(result["values"]))
            result["values"][first] = not result["values"][first]
        elif kind == "model" and result.get("solution") is not None:
            obj = solution_to_obj(result["solution"])
            obj["model"]["true"] = obj["model"]["true"][1:]
            result["solution"] = obj
        return result

    server.solve_one = wrong


def main(argv: list[str]) -> int:
    if argv[:1] == ["startup"]:
        return _startup(BootClock())
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--trace", metavar="DUMP")
    parser.add_argument("--plant", choices=["values", "model"])
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    clock = BootClock()
    _report_boot(clock)
    from repro.cli import main as repro_main

    if args.plant:
        _plant(args.plant)
    if args.trace is None:
        return repro_main(cli_args)

    import spans as tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    _install_control(tracer)
    try:
        return repro_main(cli_args)
    finally:
        tracer.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
