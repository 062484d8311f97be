"""The end-to-end benchmark: program text (or artifact) in, answer bytes out.

    python3 e2ebench/run.py --workload cold_oneshot --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  Raw and normalised timings of the run go to standard
error as one JSON line, for ``steady.py``.  See ``NOTES.md`` for what each
workload and metric means.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("cold_oneshot", "served_ties", "session_churn")
WORK_DIR = ".e2ebench_work"


def run_workload(ctx, workload: str):
    if workload == "cold_oneshot":
        import cold

        return cold.run(ctx)
    import served

    mix = served.TiesMix if workload == "served_ties" else served.ChurnMix
    return served.run(ctx, mix)


def make_context(seed: int, seconds: float, trace: bool, *, plant: bool = False):
    """Check that the program is here and build the run context."""
    from common import Context

    program = os.path.join(ROOT, "src", "repro")
    if not os.path.isfile(os.path.join(program, "__init__.py")):
        raise FileNotFoundError(f"program sources not found under {program}")
    # Set-up times the program's start-up, not the bytecode compiler: write
    # the program's bytecode cache even where the environment turns that
    # off (PYTHONDONTWRITEBYTECODE), as an installed package would have it.
    compileall.compile_dir(program, quiet=1)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    work = os.path.join(ROOT, WORK_DIR)
    os.makedirs(work, exist_ok=True)
    return Context(
        root=ROOT,
        work=work,
        seed=seed,
        seconds=seconds,
        trace=trace,
        plant=plant,
        python=sys.executable,
    )


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    from common import END_TO_END, PER_LAYER, probe_median

    try:
        ctx = make_context(args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # One CPU for the generator and every process it starts: in a closed
    # loop they never run at the same time, and the probe then measures
    # the very CPU the program runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe_pre = probe_median()
    outcome = run_workload(ctx, args.workload)
    if args.trace:
        outcome.metrics["machine.probe_pre_ms"] = probe_pre
    names = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": outcome.attempted > 0 and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit} for name, unit in names
        },
    }
    diagnostics = dict(outcome.diagnostics, **{"machine.probe_pre_ms": probe_pre})
    print(
        json.dumps({"workload": args.workload, "seed": args.seed, "diagnostics": diagnostics}),
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
