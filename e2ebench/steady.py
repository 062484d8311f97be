"""Steadiness mode: run workloads repeatedly and report each metric's spread.

    python3 e2ebench/steady.py --workload served_ties --runs 10 --seconds 15

Runs ``run.py`` once per seed (``--first-seed``, then consecutive seeds),
one run at a time, and prints for every end-to-end metric its median and
its interquartile range as a share of the median (``statistics.quantiles``
with ``n=4``), with the raw (unnormalised) timing next to the normalised
one.  ``--trace 1`` does the same for the per-layer metrics.  The bounds in
``BENCHMARK.json`` are set from this output: every normalised spread should
stay below a third of its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from probe import iqr_share  # noqa: E402

#: Normalised metric -> its raw twin in the run's diagnostics.
RAW_TWIN = {
    "p50_ms": "raw.p50_ms",
    "ops_per_s": "raw.ops_per_s",
    "setup_s": "raw.setup_s",
}


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    diagnostics = json.loads(proc.stderr.strip().splitlines()[-1])["diagnostics"]
    return {"result": result, "diagnostics": diagnostics}


def spread_line(name: str, values: list[float]) -> str:
    if len(values) >= 2:
        spread = f"{iqr_share(values):8.2%}"
    else:
        spread = "       —"
    return f"  {name:28s} median {median(values):12.4f}  IQR/median {spread}"


def report(workload: str, runs: list[dict]) -> None:
    failed = sum(r["result"]["failed"] for r in runs)
    attempted = sum(r["result"]["attempted"] for r in runs)
    correct = all(r["result"]["correct"] for r in runs)
    print(
        f"{workload}: {len(runs)} runs, attempted {attempted}, "
        f"failed {failed}, correct {correct}"
    )
    names = list(runs[0]["result"]["metrics"])
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        print(spread_line(name, values))
        twin = RAW_TWIN.get(name)
        if twin and all(twin in r["diagnostics"] for r in runs):
            print(spread_line(f"  raw {twin}", [r["diagnostics"][twin] for r in runs]))
    probes = [r["diagnostics"]["machine.probe_ms"] for r in runs]
    print(spread_line("  machine.probe_ms", probes))


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="repeat runs and report spreads")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload:
        runs = []
        for index in range(args.runs):
            seed = args.first_seed + index
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            print(f"  ... {workload} seed {seed} done", file=sys.stderr, flush=True)
        report(workload, runs)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
