"""Self-check: a planted wrong answer must be caught on every workload.

    python3 e2ebench/selfcheck.py

For each workload, runs it briefly with an answer corrupted on purpose —
``cold_oneshot`` renames one true atom of every encoded answer,
``served_ties`` flips one queried value in every server reply,
``session_churn`` drops one true atom from every model the server sends —
and fails unless the run reports failed operations and ``correct: false``.
Exits 0 only if every plant was caught.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

#: Seconds each planted run lasts.
SECONDS = 3.0


def main() -> int:
    missed = []
    for workload in run.WORKLOADS:
        ctx = run.make_context(seed=7, seconds=SECONDS, trace=False, plant=True)
        outcome = run.run_workload(ctx, workload)
        caught = outcome.failed > 0
        print(
            f"{workload:14s} planted wrong answer: attempted {outcome.attempted}, "
            f"failed {outcome.failed} -> {'caught' if caught else 'MISSED'}"
        )
        if not caught:
            missed.append(workload)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
