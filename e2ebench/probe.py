"""The frozen machine probe and the statistics every workload reports.

On a shared virtual CPU, wall-clock time of the same code drifts by tens
of percent between runs: the vCPU itself runs slower or faster, in user
time as much as in wall time, so neither GC tuning nor process CPU time
removes it.  A fixed, program-independent piece of pure-Python work timed
right next to each operation drifts the same way.  Every timing this
benchmark reports is therefore normalised:

    normalised = raw * PROBE_NOMINAL_MS / probe_measured_ms

and carries the unit ``ref_ms`` (or ``s``/``1/s`` for set-up and
throughput): time on a reference machine on which the probe takes exactly
``PROBE_NOMINAL_MS``.

FROZEN: the probe body and its constants define the unit of every
recorded number.  Changing them invalidates every comparison with an
earlier revision, so they never change.
"""

from __future__ import annotations

import gc
from statistics import median, quantiles
from time import perf_counter
from typing import Any, Callable

__all__ = [
    "PROBE_NOMINAL_MS",
    "probe_ms",
    "normalise",
    "bracketed",
    "Normaliser",
    "percentile",
    "iqr_share",
]

#: The probe's nominal duration: the reference machine's timing of it.
PROBE_NOMINAL_MS = 10.0
_PROBE_ITEMS = 11_000
_PROBE_BUCKETS = 251
_PROBE_MODULUS = 1_000_003


def _probe_body() -> int:
    # Allocation-heavy interpreter work: a dict of tuple keys, a keyed
    # sort, and a join of freshly made strings.
    table = {}
    for i in range(_PROBE_ITEMS):
        table[(i % _PROBE_BUCKETS, i)] = (i * 7919) % _PROBE_MODULUS
    ordered = sorted(table.items(), key=lambda kv: kv[1])
    return len(",".join([str(value) for _, value in ordered]))


def probe_ms() -> float:
    """Time one probe run in milliseconds, with GC off around it only.

    GC is disabled just for the probe, so the probe measures the CPU and
    not the collector, while the program under test still pays for its
    own garbage.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _probe_body()
        return (perf_counter() - t0) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def normalise(raw_ms: float, before: float, after: float) -> float:
    """``raw_ms`` normalised by the probes run just before and just after it."""
    return raw_ms * PROBE_NOMINAL_MS * 2.0 / (before + after)


def bracketed(fn: Callable[[], Any]) -> tuple[Any, float, float]:
    """Run ``fn`` between two probes: its result, raw ms and normalised ms."""
    before = probe_ms()
    t0 = perf_counter()
    result = fn()
    raw_ms = (perf_counter() - t0) * 1e3
    return result, raw_ms, normalise(raw_ms, before, probe_ms())


class Normaliser:
    """Interleave probes with timed operations and normalise each one.

    Call :meth:`probe` before the first operation and after every
    operation; each operation is normalised by the mean of the two probes
    that bracket it.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []
        self.raw_ms: list[float] = []
        self.norm_ms: list[float] = []
        self._last: float | None = None
        self._pending: float | None = None

    def probe(self) -> float:
        value = probe_ms()
        self.probes.append(value)
        if self._pending is not None:
            self._close(self._pending, value)
            self._pending = None
        self._last = value
        return value

    def record(self, raw_ms: float) -> None:
        """Record one operation's raw time; the next :meth:`probe` closes it."""
        if self._last is None:
            raise RuntimeError("probe() must run before the first operation")
        self._pending = raw_ms

    def _close(self, raw_ms: float, after: float) -> None:
        assert self._last is not None
        self.raw_ms.append(raw_ms)
        self.norm_ms.append(normalise(raw_ms, self._last, after))

    @property
    def count(self) -> int:
        return len(self.norm_ms)

    def ops_per_s(self) -> float:
        """Normalised throughput: completed operations per normalised second."""
        return self.count / (sum(self.norm_ms) / 1e3)

    def median_probe_ms(self) -> float:
        return median(self.probes)

    def factor(self) -> float:
        """Raw-to-normalised factor of this run (nominal over median probe)."""
        return PROBE_NOMINAL_MS / self.median_probe_ms()


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (1..99) by Python's inclusive quantiles."""
    if len(values) == 1:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[pct - 1]


def iqr_share(values: list[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
