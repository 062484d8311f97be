"""Shared plumbing: run context, process readings, and metric assembly."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from probe import Normaliser, normalise, percentile

#: End-to-end metrics, the same four on every workload.
END_TO_END = (
    ("p50_ms", "ref_ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics of a traced run.  ``*_ms`` are self times per
#: operation of the timed segment, normalised like every other timing;
#: ``setup.*`` and ``artifact.*`` are per set-up.
PER_LAYER = (
    ("parser.ms", "ref_ms"),
    ("parser.kb_per_op", "KB"),
    ("grounding.ground_ms", "ref_ms"),
    ("grounding.compile_ms", "ref_ms"),
    ("grounding.instances", "count"),
    ("grounding.delta_ms", "ref_ms"),
    ("grounding.delta_hit_ratio", "ratio"),
    ("artifact.load_ms", "ref_ms"),
    ("artifact.save_ms", "ref_ms"),
    ("artifact.kb", "KB"),
    ("setup.parser_ms", "ref_ms"),
    ("setup.ground_ms", "ref_ms"),
    ("setup.compile_ms", "ref_ms"),
    ("setup.boot_ms", "ref_ms"),
    ("kernel.init_ms", "ref_ms"),
    ("kernel.close_ms", "ref_ms"),
    ("kernel.unfounded_ms", "ref_ms"),
    ("kernel.ties_ms", "ref_ms"),
    ("kernel.free_choices", "count"),
    ("engine.solve_self_ms", "ref_ms"),
    ("encode.ms", "ref_ms"),
    ("encode.kb_per_op", "KB"),
    ("batch.ms", "ref_ms"),
    ("sessions.lock_wait_ms", "ref_ms"),
    ("sessions.apply_ms", "ref_ms"),
    ("server.self_ms", "ref_ms"),
    ("server.queue_wait_ms", "ref_ms"),
    ("server.cpu_ms_per_op", "ref_ms"),
    ("server.idle_cpu_ms_per_s", "ms/s"),
    ("client.ms", "ref_ms"),
    ("trace.unaccounted_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("tail.p90_ms", "ref_ms"),
    ("raw.p50_ms", "ms"),
    ("machine.probe_ms", "ms"),
    ("machine.probe_pre_ms", "ms"),
)

#: Layer (span) name -> per-layer metric of its per-op self time.
RUN_LAYER_METRICS = {
    "parser": "parser.ms",
    "grounding.ground": "grounding.ground_ms",
    "grounding.compile": "grounding.compile_ms",
    "grounding.delta": "grounding.delta_ms",
    "kernel.init": "kernel.init_ms",
    "kernel.close": "kernel.close_ms",
    "kernel.unfounded": "kernel.unfounded_ms",
    "kernel.ties": "kernel.ties_ms",
    "engine.solve_self": "engine.solve_self_ms",
    "encode": "encode.ms",
    "batch": "batch.ms",
    "sessions.lock_wait": "sessions.lock_wait_ms",
    "sessions.apply": "sessions.apply_ms",
    "server.self": "server.self_ms",
    "server.queue_wait": "server.queue_wait_ms",
}

#: Layer -> per-layer metric of its self time per set-up.
SETUP_LAYER_METRICS = {
    "parser": "setup.parser_ms",
    "grounding.ground": "setup.ground_ms",
    "grounding.compile": "setup.compile_ms",
    "artifact.load": "artifact.load_ms",
    "artifact.save": "artifact.save_ms",
}


@dataclass
class Context:
    """What one run needs: where it is, what to do, and how long."""

    root: str
    work: str
    seed: int
    seconds: float
    trace: bool
    plant: bool = False
    python: str = "python3"


@dataclass
class Outcome:
    """What a workload hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    diagnostics: dict[str, Any] = field(default_factory=dict)


def launcher(ctx: Context) -> str:
    return os.path.join(ctx.root, "e2ebench", "launch.py")


#: Start of the boot record line ``launch.py`` prints.
BOOT_PREFIX = "e2ebench-boot "


def read_boot(line: str) -> tuple[float, float]:
    """Raw and normalised ms of a boot record line from ``launch.py``."""
    record = json.loads(line[len(BOOT_PREFIX):])
    return record["raw_ms"], normalise(record["raw_ms"], *record["probes"])


def vm_hwm_mb(pid: int | None = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found")


def reset_hwm() -> None:
    """Restart this process's VmHWM from its current resident size.

    Where the kernel does not allow it, VmHWM keeps counting from the
    process start.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        pass


def process_cpu_ms(pid: int) -> float:
    """CPU time of every thread of a process so far, in milliseconds.

    Prefers the scheduler's nanosecond-resolution per-thread counters and
    falls back to the tick-resolution ``utime + stime``.
    """
    total = 0.0
    try:
        for tid in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{tid}/sched", encoding="ascii") as sched:
                for line in sched:
                    if line.startswith("se.sum_exec_runtime"):
                        total += float(line.split(":")[1])
                        break
        return total
    except OSError:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * 1000.0 / os.sysconf("SC_CLK_TCK")


def probe_median(count: int = 5) -> float:
    norm = Normaliser()
    for _ in range(count):
        norm.probe()
    return norm.median_probe_ms()


def end_to_end(norm: Normaliser, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    return {
        "p50_ms": median(norm.norm_ms),
        "ops_per_s": norm.ops_per_s(),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def timing_diagnostics(norm: Normaliser) -> dict[str, float]:
    """Raw next to normalised, so the machine's drift itself stays visible."""
    return {
        "ops": norm.count,
        "raw.p50_ms": median(norm.raw_ms),
        "raw.ops_per_s": norm.count / (sum(norm.raw_ms) / 1e3),
        "norm.p50_ms": median(norm.norm_ms),
        "tail.p90_ms": percentile(norm.norm_ms, 90),
        "machine.probe_ms": norm.median_probe_ms(),
    }


def layer_metrics(
    run: dict[str, Any],
    setups: list[dict[str, Any]],
    ops: int,
    factor: float,
) -> dict[str, float]:
    """Per-layer metrics from tracer reports.

    ``run`` is the run-phase report (self seconds and counters over
    ``ops`` operations); ``setups`` holds one set-up-phase report per
    set-up.  Times are normalised by ``factor``.
    """
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    self_s = run.get("self_s", {})
    for layer, metric in RUN_LAYER_METRICS.items():
        metrics[metric] = self_s.get(layer, 0.0) * 1e3 * factor / ops
    counters = run.get("counters", {})
    metrics["parser.kb_per_op"] = counters.get("parser.bytes", 0.0) / 1024.0 / ops
    metrics["grounding.instances"] = counters.get("grounding.instances", 0.0) / ops
    updates = counters.get("grounding.update_calls", 0.0)
    if updates:
        applied = counters.get("grounding.delta_applied", 0.0)
        metrics["grounding.delta_hit_ratio"] = applied / updates
    metrics["kernel.free_choices"] = counters.get("kernel.free_choices", 0.0) / ops
    metrics["encode.kb_per_op"] = counters.get("encode.bytes", 0.0) / 1024.0 / ops
    if setups:
        for layer, metric in SETUP_LAYER_METRICS.items():
            metrics[metric] = (
                sum(s.get("self_s", {}).get(layer, 0.0) for s in setups)
                * 1e3
                * factor
                / len(setups)
            )
        metrics["artifact.kb"] = (
            sum(s.get("counters", {}).get("artifact.bytes", 0.0) for s in setups)
            / 1024.0
            / len(setups)
        )
    return metrics


def traced_metrics(
    report: dict[str, Any],
    setups: list[dict[str, Any]],
    plain: Normaliser,
    traced: Normaliser,
    client_ms: float,
) -> tuple[dict[str, float], dict[str, Any]]:
    """Per-layer metrics and diagnostics of a traced run.

    ``plain`` and ``traced`` are the untraced and traced segments;
    ``client_ms`` is the generator's own time during the traced segment.
    """
    factor = traced.factor()
    metrics = layer_metrics(report, setups, traced.count, factor)
    accounted = sum(report.get("self_s", {}).values())
    metrics["trace.unaccounted_ratio"] = 1.0 - accounted / (sum(traced.raw_ms) / 1e3)
    metrics["trace.overhead_ratio"] = median(traced.norm_ms) / median(plain.norm_ms) - 1.0
    metrics["client.ms"] = client_ms * factor / traced.count
    diagnostics = timing_diagnostics(traced)
    for name in ("tail.p90_ms", "raw.p50_ms", "machine.probe_ms"):
        metrics[name] = diagnostics[name]
    return metrics, diagnostics


def merge_reports(*reports: dict[str, Any]) -> dict[str, Any]:
    """Sum per-phase tracer reports (for example a generator's and a server's)."""
    merged: dict[str, Any] = {"self_s": {}, "counters": {}}
    for report in reports:
        for key in merged:
            for name, value in report.get(key, {}).items():
                merged[key][name] = merged[key].get(name, 0.0) + value
    return merged
