"""``served_ties`` and ``session_churn``: a live ``repro server``, one client.

Both workloads drive one ``repro server`` (``workers=0``) warm-started from
the artifact of a seeded, relabelled argumentation framework, over one TCP
connection in a closed loop: the next request is sent only after the
previous reply arrived.

* ``served_ties`` asks ``tie_breaking`` with a seed never used before plus
  four query atoms.  Every request is a real kernel and tie solve with a
  tiny reply: the kernel and serving layers, without parse or encode.
* ``session_churn`` keeps one session and, per request, retracts or
  reinserts one ``attacks`` fact and reads back the full ``well_founded``
  model: delta re-grounding, the session lock and a full encode.

Set-up is the user's path to a warm server: compile the artifact from
text, start the server process on it, and answer the first requests.
Each of the three parts is normalised by the probes right next to it:
compile and first requests in the generator, the server's boot inside the
server process (see ``launch.py``).
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import subprocess
import time
from statistics import median
from time import perf_counter
from typing import Any

import inputs
from common import (
    BOOT_PREFIX,
    Context,
    Outcome,
    end_to_end,
    launcher,
    merge_reports,
    process_cpu_ms,
    read_boot,
    timing_diagnostics,
    traced_metrics,
    vm_hwm_mb,
)
from probe import Normaliser, bracketed

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 12
#: ``peak_rss_mb`` is the server's VmHWM after this many timed requests.
RSS_AFTER_OPS = 100
#: Pause after each reply before the next probe (see ``segment``).
SETTLE_S = 0.002
QUERY_ATOMS = 4
#: At most this many ``attacks`` facts are retracted at once (churn).
MAX_RETRACTED = 8
SESSION = "churn"


class Server:
    """One ``repro server`` process started through the benchmark's launcher."""

    def __init__(self, ctx: Context, artifact: str, *, dump: str | None, plant: str | None):
        self.ctx = ctx
        command = [ctx.python, launcher(ctx)]
        if dump is not None:
            command += ["--trace", dump]
        if plant is not None:
            command += ["--plant", plant]
        command += ["--", "server", "--artifact", artifact, "--port", "0", "--workers", "0"]
        self.command = command
        self.proc: subprocess.Popen | None = None
        self.sock: socket.socket | None = None
        self.rfile: Any = None

    def start(self) -> tuple[float, float]:
        """Start the process and connect; returns the raw and normalised ms
        of the server's boot, timed inside it."""
        self.proc = subprocess.Popen(
            self.command,
            cwd=self.ctx.root,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
        )
        port, boot = self._await_ready(perf_counter() + 120.0)
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        return read_boot(boot)

    def _await_ready(self, deadline: float) -> tuple[int, str]:
        """The port from the ``listening on`` line, and the boot record before it."""
        assert self.proc is not None and self.proc.stderr is not None
        fd = self.proc.stderr.fileno()
        buffer = b""
        while perf_counter() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    break
                buffer += chunk
                lines = buffer.decode("utf-8", "replace").splitlines()
                boot = [line for line in lines if line.startswith(BOOT_PREFIX)]
                for line in lines:
                    if "listening on" in line and boot:
                        port = line.split("listening on", 1)[1].split()[0].rsplit(":", 1)[1]
                        return int(port), boot[-1]
            elif self.proc.poll() is not None:
                break
        raise RuntimeError(f"server did not start: {buffer.decode('utf-8', 'replace')[-2000:]}")

    def call(self, obj: dict[str, Any]) -> tuple[bytes, float]:
        """Send one request line and wait for its reply; returns (reply, seconds)."""
        assert self.sock is not None
        line = (json.dumps(obj) + "\n").encode("utf-8")
        t0 = perf_counter()
        self.sock.sendall(line)
        data = self.rfile.readline()
        elapsed = perf_counter() - t0
        if not data.endswith(b"\n"):
            raise ConnectionError("server closed the connection")
        return data, elapsed

    def control(self, command: str) -> dict[str, Any]:
        data, _ = self.call({"op": "ping", "id": "e2ebench:" + command})
        reply = json.loads(data)
        if not reply.get("ok"):
            raise RuntimeError(f"control {command!r} refused: {reply}")
        return reply

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def stop(self) -> None:
        if self.sock is not None:
            self.rfile.close()
            self.sock.close()
            self.sock = None
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


# ---------------------------------------------------------------------------
# The two traffic mixes.
# ---------------------------------------------------------------------------


class TiesMix:
    """Fresh-seed ``tie_breaking`` requests with a few query atoms."""

    name = "served_ties"
    plant = "values"
    sample_every = 8
    max_samples = 40

    def __init__(self, ctx: Context, framework: inputs.Framework) -> None:
        self.framework = framework
        self.rng = random.Random(ctx.seed ^ 0x5EED)
        self.seed_base = ctx.seed * 1_000_003
        self.count = 0
        self.samples: list[tuple[int, dict[str, Any]]] = []

    def request(self) -> dict[str, Any]:
        self.count += 1
        names = self.rng.sample(self.framework.arguments, QUERY_ATOMS)
        atoms = [f"accepted({n})" for n in names[:2]] + [f"defeated({n})" for n in names[2:]]
        return {
            "id": self.count,
            "semantics": "tie_breaking",
            "seed": self.seed_base + self.count,
            "atoms": atoms,
        }

    def warm_up(self, server: Server) -> None:
        for _ in range(2):
            request = self.request()
            if not self.accept(request, server.call(request)[0]):
                raise RuntimeError("warm-up request failed")

    def accept(self, request: dict[str, Any], data: bytes) -> bool:
        """Cheap per-reply check; keeps a sample for the offline check."""
        reply = json.loads(data)
        values = reply.get("values")
        good = (
            reply.get("ok") is True
            and reply.get("id") == request["id"]
            and isinstance(values, dict)
            and sorted(values) == sorted(request["atoms"])
        )
        if good and request["id"] % self.sample_every == 3 and len(self.samples) < self.max_samples:
            self.samples.append((request["seed"], values))
        return good

    def verify(self) -> int:
        """Re-solve the samples on an engine built from the source text."""
        from repro import Engine
        from repro.datalog.parser import parse_atom
        from repro.semantics.choices import RandomChoice

        offline = Engine(inputs.ARGUMENTATION_PROGRAM, self.framework.facts)
        wrong = 0
        for seed, values in self.samples:
            solution = offline.solve("tie_breaking", policy=RandomChoice(seed))
            if any(solution.value(parse_atom(a)) != v for a, v in values.items()):
                wrong += 1
        return wrong


class ChurnMix:
    """One session: retract or reinsert one fact, read back the full model."""

    name = "session_churn"
    plant = "model"
    sample_every = 16
    max_samples = 10

    def __init__(self, ctx: Context, framework: inputs.Framework) -> None:
        self.framework = framework
        # A fixed sequence over the canonical fact order: the seed's labels
        # change the text, but every seed churns the same structure.
        self.rng = random.Random(0xC4A2)
        self.count = 0
        self.retracted: list[str] = []
        self.samples: list[tuple[frozenset[str], dict[str, Any]]] = []
        self.last: tuple[frozenset[str], dict[str, Any]] | None = None

    def request(self) -> dict[str, Any]:
        self.count += 1
        request: dict[str, Any] = {
            "id": self.count,
            "session": SESSION,
            "semantics": "well_founded",
        }
        if self.retracted and (
            len(self.retracted) >= MAX_RETRACTED or self.rng.random() < 0.5
        ):
            fact = self.retracted.pop(self.rng.randrange(len(self.retracted)))
            request["insert"] = [fact]
        else:
            while True:
                fact = self.rng.choice(self.framework.attacks)
                if fact not in self.retracted:
                    break
            self.retracted.append(fact)
            request["retract"] = [fact]
        return request

    def warm_up(self, server: Server) -> None:
        # Opening the session loads its engine; the first update after an
        # artifact load re-grounds.  Users pay both once per session.
        for _ in range(2):
            request = self.request()
            if not self.accept(request, server.call(request)[0]):
                raise RuntimeError("warm-up request failed")

    def accept(self, request: dict[str, Any], data: bytes) -> bool:
        reply = json.loads(data)
        solution = reply.get("solution") or {}
        updates = reply.get("updates") or {}
        good = (
            reply.get("ok") is True
            and reply.get("id") == request["id"]
            and (reply.get("session") or {}).get("name") == SESSION
            and updates.get("inserted", []) == request.get("insert", [])
            and updates.get("retracted", []) == request.get("retract", [])
            and isinstance(solution.get("model"), dict)
        )
        if good:
            state = (frozenset(self.retracted), solution["model"])
            self.last = state
            if request["id"] % self.sample_every == 5 and len(self.samples) < self.max_samples:
                self.samples.append(state)
        return good

    def verify(self) -> int:
        """Compare sampled and final models with fresh engines on the replayed facts."""
        from repro import Engine

        checks = list(self.samples)
        if self.last is not None:
            checks.append(self.last)
        base = [f"arg({a})" for a in self.framework.arguments] + self.framework.attacks
        expected: dict[frozenset[str], dict[str, set[str]]] = {}
        wrong = 0
        for retracted, model in checks:
            if retracted not in expected:
                text = inputs.framework_text([f for f in base if f not in retracted])
                solution = Engine(inputs.ARGUMENTATION_PROGRAM, text).solve("well_founded")
                expected[retracted] = {
                    "true": {str(a) for a in solution.true_atoms},
                    "undefined": {str(a) for a in solution.undefined_atoms},
                }
            want = expected[retracted]
            if set(model.get("true") or ()) != want["true"] or set(
                model.get("undefined") or ()
            ) != want["undefined"]:
                wrong += 1
        return wrong


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------


def _build_artifact(framework: inputs.Framework, path: str) -> None:
    from repro import Engine

    if os.path.exists(path):
        os.remove(path)
    Engine(inputs.ARGUMENTATION_PROGRAM, framework.facts).save_artifact(path)


def run(ctx: Context, mix_cls: type) -> Outcome:
    import spans

    framework = inputs.framework(random.Random(ctx.seed))
    outcome = Outcome()
    servers: list[Server] = []
    try:
        # -- set-up, several times; the last server stays up for the run.
        setups: list[tuple[float, float]] = []  # raw, normalised ms
        boots: list[float] = []  # normalised ms
        setup_reports: list[dict[str, Any]] = []
        for index in range(SETUPS):
            artifact = os.path.join(ctx.work, f"{mix_cls.name}-{index}.ground")
            dump = (
                os.path.join(ctx.work, f"{mix_cls.name}-{index}.spans.jsonl") if ctx.trace else None
            )
            # Each server starts from the artifact, so the client's view
            # of the session state starts afresh with it.
            mix = mix_cls(ctx, framework)
            server = Server(ctx, artifact, dump=dump, plant=mix.plant if ctx.plant else None)
            servers.append(server)
            tracer = spans.Tracer()
            if ctx.trace:
                spans.install(tracer)
            try:
                _, compile_raw, compile_norm = bracketed(
                    lambda: _build_artifact(framework, artifact)
                )
            finally:
                tracer.uninstall()
            boot_raw, boot_norm = server.start()
            _, warm_raw, warm_norm = bracketed(lambda: mix.warm_up(server))
            boots.append(boot_norm)
            setups.append(
                (compile_raw + boot_raw + warm_raw, compile_norm + boot_norm + warm_norm)
            )
            if ctx.trace:
                remote = server.control("report")["trace"].get("setup", {})
                setup_reports.append(merge_reports(tracer.report().get("setup", {}), remote))
            if index < SETUPS - 1:
                server.stop()
        setup_s = median(norm for _, norm in setups) / 1e3
        server = servers[-1]

        rss: list[float] = []

        idle = [0.0, 0.0]  # server CPU ms, wall ms: while only the client works

        def probe(norm: Normaliser, watch_idle: bool) -> None:
            if not watch_idle:
                norm.probe()
                return
            cpu0 = process_cpu_ms(server.pid)
            t0 = perf_counter()
            norm.probe()
            idle[1] += (perf_counter() - t0) * 1e3
            idle[0] += process_cpu_ms(server.pid) - cpu0

        def segment(seconds: float, norm: Normaliser, watch_idle: bool = False) -> float:
            """Closed loop for ``seconds``; returns client time outside requests."""
            probe(norm, watch_idle)
            start = perf_counter()
            client_ms = 0.0
            while perf_counter() - start < seconds:
                t_loop = perf_counter()
                request = mix.request()
                data, elapsed = server.call(request)
                norm.record(elapsed * 1e3)
                # The server shares the client's CPU: let it finish the
                # request's tail before the probe runs, so neither is
                # timed with the other's work inside.
                time.sleep(SETTLE_S)
                t_probe = perf_counter()
                probe(norm, watch_idle)
                probe_wall_ms = (perf_counter() - t_probe) * 1e3
                outcome.attempted += 1
                if not mix.accept(request, data):
                    outcome.failed += 1
                if not rss and norm.count == RSS_AFTER_OPS:
                    rss.append(vm_hwm_mb(server.pid))
                loop_ms = (perf_counter() - t_loop) * 1e3
                client_ms += loop_ms - elapsed * 1e3 - probe_wall_ms
            return client_ms

        if not ctx.trace:
            norm = Normaliser()
            segment(ctx.seconds, norm)
            peak = rss[0] if rss else vm_hwm_mb(server.pid)
            outcome.metrics = end_to_end(norm, setup_s, peak)
            outcome.diagnostics = timing_diagnostics(norm)
            outcome.diagnostics["raw.setup_s"] = median(raw for raw, _ in setups) / 1e3
        else:
            server.control("uninstall")
            plain = Normaliser()
            segment(ctx.seconds / 3.0, plain)
            server.control("phase:run")
            server.control("install")
            traced = Normaliser()
            cpu0 = process_cpu_ms(server.pid)
            client_ms = segment(ctx.seconds * 2.0 / 3.0, traced, watch_idle=True)
            cpu_ms = process_cpu_ms(server.pid) - cpu0
            report = server.control("report")["trace"].get("run", {})
            metrics, outcome.diagnostics = traced_metrics(
                report, setup_reports, plain, traced, client_ms
            )
            factor = traced.factor()
            metrics["setup.boot_ms"] = median(boots)
            metrics["server.cpu_ms_per_op"] = cpu_ms * factor / traced.count
            metrics["server.idle_cpu_ms_per_s"] = idle[0] / idle[1] * 1e3
            outcome.metrics = metrics
    finally:
        for server in servers:
            server.stop()
    outcome.failed += mix.verify()
    return outcome
