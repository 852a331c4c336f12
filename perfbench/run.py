"""The repository benchmark: association service end to end, cold solves,
and a traced per-layer run.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

One run boots the association service in a child process (``serve.py``)
and works in rounds (``--seconds // 5`` of them: the option selects the
round count, and a 30-second run takes 45-60 s). Each round is a slice of
a closed-loop replay (one writer: ``POST /events?wait=1`` with the next
fixed batch, then one ``GET /assignments``) with timed spare boots of the
service and cold ``ShardedEngine.solve`` calls per objective (in this
process) spread between its ticks, while the service idles. Every timing
is a median or percentile over samples spread across the whole run, each
sample scaled to a reference host speed by the host-speed probes taken
around it (``hostspeed.py``); the first tick and the first
cold solve are warm-ups. Every output is checked (certificates, a state
mirror, the final association, work determinism); a failed check counts
as a failed operation and makes the run exit 1.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` traces every
other boot, tick and cold solve and prints the per-layer metrics plus the
tracing overhead (traced minus untraced samples). The last stdout line is
the JSON result.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import queue
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402

checkout.require_repro()

from repro.engine import ShardedEngine  # noqa: E402
from repro.obs import collecting  # noqa: E402
from repro.service.driver import stream_bytes  # noqa: E402

import tracer as tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from checks import (  # noqa: E402
    Mirror,
    WorkRecord,
    certified,
    final_oracle,
    tick_mismatches,
    work_counts,
)
from workloads import ALL_WORKLOADS, MAX_SHARD_USERS, Workload, problem_digest  # noqa: E402

SERVE = Path(__file__).resolve().parent / "serve.py"
OBJECTIVES = ("mnu", "mla", "bla")
HTTP_TIMEOUT_S = 60.0
#: A run still going after ``DEADLINE_BASE_S + DEADLINE_PER_ROUND_S *
#: rounds`` stops and reports failure (160 s at the 6 rounds of 30 s, which
#: take 45-60 s on a 2-vCPU VM, and up to 112 s while its host was loaded).
DEADLINE_BASE_S = 10.0
DEADLINE_PER_ROUND_S = 25.0
#: Untimed host-speed probes before the first sample.
WARMUP_PROBES = 5

#: (name, unit) of every end-to-end metric, in output order.
END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events_per_s", "1/s"),
    ("visible_p50_ms", "ms"),
    ("visible_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("mnu_s", "s"),
    ("mla_s", "s"),
    ("bla_s", "s"),
    ("mnu_served", "users"),
    ("mla_total_load", "airtime"),
    ("bla_max_load", "airtime"),
    ("objective_ratio", "ratio"),
)

#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD: tuple[str, ...] = (
    "setup_s",
    "events_per_s",
    "visible_p50_ms",
    "read_p50_ms",
    "mnu_s",
    "mla_s",
    "bla_s",
)

#: Per-layer self times: metric name -> span name.
SELF_TIMES: dict[str, str] = {
    "scenarios.generate_s": "scenarios.generate",
    "service.http.read_request_s": "service.http.read_request",
    "service.http.encode_s": "service.http.encode",
    "service.events.parse_s": "service.events.parse",
    "service.events.coalesce_s": "service.events.coalesce",
    "service.control.tick_s": "service.control.tick",
    "service.control.payload_s": "service.control.payload",
    "core.problem.build_s": "core.problem.build",
    "engine.swap_problem_s": "engine.swap_problem",
    "engine.partition.plan_shards_s": "engine.partition.plan_shards",
    "engine.solve_s": "engine.solve",
    "engine.incremental.fingerprint_s": "engine.incremental.fingerprint",
    "engine.executor.stitch_s": "engine.executor.stitch",
    "engine.executor.bla_round_s": "engine.executor.bla_round",
    "engine.executor.rebalance_s": "engine.executor.rebalance",
    "core.candidates.build_family_s": "core.candidates.build_family",
    "core.setcover.cover_s": "core.setcover.cover",
    "core.mcg.greedy_s": "core.mcg.greedy",
    "core.assignment.materialize_s": "core.assignment.materialize",
    "core.ledger.build_s": "core.ledger.build",
}

#: (name, unit) of every per-layer metric, in output order.
PER_LAYER: tuple[tuple[str, str], ...] = (
    *((name, "s") for name in SELF_TIMES),
    ("service.boot_solve_s", "s"),
    ("service.events.applied_share", "ratio"),
    ("service.queue_wait_ms", "ms"),
    ("service.ticks", "count"),
    ("service.tick_rollbacks", "count"),
    ("core.problem.builds", "count"),
    ("core.problem.aps_of_user_calls", "count"),
    ("core.bla.bstar_probes", "count"),
    ("engine.shards_resolved", "count"),
    ("engine.cache_hits", "count"),
    ("engine.cache_misses", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("vec.vector_share", "ratio"),
    ("run.cpu_wall_ratio", "ratio"),
    *(
        (f"trace.overhead.{name}", dict(END_TO_END)[name])
        for name in OVERHEAD
    ),
)

#: ``*.strategy_switches`` counters of the solver kernels counted by
#: the tracer's ``vec.kernel_calls``.
SOLVER_SWITCHES = (
    "mnu.strategy_switches",
    "mla.strategy_switches",
    "bla.strategy_switches",
)


class Abort(Exception):
    """The run cannot go on (dead child, transport error, deadline)."""


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def spread(*groups: list[str]) -> list[str]:
    """Merge the groups so that each one's items are spread evenly."""
    keyed = [
        ((i + 0.5) / len(group), g, item)
        for g, group in enumerate(groups)
        for i, item in enumerate(group)
    ]
    return [item for *_, item in sorted(keyed)]


def proc_cpu_s(pid: int) -> float:
    """CPU seconds (user + system) a process has used, from /proc."""
    try:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ServiceProcess:
    """A child running ``serve.py``; JSON-line commands with timeouts."""

    def __init__(self, workload: str, *flags: str) -> None:
        env = dict(os.environ, PYTHONPATH=str(checkout.SRC))
        self.tracing = False
        self.proc = subprocess.Popen(
            [sys.executable, str(SERVE), "--workload", workload, *flags],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=checkout.ROOT,
            env=env,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.receive(timeout=120.0)

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def receive(self, timeout: float) -> dict[str, Any]:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise Abort(f"service process silent for {timeout:.0f} s") from None
        if line is None:
            raise Abort(f"service process exited with {self.proc.wait()}")
        reply = json.loads(line)
        if "error" in reply:
            raise Abort(f"service process: {reply['error']}")
        return reply

    def call(self, command: dict[str, Any], timeout: float = 120.0) -> dict[str, Any]:
        assert self.proc.stdin is not None
        try:
            self.proc.stdin.write(json.dumps(command) + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise Abort(f"service process gone: {exc}") from None
        return self.receive(timeout)

    def trace(self, on: bool) -> None:
        if on != self.tracing:
            self.call({"cmd": "trace", "on": on})
            self.tracing = on

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def close(self) -> None:
        """Stop the child (end of input, then kill) and wait for it."""
        assert self.proc.stdin is not None and self.proc.stdout is not None
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()


def http_call(
    port: int, method: str, path: str, body: bytes | None = None
) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException) as exc:
        raise Abort(f"{method} {path}: {exc}") from None
    finally:
        conn.close()


class Run:
    """One benchmark run: state, samples and the failure tally."""

    def __init__(self, workload: Workload, seed: int, seconds: int, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.rounds = workload.rounds(seconds)
        self.started = time.monotonic()
        self.deadline_s = DEADLINE_BASE_S + DEADLINE_PER_ROUND_S * self.rounds
        self.attempted = 0
        self.failures: list[str] = []
        # samples, each tagged with whether it was traced and when it was taken
        self.setup: list[tuple[bool, float, float]] = []
        self.ticks: list[tuple[bool, float, float, float, int]] = []  # visible, read, events
        self.slices: list[tuple[float, float, int]] = []  # wall, events
        self.cold: dict[str, list[tuple[bool, float, float]]] = {o: [] for o in OBJECTIVES}
        self.host = HostSpeed()
        self.values: dict[str, float] = {}
        self.phase_wall = 0.0
        self.phase_cpu = 0.0
        self.work: list[list[int]] = []
        self.traced_ticks: list[dict[str, Any]] = []
        self.tracer = tracing.Tracer()
        self.counters: dict[str, float] = {}

    # -- bookkeeping -----------------------------------------------------

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok

    def _deadline(self) -> None:
        if time.monotonic() - self.started > self.deadline_s:
            raise Abort(f"run exceeded {self.deadline_s:.0f} s")

    def _absorb(self, counters: dict[str, float]) -> None:
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value

    # -- the run ---------------------------------------------------------

    def execute(self) -> None:
        self.problem = self.workload.deployment()
        batches = self.workload.batches(self.problem, self.seed, self.rounds)
        self.bodies = [stream_bytes(batch) for batch in batches]
        self.batches = batches
        self.mirror = Mirror(self.problem)
        self.next_batch = 0
        self.tick_index = 0
        self.published: dict[str, Any] | None = None
        children: list[ServiceProcess] = []
        try:
            # the live service, then the process that runs the spare boots
            for flags in ((), ("--spare",)):
                children.append(ServiceProcess(self.workload.name, *flags))
            self.service, self.spare = children
            booted = self._boot()
            self.port = booted["port"]
            self.check(
                booted["digest"] == problem_digest(self.problem),
                "service and benchmark generated different deployments",
            )
            self._verify_tick(*self._tick(timed=False))
            self._check_cold(*self._cold_solve("mnu", timed=False))
            for _ in range(WARMUP_PROBES):
                self.host.probe()
            for _ in range(self.rounds):
                self._round()
            replies = [child.call({"cmd": "stop"}) for child in children]
        finally:
            self.tracer.uninstall()
            for child in children:
                child.close()
        self.child_rss_kb = max(reply["peak_rss_kb"] for reply in replies)
        self.child_trace, self.spare_trace = (reply["trace"] for reply in replies)
        for reply in replies:
            self._absorb(reply["counters"])
        self._final_checks()

    def _round(self) -> None:
        """Replay ticks with the boots and cold solves spread between them.

        The host's speed drifts for seconds at a time, so each kind of
        sample is spread evenly over the round rather than taken in one
        burst. Between ticks the service is idle: the writer waits for
        each tick, and the spare boots run while the live service waits.
        """
        workload = self.workload
        items = spread(
            ["boot"] * workload.boots_per_round,
            ["mnu", "mla"] * workload.fast_solves_per_round,
            ["bla"] * workload.bla_solves_per_round,
        )
        cuts = [round(i * workload.ticks_per_round / len(items)) for i in range(len(items) + 1)]
        for item, ticks in zip(items, (b - a for a, b in zip(cuts, cuts[1:]))):
            self._deadline()
            self.host.probe()
            self._slice(ticks)
            self.host.probe()
            if item == "boot":
                self._boot()
            else:
                self._check_cold(*self._cold_solve(item, timed=True))

    def _boot(self) -> dict[str, Any]:
        """One timed boot: the live service first, then spare boots in
        their own child; a traced run traces every other."""
        child = self.spare if self.setup else self.service
        child.trace(self.trace and len(self.setup) % 2 == 1)
        start = time.perf_counter()
        booted = child.call({"cmd": "boot"})
        at = 0.5 * (start + time.perf_counter())
        self.setup.append((child.tracing, at, booted["setup_s"]))
        return booted

    def _slice(self, ticks: int) -> None:
        """``ticks`` timed ticks back to back, checked after the timing."""
        if not ticks:
            return
        start, cpu = time.perf_counter(), self._cpu()
        exchanges = [self._tick(timed=True) for _ in range(ticks)]
        wall = time.perf_counter() - start
        self._phase(wall, cpu)
        events = sum(len(self.batches[exchange[0]]) for exchange in exchanges)
        self.slices.append((start + 0.5 * wall, wall, events))
        for exchange in exchanges:
            self._verify_tick(*exchange)

    def _cpu(self) -> float:
        return time.process_time() + self.service.cpu_s() + self.spare.cpu_s()

    def _phase(self, wall: float, cpu_start: float) -> None:
        self.phase_wall += wall
        self.phase_cpu += self._cpu() - cpu_start

    def _tick(self, *, timed: bool) -> tuple:
        """POST the next batch with ``wait=1``, then GET the association.

        Returns the raw exchange; :meth:`_verify_tick` checks it after the
        timed slice, so checking costs no replay time.
        """
        index = self.next_batch
        self.next_batch += 1
        traced = self.trace and timed and index % 2 == 1
        if self.trace:
            self.service.trace(traced)
        t0 = time.perf_counter()
        posted = http_call(self.port, "POST", "/events?wait=1", self.bodies[index])
        t1 = time.perf_counter()
        read = http_call(self.port, "GET", "/assignments")
        t2 = time.perf_counter()
        if timed:
            self.ticks.append(
                (traced, 0.5 * (t0 + t2), t1 - t0, t2 - t1, len(self.batches[index]))
            )
        return index, traced, posted, read

    def _verify_tick(self, index: int, traced: bool, posted: tuple, read: tuple) -> None:
        (status, body), (status_get, body_get) = posted, read
        expected = self.mirror.apply(self.batches[index])
        if not self.check(status == 200, f"POST batch {index}: HTTP {status}"):
            raise Abort(f"POST batch {index} failed: {body[:200]!r}")
        report = json.loads(body)["tick"]
        wrong = tick_mismatches(expected, report)
        # A batch that nets out to no change publishes no new association.
        self.tick_index += expected["n_applied"] > 0
        if report["tick"] != self.tick_index:
            wrong.append(f"tick index {report['tick']} != {self.tick_index}")
        self.check(not wrong, f"tick {index}: " + "; ".join(wrong))
        self.work.append(work_counts(report))
        if traced:
            self.traced_ticks.append(report)
        if self.check(status_get == 200, f"GET after batch {index}: HTTP {status_get}"):
            published = json.loads(body_get)
            self.check(
                published["tick"] == report["tick"]
                and published["n_active"] == expected["n_active"],
                f"GET after batch {index}: stale association",
            )
            self.published = published

    def _cold_solve(self, objective: str, *, timed: bool):
        samples = self.cold[objective]
        traced = self.trace and timed and len(samples) % 2 == 1
        with collecting() if traced else nullcontext() as session:
            if traced:
                self.tracer.install()
            cpu, start = self._cpu(), time.perf_counter()
            with ShardedEngine(self.problem, max_shard_users=MAX_SHARD_USERS) as engine:
                solution = engine.solve(objective)
            elapsed = time.perf_counter() - start
            self.tracer.uninstall()
        if timed:
            self._phase(elapsed, cpu)
        if session is not None:
            self._absorb(session.metrics.counters())
        if timed:
            samples.append((traced, start + 0.5 * elapsed, elapsed))
        return objective, solution

    def _check_cold(self, objective: str, solution) -> None:
        self.check(
            certified(self.problem, solution.assignment, objective),
            f"cold {objective} solution fails its certificate",
        )
        value = solution.value()
        first = self.values.setdefault(objective, value)
        self.check(value == first, f"cold {objective} value {value} != {first}")

    def _final_checks(self) -> None:
        if not self.check(self.published is not None, "no association was read"):
            return
        failures, self.objective_ratio = final_oracle(self.mirror, self.published)
        self.check(not failures, "; ".join(failures))
        # The program's hash is in the key: a changed program does other
        # work by right and starts its own record.
        shape = f"{self.rounds}x{self.workload.ticks_per_round}x{self.workload.batch_size}"
        key = f"{self.workload.name}-seed{self.seed}-{shape}-{checkout.program_digest()[:16]}"
        record = WorkRecord(checkout.STATE_DIR, key)
        wrong = record.check(self.work)
        self.check(not wrong, "work differs from the first run: " + "; ".join(wrong[:3]))

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, traced: bool) -> dict[str, float]:
        scale = self.host.scale

        def pick(samples):
            return [value * scale(at) for was, at, value in samples if was == traced]

        ticks = [
            (scale(at), visible, read, events)
            for was, at, visible, read, events in self.ticks
            if was == traced
        ]
        visible = [1e3 * k * v for k, v, _, _ in ticks]
        reads = [1e3 * k * r for k, _, r, _ in ticks]
        if self.trace:
            # traced and untraced ticks share slices: use their own times
            events_per_s = sum(e for *_, e in ticks) / sum(k * (v + r) for k, v, r, _ in ticks)
        else:
            events_per_s = sum(e for *_, e in self.slices) / sum(
                scale(at) * wall for at, wall, _ in self.slices
            )
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": statistics.median(pick(self.setup)),
            "peak_rss_mb": max(own_rss, self.child_rss_kb) / 1024.0,
            "events_per_s": events_per_s,
            "visible_p50_ms": statistics.median(visible),
            "visible_p90_ms": quantile(visible, 0.9),
            "read_p50_ms": statistics.median(reads),
            "read_p90_ms": quantile(reads, 0.9),
            **{
                f"{o}_s": statistics.median(pick(self.cold[o]))
                for o in OBJECTIVES
            },
            "mnu_served": self.values["mnu"],
            "mla_total_load": self.values["mla"],
            "bla_max_load": self.values["bla"],
            "objective_ratio": self.objective_ratio,
        }

    def per_layer(self) -> dict[str, float]:
        exports = [self.tracer.export(), self.child_trace, self.spare_trace]
        summary = tracing.summarize(exports)

        def row(name: str) -> dict[str, float]:
            return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

        ticks = self.traced_ticks
        hits = sum(t["cache_hits"] for t in ticks)
        misses = sum(t["cache_misses"] for t in ticks)
        switches = sum(self.counters.get(name, 0) for name in SOLVER_SWITCHES)
        kernel_calls = row("vec.kernel_calls")["calls"]
        waits = tracing.queue_waits(self.child_trace["spans"])
        traced, untraced = self.end_to_end(True), self.end_to_end(False)
        out = {metric: row(span)["self_s"] for metric, span in SELF_TIMES.items()}
        out.update({
            "service.boot_solve_s": row("service.boot")["total_s"],
            "service.events.applied_share": (
                sum(t["n_applied"] for t in ticks) / sum(t["n_events"] for t in ticks)
            ),
            "service.queue_wait_ms": 1e3 * statistics.median(waits) if waits else 0.0,
            "service.ticks": self.counters.get("service.ticks", 0),
            "service.tick_rollbacks": self.counters.get("service.tick_rollbacks", 0),
            "core.problem.builds": self.counters.get("service.problem_rebuilds", 0),
            "core.problem.aps_of_user_calls": row("core.problem.aps_of_user")["calls"],
            "core.bla.bstar_probes": self.counters.get("bla.bstar_probes", 0),
            "engine.shards_resolved": sum(t["resolved_shards"] for t in ticks),
            "engine.cache_hits": hits,
            "engine.cache_misses": misses,
            "engine.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "vec.vector_share": switches / kernel_calls if kernel_calls else 0.0,
            "run.cpu_wall_ratio": self.phase_cpu / self.phase_wall,
        })
        for name in OVERHEAD:
            out[f"trace.overhead.{name}"] = traced[name] - untraced[name]
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    run = Run(ALL_WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    try:
        run.execute()
    except Abort as exc:
        run.failures.append(f"aborted: {exc}")
        run.attempted += 1
    for failure in run.failures:
        sys.stderr.write(f"perfbench: FAILED {failure}\n")
    if run.failures:
        metrics: dict[str, float] = {}
    elif args.trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(False)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
