"""Out-of-program tracing: timing wrappers bound where callers look names up.

The program is not edited. :class:`Tracer` replaces functions and methods
with wrappers that record a span per call (name, start, end, parent span,
tick id, self time) and restores the originals on :meth:`uninstall`.
Modules use from-imports, so a function is patched in every module that
calls it (``repro.engine.engine.plan_shards`` as well as the definition).

Self time is the span's duration minus the time of the spans nested
directly inside it on the same thread. Async wrappers (``read_request``)
record a root span and take no part in nesting, because other coroutines
run on the loop thread while they wait. Functions called tens of
thousands of times are counted, not timed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable

#: (target, span name, kind). A target is ``module:attr`` or
#: ``module:Class.attr``; kind is ``span``, ``async`` or ``count``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.scenarios.largescale:generate_largescale", "scenarios.generate", "span"),
    ("repro.scenarios.federation:generate_federation", "scenarios.generate", "span"),
    ("repro.scenarios.generator:Scenario.problem", "scenarios.generate", "span"),
    ("repro.service.control:ControlService.__init__", "service.boot", "span"),
    ("repro.service.loop:read_request", "service.http.read_request", "async"),
    ("repro.service.http:Response.encode", "service.http.encode", "span"),
    ("repro.service.loop:parse_events", "service.events.parse", "span"),
    ("repro.service.control:coalesce", "service.events.coalesce", "span"),
    ("repro.service.control:ControlService.apply_events", "service.control.tick", "span"),
    ("repro.service.control:ControlService.assignments_payload", "service.control.payload", "span"),
    ("repro.service.control:ControlService.loads_payload", "service.control.payload", "span"),
    ("repro.service.control:ControlService.state_payload", "service.control.payload", "span"),
    ("repro.core.problem:MulticastAssociationProblem.__init__", "core.problem.build", "span"),
    ("repro.engine.engine:ShardedEngine.__init__", "engine.swap_problem", "span"),
    ("repro.engine.engine:ShardedEngine.swap_problem", "engine.swap_problem", "span"),
    ("repro.engine.engine:plan_shards", "engine.partition.plan_shards", "span"),
    ("repro.engine.engine:ShardedEngine.solve", "engine.solve", "span"),
    ("repro.engine.engine:shard_fingerprint", "engine.incremental.fingerprint", "span"),
    ("repro.engine.engine:stitch_mla", "engine.executor.stitch", "span"),
    ("repro.engine.engine:stitch_mnu", "engine.executor.stitch", "span"),
    ("repro.engine.engine:stitch_assignment", "engine.executor.stitch", "span"),
    ("repro.engine.executor:stitch_assignment", "engine.executor.stitch", "span"),
    ("repro.engine.executor:bla_round", "engine.executor.bla_round", "span"),
    ("repro.engine.executor:rebalance_round", "engine.executor.rebalance", "span"),
    ("repro.core.mla:build_candidates", "core.candidates.build_family", "span"),
    ("repro.core.mla:build_family", "core.candidates.build_family", "span"),
    ("repro.core.mnu:build_candidates", "core.candidates.build_family", "span"),
    ("repro.core.mnu:build_family", "core.candidates.build_family", "span"),
    ("repro.core.bla:build_candidates", "core.candidates.build_family", "span"),
    ("repro.core.bla:build_family", "core.candidates.build_family", "span"),
    ("repro.engine.executor:build_candidates", "core.candidates.build_family", "span"),
    ("repro.core.mla:greedy_set_cover", "core.setcover.cover", "span"),
    ("repro.core.mla:greedy_set_cover_flat", "core.setcover.cover", "span"),
    ("repro.core.mnu:greedy_mcg", "core.mcg.greedy", "span"),
    ("repro.core.mnu:greedy_mcg_flat", "core.mcg.greedy", "span"),
    ("repro.core.bla:greedy_mcg", "core.mcg.greedy", "span"),
    ("repro.core.bla:greedy_mcg_flat", "core.mcg.greedy", "span"),
    ("repro.engine.executor:greedy_mcg", "core.mcg.greedy", "span"),
    ("repro.core.mla:from_selected_sets", "core.assignment.materialize", "span"),
    ("repro.core.mnu:from_selected_sets", "core.assignment.materialize", "span"),
    ("repro.engine.executor:from_selected_sets", "core.assignment.materialize", "span"),
    ("repro.core.bla:assignment_from_cover", "core.assignment.materialize", "span"),
    ("repro.engine.executor:assignment_from_cover", "core.assignment.materialize", "span"),
    ("repro.core.ledger:LoadLedger.__init__", "core.ledger.build", "span"),
    ("repro.core.problem:MulticastAssociationProblem.aps_of_user", "core.problem.aps_of_user", "count"),
    ("repro.engine.executor:solve_mla", "vec.kernel_calls", "count"),
    ("repro.engine.executor:solve_mnu", "vec.kernel_calls", "count"),
    ("repro.engine.executor:solve_bla", "vec.kernel_calls", "count"),
)

#: The span whose start opens a new tick id (a ``POST /events`` body).
TICK_OPENER = "service.events.parse"


def _resolve(target: str) -> tuple[Any, str]:
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Tracer:
    """Spans and counts kept in memory; install/uninstall is reversible."""

    def __init__(self) -> None:
        #: (name, id, start, end, parent id or -1, tick id or -1, self time)
        self.spans: list[tuple[str, int, float, float, int, int, float]] = []
        #: Counted calls. Unlocked: counted functions run on one thread at
        #: a time (the service's state lock serializes ticks and reads).
        self.counts: dict[str, int] = defaultdict(int)
        #: The tick the current spans belong to (-1 outside any tick).
        self.tick = -1
        self._next_tick = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    # -- patching --------------------------------------------------------

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target, name, kind in TARGETS:
            owner, attr = _resolve(target)
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            make = {
                "span": self._span_wrapper,
                "async": self._async_wrapper,
                "count": self._count_wrapper,
            }[kind]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- wrappers --------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if name == TICK_OPENER:
                tracer.tick = tracer._next_tick
                tracer._next_tick += 1
            stack = tracer._stack()
            parent = stack[-1][0] if stack else -1
            # frame: [span id, time spent in direct children]
            frame = [next(tracer._ids), 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append(
                    (name, frame[0], start, end, parent, tracer.tick,
                     duration - frame[1])
                )

        return wrapper

    def _async_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.spans.append(
                    (name, next(tracer._ids), start, end, -1, tracer.tick,
                     end - start)
                )

        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- export ----------------------------------------------------------

    def export(self) -> dict[str, Any]:
        return {"spans": list(self.spans), "counts": dict(self.counts)}


def summarize(exports: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total self time and total duration."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for blob in exports:
        for name, _id, start, end, _parent, _tick, self_s in blob["spans"]:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += end - start
        for name, n in blob["counts"].items():
            out[name]["calls"] += n
    return dict(out)


def queue_waits(spans: list) -> list[float]:
    """Per tick: seconds from its request being parsed to its tick starting."""
    parsed: dict[int, float] = {}
    started: dict[int, float] = {}
    for name, _id, start, end, _parent, tick, _self in spans:
        if tick < 0:
            continue
        if name == TICK_OPENER:
            parsed[tick] = end
        elif name == "service.control.tick" and tick not in started:
            started[tick] = start
    return [started[t] - parsed[t] for t in sorted(parsed) if t in started]
