"""The benchmark's service process: boots, serves and reports on command.

Started by ``run.py`` as ``python3 perfbench/serve.py --workload W
[--spare]``. It speaks JSON lines: commands on stdin, one reply per
command on stdout.

* ``{"cmd": "boot"}`` times one boot — deployment generation, the
  ``ControlService`` boot cold solve and the listener start, i.e. until
  the first association is published. The first boot stays up as the
  live service (its port is in the reply). With ``--spare`` every boot is
  a spare one: started, timed and drained. Spare boots run in their own
  process so that no live service shares the interpreter with them: its
  ticker, waking every few milliseconds, would take the GIL from the
  boot, and the cost of each hand-over swings with the host's load.
* ``{"cmd": "trace", "on": true|false}`` installs or removes the timing
  wrappers and an ``repro.obs.collecting()`` session.
* ``{"cmd": "stop"}`` drains the live service and replies with the peak
  RSS, the spans and the obs counters, then exits.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time
from contextlib import ExitStack
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checkout  # noqa: E402  (puts the checkout's src/ first on sys.path)

checkout.require_repro()

from repro.obs import collecting  # noqa: E402
from repro.service.control import ControlService  # noqa: E402
from repro.service.loop import AssociationService, ServiceConfig  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import (  # noqa: E402
    ALL_WORKLOADS,
    MAX_SHARD_USERS,
    TICK_INTERVAL_S,
    problem_digest,
)


def reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def timed_boot(build):
    """One boot, deployment to published association; returns it timed."""
    start = time.perf_counter()
    problem = build()
    control = ControlService(
        problem, algorithm="mla", max_shard_users=MAX_SHARD_USERS
    )
    service = AssociationService(
        control, ServiceConfig(port=0, tick_interval_s=TICK_INTERVAL_S)
    )
    await service.start()
    return service, problem, time.perf_counter() - start


class Launcher:
    def __init__(self, workload: str, spare: bool) -> None:
        self.build = ALL_WORKLOADS[workload].deployment
        self.spare = spare
        self.live: AssociationService | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self.thread: threading.Thread | None = None
        self.tracer = tracing.Tracer()
        self.sessions: list = []
        self._obs = ExitStack()

    def boot(self) -> dict:
        self.tracer.tick = -1
        if self.live is None and not self.spare:
            return self._boot_live()
        return self._boot_spare()

    def _boot_live(self) -> dict:
        booted = threading.Event()
        out: dict = {}

        async def main() -> None:
            service, problem, setup_s = await timed_boot(self.build)
            out.update(service=service, problem=problem, setup_s=setup_s)
            self.loop = asyncio.get_running_loop()
            booted.set()
            await service.run_until_shutdown(install_signals=False)

        self.thread = threading.Thread(
            target=lambda: asyncio.run(main()), daemon=True
        )
        self.thread.start()
        if not booted.wait(timeout=120.0):
            raise RuntimeError("live service did not boot within 120 s")
        self.live = out["service"]
        return {
            "setup_s": out["setup_s"],
            "port": self.live.port,
            "digest": problem_digest(out["problem"]),
        }

    def _boot_spare(self) -> dict:
        async def main() -> float:
            service, _problem, setup_s = await timed_boot(self.build)
            service.request_shutdown()
            await service.run_until_shutdown(install_signals=False)
            return setup_s

        return {"setup_s": asyncio.run(main())}

    def trace(self, on: bool) -> dict:
        if on and not self.tracer.installed:
            self.sessions.append(self._obs.enter_context(collecting()))
            self.tracer.install()
        elif not on and self.tracer.installed:
            self.tracer.uninstall()
            self._obs.close()
        return {"tracing": self.tracer.installed}

    def stop(self) -> dict:
        self.trace(False)
        if self.live is not None:
            assert self.loop and self.thread
            self.loop.call_soon_threadsafe(self.live.request_shutdown)
            self.thread.join(timeout=60.0)
            if self.thread.is_alive():
                raise RuntimeError("live service did not drain within 60 s")
        counters: dict[str, float] = {}
        for session in self.sessions:
            for name, value in session.metrics.counters().items():
                counters[name] = counters.get(name, 0) + value
        return {
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "trace": self.tracer.export(),
            "counters": counters,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--spare", action="store_true", help="every boot is a spare boot")
    args = parser.parse_args(argv)
    launcher = Launcher(args.workload, args.spare)
    reply({"ready": True})
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "boot":
            reply(launcher.boot())
        elif kind == "trace":
            reply(launcher.trace(bool(command["on"])))
        elif kind == "stop":
            reply(launcher.stop())
            return 0
        else:
            reply({"error": f"unknown command {kind!r}"})
            return 2
    return 1


if __name__ == "__main__":
    sys.exit(main())
