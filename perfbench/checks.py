"""Correctness checks: an independent mirror of the service state, the
certificate checks, the batch oracle and the work-determinism record."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.core.assignment import Assignment
from repro.core.problem import MulticastAssociationProblem, Session
from repro.service.control import ControlService
from repro.service.events import Event
from repro.verify import verify_assignment

from workloads import MAX_SHARD_USERS


def certified(
    problem: MulticastAssociationProblem,
    assignment: Assignment | Sequence[int | None],
    objective: str,
) -> bool:
    """True when the assignment certifies for ``objective``."""
    return verify_assignment(problem, assignment, objective, lp_bounds=False).ok


@dataclass
class Mirror:
    """The deployment state an event stream leads to, kept without the
    service's code: last writer wins per user (membership, session) and
    per session (rate, policy), diffed against the current state."""

    base: MulticastAssociationProblem
    user_sessions: list[int] = field(init=False)
    rates: list[float] = field(init=False)
    policies: list[str] = field(init=False)
    active: set[int] = field(init=False)

    def __post_init__(self) -> None:
        self.user_sessions = list(self.base.user_sessions)
        self.rates = [s.rate_mbps for s in self.base.sessions]
        self.policies = list(self.base.session_policies)
        self.active = set(range(self.base.n_users))

    def apply(self, batch: Sequence[Event]) -> dict[str, int]:
        """Apply one tick's batch; returns what the tick must report."""
        member: dict[int, bool] = {}
        moves: dict[int, int] = {}
        rates: dict[int, float] = {}
        policies: dict[int, str] = {}
        for event in batch:
            if event.kind in ("join", "leave"):
                member[event.user] = event.kind == "join"
            elif event.kind == "move":
                moves[event.user] = event.session
            elif event.kind == "rate-change":
                rates[event.session] = event.rate_mbps
            else:
                policies[event.session] = event.policy
        applied = 0
        rebuilt = False
        for session, rate in rates.items():
            if self.rates[session] != rate:
                self.rates[session] = rate
                applied += 1
                rebuilt = True
        for session, policy in policies.items():
            if self.policies[session] != policy:
                self.policies[session] = policy
                applied += 1
                rebuilt = True
        for user, session in moves.items():
            if self.user_sessions[user] != session:
                self.user_sessions[user] = session
                applied += 1
                rebuilt = True
        for user, want in member.items():
            if want != (user in self.active):
                (self.active.add if want else self.active.discard)(user)
                applied += 1
        return {
            "n_events": len(batch),
            "n_applied": applied,
            "n_active": len(self.active),
            "rebuilt": int(rebuilt),
        }

    def problem(self) -> MulticastAssociationProblem:
        sessions = tuple(
            Session(i, rate, s.name)
            for i, (rate, s) in enumerate(zip(self.rates, self.base.sessions))
        )
        return MulticastAssociationProblem(
            self.base.link_rates,
            self.user_sessions,
            sessions,
            self.base.budgets,
            self.policies,
        )


def _rebuilt(report: dict[str, Any]) -> int:
    """1 when the tick rebuilt the problem (a move, rate or policy change)."""
    return int(report["n_moves"] + report["n_rate_changes"] + report["n_policy_changes"] > 0)


def tick_mismatches(expected: dict[str, int], report: dict[str, Any]) -> list[str]:
    """Differences between a tick report and the mirror's expectation."""
    wrong = [
        f"{key}: service {report[key]} != mirror {expected[key]}"
        for key in ("n_events", "n_applied", "n_active")
        if report[key] != expected[key]
    ]
    if _rebuilt(report) != expected["rebuilt"]:
        wrong.append(f"rebuilt: service {_rebuilt(report)} != mirror {expected['rebuilt']}")
    return wrong


def work_counts(report: dict[str, Any]) -> list[int]:
    """The per-tick work a timing could silently depend on."""
    keys = ("n_applied", "n_coalesced", "resolved_shards", "cache_hits", "cache_misses")
    return [int(report[key]) for key in keys] + [_rebuilt(report)]


def final_oracle(mirror: Mirror, published: dict[str, Any]) -> tuple[list[str], float]:
    """Check the published association against the mirror's state.

    Hard checks: the published membership is the mirror's, the association
    certifies on the active sub-instance, and the published objective is
    the total load the certificate re-derives. Equality with a cold
    ``batch_solution()`` is not required; the returned ratio (published
    objective ÷ batch objective) carries that comparison, so a tick that
    trades a little quality for speed is measured against the ratio's
    bound instead of failing the run.
    """
    problem = mirror.problem()
    active = sorted(mirror.active)
    failures = []
    if published["active"] != active:
        failures.append("published membership differs from the mirror")
    sub, keep = problem.restricted_to_users(active)
    ap_map = [published["assignments"].get(str(u)) for u in keep]
    certificate = verify_assignment(sub, ap_map, "mla", lp_bounds=False)
    if not certificate.ok:
        failures.append("published association fails its certificate")
    objective = float(published["objective_value"])
    if not math.isclose(objective, certificate.stats["total_load"], rel_tol=1e-9):
        failures.append(
            f"published objective {objective} != certified total load "
            f"{certificate.stats['total_load']}"
        )
    control = ControlService(
        problem,
        algorithm="mla",
        max_shard_users=MAX_SHARD_USERS,
        initial_active=active,
        solve_on_init=False,
    )
    cold = control.batch_solution()
    control.close()
    return failures, objective / cold.value()


class WorkRecord:
    """The per-tick work of the first run of a seed and program version
    (both in ``key``), kept in the checkout; every later run of that seed
    and version must repeat it exactly."""

    def __init__(self, directory: Path, key: str) -> None:
        self.path = directory / f"work-{key}.json"

    def check(self, ticks: list[list[int]]) -> list[str]:
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(ticks))
            tmp.replace(self.path)
            return []
        first = json.loads(self.path.read_text())
        if first == ticks:
            return []
        if len(first) != len(ticks):
            return [f"{len(ticks)} ticks, first run of this seed had {len(first)}"]
        return [
            f"tick {i}: work {now} != first run {was}"
            for i, (now, was) in enumerate(zip(ticks, first))
            if now != was
        ]
