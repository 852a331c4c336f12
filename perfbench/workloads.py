"""Workload definitions: pinned deployments and seeded churn batches.

Every input the benchmark feeds the program comes from here. The
deployment of a workload is pinned (generated from
:data:`DEPLOYMENT_SEED`), because solve cost varies widely between
random deployments of one size (cold BLA by 50%), which would drown a
regression in seed-to-seed noise. The churn stream is a pure function of
the ``--seed`` argument, so two runs of one seed replay byte-identical
inputs. The program never sees the seed, only the generated deployment
and events.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

import repro.scenarios.federation as federation
import repro.scenarios.largescale as largescale
from repro.core.problem import MulticastAssociationProblem
from repro.service.driver import generate_event_stream
from repro.service.events import Event

#: Events per ``POST /events?wait=1``; every tick applies exactly one batch.
BATCH_SIZE = 64
#: The engine's component-packing cap, as the service bench runs it.
MAX_SHARD_USERS = 64
#: The service's tick interval: short, so ticks are solver-bound.
TICK_INTERVAL_S = 0.005
#: Rounds per run = run seconds // this (at least two).
SECONDS_PER_ROUND = 5
#: The seed every deployment is generated from.
DEPLOYMENT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One input family: a deployment, a churn mix and a round shape."""

    name: str
    deployment: Callable[[], MulticastAssociationProblem]
    #: (problem, seed, n_events) -> the churn stream.
    stream: Callable[[MulticastAssociationProblem, int, int], list[Event]]
    #: Timed ticks per round (each followed by one ``GET /assignments``).
    ticks_per_round: int
    #: Cold MNU and MLA solves per round (each).
    fast_solves_per_round: int
    #: Cold BLA solves per round (slower: 1.3-1.6 s federated, 2-2.5 s dense).
    bla_solves_per_round: int
    #: Timed boots per round; ``setup_s`` is their median over the run.
    boots_per_round: int
    batch_size: int = BATCH_SIZE

    def rounds(self, seconds: int) -> int:
        return max(2, seconds // SECONDS_PER_ROUND)

    def batches(
        self, problem: MulticastAssociationProblem, seed: int, rounds: int
    ) -> list[list[Event]]:
        """The warm-up batch plus ``ticks_per_round`` batches per round."""
        n_batches = 1 + rounds * self.ticks_per_round
        events = self.stream(problem, seed, n_batches * self.batch_size)
        size = self.batch_size
        return [events[i : i + size] for i in range(0, len(events), size)]


def default_mix(
    problem: MulticastAssociationProblem, seed: int, n_events: int
) -> list[Event]:
    """``generate_event_stream``'s default mix: 10% session moves, 2% rate
    changes, joins and leaves for the rest."""
    return generate_event_stream(
        problem.n_users, problem.n_sessions, n_events, seed=seed
    )


def membership_toggles(
    problem: MulticastAssociationProblem, seed: int, n_events: int
) -> list[Event]:
    """Joins and leaves only: each event flips a uniformly drawn user.

    Unlike a join/leave coin, whose inactive pool is a random walk (and
    with it the share of events that coalesce), flipping random users
    relaxes every seed to the same half-active state, so all seeds do
    nearly the same work per tick.
    """
    rng = random.Random(seed)
    active = [True] * problem.n_users
    events = []
    for _ in range(n_events):
        user = rng.randrange(problem.n_users)
        events.append(Event(kind="leave" if active[user] else "join", user=user))
        active[user] = not active[user]
    return events


def _dense(n_users: int, n_aps: int, n_sessions: int):
    def build() -> MulticastAssociationProblem:
        return largescale.generate_largescale(
            n_users=n_users,
            n_aps=n_aps,
            n_sessions=n_sessions,
            seed=DEPLOYMENT_SEED,
        )

    return build


def _federated(clusters: int, aps: int, users: int, n_sessions: int):
    def build() -> MulticastAssociationProblem:
        return federation.generate_federation(
            n_clusters=clusters,
            aps_per_cluster=aps,
            users_per_cluster=users,
            n_sessions=n_sessions,
            seed=DEPLOYMENT_SEED,
        ).problem()

    return build


#: The measured workloads (named in BENCHMARK.json).
WORKLOADS: dict[str, Workload] = {
    "dense": Workload(
        name="dense",
        deployment=_dense(3000, 100, 8),
        stream=default_mix,
        ticks_per_round=17,
        fast_solves_per_round=6,
        bla_solves_per_round=2,
        boots_per_round=4,
    ),
    "federated": Workload(
        name="federated",
        deployment=_federated(64, 4, 50, 5),
        stream=membership_toggles,
        ticks_per_round=30,
        fast_solves_per_round=5,
        bla_solves_per_round=2,
        boots_per_round=2,
    ),
}

#: Seconds-long versions of the same shapes, for the self-test.
TINY_WORKLOADS: dict[str, Workload] = {
    "tiny-dense": Workload(
        name="tiny-dense",
        deployment=_dense(80, 9, 3),
        stream=default_mix,
        ticks_per_round=3,
        fast_solves_per_round=1,
        bla_solves_per_round=1,
        boots_per_round=2,
        batch_size=8,
    ),
    "tiny-federated": Workload(
        name="tiny-federated",
        deployment=_federated(4, 2, 10, 3),
        stream=membership_toggles,
        ticks_per_round=3,
        fast_solves_per_round=1,
        bla_solves_per_round=1,
        boots_per_round=2,
        batch_size=8,
    ),
}

ALL_WORKLOADS: dict[str, Workload] = {**WORKLOADS, **TINY_WORKLOADS}


def problem_digest(problem: MulticastAssociationProblem) -> str:
    """A content hash of a deployment, to check both processes agree."""
    h = hashlib.sha256()
    h.update(problem.link_rates.tobytes())
    h.update(problem.budgets.tobytes())
    h.update(repr(problem.user_sessions).encode())
    h.update(repr([s.rate_mbps for s in problem.sessions]).encode())
    h.update(repr(problem.session_policies).encode())
    return h.hexdigest()
