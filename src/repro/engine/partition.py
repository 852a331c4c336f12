"""Coverage-graph partitioning — the decomposition the sharded engine rests on.

A user can only ever associate with an AP whose coverage reaches it, so the
bipartite *candidate graph* (APs on one side, users on the other, an edge
wherever ``link_rate > 0``) fully determines which parts of a deployment can
interact. Its connected components are mutually independent sub-instances:
no assignment, load, or budget of one component can influence another. The
engine therefore solves components separately — and, because the paper's
greedy algorithms pick by per-set cost-effectiveness and per-AP budgets,
the component-wise runs reproduce the monolithic runs *exactly* (see
``repro.engine.executor`` for where the two genuinely global decisions, the
H1/H2 split and the B* search, are re-applied across shards).

Components are labelled by ``scipy.sparse.csgraph.connected_components``
over the ``n_aps + n_users`` nodes of the candidate graph, in array
operations on ``link_rates > 0``. Link rates never change for a problem
the engine keeps (``ShardedEngine.swap_problem`` rejects new ones), so the
engine plans once, at construction, and only re-slices shards on a swap.
Tiny components (common in sparse or federated deployments) can optionally
be merged into balanced shards under a user-count cap — merging is still
lossless, since a shard containing several components just runs their
independent solves interleaved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.problem import MulticastAssociationProblem


@dataclass(frozen=True)
class Component:
    """One connected component of the candidate graph."""

    aps: tuple[int, ...]
    users: tuple[int, ...]

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_aps(self) -> int:
        return len(self.aps)


@dataclass(frozen=True)
class ShardPlan:
    """The engine's decomposition of one problem instance.

    ``shards`` lists the (AP set, user set) of every shard — each shard is a
    union of one or more coverage components. ``isolated_users`` can hear no
    AP at all (MNU leaves them unserved; BLA/MLA reject the instance), and
    ``idle_aps`` cover no user and so can never carry multicast load.
    """

    shards: tuple[Component, ...]
    isolated_users: tuple[int, ...]
    idle_aps: tuple[int, ...]
    n_components: int

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def shard_of_user(self) -> dict[int, int]:
        """user -> shard index (isolated users absent)."""
        return {
            user: index
            for index, shard in enumerate(self.shards)
            for user in shard.users
        }

    def shard_of_ap(self) -> dict[int, int]:
        """AP -> shard index (idle APs absent)."""
        return {
            ap: index
            for index, shard in enumerate(self.shards)
            for ap in shard.aps
        }


def coverage_components(
    problem: MulticastAssociationProblem,
) -> tuple[list[Component], list[int], list[int]]:
    """Connected components of the AP–user candidate graph.

    Returns ``(components, isolated_users, idle_aps)``. Components are
    ordered by their smallest AP index; AP and user lists inside each are
    ascending, so downstream index remaps preserve the monolithic orderings
    the solvers' tie-breaks depend on.
    """
    cover = problem.link_rates > 0
    n_aps = problem.n_aps
    # Bipartite graph on n_aps + n_users nodes: AP a is node a, user u is
    # node n_aps + u. A symmetric adjacency needs only the AP->user edges.
    ap_idx, user_idx = np.nonzero(cover)
    n_nodes = n_aps + problem.n_users
    graph = coo_matrix(
        (np.ones(len(ap_idx), dtype=np.int8), (ap_idx, n_aps + user_idx)),
        shape=(n_nodes, n_nodes),
    )
    labels = connected_components(graph, directed=False)[1].tolist()

    ap_has_edge = cover.any(axis=1)
    user_has_edge = cover.any(axis=0)
    members: dict[int, tuple[list[int], list[int]]] = {}
    for ap in np.flatnonzero(ap_has_edge).tolist():
        members.setdefault(labels[ap], ([], []))[0].append(ap)
    for user in np.flatnonzero(user_has_edge).tolist():
        members[labels[n_aps + user]][1].append(user)

    # Members are collected in ascending index order, and a component is
    # first seen at its smallest AP (every covered user's component holds
    # one), so the dict is already ordered by smallest AP.
    components = [
        Component(aps=tuple(aps), users=tuple(users))
        for aps, users in members.values()
    ]
    isolated_users = np.flatnonzero(~user_has_edge).tolist()
    idle_aps = np.flatnonzero(~ap_has_edge).tolist()
    return components, isolated_users, idle_aps


def _merge_components(
    components: list[Component], max_shard_users: int
) -> list[Component]:
    """First-fit-decreasing packing of components into capped shards.

    Components above the cap stay alone (splitting them would not be
    lossless); the effective capacity is therefore the larger of the cap
    and the biggest component.
    """
    if max_shard_users <= 0:
        raise ValueError("max_shard_users must be positive")
    capacity = max(
        max_shard_users, max((c.n_users for c in components), default=0)
    )
    bins: list[tuple[list[int], list[int], int]] = []  # (aps, users, used)
    for component in sorted(
        components, key=lambda c: (-c.n_users, c.aps[0])
    ):
        placed = False
        for index, (aps, users, used) in enumerate(bins):
            if used + component.n_users <= capacity:
                aps.extend(component.aps)
                users.extend(component.users)
                bins[index] = (aps, users, used + component.n_users)
                placed = True
                break
        if not placed:
            bins.append(
                (list(component.aps), list(component.users), component.n_users)
            )
    merged = [
        Component(aps=tuple(sorted(aps)), users=tuple(sorted(users)))
        for aps, users, _ in bins
    ]
    merged.sort(key=lambda c: c.aps[0])
    return merged


def plan_shards(
    problem: MulticastAssociationProblem,
    *,
    max_shard_users: int | None = None,
) -> ShardPlan:
    """Partition ``problem`` into solve shards.

    With ``max_shard_users=None`` every coverage component becomes its own
    shard (maximal parallelism); with a cap, small components are packed
    into balanced shards of at most that many users (fewer, beefier solver
    invocations — better when per-task overhead dominates).
    """
    components, isolated_users, idle_aps = coverage_components(problem)
    shards = (
        _merge_components(components, max_shard_users)
        if max_shard_users is not None
        else components
    )
    return ShardPlan(
        shards=tuple(shards),
        isolated_users=tuple(isolated_users),
        idle_aps=tuple(idle_aps),
        n_components=len(components),
    )
