"""Candidate-set construction — the reduction shared by MNU, BLA and MLA.

Sections 4–6 of the paper reduce all three problems to covering problems
over the same family of sets: for every (AP ``a``, session ``s``, transmit
rate ``r``) the set of users requesting ``s`` whose link rate to ``a`` is at
least ``r``, with cost ``rate(s) / r``. Sets belonging to one AP form that
AP's *group* (for the group-budget problems).

Only transmit rates equal to some user's link rate are useful: any rate
strictly between two consecutive link-rate values covers the same users as
the next link-rate value up, at strictly higher cost. ``build_candidates``
therefore emits one set per distinct link-rate value by default, which is a
lossless pruning; ``prune=False`` emits one set per rate-table value instead
(matching the paper's raw construction, used in tests).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core import instrument
from repro.core.ledger import policy_airtime
from repro.core.problem import TX_LEGACY, MulticastAssociationProblem
from repro.vec import strategy as vec_strategy


@dataclass(frozen=True, slots=True)
class CandidateSet:
    """One (AP, session, rate) covering set of the reduction."""

    ap: int
    session: int
    tx_rate: float
    cost: float
    users: frozenset[int]

    def __post_init__(self) -> None:
        if self.tx_rate <= 0:
            raise ValueError("tx rate must be positive")
        if self.cost <= 0:
            raise ValueError("cost must be positive")
        if not self.users:
            raise ValueError("a candidate set must cover at least one user")

    @property
    def size(self) -> int:
        return len(self.users)

    def __repr__(self) -> str:
        return (
            f"CandidateSet(ap={self.ap}, session={self.session}, "
            f"rate={self.tx_rate:g}, cost={self.cost:.4f}, "
            f"users={sorted(self.users)})"
        )


def build_candidates(
    problem: MulticastAssociationProblem,
    *,
    prune: bool = True,
    rate_grid: Sequence[float] | None = None,
) -> list[CandidateSet]:
    """All candidate sets of the reduction, grouped implicitly by AP.

    With ``prune=True`` (default) the transmit rates considered at an AP for
    a session are exactly the distinct link rates of that session's in-range
    users — the lossless pruning described above. With ``prune=False`` and a
    ``rate_grid`` (e.g. the 802.11a table rates) a set is emitted for every
    grid rate that at least one user can decode.
    """
    candidates: list[CandidateSet] = []
    for ap in range(problem.n_aps):
        for session in range(problem.n_sessions):
            listeners = [
                (problem.link_rate(ap, u), u)
                for u in problem.users_of_session(session)
                if problem.in_range(ap, u)
            ]
            if not listeners:
                continue
            if prune:
                rates: Iterable[float] = sorted({rate for rate, _ in listeners})
            else:
                if rate_grid is None:
                    raise ValueError("prune=False requires a rate_grid")
                max_link = max(rate for rate, _ in listeners)
                rates = [r for r in rate_grid if r <= max_link]
            policy = problem.policy_of(session)
            for tx_rate in rates:
                users = frozenset(u for rate, u in listeners if rate >= tx_rate)
                if not users:
                    continue
                if policy == TX_LEGACY:
                    cost = problem.transmission_cost(session, tx_rate)
                else:
                    cost = policy_airtime(
                        policy,
                        problem.session_rate(session),
                        [rate for rate, _ in listeners if rate >= tx_rate],
                    )
                candidates.append(
                    CandidateSet(
                        ap=ap,
                        session=session,
                        tx_rate=tx_rate,
                        cost=cost,
                        users=users,
                    )
                )
    return candidates


class CandidateFamily:
    """The flat (array-backed) twin of a ``list[CandidateSet]``.

    Per-candidate attributes live in parallel stdlib arrays (``'q'`` =
    int64, ``'d'`` = float64) and session membership in one CSR table:
    candidate ``k`` covers ``members[offsets[k]:offsets[k+1]]``, always
    ascending. The numpy backend (:mod:`repro.vec.backend`) views the
    same buffers zero-copy.

    A family built by :func:`build_family` enumerates candidates in
    exactly :func:`build_candidates`' order, carries bit-identical costs
    and rates, and :meth:`to_candidate_sets` round-trips to the scalar
    representation — the equivalence the differential tests pin down.
    """

    __slots__ = (
        "n_users",
        "n_aps",
        "ap",
        "session",
        "tx_rate",
        "cost",
        "offsets",
        "members",
        "_incidence",
    )

    def __init__(
        self,
        *,
        n_users: int,
        n_aps: int,
        ap: array,
        session: array,
        tx_rate: array,
        cost: array,
        offsets: array,
        members: array,
    ) -> None:
        self.n_users = n_users
        self.n_aps = n_aps
        self.ap = ap
        self.session = session
        self.tx_rate = tx_rate
        self.cost = cost
        self.offsets = offsets
        self.members = members
        self._incidence: tuple[array, array] | None = None

    @property
    def n_candidates(self) -> int:
        return len(self.ap)

    def __len__(self) -> int:
        return len(self.ap)

    def members_of(self, k: int) -> array:
        """Candidate ``k``'s covered users, ascending (a fresh array)."""
        return self.members[self.offsets[k] : self.offsets[k + 1]]

    def member_count(self, k: int) -> int:
        return self.offsets[k + 1] - self.offsets[k]

    def incidence(self) -> tuple[array, array]:
        """The inverted CSR: user ``u`` is covered by candidates
        ``inc_candidates[inc_offsets[u]:inc_offsets[u+1]]``, ascending.

        Built lazily with a counting sort that walks candidates in index
        order, so per-user candidate lists come out ascending — the order
        the greedy tie-break contract requires.
        """
        if self._incidence is None:
            counts = [0] * self.n_users
            for user in self.members:
                counts[user] += 1
            inc_offsets = array("q", [0] * (self.n_users + 1))
            total = 0
            for user in range(self.n_users):
                inc_offsets[user] = total
                total += counts[user]
            inc_offsets[self.n_users] = total
            cursor = list(inc_offsets[: self.n_users])
            inc_candidates = array("q", [0] * total)
            offsets, members = self.offsets, self.members
            for k in range(len(self.ap)):
                for i in range(offsets[k], offsets[k + 1]):
                    user = members[i]
                    inc_candidates[cursor[user]] = k
                    cursor[user] += 1
            self._incidence = (inc_offsets, inc_candidates)
        return self._incidence

    def candidate(self, k: int) -> CandidateSet:
        """Materialize candidate ``k`` as a classic :class:`CandidateSet`."""
        return CandidateSet(
            ap=self.ap[k],
            session=self.session[k],
            tx_rate=self.tx_rate[k],
            cost=self.cost[k],
            users=frozenset(self.members_of(k)),
        )

    def to_candidate_sets(self) -> list[CandidateSet]:
        """The scalar representation, in family order."""
        return [self.candidate(k) for k in range(len(self.ap))]

    @classmethod
    def from_candidates(
        cls,
        candidates: Sequence[CandidateSet],
        *,
        n_users: int,
        n_aps: int,
    ) -> "CandidateFamily":
        """Flatten a scalar candidate list (order preserved, members sorted)."""
        ap = array("q", (c.ap for c in candidates))
        session = array("q", (c.session for c in candidates))
        tx_rate = array("d", (c.tx_rate for c in candidates))
        cost = array("d", (c.cost for c in candidates))
        offsets = array("q", [0] * (len(candidates) + 1))
        members = array("q")
        total = 0
        for k, candidate in enumerate(candidates):
            offsets[k] = total
            ordered = sorted(candidate.users)
            members.extend(ordered)
            total += len(ordered)
        offsets[len(candidates)] = total
        return cls(
            n_users=n_users,
            n_aps=n_aps,
            ap=ap,
            session=session,
            tx_rate=tx_rate,
            cost=cost,
            offsets=offsets,
            members=members,
        )


def _build_family_numpy(
    problem: MulticastAssociationProblem,
    *,
    prune: bool,
    rate_grid: Sequence[float] | None,
) -> CandidateFamily:
    """Blockwise construction of the family on the numpy backend.

    Mirrors :func:`build_candidates` exactly: same (AP asc, session asc,
    rate asc) enumeration, same float comparisons on the same values and
    the same per-candidate cost expression — so the emitted family is
    bit-identical to the scalar construction.
    """
    rates = problem.link_rates
    session_users = [
        np.asarray(problem.users_of_session(s), dtype=np.int64)
        for s in range(problem.n_sessions)
    ]
    ap_col: list[int] = []
    session_col: list[int] = []
    tx_col: list[float] = []
    cost_col: list[float] = []
    member_chunks: list[np.ndarray] = []
    lengths: list[int] = []
    for ap in range(problem.n_aps):
        row = rates[ap]
        for session in range(problem.n_sessions):
            users = session_users[session]
            if users.size == 0:
                continue
            link = row[users]
            heard = link > 0
            if not heard.any():
                continue
            listeners = users[heard]
            listener_rates = link[heard]
            if prune:
                tx_rates = np.unique(listener_rates)
            else:
                if rate_grid is None:
                    raise ValueError("prune=False requires a rate_grid")
                max_link = listener_rates.max()
                tx_rates = np.asarray(
                    [r for r in rate_grid if r <= max_link], dtype=np.float64
                )
            policy = problem.policy_of(session)
            for tx in tx_rates:
                keep = listener_rates >= tx
                covered = listeners[keep]
                if covered.size == 0:
                    continue
                if policy == TX_LEGACY:
                    cand_cost = problem.transmission_cost(session, float(tx))
                else:
                    cand_cost = policy_airtime(
                        policy,
                        problem.session_rate(session),
                        [float(r) for r in listener_rates[keep]],
                    )
                ap_col.append(ap)
                session_col.append(session)
                tx_col.append(float(tx))
                cost_col.append(cand_cost)
                member_chunks.append(covered)
                lengths.append(int(covered.size))
    offsets = array("q", [0] * (len(lengths) + 1))
    total = 0
    for k, length in enumerate(lengths):
        offsets[k] = total
        total += length
    offsets[len(lengths)] = total
    members = array("q")
    if member_chunks:
        flat = np.concatenate(member_chunks)
        members.frombytes(flat.astype(np.int64, copy=False).tobytes())
    return CandidateFamily(
        n_users=problem.n_users,
        n_aps=problem.n_aps,
        ap=array("q", ap_col),
        session=array("q", session_col),
        tx_rate=array("d", tx_col),
        cost=array("d", cost_col),
        offsets=offsets,
        members=members,
    )


def build_family(
    problem: MulticastAssociationProblem,
    *,
    prune: bool = True,
    rate_grid: Sequence[float] | None = None,
    strategy: str | None = None,
) -> CandidateFamily:
    """Array-backed candidate construction with the dual-strategy switch.

    The scalar strategy flattens :func:`build_candidates`' output; the
    vector strategy builds the same arrays blockwise on the numpy backend.
    Both yield identical families — candidates in the same order with the
    same float rates/costs and the same ascending member lists.
    ``strategy`` overrides the auto switch on ``n_users * n_aps``.
    """
    resolved = vec_strategy.resolve_strategy(
        problem.n_users * max(problem.n_aps, 1), override=strategy
    )
    if resolved == vec_strategy.VECTOR:
        if instrument.enabled():
            instrument.incr("candidates.strategy_switches")
        return _build_family_numpy(problem, prune=prune, rate_grid=rate_grid)
    return CandidateFamily.from_candidates(
        build_candidates(problem, prune=prune, rate_grid=rate_grid),
        n_users=problem.n_users,
        n_aps=problem.n_aps,
    )


def group_by_ap(
    candidates: Iterable[CandidateSet], n_aps: int
) -> list[list[CandidateSet]]:
    """Partition candidates into the per-AP groups of the MCG/SCG reductions."""
    groups: list[list[CandidateSet]] = [[] for _ in range(n_aps)]
    for candidate in candidates:
        groups[candidate.ap].append(candidate)
    return groups


def coverable_users(candidates: Iterable[CandidateSet]) -> set[int]:
    """Users appearing in at least one candidate set."""
    covered: set[int] = set()
    for candidate in candidates:
        covered |= candidate.users
    return covered


def restrict_to_users(
    candidates: Iterable[CandidateSet],
    users: set[int],
    *,
    problem: MulticastAssociationProblem | None = None,
) -> list[CandidateSet]:
    """Candidates intersected with ``users``; empty intersections dropped.

    Used by the iterated-MNU loop of Centralized BLA, which removes covered
    elements from the ground set between iterations. Under the legacy
    policy a set's cost depends only on its transmit rate, so the cost is
    carried over unchanged. Non-legacy costs depend on the member multiset;
    pass ``problem`` to re-price shrunk sets under the session's policy
    (legacy candidates are still carried over bit-identically).
    """
    restricted: list[CandidateSet] = []
    for candidate in candidates:
        remaining = candidate.users & users
        if not remaining:
            continue
        cost = candidate.cost
        if problem is not None and len(remaining) < len(candidate.users):
            policy = problem.policy_of(candidate.session)
            if policy != TX_LEGACY:
                cost = policy_airtime(
                    policy,
                    problem.session_rate(candidate.session),
                    [problem.link_rate(candidate.ap, u) for u in sorted(remaining)],
                )
        restricted.append(
            CandidateSet(
                ap=candidate.ap,
                session=candidate.session,
                tx_rate=candidate.tx_rate,
                cost=cost,
                users=frozenset(remaining),
            )
        )
    return restricted
