"""Centralized MLA — minimize the total multicast load (paper Section 6.1).

Reduces the instance to weighted set cover (Theorem 5): ground set = users,
one set per (AP, session, rate) with cost ``session_rate / rate``, no
groups. Solves with the ``CostSC`` greedy — an ``(ln n + 1)``-approximation
(Theorem 6). Budgets are ignored (the paper's MLA setting assumes all users
can and must be served).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import instrument
from repro.core.assignment import Assignment, from_selected_sets
from repro.core.candidates import build_candidates, build_family
from repro.core.errors import CoverageError
from repro.core.problem import MulticastAssociationProblem
from repro.core.setcover import (
    SetCoverResult,
    greedy_set_cover,
    greedy_set_cover_flat,
)
from repro.vec import strategy as vec_strategy


@dataclass(frozen=True)
class MlaSolution:
    """An MLA assignment plus the set-cover trace."""

    assignment: Assignment
    cover: SetCoverResult

    @property
    def total_load(self) -> float:
        return self.assignment.total_load()


def solve_mla(
    problem: MulticastAssociationProblem,
    *,
    strategy: str | None = None,
) -> MlaSolution:
    """Run Centralized MLA; raises :class:`CoverageError` for isolated users.

    ``strategy`` forces the scalar or vector hot-path implementation
    (``None`` picks by instance size); both are bit-identical.
    """
    isolated = problem.isolated_users()
    if isolated:
        raise CoverageError(isolated)
    resolved = vec_strategy.resolve_strategy(
        problem.n_users * max(problem.n_aps, 1), override=strategy
    )
    with instrument.span(
        "mla.solve", n_users=problem.n_users, n_aps=problem.n_aps
    ):
        if resolved == vec_strategy.VECTOR:
            if instrument.enabled():
                instrument.incr("mla.strategy_switches")
            family = build_family(problem, strategy=vec_strategy.VECTOR)
            chosen, total_cost = greedy_set_cover_flat(family)
            cover = SetCoverResult(
                selected=tuple(family.candidate(k) for k in chosen),
                total_cost=total_cost,
            )
        else:
            candidates = build_candidates(problem)
            ground = set(range(problem.n_users))
            cover = greedy_set_cover(candidates, ground)
        assignment = from_selected_sets(
            problem,
            ((c.ap, c.session, c.tx_rate, c.users) for c in cover.selected),
            strategy=resolved,
        )
        # Feasibility wrt range/rates only: MLA has no budget constraint.
        assignment.validate(check_budgets=False)
    if instrument.enabled():
        instrument.incr("mla.solves")
        instrument.incr("mla.cover_sets", len(cover.selected))
        instrument.gauge("mla.n_served", float(assignment.n_served))
        instrument.gauge("mla.total_load", assignment.total_load())
        instrument.gauge("mla.max_load", assignment.max_load())
    return MlaSolution(assignment=assignment, cover=cover)
