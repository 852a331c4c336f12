"""Tests for coverage-graph partitioning (components, packing)."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import MulticastAssociationProblem, Session
from repro.engine.partition import (
    Component,
    _merge_components,
    coverage_components,
    plan_shards,
)
from tests.engine.conftest import block_problem


def _problem(rates):
    rates = np.asarray(rates, dtype=float)
    n_users = rates.shape[1]
    return MulticastAssociationProblem(
        rates, [0] * n_users, [Session(0, 1.0)], np.full(rates.shape[0], 0.9)
    )


class TestCoverageComponents:
    def test_two_blocks_split(self):
        problem = _problem(
            [
                [6.0, 12.0, 0.0, 0.0],
                [0.0, 6.0, 0.0, 0.0],
                [0.0, 0.0, 24.0, 6.0],
            ]
        )
        components, isolated, idle = coverage_components(problem)
        assert components == [
            Component(aps=(0, 1), users=(0, 1)),
            Component(aps=(2,), users=(2, 3)),
        ]
        assert isolated == []
        assert idle == []

    def test_isolated_user_and_idle_ap_reported(self):
        problem = _problem(
            [
                [6.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],  # idle AP: hears nobody
            ]
        )
        components, isolated, idle = coverage_components(problem)
        assert components == [Component(aps=(0,), users=(0,))]
        assert isolated == [1, 2]
        assert idle == [1]

    def test_bridging_user_joins_blocks(self):
        # User 1 hears both APs, welding them into one component.
        problem = _problem(
            [
                [6.0, 12.0, 0.0],
                [0.0, 6.0, 24.0],
            ]
        )
        components, _, _ = coverage_components(problem)
        assert components == [Component(aps=(0, 1), users=(0, 1, 2))]

    def test_components_ordered_by_first_ap(self):
        problem = block_problem(3, n_blocks=4)
        components, _, _ = coverage_components(problem)
        firsts = [c.aps[0] for c in components]
        assert firsts == sorted(firsts)
        for component in components:
            assert list(component.aps) == sorted(component.aps)
            assert list(component.users) == sorted(component.users)


class TestPlanShards:
    def test_block_problem_has_block_components(self):
        problem = block_problem(0, n_blocks=5, users_per=6)
        plan = plan_shards(problem)
        assert plan.n_components >= 5
        assert plan.n_shards == plan.n_components
        # Every non-isolated user appears in exactly one shard.
        seen = [u for shard in plan.shards for u in shard.users]
        assert sorted(seen + list(plan.isolated_users)) == list(
            range(problem.n_users)
        )

    def test_merging_respects_cap_and_keeps_everyone(self):
        problem = block_problem(1, n_blocks=6, users_per=4)
        unmerged = plan_shards(problem)
        merged = plan_shards(problem, max_shard_users=8)
        assert merged.n_shards < unmerged.n_shards
        assert merged.n_components == unmerged.n_components
        biggest = max(c.n_users for c in unmerged.shards)
        for shard in merged.shards:
            assert shard.n_users <= max(8, biggest)
        merged_users = sorted(
            u for shard in merged.shards for u in shard.users
        )
        unmerged_users = sorted(
            u for shard in unmerged.shards for u in shard.users
        )
        assert merged_users == unmerged_users

    def test_oversized_component_stays_alone(self):
        problem = block_problem(2, n_blocks=3, users_per=10)
        plan = plan_shards(problem, max_shard_users=1)
        # Nothing fits the cap, so every component stays its own shard.
        assert plan.n_shards == plan.n_components

    def test_lookup_maps(self):
        problem = block_problem(4, n_blocks=3)
        plan = plan_shards(problem)
        user_map = plan.shard_of_user()
        ap_map = plan.shard_of_ap()
        for index, shard in enumerate(plan.shards):
            assert all(user_map[u] == index for u in shard.users)
            assert all(ap_map[a] == index for a in shard.aps)

    def test_bad_cap_rejected(self):
        problem = block_problem(5, n_blocks=2)
        with pytest.raises(ValueError):
            plan_shards(problem, max_shard_users=0)


def _reference_components(rates):
    """BFS over the AP-user graph: (components, isolated users, idle APs)."""
    n_aps, n_users = rates.shape
    seen_aps: set[int] = set()
    components = []
    for start in range(n_aps):
        if start in seen_aps or not (rates[start] > 0).any():
            continue
        aps, users, queue = {start}, set(), deque([start])
        while queue:
            ap = queue.popleft()
            for user in range(n_users):
                if rates[ap, user] > 0 and user not in users:
                    users.add(user)
                    for other in range(n_aps):
                        if rates[other, user] > 0 and other not in aps:
                            aps.add(other)
                            queue.append(other)
        seen_aps |= aps
        components.append(Component(tuple(sorted(aps)), tuple(sorted(users))))
    isolated = [u for u in range(n_users) if not (rates[:, u] > 0).any()]
    idle = [a for a in range(n_aps) if not (rates[a] > 0).any()]
    return components, isolated, idle


@st.composite
def rate_matrices(draw):
    """Sparse, empty or full rate matrices, some rows and columns zeroed."""
    n_aps = draw(st.integers(min_value=1, max_value=6))
    n_users = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(("full", "empty", "sparse")))
    if kind == "full":
        return np.full((n_aps, n_users), 12.0)
    if kind == "empty":
        return np.zeros((n_aps, n_users))
    links = draw(
        st.lists(
            st.sampled_from((0.0, 0.0, 0.0, 6.0, 24.0)),
            min_size=n_aps * n_users,
            max_size=n_aps * n_users,
        )
    )
    rates = np.array(links).reshape(n_aps, n_users)
    rates[sorted(draw(st.sets(st.integers(0, n_aps - 1)))), :] = 0.0
    rates[:, sorted(draw(st.sets(st.integers(0, n_users - 1))))] = 0.0
    return rates


class TestDifferentialAgainstBfs:
    @settings(max_examples=300, deadline=None)
    @given(rates=rate_matrices(), cap=st.integers(min_value=1, max_value=8))
    def test_components_and_plans_match_reference(self, rates, cap):
        problem = _problem(rates)
        components, isolated, idle = _reference_components(rates)
        assert coverage_components(problem) == (components, isolated, idle)
        for plan, shards in (
            (plan_shards(problem), components),
            (
                plan_shards(problem, max_shard_users=cap),
                _merge_components(components, cap),
            ),
        ):
            assert plan.shards == tuple(shards)
            assert plan.isolated_users == tuple(isolated)
            assert plan.idle_aps == tuple(idle)
            assert plan.n_components == len(components)
