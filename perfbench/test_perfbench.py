"""Self-test of the benchmark at tiny sizes (seconds long).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checkout  # noqa: E402

checkout.require_repro()

from repro.engine import ShardedEngine  # noqa: E402
from repro.verify import verify_assignment  # noqa: E402

from checks import Mirror, WorkRecord, certified, final_oracle  # noqa: E402
from hostspeed import REFERENCE_S, HostSpeed  # noqa: E402
from workloads import MAX_SHARD_USERS, TINY_WORKLOADS  # noqa: E402

SPEC = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = checkout.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", sorted(TINY_WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload: str, trace: str) -> None:
    done = bench("--workload", workload, "--seed", "3", "--seconds", "10", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace == "0":
        assert result["metrics"]["objective_ratio"]["value"] == 1.0


def test_the_workloads_match_the_spec() -> None:
    from workloads import WORKLOADS

    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def tiny_problem():
    return TINY_WORKLOADS["tiny-dense"].deployment()


@pytest.mark.parametrize("objective", ["mnu", "mla", "bla"])
def test_certificate_rejects_a_corrupted_assignment(objective: str) -> None:
    problem = tiny_problem()
    with ShardedEngine(problem, max_shard_users=MAX_SHARD_USERS) as engine:
        solution = engine.solve(objective)
    assert certified(problem, solution.assignment, objective)
    corrupted = list(solution.assignment.ap_of_user)
    user = next(u for u, ap in enumerate(corrupted) if ap is not None)
    out_of_range = [ap for ap in range(problem.n_aps) if not problem.in_range(ap, user)]
    corrupted[user] = out_of_range[0] if out_of_range else problem.n_aps
    assert not certified(problem, corrupted, objective)


def published_after_one_batch():
    problem = tiny_problem()
    mirror = Mirror(problem)
    batch = TINY_WORKLOADS["tiny-dense"].batches(problem, 5, rounds=2)[0]
    mirror.apply(batch)
    with ShardedEngine(mirror.problem(), max_shard_users=MAX_SHARD_USERS) as engine:
        engine.set_active(mirror.active)
        solution = engine.solve("mla")
    active = sorted(mirror.active)
    published = {
        "active": active,
        "assignments": {str(u): solution.assignment.ap_of_user[u] for u in active},
        "objective_value": solution.value(),
    }
    return mirror, published


def test_oracle_rejects_a_corrupted_published_association() -> None:
    mirror, published = published_after_one_batch()
    failures, ratio = final_oracle(mirror, published)
    assert failures == [] and ratio == 1.0
    published["assignments"][str(published["active"][0])] = None
    failures, _ = final_oracle(mirror, published)
    assert failures


def test_oracle_rejects_a_misreported_objective() -> None:
    mirror, published = published_after_one_batch()
    published["objective_value"] *= 0.9
    failures, _ = final_oracle(mirror, published)
    assert any("objective" in f for f in failures)


def test_a_valid_but_worse_association_moves_the_ratio() -> None:
    mirror, published = published_after_one_batch()
    problem = mirror.problem()
    assignments = published["assignments"]
    # Move one user to another AP in range: still a valid cover, not the
    # batch solution, so the ratio (not a failure) reports the difference.
    user, ap = next(
        (u, other)
        for u in published["active"]
        for other in range(problem.n_aps)
        if other != assignments[str(u)] and problem.in_range(other, u)
    )
    assignments[str(user)] = ap
    sub, keep = problem.restricted_to_users(published["active"])
    ap_map = [assignments[str(u)] for u in keep]
    published["objective_value"] = verify_assignment(
        sub, ap_map, "mla", lp_bounds=False
    ).stats["total_load"]
    failures, ratio = final_oracle(mirror, published)
    assert failures == []
    assert ratio >= 1.0


def test_work_record_flags_different_work(tmp_path: Path) -> None:
    record = WorkRecord(tmp_path, "w")
    assert record.check([[1, 2], [3, 4]]) == []
    assert record.check([[1, 2], [3, 4]]) == []
    assert record.check([[1, 2], [3, 5]]) != []


def test_program_digest_follows_file_content(tmp_path: Path) -> None:
    program = tmp_path / "repro"
    (program / "__pycache__").mkdir(parents=True)
    (program / "a.py").write_text("x = 1\n")
    paths = (program,)
    first = checkout.program_digest(paths)
    (program / "__pycache__" / "a.pyc").write_bytes(b"cache")
    assert checkout.program_digest(paths) == first
    (program / "a.py").write_text("x = 2\n")
    assert checkout.program_digest(paths) != first


def test_host_speed_scales_by_the_nearest_probes() -> None:
    host = HostSpeed()
    # probes at t = 0..9; the host is twice as slow from t = 5 on
    host.at = [float(t) for t in range(10)]
    host.took = [REFERENCE_S] * 5 + [2 * REFERENCE_S] * 5
    assert host.scale(1.0) == 1.0
    assert host.scale(8.0) == 0.5
    host.probe()
    assert len(host.at) == 11 and host.took[-1] > 0


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(checkout.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "dense", "--seed", "1", "--seconds", "30", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
