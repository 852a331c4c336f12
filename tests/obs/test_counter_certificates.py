"""Reported load gauges agree with independently-derived certificates.

For c-mnu / c-bla / c-mla on every fuzz-corpus scenario (plus a few
random abstract instances), the ``<solver>.total_load`` /
``<solver>.max_load`` / ``<solver>.n_served`` gauges written by the
instrumented solvers must equal the loads
:func:`repro.verify.certificates.verify_assignment` re-derives from raw
problem data. A drift here means the observability layer is reporting a
different solution than the one actually produced.

The same holds for every centralized (``c-*``) and sharded-engine
(``e-*``) cell of the quick bench: an engine solve must report the
stitched solution, not whichever shard happened to be solved last.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import pytest

from repro import obs
from repro.core.bla import solve_bla
from repro.core.mla import solve_mla
from repro.core.mnu import solve_mnu
from repro.eval.metrics import ALGORITHMS, split_policy_suffix
from repro.obs.bench import QUICK_ALGORITHMS, bench_scenarios
from repro.verify.certificates import verify_assignment
from repro.verify.fuzz import CORPUS_KIND, load_corpus_entry

from tests.conftest import random_problem

CORPUS_DIR = Path(__file__).parent.parent / "corpus"


def _is_fuzz_entry(path: Path) -> bool:
    with path.open() as fh:
        return json.load(fh).get("kind") == CORPUS_KIND


CORPUS = [p for p in sorted(CORPUS_DIR.glob("*.json")) if _is_fuzz_entry(p)]

SOLVERS = {
    "c-mnu": ("mnu", lambda p: solve_mnu(p).assignment),
    "c-bla": ("bla", lambda p: solve_bla(p).assignment),
    "c-mla": ("mla", lambda p: solve_mla(p).assignment),
}


def corpus_problems():
    assert CORPUS, "fuzz corpus should hold at least the pinned scenarios"
    return [
        (path.stem, load_corpus_entry(str(path))[1].problem())
        for path in CORPUS
    ]


def random_problems(n: int = 4):
    rng = random.Random(1234)
    return [
        (f"random-{i}", random_problem(rng, n_users=10, budget=math.inf))
        for i in range(n)
    ]


def assert_gauges_match_certificate(prefix, problem, assignment, gauges):
    certificate = verify_assignment(
        problem, assignment, prefix, lp_bounds=False
    )
    assert certificate.ok, [str(v) for v in certificate.violations]
    assert gauges[f"{prefix}.total_load"] == pytest.approx(
        certificate.stats["total_load"], abs=1e-12
    )
    assert gauges[f"{prefix}.max_load"] == pytest.approx(
        certificate.stats["max_load"], abs=1e-12
    )
    assert gauges[f"{prefix}.n_served"] == pytest.approx(
        certificate.stats["n_served"], abs=0
    )


@pytest.mark.parametrize(
    "label,problem",
    corpus_problems() + random_problems(),
    ids=lambda value: value if isinstance(value, str) else "",
)
@pytest.mark.parametrize("solver_name", sorted(SOLVERS))
def test_load_gauges_match_certificate(solver_name, label, problem):
    prefix, solve = SOLVERS[solver_name]
    with obs.collecting() as session:
        assignment = solve(problem)
    assert_gauges_match_certificate(
        prefix, problem, assignment, session.metrics.gauges()
    )


BENCH_CELLS = [
    name for name in QUICK_ALGORITHMS if name.startswith(("c-", "e-"))
]


@pytest.mark.parametrize(
    "scenario",
    [
        pytest.param(scenario, id=name)
        for name, scenario in bench_scenarios(quick=True, seed=0)
    ],
)
@pytest.mark.parametrize("algorithm", BENCH_CELLS)
def test_bench_cell_gauges_match_certificate(algorithm, scenario):
    base, policy = split_policy_suffix(algorithm)
    problem = scenario.problem()
    if policy is not None:
        problem = problem.with_policies(policy)
    with obs.collecting() as session:
        assignment = ALGORITHMS[base](problem, random.Random(0))
    assert_gauges_match_certificate(
        base.split("-")[1], problem, assignment, session.metrics.gauges()
    )
