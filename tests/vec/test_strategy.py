"""The scalar/vector resolver: the size switch, overrides, and that the
process environment plays no part in dispatch."""

from __future__ import annotations

import pytest

from repro.core.candidates import build_family
from repro.obs import collecting
from repro.scenarios.largescale import generate_largescale
from repro.vec.strategy import (
    SCALAR,
    VECTOR,
    VECTOR_SIZE_THRESHOLD,
    resolve_strategy,
)


def test_threshold_boundary():
    assert resolve_strategy(VECTOR_SIZE_THRESHOLD - 1) == SCALAR
    assert resolve_strategy(VECTOR_SIZE_THRESHOLD) == VECTOR


def test_explicit_override_wins():
    assert resolve_strategy(0, override=VECTOR) == VECTOR
    assert resolve_strategy(VECTOR_SIZE_THRESHOLD, override=SCALAR) == SCALAR


@pytest.mark.parametrize("bad", ["auto", "numpy", "", "Scalar"])
def test_bad_override_raises(bad):
    with pytest.raises(ValueError, match="strategy must be"):
        resolve_strategy(VECTOR_SIZE_THRESHOLD, override=bad)


def test_threshold_is_read_at_call_time(monkeypatch):
    monkeypatch.setattr("repro.vec.strategy.VECTOR_SIZE_THRESHOLD", 0)
    assert resolve_strategy(0) == VECTOR
    monkeypatch.setattr("repro.vec.strategy.VECTOR_SIZE_THRESHOLD", 10)
    assert resolve_strategy(9) == SCALAR


@pytest.mark.parametrize(
    "name,value", [("REPRO_STRATEGY", "scalar"), ("REPRO_VEC_NUMPY", "0")]
)
def test_environment_does_not_change_dispatch(monkeypatch, name, value):
    """Only the size (or an explicit argument) picks the path: a large
    instance takes the numpy construction whatever the environment says."""
    monkeypatch.setenv(name, value)
    problem = generate_largescale(n_users=256, n_aps=16, seed=0)
    assert problem.n_users * problem.n_aps >= VECTOR_SIZE_THRESHOLD
    with collecting() as session:
        build_family(problem)
    assert session.metrics.counters().get("candidates.strategy_switches") == 1
