"""Fixture: a vec kernel importing only within its own leaf layer."""

from repro.vec import strategy


def pick(size):
    return strategy.resolve_strategy(size)
