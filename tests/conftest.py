"""Shared test fixtures."""

import pytest

from projstat import stats


@pytest.fixture
def tableau_walks(monkeypatch):
    """The walks of stats._tableau_levels, recorded: one list per walk
    started, which gets the states of each level as the walk yields it."""
    walks = []
    real = stats._tableau_levels

    def recording(*args):
        walk = []
        walks.append(walk)
        return (walk.append(states) or states for states in real(*args))

    monkeypatch.setattr(stats, "_tableau_levels", recording)
    return walks
