"""Shared test fixtures."""

import functools
import operator
from collections import Counter

import pytest

from projstat import stats
from projstat.groups import enumerate_elements, inverse

_FIELDS = stats.StatRecord._fields


# the tests ask for one group at a time
@functools.lru_cache(maxsize=1)
def _records(group) -> tuple:
    """stat_record of each element of the group."""
    return tuple(map(stats.stat_record, enumerate_elements(group)))


@functools.lru_cache(maxsize=1)
def _inverse_records(group) -> tuple:
    """stat_record(inverse(g)), in the order of :func:`_records`."""
    return tuple(stats.stat_record(inverse(g)) for g in enumerate_elements(group))


def reference_histogram(group, keys, caps=None, signed=False) -> Counter:
    """The reference definition of stats.distribution, or with ``signed`` of
    stats.signed_distribution: over enumerate_elements, per tuple of values
    of keys within the caps, the number of elements that take it, or the sum
    of their stat_record(g).signAbs, the zero sums left out.  The inverse
    keys read stat_record(inverse(g))."""
    keys = tuple(keys)
    paired = any(key in stats.INVERSE_KEYS for key in keys)
    # a row is g's record, followed by g^-1's when an inverse key is read
    at = [
        len(_FIELDS) + _FIELDS.index(stats.INVERSE_KEYS[key]) if key in stats.INVERSE_KEYS else _FIELDS.index(key)
        for key in keys
    ]
    rows = map(operator.add, _records(group), _inverse_records(group)) if paired else _records(group)
    sign = _FIELDS.index("signAbs")
    hist = Counter()
    for row in rows:
        hist[tuple(row[i] for i in at)] += row[sign] if signed else 1
    within = [(keys.index(key), cap) for key, cap in (caps or {}).items()]
    return Counter({
        values: count for values, count in hist.items() if count and all(values[i] <= cap for i, cap in within)
    })


@pytest.fixture(scope="session")
def reference():
    """:func:`reference_histogram`, the one enumeration that the kernel checks
    compare against."""
    return reference_histogram


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
