"""The names the benchmark under perfbench/ reads from the library.

perfbench/layers.py traces library functions by rebinding them by name, and
perfbench/workloads.py names the verifiers each call runs.  A renamed or
deleted function, or a generator turned into a plain function, would break
only the traced benchmark runs, so these tests import both files, change
neither, and check the names against the library.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from projstat import identities

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, PERFBENCH)
    try:
        yield importlib.import_module("layers"), importlib.import_module("workloads")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_target_exists_with_its_generator_flag(perfbench):
    layers, _ = perfbench
    for name, owner, attr, generator, _ in layers.SPANS:
        # looked up as the tracer's install looks it up
        target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert target is not None, name
        assert inspect.isgeneratorfunction(target) == generator, name


def test_every_benchmark_verifier_exists(perfbench):
    _, workloads = perfbench
    for name, fn in workloads.VERIFIERS.items():
        assert callable(getattr(identities, fn, None)), name
