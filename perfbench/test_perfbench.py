"""Tests of the benchmark itself: seeded draws, output checks, tracer coverage.

    python3 -m pytest perfbench/test_perfbench.py -q

They run whole passes, so they take about 15 s; they are not part of
the library's test suite.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, load_spans  # noqa: E402

import projstat.cli  # noqa: E402
import projstat.identities  # noqa: E402
import projstat.stats  # noqa: E402
from projstat.identities import MISMATCH  # noqa: E402


def _run_worker(capsys, *argv) -> tuple[int, dict]:
    code = worker.main(list(argv))
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _small_enum_calls() -> list[dict]:
    """A few cheap enum-grid calls: one per kind, including the CLI."""
    by_kind = {}
    for kinds in workloads.strata("enum-grid"):
        for calls in kinds:
            for call in calls:
                kind = call.get("identity", "cli")
                if kind not in by_kind or call["count"] < by_kind[kind]["count"]:
                    by_kind[kind] = call
    return list(by_kind.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["workloads"] == [{"name": k, "why": v} for k, v in workloads.WHY.items()]
    units = layers.metric_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units
    fake = {"pass_s": 1.0, "setup_s": 0.1, "calib_s": [0.1, 0.2], "latencies_ms": [1.0, 2.0],
            "elements": 3, "peak_rss_mb": 1.0}
    e2e = run.end_to_end([fake, fake])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u, _) in e2e.items()}


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_draws_are_seeded_and_fixed_size(workload):
    first = workloads.draw(workload, 7, 0)
    assert first == workloads.draw(workload, 7, 0)
    assert first != workloads.draw(workload, 8, 0)
    assert len(first) == len(workloads.strata(workload))
    if workload == "enum-grid":
        groups = [c.get("group") or "G({r},{p},{s},{n})".format(**{"p": 1, "s": 1, **c["args"]})
                  for c in first]
        assert len(set(groups)) == len(groups)
        totals = {sum(c["count"] for c in workloads.draw(workload, seed, 0)) for seed in range(5)}
        assert len(totals) == 1


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_smoke_pass_of_each_workload(workload, capsys):
    code, result = _run_worker(capsys, "--workload", workload, "--seed", "0")
    assert code == 0, result["failures"]
    assert result["failed"] == 0
    assert result["attempted"] == len(result["calls"]) > 0
    assert result["elements"] == sum(c["count"] for c in result["calls"])


def test_negative_control_mismatching_verifier(monkeypatch, capsys):
    calls = _small_enum_calls()
    monkeypatch.setattr(workloads, "draw", lambda *args: calls)
    real = projstat.identities.verify_carlitz_fdes

    def mismatching(*args, **kwargs):
        report = real(*args, **kwargs)
        report.outcome = MISMATCH
        return report

    monkeypatch.setattr(projstat.identities, "verify_carlitz_fdes", mismatching)
    code, result = _run_worker(capsys, "--workload", "enum-grid", "--seed", "0")
    assert code != 0
    assert result["failed"] == 1 and result["failed"] / result["attempted"] > 0
    assert "MISMATCH" in result["failures"][0]["error"]


def test_negative_control_perturbed_histogram(monkeypatch, capsys):
    calls = [c for c in _small_enum_calls() if "cli" in c]
    monkeypatch.setattr(workloads, "draw", lambda *args: calls)
    real = projstat.cli.stat_record

    def perturbed(g):
        rec = real(g)
        if g.colors[0] == 1 and g.sigma[0] == 1:
            return dataclasses.replace(rec, fmaj=rec.fmaj + 1)
        return rec

    monkeypatch.setattr(projstat.cli, "stat_record", perturbed)
    code, result = _run_worker(capsys, "--workload", "enum-grid", "--seed", "0")
    assert code != 0
    assert result["failed"] == 1
    assert "reference" in result["failures"][0]["error"]


def test_tracer_covers_every_import_site(monkeypatch, capsys, tmp_path):
    calls = _small_enum_calls()
    monkeypatch.setattr(workloads, "draw", lambda *args: calls)
    # earlier tests in this process ran the same character sums; a cache hit
    # would skip the enumeration this test counts
    projstat.identities._character_counts.cache_clear()
    original = projstat.identities.stat_record
    code, result = _run_worker(
        capsys, "--workload", "enum-grid", "--seed", "0", "--trace", "--spans", str(tmp_path / "s"),
    )
    assert code == 0, result["failures"]
    found = result["layers"]
    assert found["stats.stat_record.calls"] == found["groups.enumerate_elements.items"]
    assert found["groups.enumerate_elements.items"] == sum(c["count"] for c in calls)
    assert found["cli.main.calls"] == 1
    assert found["identities.carlitz-des.calls"] == 1
    assert found["cyclotomic.mul.calls"] > 0 or not any(
        c.get("identity") == "character-fmaj" and c["args"]["k"] for c in calls
    )
    # uninstall puts every original back
    assert projstat.identities.stat_record is original is projstat.stats.stat_record

    names, spans = load_spans(tmp_path / "s")
    assert len(spans) >= found["stats.stat_record.calls"]
    by_id = {sid: (name, parent) for sid, name, parent, _, _ in spans}
    for sid, name, parent, start, end in spans:
        assert start <= end
        if names[name] == "stats.des_set":
            assert names[by_id[parent][0]] == "stats.stat_record"


def test_self_time_excludes_children():
    tracer = Tracer()

    def child():
        return sum(range(20000))

    traced_child = tracer.wrap_function(child, "child")

    def parent():
        return traced_child() + traced_child()

    tracer.wrap_function(parent, "parent")()
    totals = tracer.totals()
    assert totals["child"][0] == 2 and totals["parent"][0] == 1
    spans = list(zip(tracer.span_id, tracer.span_parent, tracer.span_start, tracer.span_end))
    outer = [s for s in spans if s[1] == -1][0]
    inner = sum(end - start for _, parent, start, end in spans if parent == outer[0])
    assert totals["parent"][1] == pytest.approx(outer[3] - outer[2] - inner)


def _checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def _run_command(root: Path, *extra: str) -> subprocess.CompletedProcess:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return subprocess.run(
        [*spec["command"], "--workload", "enum-grid", "--seed", "1", "--seconds", "1", *extra],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def test_command_refuses_a_checkout_without_sources(tmp_path):
    proc = _run_command(_checkout(tmp_path, with_sources=False), "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_command_fails_when_every_call_raises(tmp_path):
    root = _checkout(tmp_path, with_sources=True)
    groups = root / "src" / "projstat" / "groups.py"
    groups.write_text(groups.read_text() + (
        "\n\ndef enumerate_elements(group, budget=None, sigma_range=None):\n"
        "    raise RuntimeError('enumeration disabled')\n"
    ))
    proc = _run_command(root, "--trace", "0")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
