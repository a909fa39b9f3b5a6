"""projstat benchmark: run one workload for a while and report its metrics.

    python3 perfbench/run.py --workload enum-grid --seed 1 --seconds 55 --trace 0

Run from the root of a checkout.  Every pass of the workload runs in a
fresh interpreter (``worker.py``), one at a time, so caches start cold as
they do for a CLI user; passes repeat until ``--seconds`` is used up (at
least three).  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` each pass runs
twice, plain and traced, and the JSON carries the per-layer metrics and the
tracing overhead.  The run's drawn call lists, per-pass results and machine
are written to ``perfbench/results/``.  Exits 1 when any call failed its
check, 2 when the checkout holds no projstat sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
# A fixed scale: about one calibration round (worker.calibrate) on the
# reference host, an Intel Xeon with 2 vCPUs under Python 3.11.7.  Timings
# are reported as if every pass had run at this speed.
CALIB_REF_S = 0.08
HARD_LIMIT_S = 160.0  # the whole run, warm-up included, must end well inside 180 s

# enum-grid visits each element once, with one stat_record per element
INVARIANTS = {"enum-grid": [("stats.stat_record.calls", "groups.enumerate_elements.items")]}


def child_env(root: Path) -> dict[str, str]:
    """The parent's environment without PYTHON* and PROJSTAT_BUDGET, plus pins."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and k != "PROJSTAT_BUDGET"
    }
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


class Runner:
    def __init__(self, root: Path, args):
        self.root = root
        self.args = args
        self.env = child_env(root)
        self.started = time.perf_counter()
        self.crashes: list[str] = []
        self.machine = machine()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, *extra: str) -> dict | None:
        """Run worker.py once; its JSON result, or None when it crashed."""
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--seed", str(self.args.seed), *extra,
        ]
        timeout = max(10.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(
                cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.crashes.append(f"{' '.join(extra)}: timed out after {timeout:.0f} s")
            return None
        try:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            self.crashes.append(f"{' '.join(extra)}: {tail[0]}")
            return None

    def run(self) -> tuple[list[dict], list[dict]]:
        """(plain passes, traced passes)."""
        self.worker("--setup-only")  # untimed: compiles the bytecode
        plain, traced = [], []
        longest = 0.0
        index = 0
        while index < MIN_PASSES or self.elapsed() + longest <= self.args.seconds:
            if self.elapsed() + longest > HARD_LIMIT_S:
                break
            t0 = time.perf_counter()
            for trace in (False, True) if self.args.trace else (False,):
                extra = ["--pass", str(index)]
                if trace:
                    stem = self.root / "perfbench" / "results" / "spans" / f"{self.args.workload}-pass{index}"
                    extra += ["--trace", "--spans", str(stem)]
                result = self.worker(*extra)
                if result is not None:
                    (traced if trace else plain).append(result)
            longest = max(longest, time.perf_counter() - t0)
            index += 1
        return plain, traced


def slowdown(p: dict) -> float:
    """How much slower than the reference host a pass ran: the median of
    its calibration samples over ``CALIB_REF_S``."""
    return statistics.median(p["calib_s"]) / CALIB_REF_S


def _quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"q1": q1, "q3": q3, "n": len(values)}


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str, dict]]:
    """Metric name -> (value, unit, detail) from the plain passes.

    Each pass's times are CPU seconds divided by that pass's slowdown, so
    they read as on the reference host; the detail keeps the measured
    (raw) median and the median slowdown.
    """
    ks = [slowdown(p) for p in passes]
    times = [p["pass_s"] / k for p, k in zip(passes, ks)]
    latencies = [ms / k for p, k in zip(passes, ks) for ms in p["latencies_ms"]]
    rates = [p["elements"] / t for p, t in zip(passes, times)]
    setups = [p["setup_s"] / k for p, k in zip(passes, ks)]
    rss = [p["peak_rss_mb"] for p in passes]

    def timed(values: list[float], raw: list[float], unit: str) -> tuple[float, str, dict]:
        return statistics.median(values), unit, {
            **_quartiles(values), "raw": statistics.median(raw), "slowdown": statistics.median(ks),
        }

    return {
        "pass_s": timed(times, [p["pass_s"] for p in passes], "s"),
        "call_p50_ms": (statistics.median(latencies), "ms", {
            "n": len(latencies), "raw": statistics.median(ms for p in passes for ms in p["latencies_ms"]),
        }),
        "elements_per_s": (statistics.median(rates), "1/s", _quartiles(rates)),
        "setup_s": timed(setups, [p["setup_s"] for p in passes], "s"),
        "peak_rss_mb": (statistics.median(rss), "MB", _quartiles(rss)),
    }


def call_p90_ms(passes: list[dict]) -> tuple[float, int]:
    """90th percentile of the pooled call latencies at reference speed, and
    the sample count.

    Reported but not a gated metric: a series-lattice run pools about 60
    calls, so fewer than ten samples lie beyond it.
    """
    latencies = [ms / slowdown(p) for p in passes for ms in p["latencies_ms"]]
    if len(latencies) < 2:
        return latencies[0], len(latencies)
    return statistics.quantiles(latencies, n=10)[8], len(latencies)


def per_layer(plain: list[dict], traced: list[dict], units: dict[str, str]) -> dict[str, tuple[float, str, dict]]:
    """Median over traced passes of each layer metric, plus the tracing overhead:
    the traced pass's time over the plain run of the same call list, each at
    reference speed."""
    times = {p["pass"]: p["pass_s"] / slowdown(p) for p in plain}
    ratios = [t["pass_s"] / slowdown(t) / times[t["pass"]] for t in traced if t["pass"] in times]
    if not ratios:
        return {}
    out = {}
    for name, unit in units.items():
        if name == "trace.overhead":
            out[name] = (statistics.median(ratios), unit, {"n": len(ratios)})
        else:
            values = [t["layers"][name] for t in traced]
            out[name] = (statistics.median(values), unit, {"n": len(values)})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "projstat" / "__init__.py").is_file():
        print(f"error: no projstat sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import layers
    import workloads

    if args.workload not in workloads.WHY:
        print(f"error: unknown workload {args.workload!r}; have {sorted(workloads.WHY)}",
              file=sys.stderr)
        return 2

    runner = Runner(root, args)
    plain, traced = runner.run()
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes) + len(runner.crashes)
    failed = sum(p["failed"] for p in passes) + len(runner.crashes)
    failures = [f"pass {p['pass']}: {f['error']}" for p in passes for f in p["failures"]]
    failures += runner.crashes
    if args.trace:
        for t in traced:
            for left, right in INVARIANTS.get(args.workload, ()):
                attempted += 1
                if t["layers"][left] != t["layers"][right]:
                    failed += 1
                    failures.append(f"pass {t['pass']}: traced {left} != {right}")
    metrics, diagnostics = {}, {}
    if args.trace:
        metrics = per_layer(plain, traced, layers.metric_units())
    elif plain:
        metrics = end_to_end(plain)
        p90, n = call_p90_ms(plain)
        diagnostics["call_p90_ms"] = {"value": p90, "unit": "ms", "n": n}
    if not metrics:
        attempted += 1
        failed += 1
        failures.append("no complete pass to measure")

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
        "layer_map": workloads.LAYER_MAP,
        "machine": runner.machine,
        "elapsed_s": runner.elapsed(),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u, **d} for k, (v, u, d) in metrics.items()},
        "diagnostics": diagnostics,
        "passes": passes,
    }
    out_dir = root / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)}"
          f"{f' (+{len(traced)} traced)' if args.trace else ''}  calls {attempted}"
          f"  failed_frac {failed / attempted:.4g}  elapsed {runner.elapsed():.1f} s")
    for name, (value, unit, detail) in metrics.items():
        extra = "  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}" for k, v in detail.items())
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {extra}")
    for name, d in diagnostics.items():
        print(f"  {name + ' (not gated)':<44} {d['value']:>14.6g} {d['unit']:<6} n {d['n']}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  results: {out_file.relative_to(root)}")

    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
