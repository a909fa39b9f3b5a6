"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload enum-grid --seed 1 --pass 0 [--trace] [--setup-only]

Prints one JSON object: set-up time, the pass's CPU time, per-call
latencies, the element total, failures, peak RSS and the drawn call list
(and, with ``--trace``, the per-layer metrics).  Exits 1 when any call
failed its check.  ``run.py`` starts this once per pass with a controlled
environment; the source tree must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

CALIBRATION_ROUNDS = 3  # before and after the pass; each round about 0.08 s


def invoke(call: dict):
    """Run one call through the public API; returns what its check needs."""
    if "cli" in call:
        from projstat import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(call["cli"]))
        return code, out.getvalue(), err.getvalue()
    from projstat import identities

    from workloads import BUDGET, VERIFIERS

    verifier = getattr(identities, VERIFIERS[call["identity"]])
    return verifier(**call["args"], budget=BUDGET)


def calibrate() -> list[float]:
    """CPU seconds of each round of a fixed pure-Python kernel: samples of
    the machine's current speed.

    The kernel does what projstat's hot loops do -- build tuples, compare
    small ints, accumulate into dicts keyed by tuples -- but calls no
    projstat code, so no change to the library moves it.  ``run.py`` divides
    each pass's timings by the median of the samples taken just before and
    after it, which cancels most of the shared host's speed drift.
    """
    samples = []
    for _ in range(CALIBRATION_ROUNDS):
        t0 = time.process_time()
        hist: dict[tuple[int, int], int] = {}
        for perm in itertools.permutations(range(8)):
            des = [i + 1 for i in range(7) if perm[i] > perm[i + 1]]
            key = (len(des), sum(des))
            hist[key] = hist.get(key, 0) + 1
        prod: dict[tuple[int, int], int] = {}
        for (a, b), x in hist.items():
            for (c, d), y in hist.items():
                if a + c <= 7:
                    key = (a + c, b + d)
                    prod[key] = prod.get(key, 0) + x * y
        samples.append(time.process_time() - t0)
        if sum(hist.values()) != 40320 or sum(prod.values()) <= 0:
            raise AssertionError("calibration kernel gave a wrong total")
    return samples


def run_pass(calls: list[dict]) -> tuple[float, list[tuple[float, object, str | None]]]:
    """CPU-time every call; exceptions are recorded, not raised."""
    results = []
    started = time.process_time()
    for call in calls:
        t0 = time.process_time()
        try:
            out, error = invoke(call), None
        except Exception as exc:  # a failing call is counted, the pass goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        results.append((time.process_time() - t0, out, error))
    return time.process_time() - started, results


def reference_histogram(group_text: str) -> Counter:
    """(des, fmaj, col) over the group, straight from stat_record."""
    from projstat.groups import enumerate_elements, parse_group
    from projstat.stats import stat_record

    from workloads import BUDGET

    hist = Counter()
    for g in enumerate_elements(parse_group(group_text), BUDGET):
        rec = stat_record(g)
        hist[(rec.des, rec.fmaj, rec.col)] += 1
    return hist


def check(call: dict, out) -> str | None:
    """Why the call's output is wrong, or None when it is right."""
    if "cli" in call:
        code, stdout, stderr = out
        if code != 0:
            return f"exit code {code}: {stderr.strip()}"
        payload = json.loads(stdout)
        if payload.get("schema") != 1 or payload.get("group") != call["group"]:
            return f"unexpected payload header {payload.get('schema')!r}, {payload.get('group')!r}"
        hist = Counter()
        for row in payload["distribution"]:
            hist[(row["des"], row["fmaj"], row["col"])] += row["count"]
        total = sum(hist.values())
        if total != call["count"]:
            return f"histogram sums to {total}, group order is {call['count']}"
        if hist != reference_histogram(call["group"]):
            return "histogram differs from the stat_record reference"
        return None
    if out.outcome != "MATCH":
        return f"outcome {out.outcome}, first mismatch {out.first_mismatch}"
    if out.element_count != call["count"]:
        return f"count {out.element_count}, expected {call['count']}"
    if call["identity"] == "fdes-trivariate" and not all(
        note.endswith("True") for note in out.notes
    ):
        return f"notes {list(out.notes)}"
    return None


def element_count(call: dict, out) -> int:
    if out is None:
        return 0
    return call["count"] if "cli" in call else out.element_count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None, help="write traced spans to this stem")
    args = parser.parse_args(argv)

    t0 = time.process_time()
    import projstat.cli  # noqa: F401  (the import a CLI user pays for)

    from workloads import draw

    calls = draw(args.workload, args.seed, args.pass_index)
    setup_s = time.process_time() - t0
    result = {"workload": args.workload, "seed": args.seed, "pass": args.pass_index, "setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    calib_s = calibrate()
    wall0 = time.perf_counter()
    try:
        pass_s, results = run_pass(calls)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall_s = time.perf_counter() - wall0
    calib_s += calibrate()

    failures = []
    for i, (call, (_, out, error)) in enumerate(zip(calls, results)):
        if error is None:
            try:
                error = check(call, out)
            except Exception as exc:  # a malformed output is a failed call
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"call": i, "error": error})
    result.update(
        trace=args.trace,
        pass_s=pass_s,
        calib_s=calib_s,
        latencies_ms=[dt * 1000.0 for dt, _, _ in results],
        elements=sum(element_count(c, out) for c, (_, out, _) in zip(calls, results)),
        attempted=len(calls),
        failed=len(failures),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calls=calls,
    )
    if tracer is not None:
        import layers

        # spans are wall-clock (perf_counter), so shares are over the wall time
        result["layers"] = layers.metrics(tracer.totals(), tracer.extra, wall_s)
        if args.spans is not None:
            tracer.dump(args.spans)
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
