"""Which projstat functions the traced run wraps, and the per-layer metrics.

A layer is a module of the library.  Each entry of :data:`SPANS` names one
public function (or method) whose calls become spans; the metric names are
``<layer>.<function>.<counter>``.  ``bijections`` and ``rsk`` sit on no
verifier path, so no workload reaches them and they are not traced.
"""

from __future__ import annotations

from projstat import cli, cyclotomic, groups, identities, series, stats

from workloads import VERIFIERS

LAYERS = ("groups", "stats", "series", "cyclotomic", "identities", "cli")


def _count_mul(tracer, args, result) -> None:
    if result is NotImplemented:
        return
    a, b = args
    tracer.add("series.mul.term_pairs", len(a.terms) * len(b.terms))
    tracer.add("series.mul.out_terms", len(result.terms))


# (span name, owner, attribute, generator?, extra counters)
SPANS = [
    ("groups.enumerate_elements", groups, "enumerate_elements", True, None),
    ("groups.inverse", groups, "inverse", False, None),
    ("groups.canonicalize", groups, "canonicalize", False, None),
    ("stats.stat_record", stats, "stat_record", False, None),
    ("stats.des_set", stats, "des_set", False, None),
    ("series.mul", series.TruncatedSeries, "__mul__", False, _count_mul),
    ("series.add", series.TruncatedSeries, "__add__", False, None),
    ("series.construct", series.TruncatedSeries, "__init__", False, None),
    ("series.q_bracket", series, "q_bracket", False, None),
    ("series.geom_inverse", series, "geom_inverse", False, None),
    ("series.equal_on", series, "equal_on", False, None),
    ("cyclotomic.mul", cyclotomic.CycInt, "__mul__", False, None),
    *[
        (f"identities.{name}", identities, fn, False, None)
        for name, fn in VERIFIERS.items()
    ],
    ("cli.main", cli, "main", False, None),
]


def install(tracer) -> None:
    for name, owner, attr, generator, count in SPANS:
        if generator:
            tracer.install(owner, attr, lambda fn, name=name: tracer.wrap_generator(fn, name))
        else:
            tracer.install(
                owner, attr, lambda fn, name=name, count=count: tracer.wrap_function(fn, name, count)
            )


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def metrics(totals: dict, extra: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose call loop took ``wall_s``.

    ``totals`` maps span names to (calls, self seconds) and ``extra`` holds
    the added counters, as :class:`tracer.Tracer` collects them.
    """
    out: dict[str, float] = {}
    for name, *_ in SPANS:
        calls, self_s = totals.get(name, (0, 0.0))
        if name == "groups.enumerate_elements":
            items = extra.get(name + ".items", 0)
            out[name + ".items"] = items
            out[name + ".self_s"] = self_s
            out[name + ".items_per_s"] = _rate(items, self_s)
            continue
        out[name + ".calls"] = calls
        out[name + ".self_s"] = self_s
        if name in ("stats.stat_record", "cyclotomic.mul"):
            out[name + ".calls_per_s"] = _rate(calls, self_s)
        if name == "series.mul":
            pairs = extra.get("series.mul.term_pairs", 0)
            out["series.mul.term_pairs"] = pairs
            out["series.mul.term_pairs_per_s"] = _rate(pairs, self_s)
            out["series.mul.out_terms"] = extra.get("series.mul.out_terms", 0)
    for layer in LAYERS:
        self_s = sum(s for name, (_, s) in totals.items() if name.startswith(layer + "."))
        out[layer + ".share"] = _rate(self_s, wall_s)
    return out


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in a fixed order."""
    units = {}
    for name in metrics({}, {}, 1.0):
        if name.endswith("_per_s"):
            units[name] = "1/s"
        elif name.endswith("self_s"):
            units[name] = "s"
        elif name.endswith(".share"):
            units[name] = "frac"
        else:
            units[name] = "count"
    units["trace.overhead"] = "ratio"
    return units

