"""The benchmark's workloads: fixed pools of calls and their seeded draws.

Each workload is a list of strata.  A stratum holds calls that cost about
the same, and one pass draws one call from every stratum (a draw without
replacement from the pool, stratified by cost), then shuffles the order.
So every pass has the same size -- the same total group order on
enum-grid, the same element total and about the same series work on
series-lattice -- and different seeds give comparable load while exercising
different parameters.

A call is a JSON-ready dict: either a verifier call
``{"identity": name, "args": {...}, "count": n}`` or an in-process CLI call
``{"cli": argv, "group": text, "count": n}``, where ``count`` is the
element count the report or histogram must carry, computed here from
``GroupDescriptor.order``.
"""

from __future__ import annotations

import random
from math import gcd

from projstat.groups import make_group

# Explicit on every call, so the PROJSTAT_BUDGET environment variable never
# decides whether a call runs.
BUDGET = 10**6

# CLI identity name -> verifier function in projstat.identities
VERIFIERS = {
    "character-fmaj": "verify_character_fmaj",
    "signed-wreath": "verify_signed_wreath",
    "carlitz-des": "verify_carlitz_des",
    "carlitz-fdes": "verify_carlitz_fdes",
    "fdes-trivariate": "verify_fdes_trivariate",
    "six-stats": "verify_six_stats",
    "hilbert": "verify_hilbert",
}

WHY = {
    "enum-grid": (
        "groups plus stats take about 80% of the time and nothing needs an "
        "inverse, so a faster enumerate -> stat_record loop shows here and a "
        "series change should not"
    ),
    "series-lattice": (
        "about 95% of self time is in the series layer, mostly "
        "TruncatedSeries.__mul__ over 3 to 7 variables, and enumeration is "
        "under 3%, so a series change shows here and an enumeration change "
        "should not"
    ),
}

# Which end-to-end metrics each layer should move, and on which workload.
LAYER_MAP = {
    "groups": {"moves": ["elements_per_s", "pass_s"], "on": ["enum-grid"]},
    "stats": {"moves": ["pass_s", "elements_per_s", "call_p90_ms"], "on": ["enum-grid"]},
    "series": {"moves": ["pass_s"], "on": ["series-lattice"]},
    "cyclotomic": {"moves": ["pass_s"], "on": ["enum-grid"]},
    "identities": {"moves": ["pass_s"], "on": ["enum-grid", "series-lattice"]},
    "cli": {"moves": ["call_p50_ms"], "on": ["enum-grid"]},
    "bijections": {"moves": [], "on": []},
    "rsk": {"moves": [], "on": []},
}


def _divisors(r: int) -> list[int]:
    return [d for d in range(1, r + 1) if r % d == 0]


def _admissible(r: int, n: int) -> list[tuple[int, int]]:
    return [(p, s) for p in _divisors(r) for s in _divisors(r) if (r * n) % (p * s) == 0]


def _order(r: int, p: int, s: int, n: int) -> int:
    return make_group(r, p, s, n).order


def _verify(identity: str, count: int, **args) -> dict:
    return {"identity": identity, "args": args, "count": count}


def _ranked_order(r: int, p: int, s: int, nmax: int) -> int:
    """Elements a six-stats report counts: every rank <= nmax divisible by d."""
    d = p * s // gcd(p * s, r)
    return sum(_order(r, p, s, n) for n in range(d, nmax + 1, d))


def _six_stats(r, p, s, nmax, qmax) -> dict:
    return _verify(
        "six-stats", _ranked_order(r, p, s, nmax),
        r=r, p=p, s=s, nmax=nmax, tmax=4, qmax=qmax, umax=3,
    )


def _hilbert(r, p, s, nmax, qmax) -> dict:
    # the report counts the group and its p <-> s dual
    count = _ranked_order(r, p, s, nmax) + _ranked_order(r, s, p, nmax)
    return _verify("hilbert", count, r=r, p=p, s=s, nmax=nmax, qmax=qmax)


# -- enum-grid ------------------------------------------------------------------
#
# One stratum per group of order 2*10^3 .. 3*10^4 on the grids of acceptance
# criteria 2 (character-fmaj), 3 (signed-wreath) and 6/7 (the Carlitz
# verifiers), plus `projstat stats G --dist` on any of them.  A pass visits
# every group exactly once, so its total group order is fixed and no
# (group, budget) pair repeats: the lru_cache on the character counts never
# hides enumeration work.  The limits put both latency percentiles inside a
# run of equal-order groups rather than on a step between two sizes: the
# median call is one of the four groups of order 5184 (six groups below
# them, seven above), and the 90th percentile falls among the two of order
# 15552, below the one of order 29160.

ENUM_MIN_ORDER, ENUM_MAX_ORDER = 2 * 10**3, 3 * 10**4


def _enum_strata() -> list[list[list[dict]]]:
    kinds: dict[tuple[int, int, int, int], dict[str, list[dict]]] = {}

    def add(group, kind, call):
        order = _order(*group)
        if ENUM_MIN_ORDER <= order <= ENUM_MAX_ORDER:
            kinds.setdefault(group, {}).setdefault(kind, []).append(call)

    for r in (1, 2, 3, 4, 6):
        for n in (3, 4):
            for p, s in _admissible(r, n):
                order = _order(r, p, s, n)
                for eps in (1, -1):
                    for k in range(r // p):
                        if (k * n) % s == 0:
                            add((r, p, s, n), "character-fmaj", _verify(
                                "character-fmaj", order, r=r, p=p, s=s, n=n, eps=eps, k=k,
                            ))
    for r, ns in ((1, range(1, 8)), (2, range(1, 6)), (3, range(1, 6)), (4, range(1, 6))):
        for n in ns:
            add((r, 1, 1, n), "signed-wreath", _verify(
                "signed-wreath", _order(r, 1, 1, n), r=r, n=n,
            ))
    for r in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for p, s in _admissible(r, n):
                order = _order(r, p, s, n)
                base = dict(r=r, p=p, s=s, n=n, tmax=8, qmax=8)
                add((r, p, s, n), "carlitz-des", _verify("carlitz-des", order, **base, amax=8))
                add((r, p, s, n), "carlitz-fdes", _verify("carlitz-fdes", order, **base))
                add((r, p, s, n), "fdes-trivariate", _verify(
                    "fdes-trivariate", order, **base, amax=8,
                ))
    strata = []
    for group, by_kind in sorted(kinds.items()):
        text = "G({},{},{},{})".format(*group)
        by_kind["stats --dist"] = [{
            "cli": ["--budget", str(BUDGET), "stats", text, "--dist", "--format", "json"],
            "group": text,
            "count": _order(*group),
        }]
        # kinds first, then parameters: character-fmaj's many (eps, k) choices
        # do not crowd out the other verifiers
        strata.append([by_kind[kind] for kind in sorted(by_kind)])
    return strata


# -- series-lattice -----------------------------------------------------------------
#
# hilbert and six-stats at qmax 10..12 with small rank (criteria 8 and 9 at
# larger caps); hilbert on r = 2 stops at rank 3 because it enumerates each
# group twice (see below), which keeps enumeration under 3% of the pass.
# Each stratum fixes the ranks, so every pass reports the same element
# total, and its candidates took about the same time when the strata were
# chosen.  hilbert on G(r,p,s,.) also enumerates the p <-> s dual, so a
# group and its dual count the same elements.

SERIES_STRATA = [
    [_hilbert(1, 1, 1, 5, 11)],
    [_hilbert(2, p, s, 3, q) for p, s in ((1, 2), (2, 1)) for q in (11, 12)],
    [_hilbert(2, 1, 1, 3, q) for q in (10, 11, 12)],
    [_six_stats(2, 1, 1, 4, q) for q in (10, 11, 12)],
    [_six_stats(2, 2, 1, 4, q) for q in (10, 11, 12)],
    [_six_stats(1, 1, 1, 5, q) for q in (10, 11, 12)],
]


def strata(workload: str) -> list[list[list[dict]]]:
    """The workload's strata; each stratum is a list of kinds, each a list of calls."""
    if workload == "enum-grid":
        return _enum_strata()
    if workload == "series-lattice":
        return [[stratum] for stratum in SERIES_STRATA]
    raise ValueError(f"unknown workload {workload!r}; have {sorted(WHY)}")


def draw(workload: str, seed: int, pass_index: int) -> list[dict]:
    """The call list of one pass: one call per stratum, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    calls = [rng.choice(rng.choice(kinds)) for kinds in strata(workload)]
    rng.shuffle(calls)
    return calls
