"""stats.distribution and stats.signed_distribution against their
reference definition, and their test seams.

The reference histogram of a key tuple, and its signed sums, come from
enumerate_elements and stat_record (of g, and of inverse(g) for the inverse
keys), exactly as the verifiers built them before they used distribution:
the ``reference`` fixture of conftest.py, the one enumeration the kernel
checks compare against.
"""

import itertools
import json
import math
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projstat import cli, identities, rsk, stats
from projstat.groups import (
    BUDGET_ENV_VAR,
    BudgetExceededError,
    ColoredPermutation,
    ProjectiveElement,
    enumerate_elements,
    inverse,
    make_group,
)
from projstat.series import TruncatedSeries
from projstat.stats import des_set, distribution, signed_distribution, stat_record

# every key tuple a verifier or the CLI asks for, then all keys at once
KEY_TUPLES = [
    # character-fmaj, the color class for k != 0
    ("fmaj",),
    ("fmaj", "colorClass"),
    ("des", "fmaj", "col"),  # carlitz-des, projstat stats --dist
    ("fdes", "fmaj"),  # carlitz-fdes
    ("fdes", "fmaj", "col"),  # fdes-trivariate
    ("des", "ides", "fmaj", "ifmaj", "col", "icol"),  # six-stats
    ("fmaj", "ifmaj"),  # hilbert
    stats.DISTRIBUTION_KEYS,
    stats.DISTRIBUTION_KEYS + tuple(stats.INVERSE_KEYS),
]


def _admissible_groups(rmax: int, max_order: int):
    out = []
    for r in range(1, rmax + 1):
        divisors = [d for d in range(1, r + 1) if r % d == 0]
        n = 1
        # the smallest quotient of rank n has order r^n n! / r^2
        while r**n * math.factorial(n) <= max_order * r * r:
            for p in divisors:
                for s in divisors:
                    if (r * n) % (p * s) == 0:
                        group = make_group(r, p, s, n)
                        if group.order <= max_order:
                            out.append(group)
            n += 1
    return out


GROUPS = _admissible_groups(6, 10**4)


def test_parity_grid_size():
    assert len(GROUPS) == 119
    assert sum(g.order for g in GROUPS) == 103_278


# key tuples holding every key that takes a cap, with and without inverse keys
CAPPED_KEY_TUPLES = [
    ("des", "fmaj", "col"),
    ("fdes", "fmaj", "col"),
    ("des", "fdes", "fmaj", "col", "desA"),
    ("des", "ides", "fmaj", "ifmaj", "col", "icol"),
    ("fmaj", "ifmaj"),
    ("fdes", "desA", "ides", "ifmaj", "icol"),
]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_distribution_matches_stat_record(reference, group):
    for keys in KEY_TUPLES:
        assert distribution(group, keys) == reference(group, keys), keys
        assert _flattened_factors(group, keys) == reference(group, keys), keys

    # within caps, from none cut to all cut, or past every packed field:
    # the reference restricted to the caps, from both kernels that apply
    @settings(max_examples=6, deadline=None)
    @given(st.sampled_from(CAPPED_KEY_TUPLES), st.data())
    def within_caps(keys, data):
        whole = reference(group, keys)
        top = {key: max(values[i] for values in whole) for i, key in enumerate(keys)}
        # distribution skips the caps at or above these bounds
        assert all(top[key] <= bound for key, bound in stats._largest(group).items() if key in keys)
        caps = {
            key: data.draw(st.integers(0, top[key] + 1) | st.integers(top[key], 10**9), label=key)
            for key in data.draw(st.lists(st.sampled_from(keys), unique=True), label="capped")
        }
        within = reference(group, keys, caps)
        paired = any(key in stats.INVERSE_KEYS for key in keys)
        kernels = [_tableau_kernel] + [stats._rank_dp] * (not paired)
        for kernel in kernels:
            assert stats._flatten(keys, *kernel(group, keys, caps)) == within, kernel.__name__
        assert distribution(group, keys, caps=caps) == within
        assert _flattened_factors(group, keys, caps) == within
        if paired:
            for rank, got in _walked_factors(group, keys, caps).items():
                assert _canonical(got) == _canonical(stats.factors(rank, keys, caps=caps)), rank

    within_caps()


def _tableau_kernel(group, keys, caps=None) -> tuple:
    """The factors of the tableau kernel, on any keys the tableaux see."""
    return stats.ranked_factors([group], keys, caps)(group, keys, None, caps)


def _tableau_level(r, n):
    """The states of stats._tableau_levels with n cells, of the walk that
    counts the tableaux alone."""
    return next(itertools.islice(stats._tableau_levels(r, 0, 0, False), n - 1, None))


def _walked_factors(group, keys, caps=None) -> dict:
    """The factors ranked_factors gives, off one walk, for the ranks 1..n of
    the group and of its dual G(r,s,p,.) where ps | rm, in rank order, the
    group before its dual; by group."""
    r, p, s, n = group.r, group.p, group.s, group.n
    ranked = stats.ranked_factors([group, make_group(r, s, p, n)], keys, caps)
    ranks = [make_group(r, *ps, m) for m in range(1, n + 1) if r * m % (p * s) == 0 for ps in ((p, s), (s, p))]
    return {rank: ranked(rank, keys, None, caps) for rank in ranks}


def _canonical(factors) -> tuple:
    """factors with its pairs in a fixed order."""
    own, inverse, pairs = factors
    return own, inverse, sorted((sorted(left.items()), sorted(right.items())) for left, right in pairs)


PAIRED_KEY_TUPLES = [keys for keys in KEY_TUPLES if any(key in stats.INVERSE_KEYS for key in keys)]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_one_tableau_walk_gives_the_factors_of_every_rank_and_the_dual(tableau_walks, group):
    # the tableau DP takes neither p nor s, and its step at level i does not
    # depend on n: one walk to n serves every rank of the group and its dual
    for keys in PAIRED_KEY_TUPLES:
        tableau_walks.clear()
        walked = _walked_factors(group, keys)
        assert len(tableau_walks) == 1
        for rank, got in walked.items():
            assert _canonical(got) == _canonical(stats.factors(rank, keys)), (rank, keys)


def _flattened_factors(group, keys, caps=None) -> Counter:
    """stats.factors multiplied out here, after checking its form: the keys
    split into g's and g^-1's, no pair with an empty side, and no two pairs
    with equal inverse histograms (those are merged)."""
    own, inverse, pairs = stats.factors(group, keys, caps=caps)
    assert own + inverse == tuple(sorted(keys, key=lambda key: key in stats.INVERSE_KEYS))
    assert all(left and right for left, right in pairs)
    rights = [frozenset(right.items()) for _, right in pairs]
    assert len(set(rights)) == len(rights)
    hist = Counter()
    for left, right in pairs:
        for a, x in left.items():
            for b, y in right.items():
                values = dict(zip(own + inverse, a + b))
                hist[tuple(values[key] for key in keys)] += x * y
    return hist


def test_factors_merge_the_pairs_of_equal_inverse_histograms():
    # the 14 multishapes of G(4,1,1,2) give (fmaj, ifmaj) 11 distinct
    # histograms of ifmaj; each is paired with the sum of the fmaj
    # histograms it goes with
    group, keys = make_group(4, 1, 1, 2), ("fmaj", "ifmaj")
    shapes = {shape for shape, *_ in _tableau_level(4, 2)}
    own, inverse, pairs = stats.factors(group, keys)
    assert (len(shapes), own, inverse, len(pairs)) == (14, ("fmaj",), ("ifmaj",), 11)
    assert _flattened_factors(group, keys) == distribution(group, keys)


def test_factors_give_the_columns_when_they_are_fewer():
    # the 9 multishapes of G(3,1,1,2) give (des, ides) 5 distinct histograms
    # of ides, which takes only 3 values: one pair per value
    group, keys = make_group(3, 1, 1, 2), ("des", "ides")
    own, inverse, pairs = stats.factors(group, keys)
    assert sorted(tuple(right.items()) for _, right in pairs) == [(((b,), 1),) for b in range(3)]
    hist = distribution(group, keys)
    for left, right in pairs:
        [(b,)] = right
        assert left == {(a,): count for (a, b2), count in hist.items() if b2 == b}


# key tuples without inverse keys, which both kernels build: what the
# verifiers ask distribution for, then every key
CROSS_KERNEL_KEY_TUPLES = [
    ("fmaj",),
    ("fmaj", "colorClass"),
    ("des", "fmaj", "col"),
    ("fdes", "fmaj"),
    ("fdes", "fmaj", "col"),
    stats.DISTRIBUTION_KEYS,
]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_tableau_kernel_matches_rank_kernel(group):
    for keys in CROSS_KERNEL_KEY_TUPLES:
        tableaux, ranks = _tableau_kernel(group, keys), stats._rank_dp(group, keys)
        assert stats._flatten(keys, *tableaux) == stats._flatten(keys, *ranks), keys


# past the grid: r up to 8 and any subset of the keys, in any order, which
# reaches every rank class (an exact rank, all ranks at an even and an odd
# count)
WIDE_GROUPS = _admissible_groups(8, 2 * 10**4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(WIDE_GROUPS), st.lists(st.sampled_from(stats.DISTRIBUTION_KEYS), unique=True))
def test_distribution_matches_stat_record_on_random_groups_and_keys(reference, group, keys):
    assert distribution(group, keys) == reference(group, keys)


# ----------------------------------------------------------------------
# the signed sums: each placement at relative rank j weighs (-1)^j

# the keys the verifiers read the signed sums of (character-fmaj at eps =
# -1, signed-wreath), then every key they take
SIGNED_KEY_TUPLES = [
    ("fmaj",),
    ("fmaj", "colorClass"),
    ("col", "desA"),
    stats.DISTRIBUTION_KEYS,
]


@pytest.mark.parametrize("group", GROUPS, ids=str)
def test_signed_sums_match_stat_record(reference, group):
    for keys in SIGNED_KEY_TUPLES:
        top = max(values[keys.index("fmaj")] for values in reference(group, keys)) if "fmaj" in keys else 0
        # uncapped, and under signed-wreath's desA <= 0 and a cap halfway up fmaj
        cuts = [{}] + [{key: cap} for key, cap in (("desA", 0), ("fmaj", top // 2)) if key in keys]
        for caps in cuts:
            signed = reference(group, keys, caps, signed=True)
            assert signed_distribution(group, keys, caps=caps) == signed, (keys, caps)
            if caps:
                assert signed_distribution(group, keys, caps={key: 10**9 for key in caps}) \
                    == reference(group, keys, signed=True)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(WIDE_GROUPS),
    st.lists(st.sampled_from(SIGNED_KEY_TUPLES[-1]), unique=True),
    st.data(),
)
def test_signed_sums_match_stat_record_on_random_groups_and_keys(reference, group, keys, data):
    capable = [key for key in keys if key != "colorClass"]
    capped = data.draw(st.lists(st.sampled_from(capable), unique=True), label="capped") if capable else []
    caps = {key: data.draw(st.integers(0, stats._largest(group)[key]), label=key) for key in capped}
    assert signed_distribution(group, keys, caps=caps) == reference(group, keys, caps, signed=True)


# Past enumeration: each signed sum S of a tuple is that of its T elements,
# so T = S mod 2 and |S| <= T, and sign(|g|) is a nontrivial character for
# n >= 2, whose sum over the group is 0.
@pytest.mark.parametrize(
    "group",
    [make_group(2, 1, 1, 8), make_group(4, 2, 2, 9), make_group(3, 1, 3, 10), make_group(2, 2, 1, 12)],
    ids=str,
)
def test_signed_sums_bounded_by_the_counts_past_enumeration(group):
    for keys in SIGNED_KEY_TUPLES[:3]:
        for caps in [None] + [{"desA": 0}] * ("desA" in keys):
            counts = distribution(group, keys, 10**30, caps)
            signed = signed_distribution(group, keys, 10**30, caps)
            assert signed.keys() <= counts.keys()
            for values, count in counts.items():
                assert (count - signed.get(values, 0)) % 2 == 0
                assert abs(signed.get(values, 0)) <= count
            if caps is None:
                assert sum(signed.values()) == 0
                assert sum(counts.values()) == group.order


@pytest.mark.parametrize("keys", [("fmaj", "ifmaj"), ("icol",)])
def test_signed_sums_refuse_the_inverse_keys(keys):
    with pytest.raises(ValueError, match=f"no inverse key, got {keys[-1]}"):
        signed_distribution(make_group(2, 1, 1, 3), keys)


def test_signed_sums_share_the_refusals_and_the_budget_of_distribution(monkeypatch):
    group = make_group(3, 1, 1, 4)
    with pytest.raises(ValueError, match="maj"):
        signed_distribution(group, ("maj",))
    with pytest.raises(ValueError, match="colorClass"):
        signed_distribution(group, ("fmaj", "colorClass"), caps={"colorClass": 1})
    assert signed_distribution(group, ("fmaj",), budget=group.order)
    monkeypatch.setattr(stats, "_rank_dp", _refuse_work)
    with pytest.raises(BudgetExceededError) as exc:
        signed_distribution(group, ("fmaj",), budget=group.order - 1)
    assert (exc.value.order, exc.value.budget) == (group.order, group.order - 1)


def test_rank_classes_cut_the_states(monkeypatch):
    # one state per exact rank of the leftmost entry made 9464 states over the
    # steps of G(6,1,1,6); with a class per color change there are 7098
    sizes = []
    real = stats._rank_step

    def counting(*args):
        states = real(*args)
        sizes.append(len(states))
        return states

    monkeypatch.setattr(stats, "_rank_step", counting)
    distribution(make_group(6, 1, 1, 6), ("des", "fmaj", "col"), budget=10**8)
    assert len(sizes) == 5
    assert sum(sizes) <= 7098


def test_tableau_caps_cut_the_states(tableau_walks):
    # the (state, packed |D| and sum(D)) pairs of the last level of the
    # capped tableau walk: B_20's hilbert keys at q <= 10, and six-stats keys
    # on G(2,1,2,8) at t <= 4, q <= 10, where P's bounds are r - r/s = 1
    # looser than Q's. Dropping a tableau only past both sides' bounds left
    # 1291 and 1735.
    distribution(make_group(2, 1, 1, 20), ("fmaj", "ifmaj"), 10**30, {"fmaj": 10, "ifmaj": 10})
    six = ("des", "ides", "fmaj", "ifmaj", "col", "icol")
    distribution(make_group(2, 1, 2, 8), six, 10**30, {"des": 4, "ides": 4} | dict.fromkeys(six[2:], 10))
    assert [len(walk) for walk in tableau_walks] == [20, 8]
    sizes = [sum(map(len, walk[-1].values())) for walk in tableau_walks]
    assert sizes[0] <= 1291
    assert sizes[1] <= 1735


@pytest.mark.parametrize("r", range(1, 9))
def test_move_table_follows_the_color_order(r):
    # an entry (v, c) left of its neighbour (v1, c1), v and v1 being 0 < 1 in
    # either order, adds d = r*[c = c1 and v > v1] + R_r(c - c1) units of
    # lambda_i, R_{r/s}(c) of col and a desA iff it lies above in the color order
    step, col, des_a = 1, 1 << 8, 1 << 16
    for rs in (d for d in range(1, r + 1) if r % d == 0):
        for colors in (rs, r):  # the last position and an inner one
            rows, rise = stats._moves(r, rs, colors, step, col, des_a)
            assert len(rows) == r and all(len(row) == colors for row in rows)
            for c1, c in itertools.product(range(r), range(colors)):
                for v, v1 in ((0, 1), (1, 0)):
                    d = r * (c == c1 and v > v1) + (c - c1) % r
                    descent = stats._key_color(v, c) > stats._key_color(v1, c1)
                    fields = rows[c1][c] + (rise if c == c1 and v > v1 else 0)
                    assert fields == d * step + c % rs * col + descent * des_a, (c1, c, v)


def test_rank_classes_are_built_once_and_read_only():
    # the tables depend only on (n, m, sign), so every DP step with those
    # arguments shares one copy, which no caller can change
    stats._rank_classes.cache_clear()
    built = []
    for _ in range(2):
        for histogram in (distribution, signed_distribution):
            histogram(make_group(2, 1, 1, 4), ("des", "fmaj", "col"))
        built.append(stats._rank_classes.cache_info().misses)
    assert built[0] > 0 and built[1] == built[0]
    spread, sizes, splits = stats._rank_classes(4, 2, -1)
    assert spread == 4 and all(isinstance(split, tuple) for split in splits.values())
    # the class of ranks 0 and 1, weighing 1 and -1, makes no state on a color change
    assert sizes == {0: 1, 1: 1, 4: 0}
    with pytest.raises(TypeError):
        sizes[0] = 5
    with pytest.raises(TypeError):
        splits[0] = ()


# key tuples that KEY_TUPLES misses, for the folds of the first position
# with the color sum kept mod p and mod r (colorClass)
FOLD_KEY_TUPLES = [
    ("col",),
    ("colorClass",),
]


@pytest.mark.parametrize("group", [g for g in GROUPS if g.n <= 5], ids=str)
def test_distribution_folds_the_first_position(reference, group):
    for keys in FOLD_KEY_TUPLES:
        assert distribution(group, keys) == reference(group, keys), keys


def _rs_cells(g):
    """The cells of Q (the positions of the color-c subword, in component c)
    and of P (its values, in component -c mod r) of :func:`rsk.rs_correspondence`,
    each as {entry: (component, row)}."""
    r = g.group.r
    ps, qs = rsk.rs_correspondence(g)

    def cells(tableaux, component):
        return {
            x: (component(c), row)
            for c, rows in enumerate(tableaux)
            for row, xs in enumerate(rows)
            for x in xs
        }

    return cells(qs, lambda c: c), cells(ps, lambda c: -c % r)


@pytest.mark.parametrize("r, n", [(r, n) for r in range(1, 4) for n in range(1, 5)])
def test_tableau_kernel_counts_the_rs_pairs(r, n):
    # the elements of G(r,1,1,n) whose RS multishape is lambda are the
    # pairs of standard multi-tableaux of shape lambda that the walk counts
    group = make_group(r, 1, 1, n)
    tableaux = Counter()
    for (shape, *_), counts in _tableau_level(r, n).items():
        tableaux[shape] += counts[0]
    pairs = Counter()
    for g in enumerate_elements(group):
        ps, qs = rsk.rs_correspondence(g)
        pairs[tuple(map(rsk.shape, qs))] += 1
        # P of g, component c moved to -c, is Q of g^-1 (stats._inverse_shape)
        inverse_qs = rsk.rs_correspondence(inverse(g))[1]
        assert all(inverse_qs[-c % r] == p for c, p in enumerate(ps))
        assert stats._inverse_shape(tuple(map(rsk.shape, ps))) == tuple(map(rsk.shape, inverse_qs))
    assert pairs == {shape: count * count for shape, count in tableaux.items()}


def _tableau_records(cells, r, rs, n):
    """D, lambda_1 and fmaj read off a standard multi-tableau: i in D iff
    c_i < c_{i+1}, or c_i = c_{i+1} and i+1 lies in a strictly lower row."""
    (c1, _), (cn, _) = cells[1], cells[n]
    descents = {
        i for i in range(1, n)
        if cells[i][0] < cells[i + 1][0] or (cells[i][0] == cells[i + 1][0] and cells[i + 1][1] > cells[i][1])
    }
    csum = sum(c for c, _ in cells.values())
    lam1 = r * len(descents) + c1 - cn + cn % rs
    return descents, lam1, r * sum(descents) + csum - n * cn + n * (cn % rs)


@pytest.mark.parametrize("group", [g for g in GROUPS if g.n <= 5], ids=str)
def test_records_of_g_and_its_inverse_read_off_the_rs_tableaux(group):
    r, rs, n = group.r, group.r // group.s, group.n
    for g in enumerate_elements(group):
        q_cells, p_cells = _rs_cells(g)
        rec, irec = stat_record(g), stat_record(inverse(g))
        assert _tableau_records(q_cells, r, rs, n) == (des_set(g) - {0}, rec.fdes, rec.fmaj)
        # the lift of g^-1 with color -c_i at position sigma_i, which P reads
        sigma_inv = tuple(sorted(range(1, n + 1), key=lambda v: g.sigma[v - 1]))
        lift = ColoredPermutation(sigma_inv, tuple(-g.colors[i - 1] % r for i in sigma_inv))
        descents = des_set(ProjectiveElement(group, lift)) - {0}
        assert _tableau_records(p_cells, r, rs, n) == (descents, irec.fdes, irec.fmaj)


def test_parity_grid_covers_rank_one_quotients():
    # n = 1 with p > 1: the one position is both the last (colors below r/s)
    # and the first (color sum divisible by p)
    rank_one = {str(group) for group in GROUPS if group.n == 1 and group.p > 1}
    assert {"G(2,2,1,1)", "G(4,2,2,1)", "G(6,3,2,1)"} <= rank_one
    assert len(rank_one) == 11


# Ranks far past enumeration, where stat_record cannot check the histogram:
# each closed form shares nothing with the DP.
@pytest.mark.parametrize(
    "name, params",
    [
        ("carlitz-des", dict(r=2, n=9)),
        ("carlitz-fdes", dict(r=2, n=9)),
        ("character-fmaj", dict(r=4, p=2, s=2, n=8)),
        ("character-fmaj", dict(r=4, p=2, s=2, n=8, eps=-1, k=1)),
        ("signed-wreath", dict(r=2, n=8)),
        ("fdes-trivariate", dict(r=3, n=8)),
        # odd n, where the first position's color changes keep a weight
        ("signed-wreath", dict(r=3, n=9)),
    ],
)
def test_verifiers_match_past_enumeration(name, params):
    verifier = identities.VERIFIERS[name]
    group = make_group(params["r"], params.get("p", 1), params.get("s", 1), params["n"])
    started = time.perf_counter()
    report = verifier(**params, budget=10**10)
    assert time.perf_counter() - started < 10
    assert (report.outcome, report.element_count) == (identities.MATCH, group.order)


# six-stats and hilbert count the elements of every rank <= nmax, and hilbert
# those of the dual G(r,s,p,n) too
@pytest.mark.parametrize(
    "name, params, ranked",
    [
        ("hilbert", dict(r=2, nmax=7, qmax=10), 2 * sum(make_group(2, 1, 1, n).order for n in range(1, 8))),
        ("six-stats", dict(r=2, nmax=8, umax=8, tmax=3, qmax=8), sum(make_group(2, 1, 1, n).order for n in range(1, 9))),
    ],
)
def test_inverse_verifiers_match_past_enumeration(name, params, ranked):
    started = time.perf_counter()
    report = identities.VERIFIERS[name](**params, budget=10**10)
    assert time.perf_counter() - started < 10
    assert (report.outcome, report.element_count) == (identities.MATCH, ranked)


def test_capped_histograms_reach_past_enumeration():
    started = time.perf_counter()
    report = identities.verify_carlitz_des(2, n=20, tmax=8, qmax=8, budget=10**30)
    assert time.perf_counter() - started < 1
    assert (report.outcome, report.element_count) == (identities.MATCH, make_group(2, 1, 1, 20).order)
    started = time.perf_counter()
    hist = distribution(make_group(2, 1, 1, 20), ("fmaj", "ifmaj"), 10**30, {"fmaj": 10, "ifmaj": 10})
    assert time.perf_counter() - started < 1
    # g -> g^-1 swaps fmaj and ifmaj, and only the identity has fmaj 0
    assert hist == Counter({(b, a): count for (a, b), count in hist.items()})
    assert [(key, count) for key, count in hist.items() if key[0] == 0] == [((0, 0), 1)]
    assert max(max(key) for key in hist) == 10
    # the same histograms of B_1..B_20 against the Hilbert series' closed form
    started = time.perf_counter()
    report = identities.verify_hilbert(2, nmax=20, qmax=10, budget=10**30)
    assert time.perf_counter() - started < 10
    assert report.matched


def test_stats_dist_past_enumeration(capsys):
    argv = ["--budget", "10000000000", "stats", "G(2,1,1,10)", "--dist", "--format", "json"]
    assert cli.main(argv) == 0
    rows = json.loads(capsys.readouterr().out)["distribution"]
    assert sum(row["count"] for row in rows) == 3_715_891_200


def _refuse_work(*args):
    raise AssertionError("distribution did work past the budget")


def _refuse_levels(*args):
    """A stats._tableau_levels that fails on its first step: ranked_factors
    starts its walk before it checks the budget, and steps it after."""
    raise AssertionError("distribution walked a level past the budget")
    yield


@pytest.mark.parametrize("keys", [("des", "fmaj", "col"), ("fmaj", "ifmaj")])
def test_budget_refused_before_any_work(monkeypatch, keys):
    group = make_group(3, 1, 1, 4)
    monkeypatch.setenv(BUDGET_ENV_VAR, str(group.order - 1))
    # an explicit budget overrides the environment, as for enumerate_elements
    assert sum(distribution(group, keys, budget=group.order).values()) == group.order
    monkeypatch.setattr(stats, "_rank_dp", _refuse_work)
    monkeypatch.setattr(stats, "_tableau_levels", _refuse_levels)
    with pytest.raises(BudgetExceededError):
        distribution(group, keys)
    with pytest.raises(BudgetExceededError) as exc:
        distribution(group, keys, budget=group.order - 1)
    assert (exc.value.order, exc.value.budget) == (group.order, group.order - 1)


# StatRecord fields that no histogram reads: the sign of |g| comes from
# signed_distribution, inv|g| of one element from stat_record
@pytest.mark.parametrize(
    "keys, unknown",
    [
        (("des", "maj"), "maj"),
        (("icolorClass",), "icolorClass"),
        (("invAbs",), "invAbs"),
        (("fmaj", "signAbs"), "signAbs"),
        (("invAbs", "ides"), "invAbs"),
        (("signAbs", "ifmaj"), "signAbs"),
    ],
)
@pytest.mark.parametrize(
    "refuse",
    [
        distribution,
        signed_distribution,
        stats.factors,
        lambda group, keys: stats.ranked_factors([group], keys),
        lambda group, keys: stats.ranked_factors([], keys),
    ],
    ids=["distribution", "signed_distribution", "factors", "ranked_factors", "ranked_factors-no-tops"],
)
def test_unknown_key_refused(tableau_walks, refuse, keys, unknown):
    with pytest.raises(ValueError, match=f"no histogram for statistic {unknown!r}"):
        refuse(make_group(2, 1, 1, 3), keys)
    # ranked_factors refuses before its walk starts, with tops or without
    assert tableau_walks == []


def test_paired_factors_walk_the_tableaux_once(tableau_walks):
    group, keys = make_group(3, 1, 1, 4), ("fmaj", "ifmaj")
    stats.factors(group, keys)
    assert [len(walk) for walk in tableau_walks] == [4]
    # over the budget: the walk is started, and refused before level 1
    tableau_walks.clear()
    with pytest.raises(BudgetExceededError):
        stats.factors(group, keys, budget=group.order - 1)
    assert tableau_walks == [[]]


# g -> g^-1 is a bijection of the group that swaps each key with its
# inverse, so under caps that treat the two alike the histogram is unchanged
# by the swap. The walk reads g off the canonical Q and g^-1 off every P, and
# prunes both by one box: past enumeration this checks the prune.
PARTNERS = stats.INVERSE_KEYS | {key: inverse_key for inverse_key, key in stats.INVERSE_KEYS.items()}
SIX_STATS_KEYS = ("des", "ides", "fmaj", "ifmaj", "col", "icol")


@pytest.mark.parametrize(
    "group, keys, q",
    [
        (make_group(3, 1, 3, 10), ("fmaj", "ifmaj"), 14),
        (make_group(3, 1, 3, 10), SIX_STATS_KEYS, 14),
        (make_group(6, 2, 3, 7), ("fmaj", "ifmaj"), 16),
        (make_group(6, 2, 3, 7), SIX_STATS_KEYS, 16),
        (make_group(2, 1, 1, 20), ("fmaj", "ifmaj"), 20),
    ],
    ids=str,
)
def test_inversion_symmetry_past_enumeration(group, keys, q):
    caps = {key: 4 if key.endswith("des") else q for key in keys if not key.endswith("col")}
    hist = distribution(group, keys, 10**30, caps)
    swap = [keys.index(PARTNERS[key]) for key in keys]
    assert hist == Counter({tuple(values[i] for i in swap): count for values, count in hist.items()})
    assert max(values[keys.index("fmaj")] for values in hist) == q


def test_uncapped_tableau_histogram_counts_the_group_past_enumeration():
    group = make_group(3, 1, 3, 10)
    assert sum(distribution(group, ("des", "ides"), 10**30).values()) == group.order


@pytest.mark.parametrize("group", [make_group(3, 1, 3, 10), make_group(6, 2, 3, 7)], ids=str)
def test_tableau_marginal_matches_rank_kernel_past_enumeration(group):
    # (fmaj, ifmaj) summed over an uncapped ifmaj, against _rank_dp's fmaj
    marginal = Counter()
    for (fmaj, _), count in distribution(group, ("fmaj", "ifmaj"), 10**30, {"fmaj": 12}).items():
        marginal[fmaj,] += count
    assert marginal == distribution(group, ("fmaj",), 10**30, {"fmaj": 12})
    assert max(marginal) == (12,)


@pytest.mark.parametrize("caps", [{"colorClass": 1}, {"col": 2}, {"fmaj": -1}, {"fmaj": 2.5}])
def test_caps_refused_where_they_cannot_prune(caps):
    # colorClass does not grow along the DPs, col is not a key here
    with pytest.raises(ValueError, match=f"cap on {next(iter(caps))!r}"):
        distribution(make_group(2, 1, 1, 2), ("fmaj", "colorClass"), caps=caps)


def _pruned_one_lower(real):
    """factors, pruning one below every cap it is passed."""

    def mutant(group, keys, budget=None, caps=None):
        return real(group, keys, budget, {key: cap - 1 for key, cap in caps.items()})

    return mutant


def _per_rank(wrap):
    """ranked_factors, with the function it returns passed through wrap: the
    per-rank seam of six-stats and hilbert, as factors is the Carlitz
    verifiers' seam."""
    real = stats.ranked_factors
    return lambda groups, keys, caps=None: wrap(real(groups, keys, caps))


@pytest.mark.parametrize("name", ["carlitz-des", "carlitz-fdes", "fdes-trivariate", "six-stats", "hilbert"])
def test_verifiers_report_mismatch_when_pruned_one_below_the_caps(monkeypatch, name):
    verifier = identities.VERIFIERS[name]
    assert verifier(2).matched
    monkeypatch.setattr(identities, "factors", _pruned_one_lower(stats.factors))
    monkeypatch.setattr(identities, "ranked_factors", _per_rank(_pruned_one_lower))
    report = verifier(2)
    assert report.outcome == identities.MISMATCH
    # the lost terms lie at a cap, and the chain divisions move them only upward
    monomial = report.first_mismatch["monomial"]
    assert any(exp == report.region[var] for var, exp in monomial.items()), monomial


def test_six_stats_builds_no_histogram_past_the_u_cap(monkeypatch):
    built = []

    def recording(real):
        def factors(group, keys, budget=None, caps=None):
            built.append(group.n)
            return real(group, keys, budget, caps)

        return factors

    monkeypatch.setattr(identities, "ranked_factors", _per_rank(recording))
    report = identities.verify_six_stats(2, 1, 1, nmax=4, umax=3)
    # rank 4 lies past u^3, yet its 384 elements are still counted
    assert (report.outcome, report.element_count) == (identities.MATCH, 442)
    assert built == [1, 2, 3]
    # and the budget still refuses it, after ranks 1..3
    built.clear()
    with pytest.raises(BudgetExceededError):
        identities.verify_six_stats(2, 1, 1, nmax=4, umax=3, budget=383)
    assert built == [1, 2, 3]


def test_k_sum_reuses_the_power_of_a_cut_inner_sum(monkeypatch):
    # at r/s = 4 and qmax = 8 the lattice heights 4k stop growing at k = 2,
    # so 3 of the 9 powers are taken
    powers = []
    real = TruncatedSeries.__pow__

    def counting(series, exponent):
        powers.append(exponent)
        return real(series, exponent)

    monkeypatch.setattr(TruncatedSeries, "__pow__", counting)
    assert identities.verify_carlitz_des(4, n=2, tmax=8, qmax=8).matched
    assert powers == [2, 2, 2]


# ----------------------------------------------------------------------
# negative controls: a wrong histogram must show in the verdict

def _shifted(real):
    """distribution or signed_distribution, with one unit moved from the
    smallest key to the key one higher in its last statistic."""

    def perturbed(group, keys, budget=None, caps=None):
        hist = Counter(real(group, keys, budget, caps))
        first = min(hist)
        hist[first] -= 1
        hist[first[:-1] + (first[-1] + 1,)] += 1
        return Counter({values: count for values, count in hist.items() if count})

    return perturbed


def _shifted_factors(real):
    """factors, with the move of :func:`_shifted` made by two more pairs of
    one tuple a side: one element off the smallest tuple of the histogram
    they stand for, one on the tuple one higher in its last statistic."""

    def perturbed(group, keys, budget=None, caps=None):
        own, inverse, pairs = real(group, keys, budget, caps)
        first = min(stats._flatten(keys, own, inverse, pairs))
        moved = first[:-1] + (first[-1] + 1,)
        split = lambda values, side: tuple(values[keys.index(key)] for key in side)
        extra = [({split(first, own): -1}, {split(first, inverse): 1}),
                 ({split(moved, own): 1}, {split(moved, inverse): 1})]
        return own, inverse, pairs + extra

    return perturbed


@pytest.mark.parametrize(
    "name, monomial",
    [
        ("carlitz-des", {}),
        ("carlitz-fdes", {}),
        ("fdes-trivariate", {}),
        ("six-stats", {"u": 1}),
        ("hilbert", {"u": 1}),
    ],
)
def test_verifiers_report_mismatch_on_shifted_histogram(monkeypatch, name, monomial):
    verifier = identities.VERIFIERS[name]
    assert verifier(2).matched
    monkeypatch.setattr(identities, "factors", _shifted_factors(stats.factors))
    monkeypatch.setattr(identities, "ranked_factors", _per_rank(_shifted_factors))
    report = verifier(2)
    assert report.outcome == identities.MISMATCH
    # the identity element, all statistics 0, moved one up in its last
    # statistic; the monomial lists nonzero exponents only, so {} is the
    # constant term.  Rank 0 of six-stats and hilbert is no histogram, so
    # their first mismatch is at u^1.
    assert report.first_mismatch == {"monomial": monomial, "lhs": 1, "rhs": 0}


def _moved(real, key, to):
    """signed_distribution, with one element of the smallest key moved to the
    value ``to`` gives in the statistic ``key``.  The element's sign v is
    that of its key's sum, which loses v.  The sum of the moved key gains
    v; for signAbs, which the sums hold as the weight of each element, the
    element stays in its key with weight to(v)."""

    def perturbed(group, keys, budget=None, caps=None):
        hist = Counter(real(group, keys, budget, caps))
        first = min(hist)
        v = 1 if hist[first] > 0 else -1
        hist[first] -= v
        if key == "signAbs":
            hist[first] += to(v)
        else:
            at = keys.index(key)
            hist[first[:at] + (to(first[at]),) + first[at + 1:]] += v
        return {values: count for values, count in hist.items() if count}

    return perturbed


# eps = -1 and k = 1 read both the sign and the color class
CHARACTER_ARGS = dict(r=4, p=1, s=1, n=3, eps=-1, k=1)


@pytest.mark.parametrize("key, to", [("signAbs", lambda v: -v), ("colorClass", lambda v: (v + 1) % 4)])
def test_character_fmaj_reports_mismatch_on_one_perturbed_key(monkeypatch, key, to):
    assert identities.verify_character_fmaj(**CHARACTER_ARGS).matched
    monkeypatch.setattr(identities, "signed_distribution", _moved(signed_distribution, key, to))
    assert identities.verify_character_fmaj(**CHARACTER_ARGS).outcome == identities.MISMATCH


# (entry, keys asked): eps = -1 reads the signed sums, so the sign is no key
@pytest.mark.parametrize(
    "eps, k, keys",
    [
        (1, 0, ("distribution", "fmaj")),
        (-1, 0, ("signed_distribution", "fmaj")),
        (1, 1, ("distribution", "fmaj", "colorClass")),
        (-1, 1, ("signed_distribution", "fmaj", "colorClass")),
    ],
)
def test_character_fmaj_asks_only_the_keys_it_reads(monkeypatch, eps, k, keys):
    asked = []

    def recording(name, real):
        def entry(group, keys, budget=None, caps=None):
            asked.append((name, *keys))
            return real(group, keys, budget, caps)

        return entry

    monkeypatch.setattr(identities, "distribution", recording("distribution", distribution))
    monkeypatch.setattr(identities, "signed_distribution", recording("signed_distribution", signed_distribution))
    assert identities.verify_character_fmaj(**{**CHARACTER_ARGS, "eps": eps, "k": k}).matched
    assert asked == [keys]


# one small run of every identity through the CLI, and the enumeration seam
# a wrong value goes through: the histogram for the verifiers built on
# distribution, signed_distribution or factors, the per-element records for
# lift, the signed count of the word DP for signed-multinomial
NEGATIVE_CONTROLS = {
    "character-fmaj": ["--r", "2", "--n", "2"],
    "signed-multinomial": ["--n", "4", "--parts", "2,2"],
    "signed-wreath": ["--r", "2", "--n", "2"],
    "lift": ["--r", "2", "--s", "2", "--n", "2"],
    "carlitz-des": ["--r", "2", "--n", "2", "--tmax", "4", "--qmax", "4"],
    "carlitz-fdes": ["--r", "2", "--n", "2", "--tmax", "4", "--qmax", "4"],
    "fdes-trivariate": ["--r", "2", "--n", "2", "--tmax", "4", "--qmax", "4"],
    "six-stats": ["--r", "1", "--nmax", "2", "--tmax", "2", "--qmax", "4", "--umax", "2"],
    "hilbert": ["--r", "1", "--nmax", "2", "--qmax", "4"],
}


def _perturb(monkeypatch, name):
    if name == "signed-multinomial":
        real = identities._signed_fillings
        monkeypatch.setattr(identities, "_signed_fillings", lambda parts: -real(parts))
    elif name == "lift":
        # the identity element's fmaj is off by one, its lifts' are not
        def perturbed(g):
            rec = stat_record(g)
            if g.sigma == tuple(sorted(g.sigma)) and not any(g.colors):
                return rec._replace(fmaj=rec.fmaj + 1)
            return rec

        monkeypatch.setattr(identities, "stat_record", perturbed)
    else:
        # character-fmaj reads distribution or, at eps = -1, the signed sums,
        # as signed-wreath does, the Carlitz verifiers factors, six-stats and
        # hilbert the factors of each rank
        monkeypatch.setattr(identities, "distribution", _shifted(distribution))
        monkeypatch.setattr(identities, "signed_distribution", _shifted(signed_distribution))
        monkeypatch.setattr(identities, "factors", _shifted_factors(stats.factors))
        monkeypatch.setattr(identities, "ranked_factors", _per_rank(_shifted_factors))


def _verify_json(capsys, name, controls=NEGATIVE_CONTROLS):
    code = cli.main(["verify", name, *controls[name], "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_negative_controls_cover_every_identity():
    assert sorted(NEGATIVE_CONTROLS) == sorted(identities.VERIFIERS)


@pytest.mark.parametrize("name", sorted(NEGATIVE_CONTROLS))
def test_verify_reports_mismatch_on_perturbed_enumeration(monkeypatch, capsys, name):
    code, report = _verify_json(capsys, name)
    assert (code, report["outcome"], report["firstMismatch"]) == (0, "MATCH", None)
    _perturb(monkeypatch, name)
    code, report = _verify_json(capsys, name)
    assert (code, report["outcome"]) == (1, "MISMATCH")
    assert report["firstMismatch"] is not None


SIX_KEYS = ("des", "ides", "fmaj", "ifmaj", "col", "icol")
PAIRING_CONTROLS = {
    "hilbert": ["--r", "3", "--nmax", "2", "--qmax", "4"],
    "six-stats": ["--r", "3", "--nmax", "2", "--tmax", "2", "--qmax", "4", "--umax", "2"],
}


def test_pairing_each_shape_with_itself_departs(monkeypatch, capsys):
    # the tableaux of g^-1 have shape -lambda; pairing A_lambda with A_lambda
    # moves the histogram when r >= 3 and cannot when r = 2, where -lambda =
    # lambda, and hilbert and six-stats on G(3,1,1,n) then report MISMATCH
    groups = [make_group(3, 1, 1, 2), make_group(4, 2, 1, 2), make_group(2, 1, 1, 3)]
    before = [distribution(group, SIX_KEYS) for group in groups]
    for name in PAIRING_CONTROLS:
        assert _verify_json(capsys, name, PAIRING_CONTROLS)[1]["outcome"] == "MATCH"
    monkeypatch.setattr(stats, "_inverse_shape", lambda shape: shape)
    after = [distribution(group, SIX_KEYS) for group in groups]
    assert [a != b for a, b in zip(after, before)] == [True, True, False]
    for name in PAIRING_CONTROLS:
        code, report = _verify_json(capsys, name, PAIRING_CONTROLS)
        assert (code, report["outcome"]) == (1, "MISMATCH")
        assert report["firstMismatch"] is not None


def _cli_histogram(capsys, group_text):
    assert cli.main(["stats", group_text, "--dist", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    return Counter(
        {(row["des"], row["fmaj"], row["col"]): row["count"] for row in payload["distribution"]}
    )


def test_stats_dist_departs_from_reference_on_shifted_histogram(monkeypatch, capsys, reference):
    group = make_group(3, 1, 1, 3)
    whole = reference(group, ("des", "fmaj", "col"))
    assert _cli_histogram(capsys, str(group)) == whole
    monkeypatch.setattr(cli, "distribution", _shifted(distribution))
    assert _cli_histogram(capsys, str(group)) != whole


# one run of every identity, character-fmaj at eps = -1 and k = 1, where it
# reads both the sign and the color class
TRAFFIC_CONTROLS = NEGATIVE_CONTROLS | {"character-fmaj": ["--r", "2", "--n", "2", "--eps", "-1", "--k", "1"]}


def test_every_histogram_key_is_asked_for(monkeypatch, capsys):
    # the keys that the verifiers and projstat stats --dist pass to the
    # histogram entries are all the keys there are: none goes unused
    asked = set()

    def record(module, name):
        real = getattr(module, name)

        def entry(source, keys, *args):
            asked.update(keys)
            return real(source, keys, *args)

        monkeypatch.setattr(module, name, entry)

    for name in ("distribution", "signed_distribution", "factors", "ranked_factors"):
        record(identities, name)
    record(cli, "distribution")
    for name in TRAFFIC_CONTROLS:
        assert _verify_json(capsys, name, TRAFFIC_CONTROLS)[1]["outcome"] == "MATCH", name
    _cli_histogram(capsys, "G(2,1,1,2)")
    assert asked == set(stats.DISTRIBUTION_KEYS) | set(stats.INVERSE_KEYS)
