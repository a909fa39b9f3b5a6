"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Time budgets are asserted where the criteria state them.
"""

import itertools
import time


from projstat.bijections import nvec_decode, nvec_encode, order_involution
from projstat.groups import (
    canonicalize,
    enumerate_elements,
    inverse,
    lifts,
    make_group,
    parse_window,
)
from projstat.identities import (
    verify_carlitz_des,
    verify_carlitz_fdes,
    verify_character_fmaj,
    verify_fdes_trivariate,
    verify_hilbert,
    verify_lift_identity,
    verify_signed_multinomial,
    verify_signed_wreath,
    verify_six_stats,
)
from projstat.rsk import rs_correspondence, rs_inverse, rs_transpose_map
from projstat.stats import COLOR, PRIME, bn_descent_split, des_set, fmaj_prime, stat_record


def _criterion(num, ok, elapsed, budget=None, detail=""):
    within = budget is None or elapsed <= budget
    status = "PASS" if ok and within else "FAIL"
    budget_part = f", budget {budget:g}s" if budget is not None else ""
    print(f"{status} criterion {num:>2}: {elapsed:8.2f}s{budget_part}  {detail}")
    assert ok, f"criterion {num} failed: {detail}"
    if budget is not None:
        assert within, f"criterion {num} exceeded {budget}s (took {elapsed:.2f}s)"


def _divisors(r):
    return [d for d in range(1, r + 1) if r % d == 0]


def _admissible(r, n):
    return [
        (p, s)
        for p in _divisors(r)
        for s in _divisors(r)
        if (r * n) % (p * s) == 0
    ]


def test_criterion_01_worked_example_golden():
    group = make_group(6, 2, 3, 8)
    g = parse_window("[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]", group)
    stat_record(g)  # warm-up
    best = min(
        (lambda t0: (stat_record(g), time.perf_counter() - t0))(time.perf_counter())[1]
        for _ in range(25)
    )
    rec = stat_record(g)
    ok = (
        rec.hdes == frozenset({2, 5})
        and rec.hvec == (2, 2, 1, 1, 1, 0, 0, 0)
        and rec.kvec == (18, 13, 13, 9, 5, 5, 1, 0)
        and rec.fdes == 30
        and rec.des == 15
        and rec.col == 6
    )
    _criterion(1, ok, best, 0.001, "worked example statistics, exact")


def test_criterion_02_character_factorization_grid():
    started = time.perf_counter()
    runs = 0
    failures = []
    for r in (1, 2, 3, 4, 6):
        for n in (3, 4):
            for p, s in _admissible(r, n):
                group = make_group(r, p, s, n)
                if group.order > 10**5:
                    continue
                ks = [k for k in range(r // p) if (k * n) % s == 0]
                for eps in (1, -1):
                    for k in ks:
                        report = verify_character_fmaj(r, p, s, n, eps, k)
                        runs += 1
                        if not report.matched:
                            failures.append(report.to_json())
    elapsed = time.perf_counter() - started
    _criterion(2, not failures, elapsed, 300, f"{runs} character sums, all MATCH")


def test_criterion_03_signed_wreath_grid():
    started = time.perf_counter()
    failures = []
    runs = 0
    for n in range(1, 8):
        report = verify_signed_wreath(1, n)
        runs += 1
        if not report.matched:
            failures.append(report.to_json())
    for r in (2, 3, 4):
        for n in range(1, 6):
            if make_group(r, 1, 1, n).order > 130_000:
                continue
            report = verify_signed_wreath(r, n, budget=130_000)
            runs += 1
            if not report.matched:
                failures.append(report.to_json())
    elapsed = time.perf_counter() - started
    _criterion(
        3, not failures, elapsed, 120,
        f"{runs} signed sums incl. ascending-window checks, all MATCH",
    )


def _weak_compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _weak_compositions(total - head, length - 1):
            yield (head,) + tail


def test_criterion_04_signed_block_counts():
    started = time.perf_counter()
    runs = 0
    failures = []
    for n in range(1, 9):
        for length in range(1, 5):
            for parts in _weak_compositions(n, length):
                report = verify_signed_multinomial(n, parts)
                runs += 1
                if not report.matched:
                    failures.append((n, parts))
    elapsed = time.perf_counter() - started
    _criterion(4, not failures, elapsed, 60, f"{runs} compositions, formula exact")


def test_criterion_05_lift_identity():
    started = time.perf_counter()
    reports = [
        verify_lift_identity(2, 2, 3),
        verify_lift_identity(4, 2, 3),
        verify_lift_identity(6, 3, 2),
    ]
    elapsed = time.perf_counter() - started
    ok = all(rep.matched for rep in reports)
    counts = ", ".join(str(rep.element_count) for rep in reports)
    _criterion(5, ok, elapsed, None, f"per-element lift sums over {counts} classes")


def _carlitz_grid():
    for r in (1, 2, 3, 4):
        for n in (1, 2, 3, 4):
            for p, s in _admissible(r, n):
                if make_group(r, p, s, n).order <= 10**5:
                    yield r, p, s, n


def test_criterion_06_carlitz_identities():
    started = time.perf_counter()
    runs = 0
    failures = []
    for r, p, s, n in _carlitz_grid():
        for verifier in (verify_carlitz_des, verify_carlitz_fdes):
            if verifier is verify_carlitz_des:
                report = verifier(r, p, s, n, tmax=8, qmax=8, amax=8)
            else:
                report = verifier(r, p, s, n, tmax=8, qmax=8)
            runs += 1
            if not report.matched:
                failures.append(report.to_json())
    elapsed = time.perf_counter() - started
    _criterion(6, not failures, elapsed, 300, f"{runs} Carlitz checks, all MATCH")


def test_criterion_07_fdes_trivariate_repair():
    started = time.perf_counter()
    runs = 0
    failures = []
    for r, p, s, n in _carlitz_grid():
        report = verify_fdes_trivariate(r, p, s, n, tmax=8, qmax=8, amax=8)
        runs += 1
        oracle_ok = report.matched
        notes_ok = all(note.endswith("True") for note in report.notes)
        if not (oracle_ok and notes_ok):
            failures.append(report.to_json())
    elapsed = time.perf_counter() - started
    _criterion(
        7, not failures, elapsed, None,
        f"{runs} trivariate flag-descent reports, oracle + a=1 agreement recorded",
    )


def test_criterion_08_six_statistics():
    started = time.perf_counter()
    runs = 0
    failures = []
    for r in (1, 2, 3):
        pairs = sorted({(p, s) for n in (1, 2, 3) for p, s in _admissible(r, n)})
        for p, s in pairs:
            report = verify_six_stats(r, p, s, nmax=3, tmax=4, qmax=8, umax=3)
            runs += 1
            if not report.matched:
                failures.append(report.to_json())
    elapsed = time.perf_counter() - started
    _criterion(8, not failures, elapsed, 600, f"{runs} six-statistics checks, all MATCH")


def test_criterion_09_hilbert_series():
    started = time.perf_counter()
    failures = []
    resolutions = []
    classical = verify_hilbert(1, 1, 1, nmax=4, qmax=6)
    if not classical.matched:
        failures.append(classical.to_json())
    for r, p, s in ((2, 1, 2), (2, 2, 1), (4, 2, 2)):
        report = verify_hilbert(r, p, s, nmax=4, qmax=6)
        if not report.matched:
            failures.append(report.to_json())
        if not any("interchanged form" in note for note in report.notes):
            failures.append(("missing resolution note", report.to_json()))
        resolutions.append(report.notes[-1])
    # the (2,2,1) run discriminates the two readings of the interchanged form
    dual_resolved = any("step r/p" in note for note in resolutions)
    elapsed = time.perf_counter() - started
    _criterion(
        9, not failures and dual_resolved, elapsed, None,
        "Hilbert identity MATCH; interchanged form resolved to congruence step r/p",
    )


def test_criterion_10_bijection_round_trips():
    started = time.perf_counter()
    checks = 0

    for r in (1, 2, 3, 4):
        for n in (1, 2, 3):
            for p, s in _admissible(r, n):
                group = make_group(r, p, s, n)
                for f in itertools.product(range(2 * r + 1), repeat=n):
                    if sum(f) % p:
                        continue
                    g, lam, h = nvec_encode(f, group)
                    assert nvec_decode(g, lam, h) == f
                    checks += 1

    B4 = make_group(2, 1, 1, 4)
    for g in enumerate_elements(B4):
        assert rs_inverse(rs_correspondence(g), B4) == g
        checks += 1

    for n in (4, 5):
        B = make_group(2, 1, 1, n)
        for g in enumerate_elements(B):
            image = rs_transpose_map(g)
            assert bn_descent_split(g).neg == bn_descent_split(image).neg
            assert des_set(g, COLOR) == des_set(image, PRIME)
            assert des_set(inverse(g), COLOR) == des_set(inverse(image), PRIME)
            checks += 1

    G33 = make_group(3, 1, 1, 3)
    for g in enumerate_elements(G33):
        image = order_involution(g)
        assert des_set(image, COLOR) == des_set(g, PRIME)
        assert stat_record(image).col == stat_record(g).col
        checks += 1
    for g in enumerate_elements(B4):
        image = order_involution(g)
        assert des_set(image, COLOR) == des_set(g, PRIME)
        assert stat_record(image).col == stat_record(g).col
        assert order_involution(image) == g
        checks += 1

    B7 = make_group(2, 1, 1, 7)
    g = parse_window("[5,-2,-1,-4,6,-3,-7]", B7)
    (p0, p1), (q0, q1) = rs_correspondence(g)
    assert (p0, p1, q0, q1) == (
        ((5, 6),),
        ((1, 3, 7), (2, 4)),
        ((1, 5),),
        ((2, 4, 7), (3, 6)),
    )
    assert rs_transpose_map(g) == parse_window("[5,-3,-7,-1,6,-4,-2]", B7)
    checks += 1

    elapsed = time.perf_counter() - started
    _criterion(10, True, elapsed, None, f"{checks} round-trip/property checks")


def test_criterion_11_property_suites():
    started = time.perf_counter()
    checks = 0

    # fmaj and fmaj' are equidistributed on G(r,n), r <= 3, n <= 4
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4):
            group = make_group(r, 1, 1, n)
            fm = sorted(stat_record(g).fmaj for g in enumerate_elements(group))
            fmp = sorted(fmaj_prime(g) for g in enumerate_elements(group))
            assert fm == fmp
            checks += group.order

    # minimality of the k vector over exhaustive beta boxes
    from projstat.groups import residue

    for params in ((3, 1, 1, 2), (4, 1, 2, 2), (4, 2, 2, 2)):
        group = make_group(*params)
        r, n = group.r, group.n
        for g in enumerate_elements(group):
            rec = stat_record(g)
            color_vectors = [lift.colors for lift in lifts(g)]
            for beta in itertools.product(range(rec.kvec[0] + r + 1), repeat=n):
                if any(a < b for a, b in zip(beta, beta[1:])):
                    continue
                if not any(
                    all(residue(x, r) == c for x, c in zip(beta, colors))
                    for colors in color_vectors
                ):
                    continue
                assert all(x >= k for x, k in zip(beta, rec.kvec))
                checks += 1

    # membership in G(r,p,s,n) is fmaj divisibility, r <= 4, n <= 4
    for r in (2, 3, 4):
        for n in (1, 2, 3, 4):
            for s in _divisors(r):
                for p in _divisors(r):
                    if (r * n) % (p * s) or (r * n) % s:
                        continue
                    group = make_group(r, 1, s, n)
                    for g in enumerate_elements(group):
                        member = sum(g.colors) % p == 0
                        assert member == (stat_record(g).fmaj % p == 0)
                        checks += 1

    # every statistic is invariant across the s lifts
    for r in (2, 3, 4):
        for n in (1, 2, 3):
            for p, s in _admissible(r, n):
                group = make_group(r, p, s, n)
                for g in enumerate_elements(group):
                    rec = stat_record(g)
                    for lift in lifts(g):
                        assert stat_record(canonicalize(lift, group)) == rec
                    checks += 1

    # the wreath remark: des == des_G and fmaj == r maj + col for r <= 4, n <= 5
    for r in (1, 2, 3, 4):
        for n in range(1, 6):
            group = make_group(r, 1, 1, n)
            if group.order > 130_000:
                continue
            for g in enumerate_elements(group, budget=130_000):
                rec = stat_record(g)
                assert rec.des == rec.desG
                assert rec.fmaj == r * rec.maj + rec.col
                checks += 1

    elapsed = time.perf_counter() - started
    _criterion(11, True, elapsed, None, f"{checks} property checks")
