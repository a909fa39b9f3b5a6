import inspect
import itertools
import math
import time

import pytest
import sympy

from projstat import identities
from projstat.cyclotomic import CycInt, zeta_pow
from projstat.groups import BudgetExceededError, DivisibilityError, make_group, residue
from projstat.series import ConstantTermError, RegionError, TruncatedSeries, geom_divide, packing, q_bracket
from projstat.stats import distribution, inversions
from projstat.identities import (
    CharacterConditionError,
    CompositionError,
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


def test_character_b2_worked_oracle():
    # over B_2 with eps=-1, k=1 both sides are 1 - q^4
    report = verify_character_fmaj(2, 1, 1, 2, -1, 1)
    assert report.matched
    assert report.element_count == 8


def test_character_poincare_specialization():
    report = verify_character_fmaj(4, 2, 2, 3, 1, 0)
    assert report.matched


def test_character_gessel_simion_s3():
    report = verify_character_fmaj(1, 1, 1, 3, -1, 0)
    assert report.matched


def _character_groups(nmax=3):
    """Every admissible (r, p, s, n) with r <= 6 and 1 <= n <= nmax."""
    for r in range(1, 7):
        for n in range(1, nmax + 1):
            for p in range(1, r + 1):
                for s in range(1, r + 1):
                    if r % p == 0 and r % s == 0 and (r * n) % (p * s) == 0:
                        yield r, p, s, n


def test_character_matches_on_the_small_grid_including_rank_1():
    # at rank 1 the cap can lie below the bracket base q^p; that base
    # truncates to zero and its length-1 bracket is 1
    runs = 0
    for r, p, s, n in _character_groups():
        for eps in (1, -1):
            for k in range(r // p):
                if (k * n) % s == 0:
                    report = verify_character_fmaj(r, p, s, n, eps, k)
                    assert report.matched, report.to_json()
                    runs += 1
    assert runs == 354


def test_character_cap_bounds_the_untruncated_bracket_product():
    # the untwisted product has positive coefficients, so its degree bounds
    # every twist's, and no term of the right-hand side is ever truncated
    q = sympy.symbols("q")

    def bracket(length, base):
        return sum((base**i for i in range(length)), sympy.Integer(0))

    for r, p, s, n in _character_groups():
        product = bracket(n * r // (p * s), q**p) * bracket(p, q) ** n
        for i in range(1, n):
            product *= bracket(i * r // p, q**p)
        degree = sympy.Poly(sympy.expand(product), q).degree()
        report = verify_character_fmaj(r, p, s, n)
        assert degree <= report.region["q"], (r, p, s, n)


@pytest.mark.parametrize(
    "r,p,s,n,eps,k",
    [
        (8, 2, 2, 3, -1, 2),
        (8, 1, 4, 2, -1, 2),
        (12, 3, 2, 3, -1, 2),
        (12, 2, 3, 3, 1, 3),
    ],
)
def test_character_higher_conductors(r, p, s, n, eps, k):
    # stresses the cyclotomic coefficient ring at degree-4 conductors
    assert verify_character_fmaj(r, p, s, n, eps, k).matched


def _cyclotomic_bracket_product(r, p, s, n, eps, k, caps):
    """The closed form of character-fmaj built directly in Z[zeta_r]: each
    bracket in its twisted base, multiplied term by term."""
    vars_ = ("q",)

    def bracket(length, scalar, qexp):
        return q_bracket(length, TruncatedSeries.monomial(vars_, caps, {"q": qexp}, scalar))

    rhs = TruncatedSeries.one(vars_, caps)
    zkp = zeta_pow(r, k * p)
    for i in range(1, n):
        rhs = rhs * bracket(i * r // p, zkp * eps ** ((i - 1) * p), p)
    rhs = rhs * bracket(n * r // (p * s), zkp * eps ** ((n - 1) * p), p)
    braces = TruncatedSeries.one(vars_, caps)
    for _ in range(n - n // 2):
        braces = braces * bracket(p, zeta_pow(r, k), 1)
    for _ in range(n // 2):
        braces = braces * bracket(p, zeta_pow(r, k) * eps, 1)
    return rhs * braces.extract_multiples({"q": p})


def test_character_closed_form_is_the_cyclotomic_bracket_product():
    # G(zeta^k q) with G over Z[q] has the same terms, printed the same way
    # (the constant term an int), as the product taken in Z[zeta_r], at the
    # untruncated cap and at half of it
    runs = 0
    for r, p, s, n in _character_groups(nmax=4):
        top = p * sum(i * r // p - 1 for i in range(1, n)) + p * (n * r // (p * s) - 1) + n * (p - 1)
        for eps in (1, -1):
            for k in range(r // p):
                if (k * n) % s:
                    continue
                for cap in (top, top // 2):
                    args = (r, p, s, n, eps, k, {"q": cap})
                    got = identities._character_rhs(*args).exp_terms
                    want = _cyclotomic_bracket_product(*args).exp_terms
                    assert {e: str(c) for e, c in got.items()} == {
                        e: str(c) for e, c in want.items()
                    }, args
                runs += 1
    assert runs == 494


def test_character_multiplies_in_z_zeta_once_per_term(monkeypatch):
    # the enumeration side builds each coefficient from its counts per power
    # of zeta, with no product; the closed form takes at most one per term
    # for the twist q -> zeta^k q
    calls = []
    real = CycInt.__mul__

    def counting(self, other):
        calls.append(other)
        return real(self, other)

    monkeypatch.setattr(CycInt, "__mul__", counting)
    monkeypatch.setattr(CycInt, "__rmul__", counting)
    report = verify_character_fmaj(6, 1, 1, 4, -1, 1)
    assert report.matched
    assert report.region["q"] == 56
    assert len(calls) <= report.region["q"] + 1


def test_character_conditions_refused():
    with pytest.raises(CharacterConditionError):
        verify_character_fmaj(6, 2, 3, 4, 1, 1)  # s=3 does not divide kn=4
    with pytest.raises(CharacterConditionError):
        verify_character_fmaj(4, 2, 1, 3, 1, 2)  # k out of [0, r/p - 1]
    with pytest.raises(CharacterConditionError):
        verify_character_fmaj(2, 1, 1, 3, 2, 0)  # eps not a sign
    with pytest.raises(DivisibilityError):
        verify_character_fmaj(2, 2, 2, 3, 1, 0)  # the group does not exist


def test_character_refuses_every_bad_k():
    for r, p, s, n in ((4, 1, 2, 3), (6, 1, 3, 4), (6, 2, 3, 4)):
        for k in range(r // p):
            if (k * n) % s:
                with pytest.raises(CharacterConditionError):
                    verify_character_fmaj(r, p, s, n, 1, k)
            else:
                assert verify_character_fmaj(r, p, s, n, 1, k).matched


def test_signed_multinomial_examples():
    assert verify_signed_multinomial(3, (2, 1)).matched
    assert verify_signed_multinomial(2, (1, 1)).matched
    assert verify_signed_multinomial(4, (2, 2)).matched
    with pytest.raises(CompositionError):
        verify_signed_multinomial(4, (2, 1))
    with pytest.raises(CompositionError):
        verify_signed_multinomial(3, (4, -1))


def test_signed_multinomial_refuses_before_enumerating(monkeypatch):
    report = verify_signed_multinomial(4, (2, 2), budget=6)
    assert report.matched and report.element_count == 6
    assert report.params == {"n": 4, "parts": [2, 2]}
    calls = []
    monkeypatch.setattr(identities, "_signed_fillings", lambda parts: calls.append(parts) or 0)
    with pytest.raises(BudgetExceededError) as exc:
        verify_signed_multinomial(16, (8, 8), budget=12_869)
    assert (exc.value.order, exc.value.budget) == (12_870, 12_869)
    monkeypatch.setenv("PROJSTAT_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        verify_signed_multinomial(4, (2, 2))
    assert calls == []


def test_signed_multinomial_refuses_by_a_running_product():
    # C(2,2) C(4,2) = 6 passes the budget before C(6,2) is taken
    with pytest.raises(BudgetExceededError, match="^filling count at least 6 exceeds"):
        verify_signed_multinomial(6, (2, 2, 2), budget=1)
    # C(200, 100) >= 2^100, past a budget of 2^20 - 1: refused by 2^20
    with pytest.raises(BudgetExceededError) as exc:
        verify_signed_multinomial(200, (100, 100), budget=2**20 - 1)
    assert exc.value.order == 2**20
    assert str(exc.value) == "filling count at least 1048576 exceeds enumeration budget 1048575"
    # 2^100 fits a budget of 2^190, so C(200, 100) is taken exactly
    with pytest.raises(BudgetExceededError) as exc:
        verify_signed_multinomial(200, (100, 100), budget=2**190)
    assert exc.value.order == math.comb(200, 100)
    assert str(exc.value).startswith(f"filling count {math.comb(200, 100)} exceeds")


def test_signed_multinomial_signs_each_filling_in_linear_time():
    # 2000 fillings of 2000 values, then one filling of 20000: the word DP
    # keeps at most two states per value, not one walk per filling
    started = time.perf_counter()
    assert verify_signed_multinomial(2000, (1, 1999)).matched
    assert time.perf_counter() - started < 5
    started = time.perf_counter()
    assert verify_signed_multinomial(20000, (20000,)).matched
    assert time.perf_counter() - started < 1


def test_signed_multinomial_work_follows_the_states_not_the_fillings():
    # 10^5 fillings of 10^5 values: 2 * 10^5 DP states, where a walk over
    # the fillings took 10^10 steps
    started = time.perf_counter()
    report = verify_signed_multinomial(100_000, (1, 99_999))
    assert report.matched and report.element_count == 100_000
    assert time.perf_counter() - started < 5


def _block_fillings(values, parts):
    """Every filling of the blocks: the increasing blocks of each permutation."""
    if not parts:
        yield ()
        return
    for chosen in itertools.combinations(values, parts[0]):
        rest = tuple(v for v in values if v not in chosen)
        for tail in _block_fillings(rest, parts[1:]):
            yield chosen + tail


def test_signed_fillings_equal_the_signed_walk_over_every_filling():
    # all compositions with n <= 8 and at most 4 parts, zero parts included
    checked = 0
    for n in range(9):
        for length in range(1, 5):
            compositions = (p for p in itertools.product(range(n + 1), repeat=length) if sum(p) == n)
            for parts in compositions:
                fillings = _block_fillings(tuple(range(1, n + 1)), parts)
                want = sum((-1) ** inversions(sigma) for sigma in fillings)
                assert identities._signed_fillings(parts) == want, parts
                checked += 1
    assert checked == 714


def test_signed_wreath_examples():
    assert verify_signed_wreath(1, 3).matched
    r = verify_signed_wreath(2, 1)
    assert r.matched and r.element_count == 2
    assert verify_signed_wreath(3, 2).matched


def test_lift_identity_examples():
    assert verify_lift_identity(2, 1, 3).matched  # s=1: both sides one monomial
    assert verify_lift_identity(2, 2, 2).matched
    report = verify_lift_identity(6, 3, 2)
    assert report.matched
    assert report.element_count == 24


@pytest.mark.parametrize("r,s", [(2, 2), (4, 2), (6, 3)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_lift_identity_invariant_scale(r, s, n):
    assert verify_lift_identity(r, s, n).matched


def test_carlitz_des_examples():
    assert verify_carlitz_des(1, 1, 1, 2, tmax=4, qmax=8).matched
    assert verify_carlitz_des(2, 1, 1, 2, tmax=6, qmax=6).matched
    assert verify_carlitz_des(1, 1, 1, 0, tmax=5, qmax=5).matched


def test_carlitz_fdes_examples():
    assert verify_carlitz_fdes(2, 1, 1, 2, tmax=6, qmax=6).matched
    assert verify_carlitz_fdes(1, 1, 1, 3, tmax=6, qmax=6).matched
    assert verify_carlitz_fdes(1, 1, 1, 0).matched


@pytest.mark.parametrize(
    "verifier", [verify_carlitz_des, verify_carlitz_fdes, verify_fdes_trivariate]
)
@pytest.mark.parametrize("r,p,s", [(2, 5, 1), (2, 1, 4), (4, 3, 2)])
def test_carlitz_rank_0_validates_the_group(verifier, r, p, s):
    with pytest.raises(DivisibilityError):
        verifier(r, p, s, 0)


@pytest.mark.parametrize(
    "verifier, args",
    [
        (verify_carlitz_des, dict(r=4, n=3, qmax=3)),
        (verify_carlitz_fdes, dict(r=2, n=3, qmax=0)),
        (verify_fdes_trivariate, dict(r=4, n=2, qmax=3)),
    ],
)
def test_carlitz_region_refusal_builds_no_histogram(monkeypatch, verifier, args):
    def unreachable(*a, **k):
        raise AssertionError("histogram built before the region refusal")

    monkeypatch.setattr(identities, "distribution", unreachable)
    monkeypatch.setattr(identities, "signed_distribution", unreachable)
    monkeypatch.setattr(identities, "factors", unreachable)
    monkeypatch.setattr(identities, "ranked_factors", unreachable)
    with pytest.raises(RegionError):
        verifier(**args)


def test_carlitz_fdes_constant_in_t_coefficient():
    # only fmaj-0 elements survive at t^0 on both sides
    report = verify_carlitz_fdes(3, 1, 1, 2, tmax=4, qmax=6)
    assert report.matched


def test_fdes_trivariate_examples():
    # rank 0: one element with every statistic 0, as for carlitz-des and
    # carlitz-fdes; both sides are 1/(1-t), so no q cap is too small
    for r, qmax in ((1, 6), (3, 6), (4, 3)):
        report = verify_fdes_trivariate(r, 1, 1, 0, qmax=qmax)
        assert (report.outcome, report.element_count) == (identities.MATCH, 1)


def test_fdes_trivariate_reports_all_three_checks():
    report = verify_fdes_trivariate(2, 1, 2, 2)
    assert report.matched
    assert any("direct lattice sum" in note and "True" in note for note in report.notes)
    assert any("enumeration oracle: True" in note for note in report.notes)
    assert any("flag-descent k-sum: True" in note for note in report.notes)


def test_fdes_trivariate_a1_collapse_matches_carlitz():
    report = verify_fdes_trivariate(4, 1, 2, 2, tmax=5, qmax=6)
    assert report.matched
    assert any("flag-descent k-sum: True" in note for note in report.notes)


def test_fdes_trivariate_notes_a_raised_amax_only():
    raised = verify_fdes_trivariate(2, 1, 1, 2, tmax=4, qmax=6, amax=3)
    assert raised.params["amax"] == 6 and raised.region["a"] == 6
    assert raised.notes[0] == "amax raised from 3 to qmax=6 for the a=1 collapse"
    for amax in (None, 6, 8):
        report = verify_fdes_trivariate(2, 1, 1, 2, tmax=4, qmax=6, amax=amax)
        assert report.params["amax"] == (amax or 6)
        assert len(report.notes) == 3 and all(note.endswith("True") for note in report.notes)


def test_six_stats_examples():
    assert verify_six_stats(1, 1, 1, nmax=2, tmax=3, qmax=6, umax=2).matched
    assert verify_six_stats(2, 1, 1, nmax=2, tmax=3, qmax=6, umax=2).matched
    report = verify_six_stats(2, 1, 2, nmax=2, tmax=3, qmax=6, umax=2)
    assert report.matched
    assert any("rank-0" in note for note in report.notes)


def test_six_stats_degenerate_shapes():
    # nmax below the rank step d leaves only the rank-0 term
    assert verify_six_stats(2, 2, 2, nmax=1, tmax=3, qmax=6, umax=2).matched
    assert verify_six_stats(3, 3, 3, nmax=3, tmax=3, qmax=6, umax=3).matched


def test_hilbert_classical_and_quotients():
    assert verify_hilbert(1, 1, 1, nmax=3, qmax=6).matched
    report = verify_hilbert(2, 2, 1, nmax=3, qmax=6)
    assert report.matched
    assert any("step r/p" in note and "True" in note for note in report.notes)
    # at (2,2,1) only the fully swapped congruence step survives, and the
    # report says so
    assert any("step r/s" in note and "False" in note for note in report.notes)
    assert any("resolved" in note for note in report.notes)


def test_hilbert_with_p_equal_s_enumerates_each_rank_once(monkeypatch):
    from projstat import identities

    calls = []
    real = identities.ranked_factors

    def counting(groups, keys, caps=None):
        ranked = real(groups, keys, caps)

        def counted(group, keys, budget=None, caps=None):
            calls.append(group)
            return ranked(group, keys, budget, caps)

        return counted

    monkeypatch.setattr(identities, "ranked_factors", counting)
    report = verify_hilbert(2, 1, 1, nmax=3, qmax=8)
    assert report.matched
    assert [str(g) for g in calls] == ["G(2,1,1,1)", "G(2,1,1,2)", "G(2,1,1,3)"]
    # the count still adds the group and its p <-> s dual (here the same group)
    assert report.element_count == 2 * (2 + 8 + 48)


def test_hilbert_with_p_equal_s_builds_and_compares_one_lattice_sum(monkeypatch):
    # with p == s the main and both interchanged sums are one extraction of
    # one sum, against one enumeration: one comparison, the same notes.  The
    # interchanged forms read only the verdict (agree_on), which counts too
    compared = []
    real, real_agree = identities.equal_on, identities.agree_on
    monkeypatch.setattr(identities, "equal_on", lambda a, b: compared.append(1) or real(a, b))
    monkeypatch.setattr(identities, "agree_on", lambda a, b: compared.append(1) or real_agree(a, b))
    for (r, p, s), comparisons in (((2, 1, 1), 1), ((4, 2, 2), 1), ((2, 2, 1), 3), ((4, 1, 2), 3)):
        compared.clear()
        report = verify_hilbert(r, p, s, nmax=4, qmax=6)
        assert report.matched and len(compared) == comparisons
        if p == s:
            assert report.notes == (
                "interchanged form, congruence step r/s (l < p, braces u^d q1^s): True",
                "interchanged form, congruence step r/p (l < p, braces u^d q1^s): True",
                "both readings of the interchanged form agree with the dual enumeration",
            )
    # a wrong enumeration side fails the interchanged forms too
    real_sum = identities._rank_sum

    def one_more_at_u(vars_, caps, *args):
        one = TruncatedSeries.monomial(vars_, caps, {"u": 1})
        return [(rhs + one, count) for rhs, count in real_sum(vars_, caps, *args)]

    monkeypatch.setattr(identities, "_rank_sum", one_more_at_u)
    report = verify_hilbert(2, 1, 1, nmax=4, qmax=6)
    assert report.outcome == identities.MISMATCH
    assert report.notes == (
        "interchanged form, congruence step r/s (l < p, braces u^d q1^s): False",
        "interchanged form, congruence step r/p (l < p, braces u^d q1^s): False",
        "neither reading of the interchanged form matches the dual enumeration",
    )


def _merged(vars_, caps, layers) -> TruncatedSeries:
    """One product the lattice walk yields, its u-degree layers merged."""
    return TruncatedSeries(vars_, caps)._with({key: c for layer in layers for key, c in layer.items()})


def _rectangle_product(vars_, caps, monomial, r, c, imax, jmax):
    """The reference lattice product: 1 divided by 1 - M, one point at a time,
    for every point i <= imax, j <= jmax with i + j = c (mod r)."""
    out = TruncatedSeries.one(vars_, caps)
    for i in range(imax + 1):
        for j in range(jmax + 1):
            if (i + j - c) % r == 0:
                out = geom_divide(out, TruncatedSeries.monomial(vars_, caps, monomial(i, j)))
    return out


@pytest.mark.parametrize("r, s", [(r, s) for r in range(1, 5) for s in range(1, r + 1) if r % s == 0])
def test_lattice_walk_equals_the_product_over_each_rectangle(r, s):
    # six-stats' monomials and bounds min(k r/s, qmax), k <= 4: past qmax = 5
    # they collapse when r/s >= 2; at r/s = 1 six-stats reads every residue.
    # The walk keeps one layer per u-degree up to the u cap: cap 1 steps one
    # layer below the top, cap 5 four
    rs, qmax = r // s, 5
    vars_ = ("u", "q1", "q2", "a1", "a2")
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j, "a1": residue(i, rs), "a2": residue(j, rs)}
    bounds = sorted({min(k * rs, qmax) for k in range(5)})
    for ucap in (1, 2, 3, 5):
        caps = {"u": ucap, "q1": qmax, "q2": qmax, "a1": qmax, "a2": qmax}
        for ibounds, jbounds in ((bounds, bounds), (bounds[1:], bounds), (bounds, bounds[-2:])):
            walk = identities._lattice_walk(vars_, caps, monomial, r, range(r), ibounds, jbounds)
            seen = []
            for imax, jmax, products in walk:
                seen.append((imax, jmax))
                assert sorted(products) == list(range(r))
                for c, layers in products.items():
                    # the layers are live: merged before the walk advances
                    product = _merged(vars_, caps, layers)
                    assert product == _rectangle_product(vars_, caps, monomial, r, c, imax, jmax)
            assert seen == [(i, j) for i in ibounds for j in jbounds]


@pytest.mark.parametrize("u", [0, 2])
def test_lattice_walk_refuses_a_monomial_whose_u_degree_is_not_1(u):
    vars_, caps = ("u", "q1", "q2"), {"u": 3, "q1": 4, "q2": 4}
    monomial = lambda i, j: {"u": u if (i, j) == (1, 2) else 1, "q1": i, "q2": j}
    with pytest.raises(ValueError, match=r"u-degree other than 1"):
        next(identities._lattice_walk(vars_, caps, monomial, 1, [0], [4], [4]))


def _merged_sum(vars_, caps, products, classes) -> TruncatedSeries:
    """The sum of the walk's products of classes, each merged into a series."""
    merged = (_merged(vars_, caps, products[c]) for c in classes)
    return sum(merged, TruncatedSeries.zero(vars_, caps))


@pytest.mark.parametrize("r, p, s, d", [(2, 2, 2, 2), (4, 4, 2, 2), (2, 1, 2, 1), (3, 1, 1, 1)])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_extracted_equals_the_merged_sum_extracted(r, p, s, d, m):
    # hilbert's three class lists (main, and both readings of the
    # interchanged form, which list a class twice when p > s) at every yield
    # of a walk over several rectangles; d = 2 on G(2,2,2,.) and G(4,4,2,.)
    assert identities._quotient_divisor(r, p, s) == d
    vars_, caps = ("u", "q1", "q2"), {"u": 4, "q1": 7, "q2": 7}
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j}
    fields = packing(vars_, caps)[3]
    readings = [[l * step % r for l in range(count)] for step, count in ((r // s, s), (r // s, p), (r // p, p))]
    walk = identities._lattice_walk(vars_, caps, monomial, r, range(r), [3, 7], [2, 7])
    for _, _, products in walk:
        # a class's layers share no key, so _extracted joins its first class's whole
        for layers in products.values():
            assert len(set().union(*layers)) == sum(map(len, layers))
        for classes in readings:
            for var in ("q1", "q2"):
                want = _merged_sum(vars_, caps, products, classes).extract_multiples({"u": d, var: m})
                assert identities._extracted(products, classes, d, fields[var], m) == want.terms


@pytest.mark.parametrize(
    "r, p, s, needed",
    [(2, 2, 1, {0, 1}), (2, 1, 2, {0, 1}), (4, 2, 1, {0, 2}), (4, 4, 1, {0, 1, 2, 3}), (4, 2, 2, {0, 2})],
)
def test_hilbert_walks_each_needed_residue_once(monkeypatch, r, p, s, needed):
    # G(2,2,1): the sums (r/s, s), (r/s, p) and (r/p, p) have five classes but
    # two residues
    real = identities._lattice_walk
    calls = []

    def recording(vars_, caps, monomial, r, residues, ibounds, jbounds):
        calls.append((sorted(residues), ibounds, jbounds))
        return real(vars_, caps, monomial, r, residues, ibounds, jbounds)

    monkeypatch.setattr(identities, "_lattice_walk", recording)
    assert verify_hilbert(r, p, s, nmax=2, qmax=5).matched
    assert calls == [(sorted(needed), [5], [5])]


@pytest.mark.parametrize(
    "verifier, args, refused",
    [
        (verify_hilbert, dict(r=2, nmax=12, qmax=6), "G(2,1,1,8): group order 10321920"),
        (verify_hilbert, dict(r=2, nmax=10**5, qmax=6), "G(2,1,1,8): group order 10321920"),
        (verify_hilbert, dict(r=4, p=2, s=1, nmax=12), "G(4,2,1,6): group order 1474560"),
        (verify_six_stats, dict(r=2, nmax=12, umax=12), "G(2,1,1,8): group order 10321920"),
        (verify_six_stats, dict(r=2, nmax=20_000, umax=20_000), "G(2,1,1,8): group order 10321920"),
    ],
)
def test_ranked_sums_refuse_an_over_budget_rank_before_any_lattice_work(
    monkeypatch, verifier, args, refused
):
    # the lattice walk keeps one layer per u-degree up to the u cap, which
    # at nmax 10^5 takes seconds: an over-budget rank is refused before it
    walks = []
    monkeypatch.setattr(identities, "_lattice_walk", lambda *args: walks.append(args))
    with pytest.raises(BudgetExceededError) as exc:
        verifier(**args, budget=10**6)
    assert str(exc.value) == refused + " exceeds enumeration budget 1000000"
    assert walks == []


@pytest.mark.parametrize(
    "verifier, args",
    [
        (verify_hilbert, dict(r=2, p=1, s=2, nmax=4, qmax=6)),  # G(2,1,2,.) and its dual G(2,2,1,.)
        (verify_hilbert, dict(r=2, nmax=4, qmax=6)),
        (verify_six_stats, dict(r=2, p=1, s=2, nmax=4, umax=4)),
    ],
)
def test_an_over_budget_rank_refuses_before_its_tableau_level_is_walked(monkeypatch, tableau_walks, verifier, args):
    # one walk serves every rank, a level at a time: rank 3 is refused
    # after levels 1 and 2, before level 3 and before any lattice work, and
    # by the group's own message, as when each group's ranks ran alone
    walks = []
    monkeypatch.setattr(identities, "_lattice_walk", lambda *args: walks.append(args))
    group = make_group(args["r"], args.get("p", 1), args.get("s", 1), 3)
    with pytest.raises(BudgetExceededError) as exc:
        verifier(**args, budget=group.order - 1)
    assert str(exc.value) == f"{group}: group order {group.order} exceeds enumeration budget {group.order - 1}"
    assert ([len(walk) for walk in tableau_walks], walks) == ([2], [])


@pytest.mark.parametrize("r, p, s", [(1, 1, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (4, 2, 2), (3, 1, 3)])
def test_the_joins_without_adding_join_key_disjoint_parts(monkeypatch, r, p, s):
    # the ranks of a ranked sum, each at its own u-degree, and six-stats'
    # blocks, each at its own (k1, k2), are joined without adding: no two
    # parts share a key, and the joined side holds every part
    ranks = {}
    real = identities._enumeration_side

    def recording(vars_, caps, r, p, s, *args):
        side, count = real(vars_, caps, r, p, s, *args)
        ranks.setdefault((vars_, p, s), []).append(side.terms)
        return side, count

    monkeypatch.setattr(identities, "_enumeration_side", recording)
    compared = []
    for verify, kwargs in ((verify_six_stats, dict(nmax=4, tmax=3, qmax=5, umax=4)), (verify_hilbert, dict(nmax=4))):
        report, (lhs, rhs) = _compared_sides(verify, r, p, s, **kwargs)
        assert report.matched
        compared.append(rhs)
    for (vars_, p_, s_), parts in ranks.items():
        joined = {key: c for part in parts for key, c in part.items()}
        assert len(joined) == sum(map(len, parts)), (vars_, p_, s_)
        if (p_, s_) == (p, s):
            assert any(side.vars == vars_ and side.terms == joined for side in compared)

    # six-stats' blocks at their shifts, walked as the verifier walks them
    d, rs, tmax, qmax = identities._quotient_divisor(r, p, s), r // s, 3, 5
    vars_ = ("u", "t1", "t2", "q1", "q2", "a1", "a2")
    caps = {"u": 4, "t1": tmax, "t2": tmax} | {v: qmax for v in ("q1", "q2", "a1", "a2")}
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j, "a1": residue(i, rs), "a2": residue(j, rs)}
    pack, _, _, fields = packing(vars_, caps)
    ks = {}
    for k in range(tmax + 1):
        ks.setdefault(min(k * rs, qmax), []).append(k)
    blocks = []
    classes = range(0, r, rs)
    for imax, jmax, products in identities._lattice_walk(vars_, caps, monomial, r, classes, [*ks], [*ks]):
        block = identities._extracted(products, classes, d, fields["q1"], p)
        for k1, k2 in itertools.product(ks[imax], ks[jmax]):
            shift = pack({"t1": k1, "t2": k2})
            blocks.append({key + shift for key in block})
    assert len(set().union(*blocks)) == sum(map(len, blocks))


def test_parameters_agree_with_the_signatures():
    for name, verifier in identities.VERIFIERS.items():
        signature = inspect.signature(verifier).parameters
        assert all(param.kind is param.POSITIONAL_OR_KEYWORD for param in signature.values())
        expected = [
            (key, identities.REQUIRED if param.default is param.empty else param.default)
            for key, param in signature.items()
        ]
        assert list(identities.parameters(verifier).items()) == expected, name


def test_a_verifier_refuses_bad_arguments_before_any_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a histogram was built")

    monkeypatch.setattr(identities, "distribution", refuse)
    monkeypatch.setattr(identities, "signed_distribution", refuse)
    monkeypatch.setattr(identities, "factors", refuse)
    monkeypatch.setattr(identities, "ranked_factors", refuse)
    with pytest.raises(TypeError, match="unexpected keyword argument 'nmax'"):
        verify_carlitz_des(2, nmax=3)
    with pytest.raises(TypeError, match="missing 1 required positional argument: 'r'"):
        verify_carlitz_des(n=3)
    with pytest.raises(TypeError, match="multiple values for argument 'r'"):
        verify_carlitz_des(2, r=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'n'"):
        verify_hilbert(2, n=3)


def test_lattice_products_cost_one_division_per_point_and_row_bound(monkeypatch):
    # six-stats applies 105 lattice points, hilbert 169; built per block and
    # class, they were 355 and 448 divisions.  The enumeration sides divide
    # each side of each pair of factors by that side's chain monomials, a
    # small packed dict at a time: six-stats' ranks 0..3 hold 1, 2, 5 and 10
    # pairs, each divided by n + 1 monomials a side (1 - t_i among them), so
    # 2 + 8 + 30 + 80 = 120 divisions.  Dividing the joined histograms took
    # 14 and 24 divisions of whole series
    points, divisions = [], []
    real_layers, real_divide = identities._divide_layers, identities.geom_divide_terms
    monkeypatch.setattr(identities, "_divide_layers", lambda *a: points.append(1) or real_layers(*a))
    monkeypatch.setattr(identities, "geom_divide_terms", lambda *a: divisions.append(1) or real_divide(*a))
    assert verify_six_stats(2, 1, 1, nmax=4, tmax=4, qmax=12).matched
    assert (len(points), len(divisions)) == (105, 120)
    points.clear()
    divisions.clear()
    assert verify_hilbert(2, 2, 1, nmax=3, qmax=12).matched
    assert (len(points), len(divisions)) == (169, 88)


def test_far_corner_first_cuts_the_step_attempts(monkeypatch):
    # a division steps each term below the top layer once; applying a strip's
    # points in descending i + j lets the high-degree points step through
    # small layers.  In ascending (i, j) the counts were 59,881, 17,605 and
    # 7,747
    attempts = []
    real = identities._divide_layers

    def counting(layers, step, bias, guard):
        attempts.append(sum(len(layer) for layer in layers[:-1]))
        return real(layers, step, bias, guard)

    monkeypatch.setattr(identities, "_divide_layers", counting)
    for verify, args, want in (
        (verify_hilbert, (1, 1, 1, 5, 11), 16188),
        (verify_hilbert, (2, 2, 1, 3, 12), 9409),
        (verify_six_stats, (2, 1, 1, 4, 4, 12), 7527),
    ):
        attempts.clear()
        assert verify(*args).matched
        assert sum(attempts) == want


def _six_stats_sides_reference(r, p, s, nmax, tmax, qmax, umax):
    """six-stats' two sides built by series arithmetic: each (k1, k2) block
    is a sum of rectangle products times t1^k1 t2^k2, added into one total
    that is extracted at the end; each rank is divided by its whole chain,
    (1-t1)(1-t2) included, and added."""
    d, rs = p * s // math.gcd(p * s, r), r // s
    vars_ = ("u", "t1", "t2", "q1", "q2", "a1", "a2")
    caps = {"u": min(umax, nmax), "t1": tmax, "t2": tmax}
    caps |= {v: qmax for v in ("q1", "q2", "a1", "a2")}
    mono = lambda exps: TruncatedSeries.monomial(vars_, caps, exps)
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j, "a1": residue(i, rs), "a2": residue(j, rs)}
    zero = TruncatedSeries.zero(vars_, caps)
    rectangles = {}
    lhs = zero
    for k1, k2 in itertools.product(range(tmax + 1), repeat=2):
        imax, jmax = min(k1 * rs, qmax), min(k2 * rs, qmax)
        if (imax, jmax) not in rectangles:
            rectangles[imax, jmax] = sum(
                (_rectangle_product(vars_, caps, monomial, r, l * rs, imax, jmax) for l in range(s)), zero
            )
        lhs = lhs + mono({"t1": k1, "t2": k2}) * rectangles[imax, jmax]
    lhs = lhs.extract_multiples({"u": d, "q1": p})
    rhs = zero
    for n in range(0, nmax + 1, d):
        keys = ("des", "ides", "fmaj", "ifmaj", "col", "icol")
        hist = distribution(make_group(r, p, s, n), keys) if n else {(0,) * 6: s}
        term = TruncatedSeries(vars_, caps, {(n, *key): c for key, c in hist.items()})
        for t, q in (("t1", "q1"), ("t2", "q2")):
            factors = [{t: 1}] + [{t: s, q: j * r} for j in range(1, n)] + [{t: 1, q: n * r // s}] * (n > 0)
            for exps in factors:
                term = geom_divide(term, mono(exps))
        rhs = rhs + term
    return lhs, rhs


def _hilbert_lhs_reference(r, p, s, qmax, nmax):
    """hilbert's main lattice side: the rectangle products of the classes
    l r/s (l < s), added and extracted at u^d q1^p."""
    d = p * s // math.gcd(p * s, r)
    vars_, caps = ("u", "q1", "q2"), {"u": nmax, "q1": qmax, "q2": qmax}
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j}
    total = TruncatedSeries.zero(vars_, caps)
    for l in range(s):
        total = total + _rectangle_product(vars_, caps, monomial, r, l * r // s % r, qmax, qmax)
    return total.extract_multiples({"u": d, "q1": p})


def _compared_sides(verify, *args, **kwargs):
    """The report and the (lhs, rhs) of the verifier's first comparison."""
    seen = []
    real = identities.equal_on
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identities, "equal_on", lambda a, b, *rest: seen.append((a, b)) or real(a, b, *rest))
        report = verify(*args, **kwargs)
    return report, seen[0]


@pytest.mark.parametrize("r, p, s", [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2), (4, 2, 2), (4, 1, 4)])
def test_each_side_equals_its_series_arithmetic_reference(r, p, s):
    # a bug shared by both sides would still MATCH, so each side is checked
    # on its own against a reference built by series + and *
    report, (lhs, rhs) = _compared_sides(verify_six_stats, r, p, s, nmax=3, tmax=3, qmax=5, umax=3)
    assert report.matched
    want_lhs, want_rhs = _six_stats_sides_reference(r, p, s, nmax=3, tmax=3, qmax=5, umax=3)
    assert (lhs.caps, lhs.terms) == (want_lhs.caps, want_lhs.terms)
    assert (rhs.caps, rhs.terms) == (want_rhs.caps, want_rhs.terms)
    report, (lhs, _) = _compared_sides(verify_hilbert, r, p, s, nmax=3, qmax=6)
    assert report.matched
    want = _hilbert_lhs_reference(r, p, s, qmax=6, nmax=3)
    assert (lhs.caps, lhs.terms) == (want.caps, want.terms)


def _six_stats_lhs_by_blocks(r, p, s, tmax, qmax, ucap) -> TruncatedSeries:
    """six-stats' lattice side assembled block by block as series: each
    class the walk yields merged into a series, the classes added, the sum
    extracted at u^d q1^p, and the block times t1^k1 t2^k2 added for every
    (k1, k2) whose bounds it is."""
    d, rs = identities._quotient_divisor(r, p, s), r // s
    vars_ = ("u", "t1", "t2", "q1", "q2", "a1", "a2")
    caps = {"u": ucap, "t1": tmax, "t2": tmax} | {v: qmax for v in ("q1", "q2", "a1", "a2")}
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j, "a1": residue(i, rs), "a2": residue(j, rs)}
    ks = {}
    for k in range(tmax + 1):
        ks.setdefault(min(k * rs, qmax), []).append(k)
    classes = range(0, r, rs)
    lhs = TruncatedSeries.zero(vars_, caps)
    for imax, jmax, products in identities._lattice_walk(vars_, caps, monomial, r, classes, [*ks], [*ks]):
        block = _merged_sum(vars_, caps, products, classes).extract_multiples({"u": d, "q1": p})
        for k1, k2 in itertools.product(ks[imax], ks[jmax]):
            lhs = lhs + TruncatedSeries.monomial(vars_, caps, {"t1": k1, "t2": k2}) * block
    return lhs


@pytest.mark.parametrize("r, p, s, qmax", [(2, 1, 1, 5), (2, 2, 1, 5), (1, 1, 1, 3), (4, 2, 2, 5)])
def test_six_stats_lhs_equals_its_block_by_block_series_assembly(r, p, s, qmax):
    # tmax 4 and these q caps give two k a side that share their bound
    # min(k r/s, qmax), so some blocks go to several (k1, k2)
    report, (lhs, _) = _compared_sides(verify_six_stats, r, p, s, nmax=4, tmax=4, qmax=qmax, umax=4)
    assert report.matched
    want = _six_stats_lhs_by_blocks(r, p, s, tmax=4, qmax=qmax, ucap=4)
    assert (lhs.caps, lhs.terms) == (want.caps, want.terms)


def test_dropping_the_shared_t_division_is_reported(monkeypatch):
    # every rank's chain holds (1-t1)(1-t2), which all ranks share; without
    # them the enumeration side has no t-degree at rank 0
    real = identities._enumeration_side
    shared = ({"t1": 1}, {"t2": 1})

    def without_shared(vars_, caps, r, p, s, n, keys, chain, *rest):
        return real(vars_, caps, r, p, s, n, keys, [m for m in chain if m not in shared], *rest)

    monkeypatch.setattr(identities, "_enumeration_side", without_shared)
    for args, first in (((2, 1, 1), {"monomial": {"t2": 1}, "lhs": 1, "rhs": 0}),
                        ((2, 1, 2), {"monomial": {"t2": 1}, "lhs": 2, "rhs": 0})):
        report = verify_six_stats(*args, nmax=2, tmax=3, qmax=6, umax=2)
        assert report.outcome == identities.MISMATCH
        assert report.first_mismatch == first


def test_dividing_the_inverse_side_by_the_own_monomials_is_reported(monkeypatch):
    # the chain monomials in (t1, q1) divide the side of g, those in (t2, q2)
    # the side of g^-1; the latter divided by the former's is reported
    real = identities._sides

    def own_twice(chain, inverse_vars):
        own, _ = real(chain, inverse_vars)
        return own, own

    monkeypatch.setattr(identities, "_sides", own_twice)
    for r, p, s in ((1, 1, 1), (2, 1, 1), (2, 1, 2), (3, 1, 1)):
        assert verify_six_stats(r, p, s, nmax=3, tmax=3, qmax=6, umax=3).outcome == identities.MISMATCH
        assert verify_hilbert(r, p, s, nmax=3, qmax=6).outcome == identities.MISMATCH


HILBERT_SIDE = (("u", "q1", "q2"), {"u": 3, "q1": 7, "q2": 7}, 3, 1, 1, 2, ("fmaj", "ifmaj"))


def test_an_enumeration_side_divides_each_side_by_its_own_monomials():
    vars_, caps, r, p, s, n, keys = HILBERT_SIDE
    chain = [{"q1": 3}, {"q2": 2}, {"q1": 0, "q2": 5}, {"q1": 8}]
    side, count = identities._enumeration_side(vars_, caps, r, p, s, n, keys, chain, None, (n,))
    hist = distribution(make_group(r, p, s, n), keys)
    want = TruncatedSeries(vars_, caps, {(n, *key): c for key, c in hist.items()})
    for exps in chain:
        want = geom_divide(want, TruncatedSeries.monomial(vars_, caps, exps))
    assert (side, count) == (want, 18)


def test_a_chain_monomial_on_both_sides_raises():
    vars_, caps, r, p, s, n, keys = HILBERT_SIDE
    for chain in ([{"q1": 1, "q2": 1}], [{"q2": 1}, {"u": 1, "q2": 2}]):
        with pytest.raises(ValueError, match="variables of g and of g"):
            identities._enumeration_side(vars_, caps, r, p, s, n, keys, chain, None, (n,))


def test_a_zero_step_raises_instead_of_hanging():
    # the chain e, e + 0, ... of a monomial without variables never leaves the caps
    vars_, caps, r, p, s, n, keys = HILBERT_SIDE
    for chain in ([{}], [{"q1": 1}, {"q2": 0}]):
        with pytest.raises(ConstantTermError):
            identities._enumeration_side(vars_, caps, r, p, s, n, keys, chain, None, (n,))


def test_an_enumeration_side_packs_each_entry_as_packing_does():
    # with no chain the side is the histogram, laid out after the lead: each
    # entry's key is pack's, with values exactly at their caps among them
    vars_, caps, keys = ("u", "q1", "q2"), {"u": 3, "q1": 5, "q2": 4}, ("fmaj", "ifmaj")
    pack = packing(vars_, caps)[0]
    at_cap = set()
    for r, p, s, n in ((2, 1, 1, 2), (3, 1, 1, 2), (2, 1, 2, 3)):
        group = make_group(r, p, s, n)
        hist = distribution(group, keys, caps={"fmaj": 5, "ifmaj": 4})
        at_cap |= {key for a, b in hist for key, value, cap in ((0, a, 5), (1, b, 4)) if value == cap}
        side, count = identities._enumeration_side(vars_, caps, r, p, s, n, keys, [], None, (n,))
        want = {pack({"u": n, "q1": a, "q2": b}): c for (a, b), c in hist.items()}
        assert (side.terms, count) == (want, group.order)
    assert at_cap == {0, 1}
    # a histogram of g alone (one pair, no inverse side), without a lead
    vars_, caps, keys = ("t", "q", "a"), {"t": 1, "q": 6, "a": 1}, ("des", "fmaj", "col")
    pack = packing(vars_, caps)[0]
    group = make_group(3, 1, 1, 3)
    hist = distribution(group, keys, caps={"des": 1, "fmaj": 6, "col": 1})
    assert [max(values[i] for values in hist) for i in range(3)] == [1, 6, 1]
    side, count = identities._enumeration_side(vars_, caps, 3, 1, 1, 3, keys, [], None)
    want = {pack(dict(zip(vars_, values))): c for values, c in hist.items()}
    assert (side.terms, count) == (want, group.order)


def test_an_enumeration_side_at_rank_0_under_a_lead_is_the_constant_s():
    vars_, caps, _, _, _, _, keys = HILBERT_SIDE
    for r, p, s in ((1, 1, 1), (2, 1, 2), (4, 2, 4)):
        side, count = identities._enumeration_side(vars_, caps, r, p, s, 0, keys, [], None, (0,))
        assert (side.exp_terms, count) == ({(0, 0, 0): s}, 0)


def test_an_enumeration_side_past_the_lead_cap_is_0_and_still_made_and_counted(monkeypatch):
    vars_, caps, r, p, s, _, keys = HILBERT_SIDE  # u <= 3
    made = []
    monkeypatch.setattr(identities, "make_group", lambda *args: made.append(args) or make_group(*args))
    side, count = identities._enumeration_side(vars_, caps, r, p, s, 4, keys, [{"q1": 3}], None, (4,))
    assert (side.terms, count, made) == ({}, make_group(r, p, s, 4).order, [(r, p, s, 4)])
    with pytest.raises(BudgetExceededError):
        identities._enumeration_side(vars_, caps, r, p, s, 4, keys, [], 100, (4,))


@pytest.mark.parametrize(
    "verify, args, first",
    [
        (verify_six_stats, dict(nmax=4, tmax=4, qmax=12), {"u": 1, "t1": 4, "q1": 8}),
        (verify_hilbert, dict(nmax=3, qmax=8), {"u": 1, "q1": 8}),
    ],
)
def test_a_walk_one_row_short_is_reported(monkeypatch, verify, args, first):
    # the top row bound is walked one lower but reported as asked, so the
    # products of the last row bounds lack the points of its top row
    real = identities._lattice_walk

    def one_row_short(vars_, caps, monomial, r, residues, ibounds, jbounds):
        lowered = [*ibounds[:-1], ibounds[-1] - 1]
        walk = real(vars_, caps, monomial, r, residues, lowered, jbounds)
        for (imax, jmax), (_, _, products) in zip(itertools.product(ibounds, jbounds), walk):
            yield imax, jmax, products

    assert verify(2, 1, 1, **args).matched
    monkeypatch.setattr(identities, "_lattice_walk", one_row_short)
    report = verify(2, 1, 1, **args)
    assert report.outcome == identities.MISMATCH
    assert report.first_mismatch == {"monomial": first, "lhs": 0, "rhs": 1}


@pytest.mark.parametrize("name", ["six-stats", "hilbert"])
def test_a_lattice_point_missing_from_the_walk_is_reported(monkeypatch, capsys, name):
    import json

    from projstat import cli

    real = identities._lattice_walk

    def missing_a_point(vars_, caps, monomial, r, residues, ibounds, jbounds):
        # the first rectangle's class-0 product loses the factor 1/(1 - M) of
        # (0, 0): a copy of its layers is multiplied by 1 - M, layer[n] -=
        # M layer[n-1] for n descending, reading the original layers
        walk = real(vars_, caps, monomial, r, residues, ibounds, jbounds)
        imax, jmax, products = next(walk)
        pack, bias, guard, _ = packing(vars_, caps)
        step, layers = pack(monomial(0, 0)), [dict(layer) for layer in products[0]]
        for n in reversed(range(1, len(layers))):
            for key, coeff in products[0][n - 1].items():
                if not (key + step + bias) & guard:
                    layers[n][key + step] = layers[n].get(key + step, 0) - coeff
        yield imax, jmax, {**products, 0: layers}
        yield from walk

    monkeypatch.setattr(identities, "_lattice_walk", missing_a_point)
    code = cli.main(["verify", name, "--r", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["outcome"]) == (1, "MISMATCH")


def test_params_are_the_bound_arguments():
    report = verify_carlitz_des(2, n=2, tmax=3)
    assert report.params == {"r": 2, "p": 1, "s": 1, "n": 2, "tmax": 3, "qmax": 6, "amax": 6}
    report = verify_six_stats(2, 1, 2, nmax=2, tmax=2, qmax=4, umax=5)
    assert report.params == {
        "r": 2, "p": 1, "s": 2, "nmax": 2, "tmax": 2, "qmax": 4, "umax": 2, "d": 1,
    }
    report = verify_signed_multinomial(3, (1, 2))
    assert report.params == {"n": 3, "parts": [1, 2]}
    # in declaration order, as the signature binds them, for positional and
    # keyword calls
    for args, kwargs in [((2, 1, 1, 2), {}), ((), dict(r=2, n=2, qmax=4)), ((2,), dict(n=2, budget=10**6))]:
        bound = inspect.signature(verify_carlitz_des).bind(*args, **kwargs)
        bound.apply_defaults()
        del bound.arguments["budget"]
        expected = bound.arguments | {"amax": bound.arguments["qmax"]}  # the verifier's override
        assert list(verify_carlitz_des(*args, **kwargs).params.items()) == list(expected.items())


def test_reports_are_deterministic_up_to_timing():
    a = verify_carlitz_fdes(2, 1, 2, 2, tmax=4, qmax=6).to_json()
    b = verify_carlitz_fdes(2, 1, 2, 2, tmax=4, qmax=6).to_json()
    a.pop("millis")
    b.pop("millis")
    assert a == b
    assert a["schema"] == 1
    assert set(a) == {
        "schema", "identity", "params", "region", "outcome",
        "firstMismatch", "count", "notes",
    }


def test_budget_propagates():
    with pytest.raises(BudgetExceededError):
        verify_signed_wreath(4, 5, budget=1000)


@pytest.mark.parametrize(
    "name, monomial",
    [
        ("carlitz-des", {"t": 1, "q": 6}),
        ("carlitz-fdes", {"t": 2, "q": 6}),
        ("fdes-trivariate", {"t": 2, "q": 6}),
        ("six-stats", {"u": 1, "t2": 1, "q2": 2}),
        ("hilbert", {"u": 1, "q2": 2}),
    ],
)
def test_dropping_the_last_chain_factor_is_reported(monkeypatch, capsys, name, monomial):
    import json

    from projstat import cli

    real = identities._chain
    monkeypatch.setattr(identities, "_chain", lambda *args: real(*args)[:-1])
    code = cli.main(["verify", name, "--r", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["outcome"]) == (1, "MISMATCH")
    assert report["firstMismatch"]["monomial"] == monomial


@pytest.mark.parametrize(
    "name, monomial",
    [
        ("carlitz-des", {"t": 1, "q": 6}),
        ("carlitz-fdes", {"t": 2, "q": 6}),
        ("fdes-trivariate", {"t": 2, "q": 6}),
        ("six-stats", {"u": 2, "t2": 2, "q2": 8}),
        ("hilbert", {"u": 1, "q2": 6}),
    ],
)
def test_a_side_built_one_q_cap_short_is_reported(monkeypatch, capsys, name, monomial):
    import json

    from projstat import cli

    real = identities._enumeration_side

    def one_q_cap_short(vars_, caps, *args):
        # built with every q cap one lower, returned under the full caps
        lowered = {v: cap - v.startswith("q") for v, cap in caps.items()}
        side, count = real(vars_, lowered, *args)
        return TruncatedSeries(vars_, caps, side.exp_terms), count

    monkeypatch.setattr(identities, "_enumeration_side", one_q_cap_short)
    code = cli.main(["verify", name, "--r", "2", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["outcome"]) == (1, "MISMATCH")
    assert report["firstMismatch"]["monomial"] == monomial
    # the terms the lowered caps drop lie at q-degree qmax
    assert max(e for v, e in monomial.items() if v.startswith("q")) == report["params"]["qmax"]


def test_character_enumerates_on_every_call(monkeypatch):
    calls = []

    def counting(group, keys, budget=None):
        calls.append(group)
        return distribution(group, keys, budget)

    monkeypatch.setattr(identities, "distribution", counting)
    first = verify_character_fmaj(2, 1, 1, 3)
    second = verify_character_fmaj(2, 1, 1, 3)
    assert first.matched and second.matched
    assert [str(g) for g in calls] == ["G(2,1,1,3)", "G(2,1,1,3)"]


REGION_CALLS = [
    ("character-fmaj", dict(r=4, p=2, s=2, n=2, eps=-1, k=1)),
    ("signed-multinomial", dict(n=3, parts=(2, 1))),
    ("signed-wreath", dict(r=3, n=3)),
    ("lift", dict(r=2, s=2, n=2)),
    ("carlitz-des", dict(r=2, n=3)),
    ("carlitz-fdes", dict(r=3, p=3, s=1, n=2)),
    ("fdes-trivariate", dict(r=2, n=3)),
    ("six-stats", dict(r=2, nmax=4, umax=3)),
    ("hilbert", dict(r=4, p=2, s=1, nmax=3)),
    ("hilbert", dict(r=2, p=2, s=2, nmax=4)),
]


def test_region_calls_cover_every_verifier():
    assert {name for name, _ in REGION_CALLS} == set(identities.VERIFIERS)


@pytest.mark.parametrize(
    "name, params", REGION_CALLS, ids=[f"{name}-{i}" for i, (name, _) in enumerate(REGION_CALLS)]
)
def test_every_comparison_lies_on_the_reported_region(monkeypatch, name, params):
    compared = []

    def recording(real):
        def compare(lhs, rhs):
            compared.append(((lhs.vars, lhs.caps), (rhs.vars, rhs.caps)))
            return real(lhs, rhs)

        return compare

    # the verdict-only comparisons (agree_on) too
    monkeypatch.setattr(identities, "equal_on", recording(identities.equal_on))
    monkeypatch.setattr(identities, "agree_on", recording(identities.agree_on))
    report = identities.VERIFIERS[name](**params)
    assert report.matched
    if not report.region:
        return  # this identity compares no series over a region
    assert compared
    for (vars_, caps), rhs in compared:
        assert rhs == (vars_, caps)
        assert dict(zip(vars_, caps)) == {v: report.region[v] for v in vars_}
