import random
import re

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from projstat.cyclotomic import CycInt, zeta_pow
from projstat.series import (
    ConstantTermError,
    NonMonomialBaseError,
    TruncatedSeries,
    _layout,
    agree_on,
    bracket_terms,
    equal_on,
    geom_divide,
    geom_divide_terms,
    geom_inverse,
    packing,
    q_bracket,
)

Q = ("q",)


def q_mono(e=1, coeff=1, cap=8):
    return TruncatedSeries.monomial(Q, {"q": cap}, {"q": e}, coeff)


def terms_of(series):
    return dict(series.exp_terms)


def test_q_bracket_examples():
    assert terms_of(q_bracket(4, q_mono())) == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert terms_of(q_bracket(2, q_mono(coeff=-1))) == {(0,): 1, (1,): -1}
    z = zeta_pow(3, 1)
    got = q_bracket(3, q_mono(coeff=z))
    assert got.exp_terms[(0,)] == 1
    assert got.exp_terms[(1,)] == z
    assert got.exp_terms[(2,)] == z * z
    assert terms_of(q_bracket(0, q_mono())) == {}


def test_q_bracket_rejects_non_monomials():
    with pytest.raises(NonMonomialBaseError):
        q_bracket(3, q_bracket(2, q_mono()))


def test_extract_multiples_examples():
    f = q_bracket(4, q_mono())
    assert terms_of(f.extract_multiples({"q": 2})) == {(0,): 1, (2,): 1}
    assert terms_of(q_bracket(3, q_mono()).extract_multiples({"q": 3})) == {(0,): 1}
    assert f.extract_multiples({"q": 1}) is f
    twice = f.extract_multiples({"q": 2}).extract_multiples({"q": 2})
    assert twice == f.extract_multiples({"q": 2})


def test_extract_is_linear():
    rng = random.Random(7)
    caps = {"q": 10}
    for _ in range(20):
        f = TruncatedSeries(Q, caps, {(rng.randrange(11),): rng.randint(-5, 5) for _ in range(6)})
        g = TruncatedSeries(Q, caps, {(rng.randrange(11),): rng.randint(-5, 5) for _ in range(6)})
        lhs = (f + g).extract_multiples({"q": 3})
        rhs = f.extract_multiples({"q": 3}) + g.extract_multiples({"q": 3})
        assert lhs == rhs


def test_geom_inverse_examples():
    tq = TruncatedSeries.monomial(("t", "q"), {"t": 3, "q": 3}, {"t": 1, "q": 1})
    assert terms_of(geom_inverse(tq)) == {
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1,
    }
    m = TruncatedSeries.monomial(
        ("u", "q1", "q2"), {"u": 2, "q1": 2, "q2": 4}, {"u": 1, "q1": 1, "q2": 2}
    )
    assert terms_of(geom_inverse(m)) == {
        (0, 0, 0): 1, (1, 1, 2): 1, (2, 2, 4): 1,
    }
    with pytest.raises(ConstantTermError):
        geom_inverse(TruncatedSeries.monomial(Q, {"q": 3}, {}, 2))


def test_geom_inverse_product_property():
    rng = random.Random(20240811)
    vars_ = ("x", "y", "z")
    for _ in range(20):
        caps = {v: rng.randint(2, 6) for v in vars_}
        exps = {v: rng.randint(0, 2) for v in vars_}
        if not any(exps.values()):
            exps["x"] = 1
        coeff = rng.choice([1, -1, 2, -3])
        m = TruncatedSeries.monomial(vars_, caps, exps, coeff)
        inv = geom_inverse(m)
        prod = (TruncatedSeries.one(vars_, caps) - m) * inv
        ok, mismatch = equal_on(prod, TruncatedSeries.one(vars_, caps))
        assert ok, mismatch


def test_ring_op_examples():
    one = TruncatedSeries.one(Q, {"q": 3})
    three = q_bracket(3, q_mono(cap=3))
    got = (one - q_mono(cap=3)) * three
    assert terms_of(got) == {(0,): 1, (3,): -1}

    f = q_bracket(4, q_mono(cap=4))
    assert f.coefficient({}) == 1
    assert f.coefficient({"q": 4}) == 0

    lhs = q_bracket(2, q_mono(coeff=-1, cap=4)) * q_bracket(4, q_mono(cap=4))
    rhs = TruncatedSeries(Q, {"q": 4}, {(0,): 1, (4,): -1})
    ok, mismatch = equal_on(lhs, rhs)
    assert ok, mismatch


def test_ring_axioms_random():
    rng = random.Random(99)
    vars_ = ("x", "y")
    caps = {"x": 5, "y": 5}

    def rand_series():
        return TruncatedSeries(
            vars_,
            caps,
            {
                (rng.randrange(6), rng.randrange(6)): rng.randint(-4, 4)
                for _ in range(5)
            },
        )

    for _ in range(25):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == TruncatedSeries.zero(vars_, caps)


def test_mul_matches_sympy():
    rng = random.Random(5)
    x, y = sympy.symbols("x y")
    vars_ = ("x", "y")
    caps = {"x": 6, "y": 6}
    for _ in range(10):
        fa = {(rng.randrange(4), rng.randrange(4)): rng.randint(-3, 3) for _ in range(4)}
        fb = {(rng.randrange(4), rng.randrange(4)): rng.randint(-3, 3) for _ in range(4)}
        a = TruncatedSeries(vars_, caps, fa)
        b = TruncatedSeries(vars_, caps, fb)
        pa = sum(c * x**e[0] * y**e[1] for e, c in fa.items())
        pb = sum(c * x**e[0] * y**e[1] for e, c in fb.items())
        expected = sympy.expand(pa * pb)
        got = a * b
        for (ex, ey), coeff in got.exp_terms.items():
            assert expected.coeff(x, ex).coeff(y, ey) == coeff
        assert sum(1 for t in sympy.Add.make_args(expected) if t != 0) == len(got.terms) or expected == 0


def test_region_shrinks_under_truncation_against_double_cap_oracle():
    rng = random.Random(4242)
    vars_ = ("x", "y")
    for _ in range(20):
        cap = rng.randint(2, 4)
        caps1 = {"x": cap, "y": cap}
        caps2 = {"x": 2 * cap, "y": 2 * cap}

        def rand_terms():
            return {
                (rng.randrange(2 * cap), rng.randrange(2 * cap)): rng.randint(-3, 3)
                for _ in range(5)
            }

        ta, tb = rand_terms(), rand_terms()
        small = TruncatedSeries(vars_, caps1, ta) * TruncatedSeries(vars_, caps1, tb)
        large = TruncatedSeries(vars_, caps2, ta) * TruncatedSeries(vars_, caps2, tb)
        # inside its claimed region the small computation agrees with the
        # double-cap one
        for exps, coeff in large.exp_terms.items():
            if all(e <= b for e, b in zip(exps, small.caps)):
                assert small.exp_terms.get(exps, 0) == coeff
        for exps, coeff in small.exp_terms.items():
            if all(e <= b for e, b in zip(exps, small.caps)):
                assert large.exp_terms.get(exps, 0) == coeff


X, Y = sympy.symbols("x y")
XY = ("x", "y")


def _leaf(caps, terms):
    """A truncated series and the untruncated polynomial it stands for."""
    poly = sum((c * X**a * Y**b for (a, b), c in terms.items()), sympy.Integer(0))
    return TruncatedSeries(XY, caps, terms), poly


def _combine(left, right, op):
    (a, pa), (b, pb) = left, right
    return (a + b, pa + pb) if op == "+" else (a * b, pa * pb)


@st.composite
def _expressions(draw):
    """(caps, series, polynomial) of a random expression whose leaves share
    the caps and hold terms up to one past them, which are dropped."""
    caps = draw(st.tuples(st.integers(0, 5), st.integers(0, 5)))
    exponents = st.tuples(*(st.integers(0, cap + 1) for cap in caps))
    leaves = st.dictionaries(exponents, st.integers(-3, 3), max_size=4)
    expression = st.recursive(
        st.builds(_leaf, st.just(caps), leaves),
        lambda sub: st.builds(_combine, sub, sub, st.sampled_from("+*")),
        max_leaves=5,
    )
    return (caps, *draw(expression))


@settings(max_examples=150, deadline=None)
@given(_expressions())
def test_truncation_is_sound_against_untruncated_sympy(expression):
    # random sums and products of operands under one set of caps: the
    # result keeps the caps, and within them every coefficient is the
    # untruncated one
    caps, series, poly = expression
    assert series.caps == caps
    expanded = sympy.Poly(sympy.expand(poly), X, Y).terms()
    true = {exps: int(c) for exps, c in expanded if c}
    within = {e: c for e, c in true.items() if all(x <= b for x, b in zip(e, caps))}
    assert series.exp_terms == within
    assert equal_on(series, TruncatedSeries(XY, caps, true)) == (True, None)


def test_monomial_beyond_the_caps_is_zero():
    assert terms_of(q_mono(e=9, cap=8)) == {}
    assert terms_of(TruncatedSeries.monomial(XY, {"x": 2, "y": 0}, {"x": 1, "y": 1})) == {}
    assert terms_of(TruncatedSeries.monomial(XY, {"x": 2, "y": 2}, {"x": 1}, 0)) == {}
    assert terms_of(q_bracket(3, q_mono(e=9, cap=8))) == {(0,): 1}
    assert terms_of(q_bracket(0, q_mono(e=9, cap=8))) == {}
    assert terms_of(geom_inverse(q_mono(e=9, cap=8))) == {(0,): 1}


def test_extraction_as_root_of_unity_average():
    # p * {F}_{q^p} equals the sum of F(zeta_p^j q) over j < p
    for p in (2, 3):
        f_terms = {(0,): 1, (1,): 2, (2,): -1, (3,): 5, (4,): 1, (5,): -2}
        caps = {"q": 6}
        f = TruncatedSeries(Q, caps, {k: CycInt.from_int(p, v) for k, v in f_terms.items()})
        lhs = f.extract_multiples({"q": p}).scale(p)
        rhs = TruncatedSeries.zero(Q, caps)
        for j in range(p):
            twisted = TruncatedSeries(
                Q,
                caps,
                {(e,): coeff * zeta_pow(p, j * e) for (e,), coeff in f.exp_terms.items()},
            )
            rhs = rhs + twisted
        ok, mismatch = equal_on(lhs, rhs)
        assert ok, mismatch


def test_bracket_product_identity_rq2():
    # [r]_{q^2} [2i-1]_{q^r} [2i]_{-q^r} == [(2i-1)r]_q [2ir]_{-q}
    for r in (1, 2, 3, 4):
        for i in (1, 2, 3):
            cap = {"q": 2 * i * r + 2 * r}
            lhs = (
                q_bracket(r, TruncatedSeries.monomial(Q, cap, {"q": 2}))
                * q_bracket(2 * i - 1, TruncatedSeries.monomial(Q, cap, {"q": r}))
                * q_bracket(2 * i, TruncatedSeries.monomial(Q, cap, {"q": r}, -1))
            )
            rhs = q_bracket(
                (2 * i - 1) * r, TruncatedSeries.monomial(Q, cap, {"q": 1})
            ) * q_bracket(2 * i * r, TruncatedSeries.monomial(Q, cap, {"q": 1}, -1))
            assert lhs == rhs


def test_equal_on_shared_caps_and_mismatch_order():
    caps = {"q": 8}
    trunc = geom_inverse(q_mono(cap=8))  # valid for q <= 8, not exact
    other = geom_inverse(q_mono(cap=4))
    # agree_on gives equal_on's verdict alone, with the same refusal
    for compare in (equal_on, agree_on):
        with pytest.raises(ValueError, match=r"caps \(8,\) vs .* caps \(4,\)"):
            compare(trunc, other)  # sides under other caps are refused
    ok, _ = equal_on(TruncatedSeries(Q, {"q": 4}, trunc.exp_terms), other)
    assert ok and agree_on(TruncatedSeries(Q, {"q": 4}, trunc.exp_terms), other)

    a = TruncatedSeries(Q, caps, {(1,): 1, (3,): 7})
    b = TruncatedSeries(Q, caps, {(1,): 1, (2,): 5})
    ok, mismatch = equal_on(a, b)
    assert not ok and not agree_on(a, b)
    assert mismatch == ({"q": 2}, 0, 5)


def test_collapse_var():
    vars_ = ("q", "a")
    caps = {"q": 4, "a": 4}
    f = TruncatedSeries(vars_, caps, {(1, 1): 2, (1, 0): 1, (3, 2): 4})
    g = f.collapse_var("a", under="q")
    assert g.vars == ("q",)
    assert terms_of(g) == {(1,): 3, (3,): 4}


def test_collapse_var_refuses_what_it_cannot_vouch_for():
    vars_ = ("q", "a")
    # a's cap below q's: a term a^4 q^4 would have been dropped
    low = TruncatedSeries(vars_, {"q": 4, "a": 3}, {(1, 1): 2})
    with pytest.raises(ValueError, match="cap a<=3 is below q<=4"):
        low.collapse_var("a", under="q")
    # a stored term with a > q breaks the domination
    broken = TruncatedSeries(vars_, {"q": 4, "a": 4}, {(1, 1): 2, (1, 2): 1})
    with pytest.raises(ValueError, match="has a > q"):
        broken.collapse_var("a", under="q")
    assert terms_of(broken.collapse_var("q", under="a")) == {(1,): 2, (2,): 1}


def test_str_and_json_are_graded_lex():
    f = TruncatedSeries(("t", "q"), {"t": 3, "q": 3}, {(0, 2): 3, (1, 0): 2, (0, 0): 1})
    assert str(f) == "1 + 2*t + 3*q^2"
    assert f.to_json() == [
        {"exps": {}, "coef": 1},
        {"exps": {"t": 1}, "coef": 2},
        {"exps": {"q": 2}, "coef": 3},
    ]


def test_variable_mismatch_rejected():
    a = TruncatedSeries.one(("t",), {"t": 2})
    b = TruncatedSeries.one(("q",), {"q": 2})
    with pytest.raises(ValueError):
        a + b


@pytest.mark.parametrize(
    "vars_b, caps_b",
    [(("y", "x"), (3, 3)), (("x", "z"), (3, 3)), (XY, (3, 4)), (XY, (2, 3))],
    ids=["order", "name", "larger cap", "smaller cap"],
)
def test_operands_in_other_variables_or_caps_are_refused(vars_b, caps_b):
    a = TruncatedSeries(XY, (3, 3), {(0, 0): 1, (1, 2): 3})
    b = TruncatedSeries(vars_b, caps_b, {(0, 0): 1, (1, 2): 3})
    m = TruncatedSeries.monomial(vars_b, caps_b, {vars_b[0]: 1})
    _assert_refused(a, b, m)
    # both sides' variables and caps are named
    named = f"{XY} under caps (3, 3) vs {vars_b} under caps {caps_b}"
    with pytest.raises(ValueError, match=re.escape(named)):
        a * b


def test_power_does_e_minus_one_products(monkeypatch):
    vars_, caps = ("q", "t"), {"q": 6, "t": 3}
    base = TruncatedSeries(vars_, caps, {(0, 0): 2, (1, 0): -1, (1, 1): 3})
    one = TruncatedSeries.one(vars_, caps)
    products = [one]
    for _ in range(4):
        products.append(products[-1] * base)
    calls = []
    mul = TruncatedSeries.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", counted)
    for e, product in enumerate(products):
        calls.clear()
        assert base**e == product
        assert len(calls) == max(e - 1, 0)


def test_q_bracket_stops_at_the_first_power_past_the_caps():
    # 10**9 steps would not finish; the powers past q^5 are all truncated
    assert q_bracket(10**9, q_mono(cap=5)) == q_bracket(6, q_mono(cap=5))


def test_q_bracket_of_a_constant_base_sums_its_powers():
    # a base with no variable (step 0) gives 1 + c + ... + c^(n-1) at the
    # constant term, for any n, without walking a chain that never ends
    assert terms_of(q_bracket(3, q_mono(e=0, coeff=2))) == {(0,): 7}
    assert terms_of(q_bracket(5, q_mono(e=0, coeff=-3))) == {(0,): 61}
    assert terms_of(q_bracket(10**9, q_mono(e=0))) == {(0,): 10**9}
    assert terms_of(q_bracket(10**9, q_mono(e=0, coeff=-1))) == {}
    assert terms_of(q_bracket(10**9 + 1, q_mono(e=0, coeff=-1))) == {(0,): 1}
    z = zeta_pow(3, 1)
    assert terms_of(q_bracket(3, q_mono(e=0, coeff=z))) == {}  # 1 + z + z^2 = 0
    assert terms_of(q_bracket(7, q_mono(e=0, coeff=z))) == {(0,): 1}
    with pytest.raises(ValueError, match="length must be >= 0"):
        q_bracket(-1, q_mono())


# -- the packed core ------------------------------------------------------------

ZETA = sympy.Symbol("zeta")


def _sympy_coeff(c):
    return sum((a * ZETA**i for i, a in enumerate(c.coeffs)), sympy.Integer(0)) if isinstance(c, CycInt) else c


def _expr(syms, terms):
    return sum(
        (_sympy_coeff(c) * sympy.prod([s**e for s, e in zip(syms, exps)]) for exps, c in terms.items()),
        sympy.Integer(0),
    )


def _within(syms, expr, caps, r):
    """{exponents: coefficient} of the expanded expr within the caps, each
    coefficient reduced modulo the r-th cyclotomic polynomial in zeta."""
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    phi = sympy.cyclotomic_poly(r, ZETA)
    out = {}
    for exps, c in sympy.Poly(expr, *syms).terms():
        c = sympy.expand(sympy.rem(c, phi, ZETA))
        if c != 0 and all(e <= b for e, b in zip(exps, caps)):
            out[exps] = c
    return out


def _operands(caps_a, terms_a, caps_b, terms_b, monomial):
    """Series a and b, and the monomial M under b's caps."""
    vars_ = tuple(f"x{i}" for i in range(len(caps_a)))
    a, b = TruncatedSeries(vars_, caps_a, terms_a), TruncatedSeries(vars_, caps_b, terms_b)
    return a, b, TruncatedSeries(vars_, caps_b, dict([monomial]))


def _assert_refused(a, b, m):
    """Every binary operation refuses a with b (and M, under b's caps), and
    a == b is False, also for the same terms."""
    for op in (lambda: a + b, lambda: a * b, lambda: geom_divide(a, m), lambda: equal_on(a, b), lambda: agree_on(a, b)):
        with pytest.raises(ValueError, match="series differ"):
            op()
    assert a != b


def _check_against_sympy(caps, terms_a, terms_b, monomial, r=1):
    """a + b, a * b and a / (1 - M), all under caps, against sympy's
    untruncated results within the caps.  Terms the operands drop past the
    caps are in sympy's operands: they never reach the caps."""
    syms = sympy.symbols(f"x0:{len(caps)}")
    a, b, m = _operands(caps, terms_a, caps, terms_b, monomial)
    pa, pb, pm = _expr(syms, terms_a), _expr(syms, terms_b), _expr(syms, dict([monomial]))
    # M has a positive exponent, so M^j is past the caps for j > max(caps)
    inverse = sum((pm**j for j in range(max(caps) + 1)), sympy.Integer(0))
    for got, want in ((a + b, pa + pb), (a * b, pa * pb), (geom_divide(a, m), pa * inverse)):
        assert got.caps == caps
        terms = {e: sympy.expand(_sympy_coeff(c)) for e, c in got.exp_terms.items()}
        assert terms == _within(syms, want, caps, r)


@pytest.mark.parametrize(
    "caps_a, terms_a, caps_b, terms_b, monomial",
    [
        # cap 0: the field is the guard bit alone
        ((0, 3, 5), {(0, 1, 2): 1, (1, 0, 0): 5, (0, 3, 5): -2},
         (0, 3, 5), {(0, 0, 0): 1, (0, 2, 3): 3}, ((0, 1, 1), 1)),
        ((2, 0, 0), {(1, 0, 0): 2, (2, 0, 0): 1}, (2, 0, 0), {(1, 0, 0): -1},
         ((1, 0, 0), -1)),
        # caps 2^k - 1 and 2^k: the widest and narrowest bias of a field width
        ((7, 8, 15, 16), {(7, 8, 15, 16): 1, (3, 4, 7, 8): 2, (0, 0, 0, 1): -1},
         (7, 8, 15, 16), {(0, 0, 0, 0): 1, (4, 4, 8, 8): -3, (1, 0, 1, 0): 1}, ((1, 1, 1, 1), 2)),
        # exponents exactly at the cap, and sums one past it
        ((3, 3, 3), {(3, 0, 0): 1, (2, 1, 3): 4, (1, 3, 0): -1},
         (3, 3, 3), {(0, 0, 0): 1, (1, 0, 0): 1, (0, 0, 1): 2}, ((3, 0, 0), 1)),
        # unequal caps of different field widths: refused
        ((16, 2, 31), {(16, 2, 31): 1, (2, 1, 3): 3, (0, 2, 0): -2},
         (3, 9, 4), {(3, 9, 4): 5, (1, 0, 1): 1, (0, 0, 0): -1}, ((1, 0, 2), -1)),
    ],
)
def test_packed_edges_against_sympy(caps_a, terms_a, caps_b, terms_b, monomial):
    if caps_a == caps_b:
        _check_against_sympy(caps_a, terms_a, terms_b, monomial)
    else:
        _assert_refused(*_operands(caps_a, terms_a, caps_b, terms_b, monomial))


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_guard_trips_one_past_the_cap_and_carries_into_no_neighbour(cap):
    vars_ = ("x", "y", "z")
    caps = {"x": 1, "y": cap, "z": 1}
    for e1 in range(cap + 1):
        a = TruncatedSeries.monomial(vars_, caps, {"x": 1, "y": e1})
        for e2 in range(cap + 1):
            b = TruncatedSeries.monomial(vars_, caps, {"y": e2, "z": 1})
            want = {(1, e1 + e2, 1): 1} if e1 + e2 <= cap else {}
            assert terms_of(a * b) == want
    if cap:
        y = TruncatedSeries.monomial(vars_, caps, {"y": 1})
        assert terms_of(geom_inverse(y)) == {(0, e, 0): 1 for e in range(cap + 1)}


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 4, 7, 8, 15, 16])
def test_layout_sized_by_bounds_guards_only_the_caps(cap):
    # a field sized by a bound above its cap, between full neighbours of cap
    # and bound 3: every value up to the bound packs, the guard trips iff
    # the value passes the cap, and the bias carries into no neighbour
    assert _layout((3, cap, 3)) == _layout((3, cap, 3), (3, cap, 3))
    for bound in (cap, cap + 1, 2 * cap + 1, 4 * cap + 5):
        fields, bias, guard = _layout((3, cap, 3), (3, bound, 3))
        unpack = lambda key: [key >> shift & mask for shift, mask in fields]
        for e in range(bound + 1):
            key = 3 + (e << fields[1][0]) + (3 << fields[2][0])
            assert unpack(key) == [3, e, 3]
            assert bool((key + bias) & guard) == (e > cap)
            assert unpack(key + bias) == [a + b for a, b in zip(unpack(key), unpack(bias))]
        # a cap past the bound is taken at the bound: nothing trips or borrows
        assert _layout((3, bound + 10**9, 3), (3, bound, 3)) == _layout((3, bound, 3), (3, bound, 3))


def test_packed_core_on_cyclotomic_coefficients_against_sympy():
    for r in (3, 4, 5):
        z = zeta_pow(r, 1)
        terms_a = {(0, 0, 0): z, (1, 2, 0): CycInt(r, (1, -2)), (2, 0, 1): 3}
        terms_b = {(0, 1, 0): z * z, (3, 0, 1): -1, (1, 1, 1): CycInt(r, (0, 2))}
        _check_against_sympy((3, 4, 1), terms_a, terms_b, ((0, 1, 0), z), r)


_CAPS = st.sampled_from([0, 1, 2, 3, 4, 7, 8, 15, 16])


@st.composite
def _packed_cases(draw):
    nvars = draw(st.integers(3, 7))
    caps = tuple(draw(_CAPS) for _ in range(nvars))

    def terms():  # a few exponents one past the caps, which are dropped
        exps = st.tuples(*(st.integers(0, cap + 1) for cap in caps))
        return draw(st.dictionaries(exps, st.integers(-3, 3), max_size=4))

    exps = draw(st.tuples(*[st.integers(0, 2)] * nvars).filter(any))
    return caps, terms(), terms(), (exps, draw(st.sampled_from([1, -1, 2])))


@settings(max_examples=100, deadline=None)
@given(_packed_cases())
def test_packed_ring_and_division_against_sympy(case):
    _check_against_sympy(*case)


def test_geom_divide_refuses_constant_and_non_monomial_divisors():
    one = TruncatedSeries.one(XY, {"x": 3, "y": 3})
    with pytest.raises(ConstantTermError):
        geom_divide(one, one.scale(2))
    with pytest.raises(NonMonomialBaseError):
        geom_divide(one, TruncatedSeries(XY, {"x": 3, "y": 3}, {(1, 0): 1, (0, 1): 1}))
    # a divisor truncated to zero divides by 1
    assert geom_divide(one, TruncatedSeries.monomial(XY, {"x": 3, "y": 3}, {"y": 4})) == one


def test_a_negative_exponent_raises_at_the_edge():
    # it would borrow from the next packed field
    caps = {"x": 4, "y": 4}
    with pytest.raises(ValueError):
        TruncatedSeries(XY, caps, {(1, -1): 1})
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(XY, caps, {"y": -1})
    with pytest.raises(ValueError, match="unknown variables"):
        TruncatedSeries.monomial(XY, caps, {"z": 1})
    with pytest.raises(ValueError):
        TruncatedSeries.one(XY, caps).coefficient({"x": -1})
    with pytest.raises(ValueError):
        TruncatedSeries.one(XY, {"x": 4, "y": -1})
    assert TruncatedSeries.one(XY, caps).coefficient({"x": 5}) == 0


def test_pack_checks_every_exponent_before_dropping_a_term():
    caps = {"x": 2, "y": 3, "z": 1}
    xyz = ("x", "y", "z")
    # a negative exponent raises also after an exponent past its cap
    for exps in ((5, -1, 0), (3, 4, -1), (-1, 9, 9)):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            TruncatedSeries(xyz, caps, {exps: 1})
    # so does a wrong length, short or long
    for exps in ((1, 1), (1, 1, 1, 0), ()):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            TruncatedSeries(xyz, caps, {exps: 1})
    # an exponent past its cap drops the term, wherever it sits
    for exps in ((3, 0, 0), (0, 4, 0), (0, 0, 2), (2, 3, 2)):
        assert not TruncatedSeries(xyz, caps, {exps: 1}).terms
    # exponents at the caps are kept and read back
    at_caps = TruncatedSeries(xyz, caps, {(2, 3, 1): 7, (0, 0, 0): 1})
    assert terms_of(at_caps) == {(2, 3, 1): 7, (0, 0, 0): 1}


def test_packing_packs_as_a_series_does_and_keeps_its_refusals():
    xyz, caps = ("x", "y", "z"), {"x": 2, "y": 3, "z": 1}
    pack, _, _, fields = packing(xyz, caps)
    for exps in ({}, {"x": 2}, {"y": 3, "z": 1}, {"z": 1, "x": 1, "y": 0}, {"x": 2, "y": 3, "z": 1}):
        [key] = TruncatedSeries.monomial(xyz, caps, exps).terms
        assert pack(exps) == key
        # each exponent packs at its field's shift, and the mask reads it back
        assert sum(e << fields[v][0] for v, e in exps.items()) == key
        assert {v: (key >> shift) & mask for v, (shift, mask) in fields.items()} == {v: exps.get(v, 0) for v in xyz}
    # past a cap: None, wherever it sits
    for exps in ({"x": 3}, {"y": 4, "z": 0}, {"z": 2}, {"x": 2, "y": 3, "z": 2}):
        assert pack(exps) is None
    # an unknown variable, and a negative exponent, also after one past its cap
    with pytest.raises(ValueError, match="unknown variables"):
        pack({"x": 1, "w": 1})
    for exps in ({"y": -1}, {"x": 5, "y": -1}, {"z": -1, "x": 9}):
        with pytest.raises(ValueError, match="nonnegative exponents"):
            pack(exps)
    # one layout per variables and caps, shared read-only, whichever form the
    # caps take; a missing or negative cap is refused as a series refuses it
    assert packing(list(xyz), (2, 3, 1)) is packing(xyz, caps)
    assert packing(xyz, {"x": 2, "y": 4, "z": 1}) is not packing(xyz, caps)
    with pytest.raises(TypeError):
        fields["x"] = (0, 1)
    with pytest.raises(ValueError, match="missing caps"):
        packing(xyz, {"x": 2, "y": 3})
    with pytest.raises(ValueError, match="nonnegative cap"):
        packing(xyz, (2, -1, 1))


def test_geom_divide_terms_inverts_one_minus_the_monomial():
    caps = {"x": 5, "y": 4}
    f = TruncatedSeries(XY, caps, {(0, 0): 2, (1, 2): -1, (3, 0): 5})
    one, before = TruncatedSeries.one(XY, caps), dict(f.terms)
    _, bias, guard, _ = packing(XY, caps)
    for exps, c in (({"x": 1}, 1), ({"x": 1, "y": 1}, 3), ({"y": 2}, -1), ({"x": 2}, CycInt(3, (0, 1, 0)))):
        m = TruncatedSeries.monomial(XY, caps, exps, c)
        [step] = m.terms
        g = f._with(geom_divide_terms(f.terms, step, c, bias, guard))
        assert (one - m) * g == f
        assert f.terms == before  # the terms divided are not changed
    # a zero step would walk e, e + 0, ... forever
    with pytest.raises(ConstantTermError):
        geom_divide_terms(f.terms, 0, 1, bias, guard)


def test_extract_multiples_by_two_divisors_equals_the_per_term_filter():
    rng = random.Random(7)
    vars_, caps = ("u", "t", "q1", "q2"), {"u": 5, "t": 3, "q1": 9, "q2": 4}
    terms = {
        tuple(rng.randint(0, caps[v] + 1) for v in vars_): rng.randint(-3, 3) for _ in range(300)
    }
    f = TruncatedSeries(vars_, caps, terms)
    for du, dq in ((2, 3), (3, 2), (1, 4), (4, 1), (5, 5)):
        want = {e: c for e, c in terms_of(f).items() if e[0] % du == 0 and e[2] % dq == 0}
        got = f.extract_multiples({"u": du, "q1": dq})
        assert terms_of(got) == want
        assert got.caps == f.caps
        # the order of the divisors does not matter
        assert got == f.extract_multiples({"q1": dq, "u": du})


@st.composite
def _bracket_cases(draw):
    """F, L and a base c m: 1 to 3 variables under random caps, m any
    exponent vector within them (zero too), L from 0 to the top cap + 2, c
    one of +-1, +-2 and the twists +-zeta_r^j."""
    vars_ = ("x", "y", "z")[: draw(st.integers(1, 3))]
    caps = tuple(draw(st.integers(0, 6)) for _ in vars_)
    exps = st.tuples(*(st.integers(0, cap) for cap in caps))
    r = draw(st.sampled_from((3, 4, 6)))
    coeffs = st.sampled_from((1, -1, 2, -2)) | st.builds(
        lambda j, sign: sign * zeta_pow(r, j), st.integers(0, r - 1), st.sampled_from((1, -1))
    )
    f = TruncatedSeries(vars_, caps, draw(st.dictionaries(exps, coeffs, max_size=8)))
    base = TruncatedSeries(vars_, caps, {draw(exps): draw(coeffs)})
    return f, draw(st.integers(0, max(caps) + 2)), base


@settings(max_examples=300, deadline=None)
@given(_bracket_cases())
def test_bracket_terms_multiplies_by_the_q_bracket(case):
    f, length, base = case
    [(step, c)] = base.terms.items()
    _, bias, guard = _layout(f.caps)
    got = bracket_terms(f.terms, length, step, c, bias, guard)
    assert all(got.values())  # no zero is stored
    # the bracket summed power by power, and F times it term by term
    [exps] = base.exp_terms
    bracket = TruncatedSeries.zero(f.vars, f.caps)
    for j in range(length):
        bracket = bracket + TruncatedSeries(f.vars, f.caps, {tuple(j * e for e in exps): c**j})
    assert q_bracket(length, base) == bracket
    assert got == (f * q_bracket(length, base)).terms
    if step:  # no power within the caps reaches 10**9, nor the top cap + 1
        top = max(f.caps) + 1
        assert bracket_terms(f.terms, 10**9, step, c, bias, guard) == bracket_terms(
            f.terms, top, step, c, bias, guard
        )


def test_bracket_terms_cuts_a_long_bracket_at_the_caps():
    # c^(10**9) for c = 2 would not finish; the kernel cuts L at the first
    # power past the caps before it takes c^L
    caps = {"x": 5, "y": 3}
    f = TruncatedSeries(XY, caps, {(0, 0): 1, (1, 0): -2, (2, 1): 3, (5, 3): 4})
    _, bias, guard, _ = packing(XY, caps)
    for exps in ({"x": 1}, {"y": 1}, {"x": 1, "y": 2}):
        [step] = TruncatedSeries.monomial(XY, caps, exps).terms
        assert bracket_terms(f.terms, 10**9, step, 2, bias, guard) == bracket_terms(
            f.terms, 6, step, 2, bias, guard
        )
    assert bracket_terms(f.terms, 10**9, None, 2, bias, guard) == f.terms
    assert bracket_terms(f.terms, 0, None, 2, bias, guard) == {}
