import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projstat.cyclotomic import CycInt, zeta_pow
from projstat.groups import (
    BudgetExceededError,
    ColoredPermutation,
    DivisibilityError,
    MembershipError,
    ParseError,
    ProjectiveElement,
    RangeError,
    GroupMismatchError,
    _decimal,
    canonicalize,
    enumerate_elements,
    format_window,
    identity,
    inverse,
    lifts,
    make_group,
    multiply,
    parse_group,
    parse_window,
    residue,
)
from projstat.stats import stat_record


# --- independent oracle: monomial matrices over Z[zeta_r] ------------------
#
# Row i of the matrix of g carries zeta^(c_i) in column sigma(i).  With this
# convention the window product multiply(a, b) corresponds to the matrix
# product M(b) @ M(a), and the group inverse to the matrix inverse.

def matrix_of(g):
    r, n = g.group.r, g.group.n
    zero = CycInt.from_int(r, 0)
    mat = [[zero] * n for _ in range(n)]
    for i, (v, c) in enumerate(zip(g.sigma, g.colors)):
        mat[i][v - 1] = zeta_pow(r, c)
    return mat


def matmul(a, b, r):
    n = len(a)
    zero = CycInt.from_int(r, 0)
    return [
        [sum((a[i][k] * b[k][j] for k in range(n)), zero) for j in range(n)]
        for i in range(n)
    ]


def matinv_monomial(mat, r):
    n = len(mat)
    zero = CycInt.from_int(r, 0)
    out = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if mat[i][j]:
                e = next(e for e in range(r) if mat[i][j] == zeta_pow(r, e))
                out[j][i] = zeta_pow(r, -e)
    return out


def test_make_group_examples():
    import math

    g = make_group(6, 2, 3, 8)
    assert g.order == 6**8 * math.factorial(8) // 6
    assert make_group(1, 1, 1, 3).order == 6
    with pytest.raises(DivisibilityError, match="ps=4"):
        make_group(2, 2, 2, 1)
    with pytest.raises(DivisibilityError, match="p=4"):
        make_group(6, 4, 1, 2)
    with pytest.raises(DivisibilityError, match="s=4"):
        make_group(6, 1, 4, 2)
    assert str(make_group(6, 2, 3, 8)) == "G(6,2,3,8)"
    assert parse_group(" G(6,2,3,8) ") == make_group(6, 2, 3, 8)


def test_residue_all_integers():
    assert residue(-1, 6) == 5
    assert residue(-13, 6) == 5
    assert residue(7, 6) == 1
    assert residue(0, 1) == 0


def test_multiply_matches_spec_example():
    G = make_group(3, 1, 1, 2)
    a = canonicalize(ColoredPermutation((1, 2), (0, 2)), G)
    b = canonicalize(ColoredPermutation((2, 1), (1, 0)), G)
    prod = multiply(a, b)
    assert prod.sigma == (2, 1)
    assert prod.colors == (0, 0)


def test_multiply_matches_matrix_oracle_exhaustive():
    G = make_group(3, 1, 1, 2)
    els = list(enumerate_elements(G))
    for a in els:
        for b in els:
            got = matrix_of(multiply(a, b))
            expected = matmul(matrix_of(b), matrix_of(a), 3)
            assert got == expected


def test_identity_and_inverse_laws_b2():
    G = make_group(2, 1, 1, 2)
    e = identity(G)
    for g in enumerate_elements(G):
        assert multiply(e, g) == g
        assert multiply(g, e) == g
        assert multiply(g, inverse(g)) == e


def test_inverse_examples_and_matrix_oracle():
    G = make_group(2, 1, 1, 2)
    g = parse_window("[2^1,1]", G)
    assert format_window(inverse(g)) == "[2,1^1]"
    h = parse_window("[1^1,2^1]", G)
    assert inverse(h) == h
    assert inverse(identity(G)) == identity(G)
    for x in enumerate_elements(G):
        assert matrix_of(inverse(x)) == matinv_monomial(matrix_of(x), 2)


def test_associativity():
    G = make_group(3, 1, 1, 2)
    els = list(enumerate_elements(G))
    for a, b, c in itertools.product(els, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
    Q = make_group(4, 2, 2, 2)
    els = list(enumerate_elements(Q))
    for a, b, c in itertools.product(els, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_associativity_sampled_larger_groups():
    rng = random.Random(6283)
    for params in ((6, 2, 3, 3), (4, 1, 2, 3)):
        G = make_group(*params)
        els = list(enumerate_elements(G))
        for _ in range(300):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@pytest.mark.parametrize("params", [(6, 2, 3, 3), (4, 1, 2, 3), (2, 1, 2, 3)])
def test_identity_and_inverse_laws_quotients(params):
    G = make_group(*params)
    e = identity(G)
    for g in enumerate_elements(G):
        assert multiply(e, g) == g
        assert multiply(g, e) == g
        assert multiply(g, inverse(g)) == e
        assert multiply(inverse(g), g) == e


def test_multiply_is_representative_independent():
    G = make_group(4, 1, 2, 2)
    wreath = make_group(4, 1, 1, 2)
    els = list(enumerate_elements(G))
    for a in els:
        for b in els:
            want = multiply(a, b)
            for la in lifts(a):
                for lb in lifts(b):
                    wa = canonicalize(la, wreath)
                    wb = canonicalize(lb, wreath)
                    w = multiply(wa, wb)
                    assert canonicalize(w.lift, G) == want


def test_canonicalize_examples():
    Q = make_group(2, 1, 2, 2)
    g = canonicalize(ColoredPermutation((1, 2), (1, 1)), Q)
    assert g.colors == (0, 0)

    W = make_group(5, 1, 1, 2)
    lift = ColoredPermutation((2, 1), (3, 4))
    assert canonicalize(lift, W).lift == lift

    G = make_group(6, 2, 3, 8)
    sigma = (2, 7, 6, 4, 8, 1, 5, 3)
    g = canonicalize(ColoredPermutation(sigma, (4, 5, 5, 1, 3, 3, 5, 4)), G)
    # the unique lift with c_8 in [0, r/s) = [0, 2)
    assert g.colors == (0, 1, 1, 3, 5, 5, 1, 0)
    # the golden element's original lift canonicalizes to the same class
    assert canonicalize(ColoredPermutation(sigma, (2, 3, 3, 5, 1, 1, 3, 2)), G) == g


def test_canonicalize_membership_error():
    G = make_group(2, 2, 1, 2)
    with pytest.raises(MembershipError):
        canonicalize(ColoredPermutation((1, 2), (1, 0)), G)
    with pytest.raises(MembershipError):
        canonicalize(ColoredPermutation((1, 1), (0, 0)), make_group(2, 1, 1, 2))
    with pytest.raises(RangeError):
        canonicalize(ColoredPermutation((1, 2), (0, 5)), make_group(2, 1, 1, 2))


def test_lifts():
    W = make_group(3, 1, 1, 2)
    g = identity(W)
    assert lifts(g) == [g.lift]

    Q = make_group(2, 1, 2, 2)
    g = identity(Q)
    got = {lift.colors for lift in lifts(g)}
    assert got == {(0, 0), (1, 1)}

    G = make_group(6, 2, 3, 4)
    els = list(enumerate_elements(G))
    rng = random.Random(20240811)
    for g in rng.sample(els, 100):
        ls = lifts(g)
        assert len(ls) == 3
        assert len({l.colors for l in ls}) == 3
        assert all(l.sigma == g.sigma for l in ls)
        for l in ls:
            assert sum(l.colors) % 2 == 0
            assert canonicalize(l, G) == g


def test_enumerate_counts_and_order():
    assert sum(1 for _ in enumerate_elements(make_group(1, 1, 1, 3))) == 6
    assert sum(1 for _ in enumerate_elements(make_group(2, 1, 1, 2))) == 8
    assert sum(1 for _ in enumerate_elements(make_group(4, 2, 2, 3))) == 96

    G = make_group(3, 1, 1, 2)
    seen = [(g.sigma, g.colors) for g in enumerate_elements(G)]
    assert seen == sorted(seen)
    assert len(set(seen)) == G.order


def test_enumerate_budget():
    G = make_group(6, 2, 3, 8)
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_elements(G))
    assert exc.value.order == G.order
    assert next(enumerate_elements(make_group(1, 1, 1, 2), budget=2)) is not None


def test_enumerate_budget_env(monkeypatch):
    monkeypatch.setenv("PROJSTAT_BUDGET", "5")
    with pytest.raises(BudgetExceededError):
        next(enumerate_elements(make_group(2, 1, 1, 2)))
    monkeypatch.setenv("PROJSTAT_BUDGET", "oops")
    with pytest.raises(ValueError):
        next(enumerate_elements(make_group(2, 1, 1, 2)))


def test_group_mismatch():
    a = identity(make_group(2, 1, 1, 2))
    b = identity(make_group(2, 2, 1, 2))
    with pytest.raises(GroupMismatchError):
        multiply(a, b)


def test_codec_round_trip():
    G = make_group(6, 2, 3, 8)
    g = parse_window("[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]", G)
    assert g.sigma == (2, 7, 6, 4, 8, 1, 5, 3)
    assert parse_window(format_window(g), G) == g

    assert parse_window("[1,2,3]", make_group(4, 2, 2, 3)) == identity(
        make_group(4, 2, 2, 3)
    )

    B2 = make_group(2, 1, 1, 2)
    assert format_window(parse_window("[2^1,1]", B2)) == "[2^1,1]"
    assert parse_window("[-2,1]", B2) == parse_window("[2^1,1]", B2)


def test_codec_errors():
    B2 = make_group(2, 1, 1, 2)
    with pytest.raises(ParseError) as exc:
        parse_window("[2^1 1]", B2)
    assert exc.value.position == 5
    with pytest.raises(ParseError):
        parse_window("[1,1]", B2)
    with pytest.raises(ParseError):
        parse_window("[1,2] x", B2)
    with pytest.raises(RangeError):
        parse_window("[3,1]", B2)
    with pytest.raises(RangeError):
        parse_window("[1^2,2]", B2)
    with pytest.raises(RangeError):
        parse_window("[1^0,2]", B2)
    with pytest.raises(ParseError):
        parse_window("[-1,2,3]", make_group(3, 1, 1, 3))
    with pytest.raises(MembershipError):
        parse_window("[1^1,2]", make_group(2, 2, 1, 2))


def test_budget_refuses_a_huge_rank_without_its_order():
    # the order of G(1,1,1,300000) has about 1.5 million digits; 10! > 10^6
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_elements(make_group(1, 1, 1, 300_000)))
    assert str(exc.value) == (
        "G(1,1,1,300000): group order at least 3628800 exceeds enumeration budget 1000000"
    )
    with pytest.raises(BudgetExceededError, match=r"^G\(6,2,3,8\): group order 11287019520 "):
        next(enumerate_elements(make_group(6, 2, 3, 8)))


def test_budget_message_never_prints_a_huge_order():
    # str() refuses the 6001 digits of this order
    G = make_group(10**3000, 1, 1, 2)
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_elements(G))
    assert str(exc.value).endswith(": group order at least 10^6000 exceeds enumeration budget 1000000")
    assert exc.value.order == G.order == 2 * 10**6000
    # exact up to 1000 digits
    with pytest.raises(BudgetExceededError, match=r"order 9{1000} exceeds"):
        next(enumerate_elements(make_group(10**1000 - 1, 1, 1, 1)))
    with pytest.raises(BudgetExceededError, match=r"order at least 10\^1000 exceeds"):
        next(enumerate_elements(make_group(10**1001 - 1, 1, 1, 1)))


def test_decimal_bound_of_a_huge_count_is_quick():
    start = time.perf_counter()
    assert _decimal(2**500_000) == "at least 10^150514"
    assert time.perf_counter() - start < 1
    for n in (10**1000, 10**1001 - 1, 10**1001, 7 * 10**5000, 2**20_000, 2**20_000 - 1):
        k = int(_decimal(n).removeprefix("at least 10^"))
        assert 10**k <= n < 10 ** (k + 1)


def test_parsers_take_ascii_digits_only():
    B2 = make_group(2, 1, 1, 2)
    for text in ("[²,1]", "[١,2]", "[1^¹,2]", "[１,2]"):
        with pytest.raises(ParseError):
            parse_window(text, B2)
    for text in ("G(1_0,1,1,1)", "G(١,1,1,1)", "G(+1,1,1,1)", "G(2,1,1,²)", f"G({'1' * 5000},1,1,1)"):
        with pytest.raises(ParseError):
            parse_group(text)
    assert parse_group("G( 2 ,1, 1,2 )") == B2


_WINDOW_TEXT = st.text(alphabet=st.sampled_from("[]^,- 0123456789²١１_x"), max_size=16)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=16), _WINDOW_TEXT, _WINDOW_TEXT.map(lambda t: f"[{t}]")))
@example("[" + "1" * 5000 + ",2]")
@example("[1^" + "1" * 5000 + ",2]")
def test_parse_window_raises_only_its_own_errors(text):
    for group in (make_group(2, 1, 1, 2), make_group(3, 3, 1, 3), make_group(1, 1, 1, 1)):
        try:
            parse_window(text, group)
        except (ParseError, RangeError, MembershipError):
            pass


def _group_text():
    part = st.text(alphabet=st.sampled_from("0123456789 -+_²١x"), max_size=3)
    return st.lists(part, min_size=3, max_size=5).map(lambda ps: f"G({','.join(ps)})")


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(max_size=16), _group_text()))
def test_parse_group_raises_only_parse_and_group_errors(text):
    try:
        parse_group(text)
    except (ParseError, DivisibilityError):
        pass
    except ValueError as exc:  # make_group's own check
        assert "must be a positive integer" in str(exc)


# --- random admissible groups ---------------------------------------------------


@st.composite
def _group_and_lifts(draw, count):
    """A random admissible G(r,p,s,n) with r <= 8, and ``count`` random lifts
    in G(r,p,n) of its elements: any window with color sum divisible by p."""
    r = draw(st.integers(1, 8))
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    p, s = draw(st.sampled_from(divisors)), draw(st.sampled_from(divisors))
    step = p * s // math.gcd(p * s, r)  # ps | rn iff step | n
    group = make_group(r, p, s, step * draw(st.integers(1, max(1, 6 // step))))
    out = []
    for _ in range(count):
        sigma = tuple(draw(st.permutations(range(1, group.n + 1))))
        colors = draw(st.lists(st.integers(0, r - 1), min_size=group.n, max_size=group.n))
        colors[-1] = (colors[-1] - sum(colors) % p) % r
        out.append(ColoredPermutation(sigma, tuple(colors)))
    return group, out


@settings(max_examples=100, deadline=None)
@given(_group_and_lifts(3))
def test_group_axioms_on_random_groups(drawn):
    group, lifts_ = drawn
    a, b, c = (canonicalize(lift, group) for lift in lifts_)
    e = identity(group)
    ab = multiply(a, b)
    # the product is again a canonical element: color sum divisible by p and
    # last color below r/s
    assert sum(ab.colors) % group.p == 0 and ab.colors[-1] < group.r // group.s
    assert multiply(ab, c) == multiply(a, multiply(b, c))
    assert multiply(e, a) == a == multiply(a, e)
    assert multiply(a, inverse(a)) == e == multiply(inverse(a), a)
    assert inverse(inverse(a)) == a
    assert inverse(ab) == multiply(inverse(b), inverse(a))


@settings(max_examples=100, deadline=None)
@given(_group_and_lifts(2))
def test_classes_and_statistics_do_not_depend_on_the_lift(drawn):
    group, (x, y) = drawn
    g, h = canonicalize(x, group), canonicalize(y, group)
    assert x in lifts(g)
    rec = stat_record(g)
    # the statistics built on lambda(g), read off any lift in place of the
    # canonical one, are g's
    class_fields = lambda rec: (rec.lam, rec.fmaj, rec.fdes, rec.des, rec.col, rec.invAbs, rec.hdes)
    for lift in lifts(g):
        assert canonicalize(lift, group) == g
        assert class_fields(stat_record(ProjectiveElement(group, lift))) == class_fields(rec)
    # the product of two classes is the class of the product of any lifts
    cover = make_group(group.r, group.p, 1, group.n)
    for lx in lifts(g):
        for ly in lifts(h):
            product = multiply(canonicalize(lx, cover), canonicalize(ly, cover))
            assert canonicalize(product.lift, group) == multiply(g, h)
