import itertools

import pytest

from projstat.groups import (
    ColoredPermutation,
    canonicalize,
    enumerate_elements,
    identity,
    make_group,
    parse_window,
    residue,
)
from projstat.stats import (
    COLOR,
    PRIME,
    OrderScopeError,
    ScopeError,
    bn_descent_split,
    col_residues,
    compare,
    des_set,
    fmaj_prime,
    stat_record,
)


def test_compare_examples():
    assert compare(COLOR, (2, 1), (0, 0)) < 0
    assert compare(PRIME, (2, 1), (1, 2)) < 0
    for order in (COLOR, PRIME):
        assert compare(order, (3, 2), (3, 2)) == 0
    with pytest.raises(ValueError):
        compare(COLOR, (0, 1), (1, 0))


def test_compare_realizes_order_chains():
    # r=3, n=3 chains, smallest to largest
    color_chain = [(1, 2), (2, 2), (3, 2), (1, 1), (2, 1), (3, 1), (0, 0), (1, 0), (2, 0), (3, 0)]
    prime_chain = [(3, 2), (3, 1), (2, 2), (2, 1), (1, 2), (1, 1), (0, 0), (1, 0), (2, 0), (3, 0)]
    for order, chain in ((COLOR, color_chain), (PRIME, prime_chain)):
        for a, b in itertools.combinations(chain, 2):
            assert compare(order, a, b) < 0
            assert compare(order, b, a) > 0


def test_worked_example_record():
    G = make_group(6, 2, 3, 8)
    g = parse_window("[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]", G)
    rec = stat_record(g)
    assert rec.hdes == frozenset({2, 5})
    assert rec.hvec == (2, 2, 1, 1, 1, 0, 0, 0)
    assert rec.kvec == (18, 13, 13, 9, 5, 5, 1, 0)
    assert rec.fdes == 30
    assert rec.des == 15
    assert rec.col == 6
    assert rec.fmaj == 6 * 7 + 64 == 106
    assert rec.lam == tuple(6 * h + k for h, k in zip(rec.hvec, rec.kvec))
    assert rec.to_json()["lambda"] == list(rec.lam)


def test_identity_record_is_zero():
    for params in ((1, 1, 1, 3), (4, 2, 2, 3), (6, 2, 3, 4)):
        g = identity(make_group(*params))
        rec = stat_record(g)
        assert rec.fmaj == rec.fdes == rec.des == rec.col == rec.maj == 0
        assert rec.lam == (0,) * params[3]
        assert rec.signAbs == 1


def test_b2_signed_element():
    G = make_group(2, 1, 1, 2)
    g = parse_window("[2^1,1]", G)
    rec = stat_record(g)
    assert des_set(g) == {0}
    assert rec.maj == 0
    assert rec.fmaj == 1
    assert rec.des == 1
    assert rec.fdes == 1
    assert rec.col == 1
    assert rec.lam == (1, 0)


def test_des_set_examples():
    B7 = make_group(2, 1, 1, 7)
    g = parse_window("[5,-2,-1,-4,6,-3,-7]", B7)
    assert des_set(g, COLOR) == {1, 2, 5}

    assert des_set(identity(make_group(3, 1, 1, 4))) == set()

    B2 = make_group(2, 1, 1, 2)
    h = parse_window("[1^1,2^1]", B2)
    assert des_set(h, COLOR) == {0}
    assert des_set(h, PRIME) == {0, 1}

    with pytest.raises(OrderScopeError):
        des_set(identity(make_group(2, 1, 2, 2)), PRIME)
    with pytest.raises(OrderScopeError):
        des_set(identity(make_group(2, 2, 1, 2)), PRIME)


def test_fmaj_prime():
    B2 = make_group(2, 1, 1, 2)
    assert fmaj_prime(parse_window("[1^1,2^1]", B2)) == 4
    assert fmaj_prime(identity(B2)) == 0
    fm = sorted(stat_record(g).fmaj for g in enumerate_elements(B2))
    fmp = sorted(fmaj_prime(g) for g in enumerate_elements(B2))
    assert fm == fmp


def test_bn_descent_split_example():
    B7 = make_group(2, 1, 1, 7)
    g = parse_window("[5,-2,-1,-4,6,-3,-7]", B7)
    split = bn_descent_split(g)
    assert split.neg == frozenset({2, 3, 4, 6, 7})
    assert split.hdes0 == frozenset()
    assert split.hdes1 == frozenset({2})
    assert split.des_pm == frozenset({1, 5})
    assert not split.d0

    e = identity(B7)
    se = bn_descent_split(e)
    assert not (se.hdes0 or se.hdes1 or se.des_pm or se.d0 or se.nn or se.neg)

    with pytest.raises(ScopeError):
        bn_descent_split(identity(make_group(3, 1, 1, 2)))


def test_bn_descent_split_reconstructions_exhaustive_b3():
    B3 = make_group(2, 1, 1, 3)
    count = 0
    for g in enumerate_elements(B3):
        split = bn_descent_split(g)
        parts = [set(split.hdes0), set(split.hdes1), set(split.des_pm)]
        if split.d0:
            parts.append({0})
        union = set().union(*parts)
        assert sum(len(p) for p in parts) == len(union)
        assert union == des_set(g, COLOR)
        prime = set(split.hdes0) | (set(split.nn) - set(split.hdes1)) | set(split.des_pm)
        if split.d0:
            prime |= {0}
        assert prime == des_set(g, PRIME)
        count += 1
    assert count == 48


def test_col_residues():
    assert col_residues((2, 3, 3, 5, 1, 1, 3, 2), 2) == 6
    assert col_residues((7, 0, 123), 1) == 0
    assert col_residues((3, 1), 2) == 2
    with pytest.raises(ValueError):
        col_residues((1,), 0)


SMALL_GROUPS = [
    (2, 1, 1, 3),
    (3, 1, 1, 3),
    (4, 2, 1, 2),
    (4, 1, 2, 2),
    (4, 2, 2, 3),
    (6, 1, 3, 2),
    (6, 2, 3, 2),
    (6, 3, 2, 2),
]


@pytest.mark.parametrize("params", SMALL_GROUPS)
def test_lambda_invariants(params):
    group = make_group(*params)
    r, s = group.r, group.s
    rs = r // s
    for g in enumerate_elements(group):
        rec = stat_record(g)
        assert all(a >= b for a, b in zip(rec.lam, rec.lam[1:]))
        assert all(l % rs == c % rs for l, c in zip(rec.lam, g.colors))
        assert rec.fmaj == sum(rec.lam)
        assert rec.fdes == rec.lam[0]
        assert rec.col == col_residues(rec.lam, rs)


@pytest.mark.parametrize("params", SMALL_GROUPS)
def test_statistics_lift_invariant(params):
    from projstat.groups import lifts

    group = make_group(*params)
    for g in enumerate_elements(group):
        rec = stat_record(g)
        for lift in lifts(g):
            again = stat_record(canonicalize(lift, group))
            assert again == rec


@pytest.mark.parametrize("params", [(3, 1, 1, 2), (4, 1, 2, 2), (4, 2, 2, 2)])
def test_k_vector_minimality(params):
    # k(g) is the smallest weakly decreasing vector reducing mod r to the
    # colors of a lift of g
    from projstat.groups import lifts

    group = make_group(*params)
    r = group.r
    n = group.n
    for g in enumerate_elements(group):
        rec = stat_record(g)
        color_vectors = [lift.colors for lift in lifts(g)]
        top = rec.kvec[0] + r
        for beta in itertools.product(range(top + 1), repeat=n):
            if any(a < b for a, b in zip(beta, beta[1:])):
                continue
            if not any(
                all(residue(b, r) == c for b, c in zip(beta, colors))
                for colors in color_vectors
            ):
                continue
            assert all(b >= k for b, k in zip(beta, rec.kvec))


def test_wreath_remark_small():
    # for p = s = 1: des == des_G and fmaj == r*maj + col
    for r in (1, 2, 3):
        for n in (1, 2, 3, 4):
            group = make_group(r, 1, 1, n)
            for g in enumerate_elements(group):
                rec = stat_record(g)
                assert rec.des == rec.desG
                assert rec.fmaj == r * rec.maj + rec.col
                assert rec.fdes == r * rec.desA + g.colors[0]


def test_projective_membership_via_fmaj_small():
    # a class of G(r,1,s,n) lies in G(r,p,s,n) iff fmaj is divisible by p
    for r in (2, 3, 4):
        for n in (1, 2, 3):
            for s in (d for d in range(1, r + 1) if r % d == 0):
                for p in (d for d in range(1, r + 1) if r % d == 0):
                    if (r * n) % (p * s) or (r * n) % s:
                        continue
                    group = make_group(r, 1, s, n)
                    for g in enumerate_elements(group):
                        rec = stat_record(g)
                        member = sum(g.colors) % p == 0
                        assert member == (rec.fmaj % p == 0)


def test_color_class_and_sign():
    G = make_group(3, 1, 1, 2)
    g = canonicalize(ColoredPermutation((2, 1), (1, 2)), G)
    rec = stat_record(g)
    assert rec.invAbs == 1
    assert rec.signAbs == -1
    assert rec.colorClass == 0
