import math
import re

import pytest

from projstat.groups import enumerate_elements, identity, inverse, make_group, parse_window
from projstat.rsk import (
    ShapeMismatchError,
    content,
    is_standard,
    rs_correspondence,
    rs_inverse,
    rs_transpose_map,
    shape,
    tableau_descents,
    transpose,
)
from projstat.stats import COLOR, PRIME, ScopeError, bn_descent_split, des_set


def b(n):
    return make_group(2, 1, 1, n)


def test_paper_example_bitableaux():
    g = parse_window("[5,-2,-1,-4,6,-3,-7]", b(7))
    (p0, p1), (q0, q1) = rs_correspondence(g)
    assert p0 == ((5, 6),)
    assert p1 == ((1, 3, 7), (2, 4))
    assert q0 == ((1, 5),)
    assert q1 == ((2, 4, 7), (3, 6))


def test_paper_example_transpose_image():
    g = parse_window("[5,-2,-1,-4,6,-3,-7]", b(7))
    image = rs_transpose_map(g)
    assert image == parse_window("[5,-3,-7,-1,6,-4,-2]", b(7))
    assert bn_descent_split(g).neg == bn_descent_split(image).neg == frozenset(
        {2, 3, 4, 6, 7}
    )
    assert des_set(g, COLOR) == des_set(image, PRIME) == {1, 2, 5}
    assert des_set(inverse(g), COLOR) == des_set(inverse(image), PRIME) == {0, 1, 3, 6}


def test_identity_bitableaux():
    n = 5
    g = identity(b(n))
    (p0, p1), (q0, q1) = rs_correspondence(g)
    assert p0 == q0 == (tuple(range(1, n + 1)),)
    assert p1 == q1 == ()


def test_round_trip_b4():
    B4 = b(4)
    for g in enumerate_elements(B4):
        pair = rs_correspondence(g)
        (p0, p1), (q0, q1) = pair
        assert shape(p0) == shape(q0) and shape(p1) == shape(q1)
        for t in (p0, p1, q0, q1):
            assert is_standard(t)
        assert rs_inverse(pair, B4) == g


def test_rs_contents_and_descents_exhaustive_b3():
    B3 = b(3)
    for g in enumerate_elements(B3):
        (p0, p1), (q0, q1) = rs_correspondence(g)
        split = bn_descent_split(g)
        isplit = bn_descent_split(inverse(g))
        assert content(q1) == set(split.neg)
        assert content(p1) == set(isplit.neg)
        assert tableau_descents(q0) == set(split.hdes0)
        assert tableau_descents(q1) == set(split.hdes1)
        assert tableau_descents(p0) == set(isplit.hdes0)
        assert tableau_descents(p1) == set(isplit.hdes1)
        assert set(split.des_pm) == {
            i for i in content(q0) if i + 1 in content(q1)
        }
        assert split.d0 == (1 in content(q1))


def test_transpose_properties_b4():
    B4 = b(4)
    images = set()
    for g in enumerate_elements(B4):
        image = rs_transpose_map(g)
        images.add(image)
        assert bn_descent_split(g).neg == bn_descent_split(image).neg
        assert des_set(g, COLOR) == des_set(image, PRIME)
        assert des_set(inverse(g), COLOR) == des_set(inverse(image), PRIME)
    assert len(images) == B4.order


def test_transpose_fixes_uncolored():
    S4_in_B4 = [g for g in enumerate_elements(b(4)) if not any(g.colors)]
    for g in S4_in_B4:
        assert rs_transpose_map(g) == g


def test_transpose_descent_complement():
    # transposing the colored recording tableau complements its descents
    # inside the all-colored adjacency set
    for g in enumerate_elements(b(4)):
        (_, _), (q0, q1) = rs_correspondence(g)
        split = bn_descent_split(g)
        assert tableau_descents(transpose(q1)) == set(split.nn) - set(split.hdes1)


ROUND_TRIP_GROUPS = [
    make_group(r, p, s, n)
    for r in range(1, 5) for p in range(1, r + 1) for s in range(1, r + 1) for n in range(1, 5)
    if r % p == 0 and r % s == 0 and r * n % (p * s) == 0
    and r**n * math.factorial(n) // (p * s) <= 3000
]


def test_rs_round_trip_on_every_small_group():
    assert len(ROUND_TRIP_GROUPS) == 57
    assert sum(group.order for group in ROUND_TRIP_GROUPS) == 12269
    for group in ROUND_TRIP_GROUPS:
        for g in enumerate_elements(group):
            ps, qs = rs_correspondence(g)
            assert len(ps) == len(qs) == group.r
            for c, (p, q) in enumerate(zip(ps, qs)):
                assert shape(p) == shape(q) and is_standard(p) and is_standard(q)
                assert content(q) == {i + 1 for i, color in enumerate(g.colors) if color == c}
            assert rs_inverse((ps, qs), group) == g


def test_rs_covers_every_group_and_the_transpose_only_b_n():
    for group in (make_group(3, 1, 1, 2), make_group(2, 1, 2, 2)):
        assert group in ROUND_TRIP_GROUPS
        with pytest.raises(ScopeError, match=f"B_n only, not {re.escape(str(group))}"):
            rs_transpose_map(identity(group))


def test_rs_inverse_needs_one_tableau_per_color():
    group = make_group(3, 1, 1, 2)
    with pytest.raises(ShapeMismatchError):
        rs_inverse(((((2,),), ((1,),)), (((1,),), ((2,),))), group)


def test_rs_inverse_validation():
    B2 = b(2)
    row_of_two = ((1, 2),)
    column_of_two = ((1,), (2,))
    with pytest.raises(ShapeMismatchError):
        rs_inverse(((row_of_two, ()), (column_of_two, ())), B2)  # shapes differ
    with pytest.raises(ShapeMismatchError):
        rs_inverse(((((2, 1),), ()), (row_of_two, ())), B2)  # not standard
    with pytest.raises(ShapeMismatchError):
        # value 1 appears in both insertion tableaux
        rs_inverse(((((1,),), ((1,),)), (((1,),), ((2,),))), B2)
