"""Explicit bijections behind the generating-function identities.

Two encodings are implemented: vectors in N^n with coordinate sum divisible
by p correspond to triples (g, lambda, h) with g in G(r,p,s,n), lambda a
partition with at most n parts and h in [0, s-1]; and 2-partite partitions
with constant column-sum residue correspond to 5-tuples (g, lambda, mu, h, k)
with g in G(r,1,s,n).  Both transport max/sum/residue statistics onto
(fdes, fmaj, col) data, which is what the Carlitz-type verifiers consume.

The order-transport map phi rewrites a window through the unique relabeling
of its value set that carries the alternative order <' onto the color order,
so descent sets transfer between the two orders while the color multiset is
preserved.
"""

from __future__ import annotations

from collections import namedtuple

from .groups import (
    ColoredPermutation,
    GroupDescriptor,
    MembershipError,
    ProjectiveElement,
    RangeError,
    canonicalize,
    inverse,
    residue,
)
from .stats import COLOR, PRIME, ScopeError, order_key, stat_record

Partition = tuple[int, ...]


def _padded(partition, n: int) -> Partition:
    parts = tuple(partition) + (0,) * (n - len(partition))
    if len(parts) > n:
        raise RangeError(f"partition {partition} has more than {n} parts")
    if any(a < b for a, b in zip(parts, parts[1:])) or (parts and parts[-1] < 0):
        raise RangeError(f"{partition} is not weakly decreasing and nonnegative")
    return parts


def partitions_in_box(n: int, max_part: int):
    """All partitions with at most n parts, each part at most max_part."""
    if n == 0:
        yield ()
        return
    for first in range(max_part, -1, -1):
        for rest in partitions_in_box(n - 1, first):
            yield (first,) + rest


def nvec_decode(g: ProjectiveElement, lam: Partition, h: int) -> tuple[int, ...]:
    """The vector f with f_i = lambda_{|g^-1(i)|}(g) + r*lambda_{|g^-1(i)|} + h*r/s."""
    group = g.group
    n = group.n
    if not 0 <= h < group.s:
        raise RangeError(f"h={h} out of range [0, {group.s - 1}]")
    lam = _padded(lam, n)
    lam_g = stat_record(g).lam
    rs = group.r // group.s
    inv_abs = [0] * n
    for i, v in enumerate(g.sigma):
        inv_abs[v - 1] = i
    return tuple(
        lam_g[inv_abs[i]] + group.r * lam[inv_abs[i]] + h * rs for i in range(n)
    )


def nvec_encode(
    f, group: GroupDescriptor
) -> tuple[ProjectiveElement, Partition, int]:
    """Inverse of :func:`nvec_decode` on vectors with sum divisible by p.

    The element is pinned down by sorting positions by f-value descending
    (ties by absolute value ascending) and matching lift colors to the
    f-values mod r; the partition and the shift h are read off the residues
    of the sorted vector minus lambda(g).
    """
    f = tuple(f)
    n = group.n
    if len(f) != n or any(x < 0 for x in f):
        raise RangeError(f"need {n} nonnegative entries, got {f}")
    if sum(f) % group.p:
        raise MembershipError(f"|f|={sum(f)} is not divisible by p={group.p}")
    order = sorted(range(1, n + 1), key=lambda v: (-f[v - 1], v))
    colors = tuple(residue(f[v - 1], group.r) for v in order)
    g = canonicalize(ColoredPermutation(tuple(order), colors), group)
    lam_g = stat_record(g).lam
    mu = tuple(sorted(f, reverse=True))
    diff = [m - l for m, l in zip(mu, lam_g)]
    rs = group.r // group.s
    if any(d < 0 for d in diff):
        raise AssertionError(f"sorted vector {mu} not above lambda(g)={lam_g}")
    hs = {residue(d, group.r) // rs for d in diff}
    if len(hs) != 1 or any(residue(d, group.r) % rs for d in diff):
        raise AssertionError(f"residues of {diff} are not a constant multiple of r/s")
    h = hs.pop()
    lam = tuple((d - h * rs) // group.r for d in diff)
    return g, lam, h


class Bipartite2Partition(namedtuple("Bipartite2Partition", "row1 row2")):
    """A 2 x n matrix: first row weakly decreasing, second row weakly
    decreasing along ties of the first."""

    __slots__ = ()
    row1: tuple[int, ...]
    row2: tuple[int, ...]

    def __new__(cls, row1, row2):
        r1, r2 = row1, row2
        if len(r1) != len(r2):
            raise RangeError("rows must have equal length")
        if any(x < 0 for x in r1 + r2):
            raise RangeError("entries must be nonnegative")
        for i in range(len(r1) - 1):
            if r1[i] < r1[i + 1]:
                raise RangeError(f"first row {r1} is not weakly decreasing")
            if r1[i] == r1[i + 1] and r2[i] < r2[i + 1]:
                raise RangeError(f"second row {r2} increases on a tie of the first")
        return super().__new__(cls, row1, row2)

    @classmethod
    def _make(cls, iterable):  # so _replace checks the rows too
        return cls(*iterable)

    def column_sum_class(self, r: int, s: int) -> int | None:
        """The common l with column sums congruent to l*r/s mod r, else None."""
        rs = r // s
        classes = {residue(a + b, r) for a, b in zip(self.row1, self.row2)}
        if len(classes) > 1:
            return None
        value = classes.pop() if classes else 0
        return value // rs if value % rs == 0 else None


def bipartite_from_tuple(
    g: ProjectiveElement,
    lam: Partition,
    mu: Partition,
    h: int,
    k: int,
) -> Bipartite2Partition:
    """The 2-partite partition encoding a 5-tuple over G(r,1,s,n):
    row1_i = lambda_i(g) + r*lambda_i + h*r/s,
    row2_i = lambda_{|g(i)|}(g^-1) + r*mu_{|g(i)|} + k*r/s.
    """
    group = g.group
    if group.p != 1:
        raise ScopeError(f"the 2-partite encoding lives over G(r,1,s,n), not {group}")
    n = group.n
    for name, value in (("h", h), ("k", k)):
        if not 0 <= value < group.s:
            raise RangeError(f"{name}={value} out of range [0, {group.s - 1}]")
    lam = _padded(lam, n)
    mu = _padded(mu, n)
    rs = group.r // group.s
    lam_g = stat_record(g).lam
    lam_ginv = stat_record(inverse(g)).lam
    row1 = tuple(lam_g[i] + group.r * lam[i] + h * rs for i in range(n))
    row2 = tuple(
        lam_ginv[v - 1] + group.r * mu[v - 1] + k * rs for v in g.sigma
    )
    return Bipartite2Partition(row1, row2)


def order_involution(g: ProjectiveElement) -> ProjectiveElement:
    """Rewrite the window through the order isomorphism (S(g), <') -> (S(g), <).

    Des_G of the image equals Des'_G of the argument and the color multiset
    (hence col) is preserved.  On B_n the map is an involution; for r > 2 it
    is still a bijection of G(r,n) but no longer of order two.
    """
    group = g.group
    if group.p != 1 or group.s != 1:
        raise ScopeError(f"order transport is defined on G(r,n) only, not {group}")
    values = list(zip(g.sigma, g.colors))
    by_prime = sorted(values, key=lambda vc: order_key(PRIME, *vc))
    by_color = sorted(values, key=lambda vc: order_key(COLOR, *vc))
    iota = dict(zip(by_prime, by_color))
    new = [iota[vc] for vc in values]
    return canonicalize(
        ColoredPermutation(tuple(v for v, _ in new), tuple(c for _, c in new)),
        group,
    )
