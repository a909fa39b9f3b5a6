"""Descent-type statistics on elements of G(r,p,s,n).

Colored values are ordered by the color order

    1^(r-1) < ... < n^(r-1) < ... < 1^1 < ... < n^1 < 0 < 1 < ... < n

(colored entries grouped by color descending, values ascending inside a
group, all below the uncolored values), or by the alternative order

    n^(r-1) <' ... <' n^1 <' ... <' 1^(r-1) <' ... <' 1^1 <' 0 <' 1 <' ... <' n

which groups colored entries by absolute value descending and colors
descending within a value.

All statistics of a class are computed from its canonical lift; they do
not depend on the lift chosen.  The partition lambda(g) is assembled from
the homogeneous descent counts h_i and the minimal color-compatible
partition k_i:

    k_n = R_{r/s}(c_n),   k_i = k_{i+1} + R_r(c_i - c_{i+1}),
    lambda_i = r*h_i + k_i,

and then fmaj = |lambda|, fdes = lambda_1, des = floor((s*lambda_1+r-s)/r),
col = sum of R_{r/s}(c_i).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .groups import (
    GroupDescriptor,
    ProjectiveElement,
    canonical_windows,
    check_budget,
    residue,
)

COLOR = "COLOR"
PRIME = "PRIME"


class OrderScopeError(ValueError):
    """The <' statistics are only defined on the wreath products (p=s=1)."""


class ScopeError(ValueError):
    """The operation is restricted to a smaller family of groups."""


def _key_color(value: int, color: int) -> tuple[int, int, int]:
    if color == 0:
        return (1, 0, value)
    return (0, -color, value)


def _key_prime(value: int, color: int) -> tuple[int, int, int]:
    if color == 0:
        return (1, 0, value)
    return (0, -value, -color)


_KEYS = {COLOR: _key_color, PRIME: _key_prime}


def order_key(order: str, value: int, color: int) -> tuple[int, int, int]:
    """Sort key realizing the chosen total order on colored values."""
    return _KEYS[order](value, color)


def compare(order: str, a: tuple[int, int], b: tuple[int, int]) -> int:
    """Compare two colored values (value, color); negative/zero/positive.

    Value 0 only carries color 0.
    """
    key = _KEYS[order]
    for value, color in (a, b):
        if value == 0 and color != 0:
            raise ValueError("value 0 only occurs with color 0")
    ka, kb = key(*a), key(*b)
    return (ka > kb) - (ka < kb)


def des_set(g: ProjectiveElement, order: str = COLOR) -> set[int]:
    """Descent positions {i in [0,n-1] : g(i) > g(i+1)}, with g(0) = 0.

    Position 0 is a descent exactly when g(1) is colored.
    """
    if order == PRIME and (g.group.p != 1 or g.group.s != 1):
        raise OrderScopeError(
            f"order <' statistics are defined on G(r,n) only, not {g.group}"
        )
    key = _KEYS[order]
    prev = key(0, 0)
    out = set()
    for i, (v, c) in enumerate(zip(g.sigma, g.colors)):
        cur = key(v, c)
        if prev > cur:
            out.add(i)
        prev = cur
    return out


@dataclass(frozen=True)
class StatRecord:
    """Every statistic of one element, as computed from its canonical lift."""

    desG: int
    desA: int
    maj: int
    fmaj: int
    fdes: int
    des: int
    col: int
    invAbs: int
    signAbs: int
    hdes: frozenset[int]
    hvec: tuple[int, ...]
    kvec: tuple[int, ...]
    lam: tuple[int, ...]
    colorClass: int

    def to_json(self) -> dict:
        return {
            "desG": self.desG,
            "desA": self.desA,
            "maj": self.maj,
            "fmaj": self.fmaj,
            "fdes": self.fdes,
            "des": self.des,
            "col": self.col,
            "invAbs": self.invAbs,
            "signAbs": self.signAbs,
            "hdes": sorted(self.hdes),
            "hvec": list(self.hvec),
            "kvec": list(self.kvec),
            "lambda": list(self.lam),
        }


def inversions(sigma: tuple[int, ...]) -> int:
    n = len(sigma)
    return sum(
        1 for i in range(n) for j in range(i + 1, n) if sigma[i] > sigma[j]
    )


def permutation_sign(sigma: tuple[int, ...]) -> int:
    """(-1)^inversions(sigma) for a permutation of 1..n in one-line
    notation, read in O(n) as (-1)^(n - number of cycles)."""
    seen = bytearray(len(sigma) + 1)
    parity = len(sigma)
    for start in range(1, len(sigma) + 1):
        if not seen[start]:
            parity -= 1
            v = start
            while not seen[v]:
                seen[v] = 1
                v = sigma[v - 1]
    return -1 if parity & 1 else 1


def stat_record(g: ProjectiveElement) -> StatRecord:
    group = g.group
    r, s, n = group.r, group.s, group.n
    rs = r // s
    sigma, colors = g.sigma, g.colors

    hdes = frozenset(
        i + 1
        for i in range(n - 1)
        if colors[i] == colors[i + 1] and sigma[i] > sigma[i + 1]
    )
    hvec = [0] * n
    running = 0
    for i in range(n - 1, -1, -1):
        if i + 1 in hdes:
            running += 1
        hvec[i] = running

    kvec = [0] * n
    kvec[n - 1] = residue(colors[n - 1], rs)
    for i in range(n - 2, -1, -1):
        kvec[i] = kvec[i + 1] + residue(colors[i] - colors[i + 1], r)

    lam = tuple(r * h + k for h, k in zip(hvec, kvec))
    fmaj = sum(lam)
    fdes = lam[0]
    des = (s * lam[0] + r - s) // r
    col = sum(residue(c, rs) for c in colors)

    descents = des_set(g, COLOR)
    des_g = len(descents)
    des_a = len(descents - {0})
    maj = sum(descents - {0})

    inv = inversions(sigma)
    return StatRecord(
        desG=des_g,
        desA=des_a,
        maj=maj,
        fmaj=fmaj,
        fdes=fdes,
        des=des,
        col=col,
        invAbs=inv,
        signAbs=-1 if inv % 2 else 1,
        hdes=hdes,
        hvec=tuple(hvec),
        kvec=tuple(kvec),
        lam=lam,
        colorClass=residue(sum(colors), r),
    )


# ----------------------------------------------------------------------
# histograms over a whole group

# Scalar StatRecord fields that distribution() can histogram, and the
# statistics of g^-1 it can pair with them.
DISTRIBUTION_KEYS = ("des", "fdes", "fmaj", "col", "desA", "invAbs", "signAbs", "colorClass")
INVERSE_KEYS = {"ides": "des", "ifmaj": "fmaj", "icol": "col"}

# A leaf record is (lambda_1, fmaj, col, desA, inv|g|, color sum); a record
# of the inverse path appends the record of g^-1 at this offset.
_RECORD_INDEX = {"fdes": 0, "fmaj": 1, "col": 2, "desA": 3, "invAbs": 4}
_INVERSE_OFFSET = 6


def _field(key: str, r: int, s: int):
    """The function taking a record to the value of one statistic."""
    off = 0
    if key in INVERSE_KEYS:
        key, off = INVERSE_KEYS[key], _INVERSE_OFFSET
    if key == "des":
        return lambda rec: (s * rec[off] + r - s) // r
    if key == "signAbs":
        return lambda rec: -1 if rec[off + 4] & 1 else 1
    if key == "colorClass":
        return lambda rec: rec[off + 5] % r
    return itemgetter(off + _RECORD_INDEX[key])


def _rank_dp(group: GroupDescriptor, keys) -> dict[tuple, int]:
    """Leaf records of the whole group by a right-to-left DP over relative ranks.

    An entry placed left of the m placed ones at relative rank j in [0, m]
    adds j inversions and lies above its right neighbour, of rank j1, iff
    j > j1.  That and the two colors give the steps of desA and of lambda,
    d = r*[c = c1 and j > j1] + R_r(c - c1); lambda_1 is the sum of the
    steps and fmaj the sum of i*d over positions i (1-based).  A sentinel
    neighbour of color 0 above every value makes the last position fit.  A
    state is (j1, c1, color sum mod r or p, the fields packed w bits apart);
    a field no key reads stays 0, and inv is kept mod 2 for signAbs alone.

    The first position's rank is not carried further, so it is not expanded:
    the last states are folded into (c1, color sum, side of j1, fields) with
    the number of ranks j behind each, 2 classes per j1 when inv is not read,
    4 (by the parity of j) for signAbs alone and n for invAbs.  Only the
    colors c that make the color sum divisible by p are then applied.
    """
    r, p, s, n = group.r, group.p, group.s, group.n
    rs, want = r // s, set(keys)
    w = (2 * r * n * n).bit_length()  # lambda_1 < 2rn, so fmaj < 2rn^2
    lam, fmaj, col, des_a, inv = (
        bool(want & names) << f * w
        for f, names in enumerate(({"des", "fdes"}, {"fmaj"}, {"col"}, {"desA"}, {"invAbs", "signAbs"}))
    )
    mask = -1 if "invAbs" in want else (2 << 4 * w) - 1
    mod = r if "colorClass" in want else p
    states, leaves = {(0, 0, 0, 0): 1}, {}  # the sentinel
    # the first position's rank j counts only through its side of j1 and
    # j * inv, which is kept whole for invAbs and mod 2 otherwise (j % n = j)
    period = n if "invAbs" in want else 2
    folds = [Counter((j > j1, j % period * inv) for j in range(n)) for j1 in range(n)]
    for i in range(n - 1, -1, -1):
        step = lam + (i + 1) * fmaj
        # per neighbour color c1 and color c: the fields added below the
        # neighbour and above it; values 0 < 1 stand in for the two sides in
        # the color order
        moves = [[] for _ in range(r)]
        for c1 in range(r):
            for c in range(rs) if i == n - 1 else range(r):
                below = _key_color(0, c) > _key_color(1, c1)
                above = _key_color(1, c) > _key_color(0, c1)
                lo = (c - c1) % r * step + c % rs * col + below * des_a
                moves[c1].append((lo, lo + (c == c1) * r * step + (above - below) * des_a))
        if not i:
            break
        nxt = {}
        for (j1, c1, csum, acc), count in states.items():
            for c, (lo, hi) in enumerate(moves[c1]):
                csum_c = (csum + c) % mod
                for j in range(n - i):
                    key = (j, c, csum_c, (acc + j * inv + (hi if j > j1 else lo)) & mask)
                    nxt[key] = nxt.get(key, 0) + count
        states = nxt
    # the first position: fold the states over j1 and j, then take only the
    # colors c that make the color sum divisible by p
    folded = {}
    for (j1, c1, csum, acc), count in states.items():
        for (side, dinv), size in folds[j1].items():
            key = (c1, csum, side, (acc + dinv) & mask)
            folded[key] = folded.get(key, 0) + count * size
    for (c1, csum, side, acc), count in folded.items():
        for c in range(-csum % p, len(moves[c1]), p):
            key = ((csum + c) % mod, (acc + moves[c1][c][side]) & mask)
            leaves[key] = leaves.get(key, 0) + count
    return {
        tuple(acc >> f * w & ((1 << w) - 1) for f in range(4)) + (acc >> 4 * w, csum): count
        for (csum, acc), count in leaves.items()
    }


def _window_record(sigma, colors, r: int, rs: int) -> tuple:
    """The leaf record of one window, by the suffix recurrences.

    The window need not be the canonical lift: k_n = R_{r/s}(c_n) and the
    differences R_r(c_i - c_{i+1}) do not see a global shift by r/s.
    """
    v1, c1 = sigma[-1], colors[-1]
    h, k = 0, c1 % rs
    fmaj, col, csum, des_a, inv, used = k, k, c1, 0, 0, 1 << v1
    for v, c in zip(reversed(sigma[:-1]), reversed(colors[:-1])):
        if c == c1 and v > v1:
            h += 1
        k += (c - c1) % r
        fmaj += r * h + k
        col += c % rs
        csum += c
        des_a += _key_color(v, c) > _key_color(v1, c1)
        inv += (used & ((1 << v) - 1)).bit_count()
        used |= 1 << v
        v1, c1 = v, c
    return (r * h + k, fmaj, col, des_a, inv, csum)


def _with_inverse(group: GroupDescriptor) -> Counter:
    """Records of g followed by records of g^-1, one window at a time."""
    r, rs = group.r, group.r // group.s
    records = Counter()
    for sigma, colors in canonical_windows(group):
        pos = sorted(range(len(sigma)), key=sigma.__getitem__)
        inv_sigma = tuple(i + 1 for i in pos)
        inv_colors = tuple(-colors[i] % r for i in pos)
        records[
            _window_record(sigma, colors, r, rs)
            + _window_record(inv_sigma, inv_colors, r, rs)
        ] += 1
    return records


def distribution(group: GroupDescriptor, keys, budget: int | None = None) -> Counter:
    """Histogram of the named statistics over the whole group.

    Maps each tuple of values of ``keys`` to the number of elements that
    take it.  ``keys`` are scalar :class:`StatRecord` fields from
    :data:`DISTRIBUTION_KEYS`, or ``ides``/``ifmaj``/``icol`` for des, fmaj
    and col of g^-1.  The result equals the histogram of
    :func:`stat_record` over :func:`enumerate_elements`, which stays the
    reference definition.

    Without inverse keys no element is built.  h_i, k_i and lambda_i are
    suffix recurrences,

        h_i = h_{i+1} + [c_i = c_{i+1} and sigma_i > sigma_{i+1}],
        k_i = k_{i+1} + R_r(c_i - c_{i+1}),   k_n = R_{r/s}(c_n),
        lambda_i = r*h_i + k_i,   fmaj = sum of lambda_i,

    that see the values only through comparisons with the right neighbour,
    and so do desA and inv.  :func:`_rank_dp` fills windows right to left
    by relative rank, keeping only the rank and color of the leftmost
    placed entry, the color sum and the fields the keys read.  Its work is
    polynomial in n and r, not proportional to the group order: B_10 (order
    3.7*10^9) takes about 0.06 s on one Xeon core under Python 3.11.  The
    last position takes colors below r/s, and the first, whose rank is
    folded away, only those making the color sum divisible by p.  Inverse
    keys need g^-1, which has no such recurrence; they take one pass per
    element over raw windows.

    Raises ValueError for any other key, and BudgetExceededError (before
    any work) when the group order exceeds the budget; for the DP that
    order is a loose bound on the work.
    """
    keys = tuple(keys)
    for key in keys:
        if key not in DISTRIBUTION_KEYS and key not in INVERSE_KEYS:
            raise ValueError(
                f"no histogram for statistic {key!r}; have "
                f"{', '.join(DISTRIBUTION_KEYS + tuple(INVERSE_KEYS))}"
            )
    check_budget(group, budget)
    if any(key in INVERSE_KEYS for key in keys):
        records = _with_inverse(group)
    else:
        records = _rank_dp(group, keys)
    fields = [_field(key, group.r, group.s) for key in keys]
    hist = Counter()
    for rec, count in records.items():
        hist[tuple(f(rec) for f in fields)] += count
    return hist


def fmaj_prime(g: ProjectiveElement) -> int:
    """The <'-flag major index r * sum(Des'_G(g)) + col(g), on G(r,n)."""
    prime_descents = des_set(g, PRIME)
    rec = stat_record(g)
    return g.group.r * sum(prime_descents) + rec.col


@dataclass(frozen=True)
class BnDescentSplit:
    """The four-part splitting of Des_G(g) for g in B_n, plus Neg and NN.

    Des_G(g)  = hdes0 | hdes1 | des_pm | ({0} iff d0)
    Des'_G(g) = hdes0 | (nn - hdes1) | des_pm | ({0} iff d0)
    """

    hdes0: frozenset[int]
    hdes1: frozenset[int]
    des_pm: frozenset[int]
    d0: bool
    nn: frozenset[int]
    neg: frozenset[int]


def bn_descent_split(g: ProjectiveElement) -> BnDescentSplit:
    group = g.group
    if group.r != 2 or group.p != 1 or group.s != 1:
        raise ScopeError(f"descent splitting is defined on B_n only, not {group}")
    sigma, colors = g.sigma, g.colors
    n = group.n
    hdes0, hdes1, des_pm, nn = set(), set(), set(), set()
    for i in range(n - 1):
        ci, cj = colors[i], colors[i + 1]
        if ci == 1 and cj == 1:
            nn.add(i + 1)
        if sigma[i] > sigma[i + 1]:
            if ci == 0 and cj == 0:
                hdes0.add(i + 1)
            elif ci == 1 and cj == 1:
                hdes1.add(i + 1)
        if ci == 0 and cj == 1:
            des_pm.add(i + 1)
    neg = frozenset(i + 1 for i in range(n) if colors[i] == 1)
    return BnDescentSplit(
        hdes0=frozenset(hdes0),
        hdes1=frozenset(hdes1),
        des_pm=frozenset(des_pm),
        d0=colors[0] == 1,
        nn=frozenset(nn),
        neg=neg,
    )


def col_residues(f, k: int) -> int:
    """Sum of the residues modulo k of the entries of an integer vector."""
    if k < 1:
        raise ValueError(f"modulus must be >= 1, got {k}")
    return sum(residue(x, k) for x in f)
