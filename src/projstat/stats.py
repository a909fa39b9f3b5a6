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

import functools
from collections import Counter, namedtuple
from operator import itemgetter
from types import MappingProxyType

from .groups import (
    GroupDescriptor,
    ProjectiveElement,
    check_budget,
    residue,
)
from .series import _layout

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


class StatRecord(namedtuple(
    "StatRecord",
    "desG desA maj fmaj fdes des col invAbs signAbs hdes hvec kvec lam colorClass",
)):
    """Every statistic of one element, as computed from its canonical lift."""

    __slots__ = ()
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

# The scalar StatRecord fields that distribution() can histogram, in the
# order both kernels lay out their records, and the statistics of g^-1 it
# can pair with them.
DISTRIBUTION_KEYS = ("des", "fdes", "fmaj", "col", "desA", "colorClass")
INVERSE_KEYS = {"ides": "des", "ifmaj": "fmaj", "icol": "col"}


def _getter(keys, layout=DISTRIBUTION_KEYS):
    """The function taking a record laid out as ``layout`` to the tuple of
    its values of ``keys``."""
    at = [layout.index(key) for key in keys]
    if len(at) == 1:
        return lambda rec: (rec[at[0]],)
    return itemgetter(*at) if at else lambda rec: ()


@functools.lru_cache
def _rank_classes(n: int, m: int, sign: int):
    """The rank classes of the step that places an entry left of m placed ones.

    A state's rank slot holds a class of ranks of the leftmost placed entry:
    an exact rank j1 < n (a one-rank class, whose weight the state's count
    carries), or n for all the ranks in [0, m-1], the state's count then
    being that of each rank j1 times its weight sign^j1.  The new entry
    takes a rank j in [0, m] and weighs sign^j: sign is 1 for counts and -1
    for the sums of sign(|g|) = (-1)^inv.  Returns

    - ``spread``: the class of all j in [0, m], which a color change makes,
      its side being fixed by the colors;
    - ``sizes``: the total weight of each class a state may hold, by which
      a color change multiplies its count (a class of total weight 0 makes
      no state);
    - ``splits``: per such class, (j, j above j1, total weight of the ranks
      j1 of the class on that side times sign^j) for each j and side of
      nonzero weight, which a step of the same color makes.

    At m = 0 the one class is the sentinel's rank 0.  The tables depend
    only on the arguments, so they are built once and are read-only.
    """
    spread = n if m else 0
    classes = {j1: {j1: 1} for j1 in range(max(m, 1))}
    if m > 1:
        classes[n] = {j1: sign**j1 for j1 in range(m)}
    sizes = {x: sum(weights.values()) for x, weights in classes.items()}
    splits = {}
    for x, weights in classes.items():
        split = []
        for j in range(m + 1):
            under = sum(w for j1, w in weights.items() if j1 < j)
            for side, weight in ((True, under), (False, sizes[x] - under)):
                if weight:
                    split.append((j, side, sign**j * weight))
        splits[x] = tuple(split)
    return spread, MappingProxyType(sizes), MappingProxyType(splits)


def _moves(
    r: int, rs: int, colors: int, step: int, col: int, des_a: int, neighbours: int | None = None
) -> tuple[list, int]:
    """(rows, rise): ``rows[c1][c]`` holds the fields added by an entry of
    color c < ``colors`` placed below its neighbour, of color c1, in rank,
    and ``rise`` what an entry of color c1 adds on top of that when it lies
    above it; an entry of another color adds the same on either side.

    In the color order an entry lies above its neighbour when it is below
    it in rank iff c < c1 (color 0 counting as the largest), and when it is
    above it in rank iff c <= c1.  ``step`` is what one unit of lambda_i
    adds, and ``col`` and ``des_a`` the units of col and desA.  Only the
    rows of the first ``neighbours`` colors c1 are built, all r by default.
    """
    c1s = range(r if neighbours is None else neighbours)
    rows = [[(c - c1) % r * step + c % rs * col + (c < c1) * des_a for c in range(colors)] for c1 in c1s]
    return rows, r * step + des_a


def _lambda_cap(caps: dict, r: int, s: int, top: int) -> int:
    """The largest lambda_1, at most ``top``, whose fdes and des are within
    their caps in ``caps`` (des = floor((s*lambda_1 + r - s)/r) grows with
    lambda_1)."""
    bounds = [top, caps.get("fdes", top)]
    if "des" in caps:
        bounds.append((r * caps["des"] + s - 1) // s)
    return min(bounds)


def _rank_step(states: dict, rows: list, rise: int, classes, mod: int) -> dict:
    """The states after placing one more entry left of the placed ones.

    ``rows`` and ``rise`` are :func:`_moves` of the position, and
    ``classes`` is :func:`_rank_classes` of the step.  A state whose count
    has cancelled to 0 makes none.
    """
    spread, sizes, splits = classes
    nxt = {}
    get = nxt.get
    for (x, c1, csum, acc), count in states.items():
        if not count:
            continue
        total = count * sizes[x]
        for c, lo in enumerate(rows[c1]):
            csum_c, base = (csum + c) % mod, acc + lo
            if c == c1:
                above = base + rise
                for j, side, weight in splits[x]:
                    key = (j, c, csum_c, above if side else base)
                    nxt[key] = get(key, 0) + count * weight
            elif total:
                key = (spread, c, csum_c, base)
                nxt[key] = get(key, 0) + total
    return nxt


def _rank_dp(group: GroupDescriptor, keys, caps=None, sign: int = 1) -> tuple:
    """The :func:`factors` of keys, no inverse key among them, by a
    right-to-left DP over relative ranks; no element is built.  Its one pair
    is (histogram, {(): 1}), left out when the caps leave nothing.  With
    sign -1 the histogram holds, for each tuple of values, the sum of
    sign(|g|) = (-1)^inv|g| over the elements taking it, zero sums left out
    (:func:`signed_distribution`).

    h_i, k_i and lambda_i are suffix recurrences,

        h_i = h_{i+1} + [c_i = c_{i+1} and sigma_i > sigma_{i+1}],
        k_i = k_{i+1} + R_r(c_i - c_{i+1}),   k_n = R_{r/s}(c_n),
        lambda_i = r*h_i + k_i,   fmaj = sum of lambda_i,

    that see the values only through comparisons with the right neighbour,
    and so does desA.  An entry placed left of the m placed ones at
    relative rank j in [0, m] adds j inversions and lies above its right
    neighbour, of rank j1, iff j > j1.  That and the two colors give the
    steps of desA and of lambda, d = r*[c = c1 and j > j1] + R_r(c - c1)
    (:func:`_moves`); lambda_1 is the sum of the steps and fmaj the sum of
    i*d over positions i (1-based).  A sentinel neighbour of color 0 above
    every value makes the last position fit, and that position takes only
    colors below r/s.  A state is (class of j1, c1, color sum mod r or p,
    the fields packed by :func:`series._layout`, each sized by its bound in
    :func:`_largest`); a field no key reads stays 0.  For the signed sums
    each placement at rank j weighs (-1)^j, so a state's count is a signed
    sum, whose product over the positions is (-1)^inv.

    A step to a color c != c1 is decided by the colors alone, so the rank
    j it takes matters only through its weight: it makes one state of the
    class of all ranks (:func:`_rank_classes`), weighted by the class's
    total weight, and none when that weight is 0.  Only a step of the same
    color splits a class, by the weight of its ranks below each new rank.

    The first position's rank is not carried further, so it is not expanded,
    and only the colors c that make the color sum divisible by p are
    applied.  The leaves are one dict of packed fields per color sum.  For
    the colors c != c1 the last states are merged, over their classes, into
    one bucket of packed fields per (c1, color sum), weighted by the sum of
    sign^j over the ranks j in [0, n-1], and each bucket is shifted whole
    by the fields of c: for the signed sums that weight is 0 when n is
    even, and those colors make nothing.  c = c1 splits each class by the
    side of j1 the rank falls on, weighted by the ranks behind each.

    ``caps`` (see :func:`distribution`) bound fields that only grow: a
    state with a field past its cap is dropped after each step, and the
    leaves are cut alike, des and fdes through the lambda_1 field
    (:func:`_lambda_cap`).  A cap is taken at most its field's bound, and
    an uncapped field is checked against its bound, which no state passes.
    Without caps no state is checked.

    The work is polynomial in n and r, not proportional to the group order:
    B_10 (order 3.7*10^9) takes about 0.05 s for (des, fmaj, col) on one
    Xeon vCPU under Python 3.11.
    """
    keys = tuple(keys)
    r, p, s, n = group.r, group.p, group.s, group.n
    rs, want = r // s, set(keys)
    # the fields lambda_1, fmaj, col and desA
    largest, names, caps = _largest(group), ("fmaj", "col", "desA"), caps or {}
    bounds = (largest["fdes"], *map(largest.get, names))
    field_caps = (_lambda_cap(caps, r, s, bounds[0]), *(caps.get(key, largest[key]) for key in names))
    fields, bias, guard = _layout(field_caps, bounds)
    (_, low), (at_fmaj, in_fmaj), (at_col, in_col), (at_des_a, in_des_a) = fields
    lam, fmaj, col, des_a = (
        bool(want & names) << shift
        for (shift, _), names in zip(fields, ({"des", "fdes"}, {"fmaj"}, {"col"}, {"desA"}))
    )
    mod = r if "colorClass" in want else p
    states = {(0, 0, 0, 0): 1}  # the sentinel
    for i in range(n - 1, -1, -1):
        # the last position takes colors below r/s, left of the sentinel's color 0
        last = i == n - 1
        rows, rise = _moves(r, rs, rs if last else r, lam + (i + 1) * fmaj, col, des_a, 1 if last else r)
        if not i:
            break
        states = _rank_step(states, rows, rise, _rank_classes(n, n - 1 - i, sign), mod)
        if caps:
            states = {key: count for key, count in states.items() if not (key[3] + bias) & guard}
    # the first position
    _, sizes, splits = _rank_classes(n, n - 1, sign)
    anywhere = sum(sign**j for j in range(n))  # the weight of the ranks in [0, n-1]
    folds = {}  # per class: its bucket weight, and (fields added, weight) for c = c1
    for x, split in splits.items():
        fold = {}
        for _, side, weight in split:
            fold[side * rise] = fold.get(side * rise, 0) + weight
        folds[x] = sizes[x] * anywhere, [(shift, weight) for shift, weight in fold.items() if weight]
    leaves, buckets = [{} for _ in range(mod)], {}
    for (x, c1, csum, acc), count in states.items():
        size, fold = folds[x]
        if size:
            bucket = buckets.get((c1, csum))
            if bucket is None:
                buckets[c1, csum] = {acc: count * size}
            else:
                bucket[acc] = bucket.get(acc, 0) + count * size
        if not (csum + c1) % p:
            base, leaf = acc + rows[c1][c1], leaves[(csum + c1) % mod]
            for shift, weight in fold:
                key = base + shift
                leaf[key] = leaf.get(key, 0) + count * weight
    for (c1, csum), bucket in buckets.items():
        row = rows[c1]
        for c in range(-csum % p, len(row), p):
            if c != c1:
                leaf, shift = leaves[(csum + c) % mod], row[c]
                get = leaf.get
                for acc, count in bucket.items():
                    key = acc + shift
                    leaf[key] = get(key, 0) + count
    get, hist = _getter(keys), {}
    for csum, leaf in enumerate(leaves):
        if caps:
            leaf = {acc: count for acc, count in leaf.items() if not (acc + bias) & guard}
        color_class = csum % r
        for acc, count in leaf.items():
            lam1 = acc & low
            # laid out as DISTRIBUTION_KEYS
            rec = ((s * lam1 + r - s) // r, lam1, acc >> at_fmaj & in_fmaj, acc >> at_col & in_col,
                   acc >> at_des_a & in_des_a, color_class)
            key = get(rec)
            hist[key] = hist.get(key, 0) + count
    if sign != 1:
        hist = {key: count for key, count in hist.items() if count}
    return keys, (), [(hist, {(): 1})] if hist else []


@functools.cache
def _addable(shape: tuple) -> tuple[tuple, ...]:
    """(c, row, shape with a cell added at the end of that row of component c)
    for every cell that keeps each component a partition; built once per
    shape."""
    out = []
    for c, part in enumerate(shape):
        for row in range(len(part) + 1):
            size = part[row] if row < len(part) else 0
            if row == 0 or part[row - 1] > size:
                grown = part[:row] + (size + 1,) + part[row + 1:]
                out.append((c, row, shape[:c] + (grown,) + shape[c + 1:]))
    return tuple(out)


def _tableau_levels(r: int, step_d: int, step_sum: int, first: bool, limit=None):
    """Standard multi-tableaux with r components, by a forward DP: yields the
    states of n = 1, 2, ... cells in turn, each level computed only when it
    is asked for.

    Position i goes to the end of a row of component c_i, and i < n is in
    D iff c_i < c_{i+1}, or c_i = c_{i+1} and i+1 goes to a strictly lower
    row than i.  A state is (multishape, c and row of the last position,
    c_1 if ``first`` else 0); it maps step_d*|D| + step_sum*sum(D) to the
    number of tableaux.  The step of position i, step_d + i*step_sum, does
    not depend on n, so one walk serves every n.  |D| and sum(D) only grow,
    so with a ``limit``, the (bias, guard) of a box by
    :func:`series._layout`, a count is dropped after a step once it passes
    the box, and a state with no counts left goes with it.
    """
    empty = ((),) * r
    states = {(empty[:c] + ((1,),) + empty[c + 1:], c, 0, c * first): {0: 1} for c in range(r)}
    i = 1
    while True:
        yield states
        step = step_d + i * step_sum
        nxt = {}
        for (shape, c, row, c1), counts in states.items():
            for c2, row2, shape2 in _addable(shape):
                target = nxt.setdefault((shape2, c2, row2, c1), {})
                d = step if c < c2 or (c == c2 and row2 > row) else 0
                for acc, count in counts.items():
                    target[acc + d] = target.get(acc + d, 0) + count
        states = nxt
        if limit:
            bias, guard = limit
            kept = {state: {acc: c for acc, c in counts.items() if not (acc + bias) & guard}
                    for state, counts in nxt.items()}
            states = {state: counts for state, counts in kept.items() if counts}
        i += 1


def _inverse_shape(shape: tuple) -> tuple:
    """The multishape of P for the tableaux of g^-1: component -c mod r of
    the result is component c of ``shape``."""
    return shape[:1] + shape[:0:-1]


def _tableau_keys(keys: tuple) -> tuple:
    """The set-up of the tableau kernel that depends on the keys alone:
    (own keys, inverse keys, the getters of their values from a record laid
    out as DISTRIBUTION_KEYS, whether g's keys read as g^-1's, and the DP's
    step_d, unit of sum(D) and ``first``, for :func:`_tableau_levels`)."""
    read = {INVERSE_KEYS.get(key, key) for key in keys}
    own = tuple(key for key in keys if key not in INVERSE_KEYS)
    inverse = tuple(key for key in keys if key in INVERSE_KEYS)
    bases = tuple(INVERSE_KEYS[key] for key in inverse)
    dp = int(bool(read & {"des", "fdes", "desA"})), int("fmaj" in read), bool(read & {"des", "fdes"})
    return own, inverse, _getter(own), _getter(bases), own == bases, dp


def _tableau_bounds(n: int) -> tuple:
    """The bounds of |D| <= n-1 and sum(D) <= n(n-1)/2 over the tableaux of n cells."""
    return n - 1, n * (n - 1) // 2


def _tableau_box(group: GroupDescriptor, own, inverse, caps: dict) -> tuple:
    """The box of (|D|, sum(D)) past which no tableau of the group makes a
    record within the caps on either side (see :func:`ranked_factors`)."""
    r, s, n = group.r, group.s, group.n
    bounds, largest = _tableau_bounds(n), _largest(group)
    boxes = []
    for side, slack in ((own, 0), (inverse, r - r // s)):
        side_caps = {INVERSE_KEYS.get(key, key): caps[key] for key in side if key in caps}
        lam1 = _lambda_cap(side_caps, r, s, largest["fdes"])
        n_d = min(side_caps.get("desA", bounds[0]), (lam1 + slack) // r)
        sum_d = (side_caps["fmaj"] + n * slack) // r if "fmaj" in side_caps else bounds[1]
        boxes.append((min(n_d, bounds[0]), min(sum_d, bounds[1])))
    return tuple(map(max, *boxes))


def _tableau_factors(group: GroupDescriptor, setup: tuple, caps: dict, states: dict, fields) -> tuple:
    """The factors of the group from the states of its tableaux of n cells,
    whose |D| and sum(D) are packed as ``fields``, for the keys set up by
    :func:`_tableau_keys` and the caps that prune (see :func:`ranked_factors`).

    Each lambda makes one pair of the histogram of g's keys over the
    canonical Q and that of the inverse keys over every tableau of shape
    -lambda, and the pairs of equal inverse histograms are merged by adding
    their own ones.  When the pairs still outnumber the tuples b of inverse
    values, the histogram is given by its columns instead, one pair (own
    histogram at b, {b: 1}) per b: fewer pairs for a caller to divide and
    multiply out."""
    r, p, s, n = group.r, group.p, group.s, group.n
    rs = r // s
    own, inverse, own_get, inv_get, same, _ = setup
    (_, in_d), (at_sum, _) = fields
    # with s = 1 every Q is canonical, and g's keys may be read as g^-1's
    shared = s == 1 and same
    canonical, every, sums = {}, {}, {}
    for (shape, cn, _, c1), counts in states.items():
        if shape not in sums:
            sizes = [sum(part) for part in shape]
            sums[shape] = (
                sum(c * size for c, size in enumerate(sizes)),
                sum(c % rs * size for c, size in enumerate(sizes)),
            )
            every[shape] = {}
            canonical[shape] = every[shape] if shared else {}
        csum, col = sums[shape]
        base, shift, right = c1 - cn + cn % rs, csum + n * (cn % rs - cn), every[shape]
        left = None if shared or cn >= rs else canonical[shape]
        for acc, count in counts.items():
            n_d = acc & in_d
            lam1 = r * n_d + base
            # laid out as DISTRIBUTION_KEYS
            rec = ((s * lam1 + r - s) // r, lam1, r * (acc >> at_sum) + shift, col, n_d, csum % r)
            b = inv_get(rec)
            right[b] = right.get(b, 0) + count
            if left is not None:
                a = own_get(rec)
                left[a] = left.get(a, 0) + count
    own_caps = [(i, caps[key]) for i, key in enumerate(own) if key in caps]
    inv_caps = [(i, caps[key]) for i, key in enumerate(inverse) if key in caps]
    within = lambda hist, bounds: {v: c for v, c in hist.items() if all(v[i] <= cap for i, cap in bounds)}
    pairs = {}  # the inverse histogram, frozen -> [own histogram, inverse histogram]
    for shape, left in canonical.items():
        if sums[shape][0] % p == 0:
            right = every[_inverse_shape(shape)]
            if caps:
                left, right = within(left, own_caps), within(right, inv_caps)
            if left and right:
                pair = pairs.setdefault(frozenset(right.items()), [{}, right])[0]
                for a, x in left.items():
                    pair[a] = pair.get(a, 0) + x
    pairs = [tuple(pair) for pair in pairs.values()]
    columns = {b: {} for _, right in pairs for b in right}
    if len(pairs) > len(columns):
        for left, right in pairs:
            for b, y in right.items():
                column = columns[b]
                for a, x in left.items():
                    column[a] = column.get(a, 0) + x * y
        pairs = [(column, {b: 1}) for b, column in columns.items()]
    return own, inverse, pairs


def _largest(group: GroupDescriptor) -> dict:
    """A bound on the values of each key that takes a cap, over the group.

    With D the descents of g other than 0 (|D| <= n-1, sum(D) <= n(n-1)/2),
    lambda_1 = r|D| + c_1 - c_n + R_{r/s}(c_n) <= rn - 1 and fmaj = r*sum(D)
    + sum_i c_i - n*c_n + n*R_{r/s}(c_n) <= rn(n-1)/2 + (r-1)n (see
    :func:`ranked_factors`); des grows with lambda_1, and the statistics
    of g^-1 share the bounds of g's.
    """
    r, s, n = group.r, group.s, group.n
    fdes = r * n - 1
    bounds = {
        "des": (s * fdes + r - s) // r, "fdes": fdes, "fmaj": r * n * (n - 1) // 2 + (r - 1) * n,
        "col": n * (r // s - 1), "desA": n - 1,
    }
    return bounds | {key: bounds[base] for key, base in INVERSE_KEYS.items()}


def _checked(group: GroupDescriptor, keys: tuple, caps) -> dict:
    """The refusals of :func:`factors` for keys and caps, and the caps that
    can cut something on the group."""
    for key in keys:
        if key not in DISTRIBUTION_KEYS and key not in INVERSE_KEYS:
            raise ValueError(
                f"no histogram for statistic {key!r}; have "
                f"{', '.join(DISTRIBUTION_KEYS + tuple(INVERSE_KEYS))}"
            )
    if caps:
        largest = _largest(group)
        for key, cap in caps.items():
            if key not in keys or key not in largest:
                raise ValueError(f"no cap on {key!r}: a cap goes on one of the keys, not on colorClass")
            if not isinstance(cap, int) or cap < 0:
                raise ValueError(f"the cap on {key!r} must be a nonnegative int, got {cap!r}")
        # a cap that no element passes cuts nothing, and is not checked
        caps = {key: cap for key, cap in caps.items() if cap < largest[key]}
    return caps or {}


def factors(group: GroupDescriptor, keys, budget: int | None = None, caps=None) -> tuple:
    """The histogram of the named statistics over the whole group, as the
    sum of products of a histogram of g's keys and one of g^-1's.

    Returns (own keys, inverse keys, pairs): ``keys`` split into those of g
    and the inverse keys ``ides``/``ifmaj``/``icol``, each in the order of
    ``keys``, and a list of (own histogram, inverse histogram), each a dict
    from a tuple of values of its keys to a positive count.  The histogram
    of ``keys`` is the sum over the pairs of the products x*y at the joined
    tuple a + b, for a -> x in the own histogram and b -> y in the inverse
    one (:func:`distribution`, up to the order of the keys).

    With an inverse key, :func:`ranked_factors` of the one group makes one
    pair per shape of color-by-color Robinson-Schensted, merges the pairs
    of equal inverse histograms by adding their own histograms, and gives
    the columns instead when they are fewer; without one :func:`_rank_dp`
    makes the one pair (histogram, {(): 1}).  A pair with an empty side is
    left out, and no two pairs have equal inverse histograms.  So a caller
    can work on each side in its own variables, as the verifiers' chain
    divisions do (:func:`identities._enumeration_side`).

    ``keys``, ``budget`` and ``caps`` are those of :func:`distribution`, and
    so are the refusals.  :func:`ranked_factors` gives the factors of a run
    of ranks from one tableau walk.
    """
    keys = tuple(keys)
    if any(key in INVERSE_KEYS for key in keys):
        return ranked_factors([group], keys, caps)(group, keys, budget, caps)
    caps = _checked(group, keys, caps)
    check_budget(group, budget)
    return _rank_dp(group, keys, caps)


def ranked_factors(tops, keys, caps=None):
    """A function f with the contract of :func:`factors`, f(group, keys,
    budget, caps), for groups of one r called in nondecreasing rank, that
    reads their factors off one walk of :func:`_tableau_levels`, the DP over
    standard multi-tableaux; polynomial in n like :func:`_rank_dp`.

    Inverse keys need g^-1, which has no suffix recurrence.  Color-by-color
    Robinson-Schensted (:func:`rsk.rs_correspondence`, whose pairs the walk
    counts) takes a lift g of G(r,p,n) to a pair (P, Q) of standard
    multi-tableaux of one multishape lambda, the color-c subword giving
    component c.  Q records the positions, so i < n is a descent of g in
    the color order iff i is in D of Q (:func:`_tableau_levels`), and with
    the telescoped suffix recurrences

        lambda_1 = r*|D| + c_1 - c_n + R_{r/s}(c_n),
        fmaj = r*sum(D) + sum_c c*|lambda^c| - n*c_n + n*R_{r/s}(c_n),

    col = sum_c R_{r/s}(c)*|lambda^c| and desA = |D|.  P, with component c
    moved to -c, is the Q of g^-1, whose records are read off it alike.  So
    the histogram is the sum over lambda with p | sum_c c*|lambda^c| of the
    histogram of g's keys over the Q of shape lambda times that of the
    inverse keys over the tableaux of shape -lambda (:func:`_inverse_shape`).
    Taking only the Q whose position n has a color below r/s takes each
    class of G(r,p,s,n) once, by its canonical lift.

    The walk takes neither p nor s: only the canonical filter and the test
    p | color sum, both applied to its states (:func:`_tableau_factors`),
    tell the groups of one r and n apart.  Its step at position i does not
    depend on n either.  So ``tops``, the groups of the top rank N
    (G(r,p,s,N) and its dual G(r,s,p,N), say), give one walk, and f serves
    their (p, s) at every rank n <= N, under these keys and at most these
    caps.

    ``caps`` (see :func:`distribution`) cut each side's histograms before
    their products, and prune the walk, which feeds both sides, with lower
    bounds of the records by |D| and sum(D), packed by
    :func:`series._layout` in fields sized by |D| <= N-1 and sum(D) <=
    N(N-1)/2.  A canonical Q has c_n < r/s, so lambda_1 >= r|D| and fmaj >=
    r*sum(D).  P reads every lift, where c_n - R_{r/s}(c_n) <= r - r/s, so
    lambda_1 >= r|D| - (r - r/s) and fmaj >= r*sum(D) - n(r - r/s).  Each
    side's caps bound |D| and sum(D) by a box, and a tableau is dropped
    once it passes the looser of the two boxes, field by field
    (:func:`_tableau_box`); a side without caps keeps every tableau.  The
    walk prunes by the loosest box of the tops, which holds every served
    group's box, since a box only grows with the rank and the caps; each
    group's histograms are then cut to its own caps.

    f refuses as factors does, in the same order, and checks the budget
    before it walks the group's level.  Any other call, or a rank below one
    already served, raises ValueError.  Unknown keys are refused at once,
    with tops or without; without tops there is no walk, and f is factors.
    """
    keys, tops = tuple(keys), list(tops)
    cuts = [_checked(group, keys, caps) for group in tops]
    if not tops:
        _checked(None, keys, None)  # the key refusals, which need no group
        return factors
    setup, top = _tableau_keys(keys), max(group.n for group in tops)
    boxes = [_tableau_box(group, *setup[:2], cut) for group, cut in zip(tops, cuts)]
    bounds, box = _tableau_bounds(top), tuple(map(max, zip(*boxes)))
    fields, bias, guard = _layout(box, bounds)
    step_d, sum_d, first = setup[-1]
    limit = (bias, guard) if box != bounds else None
    levels = _tableau_levels(tops[0].r, step_d, sum_d << fields[1][0], first, limit)
    level, states, served = 0, None, {(group.r, group.p, group.s) for group in tops}

    def ranked(group, keys_, budget=None, caps_=None):
        nonlocal level, states
        cut = _checked(group, tuple(keys_), caps_)
        within = all((caps_ or {}).get(key, cap + 1) <= cap for key, cap in (caps or {}).items())
        ours = tuple(keys_) == keys and (group.r, group.p, group.s) in served
        if not (within and ours and level <= group.n <= top):
            raise ValueError(f"{group} under caps {caps_} is past the walk to {tops} under {caps}")
        check_budget(group, budget)
        while level < group.n:
            states, level = next(levels), level + 1
        return _tableau_factors(group, setup, cut, states, fields)

    return ranked


def _flatten(keys, own, inverse, pairs) -> Counter:
    """The histogram of keys that the :func:`factors` (own, inverse, pairs)
    stand for."""
    if own == keys and len(pairs) == 1 and pairs[0][1] == {(): 1}:
        return Counter(pairs[0][0])  # the one pair of _rank_dp
    order, hist = _getter(keys, own + inverse), {}
    for left, right in pairs:
        for b, y in right.items():
            for a, x in left.items():
                key = order(a + b)
                hist[key] = hist.get(key, 0) + x * y
    return Counter(hist)


def distribution(group: GroupDescriptor, keys, budget: int | None = None, caps=None) -> Counter:
    """Histogram of the named statistics over the whole group.

    Maps each tuple of values of ``keys`` to the number of elements that
    take it.  ``keys`` are scalar :class:`StatRecord` fields from
    :data:`DISTRIBUTION_KEYS`, or ``ides``/``ifmaj``/``icol`` for des, fmaj
    and col of g^-1.  The result equals the histogram of
    :func:`stat_record` over :func:`enumerate_elements`, which stays the
    reference definition, but no element is built: it is the
    :func:`factors` of the keys, multiplied out, which
    :func:`ranked_factors` makes when the keys hold an inverse key and
    :func:`_rank_dp` otherwise.  The sign of |g| is read by
    :func:`signed_distribution`, and inv|g| of one element by
    :func:`stat_record`.

    ``caps`` maps some of the keys to the largest value compared; the
    histogram then holds only the tuples within every cap, which is the
    reference restricted to the caps.  Every key but ``colorClass`` takes
    a cap.  Each of them is read off fields that a DP
    step only adds to, so a DP state whose field has passed a cap makes no
    tuple within the caps, and the kernels drop it at once.  A cap at or
    above the bound of :func:`_largest` cuts nothing and is left out, and
    without caps the kernels check no state.  A caller that divides the
    histogram by factors 1 - M of nonnegative exponents loses nothing by
    the caps, since the division only moves terms upward.

    Raises ValueError for any other key, pairing or cap, and
    BudgetExceededError (before any work) when the group order exceeds the
    budget; for the DPs that order is a loose bound on the work.
    """
    keys = tuple(keys)
    return _flatten(keys, *factors(group, keys, budget, caps))


def signed_distribution(group: GroupDescriptor, keys, budget: int | None = None, caps=None) -> dict:
    """The sign-twisted histogram of the named statistics over the whole
    group: maps each tuple of values of ``keys`` to the sum of sign(|g|) =
    (-1)^inv|g| over the elements that take it, the tuples whose sum is 0
    left out.  It equals the sum of ``stat_record(g).signAbs`` over the
    elements of :func:`enumerate_elements` per tuple.

    :func:`_rank_dp` builds it with each placement at relative rank j
    weighing (-1)^j, in one run; no element is built.  ``keys``, ``budget``
    and ``caps`` are those of :func:`distribution`, with its refusals and
    budget check, and the keys hold no inverse key (ValueError).
    """
    keys = tuple(keys)
    caps = _checked(group, keys, caps)
    refused = [key for key in keys if key in INVERSE_KEYS]
    if refused:
        raise ValueError(f"the signed sums take no inverse key, got {', '.join(refused)}")
    check_budget(group, budget)
    _, _, pairs = _rank_dp(group, keys, caps, -1)
    return pairs[0][0] if pairs else {}


def fmaj_prime(g: ProjectiveElement) -> int:
    """The <'-flag major index r * sum(Des'_G(g)) + col(g), on G(r,n)."""
    prime_descents = des_set(g, PRIME)
    rec = stat_record(g)
    return g.group.r * sum(prime_descents) + rec.col


class BnDescentSplit(namedtuple("BnDescentSplit", "hdes0 hdes1 des_pm d0 nn neg")):
    """The four-part splitting of Des_G(g) for g in B_n, plus Neg and NN.

    Des_G(g)  = hdes0 | hdes1 | des_pm | ({0} iff d0)
    Des'_G(g) = hdes0 | (nn - hdes1) | des_pm | ({0} iff d0)
    """

    __slots__ = ()
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
