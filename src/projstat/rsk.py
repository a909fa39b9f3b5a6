"""Color-by-color Robinson-Schensted correspondence for G(r,p,s,n).

The window of the canonical lift of g splits into r subwords, one per
color.  Row insertion of the values of the color-c subword (recording
its window positions) gives component c of a pair (P, Q) of standard
multi-tableaux of one multishape: P holds the values, Q the positions.
B_n is the case r = 2, with bitableaux ((P0, P1), (Q0, Q1)).  Only on B_n,
the transpose map rebuilds an element from ((P0, P1'), (Q0, Q1')); it
preserves the colored positions and swaps descent data between the two
orders on colored integers.

Tableaux are tuples of row tuples, rows and columns strictly increasing.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .groups import ColoredPermutation, ProjectiveElement, canonicalize
from .stats import ScopeError

Tableau = tuple[tuple[int, ...], ...]


class ShapeMismatchError(ValueError):
    """The pieces of a bitableau pair do not fit together."""


def _insert(rows: list[list[int]], positions: list[list[int]], value: int, pos: int):
    """Schensted row insertion of value, recording pos at the new cell."""
    x = value
    for i, row in enumerate(rows):
        j = bisect_right(row, x)
        if j == len(row):
            row.append(x)
            positions[i].append(pos)
            return
        row[j], x = x, row[j]
    rows.append([x])
    positions.append([pos])


def _freeze(rows: list[list[int]]) -> Tableau:
    return tuple(tuple(row) for row in rows)


def shape(t: Tableau) -> tuple[int, ...]:
    return tuple(len(row) for row in t)


def content(t: Tableau) -> set[int]:
    return {x for row in t for x in row}


def transpose(t: Tableau) -> Tableau:
    if not t:
        return ()
    return tuple(
        tuple(row[j] for row in t if j < len(row)) for j in range(len(t[0]))
    )


def is_standard(t: Tableau) -> bool:
    for row in t:
        if any(a >= b for a, b in zip(row, row[1:])):
            return False
    for upper, lower in zip(t, t[1:]):
        if len(lower) > len(upper):
            return False
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            return False
    return True


def tableau_descents(t: Tableau) -> set[int]:
    """{i : i and i+1 both in t, with i strictly above i+1}."""
    row_of = {x: i for i, row in enumerate(t) for x in row}
    return {i for i in row_of if i + 1 in row_of and row_of[i] < row_of[i + 1]}


def rs_correspondence(g: ProjectiveElement) -> tuple[tuple[Tableau, ...], tuple[Tableau, ...]]:
    """(P, Q), each one tableau per color: component c inserts the values
    of the color-c subword of the canonical lift and records their
    positions."""
    p, q = [[] for _ in range(g.group.r)], [[] for _ in range(g.group.r)]
    for i, (v, c) in enumerate(zip(g.sigma, g.colors), start=1):
        _insert(p[c], q[c], v, i)
    return tuple(map(_freeze, p)), tuple(map(_freeze, q))


def _reverse_insertions(p: Tableau, q: Tableau) -> list[tuple[int, int]]:
    """Undo insertions; (position, value) pairs, in insertion order."""
    rows = [list(row) for row in p]
    labels = [list(row) for row in q]
    cells = sorted(
        ((labels[i][j], i) for i, row in enumerate(labels) for j in range(len(row))),
        reverse=True,
    )
    out = []
    for label, row_idx in cells:
        x = rows[row_idx].pop()
        labels[row_idx].pop()
        for i in range(row_idx - 1, -1, -1):
            row = rows[i]
            j = bisect_left(row, x) - 1
            row[j], x = x, row[j]
        out.append((label, x))
    out.reverse()
    return out


def rs_inverse(
    multitableaux: tuple[tuple[Tableau, ...], tuple[Tableau, ...]], group
) -> ProjectiveElement:
    """The element of ``group`` whose canonical lift maps to the given pair
    (P, Q) of r-tuples of tableaux, Q holding the positions 1..n of
    ``group``."""
    ps, qs = multitableaux
    if len(ps) != group.r or len(qs) != group.r:
        raise ShapeMismatchError(
            f"{group} needs {group.r} tableaux per side, got {len(ps)} and {len(qs)}"
        )
    cells = []
    for c, (p, q) in enumerate(zip(ps, qs)):
        if shape(p) != shape(q):
            raise ShapeMismatchError(f"shape(P{c})={shape(p)} differs from shape(Q{c})={shape(q)}")
        if not (is_standard(p) and is_standard(q)):
            raise ShapeMismatchError(f"pair {c} is not a pair of standard tableaux")
        cells += [(pos, value, c) for pos, value in _reverse_insertions(p, q)]
    cells.sort()
    if [pos for pos, _, _ in cells] != list(range(1, group.n + 1)):
        raise ShapeMismatchError("recording tableaux do not partition the positions")
    sigma = tuple(value for _, value, _ in cells)
    if sorted(sigma) != list(range(1, group.n + 1)):
        raise ShapeMismatchError("insertion tableaux do not partition the values")
    return canonicalize(ColoredPermutation(sigma, tuple(c for _, _, c in cells)), group)


def rs_transpose_map(g: ProjectiveElement) -> ProjectiveElement:
    """g -> the element of B_n with bitableaux ((P0, P1'), (Q0, Q1'))."""
    group = g.group
    if group.r != 2 or group.p != 1 or group.s != 1:
        raise ScopeError(f"Robinson-Schensted here is for B_n only, not {group}")
    (p0, p1), (q0, q1) = rs_correspondence(g)
    return rs_inverse(((p0, transpose(p1)), (q0, transpose(q1))), group)
