"""The projective reflection groups G(r,p,s,n) as colored permutations.

A colored permutation is a permutation sigma of [n] together with a color
c_i in [0, r-1] attached to each window position, written
[sigma(1)^c_1, ..., sigma(n)^c_n].  The wreath product G(r,n) consists of
all of them; G(r,p,n) is the subgroup with color sum divisible by p, and
G(r,p,s,n) = G(r,p,n)/C_s is the quotient by the scalar subgroup generated
by the colored identity with all colors r/s.  The quotient exists when
p | r, s | r and ps | rn, and has order r^n * n! / (p*s).

Each class of G(r,p,s,n) has exactly s lifts in G(r,p,n), differing by a
global color shift of j*r/s.  We store the unique lift whose last color
satisfies c_n < r/s, which makes equality testing a plain tuple comparison.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import namedtuple

DEFAULT_BUDGET = 10**6
BUDGET_ENV_VAR = "PROJSTAT_BUDGET"


class DivisibilityError(ValueError):
    """The parameters (r,p,s,n) do not define a group."""


class GroupMismatchError(ValueError):
    """Operands belong to different groups."""


class MembershipError(ValueError):
    """A colored permutation is not an element of the stated group."""


class BudgetExceededError(RuntimeError):
    """Enumeration refused: the group order (or another count of the items
    to enumerate, or a lower bound of it) exceeds the configured budget."""

    def __init__(self, order: int, budget: int, what: str = "group order"):
        super().__init__(f"{what} {_decimal(order)} exceeds enumeration budget {budget}")
        self.order = order
        self.budget = budget


def _decimal(n: int) -> str:
    """n in decimal, or "at least 10^k" (k as large as it goes) past 1000
    digits: str() of an int refuses more than 4300 digits."""
    if n < 10**1000:
        return str(n)
    # log10(2) > 0.301029995, so 10^k <= 2^(bits - 1) <= n, and k falls
    # short of log10(n) by under 2 while bits < 10^9
    k = (n.bit_length() - 1) * 301029995 // 10**9
    while 10 ** (k + 1) <= n:
        k += 1
    return f"at least 10^{k}"


class ParseError(ValueError):
    """Window-notation text does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RangeError(ValueError):
    """A value or color in window notation is out of range."""


def residue(x: int, m: int) -> int:
    """The residue of x modulo m, in [0, m-1], defined for all integers x."""
    return x % m


class GroupDescriptor(namedtuple("GroupDescriptor", "r p s n")):
    """Parameters of G(r,p,s,n).  Use :func:`make_group` to validate."""

    __slots__ = ()
    r: int
    p: int
    s: int
    n: int

    @property
    def order(self) -> int:
        return self.r**self.n * math.factorial(self.n) // (self.p * self.s)

    def __str__(self) -> str:
        return f"G({self.r},{self.p},{self.s},{self.n})"


def make_group(r: int, p: int, s: int, n: int) -> GroupDescriptor:
    """Validated descriptor of G(r,p,s,n).

    The quotient exists precisely when p | r, s | r and ps | rn; the error
    message identifies the failing condition.
    """
    for name, value in (("r", r), ("p", p), ("s", s), ("n", n)):
        if not isinstance(value, int) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if r % p:
        raise DivisibilityError(f"p={p} does not divide r={r}")
    if r % s:
        raise DivisibilityError(f"s={s} does not divide r={r}")
    if (r * n) % (p * s):
        raise DivisibilityError(f"ps={p * s} does not divide rn={r * n}")
    return GroupDescriptor(r, p, s, n)


class ColoredPermutation(namedtuple("ColoredPermutation", "sigma colors")):
    """A lift: one-line permutation of [n] plus one color per position."""

    __slots__ = ()
    sigma: tuple[int, ...]
    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.sigma)


class ProjectiveElement(namedtuple("ProjectiveElement", "group lift")):
    """An element of G(r,p,s,n), stored as its canonical lift (c_n < r/s)."""

    __slots__ = ()
    group: GroupDescriptor
    lift: ColoredPermutation

    @property
    def sigma(self) -> tuple[int, ...]:
        return self.lift.sigma

    @property
    def colors(self) -> tuple[int, ...]:
        return self.lift.colors

    def __str__(self) -> str:
        return format_window(self)


def canonicalize(lift: ColoredPermutation, group: GroupDescriptor) -> ProjectiveElement:
    """The class of a lift, represented by its color-shifted canonical lift.

    Two lifts differing by a global shift of j*r/s canonicalize identically.
    Raises MembershipError when the color sum is not divisible by p.
    """
    n = group.n
    if len(lift.sigma) != n or len(lift.colors) != n:
        raise RangeError(f"window length {len(lift.sigma)} does not match n={n}")
    if sorted(lift.sigma) != list(range(1, n + 1)):
        raise MembershipError(f"{lift.sigma} is not a permutation of [{n}]")
    if any(not 0 <= c < group.r for c in lift.colors):
        raise RangeError(f"colors {lift.colors} not all in [0, {group.r - 1}]")
    if sum(lift.colors) % group.p:
        raise MembershipError(
            f"color sum {sum(lift.colors)} is not divisible by p={group.p}"
        )
    rs = group.r // group.s
    shift = (-(lift.colors[-1] // rs)) % group.s * rs
    if shift:
        lift = ColoredPermutation(
            lift.sigma, tuple((c + shift) % group.r for c in lift.colors)
        )
    return ProjectiveElement(group, lift)


def identity(group: GroupDescriptor) -> ProjectiveElement:
    n = group.n
    return ProjectiveElement(
        group, ColoredPermutation(tuple(range(1, n + 1)), (0,) * n)
    )


def multiply(a: ProjectiveElement, b: ProjectiveElement) -> ProjectiveElement:
    """Group product, computed on lifts and re-canonicalized.

    On lifts (d;tau)(c;sigma) = (R_r(c_1 + d_sigma(1)), ...; tau o sigma);
    the class of the result does not depend on the lifts chosen.
    """
    if a.group != b.group:
        raise GroupMismatchError(f"cannot multiply {a.group} by {b.group}")
    r = a.group.r
    tau, d = a.sigma, a.colors
    sigma, c = b.sigma, b.colors
    prod_sigma = tuple(tau[v - 1] for v in sigma)
    prod_colors = tuple((ci + d[v - 1]) % r for ci, v in zip(c, sigma))
    return canonicalize(ColoredPermutation(prod_sigma, prod_colors), a.group)


def inverse(g: ProjectiveElement) -> ProjectiveElement:
    """Group inverse: |g^-1| = |g|^-1 and c_i(g^-1) = R_r(-c_{|g|^-1(i)})."""
    r = g.group.r
    n = g.group.n
    inv_sigma = [0] * n
    for i, v in enumerate(g.sigma):
        inv_sigma[v - 1] = i + 1
    inv_colors = tuple((-g.colors[inv_sigma[i] - 1]) % r for i in range(n))
    return canonicalize(ColoredPermutation(tuple(inv_sigma), inv_colors), g.group)


def lifts(g: ProjectiveElement) -> list[ColoredPermutation]:
    """The s lifts of g in G(r,p,n), obtained by shifting all colors by j*r/s."""
    r, s = g.group.r, g.group.s
    rs = r // s
    return [
        ColoredPermutation(g.sigma, tuple((c + j * rs) % r for c in g.colors))
        for j in range(s)
    ]


def ascii_digits(text: str) -> bool:
    """Whether text is one or more ASCII digits; int() also reads "1_0",
    "+1", " 1" and non-ASCII digits."""
    return text.isascii() and text.isdigit()


def parse_int(text: str) -> int:
    """An optional '-' and ASCII digits (:func:`ascii_digits`)."""
    if not ascii_digits(text[1:] if text.startswith("-") else text):
        raise ValueError(f"expected an integer in ASCII digits, got {text!r}")
    return int(text)


def enumeration_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        return parse_int(raw)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


def check_budget(group: GroupDescriptor, budget: int | None = None) -> None:
    """Refuse a group whose order exceeds the budget (default: the
    ``PROJSTAT_BUDGET`` environment variable, else 10^6); a rank with n! past
    the budget is refused by that lower bound, without computing the order."""
    if budget is None:
        budget = enumeration_budget()
    bound = 1
    for i in range(2, group.n + 1):
        bound *= i
        if bound > budget:
            raise BudgetExceededError(bound, budget, f"{group}: group order at least")
    if group.order > budget:
        raise BudgetExceededError(group.order, budget, f"{group}: group order")


def enumerate_elements(group: GroupDescriptor, budget: int | None = None):
    """Yield every element of the group exactly once, as its canonical lift.

    The order is lexicographic by the one-line form of sigma and then by the
    color vector, so output is stable across runs.
    """
    check_budget(group, budget)
    r, p, n, rs = group.r, group.p, group.n, group.r // group.s
    for sigma in itertools.permutations(range(1, n + 1)):
        for prefix in itertools.product(range(r), repeat=n - 1):
            sp = sum(prefix)
            for cn in range(rs):
                if (sp + cn) % p == 0:
                    yield ProjectiveElement(group, ColoredPermutation(sigma, prefix + (cn,)))


def parse_group(text: str) -> GroupDescriptor:
    """Parse the textual descriptor form ``G(r,p,s,n)``."""
    stripped = text.strip()
    if not (stripped.startswith("G(") and stripped.endswith(")")):
        raise ParseError("expected group descriptor G(r,p,s,n)", 0)
    body = [part.strip() for part in stripped[2:-1].split(",")]
    if len(body) != 4:
        raise ParseError("expected four comma-separated parameters", 2)
    try:
        if not all(map(ascii_digits, body)):
            raise ValueError
        r, p, s, n = (int(part) for part in body)  # ValueError past 4300 digits
    except ValueError:
        raise ParseError(f"non-integer group parameter in {stripped!r}", 2) from None
    return make_group(r, p, s, n)


def parse_window(text: str, group: GroupDescriptor) -> ProjectiveElement:
    """Parse window notation like ``[2^2,7^3,6^3,4^5,8^1,1^1,5^3,3^2]``.

    ``-k`` is accepted as an alias for ``k^1`` when r = 2.  The result is
    canonicalized, so ``parse(format(g)) == g``.
    """
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(text) and text[i].isspace():
            i += 1

    def expect(ch: str):
        nonlocal i
        skip_ws()
        if i >= len(text) or text[i] != ch:
            raise ParseError(f"expected {ch!r}", i)
        i += 1

    def read_int() -> int:
        nonlocal i
        skip_ws()
        start = i
        while i < len(text) and "0" <= text[i] <= "9":
            i += 1
        if i == start:
            raise ParseError("expected an integer", start)
        try:
            return int(text[start:i])
        except ValueError:  # more digits than int() converts
            raise RangeError(f"integer at position {start} is out of range") from None

    expect("[")
    values: list[int] = []
    colors: list[int] = []
    while True:
        skip_ws()
        negative = False
        if i < len(text) and text[i] == "-":
            if group.r != 2:
                raise ParseError("negative shorthand requires r=2", i)
            negative = True
            i += 1
        value = read_int()
        color = 1 if negative else 0
        skip_ws()
        if not negative and i < len(text) and text[i] == "^":
            i += 1
            color = read_int()
            if group.r == 1:
                raise RangeError(f"{group} takes no color markers in {text!r}")
            if color == 0:
                raise RangeError(f"color 0 is written without a marker in {text!r}")
            if color > group.r - 1:
                raise RangeError(
                    f"color {color} out of range [1, {group.r - 1}] in {text!r}"
                )
        if not 1 <= value <= group.n:
            raise RangeError(f"value {value} out of range [1, {group.n}] in {text!r}")
        values.append(value)
        colors.append(color)
        skip_ws()
        if i < len(text) and text[i] == ",":
            i += 1
            continue
        break
    expect("]")
    skip_ws()
    if i != len(text):
        raise ParseError("trailing characters after window", i)
    if len(values) != group.n:
        raise ParseError(f"expected {group.n} entries, found {len(values)}", 0)
    if sorted(values) != list(range(1, group.n + 1)):
        raise ParseError(f"entries are not a permutation of [{group.n}]", 0)
    return canonicalize(ColoredPermutation(tuple(values), tuple(colors)), group)


def format_window(g: ProjectiveElement) -> str:
    """Window notation of the canonical lift (ASCII, ``^`` color markers)."""
    items = [
        f"{v}^{c}" if c else str(v) for v, c in zip(g.sigma, g.colors)
    ]
    return "[" + ",".join(items) + "]"
