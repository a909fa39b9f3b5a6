"""Exact arithmetic in the cyclotomic integer ring Z[zeta_r].

Elements are stored as coordinate vectors in the power basis
1, zeta, ..., zeta^(phi(r)-1), reduced modulo the r-th cyclotomic
polynomial.  Because the cyclotomic polynomial is the minimal polynomial
of zeta_r, two elements are equal exactly when their coordinate vectors
are, so equality testing needs no further normalization.  Coefficients
are plain Python integers and therefore unbounded.
"""

from __future__ import annotations

from functools import lru_cache


class ConductorMismatchError(ValueError):
    """Raised when combining cyclotomic integers over different conductors."""


@lru_cache(maxsize=None)
def cyclotomic_poly(r: int) -> tuple[int, ...]:
    """Coefficients (constant term first, monic) of the r-th cyclotomic polynomial.

    Computed by exact integer division of x^r - 1 by the product of the
    cyclotomic polynomials of all proper divisors of r.
    """
    if r < 1:
        raise ValueError(f"conductor must be a positive integer, got {r}")
    if r == 1:
        return (-1, 1)
    num = [0] * (r + 1)
    num[0], num[r] = -1, 1
    for d in range(1, r):
        if r % d == 0:
            num = _divexact(num, cyclotomic_poly(d))
    return tuple(num)


def _divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials; den must be monic."""
    num = list(num)
    dd = len(den) - 1
    quot = [0] * (len(num) - dd)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dd]
        if c:
            quot[i] = c
            for j, dj in enumerate(den):
                num[i + j] -= c * dj
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def _phi(r: int) -> int:
    return len(cyclotomic_poly(r)) - 1


def _reduce(coeffs: list[int], r: int) -> list[int]:
    """Reduce a coefficient list modulo the r-th cyclotomic polynomial."""
    phi = _phi(r)
    if len(coeffs) <= phi:
        return coeffs + [0] * (phi - len(coeffs))
    mod = cyclotomic_poly(r)
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, phi - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(phi):
                coeffs[i - phi + j] -= c * mod[j]
    return coeffs[:phi]


class CycInt:
    """An element of Z[zeta_r], kept reduced modulo the cyclotomic polynomial."""

    __slots__ = ("r", "coeffs")

    def __init__(self, r: int, coeffs=(0,)):
        self.r = r
        self.coeffs = tuple(_reduce(list(coeffs), r))

    @classmethod
    def from_int(cls, r: int, a: int) -> "CycInt":
        return cls(r, (a,))

    def _coerce(self, other) -> "CycInt":
        if isinstance(other, CycInt):
            if other.r != self.r:
                raise ConductorMismatchError(
                    f"conductor mismatch: {self.r} vs {other.r}"
                )
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.r, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.r, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycInt(self.r, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return CycInt(self.r, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return CycInt(self.r, tuple(a * other for a in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return CycInt(self.r, prod)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined in Z[zeta_r]")
        out = CycInt.from_int(self.r, 1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __bool__(self):
        return any(self.coeffs)

    def __hash__(self):
        return hash((self.r, self.coeffs))

    def __repr__(self):
        return f"CycInt({self.r}, {self.coeffs})"

    def __str__(self):
        parts = []
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            if i == 0:
                parts.append(str(a))
            elif i == 1:
                parts.append(f"{a}*z")
            else:
                parts.append(f"{a}*z^{i}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} @{self.r}"


@lru_cache(maxsize=None)
def zeta_pow(r: int, e: int) -> CycInt:
    """zeta_r^e as a reduced cyclotomic integer (e may be any integer)."""
    e = e % r
    return CycInt(r, (0,) * e + (1,))
