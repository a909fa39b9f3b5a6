"""Sparse truncated multivariate series over big integers or cyclotomic integers.

A :class:`TruncatedSeries` stores a sparse map from exponent vectors to
coefficients, together with per-variable caps.  The caps are the valid
region: exponents beyond a cap are dropped, and every coefficient within
the caps is that of the underlying formal series.  A sum or product is
truncated to the componentwise minimum of its operands' caps, which keeps
that promise for series in nonnegative exponents: every product
contribution to an exponent within the minimum comes from operand terms
within their own caps.

Coefficients may be Python integers or :class:`~projstat.cyclotomic.CycInt`
values (which combine freely with integers but not across conductors).
"""

from __future__ import annotations

from typing import Mapping


class NonMonomialBaseError(ValueError):
    """The operation needs a single-term (scaled monomial) series."""


class ConstantTermError(ValueError):
    """Geometric inversion needs a monomial without constant term."""


class RegionError(ValueError):
    """A comparison region exceeds the valid region of an operand."""


class TruncatedSeries:
    __slots__ = ("vars", "caps", "terms")

    def __init__(self, vars: tuple[str, ...], caps, terms=None):
        self.vars = tuple(vars)
        self.caps = self._cap_tuple(caps)
        self.terms = {}
        if terms:
            for exps, coeff in terms.items():
                self._accumulate(exps, coeff)
        self._prune()

    def _cap_tuple(self, caps) -> tuple[int, ...]:
        if isinstance(caps, Mapping):
            missing = [v for v in self.vars if v not in caps]
            if missing:
                raise ValueError(f"missing caps for variables {missing}")
            return tuple(caps[v] for v in self.vars)
        return tuple(caps)

    def _accumulate(self, exps: tuple[int, ...], coeff) -> None:
        """Add coeff at exps unless an exponent exceeds its cap."""
        if any(e > c for e, c in zip(exps, self.caps)):
            return
        if exps in self.terms:
            self.terms[exps] = self.terms[exps] + coeff
        else:
            self.terms[exps] = coeff

    def _prune(self):
        for exps in [e for e, c in self.terms.items() if not c]:
            del self.terms[exps]

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, caps) -> "TruncatedSeries":
        return cls(vars, caps)

    @classmethod
    def one(cls, vars, caps) -> "TruncatedSeries":
        return cls.monomial(vars, caps, {})

    @classmethod
    def monomial(cls, vars, caps, exps: Mapping[str, int], coeff=1) -> "TruncatedSeries":
        """coeff times the monomial; zero when an exponent exceeds its cap."""
        out = cls(vars, caps)
        out._accumulate(out.exp_vector(exps), coeff)
        out._prune()
        return out

    def exp_vector(self, exps: Mapping[str, int]) -> tuple[int, ...]:
        unknown = [v for v in exps if v not in self.vars]
        if unknown:
            raise ValueError(f"unknown variables {unknown}; have {self.vars}")
        return tuple(exps.get(v, 0) for v in self.vars)

    def _common_caps(self, other) -> tuple[int, ...]:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")
        return tuple(min(a, b) for a, b in zip(self.caps, other.caps))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        out = TruncatedSeries(self.vars, self._common_caps(other))
        for series in (self, other):
            for exps, coeff in series.terms.items():
                out._accumulate(exps, coeff)
        out._prune()
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        caps = self._common_caps(other)
        out = TruncatedSeries(self.vars, caps)
        small, large = (self, other) if len(self.terms) <= len(other.terms) else (other, self)
        acc = out.terms
        for e1, c1 in small.terms.items():
            for e2, c2 in large.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                if any(e > c for e, c in zip(exps, caps)):
                    continue
                if exps in acc:
                    acc[exps] = acc[exps] + c1 * c2
                else:
                    acc[exps] = c1 * c2
        out._prune()
        return out

    def scale(self, scalar) -> "TruncatedSeries":
        out = TruncatedSeries(self.vars, self.caps)
        if scalar:
            out.terms = {e: scalar * c for e, c in self.terms.items()}
            out._prune()
        return out

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        out = TruncatedSeries.one(self.vars, self.caps)
        for _ in range(e):
            out = out * self
        return out

    def coefficient(self, exps: Mapping[str, int]):
        return self.terms.get(self.exp_vector(exps), 0)

    def collapse_var(self, var: str) -> "TruncatedSeries":
        """Set one variable to 1, summing coefficients over its exponent.

        Only sound when no term was ever discarded for an exponent of ``var``
        inside the remaining region; the caller is responsible for that (in
        every use here the collapsed variable's degree is dominated by
        another variable's).
        """
        idx = self.vars.index(var)
        new_vars = self.vars[:idx] + self.vars[idx + 1 :]
        drop = lambda t: t[:idx] + t[idx + 1 :]
        out = TruncatedSeries(new_vars, drop(self.caps))
        for exps, coeff in self.terms.items():
            out._accumulate(drop(exps), coeff)
        out._prune()
        return out

    # -- component extraction and closed forms ------------------------------

    def extract_multiples(self, divisors: Mapping[str, int]) -> "TruncatedSeries":
        """Keep only terms whose exponent in each listed variable is divisible
        by the given modulus (the component extraction {F}_M)."""
        idx = [(self.vars.index(v), d) for v, d in divisors.items() if d > 1]
        out = TruncatedSeries(self.vars, self.caps)
        out.terms = {
            exps: coeff
            for exps, coeff in self.terms.items()
            if all(exps[i] % d == 0 for i, d in idx)
        }
        return out

    def _single_term(self) -> tuple[tuple[int, ...], object]:
        if len(self.terms) != 1:
            raise NonMonomialBaseError(
                f"expected a single-term series, found {len(self.terms)} terms"
            )
        return next(iter(self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in graded-lexicographic order (total degree, then exponents)."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __str__(self):
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
            ]
            coeff_str = str(coeff) if isinstance(coeff, int) else f"({coeff})"
            parts.append("*".join([coeff_str] + factors))
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"TruncatedSeries({self.vars}, caps={self.caps}, {self})"

    def to_json(self) -> list[dict]:
        return [
            {
                "exps": {v: e for v, e in zip(self.vars, exps) if e},
                "coef": coeff if isinstance(coeff, int) else str(coeff),
            }
            for exps, coeff in self.sorted_terms()
        ]


def q_bracket(n: int, base: TruncatedSeries) -> TruncatedSeries:
    """The bracket 1 + base + ... + base^(n-1) for a scaled monomial base.

    A base truncated to zero gives 1 (0 when n = 0).  The powers stop at
    the first one past the caps: exponents only grow from there.
    """
    if n < 0:
        raise ValueError(f"bracket length must be >= 0, got {n}")
    if not base.terms:
        return TruncatedSeries.monomial(base.vars, base.caps, {}, min(n, 1))
    exps, coeff = base._single_term()
    out = TruncatedSeries(base.vars, base.caps)
    cur_exp = (0,) * len(base.vars)
    cur_coeff = 1
    for _ in range(n):
        if any(e > c for e, c in zip(cur_exp, out.caps)):
            break
        out._accumulate(cur_exp, cur_coeff)
        cur_exp = tuple(a + b for a, b in zip(cur_exp, exps))
        cur_coeff = cur_coeff * coeff
    out._prune()
    return out


def geom_inverse(monomial: TruncatedSeries) -> TruncatedSeries:
    """The truncated expansion of 1/(1 - M) for a scaled monomial M.

    Exact within the caps: (1 - M) * geom_inverse(M) == 1 there.  An M
    truncated to zero gives 1.
    """
    out = TruncatedSeries.one(monomial.vars, monomial.caps)
    if not monomial.terms:
        return out
    exps, coeff = monomial._single_term()
    if not any(exps):
        raise ConstantTermError("cannot invert 1 - M when M has a constant term")
    cur_exp, cur_coeff = exps, coeff
    while not any(e > c for e, c in zip(cur_exp, out.caps)):
        out._accumulate(cur_exp, cur_coeff)
        cur_exp = tuple(a + b for a, b in zip(cur_exp, exps))
        cur_coeff = cur_coeff * coeff
    out._prune()
    return out


def equal_on(
    lhs: TruncatedSeries,
    rhs: TruncatedSeries,
    region: Mapping[str, int] | None = None,
) -> tuple[bool, tuple[dict, object, object] | None]:
    """Compare coefficients on a region; (ok, first mismatch in graded-lex order).

    The default region is the componentwise minimum of both sides' caps.
    An explicit region beyond that raises RegionError.
    """
    shared = lhs._common_caps(rhs)
    bounds = shared
    if region is not None:
        bounds = tuple(region.get(v, s) for v, s in zip(lhs.vars, shared))
        for v, want, have in zip(lhs.vars, bounds, shared):
            if want > have:
                raise RegionError(
                    f"requested region {v} <= {want} exceeds valid region {v} <= {have}"
                )
    keys = set()
    for series in (lhs, rhs):
        keys.update(
            e for e in series.terms if all(x <= b for x, b in zip(e, bounds))
        )
    for exps in sorted(keys, key=lambda e: (sum(e), e)):
        a = lhs.terms.get(exps, 0)
        b = rhs.terms.get(exps, 0)
        if a != b:
            mono = {v: e for v, e in zip(lhs.vars, exps) if e}
            return False, (mono, a, b)
    return True, None
