"""Sparse truncated multivariate series over big integers or cyclotomic integers.

A :class:`TruncatedSeries` stores a sparse map from exponent vectors to
coefficients, together with per-variable caps.  The caps are the valid
region: exponents beyond a cap are dropped, and every coefficient within
the caps is that of the underlying formal series.  A sum, a product, a
division by 1 - M and a comparison take two series in the same variables
under the same caps, and raise ValueError otherwise; the result keeps the
caps.  That keeps the promise for series in nonnegative exponents: every
product contribution to an exponent within the caps comes from operand
terms within them.

Each exponent vector is packed into one ``int`` with a guard bit per
variable (the packed monomials of Monagan & Pearce, ISSAC 2009), so the cap
check of a product term is one addition and one mask.  Exponent tuples
appear only at the edges, :attr:`~TruncatedSeries.exp_terms` among them.

Coefficients may be Python integers or :class:`~projstat.cyclotomic.CycInt`
values (which combine freely with integers but not across conductors).
"""

from __future__ import annotations

import functools
from collections.abc import Mapping
from types import MappingProxyType


class NonMonomialBaseError(ValueError):
    """The operation needs a single-term (scaled monomial) series."""


class ConstantTermError(ValueError):
    """Geometric inversion needs a monomial without constant term."""


class RegionError(ValueError):
    """The caps leave nothing to compare."""


@functools.lru_cache
def _layout(
    caps: tuple[int, ...], bounds: tuple[int, ...] | None = None
) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """The (shift, mask) field of each variable, BIAS and GUARD under caps.

    Field i holds the values up to bounds[i] (caps[i] by default) in
    bounds[i].bit_length() bits, with a guard bit above them, and BIAS lifts
    each cap, taken at most its bound, to just below its guard.  A sum k of
    packed vectors that stays within the bounds, or of two within the caps,
    carries into no other field, and lies within the caps iff
    (k + BIAS) & GUARD == 0.
    """
    fields, bias, guard, shift = [], 0, 0, 0
    for cap, bound in zip(caps, bounds or caps):
        bits = bound.bit_length()
        fields.append((shift, (2 << bits) - 1))
        bias += ((1 << bits) - 1 - min(cap, bound)) << shift
        guard += 1 << (shift + bits)
        shift += bits + 1
    return tuple(fields), bias, guard


def _unpack(fields, key: int) -> tuple[int, ...]:
    return tuple((key >> shift) & mask for shift, mask in fields)


class TruncatedSeries:
    __slots__ = ("vars", "caps", "terms")

    def __init__(self, vars: tuple[str, ...], caps, terms=None):
        self.vars = tuple(vars)
        self.caps = self._cap_tuple(caps)
        self.terms = {}  # packed exponent vector -> nonzero coefficient
        for exps, coeff in (terms or {}).items():
            key = self._pack(exps)
            if key is not None and coeff:
                self.terms[key] = coeff

    def _cap_tuple(self, caps) -> tuple[int, ...]:
        if isinstance(caps, Mapping):
            missing = [v for v in self.vars if v not in caps]
            if missing:
                raise ValueError(f"missing caps for variables {missing}")
            caps = [caps[v] for v in self.vars]
        caps = tuple(caps)
        if len(caps) != len(self.vars) or min(caps, default=0) < 0:
            raise ValueError(f"need one nonnegative cap per variable {self.vars}, got {caps}")
        return caps

    def _pack(self, exps) -> int | None:
        """The packed key of an exponent tuple; None when beyond the caps.
        A negative exponent would borrow across fields, so it raises, also
        after an exponent beyond its cap."""
        if len(exps) != len(self.caps):
            raise ValueError(f"need {len(self.caps)} nonnegative exponents, got {exps}")
        key, inside = 0, True
        for e, cap, (shift, _) in zip(exps, self.caps, _layout(self.caps)[0]):
            if e > cap:
                inside = False
            elif e < 0:
                raise ValueError(f"need {len(self.caps)} nonnegative exponents, got {exps}")
            key += e << shift
        return key if inside else None

    def _with(self, terms: dict) -> "TruncatedSeries":
        """A series in self's variables and caps with these packed terms,
        zeros removed."""
        if not all(terms.values()):
            for key in [k for k, c in terms.items() if not c]:
                del terms[key]
        out = object.__new__(TruncatedSeries)
        out.vars, out.caps, out.terms = self.vars, self.caps, terms
        return out

    @property
    def exp_terms(self) -> Mapping[tuple[int, ...], object]:
        """A read-only view of the terms keyed by exponent tuples, built on
        each access."""
        fields = _layout(self.caps)[0]
        return MappingProxyType({_unpack(fields, k): c for k, c in self.terms.items()})

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
        key = out._pack(out.exp_vector(exps))
        if key is not None and coeff:
            out.terms[key] = coeff
        return out

    def exp_vector(self, exps: Mapping[str, int]) -> tuple[int, ...]:
        if exps.keys() - self.vars:
            unknown = [v for v in exps if v not in self.vars]
            raise ValueError(f"unknown variables {unknown}; have {self.vars}")
        return tuple([exps.get(v, 0) for v in self.vars])

    def _check_same(self, other) -> None:
        """Raise ValueError unless other has self's variables and caps."""
        if self.vars != other.vars or self.caps != other.caps:
            raise ValueError(
                f"series differ: {self.vars} under caps {self.caps}"
                f" vs {other.vars} under caps {other.caps}"
            )

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            acc[key] = acc[key] + coeff if key in acc else coeff
        return self._with(acc)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_same(other)
        _, bias, guard = _layout(self.caps)
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        large = list(large.items())
        acc = {}
        for k1, c1 in small.items():
            biased = k1 + bias
            for k2, c2 in large:
                if (biased + k2) & guard:
                    continue
                key = k1 + k2
                if key in acc:
                    acc[key] = acc[key] + c1 * c2
                else:
                    acc[key] = c1 * c2
        return self._with(acc)

    def scale(self, scalar) -> "TruncatedSeries":
        terms = {k: scalar * c for k, c in self.terms.items()} if scalar else {}
        return self._with(terms)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not supported")
        # e - 1 products; series are not changed in place, so self ** 1 is self
        out = self if e else TruncatedSeries.one(self.vars, self.caps)
        for _ in range(e - 1):
            out = out * self
        return out

    def coefficient(self, exps: Mapping[str, int]):
        key = self._pack(self.exp_vector(exps))
        return 0 if key is None else self.terms.get(key, 0)

    def collapse_var(self, var: str, *, under: str) -> "TruncatedSeries":
        """Set ``var`` to 1, summing coefficients over its exponent.

        Sound when ``var``'s exponent never exceeds ``under``'s: a term within
        the remaining caps then has var <= under <= cap(under) <= cap(var),
        so none was dropped.  Raises ValueError when cap(var) < cap(under)
        or a stored term has a larger exponent in ``var`` than in ``under``.
        """
        idx, top = self.vars.index(var), self.vars.index(under)
        if self.caps[idx] < self.caps[top]:
            raise ValueError(
                f"cap {var}<={self.caps[idx]} is below {under}<={self.caps[top]}"
            )
        drop = lambda t: t[:idx] + t[idx + 1 :]
        terms = {}
        for exps, coeff in self.exp_terms.items():
            if exps[idx] > exps[top]:
                raise ValueError(f"term {exps} in {self.vars} has {var} > {under}")
            terms[drop(exps)] = terms.get(drop(exps), 0) + coeff
        return TruncatedSeries(drop(self.vars), drop(self.caps), terms)

    # -- component extraction and closed forms ------------------------------

    def extract_multiples(self, divisors: Mapping[str, int]) -> "TruncatedSeries":
        """Keep only terms whose exponent in each listed variable is divisible
        by the given modulus (the component extraction {F}_M)."""
        fields = _layout(self.caps)[0]
        idx = [(fields[self.vars.index(v)], d) for v, d in divisors.items() if d > 1]
        if not idx:  # series are immutable
            return self
        terms = self.terms
        for (shift, mask), d in idx:  # one divisor at a time
            terms = {key: c for key, c in terms.items() if ((key >> shift) & mask) % d == 0}
        return self._with(terms)

    def _single_term(self) -> tuple[int, object]:
        if len(self.terms) != 1:
            raise NonMonomialBaseError(
                f"expected a single-term series, found {len(self.terms)} terms"
            )
        return next(iter(self.terms.items()))

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.vars == other.vars and self.caps == other.caps and self.terms == other.terms

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], object]]:
        """Terms in graded-lexicographic order (total degree, then exponents)."""
        return sorted(self.exp_terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

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
    step, coeff = base._single_term()
    _, bias, guard = _layout(base.caps)
    terms = {}
    key, power = 0, 1
    for _ in range(n):
        if (key + bias) & guard:
            break
        terms[key] = terms[key] + power if key in terms else power
        key, power = key + step, power * coeff
    return base._with(terms)


def packing(vars_, caps) -> tuple:
    """(pack, bias, guard, fields) of the packed layout under caps, for
    walking packed terms by hand: pack(exps) is the key of an exponent
    mapping (None past the caps), and a sum k of two keys within the caps
    lies within them iff (k + bias) & guard == 0.  A series' ``terms`` take
    such keys.  fields maps each variable to its (shift, mask): an exponent
    e within its cap packs as e << shift, and (key >> shift) & mask reads
    it back.

    pack raises ValueError, as a series does, for an unknown variable and
    for a negative exponent, also after an exponent past its cap.

    The layout is built once per variables and caps and then shared, so
    fields is a read-only mapping."""
    vars_ = tuple(vars_)
    try:
        caps = tuple(caps[v] for v in vars_) if isinstance(caps, Mapping) else tuple(caps)
    except KeyError:
        TruncatedSeries(vars_, caps)  # raises
    return _packing(vars_, caps)


@functools.lru_cache
def _packing(vars_: tuple, caps: tuple) -> tuple:
    template = TruncatedSeries(vars_, caps)
    fields, bias, guard = _layout(template.caps)
    where = {v: (shift, cap) for v, (shift, _), cap in zip(template.vars, fields, template.caps)}

    def pack(exps) -> int | None:
        key, inside = 0, True
        for v, e in exps.items():
            at = where.get(v)
            if at is None or e < 0:
                template._pack(template.exp_vector(exps))  # raises
            if e > at[1]:
                inside = False
            key += e << at[0]
        return key if inside else None

    return pack, bias, guard, MappingProxyType(dict(zip(template.vars, fields)))


def geom_inverse(monomial: TruncatedSeries) -> TruncatedSeries:
    """The truncated expansion of 1/(1 - M) for a scaled monomial M.

    Exact within the caps: (1 - M) * geom_inverse(M) == 1 there.  An M
    truncated to zero gives 1.
    """
    return geom_divide(TruncatedSeries.one(monomial.vars, monomial.caps), monomial)


def geom_divide(series: TruncatedSeries, monomial: TruncatedSeries) -> TruncatedSeries:
    """series / (1 - M) for a scaled monomial M = c m in the series'
    variables and caps: the product series * geom_inverse(M), without
    building the inverse (:func:`geom_divide_terms`)."""
    series._check_same(monomial)
    if not monomial.terms:  # M is truncated to zero
        return series._with(dict(series.terms))
    _, bias, guard = _layout(series.caps)
    return series._with(geom_divide_terms(series.terms, *monomial._single_term(), bias, guard))


def geom_divide_terms(terms: dict, step: int, c, bias: int, guard: int) -> dict:
    """The packed terms of F / (1 - c m), for F's packed terms and m packed
    as step, under the (bias, guard) of their layout (see :func:`packing`).

    The quotient is G[e] = sum over j of c^j F[e - jm]: each term of F is
    walked along its chain e + m, e + 2m, ... until the guard trips, with
    no multiply when c = 1.  Raises ConstantTermError when m = 1, whose
    chain would never leave the caps.
    """
    if not step:
        raise ConstantTermError("cannot invert 1 - M when M has a constant term")
    out = dict(terms)
    scaled = c != 1
    for key, coeff in terms.items():
        key += step
        while not (key + bias) & guard:
            if scaled:
                coeff = coeff * c
            out[key] = out[key] + coeff if key in out else coeff
            key += step
    return out


def agree_on(lhs: TruncatedSeries, rhs: TruncatedSeries) -> bool:
    """The verdict of :func:`equal_on` alone, with its refusal of series in
    other variables or caps: no first mismatch is looked for."""
    lhs._check_same(rhs)
    return lhs.terms == rhs.terms


def equal_on(
    lhs: TruncatedSeries, rhs: TruncatedSeries
) -> tuple[bool, tuple[dict, object, object] | None]:
    """Compare two series in the same variables and caps coefficient by
    coefficient, within the caps; (ok, first mismatch in graded-lex order)."""
    lhs._check_same(rhs)
    a, b = lhs.terms, rhs.terms
    if a == b:
        return True, None
    fields = _layout(lhs.caps)[0]
    differ = {
        _unpack(fields, k): k for k in a.keys() | b.keys() if a.get(k, 0) != b.get(k, 0)
    }
    exps = min(differ, key=lambda e: (sum(e), e))
    mono = {v: e for v, e in zip(lhs.vars, exps) if e}
    return False, (mono, a.get(differ[exps], 0), b.get(differ[exps], 0))
