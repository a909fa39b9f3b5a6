"""One verifier per product formula: enumeration side vs closed form.

Every verifier builds both sides of an identity inside a truncated series
ring, compares the coefficients within the caps (the report's region, where
every coefficient is the true one), and wraps the verdict in a
:class:`VerificationReport`.  The enumeration side is always the ground
truth; closed forms are never assumed.

Each verifier is registered in :data:`VERIFIERS` under its identity name,
and its signature is the one declaration of the identity's parameters and
defaults: ``projstat verify`` builds its flags from it (through
:func:`parameters`), and the report's params are the bound arguments.

Conventions adopted for the degenerate rank-0 terms of the summed
identities, all made by :func:`_enumeration_side`:

* the Carlitz right-hand sides at n = 0, fdes-trivariate's too, are 1/(1-t);
* the six-statistics right-hand side at n = 0 is s/((1-t1)(1-t2)), because
  the empty 2-partite partition has every column-sum class at once;
* the Hilbert-series right-hand side at n = 0 is the constant s.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from operator import lshift
from types import SimpleNamespace

from .cyclotomic import CycInt
from .groups import (
    BudgetExceededError,
    canonicalize,
    check_budget,
    enumerate_elements,
    enumeration_budget,
    format_window,
    lifts,
    make_group,
    residue,
)
from .series import RegionError, TruncatedSeries, agree_on, bracket_terms, equal_on, geom_divide_terms, packing
from .stats import distribution, factors, ranked_factors, signed_distribution, stat_record

MATCH = "MATCH"
MISMATCH = "MISMATCH"


class CharacterConditionError(ValueError):
    """(eps, k) does not define a one-dimensional character of the group."""


class CompositionError(ValueError):
    """The block sizes do not form a composition of n."""


class VerificationReport(SimpleNamespace):
    """One verifier's verdict.  Mutable: :func:`_identity` sets the name,
    params and time after the verifier returns."""

    def __init__(
        self,
        identity: str,
        params: dict,
        region: dict,
        outcome: str,
        first_mismatch: dict | None,
        element_count: int,
        elapsed_ms: float,
        notes: tuple[str, ...] = (),
    ):
        super().__init__(
            identity=identity,
            params=params,
            region=region,
            outcome=outcome,
            first_mismatch=first_mismatch,
            element_count=element_count,
            elapsed_ms=elapsed_ms,
            notes=notes,
        )

    @property
    def matched(self) -> bool:
        return self.outcome == MATCH

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "identity": self.identity,
            "params": self.params,
            "region": self.region,
            "outcome": self.outcome,
            "firstMismatch": self.first_mismatch,
            "count": self.element_count,
            "millis": round(self.elapsed_ms, 3),
            "notes": list(self.notes),
        }


def _coef_repr(c):
    return c if isinstance(c, int) else str(c)


VERIFIERS: dict = {}  # identity name -> verifier, in declaration order

REQUIRED = object()  # the default of a parameter that has none, in parameters()


def parameters(fn) -> dict:
    """Name -> default of the positional-or-keyword parameters of fn (or of
    the function it wraps), in declaration order; :data:`REQUIRED` for a
    parameter without a default.  Read off the code object."""
    fn = getattr(fn, "__wrapped__", fn)
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]
    defaults = fn.__defaults__ or ()
    return dict(zip(names, (REQUIRED,) * (len(names) - len(defaults)) + defaults))


def _identity(name: str):
    """Register a verifier as identity ``name``.  Its report gets the name,
    the elapsed time, and params: the arguments (defaults filled in) but
    ``budget``, updated with the overrides the verifier passed to
    :func:`_finish`."""

    def register(fn):
        defaults = parameters(fn)

        @functools.wraps(fn)
        def verifier(*args, **kwargs):
            started = time.perf_counter()
            report = fn(*args, **kwargs)  # refuses bad arguments before any work
            params = defaults | dict(zip(defaults, args)) | kwargs
            params.pop("budget", None)
            report.identity = name
            report.params = params | report.params
            report.elapsed_ms = (time.perf_counter() - started) * 1000.0
            return report

        VERIFIERS[name] = verifier
        return verifier

    return register


def _finish(region, ok, mismatch, count, notes=(), **overrides) -> VerificationReport:
    """The verdict; :func:`_identity` adds the name, params and time."""
    fm = None
    if mismatch is not None:
        mono, lhs, rhs = mismatch
        fm = {"monomial": mono, "lhs": _coef_repr(lhs), "rhs": _coef_repr(rhs)}
    return VerificationReport(
        identity="",
        params=overrides,
        region=region,
        outcome=MATCH if ok else MISMATCH,
        first_mismatch=fm,
        element_count=count,
        elapsed_ms=0.0,
        notes=tuple(notes),
    )


# ----------------------------------------------------------------------
# character twists of the flag major index

def _character_rhs(r: int, p: int, s: int, n: int, eps: int, k: int, caps) -> TruncatedSeries:
    """The closed form of character-fmaj as G(zeta^k q), for G in Z[q].

    Every zeta comes with a q: the brackets are in base (zeta^k q)^p times
    eps^((i-1)p), the braces in base zeta^k q or zeta^k eps q.  So G, the
    product with zeta^k set to 1, has int coefficients, and since the
    extraction of multiples of p and the truncation act on each monomial,
    they commute with the substitution q^e -> zeta^(ke) q^e made at the end.
    """
    _, bias, guard, _ = packing(("q",), caps)
    # q is the one field of its layout, so each key is its exponent
    braces = {0: 1}
    for i in range(n):
        braces = bracket_terms(braces, p, 1, eps if i >= n - n // 2 else 1, bias, guard)
    g = {e: c for e, c in braces.items() if e % p == 0}
    for i in range(1, n):
        g = bracket_terms(g, i * r // p, p, eps ** ((i - 1) * p), bias, guard)
    g = bracket_terms(g, n * r // (p * s), p, eps ** ((n - 1) * p), bias, guard)
    # the constant term stays the int 1 of the bracket product
    return TruncatedSeries(("q",), caps)._with({
        e: CycInt(r, [0] * (k * e % r) + [c]) if e else c for e, c in g.items()
    })


@_identity("character-fmaj")
def verify_character_fmaj(
    r: int, p: int = 1, s: int = 1, n: int = 3, eps: int = 1, k: int = 0, budget: int | None = None
) -> VerificationReport:
    """Product formula for sum of eps^inv(|g|) zeta^(k c(g)) q^fmaj(g).

    The closed form is the bracket product [r/p] [2r/p] ... [(n-1)r/p]
    [nr/(ps)] in base (eps^(i-1) zeta^k q)^p, times the extracted component
    of [p]^(n-m) [p]^m with alternating twist, m = floor(n/2).  It is built
    over Z[q] and then twisted by q -> zeta^k q (:func:`_character_rhs`).
    """
    group = make_group(r, p, s, n)
    if eps not in (1, -1):
        raise CharacterConditionError(f"eps must be +1 or -1, got {eps}")
    if not 0 <= k <= r // p - 1:
        raise CharacterConditionError(f"k={k} out of range [0, {r // p - 1}]")
    if (k * n) % s:
        raise CharacterConditionError(
            f"s={s} does not divide kn={k * n}: zeta^(k c(g)) depends on the lift"
        )
    # the signed sums for eps = -1, and the color class only for k != 0
    keys = ("fmaj",) + ("colorClass",) * (k != 0)
    counts = (signed_distribution if eps == -1 else distribution)(group, keys, budget)
    # No term of either side is truncated: a bracket of length L in base
    # c q^p has degree exactly p(L-1), the braces before extraction n(p-1),
    # and the cap is at least the sum of those and the top fmaj (deg_bound
    # alone when the signed count of a top fmaj cancels).
    deg_bound = (
        p * sum(i * r // p - 1 for i in range(1, n))
        + p * (n * r // (p * s) - 1)
        + n * (p - 1)
    )
    max_fmaj = max((values[0] for values in counts), default=0)
    caps = {"q": max(deg_bound, max_fmaj)}
    vars_ = ("q",)

    # per fmaj, the (signed) count of each power zeta^(k colorClass)
    powers: dict[int, list[int]] = {}
    for values, cnt in counts.items():
        powers.setdefault(values[0], [0] * r)[k * values[-1] % r] += cnt
    # q is the one field of its layout, so fmaj <= the cap is its own packed key
    lhs = TruncatedSeries(vars_, caps)._with({fmaj: CycInt(r, row) for fmaj, row in powers.items()})
    rhs = _character_rhs(r, p, s, n, eps, k, caps)
    return _finish(caps, *equal_on(lhs, rhs), group.order)


# ----------------------------------------------------------------------
# signed enumeration of permutations with prescribed descent blocks

def _signed_fillings(parts: tuple[int, ...]) -> int:
    """The sum of (-1)^inv over the permutations whose blocks of sizes parts
    each increase.  Such a filling is a word w with content parts, w_v the
    block of value v, and its inversions are the pairs v < v' with
    w_v > w_v'.  A DP over the values 1..n in turn, whose state is the
    number of values used per block: giving v to block j adds one inversion
    per value already in a later block.  A zero part holds no values and
    flips no sign, so it is dropped."""
    parts = tuple(x for x in parts if x)
    states = {(0,) * len(parts): 1}
    for _ in range(sum(parts)):
        nxt = {}
        for used, count in states.items():
            later = 0  # values already in the blocks after j
            for j in reversed(range(len(parts))):
                if used[j] < parts[j]:
                    key = used[:j] + (used[j] + 1,) + used[j + 1 :]
                    nxt[key] = nxt.get(key, 0) + (-count if later & 1 else count)
                later += used[j]
        states = nxt
    return states[parts]


def _multinomial(total: int, parts) -> int:
    out = math.factorial(total)
    for x in parts:
        out //= math.factorial(x)
    return out


@_identity("signed-multinomial")
def verify_signed_multinomial(n: int, parts, budget: int | None = None) -> VerificationReport:
    """Signed count of permutations whose positive descents lie on block cuts.

    The closed form is 0 when at least two block sizes are odd, and the
    multinomial coefficient of the halved block sizes otherwise.  The
    multinomial(n; parts) fillings are counted against the budget first,
    then signed by a DP over words (:func:`_signed_fillings`).
    """
    parts = tuple(parts)
    if not parts or any(x < 0 for x in parts) or sum(parts) != n:
        raise CompositionError(f"{parts} is not a composition of {n}")
    if budget is None:
        budget = enumeration_budget()
    # multinomial(n; parts) is the product of C(m, k) over the running sums
    # m, refused as soon as the running product passes the budget; C(m, j)
    # with j = min(k, m - k) is at least 2^j, so a j past 64 that alone
    # passes the budget is refused by that bound, without computing C(m, j)
    count, m = 1, 0
    for k in parts:
        m += k
        j = min(k, m - k)
        if j > 64 and j >= budget.bit_length():
            bound = count << budget.bit_length()
            raise BudgetExceededError(bound, budget, "filling count at least")
        count *= math.comb(m, j)
        if count > budget:
            what = "filling count" if m == n else "filling count at least"
            raise BudgetExceededError(count, budget, what)
    lhs = _signed_fillings(parts)
    odd = sum(1 for x in parts if x % 2)
    rhs = 0 if odd >= 2 else _multinomial(n // 2, [x // 2 for x in parts])
    ok = lhs == rhs
    mism = None if ok else ({}, lhs, rhs)
    return _finish({}, ok, mism, count, parts=list(parts))


@_identity("signed-wreath")
def verify_signed_wreath(r: int, n: int = 3, budget: int | None = None) -> VerificationReport:
    """Sign-twisted fmaj sum over G(r,n) against the alternating bracket
    product [r]_q [2r]_{-q} ... [nr]_{(+-)q}, with the ascending-window
    subset checked against its own closed form along the way."""
    group = make_group(r, 1, 1, n)
    main = signed_distribution(group, ("fmaj",), budget)
    u_hist = signed_distribution(group, ("col", "desA"), budget, {"desA": 0})

    # fmaj <= rn(n-1)/2 + (r-1)n and col <= (r-1)n lie within the q cap, and
    # q is the one field of its layout, so each is its own packed key
    caps = {"q": max(2, r * n * (n + 1) // 2)}
    vars_ = ("q",)
    lhs = TruncatedSeries(vars_, caps)._with({fmaj: sign for (fmaj,), sign in main.items()})
    _, bias, guard, _ = packing(vars_, caps)
    rhs = {0: 1}
    for i in range(1, n + 1):
        rhs = bracket_terms(rhs, i * r, 1, (-1) ** (i - 1), bias, guard)
    ok_main, mism_main = equal_on(lhs, lhs._with(rhs))

    u_lhs = TruncatedSeries(vars_, caps)._with({col: sign for (col, _), sign in u_hist.items()})
    u_rhs = {0: 1}
    for qexp in [2] * (n // 2) + [1] * (n % 2):
        u_rhs = bracket_terms(u_rhs, r, qexp, 1, bias, guard)
    ok_u, mism_u = equal_on(u_lhs, u_lhs._with(u_rhs))

    ok = ok_main and ok_u
    mism = mism_main if not ok_main else (mism_u if not ok_u else None)
    notes = (
        f"ascending-window subset sum equals its even/odd closed form: {ok_u}",
    )
    return _finish(caps, ok, mism, group.order, notes)


# ----------------------------------------------------------------------
# the per-element lift identity for the quotient groups

@_identity("lift")
def verify_lift_identity(r: int, s: int = 1, n: int = 3, budget: int | None = None) -> VerificationReport:
    """For every class, the lift sum of t^fdes q^fmaj factors as the class
    monomial times the bracket [s] in base t^(r/s) q^(nr/s)."""
    group = make_group(r, 1, s, n)
    wreath = make_group(r, 1, 1, n)
    rs = r // s
    vars_ = ("t", "q")
    count = 0
    failure = None
    for g in enumerate_elements(group, budget):
        count += 1
        rec = stat_record(g)
        caps = {"t": rec.fdes + r, "q": rec.fmaj + n * r}
        pack, bias, guard, _ = packing(vars_, caps)
        lhs = {}
        for lift in lifts(g):
            wrec = stat_record(canonicalize(lift, wreath))
            key = pack({"t": wrec.fdes, "q": wrec.fmaj})
            if key is not None:
                lhs[key] = lhs.get(key, 0) + 1
        # the class monomial and the base t^(r/s) q^(nr/s) lie within the caps
        lead, base = pack({"t": rec.fdes, "q": rec.fmaj}), pack({"t": rs, "q": n * rs})
        series = TruncatedSeries(vars_, caps)
        rhs = series._with(bracket_terms({lead: 1}, s, base, 1, bias, guard))
        ok, mism = equal_on(series._with(lhs), rhs)
        if not ok and failure is None:
            mono, a, b = mism
            failure = (dict(mono, element=format_window(g)), a, b)
    return _finish({}, failure is None, failure, count)


# ----------------------------------------------------------------------
# Carlitz identities

def _chain(t: str | None, q: str, r: int, s: int, n: int, a: int, b: int) -> list[dict]:
    """The monomials M of the chain (1-t^a q^r)...(1-t^a q^{(n-1)r})(1-t^b q^{nr/s}) of
    factors (1 - M) in the variables named t and q; no t if t is None, none at n = 0."""
    tpow = lambda e: {t: e} if t else {}
    chain = [{**tpow(a), q: j * r} for j in range(1, n)]
    return chain + [{**tpow(b), q: n * r // s}] if n else chain


def _sides(chain, inverse_vars) -> tuple[list, list]:
    """(own, inverse): the monomials of chain with no variable in
    inverse_vars, and those with all of theirs in it.  Raises ValueError
    for a monomial with variables on both sides, whose 1 - M does not
    divide either side alone."""
    own, inverse = [], []
    for exps in chain:
        touched = {v for v, e in exps.items() if e}
        if touched & inverse_vars and touched - inverse_vars:
            raise ValueError(f"chain monomial {exps} has variables of g and of g^-1")
        (inverse if touched and touched <= inverse_vars else own).append(exps)
    return own, inverse


def _enumeration_side(vars_, caps, r, p, s, n, keys, chain, budget, lead=(), source=None):
    """(side, element count): the histogram of keys over G(r,p,s,n), laid out after the
    exponents lead, divided by 1 - M for M in chain; the caller validates r, p, s first.
    G(r,p,s,0) is one element, all statistics 0; with a lead (u-graded) it is s, of none.
    The factors come from source, a function with the contract of :func:`stats.factors`
    (:func:`stats.ranked_factors` in a ranked sum), or from factors itself.

    The histogram is built only within the caps of the variables its keys are laid out
    in (the division moves terms only upward).  A lead past its caps makes the side 0:
    the group is still made, the budget still checked and the elements still counted.

    The histogram comes as its :func:`stats.factors`, pairs of a histogram of g's keys and
    one of g^-1's, and each chain monomial has the variables of one side only
    (:func:`_sides`).  So each side of each pair is packed into its own fields, the lead
    with g's keys, and divided by its own monomials (:func:`series.geom_divide_terms`)
    before the pairs are multiplied out.  A histogram tuple is packed by its fields'
    shifts (from :func:`series.packing`, built once per vars and caps) with no cap check,
    since the caps passed to factors keep every value within its cap.  The two sides'
    fields are disjoint, so a product of keys within the caps lies within them and needs
    no check either."""
    own, inverse, pairs = keys, (), [({(0,) * len(keys): s if lead else 1}, {(): 1})]
    count = 0 if lead else 1
    if n:
        group = make_group(r, p, s, n)
        if any(e > caps[v] for v, e in zip(vars_, lead)):
            check_budget(group, budget)
            return TruncatedSeries(vars_, caps), group.order
        compared = {key: caps[v] for key, v in zip(keys, vars_[len(lead):])}
        (own, inverse, pairs), count = (source or factors)(group, keys, budget, compared), group.order
    var = dict(zip(keys, vars_[len(lead):]))
    own_vars = tuple(var[key] for key in own)
    inverse_vars = tuple(var[key] for key in inverse)
    pack, bias, guard, fields = packing(vars_, caps)

    def divided(side_vars, monomials, hists, lead_key=0):
        # each histogram packed by the shifts of side_vars' fields, plus the
        # lead's key, and divided by the monomials (1/(1 - M) is 1 for an M
        # past the caps); the highest degrees first, whose chains are short,
        # while the terms are few
        monomials = sorted(monomials, key=lambda exps: sum(exps.values()), reverse=True)
        steps = [step for step in map(pack, monomials) if step is not None]
        shifts = [fields[v][0] for v in side_vars]
        for hist in hists:
            terms = {lead_key + sum(map(lshift, values, shifts)): c for values, c in hist.items()}
            for step in steps:
                terms = geom_divide_terms(terms, step, 1, bias, guard)
            yield terms

    own_monomials, inverse_monomials = _sides(chain, set(inverse_vars))
    lefts = divided(own_vars, own_monomials, [left for left, _ in pairs], pack(dict(zip(vars_, lead))))
    rights = divided(inverse_vars, inverse_monomials, [right for _, right in pairs])
    terms = {}
    get = terms.get
    for left, right in zip(lefts, rights):
        for b, y in right.items():
            for a, x in left.items():
                key = a + b
                terms[key] = get(key, 0) + x * y
    return TruncatedSeries(vars_, caps)._with(terms), count


def _ksum(vars_, caps, inner, n, p) -> TruncatedSeries:
    """The k-sum of t^k inner(k)^n over k <= caps["t"], extracted at q^p.
    inner(k) is the packed terms of a series with no t under the same caps,
    so each summand is moved to t^k whole, and the summands, in distinct
    t-degrees, are joined without adding.  Once inner(k) is cut by the caps
    it stops changing, and the power of the last k is reused."""
    pack = packing(vars_, caps)[0]
    terms, last, power = {}, None, None
    for k in range(caps["t"] + 1):
        term = inner(k)
        if term != last:
            last, power = term, (TruncatedSeries(vars_, caps)._with(dict(term)) ** n).terms
        t_k = pack({"t": k})
        terms.update({key + t_k: coeff for key, coeff in power.items()})
    return TruncatedSeries(vars_, caps)._with(terms).extract_multiples({"q": p})


def _lattice_heights(vars_, caps, rs):
    """The sum over lattice heights j <= k of q^j a^(R_{r/s}(j)), as the
    function of k that builds the packed terms of its blockwise closed form

        [Q+1]_{q^{r/s}} + aq [r/s-1]_{aq} [Q]_{q^{r/s}}
                        + a q^{Q r/s + 1} [R]_{aq},   k = (r/s) Q + R,

    in the variables t, q, a (t unused) under caps."""
    pack, bias, guard, _ = packing(vars_, caps)
    q_rs, aq = pack({"q": rs}), pack({"a": 1, "q": 1})
    tail = bracket_terms({} if aq is None else {aq: 1}, rs - 1, aq, 1, bias, guard)

    def closed(k: int) -> dict:
        quot, rem = divmod(k, rs)
        lead = pack({"a": 1, "q": quot * rs + 1})
        return {  # the three blocks hold distinct heights j, so no key repeats
            **bracket_terms({0: 1}, quot + 1, q_rs, 1, bias, guard),
            **bracket_terms(tail, quot, q_rs, 1, bias, guard),
            **bracket_terms({} if lead is None else {lead: 1}, rem, aq, 1, bias, guard),
        }

    return closed


def _fdes_ksum(caps, n, p) -> TruncatedSeries:
    """The flag-descent k-sum of t^k [k+1]_q^n in (t, q), extracted at q^p,
    [k+1]_q^n taken by n bracket passes once per length up to the q cap + 1."""
    vars_ = ("t", "q")
    pack, bias, guard, _ = packing(vars_, caps)
    q = pack({"q": 1})

    @functools.cache
    def power(length: int) -> dict:
        terms = {0: 1}
        for _ in range(n):
            terms = bracket_terms(terms, length, q, 1, bias, guard)
        return terms

    return _ksum(vars_, caps, lambda k: power(min(k + 1, caps["q"] + 1)), 1, p)


@_identity("carlitz-des")
def verify_carlitz_des(
    r: int,
    p: int = 1,
    s: int = 1,
    n: int = 3,
    tmax: int = 6,
    qmax: int = 6,
    amax: int | None = None,
    budget: int | None = None,
) -> VerificationReport:
    """Trivariate Carlitz identity with the descent number.

    LHS: extracted k-sum of t^k ([k+1]_{q^{r/s}} + aq [k]_{q^{r/s}}
    [r/s-1]_{aq})^n, the lattice-height sum of fdes-trivariate at the
    heights k r/s.  RHS: the (des, fmaj, col) distribution divided by
    (1-t)(1-t^s q^r)...(1-t^s q^{(n-1)r})(1-t q^{nr/s}).
    """
    if amax is None:
        amax = qmax
    vars_ = ("t", "q", "a")
    caps = {"t": tmax, "q": qmax, "a": amax}
    make_group(r, p, s, n or p * s)  # at n = 0, checks p | r and s | r
    rs = r // s
    if n and (qmax < rs or (rs > 1 and amax < 1)):
        raise RegionError(f"caps q<={qmax}, a<={amax} leave nothing to compare")
    heights = _lattice_heights(vars_, caps, rs)
    lhs = _ksum(vars_, caps, lambda k: heights(k * rs), n, p)

    chain = [{"t": 1}, *_chain("t", "q", r, s, n, s, 1)]
    rhs, count = _enumeration_side(vars_, caps, r, p, s, n, ("des", "fmaj", "col"), chain, budget)
    return _finish(caps, *equal_on(lhs, rhs), count, amax=amax)


@_identity("carlitz-fdes")
def verify_carlitz_fdes(
    r: int,
    p: int = 1,
    s: int = 1,
    n: int = 3,
    tmax: int = 6,
    qmax: int = 6,
    budget: int | None = None,
) -> VerificationReport:
    """Carlitz identity with the flag descent number.

    LHS: extracted k-sum of t^k [k+1]_q^n.  RHS: the (fdes, fmaj)
    distribution divided by (1-t)(1-t^r q^r)...(1-t^r q^{(n-1)r})
    (1-t^{r/s} q^{nr/s}).
    """
    vars_ = ("t", "q")
    caps = {"t": tmax, "q": qmax}
    make_group(r, p, s, n or p * s)  # at n = 0, checks p | r and s | r
    if n and qmax < 1:
        raise RegionError(f"qmax={qmax} leaves nothing to compare")
    lhs = _fdes_ksum(caps, n, p)
    chain = [{"t": 1}, *_chain("t", "q", r, s, n, r, r // s)]
    rhs, count = _enumeration_side(vars_, caps, r, p, s, n, ("fdes", "fmaj"), chain, budget)
    return _finish(caps, *equal_on(lhs, rhs), count)


@_identity("fdes-trivariate")
def verify_fdes_trivariate(
    r: int,
    p: int = 1,
    s: int = 1,
    n: int = 3,
    tmax: int = 6,
    qmax: int = 6,
    amax: int | None = None,
    budget: int | None = None,
) -> VerificationReport:
    """Trivariate Carlitz-type identity with the flag descent number.

    The inner sum over lattice heights j <= k of q^j a^(residue of j) is
    used in two equivalent shapes: the direct sum, and its blockwise
    closed form (:func:`_lattice_heights`).  The enumeration side is the
    ground truth; the report records that the two shapes agree, that the
    extracted k-sum matches the (fdes, fmaj, col) enumeration with its
    denominator factors, and that the a=1 specialization collapses onto
    the bivariate flag-descent k-sum.  An amax below qmax is raised to
    qmax, with a note, which keeps the a=1 collapse exact (a-degree <=
    q-degree).
    """
    notes = []
    if amax is None:
        amax = qmax
    elif amax < qmax:
        notes.append(f"amax raised from {amax} to qmax={qmax} for the a=1 collapse")
        amax = qmax
    make_group(r, p, s, n or p * s)  # at n = 0, checks p | r and s | r
    rs = r // s
    vars_ = ("t", "q", "a")
    caps = {"t": tmax, "q": qmax, "a": amax}

    if n and qmax < rs:
        raise RegionError(f"qmax={qmax} is smaller than r/s={rs}")
    heights = _lattice_heights(vars_, caps, rs)
    closed = {k: heights(k) for k in range(tmax + 1)}
    direct = lambda k: TruncatedSeries(vars_, caps, {(0, j, residue(j, rs)): 1 for j in range(k + 1)})
    series = TruncatedSeries(vars_, caps)
    blockwise_ok = all(equal_on(series._with(dict(closed[k])), direct(k))[0] for k in closed)
    lhs = _ksum(vars_, caps, closed.get, n, p)

    chain = [{"t": 1}, *_chain("t", "q", r, s, n, r, rs)]
    rhs, count = _enumeration_side(vars_, caps, r, p, s, n, ("fdes", "fmaj", "col"), chain, budget)
    ok, mism = equal_on(lhs, rhs)
    a1_ok = equal_on(lhs.collapse_var("a", under="q"), _fdes_ksum({"t": tmax, "q": qmax}, n, p))[0]
    notes += [
        f"blockwise closed form equals the direct lattice sum for all k <= {tmax}: {blockwise_ok}",
        f"closed form matches the enumeration oracle: {ok}",
        f"a=1 specialization equals the flag-descent k-sum: {a1_ok}",
    ]
    return _finish(caps, ok, mism, count, notes, amax=amax)


# ----------------------------------------------------------------------
# six statistics and Hilbert series

def _quotient_divisor(r: int, p: int, s: int) -> int:
    """The least rank d with ps | rd, once make_group has validated r, p, s
    (at rank ps, where ps | rn always holds)."""
    make_group(r, p, s, p * s)
    return p * s // math.gcd(p * s, r)


def _divide_layers(layers, step, bias, guard) -> None:
    """Divide in place a product kept as u-degree layers of packed terms by
    1 - M, for M of u-degree 1 packed as step: layer[n] += M layer[n-1] for
    n ascending, without the terms past the caps (see :func:`packing`).  The
    sum step + bias and each layer's get are bound outside the term loop."""
    biased = step + bias
    for lower, upper in zip(layers, layers[1:]):
        get = upper.get
        for key, coeff in lower.items():
            if not (key + biased) & guard:
                key += step
                upper[key] = get(key, 0) + coeff


def _lattice_walk(vars_, caps, monomial, r, residues, ibounds, jbounds):
    """Yield (imax, jmax, products) for imax in ibounds, then jmax in jbounds
    (ascending): products maps each residue c (0 <= c < r) to the product of
    1/(1 - M) over i <= imax, j <= jmax, i + j = c (mod r), M with exponents
    monomial(i, j), whose u-degree must be 1.
    A row bound's start extends the last one's by the new rows, and that start
    is extended by each new column strip: each point once per row bound.
    A strip's points are applied from its far corner, in descending i + j.
    The factors commute, so the products are the same, but a high-degree
    point then steps through layers that are still small, and most of its
    steps would fall past the caps anyway; the low-degree points, whose
    steps stay within them, come last.  On hilbert(1,1,1, nmax 5, qmax 11)
    that is 16,188 step attempts instead of 59,881 in ascending (i, j).

    Since every M has u-degree 1, a product is kept as one dict of packed
    terms per u-degree, u <= caps["u"], and divided by 1 - M layer by layer
    (:func:`_divide_layers`): each term below the top layer takes one step,
    and the top layer is never read.  Each point's M is packed once, from
    the fields' shifts.  A product is yielded as its layers, each a dict of
    full packed keys (:func:`_extracted` reads them).  They are live: the
    walk divides them further in place, so a reader must use them before
    advancing it."""
    _, bias, guard, fields = packing(vars_, caps)
    at = {v: (shift, caps[v]) for v, (shift, _) in fields.items()}
    steps = {}  # (i, j) -> packed M, for the points of the residues within the caps
    for i, j in itertools.product(range(ibounds[-1] + 1), range(jbounds[-1] + 1)):
        if (i + j) % r in residues:
            exps = monomial(i, j)
            if exps.get("u") != 1:
                raise ValueError(f"lattice monomial {exps} at ({i}, {j}) has u-degree other than 1")
            step = 0
            for v, e in exps.items():
                shift, cap = at[v]
                if e > cap:  # past the caps, 1/(1 - M) truncates to 1
                    break
                step += e << shift
            else:
                steps[i, j] = step

    def extend(products, rows, cols):
        for i, j in sorted(itertools.product(rows, cols), key=sum, reverse=True):
            if (i, j) in steps:
                _divide_layers(products[(i + j) % r], steps[i, j], bias, guard)

    start = {c: [{0: 1}] + [{} for _ in range(caps["u"])] for c in residues}
    i0 = 0
    for imax in ibounds:
        extend(start, range(i0, imax + 1), range(jbounds[0] + 1))
        i0 = imax + 1
        products = {c: [dict(layer) for layer in layers] for c, layers in start.items()}
        j0 = jbounds[0] + 1
        for jmax in jbounds:
            extend(products, range(imax + 1), range(j0, jmax + 1))
            j0 = jmax + 1
            yield imax, jmax, products


def _extracted(products, classes, d, field, m) -> dict:
    """The packed terms of the sum of products[c] over c in classes (a class
    listed twice is added twice), extracted at u^d and at the variable whose
    packed (shift, mask) is field to the power m, for products as
    :func:`_lattice_walk` yields them: only the layers u^0, u^d, u^2d, ...
    are read, and of their terms only those whose exponent in the variable
    is a multiple of m are kept.

    The layers of one class lie in distinct u-degrees, so the first class's
    terms are set, its layers joined whole (dict.update) when m = 1, and
    only the classes after it are added term by term."""
    shift, mask = field
    first, *rest = classes
    out = {}
    for layer in products[first][::d]:
        if m == 1:
            out.update(layer)
            continue
        for key, coeff in layer.items():
            if not ((key >> shift) & mask) % m:
                out[key] = coeff
    get = out.get
    for c in rest:
        for layer in products[c][::d]:
            for key, coeff in layer.items():
                if m == 1 or not ((key >> shift) & mask) % m:
                    out[key] = get(key, 0) + coeff
    return out


def _rank_sum(vars_, caps, keys, r, groups, nmax, d, budget) -> list:
    """The u-graded enumeration sides: one (side, element count) for each
    (p, s) in groups.

    A side is the sum over ranks n <= nmax divisible by d of u^n times the
    histogram of ``keys`` over G(r,p,s,n) (laid out as vars_[1:]), divided
    for i = 1, 2 by the chain of carlitz-des in (t_i, q_i), and by 1 - t_i
    when vars_ has t1, t2; otherwise the t_i are dropped.  Each rank is
    one :func:`_enumeration_side`, which divides each side of its factors
    by the monomials in that side's (t_i, q_i).

    The factors of every group at every rank within the u cap are read off
    one tableau walk (:func:`stats.ranked_factors`), so the ranks are taken
    in turn, every group at a rank before the next rank, and each rank's
    budget is checked before its level is walked.  A group and its dual
    G(r,s,p,n) have one order, so the first rank refused is the one refused
    when each group's ranks are taken alone.  The chains keep each rank at
    its own u-degree, so a rank's terms are joined to its side whole
    (dict.update), without adding.
    """
    if nmax < 0:
        raise ValueError(f"nmax must be a nonnegative integer, got {nmax}")
    ts = ("t1", "t2") if "t1" in vars_ else (None, None)
    ranks, top = range(0, nmax + 1, d), min(nmax, caps["u"]) // d * d
    tops = [make_group(r, p, s, top) for p, s in groups] if top else []
    source = ranked_factors(tops, keys, {key: caps[v] for key, v in zip(keys, vars_[1:])})
    terms, counts = [{} for _ in groups], [0] * len(groups)
    for n in ranks:
        for i, (p, s) in enumerate(groups):
            chain = []
            for t, q in zip(ts, ("q1", "q2")):
                chain += [{t: 1}] * bool(t) + _chain(t, q, r, s, n, s, 1)
            side, count = _enumeration_side(vars_, caps, r, p, s, n, keys, chain, budget, (n,), source)
            terms[i].update(side.terms)
            counts[i] += count
    return [(TruncatedSeries(vars_, caps)._with(side), count) for side, count in zip(terms, counts)]


@_identity("six-stats")
def verify_six_stats(
    r: int,
    p: int = 1,
    s: int = 1,
    nmax: int = 3,
    tmax: int = 4,
    qmax: int = 8,
    umax: int = 3,
    budget: int | None = None,
) -> VerificationReport:
    """Generating function of (des, ides, fmaj, ifmaj, col, icol).

    LHS: the double k-sum over k1, k2 <= tmax of t1^k1 t2^k2 times the
    lattice products of 1/(1 - u a1^.. a2^.. q1^i q2^j) over i <= min(k1 r/s,
    qmax), j <= min(k2 r/s, qmax), i+j = l r/s mod r, extracted at u^d q1^p
    with d = sp/gcd(sp, r).  RHS: the u^n-graded enumeration sums with their
    denominator factors, over the ranks n <= nmax divisible by d.

    Each block is extracted from the layers of its classes as
    :func:`_lattice_walk` yields them (:func:`_extracted`), since the
    extraction commutes with the shift by t1^k1 t2^k2, and its terms are
    then written into the one terms dict of the side at each (k1, k2) that
    reaches it.  The k that share a bound partition 0..tmax, so no two
    blocks meet and nothing is added; the side is made a series once.
    """
    d = _quotient_divisor(r, p, s)
    rs = r // s
    ucap = min(umax, nmax)
    vars_ = ("u", "t1", "t2", "q1", "q2", "a1", "a2")
    caps = {
        "u": ucap, "t1": tmax, "t2": tmax,
        "q1": qmax, "q2": qmax, "a1": qmax, "a2": qmax,
    }

    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j, "a1": residue(i, rs), "a2": residue(j, rs)}

    # the enumeration side first: an over-budget rank refuses before any lattice work
    keys = ("des", "ides", "fmaj", "ifmaj", "col", "icol")
    [(rhs, count)] = _rank_sum(vars_, caps, keys, r, [(p, s)], nmax, d, budget)

    ks = {b: [*g] for b, g in itertools.groupby(range(tmax + 1), lambda k: min(k * rs, qmax))}
    pack, _, _, fields = packing(vars_, caps)
    terms = {}
    classes = range(0, r, rs)
    for imax, jmax, products in _lattice_walk(vars_, caps, monomial, r, classes, [*ks], [*ks]):
        block = _extracted(products, classes, d, fields["q1"], p)
        for shift in (pack({"t1": k1, "t2": k2}) for k1 in ks[imax] for k2 in ks[jmax]):
            for key, c in block.items():
                terms[key + shift] = c
    lhs = TruncatedSeries(vars_, caps)._with(terms)
    notes = (
        "rank-0 term taken as s/((1-t1)(1-t2)): the empty 2-partite "
        "partition lies in every column-sum class",
    ) * (s > 1)
    return _finish(caps, *equal_on(lhs, rhs), count, notes, d=d, umax=ucap)


@_identity("hilbert")
def verify_hilbert(
    r: int,
    p: int = 1,
    s: int = 1,
    nmax: int = 3,
    qmax: int = 6,
    budget: int | None = None,
) -> VerificationReport:
    """Generating function of the bivariate Hilbert series of diagonal invariants.

    Main check: the extraction at u^d q1^p of the lattice products
    1/(1 - u q1^i q2^j) over i+j congruent to l r/s (l < s) equals the
    u-graded fmaj/ifmaj sums over G(r,p,s,n) with their denominators.

    A dual form with the roles of p and s interchanged (braces u^d q1^s,
    congruence classes summed over l < p) admits two readings of the
    congruence step, r/s or r/p.  Both are evaluated against the
    dual-group enumeration and the verdicts are recorded in the notes.

    The three lattice sums are extracted (:func:`_extracted`) from the
    layers of one :func:`_lattice_walk` at (qmax, qmax), each from the
    classes it adds up.  When p == s they are one sum, and the dual is the same
    group: the sum is built and compared once, and the enumeration is
    reused; otherwise the dual's enumeration reads the group's tableau walk
    (:func:`_rank_sum`), and the interchanged forms are compared for their
    verdict alone (:func:`series.agree_on`).  The report's count adds the elements of G(r,p,s,n) and of its
    dual G(r,s,p,n) over the ranks checked, also when p == s.
    """
    d = _quotient_divisor(r, p, s)
    vars_ = ("u", "q1", "q2")
    caps = {"u": nmax, "q1": qmax, "q2": qmax}

    # the enumeration sides first: an over-budget rank refuses before any lattice work
    keys = ("fmaj", "ifmaj")
    sides = _rank_sum(vars_, caps, keys, r, [(p, s)] + [(s, p)] * (p != s), nmax, d, budget)
    (rhs, count), (dual_rhs, dual_count) = sides[0], sides[-1]

    needed = {l * st % r for st, m in ((r // s, max(p, s)), (r // p, p)) for l in range(m)}
    monomial = lambda i, j: {"u": 1, "q1": i, "q2": j}
    [(_, _, products)] = _lattice_walk(vars_, caps, monomial, r, needed, [qmax], [qmax])
    q1 = packing(vars_, caps)[3]["q1"]

    def lattice_sum(step, classes, m):
        terms = _extracted(products, [l * step % r for l in range(classes)], d, q1, m)
        return TruncatedSeries(vars_, caps)._with(terms)

    lhs = lattice_sum(r // s, s, p)
    ok, mism = equal_on(lhs, rhs)
    if p == s:
        # both interchanged forms are lhs again, against the same enumeration
        same_ok = swapped_ok = ok
    else:
        same_step = lattice_sum(r // s, p, s)
        swapped_step = lattice_sum(r // p, p, s)
        same_ok = agree_on(same_step, dual_rhs)
        swapped_ok = agree_on(swapped_step, dual_rhs)
    if same_ok and swapped_ok:
        resolution = "both readings of the interchanged form agree with the dual enumeration"
    elif swapped_ok:
        resolution = (
            "interchanged form resolved: congruence step r/p (the full "
            "p<->s swap) matches the dual enumeration; step r/s does not"
        )
    elif same_ok:
        resolution = "interchanged form matches with congruence step r/s"
    else:
        resolution = "neither reading of the interchanged form matches the dual enumeration"
    notes = (
        f"interchanged form, congruence step r/s (l < p, braces u^d q1^s): {same_ok}",
        f"interchanged form, congruence step r/p (l < p, braces u^d q1^s): {swapped_ok}",
        resolution,
    )
    return _finish(caps, ok, mism, count + dual_count, notes, d=d)
