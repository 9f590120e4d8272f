"""Divided-power page mechanics for the cyclic-group Eilenberg-Moore
spectral sequence at an odd prime.

The starting page is Gamma(sigma z) tensor Lambda(sigma y).  A divided
power gamma_m(sigma z) is encoded by the base-p digits of m, one slot
per gamma_{p^j} and a cutoff at gamma_{p^S}; sigma z itself is the
slot-zero generator and survives to the end as zeta.  A page holds its
monomials as a sorted int64 array of indices

    idx = a_0 + a_1 p + ... + a_(S-1) p^(S-1) + eps p^S,

a_j the digit in slot j and eps the sigma y exponent; PAGE_LIMIT bounds
their number.  Products carry the binomial C(a+b, a), digitwise by
Lucas's theorem and zero mod p when a slot carries (Kummer).  So the
product with a monomial g is one array map: scalar prod_j C[a_j, g_j]
from a p x p table C that is 0 on a carry, target idx + g, and zero on
a carry or a second sigma y factor.

Round s applies the one differential the pattern allows, determined
by its value on gamma_{p^s} and extended as a derivation.  In digit
coordinates this sends a monomial with a_s > 0 to the monomial with
slot s decremented, multiplied by the round cycle

    w_s = gamma_{p^1}^(p-1) * ... * gamma_{p^(s-1)}^(p-1) * sigma y,

with no extra scalar: the exponent factor from the naive power rule
cancels against the multinomial unit that relates digit monomials to
classical divided powers.  (Check: gamma_p^2 = 2 gamma_{2p}, and
d(gamma_{2p}) = gamma_p sigma y gives d(gamma_p^2) = 2 gamma_p sigma y
= 2 gamma_p d(gamma_p), the Leibniz value.)

Every round is certified from one table of d: scalars and target
indices (-1 where d vanishes) over the page.  A bidegree holds at most
one page monomial, so the table is a monomial complex (see _run_round).
Monomials whose lower slots are off-pattern die automatically: the
binomial against w_s overflows.

The cutoff makes assertions trustworthy only in the window of
filtration degree at most p^(S-1); classes touching slot S-1's top
range sit outside it.  The final report therefore speaks only about
the window, where the survivors are exactly the powers of zeta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .coeff import _is_prime

__all__ = [
    "CutoffError",
    "DPBasisElement",
    "dp_multiply",
    "BigradedPage",
    "RoundRecord",
    "PAGE_LIMIT",
    "initial_page",
    "round_differential",
    "turn_pages",
    "EmssReport",
    "final_page_report",
]

# Most monomials 2 p^S a first page may hold.  A round is a few array
# passes per generator over the page; the largest page, p = 3 at S = 11,
# takes about 2 s and 140 MB in a fresh process on one x86 core.
PAGE_LIMIT = 2 * 3 ** 11


class CutoffError(Exception):
    """The divided-power cutoff is too small for the requested rounds."""


@dataclass(frozen=True)
class DPBasisElement:
    """Monomial gamma-product times an optional sigma y factor.

    exponents[j] is the power of gamma_{p^j}; slot 0 is sigma z.  The
    element represents the classical divided power gamma_m(sigma z)
    with m = sum a_j p^j, times sigma y^eps.
    """

    exponents: tuple
    eps: int

    def __post_init__(self):
        if self.eps not in (0, 1):
            raise ValueError("eps must be 0 or 1")
        if any(a < 0 for a in self.exponents):
            raise ValueError("negative exponent")

    def bidegree(self, p):
        m = sum(a * p ** j for j, a in enumerate(self.exponents))
        return (self.eps + m, -2 * self.eps - m)

    def __str__(self):
        parts = []
        if self.exponents and self.exponents[0]:
            parts.append(
                "z" if self.exponents[0] == 1 else "z^%d" % self.exponents[0]
            )
        for j, a in enumerate(self.exponents):
            if j >= 1 and a:
                g = "g[p^%d]" % j
                parts.append(g if a == 1 else "%s^%d" % (g, a))
        if self.eps:
            parts.append("sy")
        return "*".join(parts) if parts else "1"


def dp_multiply(x, y, p):
    """Product of two basis monomials: (scalar mod p, element or None).

    Scalar is the digitwise binomial prod C(a_j + b_j, a_j); a slot
    overflow or a repeated sigma y factor gives (0, None).  No signs:
    the gamma part is even and sigma y squares to zero.
    """
    if len(x.exponents) != len(y.exponents):
        raise ValueError("mismatched slot counts")
    if x.eps and y.eps:
        return 0, None
    scalar = 1
    out = []
    for a, b in zip(x.exponents, y.exponents):
        if a + b >= p:
            return 0, None
        scalar = scalar * math.comb(a + b, a) % p
        out.append(a + b)
    return scalar, DPBasisElement(tuple(out), x.eps | y.eps)


def _round_cycle(p, S, s):
    """w_s: slots 1..s-1 at p-1, sigma y on."""
    exps = [0] * S
    for j in range(1, s):
        exps[j] = p - 1
    return DPBasisElement(tuple(exps), 1)


def round_differential(x, p, S, s):
    """Value of the round-s differential on a basis monomial, as
    (scalar mod p, element or None)."""
    if not 1 <= s <= S - 1:
        raise CutoffError("round %d needs cutoff S > %d, have S = %d" % (s, s, S))
    if x.eps == 1 or x.exponents[s] == 0:
        return 0, None
    lowered = list(x.exponents)
    lowered[s] -= 1
    base = DPBasisElement(tuple(lowered), 0)
    return dp_multiply(base, _round_cycle(p, S, s), p)


# ---------------------------------------------------------------------------
# monomials as integer indices


def _lucas_table(p):
    """C[a, b] = C(a + b, a) mod p for digits a, b: 0 on a carry, since
    then p <= a + b < 2p divides (a + b)! but not a! b! (Kummer)."""
    table = np.ones((p, p), dtype=np.int64)
    for a in range(1, p):  # C(a + b, a) is the sum over k <= b of C(a - 1 + k, a - 1)
        table[a] = np.cumsum(table[a - 1]) % p
    return table


def _split(idx, p, S):
    """Monomial indices as (indices, slots, sigma y exponent); the slots
    are int16 digits along a last axis of length S."""
    idx = rest = np.asarray(idx, dtype=np.int64)
    digits = np.empty(idx.shape + (S,), dtype=np.int16)
    for j in range(S):
        rest, digits[..., j] = np.divmod(rest, p)
    return idx, digits, rest


def _multiply(x, ys, lucas):
    """The monomial x times each of the split monomials ys (-1 is the
    zero monomial), as (scalar, target) with target -1 where the product
    is zero.  C[0, b] = 1, so only the slots where x is nonzero count;
    the scalar is below p^S before reduction, so exact in int64."""
    (y, dy, ey), (x, dx, ex) = ys, _split(x, len(lucas), ys[1].shape[-1])
    slots = np.flatnonzero(dx)
    scalar = lucas[dx[slots], dy[:, slots]].prod(axis=1) % len(lucas)
    scalar[(x < 0) | (y < 0) | (ex + ey > 1)] = 0
    return scalar, np.where(scalar > 0, x + y, -1)


def _decode(idx, p, S):
    _, digits, eps = _split(idx, p, S)
    return tuple(DPBasisElement(tuple(d), e) for d, e in zip(digits.tolist(), eps.tolist()))


def _nominal_index(p, s):
    # round 1 is d^(p-1); round s >= 2 is d^(p^s - p^(s-1) - 1)
    if s == 1:
        return p - 1
    return p ** s - p ** (s - 1) - 1


@dataclass(frozen=True)
class RoundRecord:
    """Bookkeeping for one executed round: what was checked and how
    the dimensions moved."""

    round: int
    nominal_index: int
    dim_before: int
    dim_after: int
    cells_with_differential: int
    d_squared_zero: bool
    leibniz_pairs_checked: int
    euler_before: int
    euler_after: int


@dataclass(frozen=True, eq=False)
class BigradedPage:
    """One page: a basis of monomials plus the round whose
    differential acts on it next.  Between the nominal indices of
    consecutive rounds every differential vanishes, so pages are only
    materialized at the indices where something happens."""

    p: int
    S: int
    index: int  # nominal page index
    next_round: int  # 1-based round whose differential lives here
    indices: np.ndarray  # sorted monomial indices, see the module docstring
    record: RoundRecord = None  # how this page was produced, None for E2

    @functools.cached_property
    def monomials(self):
        """The basis as DPBasisElements in index order, decoded on read."""
        return _decode(self.indices, self.p, self.S)

    def dimension(self, s, t):
        return sum(1 for m in self.monomials if m.bidegree(self.p) == (s, t))

    @property
    def total_dimension(self):
        return len(self.indices)

    def euler(self):
        # alternating sum over total degree; only 0 and -1 occur
        return len(self.indices) - 2 * int(np.count_nonzero(self.indices >= self.p ** self.S))


def _check_odd_prime(p):
    if p == 2:
        raise ValueError("only odd primes are supported here")
    if not _is_prime(p):
        raise ValueError("p must be prime")


def initial_page(p, S):
    """The full divided-power page: all digit vectors times the
    exterior factor, page index 2.  A page of more than PAGE_LIMIT
    monomials is refused before anything is allocated; p^S stops growing
    once it passes the limit, so a huge S or p is refused at once."""
    _check_odd_prime(p)
    if S < 2:
        raise ValueError("cutoff S must be >= 2")
    size = 2
    for _ in range(S):
        size *= p
        if size > PAGE_LIMIT:
            raise ValueError("page of 2*%d^%d monomials exceeds PAGE_LIMIT = %d"
                             % (p, S, PAGE_LIMIT))
    return BigradedPage(p=p, S=S, index=2, next_round=1, indices=np.arange(size, dtype=np.int64))


def _pinned(mons, p, lo, hi):
    """Slots lo..hi-1 at 0 (no sigma y) or p-1 (with sigma y)."""
    _, digits, eps = mons
    return (digits[:, lo:hi] == (eps * (p - 1))[:, None]).all(axis=1)


def _positions(page):
    """Page position of each index, -1 off the page and for index -1."""
    pos = np.full(2 * page.p ** page.S + 1, -1, dtype=np.int64)
    pos[page.indices] = np.arange(len(page.indices))
    return pos


def _fail_at(bad, message):
    """Raise message(i) at the first position i where the mask bad holds."""
    if bad.any():
        raise AssertionError(message(int(np.argmax(bad))))


def _differential_table(page):
    """The round differential as (scalar, target) arrays over the page,
    target -1 where d vanishes: slot s lowered by one, times w_s."""
    p, S, s = page.p, page.S, page.next_round
    _, digits, eps = _split(page.indices, p, S)
    lowered = np.where((eps == 0) & (digits[:, s] > 0), page.indices - p ** s, -1)
    w_s = p ** s - p + p ** S  # slots 1..s-1 at p-1, sigma y
    return _multiply(w_s, _split(lowered, p, S), _lucas_table(p))


def _key(scalar, target, p):
    """A term scalar * target as one integer, 0 for the zero term."""
    scalar = scalar % p
    return np.where(scalar > 0, target * p + scalar, 0)


def _check_leibniz(page, table):
    """Certify that the round differential d, read from its table, is a
    derivation of the whole page; returns the number of (generator,
    monomial) pairs checked.  d and the product send a monomial to at
    most one monomial, so for a generator g the rule is one array
    identity over the page: d(g m) is at most one term, d(g) m and
    g d(m) are at most two, merged when their targets agree.

    Generation.  Before round s the page monomials are the digit vectors
    (below p by the encoding) with slots 1..s-1 pinned at 0 (no sigma y)
    or at p-1 (with sigma y), which is checked of every monomial.
    Let zeta and g_j be the monomials with a single 1 in slot 0 and in
    slot j >= s, and w_s the round cycle (slots 1..s-1 at p-1, sigma y).
    Then g_j^a = a! * (digit a in slot j), a! is a unit mod p for a < p,
    and multiplying by w_s has scalar 1, so every page monomial is a
    unit times a word in these generators.  Each generator is itself a
    page monomial, which is asserted.

    Closure.  A product of two page monomials is zero or a scalar times
    a page monomial: two sigma y factors give zero, otherwise the pinned
    slots add to 0 + 0 or 0 + (p-1), and any other slot carries (the
    table C gives zero) or stays below p.  The check that g * m is zero
    or on the page for every pair it visits is all the induction uses.

    Induction.  Suppose the rule holds for (g, m) for every generator g
    and every page monomial m; by linearity it holds for g against any
    combination of page monomials.  It follows for (u, m) with u any word
    in the generators, by induction on the length of u.  For u = g u',
    closure makes u' = u' * 1 and u' m multiples of page monomials or
    zero, and the product is associative (digitwise it multiplies
    multinomial coefficients), so

        d(u m) = d(g) u' m + (-1)^|g| g d(u' m)
               = d(g) u' m + (-1)^|g| g (d(u') m + (-1)^|u'| u' d(m))
               = (d(g) u' + (-1)^|g| g d(u')) m + (-1)^|u| u d(m)
               = d(u) m + (-1)^|u| u d(m),

    using the rule for (u', m) in the second line and for (g, u') in the
    last.  Every page monomial x is a unit times a word, so the rule holds
    for every pair (x, y) of page monomials.  That is stronger than
    checking all pairs inside the window, which is not closed under the
    product.
    """
    p, S, s = page.p, page.S, page.next_round
    idx, (scalar, target) = page.indices, table
    lucas, pos = _lucas_table(p), _positions(page)
    gens = [1] + [p ** j for j in range(s, S)] + [p ** s - p + p ** S]  # zeta, g_j, w_s
    _fail_at(pos[gens] < 0, lambda k: "generator %s is not on the page at round %d"
             % (_decode([gens[k]], p, S)[0], s))
    mons, d_mons = _split(idx, p, S), _split(target, p, S)
    _fail_at(~_pinned(mons, p, 1, s),
             lambda i: "%s is not generated at round %d" % (page.monomials[i], s))
    for g in gens:
        c, gm = _multiply(g, mons, lucas)
        at = pos[gm]
        _fail_at((gm >= 0) & (at < 0), lambda i: "%s * %s leaves the page at round %d"
                 % (_decode([g], p, S)[0], page.monomials[i], s))
        lhs = _key(c * scalar[at], target[at], p)  # d(g m); all gm are on the page now
        c1, t1 = _multiply(target[pos[g]], mons, lucas)  # d(g) m
        c2, t2 = _multiply(g, d_mons, lucas)  # g d(m)
        c1, c2 = scalar[pos[g]] * c1, (-1 if g >= p ** S else 1) * scalar * c2
        same = t1 == t2
        k1, k2 = _key(np.where(same, c1 + c2, c1), t1, p), np.where(same, 0, _key(c2, t2, p))
        _fail_at((np.minimum(k1, k2) != 0) | (np.maximum(k1, k2) != lhs),
                 lambda i: "Leibniz fails on %s, %s at round %d"
                 % (_decode([g], p, S)[0], page.monomials[i], s))
    return len(gens) * len(idx)


def _run_round(page):
    """Execute the differential on this page and return the next page.

    d is read from its table.  The certificate checks that every target
    is on the page, that no target has a nonzero d (d o d = 0), that
    every target sits in its source's bidegree plus `shift`, and that the
    monomials d neither leaves nor reaches are exactly the predicted
    survivors.  The bidegree of the index m + eps p^S is linear in
    (eps, m), so `shift` is: eps goes up by one, the index by p^S - p.

    That is enough.  Page monomials have digits below p (the index
    encoding has no others), so a bidegree (eps + m, -2 eps - m) fixes
    eps (s + t = -eps), then m, then the digits: each bidegree holds at
    most one page monomial.  d moves every bidegree by the same shift,
    so two sources with one target would share a bidegree: d is
    injective on its support.  No source is a
    target, since targets have d = 0.  So each source x spans with
    d x = c y, c a unit, an acyclic pair span{x, y}, and the page is the
    direct sum of these pairs and of the lines on the monomials d neither
    leaves nor reaches.  Those monomials are cycles, none is a boundary,
    and they span the homology, which the next page adopts as its basis.
    """
    p, S, s, idx = page.p, page.S, page.next_round, page.indices
    scalar, target = table = _differential_table(page)
    source, at = target >= 0, _positions(page)[target]
    shift = (-(p - 1), p - 2)  # bidegree move of the realized differential
    _fail_at(source & (at < 0), lambda i: "differential leaves the page basis")
    _fail_at(source & (target[at] >= 0), lambda i: "d o d is nonzero at round %d" % s)
    _fail_at(source & ((target // p ** S != 1 + idx // p ** S) | (target - idx != p ** S - p)),
             lambda i: "d moves %s to %s, not by %s"
             % (page.monomials[i], _decode([target[i]], p, S)[0], shift))

    leibniz_checked = _check_leibniz(page, table)

    survives = ~source
    survives[at[source]] = False
    if not np.array_equal(survives, _pinned(_split(idx, p, S), p, 1, s + 1)):
        raise AssertionError("round %d: homology is not the predicted survivors" % s)
    new_page = BigradedPage(p=p, S=S, index=_nominal_index(p, s) + 1, next_round=s + 1,
                            indices=idx[survives])
    record = RoundRecord(  # one monomial per bidegree: a cell per source
        round=s, nominal_index=_nominal_index(p, s), dim_before=len(idx),
        dim_after=new_page.total_dimension, cells_with_differential=int(source.sum()),
        d_squared_zero=True, leibniz_pairs_checked=leibniz_checked,
        euler_before=page.euler(), euler_after=new_page.euler(),
    )
    if record.euler_before != record.euler_after:
        raise AssertionError("Euler characteristic changed across the round")
    return replace(new_page, record=record)


def turn_pages(page, rounds):
    """Run the next `rounds` rounds; returns the page history starting
    with the input page."""
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if page.next_round + rounds - 1 > page.S - 1:
        raise CutoffError(
            "cutoff S = %d supports %d rounds, requested through round %d"
            % (page.S, page.S - 1, page.next_round + rounds - 1)
        )
    history = [page]
    for _ in range(rounds):
        history.append(_run_round(history[-1]))
    return history


@dataclass(frozen=True)
class EmssReport:
    p: int
    S: int
    window: int  # assertions cover filtration degree <= window
    verdict: str  # MATCH or INCONCLUSIVE
    survivors: tuple
    total_dim: int
    pages: tuple
    notes: str


def final_page_report(p, S):
    """Run all rounds the cutoff supports and compare the in-window
    survivors with the powers of zeta.

    A cutoff of 0 or 1 leaves no room for even one round; the report is
    then INCONCLUSIVE rather than a guess.  A p that is not an odd prime,
    a negative cutoff or a first page past PAGE_LIMIT is refused first.
    """
    _check_odd_prime(p)
    if S < 0:
        raise ValueError("cutoff S must be >= 0")
    if S < 2:
        return EmssReport(
            p=p,
            S=S,
            window=0,
            verdict="INCONCLUSIVE",
            survivors=(),
            total_dim=0,
            pages=(),
            notes="cutoff too small to run any round",
        )
    history = turn_pages(initial_page(p, S), S - 1)
    window = p ** (S - 1)
    last = history[-1].indices
    # filtration degree s = eps + m of the index eps p^S + m
    in_window = last[last // p ** S + last % p ** S <= window]
    if not np.array_equal(in_window, np.arange(p)):  # 1, zeta, ..., zeta^(p-1)
        raise AssertionError("in-window survivors are not the zeta powers")
    # zeta truncation height p: zeta^a * zeta is nonzero exactly below
    # a = p - 1, where slot zero overflows
    scalar, _ = _multiply(1, _split(in_window, p, S), _lucas_table(p))
    if scalar[-1] or not scalar[:-1].all():
        raise AssertionError("zeta powers should be nonzero exactly below p")
    return EmssReport(
        p=p,
        S=S,
        window=window,
        verdict="MATCH",
        survivors=_decode(in_window, p, S),
        total_dim=len(in_window),
        pages=tuple(history),
        notes="survivors in the window form a truncated polynomial algebra on zeta",
    )
