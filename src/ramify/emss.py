"""Divided-power page mechanics for the cyclic-group Eilenberg-Moore
spectral sequence at an odd prime.

The starting page is Gamma(sigma z) tensor Lambda(sigma y).  A divided
power gamma_m(sigma z) is encoded by the base-p digits of m, one slot
per gamma_{p^j} and a cutoff at gamma_{p^S}; sigma z itself is the
slot-zero generator and survives to the end as zeta.  A page holds its
monomials as a sorted int32 array of indices

    idx = a_0 + a_1 p + ... + a_(S-1) p^(S-1) + eps p^S,

a_j the digit in slot j and eps the sigma y exponent; PAGE_LIMIT bounds
their number.  Products carry the binomial C(a+b, a) in every slot.  For
x and y with at most one sigma y factor, Kummer's theorem says no slot
carries exactly when the base-p digit sums satisfy D(x + y) = D(x) +
D(y); a carry makes the binomial, so the product, zero mod p.  Without
one the scalar is prod_j C(a_j + b_j, a_j) = F(x + y) / (F(x) F(y)), F
the product of the digits' factorials, a unit mod p as digits are below
p.  So any array of products is a few lookups in tables of D, F and
1/F over the indices below 2 p^S: target x + y, zero on a carry or a
second sigma y factor (x + y >= 2 p^S, where F is 0).  The arithmetic is
int32: table products stay below p^3 and the Leibniz check's term keys
target * p + scalar below PAGE_LIMIT * p < 2^31, as a page of S >= 2
slots has 2 p^2 <= PAGE_LIMIT.

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
Monomials whose lower slots are off-pattern die automatically: their
product with w_s carries.

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
# takes about 0.8 s and 70 MB in a fresh process on one x86 core.
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


def _index_tables(p, S):
    """Product tables over the indices t < 4 p^S: (p, D, F, 1/F), D the
    base-p digit sum of t and F the product of its digits' factorials mod
    p for t < 2 p^S; past that F = 1/F = 0, which also covers index -1."""
    units = [math.factorial(a) % p for a in range(p)]
    digit = np.array([range(p), units, [pow(u, -1, p) for u in units]], dtype=np.int32)
    tables = np.array([[0], [1], [1]], dtype=np.int32)
    for top in [p] * S + [2]:  # a new leading digit; slot S is the sigma y exponent
        d, t = digit[:, :top, None], tables[:, None, :]
        tables = np.concatenate([d[:1] + t[:1], d[1:] * t[1:] % p]).reshape(3, -1)
    return (p,) + tuple(np.hstack([tables, 0 * tables]))


def _multiply(x, y, tables):
    """The products of monomial indices x and y, broadcast against each
    other (-1 is the zero monomial), as (scalar, target) with target -1
    where the product is zero; see the module docstring."""
    p, digit_sum, fact, inv_fact = tables
    xy = x + y
    scalar = fact[xy] * (digit_sum[xy] == digit_sum[x] + digit_sum[y]) * (
        inv_fact[x] * inv_fact[y]) % p
    return scalar, np.where(scalar > 0, xy, -1)


def _decode(idx, p, S):
    rest, digits = np.asarray(idx, dtype=np.int64), []
    for _ in range(S):
        rest, d = np.divmod(rest, p)
        digits.append(d)
    return tuple(DPBasisElement(tuple(d), e)
                 for d, e in zip(np.stack(digits, axis=-1).tolist(), rest.tolist()))


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
    return BigradedPage(p=p, S=S, index=2, next_round=1, indices=np.arange(size, dtype=np.int32))


def _pinned(idx, p, S, lo, hi):
    """Slots lo..hi-1 at 0 (no sigma y) or p-1 (with sigma y)."""
    block = p ** (hi - lo)
    return idx // p ** lo % block == idx // p ** S * (block - 1)


def _positions(page):
    """Page position of each index, -1 off the page and for index -1."""
    pos = np.full(2 * page.p ** page.S + 1, -1, dtype=np.int32)
    pos[page.indices] = np.arange(len(page.indices), dtype=np.int32)
    return pos


def _fail_at(bad, message):
    """Raise message(*i) at the first index tuple i where the mask bad holds."""
    if bad.any():
        raise AssertionError(message(*np.unravel_index(np.argmax(bad), bad.shape)))


def _differential_table(page, tables):
    """The round differential as (scalar, target) arrays over the page,
    target -1 where d vanishes: slot s lowered by one, times w_s."""
    p, S, s, idx = page.p, page.S, page.next_round, page.indices
    lowered = np.where((idx < p ** S) & (idx // p ** s % p > 0), idx - p ** s, -1)
    return _multiply(p ** s - p + p ** S, lowered, tables)  # w_s: slots 1..s-1 at p-1, sigma y


def _key(scalar, target, p):
    """A term scalar * target as one integer, 0 for the zero term."""
    scalar = scalar % p
    return np.where(scalar > 0, target * p + scalar, 0)


# Most (generator, monomial) pairs in one _check_leibniz block, or one row.
_BLOCK_PAIRS = 2 ** 14


def _check_leibniz(page, table, tables, pos):
    """Certify that the round differential d, read from its table, is a
    derivation of the whole page; returns the number of (generator,
    monomial) pairs checked.  d and the product send a monomial to at
    most one monomial, so the rule is one array identity over the grid
    of generators g (rows, in blocks of at most _BLOCK_PAIRS pairs or
    one row) against the page m: d(g m) is at most one term, d(g) m and
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
    product is zero) or stays below p.  The check that g * m is zero
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
    idx, (scalar, target), q = page.indices, table, p ** S
    gens = np.array([1] + [p ** j for j in range(s, S)] + [p ** s - p + q], dtype=np.int32)
    _fail_at(pos[gens] < 0, lambda k: "generator %s is not on the page at round %d"
             % (_decode([gens[k]], p, S)[0], s))
    _fail_at(~_pinned(idx, p, S, 1, s),
             lambda i: "%s is not generated at round %d" % (page.monomials[i], s))
    block = max(1, _BLOCK_PAIRS // len(idx))
    for g in (gens[k:k + block, None] for k in range(0, len(gens), block)):
        c, gm = _multiply(g, idx, tables)  # one row per generator, one column per monomial
        at = pos[gm]
        leaves = (gm >= 0) & (at < 0)
        lhs = _key(c * scalar[at], target[at], p)  # d(g m), read only where gm is on the page
        c1, t1 = _multiply(target[pos[g]], idx, tables)  # d(g) m
        c2, t2 = _multiply(g, target, tables)  # g d(m)
        c1, c2 = scalar[pos[g]] * c1, np.where(g >= q, -scalar, scalar) * c2
        same = t1 == t2
        k1, k2 = _key(np.where(same, c1 + c2, c1), t1, p), np.where(same, 0, _key(c2, t2, p))
        fails = (np.minimum(k1, k2) != 0) | (np.maximum(k1, k2) != lhs)
        # per generator: closure over the page, then the rule
        _fail_at(np.stack([leaves, fails], axis=1), lambda k, rule, i: (
            "Leibniz fails on %s, %s at round %d" if rule else "%s * %s leaves the page at round %d")
            % (_decode(g[k], p, S)[0], page.monomials[i], s))
    return len(gens) * len(idx)


def _run_round(page, tables):
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
    A pair's source has eps = 0 and its target eps = 1, so it adds 0 to
    euler(), and euler_after = euler_before holds with no check.
    """
    p, S, s, idx = page.p, page.S, page.next_round, page.indices
    scalar, target = table = _differential_table(page, tables)
    pos = _positions(page)
    source, at = target >= 0, pos[target]
    shift = (-(p - 1), p - 2)  # bidegree move of the realized differential
    _fail_at(source & (at < 0), lambda i: "differential leaves the page basis")
    _fail_at(source & (target[at] >= 0), lambda i: "d o d is nonzero at round %d" % s)
    _fail_at(source & ((target // p ** S != 1 + idx // p ** S) | (target - idx != p ** S - p)),
             lambda i: "d moves %s to %s, not by %s"
             % (page.monomials[i], _decode([target[i]], p, S)[0], shift))

    leibniz_checked = _check_leibniz(page, table, tables, pos)

    survives = ~source
    survives[at[source]] = False
    if not np.array_equal(survives, _pinned(idx, p, S, 1, s + 1)):
        raise AssertionError("round %d: homology is not the predicted survivors" % s)
    new_page = BigradedPage(p=p, S=S, index=_nominal_index(p, s) + 1, next_round=s + 1,
                            indices=idx[survives])
    record = RoundRecord(  # one monomial per bidegree: a cell per source
        round=s, nominal_index=_nominal_index(p, s), dim_before=len(idx),
        dim_after=new_page.total_dimension, cells_with_differential=int(source.sum()),
        d_squared_zero=True, leibniz_pairs_checked=leibniz_checked,
        euler_before=page.euler(), euler_after=new_page.euler(),
    )
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
    history, tables = [page], _index_tables(page.p, page.S)
    for _ in range(rounds):
        history.append(_run_round(history[-1], tables))
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
    history = turn_pages(initial_page(p, S), S - 1)  # a page past PAGE_LIMIT is refused first
    window = p ** (S - 1)
    last = history[-1].indices
    # filtration degree s = eps + m of the index eps p^S + m
    in_window = last[last // p ** S + last % p ** S <= window]
    if not np.array_equal(in_window, np.arange(p)):  # 1, zeta, ..., zeta^(p-1)
        raise AssertionError("in-window survivors are not the zeta powers")
    # zeta truncation height p: zeta^a * zeta is nonzero exactly below
    # a = p - 1, where slot zero overflows.  Only slot zero is in play, so
    # the one-slot tables read it: zeta^(p-1) * zeta is index p there,
    # sigma y alone, whose digit sum 1 shows the carry.
    scalar, _ = _multiply(1, in_window, _index_tables(p, 1))
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
