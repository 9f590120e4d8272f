"""Divided-power page mechanics for the cyclic-group Eilenberg-Moore
spectral sequence at an odd prime.

The starting page is Gamma(sigma z) tensor Lambda(sigma y).  A divided
power gamma_m(sigma z) is encoded by the base-p digits of m, one slot
per gamma_{p^j} and a cutoff at gamma_{p^S}; sigma z itself is the
slot-zero generator and survives to the end as zeta.  Products carry
the binomial scalar C(i+j, i) evaluated digitwise (Lucas), with any
slot overflow giving zero.

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

Every round is certified from one table of the differential's nonzero
values, one evaluation per page monomial.  A bidegree holds at most
one page monomial, so the table is a monomial complex: the certificate
checks that targets lie on the page in the shifted bidegree and carry
no differential, and that the monomials d neither leaves nor reaches
are exactly the predicted survivors, before the next page adopts them
as a basis.  Monomials whose lower slots are off-pattern die
automatically: the binomial against w_s overflows.

The cutoff makes assertions trustworthy only in the window of
filtration degree at most p^(S-1); classes touching slot S-1's top
range sit outside it.  The final report therefore speaks only about
the window, where the survivors are exactly the powers of zeta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .coeff import _is_prime

__all__ = [
    "CutoffError",
    "DPBasisElement",
    "dp_multiply",
    "BigradedPage",
    "RoundRecord",
    "initial_page",
    "round_differential",
    "turn_pages",
    "EmssReport",
    "final_page_report",
]


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

    @property
    def total_degree(self):
        # s + t collapses to minus the exterior exponent
        return -self.eps

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


@dataclass(frozen=True)
class BigradedPage:
    """One page: a basis of monomials plus the round whose
    differential acts on it next.  Between the nominal indices of
    consecutive rounds every differential vanishes, so pages are only
    materialized at the indices where something happens."""

    p: int
    S: int
    index: int  # nominal page index
    next_round: int  # 1-based round whose differential lives here
    monomials: tuple
    record: RoundRecord = None  # how this page was produced, None for E2

    def dimension(self, s, t):
        return sum(1 for m in self.monomials if m.bidegree(self.p) == (s, t))

    @property
    def total_dimension(self):
        return len(self.monomials)

    def euler(self):
        # alternating sum over total degree; only 0 and -1 occur
        return sum(1 if m.eps == 0 else -1 for m in self.monomials)

    def differential(self, x):
        return round_differential(x, self.p, self.S, self.next_round)


def _check_odd_prime(p):
    if p == 2:
        raise ValueError("only odd primes are supported here")
    if not _is_prime(p):
        raise ValueError("p must be prime")


def initial_page(p, S):
    """The full divided-power page: all digit vectors times the
    exterior factor, page index 2."""
    _check_odd_prime(p)
    if S < 2:
        raise ValueError("cutoff S must be >= 2")
    mons = tuple(
        DPBasisElement(exps, eps)
        for exps in itertools.product(range(p), repeat=S)
        for eps in (0, 1)
    )
    return BigradedPage(p=p, S=S, index=2, next_round=1, monomials=mons)


def _survivor_pattern(p, s, mono):
    """After round s: lower gamma slots pinned at 0 (even part) or
    p-1 (exterior part)."""
    want = 0 if mono.eps == 0 else p - 1
    return all(mono.exponents[j] == want for j in range(1, s + 1))


def _page_generators(page):
    """Algebra generators of the page before round s: zeta (slot 0), the
    digit monomials gamma_{p^j} for j >= s, and the round cycle w_s."""
    p, S, s = page.p, page.S, page.next_round

    def digit(j):
        return DPBasisElement(tuple(int(i == j) for i in range(S)), 0)

    return (digit(0),) + tuple(digit(j) for j in range(s, S)) + (_round_cycle(p, S, s),)


def _differential_table(page):
    """The round differential on the page as {x: (scalar, d x)}: one
    evaluation per page monomial, nonzero values only."""
    table = {}
    for x in page.monomials:
        scal, tgt = page.differential(x)
        if tgt is not None and scal % page.p:
            table[x] = (scal % page.p, tgt)
    return table


def _product(a, x, y, p):
    """a x y as one (scalar, monomial) term; None is the zero monomial."""
    if x is None or y is None:
        return 0, None
    c, xy = dp_multiply(x, y, p)
    return a * c, xy


def _sum_terms(p, *terms):
    """Sum of (scalar, monomial) terms as {monomial: nonzero coefficient}."""
    out = {}
    for c, m in terms:
        if m is not None:
            out[m] = (out.get(m, 0) + c) % p
    return {m: c for m, c in out.items() if c}


def _check_leibniz(page, table):
    """Certify that the round differential d, read from its table, is a
    derivation of the whole page; returns the number of (generator,
    monomial) pairs checked.  d and the product send a monomial to at
    most one monomial, so each side of the rule is a sum of at most two
    (scalar, monomial) terms.

    Generation.  Before round s the page monomials are the digit vectors
    with slots 1..s-1 pinned at 0 (no sigma y) or at p-1 (with sigma y),
    every other slot in 0..p-1; the loop checks this of every monomial.
    Let zeta and g_j be the monomials with a single 1 in slot 0 and in
    slot j >= s, and w_s the round cycle (slots 1..s-1 at p-1, sigma y).
    Then g_j^a = a! * (digit a in slot j), a! is a unit mod p for a < p,
    and multiplying by w_s has scalar 1, so every page monomial is a
    unit times a word in these generators.  Each generator is itself a
    page monomial, which is asserted.

    Closure.  A product of two page monomials is zero or a scalar times
    a page monomial: two sigma y factors give zero, otherwise the pinned
    slots add to 0 + 0 or 0 + (p-1), and any other slot overflows to zero
    or stays below p.  The loop checks that g * m is zero or on the page
    for every pair it visits, which is all the induction uses.

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
    p, s = page.p, page.next_round
    on_page = set(page.monomials)
    gens = _page_generators(page)
    for g in gens:
        if g not in on_page:
            raise AssertionError("generator %s is not on the page at round %d" % (g, s))
    zero = (0, None)
    d_gens = [(g, table.get(g, zero), -1 if g.eps else 1) for g in gens]
    pinned = ((0,) * (s - 1), (p - 1,) * (s - 1))
    checked = 0
    for m in page.monomials:
        if m.exponents[1:s] != pinned[m.eps] or max(m.exponents) >= p:
            raise AssertionError("%s is not generated at round %d" % (m, s))
        b, dm = table.get(m, zero)
        for g, (a, dg), sign in d_gens:
            c, gm = dp_multiply(g, m, p)
            if gm is not None and gm not in on_page:
                raise AssertionError("%s * %s leaves the page at round %d" % (g, m, s))
            e, dgm = table.get(gm, zero)
            rhs = _sum_terms(p, _product(a, dg, m, p), _product(sign * b, g, dm, p))
            if _sum_terms(p, (c * e, dgm)) != rhs:
                raise AssertionError("Leibniz fails on %s, %s at round %d" % (g, m, s))
            checked += 1
    return checked


def _run_round(page):
    """Execute the differential on this page and return the next page.

    d is read from its table.  The certificate checks that every target
    is on the page, that no target has a nonzero d (d o d = 0), that
    every target sits in its source's bidegree plus `shift`, and that the
    monomials d neither leaves nor reaches are exactly the predicted
    survivors.

    That is enough.  Page monomials have digits below p (initial_page
    builds them so, later pages are subsets, and _check_leibniz asserts
    it), so a bidegree (eps + m, -2 eps - m) fixes eps (s + t = -eps),
    then m, then the digits: each bidegree holds at most one page
    monomial.  d moves every bidegree by the same shift, so two sources
    with one target would share a bidegree: d is injective on its
    support.  No source is a
    target, since targets have d = 0.  So each source x spans with
    d x = c y, c a unit, an acyclic pair span{x, y}, and the page is the
    direct sum of these pairs and of the lines on the monomials d neither
    leaves nor reaches.  Those monomials are cycles, none is a boundary,
    and they span the homology, which the next page adopts as its basis.
    """
    p, S, s = page.p, page.S, page.next_round
    shift = (-(p - 1), p - 2)  # bidegree move of the realized differential
    table = _differential_table(page)
    on_page = set(page.monomials)
    for x, (_, y) in table.items():
        if y not in on_page:
            raise AssertionError("differential leaves the page basis")
        if y in table:
            raise AssertionError("d o d is nonzero at round %d" % s)
        (s0, t0), (s1, t1) = x.bidegree(p), y.bidegree(p)
        if (s1 - s0, t1 - t0) != shift:
            raise AssertionError("d moves %s to %s, not by %s" % (x, y, shift))

    leibniz_checked = _check_leibniz(page, table)

    targets = {y for _, y in table.values()}
    survivors = tuple(m for m in page.monomials if m not in table and m not in targets)
    if survivors != tuple(m for m in page.monomials if _survivor_pattern(p, s, m)):
        raise AssertionError("round %d: homology is not the predicted survivors" % s)

    new_page = BigradedPage(
        p=p,
        S=S,
        index=_nominal_index(p, s) + 1,
        next_round=s + 1,
        monomials=survivors,
        record=RoundRecord(
            round=s,
            nominal_index=_nominal_index(p, s),
            dim_before=len(page.monomials),
            dim_after=len(survivors),
            cells_with_differential=len({x.bidegree(p) for x in table}),
            d_squared_zero=True,
            leibniz_pairs_checked=leibniz_checked,
            euler_before=page.euler(),
            euler_after=sum(1 if m.eps == 0 else -1 for m in survivors),
        ),
    )
    if new_page.record.euler_before != new_page.record.euler_after:
        raise AssertionError("Euler characteristic changed across the round")
    return new_page


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
    then INCONCLUSIVE rather than a guess.  A p that is not an odd prime
    or a negative cutoff is refused first.
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
    last = history[-1]
    in_window = tuple(
        m for m in last.monomials if m.bidegree(p)[0] <= window
    )
    expected = {
        DPBasisElement((a,) + (0,) * (S - 1), 0) for a in range(p)
    }
    if set(in_window) != expected:
        raise AssertionError("in-window survivors are not the zeta powers")
    # zeta truncation height p: one more power overflows slot zero
    zeta = DPBasisElement((1,) + (0,) * (S - 1), 0)
    top = DPBasisElement((p - 1,) + (0,) * (S - 1), 0)
    if dp_multiply(top, zeta, p) != (0, None):
        raise AssertionError("zeta^p should vanish")
    for a in range(1, p):
        acc = zeta
        for _ in range(a - 1):
            scal, acc = dp_multiply(acc, zeta, p)
            if acc is None or scal % p == 0:
                raise AssertionError("zeta powers should be nonzero below p")
    return EmssReport(
        p=p,
        S=S,
        window=window,
        verdict="MATCH",
        survivors=in_window,
        total_dim=len(in_window),
        pages=tuple(history),
        notes="survivors in the window form a truncated polynomial algebra on zeta",
    )
