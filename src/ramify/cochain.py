"""Finite quotient rings presented by a p-series relation.

Given a formal group law F over Z or over Z/p^N, the r-th ring in the
tower is

    A_r = (Z/p^N)[y] / (w_r(y)),    w_r(y) = y * g_r(y),

where g_r is the distinguished (monic, degree p^(rn) - 1) Weierstrass
factor of the cofactor q_r(y) = [p^r](y)/y.  Elements are canonical
coefficient vectors of length rank = p^(rn).  A product is the
convolution of two such vectors mod p^N (coeff.mul_list), reduced
like a long series by one Euclidean division by w over the nonzero
terms of w (coeff.divmod_monic), so every ring operation is exact mod
p^N.  Arrays take the dtype coeff.dtype_for gives for p^N and rank.

Tail bound.  Reducing a coefficient y^m by w drops its degree by at
most deg(w) - 1 per step while gaining a factor of p each step (every
non-leading coefficient of w lies in (p) and the constant term is zero,
as the ring constructor checks), so every coefficient of degree
(N + 1)(rank - 1) + 1 or more reduces to 0 mod p^N.  Euclidean division
therefore cuts its input there, and a truncated input is accepted only
when its known prefix reaches that length, which pins its image.

Each A_r reads q_r from the p-series of length
minimum_series_precision(p, n, r, N), the margin the Weierstrass step
needs to be reliable, even when the law's M is larger because the law
was sized for a higher ring of the tower.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import artin
from .coeff import ContextMismatch, divmod_monic, dtype_for, mul_list, padic_context
from .fgl import (
    FormalGroupLaw,
    PrecisionError,
    TruncatedSeries,
    WeierstrassError,
    exact_quotient_by_y,
    validated_series,
    weierstrass_preparation,
)

__all__ = [
    "CyclicCochainRing",
    "RingElement",
    "RingMorphism",
    "MorphismError",
    "minimum_series_precision",
    "make_cochain_ring",
    "mod_m_reduction",
    "substitution_map",
]


class MorphismError(Exception):
    """A verified homomorphism property failed; hard error."""


def minimum_series_precision(p, n, r, N, polynomial_pseries):
    """Least working precision M a law needs before A_r can be built.

    Polynomial p-series are exact, so M only has to contain the
    relation itself.  Truncated p-series additionally pay for the
    Weierstrass factorization (N + 2 coefficients of working length
    per degree of the distinguished factor) plus enough surviving unit
    length to re-multiply the factorization through degree rank + 1.
    """
    rank = p ** (r * n)
    if polynomial_pseries:
        return rank + 1
    return (N + 2) * (rank - 1) + 4


@dataclass(frozen=True)
class RingElement:
    """Canonical representative: coefficient tuple of length ring.rank,
    entries reduced to 0..p^N - 1."""

    ring: "CyclicCochainRing"
    coeffs: tuple

    def _check_owner(self, other):
        if self.ring is not other.ring:
            raise ValueError("elements belong to different rings")

    def __add__(self, other):
        self._check_owner(other)
        m = self.ring.modulus
        return RingElement(
            self.ring,
            tuple((a + b) % m for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __mul__(self, other):
        self._check_owner(other)
        return RingElement(self.ring, self.ring._product(self.coeffs, other.coeffs))

    @property
    def is_zero(self):
        return all(a == 0 for a in self.coeffs)

    def __repr__(self):
        terms = []
        for i, a in enumerate(self.coeffs):
            if a:
                terms.append("%d*y^%d" % (a, i) if i else str(a))
        return "<%s>" % (" + ".join(terms) if terms else "0")


class CyclicCochainRing:
    """(Z/p^N)[y]/(w(y)) with w monic of degree rank = p^(rn).

    Use make_cochain_ring to construct one.  The constructor checks the
    shape of w, the one check of it for either kind of law: monic of
    degree rank, zero constant term, and w = y^rank mod p.
    """

    def __init__(self, fgl, r, context, w_coeffs, unit_series, distinguished):
        self.fgl = fgl
        self.p = fgl.p
        self.n = fgl.n
        self.r = r
        self.context = context
        self.modulus = context.modulus
        self.rank = fgl.p ** (r * fgl.n)
        self.w_coeffs = tuple(int(c) % self.modulus for c in w_coeffs)
        self.unit_series = unit_series
        self.distinguished = distinguished
        self._check_relation()
        self.dtype = dtype_for(self.modulus, self.rank)
        # the nonzero (j, w_j) below y^rank, and the input length past
        # which every coefficient vanishes mod p^N (module docstring)
        self._w_terms = [(j, c) for j, c in enumerate(self.w_coeffs[:-1]) if c]
        self._tail = (context.prec + 1) * (self.rank - 1) + 1
        self.q_elt = None  # installed by make_cochain_ring

    def _check_relation(self):
        w, rank, p = self.w_coeffs, self.rank, self.p
        if len(w) != rank + 1:
            raise WeierstrassError("relation has wrong degree")
        if w[rank] != 1:
            raise WeierstrassError("relation is not monic")
        if w[0] != 0:
            raise WeierstrassError("relation must have zero constant term")
        for j in range(rank):
            if w[j] % p:
                raise WeierstrassError("relation is not congruent to y^rank mod p")

    # -- canonical reduction

    def _product(self, a, b):
        """Canonical tuple of a * b for canonical coefficient vectors:
        their whole product, 2 rank - 1 terms, reduced by _reduce_poly."""
        return self._reduce_poly(mul_list(a, b, self.modulus, 2 * self.rank - 1))

    def _reduce_poly(self, coeffs):
        """Canonical tuple of an integer coefficient list mod w: the
        remainder of coeff.divmod_monic by w's nonzero terms below y^rank,
        of the input cut where the tail bound (module docstring) puts it."""
        _, rem = divmod_monic(coeffs[: self._tail], self._w_terms, self.rank, self.modulus)
        return tuple(rem)

    def _times_y(self, x):
        """y * x for a canonical tuple x, in closed form from w_coeffs
        and no division: x shifted up one degree, minus x_(rank-1)
        times w below y^rank."""
        m, top = self.modulus, x[-1]
        return tuple((a - top * c) % m for a, c in zip((0,) + x[:-1], self.w_coeffs))

    # -- element constructors

    def element(self, coeffs):
        return RingElement(self, self._reduce_poly(coeffs))

    @cached_property
    def one(self):
        return self.element([1])

    @cached_property
    def y_elt(self):
        return self.element([0, 1])

    def from_series(self, series):
        """Image of a truncated series.

        Exact polynomial series over an integer context reduce
        directly.  A non-exact series must match the ring context and
        know the prefix that the tail bound (module docstring) asks.
        """
        if not isinstance(series, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if series.exact:
            if series.context.kind == "int" or series.context == self.context:
                return self.element(series.coeffs)
            raise ContextMismatch("cannot reduce an exact series over %s" % series.context.describe())
        if series.context != self.context:
            raise ContextMismatch("series context does not match the ring")
        if len(series.coeffs) < self._tail:
            raise PrecisionError(
                "series has %d known coefficients, need %d to pin the image"
                % (len(series.coeffs), self._tail)
            )
        return self.element(series.coeffs)

    # -- structure maps

    def augmentation(self, elt):
        """Evaluation at y = 0; a ring map because w(0) = 0."""
        if elt.ring is not self:
            raise ValueError("element belongs to a different ring")
        return elt.coeffs[0]

    def __repr__(self):
        return "CyclicCochainRing(p=%d, n=%d, r=%d, N=%d)" % (
            self.p,
            self.n,
            self.r,
            self.context.prec,
        )


def make_cochain_ring(F, r, N=8):
    """Build A_r from the law F at p-adic precision N.

    Validates the precision budget, factors q_r, installs the monic
    relation w = y * g_r, and certifies y * q_r = 0 in A_r.  q_r comes
    from the p-series of length M = minimum_series_precision(p, n, r,
    N), which F solves and certifies at that length even when its own
    M, sized for a higher ring, is larger.  Both lengths give [p^r](y)
    mod p^N, so the shorter series is a prefix of the longer, and the
    uniqueness below gives both the same g_r.

    The augmentation of q_r, p^r, is not checked again here.  w has zero
    constant term, so _reduce_poly never changes coefficient 0, and
    that coefficient is the coefficient of y in [p^r](y), which
    fgl.certify_honda_pseries (or the closed form of the multiplicative
    law) already fixes.

    The identity y * q_r = 0 certifies g_r.  q_r is reduced to rho by
    _reduce_poly, whose division coeff.divmod_monic is also the division
    step of the Hensel lifting in fgl.weierstrass_preparation, so the
    certificate trusts that division to give rho = q_r mod w.  y * rho
    is read by _times_y, in closed form from w_coeffs with no division.
    Let d = rank - 1 and c be q_r below y^T, T = (N + 1) d + 1, where
    _reduce_poly cuts the M - 1 known coefficients.  What it uses:
      - g = g_r is monic of degree d with lower terms in (p), which the
        ring constructor checks on w;
      - q_r has its first unit coefficient at degree d: preparation
        reads d off that coefficient, and deg g = d;
      - T >= N d, and M - 1 >= T for a truncated q_r.
    If rho = c mod w has y rho = 0 in A_r, then y rho = rho_d w, so
    rho = rho_d g and c = g (y tau + rho_d) mod p^N for the quotient
    tau.  In Lambda = Z_p[y]/(g), g lifted to Z_p, y^d = y^d - g lies
    in p Lambda, so y^T lies in p^N Lambda, and q_r = c + O(y^T) is
    g v + p^N rho' with deg rho' < d.  With q_r = G U its Weierstrass
    factorization, G monic of degree d, G = g v U^-1 + p^N rho' U^-1
    and deg(G - g) < d, so uniqueness of division by g
    (Washington, Introduction to Cyclotomic Fields, 7.1) gives G = g
    mod p^N: g is the distinguished factor.  A polynomial q_r is its own
    distinguished factor, with unit 1.
    """
    if not isinstance(F, FormalGroupLaw):
        raise TypeError("expected a FormalGroupLaw")
    if r < 1:
        raise ValueError("r must be >= 1")
    if r >= N:
        raise ValueError("need r < N so that p^r is a nonzero canonical lift")
    if (r, N) in F._ring_cache:
        return F._ring_cache[(r, N)]

    p, n = F.p, F.n
    polynomial = F.kind == "multiplicative"
    need = minimum_series_precision(p, n, r, N, polynomial)
    if F.M < need:
        raise PrecisionError(
            "insufficient precision: law has M=%d, building A_%d at N=%d needs M>=%d"
            % (F.M, r, N, need)
        )
    context = padic_context(p, N)
    if not polynomial and F.context != context:
        raise ContextMismatch(
            "law context %s does not match requested N=%d"
            % (F.context.describe(), N)
        )

    q_series = exact_quotient_by_y(F.p_series(r, need))

    if polynomial:
        # q_r = ((1+y)^(p^r) - 1)/y is already monic and distinguished
        dist = validated_series(context, q_series.coeffs, True)
        unit = TruncatedSeries(context, (1,), True)
    else:
        wf = weierstrass_preparation(q_series)
        dist, unit = wf.distinguished, wf.unit

    ring = CyclicCochainRing(F, r, context, (0,) + dist.coeffs, unit, dist)
    q_elt = ring.element(q_series.coeffs)
    ring.q_elt = q_elt

    if any(ring._times_y(q_elt.coeffs)):
        raise WeierstrassError("y * q_r is nonzero in the quotient ring")

    F._ring_cache[(r, N)] = ring
    return ring


def mod_m_reduction(ring):
    """Reduce A_r mod p: the result is F_p[y]/(y^rank) presented as a
    FinAlgebra with every basis element in parity zero.  That is the
    reduction because w = y^rank mod p, which the ring's constructor
    checks."""
    return artin.truncated_polynomial_algebra(ring.p, ring.rank)


@dataclass(frozen=True, eq=False)
class RingMorphism:
    """phi: A_1 -> A_k determined by y |-> [p^(k-1)](y).

    cofactor is the image Q of q_(k-1), so that phi(y) = y * Q; row i
    of the rank_1 x rank_k matrix powers is phi(y^i), so phi of an
    element is its coefficient vector times powers.
    """

    source: CyclicCochainRing
    target: CyclicCochainRing
    k: int
    image_of_y: RingElement
    cofactor: RingElement
    powers: np.ndarray

    def apply(self, elt):
        if elt.ring is not self.source:
            raise ValueError("element does not belong to the source ring")
        ring = self.target
        img = (np.asarray(elt.coeffs, ring.dtype) @ self.powers) % ring.modulus
        return RingElement(ring, tuple(img.tolist()))


def _powers_matrix(x, count):
    """Rows x^0, ..., x^(count - 1) as coefficient vectors."""
    rows = [x.ring.one]
    for _ in range(count - 1):
        rows.append(rows[-1] * x)
    return np.array([e.coeffs for e in rows], x.ring.dtype)


def substitution_map(F, k, N=8):
    """The tower map A_1 -> A_k induced by y |-> [p^(k-1)](y).

    Verified on construction: y * q_(k-1) equals [p^(k-1)](y) in A_k,
    the image of the degree-one relation w_1 vanishes in A_k, and the
    map kills nothing (full column rank mod p).  Violations raise
    MorphismError.  The image y * q_(k-1) of y augments to zero with no
    check: the augmentation is a ring map because w(0) = 0, which
    _check_relation certifies, and y augments to zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ak = make_cochain_ring(F, k, N)
    if k == 1:
        cof = ak.one
        y_img = ak.y_elt
    else:
        series = F.p_series(k - 1)  # before A_1, whose shorter request reads its prefix
        cof = ak.from_series(exact_quotient_by_y(series))
        y_img = ak.y_elt * cof
        # same element, computed from the p-series directly
        if y_img != ak.from_series(series):
            raise MorphismError("y * q_(k-1) disagrees with [p^(k-1)]y in A_k")
    a1 = make_cochain_ring(F, 1, N)

    phi = RingMorphism(
        source=a1,
        target=ak,
        k=k,
        image_of_y=y_img,
        cofactor=cof,
        powers=_powers_matrix(y_img, a1.rank),
    )

    # phi(w_1) = phi(w_1 - y^rank_1) + phi(y)^rank_1 = 0 in A_k
    top = RingElement(ak, tuple(phi.powers[-1].tolist())) * y_img
    if not (phi.apply(RingElement(a1, a1.w_coeffs[:-1])) + top).is_zero:
        raise MorphismError("image of the source relation w_1 is nonzero")

    # injectivity mod p^N follows from full column rank mod p
    _, piv = artin.rref((phi.powers.T % F.p).astype(np.int64), F.p)
    if len(piv) != a1.rank:
        raise MorphismError("tower map is not injective")
    return phi
