"""Formal group laws and truncated power series over exact contexts.

Two families are implemented: the multiplicative law F(x, y) =
x + y + x y with exact integer coefficients, and the Honda law of
height n at a prime p, whose logarithm is sum_i y^(p^(n i)) / p^i.

A Honda law is held by its logarithm.  With L = p^imax log truncated
below y^M, the p-series [p^r](y) solves L(psi) = p^r L(y) and the
formal sum a +_F b solves L(psi) = L(a) + L(b); one Newton solver
modulo p^(N + imax) does both.  L(zeta y) = zeta L(y) whenever
zeta^(p^n - 1) = 1, so [p^r](y) = y f(y^s) with s = p^n - 1, and the
solver works on the M/s coefficients of f, held in one numpy array.  A
Newton step makes one power chain f^(q_i - 1), q_i = p^(n i), that
gives both L(f) and the unit of its linear term, and lifts a carried
inverse of that unit: O(log M) convolutions at doubling lengths,
O((M/s)^2 log M) in all.
The p-series equation, checked on all M coefficients, then certifies
[p^r](y) mod p^N (proofs at _solve_log).  The multiplicative p-series
is the closed form (1 + y)^(p^r) - 1, and its formal sum is a + b + a b.

Weierstrass preparation factors a series with some unit coefficient as
(distinguished monic polynomial) * (unit series) by quadratic Hensel
lifting, in the variable y^t for t the gcd of the series' nonzero
degrees.  Lifting stops once the residual lies on the slope
p^min(N, floor((W - 1 - m) / d)), W the working length; then the
distinguished factor of a series of length at least (N + 2) d + 1 is
exact mod p^N and the unit is right on the prefix returned (proofs at
weierstrass_preparation).  The factor of q_r = [p^r](y) / y is
certified apart from the lifting, by y q_r = 0 in the ring A_r that
cochain.make_cochain_ring builds from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .coeff import ZZ, Context, ContextMismatch, NonUnitError, _is_prime, padic_context


class PrecisionError(Exception):
    """A series is not known to the precision an operation needs."""


class WeierstrassError(Exception):
    """Weierstrass preparation failed or does not apply."""


_INF = float("inf")


def _dtype(modulus, length):
    """int64 when every partial sum of a convolution of length-term
    vectors of residues mod modulus fits in it; numpy arrays of Python
    ints otherwise, and for exact ZZ (modulus None)."""
    if modulus is not None and (modulus - 1) ** 2 * max(length, 1) < 2**63:
        return np.int64
    return object


def _mul(a, b, modulus, out_len):
    """The first out_len coefficients of a b, mod modulus (None: exact),
    for nonempty 1-d arrays of one dtype that _dtype allows for the
    shorter one's length; the result has that dtype and length out_len."""
    conv = np.convolve(a[:out_len], b[:out_len])[:out_len]
    if modulus is not None:
        conv %= modulus
    if len(conv) < out_len:
        conv = np.concatenate([conv, np.zeros(out_len - len(conv), conv.dtype)])
    return conv


def _mul_raw(a, b, modulus, out_len):
    """_mul on coefficient lists, in the dtype _dtype picks for the call."""
    if out_len <= 0:
        return []
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la == 0 or lb == 0:
        return [0] * out_len
    dtype = _dtype(modulus, min(la, lb))
    return _mul(np.asarray(a[:la], dtype), np.asarray(b[:lb], dtype), modulus, out_len).tolist()


def _vec(vals, length, modulus, dtype):
    """vals mod modulus, cut or zero-padded to length, as an array."""
    out = np.zeros(length, dtype)
    head = [v % modulus for v in vals[:length]]
    out[: len(head)] = head
    return out


def _pow(a, e, modulus, out_len):
    """a^e mod (modulus, z^out_len), e >= 1, for a reduced array a of
    length out_len."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else _mul(result, a, modulus, out_len)
        e >>= 1
        if not e:
            return result
        a = _mul(a, a, modulus, out_len)


def _inv(c, modulus, length, v=None):
    """c^-1 mod (modulus, z^length) for a unit array c of length at least
    length, by Newton doublings v <- v (2 - c v) from v, the inverse
    known below z^len(v) (the constant term's inverse when None)."""
    if v is None:
        try:
            v = np.array([pow(int(c[0]), -1, modulus)], c.dtype)
        except ValueError:
            raise NonUnitError("constant term %d is not a unit mod %d" % (c[0], modulus))
    v = v[:length]
    cur = len(v)
    while cur < length:
        cur = min(length, 2 * cur)
        t = -_mul(c[:cur], v, modulus, cur) % modulus
        t[0] = (t[0] + 2) % modulus
        v = _mul(v, t, modulus, cur)
    return v


@dataclass(frozen=True)
class TruncatedSeries:
    """A power series known through degree len(coeffs) - 1.

    ``exact`` promises that every omitted coefficient is genuinely zero,
    so the series is a polynomial and survives any precision demand.
    The holder checks nothing.  Its builder keeps the invariant: each
    coefficient is canonical in the context, an exact series has no
    trailing zeros, and a truncated series knows at least one degree
    (validated_series enforces it on coefficients from outside).
    """

    context: Context
    coeffs: tuple
    exact: bool = False

    def _eff(self):
        return _INF if self.exact else len(self.coeffs)

    def _match(self, other):
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected TruncatedSeries, got %r" % (other,))
        if other.context != self.context:
            raise ContextMismatch(
                "series contexts differ: %s vs %s"
                % (self.context.describe(), other.context.describe())
            )

    def _entry(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def __add__(self, other):
        self._match(other)
        L = min(self._eff(), other._eff())
        n = max(len(self.coeffs), len(other.coeffs)) if L == _INF else int(L)
        vals = [self._entry(i) + other._entry(i) for i in range(n)]
        return validated_series(self.context, vals, L == _INF)

    def __mul__(self, other):
        self._match(other)
        m = self.context.modulus
        if self.exact and other.exact:
            out_len = len(self.coeffs) + len(other.coeffs) - 1
            vals = _mul_raw(self.coeffs, other.coeffs, m, out_len)
            return validated_series(self.context, vals, True)
        L = int(min(self._eff(), other._eff()))
        vals = _mul_raw(self.coeffs, other.coeffs, m, L)
        return TruncatedSeries(self.context, tuple(vals), False)

    def compose(self, inner: "TruncatedSeries"):
        """self(inner); inner must have zero constant term."""
        self._match(inner)
        if inner.coeffs and inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        m = self.context.modulus
        if self.exact and inner.exact:
            acc = TruncatedSeries(self.context, (), True)
            for c in reversed(self.coeffs):
                acc = acc * inner + validated_series(self.context, (c,), True)
            return acc
        L = int(min(self._eff(), inner._eff()))
        b = list(inner.coeffs[:L]) + [0] * max(0, L - len(inner.coeffs))
        acc = [0] * L
        kmax = min(len(self.coeffs), L)
        for k in range(kmax - 1, -1, -1):
            acc = _mul_raw(acc, b, m, L)
            acc[0] = self.context.canon(acc[0] + self.coeffs[k])
        return TruncatedSeries(self.context, tuple(acc), False)

    def __repr__(self):
        terms = []
        for i, v in enumerate(self.coeffs):
            if v:
                terms.append("%s*y^%d" % (v, i))
            if len(terms) >= 5:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        tail = "" if self.exact else " + O(y^%d)" % len(self.coeffs)
        return "TruncatedSeries(%s; %s%s)" % (self.context.describe(), body, tail)


def validated_series(context, coeffs, exact=False) -> TruncatedSeries:
    """A TruncatedSeries from coefficients that may break its invariant:
    each is made canonical (TypeError for a non-int), an exact series
    loses its trailing zeros, and an empty truncated one raises
    PrecisionError."""
    vals = [context.canon(v) for v in coeffs]
    if exact:
        while vals and vals[-1] == 0:
            vals.pop()
    elif not vals:
        raise PrecisionError("a truncated series must know at least one degree")
    return TruncatedSeries(context, tuple(vals), exact)


def exact_quotient_by_y(s: TruncatedSeries) -> TruncatedSeries:
    """Divide by y a series with vanishing constant term.

    The precision drops by one: a length-M input yields length M - 1.
    """
    if not s.coeffs:
        return s
    if s.coeffs[0] != 0:
        raise ValueError("constant term is nonzero; not divisible by y")
    if not s.exact and len(s.coeffs) <= 1:
        raise PrecisionError("nothing would remain after dividing by y")
    return TruncatedSeries(s.context, s.coeffs[1:], s.exact)


def _honda_imax(p: int, n: int, M: int) -> int:
    imax = 0
    while p ** (n * (imax + 1)) <= M - 1:
        imax += 1
    return imax


def _stride(coeffs, s, offset):
    """gcd(s, {k - offset : coeffs_k != 0}): coeffs is supported in the
    degrees offset + (multiples of the result)."""
    return math.gcd(s, *(np.flatnonzero(np.asarray(coeffs)) - offset).tolist())


def _add_log(acc, f, p, n, imax, modulus, s):
    """acc + L(y f(y^s)) mod modulus, in z-form: entry j of acc, f and
    the result is the coefficient of y^(1 + j s).  L = sum_(i <= imax)
    p^(imax - i) y^(p^(n i)) and s divides p^n - 1, so q = p^(n i) is
    1 mod s and (y f)^q = y z^((q - 1)/s) f^q with z = y^s.  The
    result is an array; its p^n-th powers are its own, not the chain
    of _solve_log, so the certificate evaluates L apart from the solver."""
    out_len = len(acc)
    dtype = _dtype(modulus, out_len)
    acc = _vec(acc, out_len, modulus, dtype)
    cur = _vec(f, out_len, modulus, dtype)
    for i in range(imax + 1):
        shift = (p ** (n * i) - 1) // s
        if shift >= out_len:
            break
        if i > 0:
            cur = _pow(cur[: out_len - shift], p**n, modulus, out_len - shift)
        acc[shift:] = (acc[shift:] + p ** (imax - i) * cur) % modulus
    return acc


def _log_y(c, p, n, imax, modulus, M):
    """c L(y) mod modulus below y^M, for imax = _honda_imax(p, n, M)."""
    t = [0] * M
    for i in range(imax + 1):
        t[p ** (n * i)] = c * p ** (imax - i) % modulus
    return t


def _solve_log(target, p, n, M, N):
    """The psi with L(psi) = target, length M, correct mod p^N.

    L = p^imax log of the height-n Honda law at p, truncated so that
    its last term y^(p^(n imax)) lies below y^M.  target, of length M,
    must be L(psi*) mod p^(N + imax) for an integral psi* with zero
    constant term: p^r L(y) for psi* = [p^r](y), and L(a) + L(b) for
    psi* = a +_F b; both are integral by Hazewinkel's functional-equation
    lemma.  Newton's method runs mod p^(N + imax), in the variable
    z = y^s for the stride s = gcd(p^n - 1, {k - 1 : target_k != 0}).

    Stride.  Let S be y Z[[z]], the series supported in the degrees
    1 mod s; psi = y f(z) in S is held in z-form, f.  As s divides
    p^n - 1, every q = p^(n i) is 1 mod s, so psi^q = y z^((q - 1)/s) f^q
    lies in S and psi^(q - 1) = z^((q - 1)/s) f^(q - 1) in Z[[z]]: L maps
    S into S, and U below maps S into Z[[z]].

    Lemma.  If phi and delta have zero constant term and delta_j = 0
    mod p^N for j < m, then mod p^(N + imax)

        L(phi + delta)_m = L(phi)_m + p^imax (U(phi) delta)_m,
        U(phi) = sum_i p^((n - 1) i) phi^(q_i - 1),  U(phi)_0 = 1.

    Expand (phi + delta)^q, q = p^(n i): the terms linear in delta sum
    to p^imax U(phi) delta.  For k >= 2, (delta^k)_m uses only delta_j
    with j < m, so it is divisible by p^(k N), while p^(imax - i)
    binom(q, k) has valuation imax - i + n i - v_p(k) >= imax - (k-1) N.
    In particular L(a) mod p^(N + imax) depends only on a mod p^N.

    Symmetry.  For s = p^n - 1 the target p^r L(y) lies in S (its
    degrees are p^(n i)); this is L(zeta y) = zeta L(y) for zeta^s = 1.
    Its solution [p^r](y) then lies in S mod p^N, by the induction below,
    which shows for any target in S that psi* mod p^N is in S.

    Step.  Suppose psi in S agrees with psi* mod p^N below y^(1 + J s),
    J >= 1 (f is known below z^J).  Write psi* = psi + p^N a + e with
    deg a < 1 + J s and e = O(y^(1 + J s)); e need not lie in S.  The
    lemma removes p^N a, and for k >= 2 the terms of (psi + e)^q with
    e^k start at degree q + k J s >= 1 + 2 J s, so the residual
    R = L(psi) - target satisfies R = -p^imax U(psi) e mod (p^(N + imax),
    y^(1 + 2 J s)).  R lies in S, and U(psi) is a unit of Z[[z]], so
    e = -U(psi)^(-1) R / p^imax mod (p^N, y^(1 + 2 J s)) lies in S too:
    the residual, U and the correction all stay in S or Z[[z]], and f
    gains z-indices J .. 2J - 1.  Hence R vanishes below z^J and p^imax
    divides R; both facts are checked at every step.  Start: below y^(p^n)
    only the i = 0 term of L is nonzero, so psi*_k = target_k / p^imax
    mod p^N there, which is 0 for 1 < k < 1 + s <= p^n; so J = 1 with
    f_0 = target_1 / p^imax.  J doubles each step: O(log M) evaluations
    of L at doubling lengths, O((M/s)^2 log M) in all.

    Chain.  L(f) needs f^(q_i) below z^(2J - shift_i), shift_i =
    (q_i - 1)/s, and U(f) needs f^(q_i - 1) below z^(J - shift_i).  Both
    come from g_1 = f^(p^n - 1), g_(i+1) = g_i^(p^n) g_1: as p^n (q_i - 1)
    + p^n - 1 = q_(i+1) - 1, g_i = f^(q_i - 1), and f^(q_i) = f g_i.

    Carried inverse.  A step at J inverts U(f) below z^L, L = J2 - J <= J.
    The coefficient of z^m in U(f) involves only f_0 .. f_m, and f below
    z^J never changes again: later steps only append to it.  So U(f) mod
    z^L is the same at every later step, and so is its inverse there;
    the step lifts the previous step's inverse to the new L by Newton
    doublings v <- v (2 - U v) (_inv): one when L doubles, none when the
    last L is shorter.  The result equals inverting U(f) afresh.

    Arrays.  f, the target, the residual and the chain are 1-d arrays of
    the dtype _dtype gives for p^(N + imax) at the z-length K; every
    product in the solve has operands of length at most K, so int64
    holds its partial sums whenever _dtype picks it.
    """
    imax = _honda_imax(p, n, M)
    scale = p**imax
    modulus = p ** (N + imax)
    pn = p**n
    s = _stride(target, pn - 1, 1)
    K = len(target[1::s])
    dtype = _dtype(modulus, K)
    neg = -_vec(target[1::s], K, modulus, dtype) % modulus
    f = np.zeros(K, dtype)
    f[0] = target[1] % modulus // scale
    v = None
    J = 1
    while J < K:
        J2 = min(K, 2 * J)
        L = J2 - J
        res = (neg[:J2] + scale * f[:J2]) % modulus
        unit = np.zeros(L, dtype)
        unit[0] = 1
        for i in range(1, imax + 1):
            shift = (p ** (n * i) - 1) // s
            if shift >= J2:
                break
            w = J2 - shift
            if i == 1:
                g1 = g = _pow(f[:w], pn - 1, modulus, w)
            else:
                g = _mul(_pow(g[:w], pn, modulus, w), g1, modulus, w)
            res[shift:] = (res[shift:] + p ** (imax - i) * _mul(f, g, modulus, w)) % modulus
            if shift < L:
                c = p ** ((n - 1) * i) % modulus
                unit[shift:] = (unit[shift:] + c * g[: L - shift]) % modulus
        moved = np.flatnonzero(res[:J])
        if len(moved):
            raise PrecisionError("settled prefix moved at degree %d" % (1 + moved[0] * s))
        odd = np.flatnonzero(res[J:] % scale)
        if len(odd):
            raise PrecisionError(
                "functional equation correction not divisible by p^%d at degree %d"
                % (imax, 1 + (J + odd[0]) * s)
            )
        v = _inv(unit, modulus, L, v)
        f[J:J2] = -_mul(res[J:] // scale, v, modulus, L) % modulus
        J = J2
    psi = [0] * M
    psi[1::s] = (f % p**N).tolist()
    return psi


def certify_honda_pseries(psi, p, n, r, N):
    """Raise PrecisionError unless psi is [p^r](y) mod p^N below y^len(psi).

    The check does not depend on how psi was found: with M = len(psi),
    L, imax and the stride s = p^n - 1 of the target p^r L(y) as in
    _solve_log, it asks psi_0 = 0 and psi_k = 0 mod p^N for k != 1 mod s,
    then L(psi) = p^r L(y) mod p^(N + imax) at the degrees 1 mod s below
    y^M.  The two checks together are L(psi) = p^r L(y) mod
    (p^(N + imax), y^M): L(psi) mod p^(N + imax) depends only on psi
    mod p^N, which lies in S, and L maps S into S, so both sides vanish
    at the other degrees.  That pins psi mod p^N: were m the least degree
    with psi_m != psi*_m mod p^N (m >= 1), the lemma of _solve_log with
    phi = psi* and delta = psi - psi* would give L(psi)_m - L(psi*)_m =
    p^imax delta_m != 0 mod p^(N + imax).
    """
    M = len(psi)
    pN = p**N
    if psi[0] % pN:
        raise PrecisionError("p-series has a nonzero constant term")
    imax = _honda_imax(p, n, M)
    modulus = p ** (N + imax)
    neg = _log_y(-(p**r), p, n, imax, modulus, M)
    s = _stride(neg, p**n - 1, 1)
    for k in range(2, M):
        if (k - 1) % s and psi[k] % pN:
            raise PrecisionError(
                "[p^%d](y) has a nonzero coefficient at degree %d, off the degrees 1 mod %d"
                % (r, k, s)
            )
    bad = np.flatnonzero(_add_log(neg[1::s], psi[1::s], p, n, imax, modulus, s))
    if len(bad):
        raise PrecisionError(
            "[p^%d](y) fails its functional equation at degree %d" % (r, 1 + bad[0] * s)
        )


class FormalGroupLaw:
    """A one-dimensional formal group law with an exact p-series.

    kind is "multiplicative" (exact integer coefficients, height 1) or
    "honda" (height n, coefficients mod p^N).  A Honda law is held by
    its logarithm alone: the p-series and the formal sum both solve
    L(psi) = target by _solve_log.
    """

    def __init__(self, kind, p, n, M, context):
        self.kind = kind
        self.p = p
        self.n = n
        self.M = M
        self.context = context
        self._pseries = {}  # r -> the longest [p^r](y) found so far
        self._ring_cache = {}  # (r, N) -> A_r, filled by make_cochain_ring

    def describe(self) -> str:
        if self.kind == "multiplicative":
            return "multiplicative p=%d" % self.p
        return "honda p=%d n=%d (%s)" % (self.p, self.n, self.context.describe())

    def __repr__(self):
        return "FormalGroupLaw(%s, M=%d)" % (self.describe(), self.M)

    def p_series(self, r: int, M=None) -> TruncatedSeries:
        """[p^r](y) in the law's own context, below y^M (the law's M
        when None).

        Multiplicative laws give the exact polynomial (1 + y)^(p^r) - 1;
        Honda laws give a length-M series correct mod p^N, solved by
        Newton's method and certified by its functional equation.  The
        series mod p^N is canonical, so a shorter one is a prefix of a
        longer one, and a request reads a prefix of the longest solve yet.
        """
        if M is None:
            M = self.M
        if r < 0:
            raise ValueError("r must be >= 0")
        if r >= 1 and self.p ** (r * self.n) > M - 1:
            # The leading term y^(p^(rn)) must fit inside the working
            # precision; a silently truncated p-series is useless.
            raise PrecisionError(
                "p-series [p^%d]y has leading degree %d beyond precision M=%d"
                % (r, self.p ** (r * self.n), M)
            )
        out = self._pseries.get(r)
        if out is None or not out.exact and len(out.coeffs) < M:
            if self.kind == "multiplicative":
                q = self.p**r
                vals = (0,) + tuple(math.comb(q, k) for k in range(1, q + 1))
                out = TruncatedSeries(self.context, vals, True)
            elif r == 0:
                out = TruncatedSeries(self.context, (0, 1), True)
            else:
                p, n, N = self.p, self.n, self.context.prec
                imax = _honda_imax(p, n, M)
                vals = _solve_log(_log_y(p**r, p, n, imax, p ** (N + imax), M), p, n, M, N)
                certify_honda_pseries(vals, p, n, r, N)
                out = TruncatedSeries(self.context, tuple(vals), False)
            self._pseries[r] = out
        return replace(out, coeffs=out.coeffs[:M])  # an exact series fits whole


def make_multiplicative_fgl(p: int, M: int = 16) -> FormalGroupLaw:
    """F(x, y) = x + y + x y over the exact integers."""
    if not _is_prime(p):
        raise ValueError("p must be prime")
    if M < 2:
        raise ValueError("M must be at least 2")
    return FormalGroupLaw("multiplicative", p, 1, M, ZZ)


def make_honda_fgl(p: int, n: int, M: int, N: int = 8) -> FormalGroupLaw:
    """Height-n Honda law at p, series truncated below y^M, mod p^N."""
    if n < 1:
        raise ValueError("height n must be >= 1")
    if M < 2:
        raise ValueError("M must be at least 2")
    return FormalGroupLaw("honda", p, n, M, padic_context(p, N))


def formal_sum(F: FormalGroupLaw, a: TruncatedSeries, b: TruncatedSeries):
    """a +_F b for series with zero constant term, in the operands' context.

    The multiplicative sum is a + b + a b.  The Honda sum solves
    L(psi) = L(a) + L(b) by _solve_log below y^M, M the shorter of the
    operands' and the law's precision, mod the operands' p^N: L(a) mod
    p^(N + imax) depends only on a mod p^N.  Honda operands must lie in
    Z/p^N for N at most the law's own; any other context raises
    ContextMismatch.
    """
    if a.context != b.context:
        raise ContextMismatch(
            "operands live in %s and %s" % (a.context.describe(), b.context.describe())
        )
    for x in (a, b):
        if x.coeffs and x.coeffs[0] != 0:
            raise ValueError("formal sum needs series with zero constant term")
    if F.kind == "multiplicative":
        return a + b + a * b
    ctx = a.context
    if ctx.kind != "padic" or ctx.p != F.p or ctx.prec > F.context.prec:
        raise ContextMismatch(
            "operands in %s do not lie below the law's %s"
            % (ctx.describe(), F.context.describe())
        )
    p, n, N = F.p, F.n, ctx.prec
    M = int(min(a._eff(), b._eff(), F.M))
    imax = _honda_imax(p, n, M)
    acc = [0] * (M - 1)
    for x in (a, b):
        acc = _add_log(acc, x.coeffs[1:], p, n, imax, p ** (N + imax), 1)
    return TruncatedSeries(ctx, tuple(_solve_log([0] + acc.tolist(), p, n, M, N)), False)


@dataclass(frozen=True)
class WeierstrassFactorization:
    distinguished: TruncatedSeries
    unit: TruncatedSeries
    degree: int


def _weier_divide(h, g, d, modulus, work, N):
    """h = g * q + a with deg a < d, for monic g with g - y^d in (p).

    The shift iteration contracts p-adically: successive q differ by
    the shift of gamma times their previous difference, gamma = g - y^d
    in (p), so pass k + 1 repeats pass k once p^k = 0 mod p^N.
    """
    gamma = g[:d]
    q = np.zeros(work, h.dtype)
    for _ in range(N + 1):
        t = (h - _mul(gamma, q, modulus, work)) % modulus
        qn = np.concatenate([t[d:], np.zeros(d, h.dtype)])
        if np.array_equal(qn, q):
            return q, t[:d]
        q = qn
    raise WeierstrassError("division fixed point did not stabilize")


def weierstrass_preparation(s: TruncatedSeries) -> WeierstrassFactorization:
    """Factor s = distinguished * unit over a mod-p^N context.

    The distinguished part is the exact monic polynomial y^d + (lower
    terms divisible by p), d being the least index where s has a unit
    coefficient.  A series with no unit coefficient is rejected, as is
    a truncated series too short to settle degree d.

    Lifting.  Let c be s below y^work, the working length.  With g
    monic of degree d, u a polynomial and the residual e = c - g u mod
    (p^N, y^work), a step divides h = e u^-1 as h = g b + a, deg a < d
    (_weier_divide), and sets g += a, u += u b.  As u h = e, the new
    residual is -a u b mod y^work.  The start g = y^d, u = (c - c_<d) / y^d
    leaves e = c_<d, divisible by p.  A power of p that divides e
    divides h, a and b, so v_p(e) at least doubles each step: after
    (N - 1).bit_length() steps e = 0 mod p^N, and rounds, one more test
    than that, never runs out.  Every a lies in (p), so g stays
    distinguished.

    Stopping rule.  The loop stops at the first residual on the slope
    v_p(e_m) >= min(N, floor((work - 1 - m) / d)) for all m < work.
    Then E = s - g u is on the slope at every degree m: E_m = e_m below
    y^work, and from y^(work - d) on the slope asks nothing, so the
    unknown tail s - c = O(y^work) does not matter.

    g is exact mod p^N.  In Lambda = Z_p[y]/(g), g lifted to Z_p,
    y^d = y^d - g lies in p Lambda, so y^m lies in p^floor(m / d) Lambda.
    If k >= min(N, floor((work - 1 - m) / d)) and k < N, then
    m >= work - (k + 1) d, so p^k y^m lies in p^(floor(work / d) - 1)
    Lambda, inside p^N Lambda as work >= (N + 1) d.  So E, and with it
    s, is g v + p^N rho with deg rho < d.  Let s = G U be the
    Weierstrass factorization; G has degree d, as d is the first unit
    coefficient of s.  Then G = g v U^-1 + p^N rho U^-1, and G - g has
    degree < d, so uniqueness of division by g (Washington,
    Introduction to Cyclotomic Fields, 7.1) gives G = g mod p^N.

    u is right below y^unit_len, unit_len = work - (N + 1) d.  As G = g
    mod p^N, delta = U - u solves g delta = E.  Write g = y^d + gamma,
    gamma in (p) of degree < d.  If v_p(delta_m) >= min(j, floor((work -
    1 - d - m) / d)) for all m, then gamma delta and E obey that bound
    with j + 1 and d added to the numerator, hence so does y^d delta =
    E - gamma delta, and delta obeys it with j + 1.  From j = 0 to N:
    delta_m = 0 mod p^N once work - 1 - d - m >= N d, that is m < unit_len.

    z-form.  Let t be the gcd of the degrees where s is nonzero, so t
    divides d and s = Q(z) with z = y^t.  Preparing Q = G(z) V(z) gives
    s = G(y^t) V(y^t), where G(y^t) is monic of degree d with lower
    terms divisible by p and V(y^t) is a unit; the Weierstrass
    factorization is unique, so these are the factors of s.  The same
    holds for every array of the lifting: products, inverses and the
    shift by d of series in y^t stay in y^t, so run in y the loop would
    hold the residual, the inverted unit and the quotient and remainder
    of each division in Z[[y^t]].  It therefore runs on the
    z-coefficients, a length-work array in y being the ceil(work / t)
    coefficients of its degrees 0 mod t, and computes the same numbers
    as the loop in y.  The length bound, the slope and the unit length
    stay stated in y-degrees, so every input passes or fails as it
    would in y.
    """
    ctx = s.context
    if ctx.kind != "padic":
        raise WeierstrassError(
            "preparation needs a mod-p^N context, got %s" % ctx.describe()
        )
    p, N = ctx.p, ctx.prec
    modulus = ctx.modulus
    coeffs = list(s.coeffs)
    d = None
    for i, v in enumerate(coeffs):
        if v % p:
            d = i
            break
    if d is None:
        raise WeierstrassError("no unit coefficient within the known precision")
    if d == 0:
        one = TruncatedSeries(ctx, (1,), True)
        return WeierstrassFactorization(one, s, 0)
    need = (N + 2) * d + 1
    if s.exact:
        work = max(len(coeffs), need)
    elif len(coeffs) < need:
        raise PrecisionError(
            "need length >= %d to prepare at degree %d, have %d"
            % (need, d, len(coeffs))
        )
    else:
        work = len(coeffs)
    t = _stride(coeffs, 0, 0)
    W, dz = (work - 1) // t + 1, d // t
    dtype = _dtype(modulus, W)
    c = _vec(coeffs[::t], W, modulus, dtype)
    slope = np.array([p ** min(N, (work - 1 - j * t) // d) for j in range(W)], dtype)
    g = np.zeros(dz + 1, dtype)
    g[dz] = 1
    u = np.concatenate([c[dz:], np.zeros(dz, dtype)])
    rounds = (N - 1).bit_length() + 1
    for _ in range(rounds):
        e = (c - _mul(g, u, modulus, W)) % modulus
        if not np.any(e % slope):
            break
        h = _mul(e, _inv(u, modulus, W), modulus, W)
        bprime, a = _weier_divide(h, g, dz, modulus, W, N)
        g[:dz] = (g[:dz] + a) % modulus
        u = (u + _mul(u, bprime, modulus, W)) % modulus
    else:
        raise WeierstrassError("Hensel lifting did not converge")
    unit_len = work - (N + 1) * d
    gy, uy = [0] * (d + 1), [0] * unit_len
    gy[::t] = g.tolist()
    uy[::t] = u[: (unit_len - 1) // t + 1].tolist()
    distinguished = TruncatedSeries(ctx, tuple(gy), True)
    unit = TruncatedSeries(ctx, tuple(uy), False)
    return WeierstrassFactorization(distinguished, unit, d)
