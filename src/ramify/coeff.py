"""Coefficient contexts, and the arithmetic on vectors of residues.

Every series and ring in this library carries the arithmetic context
its coefficients live in: the integers ZZ, or the integers mod p^N
(``padic``).  The residue field F_p is the case N = 1.  Operations
demand equal contexts; nothing is coerced silently.  All arithmetic is
exact: Python ints, and canonical residues in 0..p^N - 1.

A vector of residues mod m is a numpy array, read as a truncated
polynomial.  Its dtype follows one rule, dtype_for: int64 when
(m - 1)^2 * length < 2^63, which bounds every partial sum of a
convolution of length-term vectors, and arrays of Python ints
otherwise and for exact ZZ (m None).  mul, power and inverse work mod
(m, z^length); divmod_monic divides by a monic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ContextMismatch(Exception):
    """Operands from different contexts met in one operation."""


class NonUnitError(Exception):
    """An inverse was asked of a non-invertible element."""


_SMALL_PRIMES = tuple(
    q for q in range(2, 1000) if all(q % d for d in range(2, int(q ** 0.5) + 1))
)
_SPRP_BASES = _SMALL_PRIMES[:13]  # 2, 3, ..., 41
# below this, a strong probable prime to every base in _SPRP_BASES is
# prime (Sorenson and Webster, 2017)
_SPRP_PROVEN_BELOW = 3317044064679887385961981


def is_prime(m: int) -> bool:
    """Trial division by the primes below 1000, then strong
    probable-prime tests to the bases 2..41.  A failed base proves m
    composite; passing them all proves m prime below
    _SPRP_PROVEN_BELOW, and above it the question is refused."""
    if m < 2:
        return False
    for q in _SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d, k = m - 1, 0
    while d % 2 == 0:
        d, k = d // 2, k + 1
    for a in _SPRP_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(k - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    if m >= _SPRP_PROVEN_BELOW:
        raise ValueError(
            "cannot decide whether %d is prime: it passes the strong "
            "probable-prime tests to bases 2..41, which prove primality "
            "only below %d" % (m, _SPRP_PROVEN_BELOW)
        )
    return True


@dataclass(frozen=True)
class Context:
    """One arithmetic world: ``int`` (ZZ) or ``padic`` (mod p^N)."""

    kind: str
    p: int | None = None
    prec: int | None = None

    def __post_init__(self):
        if self.kind == "int":
            if self.p is not None or self.prec is not None:
                raise ValueError("int context takes no parameters")
        elif self.kind == "padic":
            if self.p is None or not is_prime(self.p):
                raise ValueError("mod-p^N context needs a prime p")
            if self.prec is None or self.prec < 1:
                raise ValueError("mod-p^N context needs N >= 1")
        else:
            raise ValueError("unknown context kind %r" % (self.kind,))

    @property
    def modulus(self) -> int | None:
        """p^N for padic, None for the integers."""
        return None if self.kind == "int" else self.p ** self.prec

    def canon(self, value):
        """Canonical raw representative of ``value`` in this context."""
        if not isinstance(value, int):
            raise TypeError("%s context wants int, got %r" % (self.kind, value))
        m = self.modulus
        return value if m is None else value % m

    def describe(self) -> str:
        if self.kind == "int":
            return "int"
        return "mod-%d^%d" % (self.p, self.prec)

    def __repr__(self):
        return "Context(%s)" % self.describe()


ZZ = Context("int")


def padic_context(p: int, N: int = 8) -> Context:
    """Integers mod p^N.  The default working precision is N = 8."""
    return Context("padic", p, N)


def dtype_for(modulus, length):
    """The dtype of length-term vectors of residues mod modulus (module docstring)."""
    if modulus is not None and (modulus - 1) ** 2 * max(length, 1) < 2**63:
        return np.int64
    return object


def mul(a, b, modulus, out_len):
    """The first out_len coefficients of a b, mod modulus (None: exact),
    for nonempty 1-d arrays of one dtype that dtype_for allows for the
    shorter one's length; the result has that dtype and length out_len."""
    conv = np.convolve(a[:out_len], b[:out_len])[:out_len]
    if modulus is not None:
        conv %= modulus
    if len(conv) < out_len:
        conv = np.concatenate([conv, np.zeros(out_len - len(conv), conv.dtype)])
    return conv


def mul_list(a, b, modulus, out_len):
    """mul on coefficient lists, in the dtype dtype_for picks for the call."""
    if out_len <= 0:
        return []
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la == 0 or lb == 0:
        return [0] * out_len
    dtype = dtype_for(modulus, min(la, lb))
    return mul(np.asarray(a[:la], dtype), np.asarray(b[:lb], dtype), modulus, out_len).tolist()


def residues(vals, length, modulus, dtype):
    """vals mod modulus, cut or zero-padded to length, as an array."""
    out = np.zeros(length, dtype)
    head = [v % modulus for v in vals[:length]]
    out[: len(head)] = head
    return out


def power(a, e, modulus, out_len):
    """a^e mod (modulus, z^out_len), e >= 1, for a reduced array a of
    length out_len."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else mul(result, a, modulus, out_len)
        e >>= 1
        if not e:
            return result
        a = mul(a, a, modulus, out_len)


def inverse(c, modulus, length, v=None):
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
        t = -mul(c[:cur], v, modulus, cur) % modulus
        t[0] = (t[0] + 2) % modulus
        v = mul(v, t, modulus, cur)
    return v


def divmod_monic(c, w_terms, d, modulus):
    """(q, rem) with c = w q + rem mod modulus and deg rem < d, for w
    monic of degree d given by w_terms, its nonzero (j, w_j) below y^d.

    Schoolbook division on Python ints, from the top degree down: a
    step subtracts t y^(deg - d) w through the terms of w_terms only.
    q has max(len(c) - d, 0) entries and rem d, both reduced mod modulus.
    """
    c = [int(x) for x in c]
    c += [0] * (d - len(c))
    q = [0] * (len(c) - d)
    for deg in range(len(c) - 1, d - 1, -1):
        t = c[deg] % modulus
        if t:
            base = deg - d
            q[base] = t
            for j, wj in w_terms:
                c[base + j] -= t * wj
    return q, [x % modulus for x in c[:d]]
