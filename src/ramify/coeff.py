"""Coefficient contexts.

Every series and ring in this library carries the arithmetic context
its coefficients live in: the integers ZZ, or the integers mod p^N
(``padic``).  The residue field F_p is the case N = 1.  Operations
demand equal contexts; nothing is coerced silently.  All arithmetic is
exact: Python ints, and canonical residues in 0..p^N - 1.
"""

from __future__ import annotations

from dataclasses import dataclass


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


def _is_prime(m: int) -> bool:
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
            if self.p is None or not _is_prime(self.p):
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
