"""Coefficient contexts and exact scalars.

Every scalar in this library carries the arithmetic context it lives in:
the integers, the rationals, the integers mod p^N, or the prime field
F_p.  Binary operations demand equal contexts; nothing is coerced
silently.  Movement between contexts is always an explicit ``reduce``
along the coarsening order::

    int -> rat
    int -> mod-p^N -> mod-p
    rat -> mod-p^N -> mod-p   (only when the denominator is a unit)

Refining (walking back up that order) is never allowed.  All arithmetic
is exact: Python ints, ``fractions.Fraction``, and canonical residues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ContextMismatch(Exception):
    """Two scalars from different contexts met in a binary operation."""


class RefinementError(Exception):
    """``reduce`` was asked for a move that is not a coarsening."""


class NonUnitError(Exception):
    """``invert`` was called on a non-invertible scalar."""


_KINDS = ("int", "rat", "padic", "modp")


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
    """One arithmetic world: ``int``, ``rat``, ``padic`` (mod p^N) or ``modp``."""

    kind: str
    p: int | None = None
    prec: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown context kind %r" % (self.kind,))
        if self.kind in ("int", "rat"):
            if self.p is not None or self.prec is not None:
                raise ValueError("%s context takes no parameters" % self.kind)
        elif self.kind == "padic":
            if self.p is None or not _is_prime(self.p):
                raise ValueError("mod-p^N context needs a prime p")
            if self.prec is None or self.prec < 1:
                raise ValueError("mod-p^N context needs N >= 1")
        else:
            if self.p is None or not _is_prime(self.p):
                raise ValueError("mod-p context needs a prime p")
            if self.prec is not None:
                raise ValueError("mod-p context carries no precision")

    @property
    def modulus(self) -> int | None:
        """p^N for padic, p for modp, None for the exact contexts."""
        if self.kind == "padic":
            return self.p ** self.prec
        if self.kind == "modp":
            return self.p
        return None

    @property
    def exact(self) -> bool:
        return self.kind in ("int", "rat")

    def canon(self, value):
        """Canonical raw representative of ``value`` in this context."""
        if self.kind == "rat":
            if isinstance(value, (int, Fraction)):
                return Fraction(value)
            raise TypeError("rational context wants int or Fraction, got %r" % (value,))
        if not isinstance(value, int):
            raise TypeError("%s context wants int, got %r" % (self.kind, value))
        m = self.modulus
        return value if m is None else value % m

    def coeff(self, value) -> "Coefficient":
        return Coefficient(self.canon(value), self)

    def zero(self) -> "Coefficient":
        return self.coeff(0)

    def one(self) -> "Coefficient":
        return self.coeff(1)

    def describe(self) -> str:
        if self.kind == "int":
            return "int"
        if self.kind == "rat":
            return "rat"
        if self.kind == "padic":
            return "mod-%d^%d" % (self.p, self.prec)
        return "mod-%d" % self.p

    def __repr__(self):
        return "Context(%s)" % self.describe()


ZZ = Context("int")
QQ = Context("rat")


def padic_context(p: int, N: int = 8) -> Context:
    """Integers mod p^N.  The default working precision is N = 8."""
    return Context("padic", p, N)


def modp_context(p: int) -> Context:
    return Context("modp", p)


@dataclass(frozen=True)
class Coefficient:
    """An exact scalar together with its context."""

    value: object
    context: Context

    def _match(self, other: "Coefficient") -> None:
        if not isinstance(other, Coefficient):
            raise TypeError("expected Coefficient, got %r" % (other,))
        if other.context != self.context:
            raise ContextMismatch(
                "cannot combine %s with %s"
                % (self.context.describe(), other.context.describe())
            )

    def __add__(self, other):
        self._match(other)
        return Coefficient(self.context.canon(self.value + other.value), self.context)

    def __sub__(self, other):
        self._match(other)
        return Coefficient(self.context.canon(self.value - other.value), self.context)

    def __mul__(self, other):
        self._match(other)
        return Coefficient(self.context.canon(self.value * other.value), self.context)

    def __neg__(self):
        return Coefficient(self.context.canon(-self.value), self.context)

    def is_zero(self) -> bool:
        return self.value == 0

    def is_unit(self) -> bool:
        ctx = self.context
        if ctx.kind == "int":
            return self.value in (1, -1)
        if ctx.kind == "rat":
            return self.value != 0
        # padic and modp alike: unit iff prime to p
        return self.value % ctx.p != 0

    def __repr__(self):
        return "Coefficient(%s : %s)" % (self.value, self.context.describe())


def reduce(c: Coefficient, target: Context) -> Coefficient:
    """Push ``c`` down the coarsening order into ``target``.

    int embeds in rat; int and rat map onto mod-p^N and mod-p (for a
    rational the denominator must be a unit there); mod-p^N maps onto
    mod-p^N' for N' <= N and onto mod-p.  Anything else is a refinement
    and raises.
    """
    src = c.context
    if src == target:
        return c
    if src.kind == "int":
        if target.kind == "rat":
            return Coefficient(Fraction(c.value), target)
        if target.kind in ("padic", "modp"):
            return Coefficient(c.value % target.modulus, target)
    elif src.kind == "rat":
        if target.kind in ("padic", "modp"):
            m = target.modulus
            num, den = c.value.numerator, c.value.denominator
            try:
                dinv = pow(den, -1, m)
            except ValueError:
                raise RefinementError(
                    "denominator %d is not a unit %s" % (den, target.describe())
                )
            return Coefficient(num * dinv % m, target)
    elif src.kind == "padic":
        if target.kind == "padic" and target.p == src.p and target.prec <= src.prec:
            return Coefficient(c.value % target.modulus, target)
        if target.kind == "modp" and target.p == src.p:
            return Coefficient(c.value % target.p, target)
    raise RefinementError(
        "cannot reduce %s to %s" % (src.describe(), target.describe())
    )


def invert(c: Coefficient) -> Coefficient:
    """Multiplicative inverse in the same context; units only."""
    ctx = c.context
    if ctx.kind == "int":
        if c.value in (1, -1):
            return c
        raise NonUnitError("%d is not a unit in the integers" % c.value)
    if ctx.kind == "rat":
        if c.value == 0:
            raise NonUnitError("zero is not invertible")
        return Coefficient(1 / c.value, ctx)
    try:
        return Coefficient(pow(c.value, -1, ctx.modulus), ctx)
    except ValueError:
        raise NonUnitError("%d is not a unit %s" % (c.value, ctx.describe()))
