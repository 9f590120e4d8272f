import random
from fractions import Fraction

import pytest

from ramify.coeff import (
    _is_prime,
    QQ,
    ZZ,
    Coefficient,
    Context,
    ContextMismatch,
    NonUnitError,
    RefinementError,
    invert,
    modp_context,
    padic_context,
    reduce,
)

M8 = padic_context(2, 3)  # mod 8


def test_reduce_int_to_mod8():
    assert reduce(ZZ.coeff(7), M8).value == 7
    assert reduce(ZZ.coeff(9), M8).value == 1
    assert reduce(ZZ.coeff(-1), M8).value == 7


def test_reduce_rational_unit_denominator():
    third = QQ.coeff(Fraction(1, 3))
    got = reduce(third, M8)
    # 3 * 3 = 9 = 1 mod 8
    assert got.value == 3
    assert (got * M8.coeff(3)).value == 1


def test_reduce_rational_bad_denominator():
    half = QQ.coeff(Fraction(1, 2))
    with pytest.raises(RefinementError):
        reduce(half, M8)


def test_reduce_padic_coarsening_and_modp():
    fine = padic_context(2, 8)
    c = fine.coeff(200)
    down = reduce(c, M8)
    assert down.context == M8 and down.value == 200 % 8
    residue = reduce(c, modp_context(2))
    assert residue.value == 0
    with pytest.raises(RefinementError):
        reduce(down, fine)  # refinement is not a thing


def test_reduce_refuses_cross_prime():
    with pytest.raises(RefinementError):
        reduce(padic_context(2, 4).coeff(3), padic_context(3, 4))


def test_invert_examples():
    assert invert(M8.coeff(1)).value == 1
    assert invert(M8.coeff(3)).value == 3
    with pytest.raises(NonUnitError):
        invert(M8.coeff(2))
    with pytest.raises(NonUnitError):
        invert(ZZ.coeff(2))  # only +-1 invertible over the integers
    assert invert(ZZ.coeff(-1)).value == -1
    assert invert(QQ.coeff(Fraction(2, 5))).value == Fraction(5, 2)


def test_context_mismatch_on_mixed_arithmetic():
    with pytest.raises(ContextMismatch):
        ZZ.coeff(1) + QQ.coeff(1)
    with pytest.raises(ContextMismatch):
        padic_context(2, 3).coeff(1) * padic_context(2, 4).coeff(1)


def test_context_validation():
    with pytest.raises(ValueError):
        padic_context(4)
    with pytest.raises(ValueError):
        modp_context(6)
    with pytest.raises(ValueError):
        Context("padic", 2, 0)
    with pytest.raises(ValueError):
        Context("complex")


def test_canonical_form_mod():
    ctx = padic_context(3, 2)
    assert ctx.coeff(9).value == 0
    assert ctx.coeff(-1).value == 8
    assert ctx.coeff(5) == ctx.coeff(14)


@pytest.mark.parametrize(
    "ctx",
    [ZZ, QQ, padic_context(2, 5), padic_context(3, 4), modp_context(5)],
    ids=lambda c: c.describe(),
)
def test_ring_axioms_randomized(ctx):
    rng = random.Random(11)

    def rand():
        if ctx.kind == "rat":
            return ctx.coeff(Fraction(rng.randrange(-9, 10), rng.randrange(1, 10)))
        return ctx.coeff(rng.randrange(-50, 50))

    for _ in range(200):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        assert a + ctx.zero() == a
        assert a * ctx.one() == a
        assert a - a == ctx.zero()


def test_reduce_is_ring_hom():
    rng = random.Random(5)
    target = padic_context(3, 4)
    for _ in range(200):
        a = ZZ.coeff(rng.randrange(-500, 500))
        b = ZZ.coeff(rng.randrange(-500, 500))
        assert reduce(a * b, target) == reduce(a, target) * reduce(b, target)
        assert reduce(a + b, target) == reduce(a, target) + reduce(b, target)


def test_invert_roundtrip_randomized():
    rng = random.Random(7)
    ctx = padic_context(3, 5)
    for _ in range(100):
        v = rng.randrange(1, ctx.modulus)
        if v % 3 == 0:
            with pytest.raises(NonUnitError):
                invert(ctx.coeff(v))
        else:
            c = ctx.coeff(v)
            assert (invert(c) * c).value == 1


def test_is_unit_flags():
    assert M8.coeff(3).is_unit()
    assert not M8.coeff(2).is_unit()
    assert not M8.coeff(0).is_unit()
    assert ZZ.coeff(1).is_unit()
    assert not ZZ.coeff(3).is_unit()
    assert QQ.coeff(Fraction(3, 7)).is_unit()
    assert not QQ.coeff(0).is_unit()
    assert M8.coeff(0).is_zero()
    assert not M8.coeff(4).is_zero()


# ------------------------------------------------------------- primality


def _trial_division(m):
    return m >= 2 and all(m % d for d in range(2, int(m ** 0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [m for m in range(10 ** 5) if _is_prime(m)] == [
        m for m in range(10 ** 5) if _trial_division(m)
    ]


@pytest.mark.parametrize("m", [
    561,  # Carmichael
    3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # strong pseudoprime to bases 2..23
    318665857834031151167461,  # strong pseudoprime to bases 2..37
])
def test_is_prime_rejects_strong_pseudoprimes(m):
    assert not _is_prime(m)


def test_is_prime_decides_large_primes_below_the_proven_bound():
    assert _is_prime(9223372036854775783)  # largest prime below 2^63
    assert _is_prime(2 ** 61 - 1)
    assert not _is_prime((2 ** 31 - 1) * (2 ** 61 - 1))


def test_is_prime_refuses_past_the_proven_bound():
    with pytest.raises(ValueError, match="cannot decide"):
        _is_prime(2 ** 89 - 1)  # a Mersenne prime past 3.3e24
    assert not _is_prime((2 ** 61 - 1) * (2 ** 89 - 1))  # a base proves it composite
