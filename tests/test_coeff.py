import pytest

from ramify.coeff import ZZ, Context, ContextMismatch, _is_prime, padic_context
from ramify.fgl import TruncatedSeries


def test_context_validation():
    with pytest.raises(ValueError):
        padic_context(4)
    with pytest.raises(ValueError):
        padic_context(6, 1)
    with pytest.raises(ValueError):
        Context("padic", 2, 0)
    with pytest.raises(ValueError):
        Context("int", 2)
    # two kinds only: F_p is padic_context(p, 1)
    for args in (("complex",), ("rat",), ("modp", 5)):
        with pytest.raises(ValueError, match="unknown context kind"):
            Context(*args)


def test_canonical_form_mod():
    ctx = padic_context(3, 2)
    assert ctx.canon(9) == 0
    assert ctx.canon(-1) == 8
    assert ctx.canon(5) == ctx.canon(14)
    assert ZZ.canon(-7) == -7
    with pytest.raises(TypeError):
        ctx.canon(1.5)


def test_context_mismatch_on_mixed_arithmetic():
    # series are where contexts meet; equal moduli are required, not merely
    # a common prime
    ctxs = (ZZ, padic_context(2, 3), padic_context(2, 4))
    one = [TruncatedSeries(ctx, (1,), True) for ctx in ctxs]
    with pytest.raises(ContextMismatch):
        one[0] + one[1]
    with pytest.raises(ContextMismatch):
        one[1] * one[2]


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
