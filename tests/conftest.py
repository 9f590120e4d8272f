import pytest

from ramify.cochain import RingElement, make_cochain_ring, minimum_series_precision
from ramify.fgl import make_honda_fgl, make_multiplicative_fgl

_LAWS = {}


def law_for(p, n, max_r=2, N=8):
    """One shared law per (p, n, max_r, N); margin covers all r <= max_r."""
    key = (p, n, max_r, N)
    if key not in _LAWS:
        M = minimum_series_precision(p, n, max_r, N, polynomial_pseries=(n == 1))
        if n == 1:
            _LAWS[key] = make_multiplicative_fgl(p, M=M)
        else:
            _LAWS[key] = make_honda_fgl(p, n, M=M, N=N)
    return _LAWS[key]


def ring_for(p, n, r, N=8, max_r=2):
    return make_cochain_ring(law_for(p, n, max_r=max(max_r, r), N=N), r, N=N)


def random_element(ring, rng):
    """An element of ring with uniform coefficients drawn from rng."""
    return RingElement(ring, tuple(rng.randrange(ring.modulus) for _ in range(ring.rank)))


@pytest.fixture(scope="session")
def laws():
    return law_for


@pytest.fixture(scope="session")
def rings():
    return ring_for
