"""Quotient rings A_r, their structure maps, and the tower morphisms."""

import random

import numpy as np
import pytest

from conftest import law_for, ring_for
from ramify.coeff import ContextMismatch, padic_context
from ramify.cochain import (
    MorphismError,
    make_cochain_ring,
    minimum_series_precision,
    mod_m_reduction,
    substitution_map,
)
from ramify.fgl import (
    PrecisionError,
    TruncatedSeries,
    make_honda_fgl,
    make_multiplicative_fgl,
)
from ramify import artin

GRID = [(p, n, r) for p in (2, 3) for n in (1, 2) for r in (1, 2)]


# ------------------------------------------------------------- construction


def test_multiplicative_p2_r1_frozen():
    ring = ring_for(2, 1, 1)
    assert ring.rank == 2
    assert ring.modulus == 256
    assert ring.w_coeffs == (0, 2, 1)
    assert ring.q_elt.coeffs == (2, 1)
    y = ring.y_elt
    assert (y * y).coeffs == (0, 254)  # y^2 = -2y
    assert (y * ring.q_elt).is_zero


def test_multiplicative_p2_r2_frozen():
    ring = ring_for(2, 1, 2)
    assert ring.rank == 4
    assert ring.w_coeffs == (0, 4, 6, 4, 1)
    assert ring.q_elt.coeffs == (4, 6, 4, 1)


def test_honda_p2_n2_r1_frozen():
    ring = ring_for(2, 2, 1)
    assert ring.rank == 4
    assert ring.w_coeffs == (0, 114, 0, 0, 1)
    assert ring.distinguished.exact
    u0 = ring.unit_series.coeffs[0]
    assert u0 == 9 and u0 % 2
    # the factorization reproduces q_1 through the unit's known range
    back = ring.distinguished * ring.unit_series
    q_series = ring.fgl.p_series(1)
    L = len(back.coeffs)
    assert back.coeffs == q_series.coeffs[1 : L + 1]


@pytest.mark.parametrize("p,n,r", GRID)
def test_augmentation_of_q_is_p_to_r(p, n, r):
    ring = ring_for(p, n, r)
    assert ring.rank == p ** (r * n)
    assert ring.augmentation(ring.q_elt) == p**r
    assert (ring.y_elt * ring.q_elt).is_zero


def test_ring_cache_returns_same_object():
    F = law_for(2, 1)
    assert make_cochain_ring(F, 1) is make_cochain_ring(F, 1)
    assert make_cochain_ring(F, 1) is not make_cochain_ring(F, 2)


def test_make_cochain_ring_validation():
    F = make_multiplicative_fgl(2, M=3)
    make_cochain_ring(F, 1)  # rank 2 fits in M=3
    with pytest.raises(PrecisionError):
        make_cochain_ring(F, 2)
    with pytest.raises(ValueError):
        make_cochain_ring(F, 0)
    with pytest.raises(ValueError):
        make_cochain_ring(law_for(2, 1), 8, N=8)
    short = make_honda_fgl(2, 2, M=12)
    with pytest.raises(PrecisionError):
        make_cochain_ring(short, 1)
    wrong_n = make_honda_fgl(2, 2, M=40, N=6)
    with pytest.raises(ContextMismatch):
        make_cochain_ring(wrong_n, 1, N=8)


def test_minimum_series_precision_formula():
    assert minimum_series_precision(2, 1, 1, 8, True) == 3
    assert minimum_series_precision(2, 1, 2, 8, True) == 5
    assert minimum_series_precision(2, 2, 1, 8, False) == 34
    assert minimum_series_precision(3, 2, 2, 8, False) == 804


# ---------------------------------------------------------------- arithmetic


@pytest.mark.parametrize("p,n,r", GRID)
def test_ring_axioms_randomized(p, n, r):
    ring = ring_for(p, n, r)
    rng = random.Random(1000 * p + 100 * n + r)
    one = ring.one
    for _ in range(12):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        c = ring.random_element(rng)
        assert (a * one).coeffs == a.coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a + a.scale(-1)).is_zero
        assert ((a + b.scale(-1)) + b).coeffs == a.coeffs


@pytest.mark.parametrize("p,n,r", GRID)
def test_augmentation_is_a_ring_map(p, n, r):
    ring = ring_for(p, n, r)
    m = ring.modulus
    rng = random.Random(7 * p + n + r)
    assert ring.augmentation(ring.one) == 1
    assert ring.augmentation(ring.y_elt) == 0
    for _ in range(15):
        a = ring.random_element(rng)
        b = ring.random_element(rng)
        ea, eb = ring.augmentation(a), ring.augmentation(b)
        assert ring.augmentation(a + b) == (ea + eb) % m
        assert ring.augmentation(a * b) == (ea * eb) % m


def test_relation_reduction():
    ring = ring_for(2, 1, 1)
    # y^2 reduces through the relation, y^3 through it twice
    assert ring.element([0, 0, 1]).coeffs == (0, 254)
    assert ring.element([0, 0, 0, 1]).coeffs == (0, 4)
    assert ring.element([5]).coeffs == (5, 0)


@pytest.mark.parametrize("p,n,r", [(2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 1)])
def test_reduce_poly_matches_sympy_remainder(p, n, r):
    # independent oracle: the remainder by the monic relation over ZZ,
    # then reduced mod p^N
    sympy = pytest.importorskip("sympy")
    y = sympy.Symbol("y")
    ring = ring_for(p, n, r)
    m, rank = ring.modulus, ring.rank
    w = sympy.Poly(list(reversed(ring.w_coeffs)), y, domain=sympy.ZZ)
    assert w.is_monic and w.degree() == rank

    def oracle(coeffs):
        if not coeffs:
            return (0,) * rank
        rem = sympy.rem(sympy.Poly(list(reversed(coeffs)), y, domain=sympy.ZZ), w)
        low = [int(c) % m for c in reversed(rem.all_coeffs())]
        return tuple(low + [0] * (rank - len(low)))

    rng = random.Random(31 * p + 7 * n + r)
    inputs = [[rng.randrange(m) for _ in range(rng.randint(0, 3 * rank))] for _ in range(20)]
    inputs += [[m - 1] * length for length in (rank, rank + 1, 2 * rank, 3 * rank)]
    inputs += [[rng.randrange(m) for _ in range(length)] for length in range(rank)]
    for coeffs in inputs:
        assert ring._reduce_poly(coeffs) == oracle(coeffs), coeffs


def test_scale_accepts_coefficient_and_int():
    ring = ring_for(2, 1, 1)
    y = ring.y_elt
    assert y.scale(3).coeffs == (0, 3)


def test_cross_ring_operations_rejected():
    a = ring_for(2, 1, 1).y_elt
    b = ring_for(2, 1, 2).y_elt
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        ring_for(2, 1, 2).augmentation(a)


def test_from_series_contract():
    ring = ring_for(2, 2, 1)
    F = ring.fgl
    # the p-series itself lands on y * q = 0
    assert ring.from_series(F.p_series(1)).is_zero
    exact = TruncatedSeries(ring.context, (1, 0, 0, 0, 1), True)
    assert ring.from_series(exact).coeffs == ring.element([1, 0, 0, 0, 1]).coeffs
    short = TruncatedSeries(ring.context, (1,) * 10, False)
    with pytest.raises(PrecisionError):
        ring.from_series(short)
    foreign = TruncatedSeries(padic_context(3, 8), (1,) * 40, False)
    with pytest.raises(ContextMismatch):
        ring.from_series(foreign)
    with pytest.raises(TypeError):
        ring.from_series([1, 2, 3])


# ------------------------------------------------------------ mod-p reduction


@pytest.mark.parametrize("p,n,r", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 2, 1), (3, 1, 1)])
def test_mod_m_reduction_is_truncated_polynomial_algebra(p, n, r):
    ring = ring_for(p, n, r)
    alg = mod_m_reduction(ring)
    rank = ring.rank
    # y^i y^j reduced by the ring's own relation, then mod p
    table = np.zeros((rank, rank, rank), dtype=np.int64)
    for i in range(rank):
        for j in range(rank):
            table[i, j] = np.array(ring._reduce_poly([0] * (i + j) + [1])) % p
    assert (table == artin._truncated_table(rank)).all()
    assert (alg.table == table).all()
    assert alg.labels == artin.truncated_polynomial_algebra(p, rank).labels
    assert artin.nilpotency_exponent(alg) == rank


# --------------------------------------------------------------- tower maps


def test_substitution_p2_k2_frozen():
    F = law_for(2, 1)
    phi = substitution_map(F, 2)
    assert phi.k == 2
    assert phi.image_of_y.coeffs == (0, 2, 1, 0)  # 2y + y^2 in A_2
    assert phi.cofactor.coeffs == (2, 1, 0, 0)
    assert phi.apply(phi.source.y_elt).coeffs == (0, 2, 1, 0)


def test_substitution_k1_is_identity():
    F = law_for(2, 1)
    phi = substitution_map(F, 1)
    assert phi.source is phi.target
    assert phi.cofactor.coeffs == phi.target.one.coeffs
    rng = random.Random(3)
    for _ in range(10):
        a = phi.source.random_element(rng)
        assert phi.apply(a).coeffs == a.coeffs


def test_substitution_kills_the_source_relation():
    # [p]y = y * q_1 is zero in A_1 and must stay zero in A_k
    for (p, n, k) in [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)]:
        F = law_for(p, n, max_r=max(k, 2))
        phi = substitution_map(F, k)
        a1 = phi.source
        pseries_elt = a1.from_series(F.p_series(1))
        assert pseries_elt.is_zero
        assert phi.apply(pseries_elt).is_zero
        assert phi.apply(a1.y_elt * a1.q_elt).is_zero


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_substitution_is_a_ring_map_randomized(p, n, k):
    F = law_for(p, n, max_r=max(k, 2))
    phi = substitution_map(F, k)
    a1, ak = phi.source, phi.target
    rng = random.Random(50 + p + n + k)
    assert phi.apply(a1.one).coeffs == ak.one.coeffs
    for _ in range(10):
        a = a1.random_element(rng)
        b = a1.random_element(rng)
        assert phi.apply(a + b).coeffs == (phi.apply(a) + phi.apply(b)).coeffs
        assert phi.apply(a * b).coeffs == (phi.apply(a) * phi.apply(b)).coeffs
        # augmentations agree through the tower
        assert ak.augmentation(phi.apply(a)) == a1.augmentation(a)


def test_substitution_image_of_y_is_y_times_cofactor():
    for (p, n, k) in [(2, 1, 2), (3, 1, 2), (2, 2, 2)]:
        F = law_for(p, n, max_r=max(k, 2))
        phi = substitution_map(F, k)
        ak = phi.target
        assert phi.image_of_y.coeffs == (ak.y_elt * phi.cofactor).coeffs
        assert ak.augmentation(phi.cofactor) == p ** (k - 1)
        assert ak.augmentation(phi.image_of_y) == 0


def test_substitution_validation():
    with pytest.raises(ValueError):
        substitution_map(law_for(2, 1), 0)
