"""Quotient rings A_r, their structure maps, and the tower morphisms."""

import dataclasses
import random

import numpy as np
import pytest

from conftest import law_for, random_element, ring_for
from test_fgl import _accepted_grid
from ramify.coeff import ContextMismatch, padic_context
from ramify.cochain import (
    MorphismError,
    RingElement,
    make_cochain_ring,
    minimum_series_precision,
    mod_m_reduction,
    substitution_map,
)
from ramify.fgl import (
    PrecisionError,
    TruncatedSeries,
    WeierstrassError,
    WeierstrassFactorization,
    exact_quotient_by_y,
    make_honda_fgl,
    make_multiplicative_fgl,
    validated_series,
    weierstrass_preparation,
)
from ramify.homalg import ModuleDescriptor, tor_table
from ramify import artin, cli, cochain, fgl

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


# ------------------------------------------ the accepted grid and mutants


def _honda_grid():
    """The accepted (p, n, r, N) with n >= 2 and N <= 16."""
    return [pt for pt in _accepted_grid(16) if pt[1] >= 2]


def _honda_law(p, n, r, N, extra=0):
    M = minimum_series_precision(p, n, r, N, False) + extra
    return make_honda_fgl(p, n, M, N)


def test_every_grid_point_builds_a_ring_with_the_closed_form_tor(monkeypatch):
    points = _honda_grid()
    assert len(points) == 163
    steps = [0]
    inv = fgl.inverse

    def counting(*args):
        steps[0] += 1
        return inv(*args)

    monkeypatch.setattr(fgl, "inverse", counting)
    for p, n, r, N in points:
        F = _honda_law(p, n, r, N)
        F.p_series(r)  # its Newton solve inverts series too
        steps[0] = 0
        ring = make_cochain_ring(F, r, N)
        # one inverse per Hensel step, within the bound that
        # weierstrass_preparation proves
        assert steps[0] <= (N - 1).bit_length(), (p, n, r, N)
        # the unit is right through its length: q_r known rank - 1
        # coefficients further prepares to a unit with the same prefix
        longer = _honda_law(p, n, r, N, extra=ring.rank - 1)
        unit = weierstrass_preparation(exact_quotient_by_y(longer.p_series(r))).unit
        known = ring.unit_series.coeffs
        assert unit.coeffs[: len(known)] == known, (p, n, r, N)
        tor = tor_table(ring, 6).entries
        assert tor[0] == ModuleDescriptor(free=1)
        assert tor[1::2] == (ModuleDescriptor(free=0, torsion=(p**r,)),) * 3
        assert all(e.is_zero for e in tor[2::2]), (p, n, r, N)


def _mutate_preparation(monkeypatch, mutate):
    """make_cochain_ring sees the prepared factors after mutate(g, u,
    p^(N - 1)) has edited their coefficient lists."""
    prepare = cochain.weierstrass_preparation

    def mutated(q):
        wf = prepare(q)
        g, u = list(wf.distinguished.coeffs), list(wf.unit.coeffs)
        mutate(g, u, q.context.modulus // q.context.p)
        return WeierstrassFactorization(
            validated_series(q.context, g, True),
            validated_series(q.context, u, False),
            wf.degree,
        )

    monkeypatch.setattr(cochain, "weierstrass_preparation", mutated)


@pytest.mark.parametrize("k", [0, 1])
def test_a_wrong_distinguished_factor_fails_the_ring_certificate(k, monkeypatch):
    # g + p^(N-1) y^k is still monic and distinguished of degree rank - 1,
    # so only y * q_r = 0 can tell it from g_r
    def shift(g, u, step):
        g[k] += step

    _mutate_preparation(monkeypatch, shift)
    for p, n, r, N in _honda_grid():
        with pytest.raises(WeierstrassError, match=r"y \* q_r is nonzero"):
            make_cochain_ring(_honda_law(p, n, r, N), r, N)


def test_a_factor_of_the_wrong_degree_is_refused(monkeypatch):
    def lower(g, u, step):
        del g[0]  # (g - g_0) / y: monic of degree rank - 2

    _mutate_preparation(monkeypatch, lower)
    for p, n, r, N in [(2, 2, 1, 8), (3, 2, 1, 5), (2, 3, 2, 9)]:
        with pytest.raises(WeierstrassError, match="wrong degree"):
            make_cochain_ring(_honda_law(p, n, r, N), r, N)


def test_a_factor_that_is_not_monic_is_refused(monkeypatch):
    def top(g, u, step):
        g[-1] += step  # leading coefficient 1 + p^(N-1)

    _mutate_preparation(monkeypatch, top)
    for p, n, r, N in [(2, 2, 1, 8), (3, 2, 1, 5), (2, 3, 2, 9)]:
        with pytest.raises(WeierstrassError, match="^relation is not monic$"):
            make_cochain_ring(_honda_law(p, n, r, N), r, N)


def test_a_factor_with_a_unit_below_its_top_is_refused(monkeypatch):
    def unit(g, u, step):
        g[0] += 1  # g_0 lies in (p), so g_0 + 1 is a unit

    _mutate_preparation(monkeypatch, unit)
    for p, n, r, N in [(2, 2, 1, 8), (3, 2, 1, 5), (2, 3, 2, 9)]:
        with pytest.raises(WeierstrassError,
                           match=r"^relation is not congruent to y\^rank mod p$"):
            make_cochain_ring(_honda_law(p, n, r, N), r, N)


def test_a_relation_with_a_constant_term_is_refused():
    # make_cochain_ring installs w = y g, whose constant term is 0; a
    # relation handed to the constructor directly is checked as well.
    # w_0 = p lies in (p), so only the constant-term check refuses it
    ring = ring_for(2, 2, 1)
    w = (2,) + ring.w_coeffs[1:]
    with pytest.raises(WeierstrassError, match="^relation must have zero constant term$"):
        cochain.CyclicCochainRing(ring.fgl, ring.r, ring.context, w, ring.unit_series,
                                  ring.distinguished)


def test_a_wrong_unit_fails_the_cli_remultiplication(monkeypatch, capsys):
    # u_0 + p^(N-1) moves the product at degree rank - 1, inside the window
    def shift(g, u, step):
        u[0] += step

    _mutate_preparation(monkeypatch, shift)
    assert cli.main(["weierstrass", "--p", "2", "--n", "2"]) == 2
    assert "re-multiplication failed" in capsys.readouterr().err


# ---------------------------------------------------------------- arithmetic


def _neg(a):
    return a.ring.element([-c for c in a.coeffs])


@pytest.mark.parametrize("p,n,r", GRID)
def test_ring_axioms_randomized(p, n, r):
    ring = ring_for(p, n, r)
    rng = random.Random(1000 * p + 100 * n + r)
    one = ring.one
    for _ in range(12):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        c = random_element(ring, rng)
        assert (a * one).coeffs == a.coeffs
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a + _neg(a)).is_zero
        assert ((a + _neg(b)) + b).coeffs == a.coeffs


@pytest.mark.parametrize("p,n,r", GRID)
def test_augmentation_is_a_ring_map(p, n, r):
    ring = ring_for(p, n, r)
    m = ring.modulus
    rng = random.Random(7 * p + n + r)
    assert ring.augmentation(ring.one) == 1
    assert ring.augmentation(ring.y_elt) == 0
    for _ in range(15):
        a = random_element(ring, rng)
        b = random_element(ring, rng)
        ea, eb = ring.augmentation(a), ring.augmentation(b)
        assert ring.augmentation(a + b) == (ea + eb) % m
        assert ring.augmentation(a * b) == (ea * eb) % m


def test_relation_reduction():
    ring = ring_for(2, 1, 1)
    # y^2 reduces through the relation, y^3 through it twice
    assert ring.element([0, 0, 1]).coeffs == (0, 254)
    assert ring.element([0, 0, 0, 1]).coeffs == (0, 4)
    assert ring.element([5]).coeffs == (5, 0)


def _reduce_poly_oracle(ring, coeffs):
    """Euclidean division by the monic relation over every input
    coefficient and every coefficient of w, with no tail bound."""
    m, rank, w = ring.modulus, ring.rank, ring.w_coeffs
    c = [int(x) for x in coeffs] + [0] * max(0, rank - len(coeffs))
    for deg in range(len(c) - 1, rank - 1, -1):
        t = c[deg] % m
        if t:
            for j in range(rank + 1):
                c[deg - rank + j] -= t * w[j]
        c[deg] = 0
    return tuple(x % m for x in c[:rank])


@pytest.mark.parametrize("p,n,r", [(2, 1, 1), (2, 2, 1), (3, 1, 2), (3, 2, 1), (7, 2, 1)])
def test_reduce_poly_matches_sympy_remainder(p, n, r):
    # two oracles: the dense Euclidean loop, and the remainder by the
    # monic relation over ZZ, reduced mod p^N; inputs run past the tail
    # bound (N + 1)(rank - 1) + 1 at which _reduce_poly cuts them.  At
    # p = 7, N = 12 the ring is object-dtype: (7^12 - 1)^2 * 49 > 2^63
    try:
        import sympy
    except ImportError:
        sympy = None
    N = 12 if p == 7 else 8
    ring = ring_for(p, n, r, N=N)
    m, rank = ring.modulus, ring.rank
    assert (ring.dtype is object) == (p == 7)
    if sympy is not None:
        y = sympy.Symbol("y")
        w = sympy.Poly(list(reversed(ring.w_coeffs)), y, domain=sympy.ZZ)
        assert w.is_monic and w.degree() == rank
        shift = sympy.Poly(y**rank, y, domain=sympy.ZZ)

    def remainder(coeffs):
        # Horner over blocks of rank coefficients, cut mod m between
        # remainders so that the integers stay small
        rem = sympy.Poly(0, y, domain=sympy.ZZ)
        for k in reversed(range(0, len(coeffs), rank)):
            block = sympy.Poly(list(reversed(coeffs[k : k + rank])), y, domain=sympy.ZZ)
            rem = (rem * shift + block).rem(w, auto=False).trunc(m)
        low = [int(c) % m for c in reversed(rem.all_coeffs())]
        return tuple(low + [0] * (rank - len(low)))

    rng = random.Random(31 * p + 7 * n + r)
    tail = (N + 1) * (rank - 1) + 1
    inputs = [[rng.randrange(m) for _ in range(rng.randint(0, (N + 3) * rank))]
              for _ in range(20)]
    lengths = (rank, rank + 1, 2 * rank, 3 * rank, tail - 1, tail, tail + 1, 3 * (N + 1) * rank)
    inputs += [[m - 1] * length for length in lengths]
    inputs += [[rng.randrange(m) for _ in range(length)] for length in range(rank)]
    # the unreduced convolutions _product hands over: length 2 rank - 1,
    # entries up to (m - 1)^2 rank
    big = (m - 1) ** 2 * rank
    inputs += [[big] * (2 * rank - 1)]
    inputs += [[rng.randrange(big + 1) for _ in range(2 * rank - 1)] for _ in range(5)]
    for coeffs in inputs:
        want = _reduce_poly_oracle(ring, coeffs)
        assert ring._reduce_poly(coeffs) == want, len(coeffs)
        if sympy is not None:
            assert remainder(coeffs) == want, len(coeffs)


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


# --------------------------------------------- products and the closed form y x

# (p, n, r, N): int64 rings, among them (3, 1, 1, 19) with (m - 1)^2 rank
# near 2^62, and object rings: (3, 1, 2, 19), whose (m - 1)^2 rank lies
# between 2^63 and 2^64, and (7, 1, 1, 24).  An odd modulus, unlike a
# power of 2, shows a wrapped int64 sum.
PRODUCT_RINGS = [
    (2, 1, 1, 8), (2, 2, 1, 8), (3, 1, 2, 8), (2, 2, 2, 8), (3, 2, 1, 5),
    (3, 2, 2, 8), (5, 1, 1, 8), (3, 1, 1, 19), (3, 1, 2, 19), (7, 1, 1, 24),
]


def _reference_product(a, b):
    """a * b by exact integer convolution, then Euclidean division."""
    conv = [0] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, z in enumerate(b.coeffs):
            conv[i + j] += x * z
    return _reduce_poly_oracle(a.ring, conv)


@pytest.mark.parametrize("p,n,r,N", PRODUCT_RINGS)
def test_products_match_convolution_and_euclidean_division(p, n, r, N):
    ring = ring_for(p, n, r, N=N)
    m, rank = ring.modulus, ring.rank
    assert ring.dtype == (np.int64 if (m - 1) ** 2 * rank < 2**63 else object)
    rng = random.Random(1000 * p + 100 * n + 10 * r + N)
    elts = [ring.y_elt, ring.q_elt, RingElement(ring, (m - 1,) * rank)]
    elts += [random_element(ring, rng) for _ in range(4)]
    for a in elts:
        for b in elts:
            assert (a * b).coeffs == _reference_product(a, b)


@pytest.mark.parametrize("p,n,k,N", [(2, 1, 2, 8), (2, 1, 3, 8), (3, 1, 2, 8),
                                     (2, 2, 2, 8), (3, 2, 2, 8), (7, 1, 2, 24)])
def test_apply_is_the_sum_of_scaled_powers(p, n, k, N):
    phi = substitution_map(law_for(p, n, max_r=max(k, 2), N=N), k, N)
    a1, ak = phi.source, phi.target
    m = ak.modulus
    powers = [ak.one.coeffs]
    for _ in range(a1.rank - 1):
        powers.append(_reference_product(RingElement(ak, powers[-1]), phi.image_of_y))
    assert phi.powers.tolist() == [list(pw) for pw in powers]
    rng = random.Random(10 * p + n + k)
    probes = [a1.one, a1.y_elt, RingElement(a1, (a1.modulus - 1,) * a1.rank)]
    for x in probes + [random_element(a1, rng) for _ in range(5)]:
        acc = [0] * ak.rank
        for c, pw in zip(x.coeffs, powers):
            acc = [(s + c * v) % m for s, v in zip(acc, pw)]
        assert phi.apply(x).coeffs == tuple(acc)


@pytest.mark.parametrize("p,n,r", GRID)
def test_fold_row_i_is_y_to_the_rank_plus_i(p, n, r):
    # y^(rank+i) mod w by i + 1 steps of the closed form y x that the
    # ring certificate reads, against the Euclidean division
    ring = ring_for(p, n, r)
    rank = ring.rank
    row = ring._reduce_poly([0] * (rank - 1) + [1])
    for i in range(rank - 1):
        row = ring._times_y(row)
        assert row == ring._reduce_poly([0] * (rank + i) + [1]), i


@pytest.mark.parametrize("j", [0, -1])
def test_a_wrong_fold_row_fails_the_ring_certificate(j, monkeypatch):
    # the certificate y * q_r = 0 reads w below y^rank from w_coeffs;
    # the division keeps the correct _w_terms
    init = cochain.CyclicCochainRing.__init__

    def wrong(ring, *args):
        init(ring, *args)
        w = list(ring.w_coeffs)
        w[j % ring.rank] = (w[j % ring.rank] + 1) % ring.modulus
        ring.w_coeffs = tuple(w)

    monkeypatch.setattr(cochain.CyclicCochainRing, "__init__", wrong)
    cases = [(make_multiplicative_fgl(2, M=5), 2, 8), (_honda_law(2, 2, 1, 8), 1, 8),
             (_honda_law(3, 2, 1, 5), 1, 5)]
    for F, r, N in cases:
        with pytest.raises(WeierstrassError, match=r"y \* q_r is nonzero"):
            make_cochain_ring(F, r, N)


def test_a_ring_holds_no_rank_squared_array():
    # after products in every ring of GRID and of compare --p 3 --n 2
    # --k 2, no array a ring holds grows past (N + 2) rank cells
    rings = [ring_for(p, n, r) for p, n, r in GRID]
    phi = substitution_map(law_for(3, 2), 2)
    rings += [phi.source, phi.target]
    rng = random.Random(5)
    for ring in rings:
        elts = [ring.y_elt, ring.q_elt, random_element(ring, rng)]
        for a in elts:
            for b in elts:
                a * b
        cells = (ring.context.prec + 2) * ring.rank
        for value in vars(ring).values():
            assert not isinstance(value, np.ndarray) or value.size <= cells, ring
    assert max(ring.rank for ring in rings) == 81


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
        a = random_element(phi.source, rng)
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
        a = random_element(a1, rng)
        b = random_element(a1, rng)
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


def test_substitution_refuses_a_source_relation_it_does_not_kill(monkeypatch):
    F = law_for(2, 2)
    a1 = make_cochain_ring(F, 1)
    w = list(a1.w_coeffs)
    w[1] += 2**7  # p^(N - 1): phi(w_1) picks up p^(N - 1) phi(y)
    monkeypatch.setattr(a1, "w_coeffs", tuple(w))
    with pytest.raises(MorphismError, match="source relation"):
        substitution_map(F, 2)


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_a_wrong_cofactor_series_fails_the_image_of_y(p, n, k, monkeypatch):
    # q_(k-1) with p added to its constant term moves y Q by p y, which
    # [p^(k-1)](y), reduced directly, does not
    F = law_for(p, n, max_r=k)
    make_cochain_ring(F, 1)  # both rings are built before the mutant
    make_cochain_ring(F, k)
    quotient = cochain.exact_quotient_by_y

    def wrong(series):
        q = quotient(series)
        return dataclasses.replace(q, coeffs=(q.coeffs[0] + p,) + q.coeffs[1:])

    monkeypatch.setattr(cochain, "exact_quotient_by_y", wrong)
    with pytest.raises(MorphismError,
                       match=r"^y \* q_\(k-1\) disagrees with \[p\^\(k-1\)\]y in A_k$"):
        substitution_map(F, k)


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_a_tower_map_that_kills_y_is_not_injective(p, n, k, monkeypatch):
    # y |-> 0 is a ring map A_1 -> A_k: it sends w_1 to w_1(0) = 0, so the
    # relation check passes and only the rank check refuses it
    powers = cochain._powers_matrix
    monkeypatch.setattr(cochain, "_powers_matrix",
                        lambda x, count: powers(x.ring.element([0]), count))
    with pytest.raises(MorphismError, match="^tower map is not injective$"):
        substitution_map(law_for(p, n, max_r=k), k)


def test_substitution_multiplies_rank_plus_one_times(monkeypatch):
    # phi(y), its powers below y^rank_1, and phi(y)^rank_1 for phi(w_1)
    F = law_for(3, 1)
    make_cochain_ring(F, 1)
    make_cochain_ring(F, 2)
    products = [0]
    mul = RingElement.__mul__

    def counting(a, b):
        products[0] += 1
        return mul(a, b)

    monkeypatch.setattr(RingElement, "__mul__", counting)
    substitution_map(F, 2)
    assert products[0] == 1 + 2 + 1
