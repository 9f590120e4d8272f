"""Acceptance suite: one test per numbered criterion, zero tolerance.

Each test prints a `[criterion N] PASS` line (visible with -s; under
capture the pytest -v status line carries the verdict).  Timed
criteria build their formal group laws fresh inside the timed window
so the budgets are honest, bypassing the session cache in conftest.
"""

import random
import time

import numpy as np

from ramify import artin, emss, groups, homalg
from ramify.cochain import make_cochain_ring, minimum_series_precision
from ramify.fgl import exact_quotient_by_y, make_honda_fgl, make_multiplicative_fgl

GRID = [(p, n, r) for p in (2, 3) for n in (1, 2) for r in (1, 2)]


def _fresh_law(p, n, N=8, max_r=2):
    M = minimum_series_precision(p, n, max_r, N, polynomial_pseries=(n == 1))
    if n == 1:
        return make_multiplicative_fgl(p, M=M)
    return make_honda_fgl(p, n, M=M, N=N)


def _fresh_grid_rings(N=8):
    laws = {}
    rings = {}
    for (p, n, r) in GRID:
        if (p, n) not in laws:
            laws[(p, n)] = _fresh_law(p, n, N=N)
        rings[(p, n, r)] = make_cochain_ring(laws[(p, n)], r, N=N)
    return rings


def _report(num, label, elapsed=None):
    tail = "" if elapsed is None else " (%.2fs)" % elapsed
    print("[criterion %d] PASS %s%s" % (num, label, tail))


def test_criterion_1_tor_closed_form():
    t0 = time.perf_counter()
    rings = _fresh_grid_rings()
    for (p, n, r), ring in rings.items():
        table = homalg.tor_table(ring, 6)
        assert table.entry(0) == homalg.ModuleDescriptor(free=1)
        for s in (1, 3, 5):
            assert table.entry(s) == homalg.ModuleDescriptor(0, (p**r,))
        for s in (2, 4, 6):
            assert table.entry(s) == homalg.ModuleDescriptor(0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, "Tor closed form on the full grid", elapsed)


def test_criterion_2_weierstrass_preparation():
    t0 = time.perf_counter()
    rings = _fresh_grid_rings()
    for (p, n, r), ring in rings.items():
        d = p ** (r * n) - 1
        g = ring.distinguished
        assert g.exact
        assert len(g.coeffs) == d + 1 and g.coeffs[d] == 1  # monic, degree d
        assert all(g.coeffs[i] % p == 0 for i in range(d))  # = y^d mod p
        c0 = int(g.coeffs[0])
        v = 0
        while c0 % p == 0 and c0:
            c0 //= p
            v += 1
        assert v == r  # constant term valuation exactly r
        # re-multiplication against [p^r]y / y through degree p^(rn) + 1
        q = exact_quotient_by_y(ring.fgl.p_series(r))
        back = g * ring.unit_series
        window = d + 3  # p^(rn) + 2 coefficients
        modulus = ring.modulus
        for series in (q, back):  # known through the window, or exact
            assert series.exact or len(series.coeffs) >= window
        for i in range(window):
            qi = q._entry(i) % modulus
            bi = back._entry(i) % modulus
            assert qi == bi
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(2, "distinguished factors of q_r on the full grid", elapsed)


def test_criterion_3_comparison_chain_map():
    t0 = time.perf_counter()
    for p in (2, 3):
        law = _fresh_law(p, 1, max_r=3)
        for k in (2, 3):
            cm = homalg.comparison_chain_map(law, k, 6)
            assert cm.squares_checked == 6 * (p + 6)
            tm = homalg.induced_tor_morphism(cm.morphism, 6)
            assert tm.multiplier == p ** (k - 1)
            assert tm.odd_injective
            for s in (1, 3, 5):
                kind, mult, injective = tm.entries[s]
                assert kind == "times-p^(k-1)"
                assert mult == p ** (k - 1)
                assert injective
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, "comparison squares and induced odd-Tor maps", elapsed)


def test_criterion_4_rational_collapse():
    rings = _fresh_grid_rings()
    for key, ring in rings.items():
        ranks = homalg.rational_tor(ring, 6)
        assert ranks == (1, 0, 0, 0, 0, 0, 0)
    _report(4, "rational Tor vanishes in degrees 1..6 on the full grid")


def test_criterion_5_ramification_verdict():
    rings = _fresh_grid_rings()
    for (p, n, r), ring in rings.items():
        integral = homalg.convergence_diagnostic(ring, s_max=6)
        assert integral.verdict == "MISMATCH"
        assert len(integral.odd_witnesses) == 3
        for s, desc in integral.odd_witnesses:
            assert s % 2 == 1
            assert desc.torsion == (p**r,)
            assert not desc.is_zero
        rational = homalg.convergence_diagnostic(ring, s_max=6, rational=True)
        assert rational.verdict == "MATCH"
        assert rational.odd_witnesses == ()
    _report(5, "MISMATCH with odd witnesses integrally, MATCH rationally")


def test_criterion_6_emss():
    t0 = time.perf_counter()
    for p in (3, 5):
        S = 3
        page2 = emss.initial_page(p, S)
        # E2 = Gamma (x) Lambda: one monomial per bidegree, 2 p^S cells
        assert page2.total_dimension == 2 * p**S
        degrees = {}
        for m in page2.monomials:
            deg = m.bidegree(p)
            assert deg not in degrees
            degrees[deg] = m
        want_even = {(m, -m) for m in range(p**S)}
        want_odd = {(1 + m, -2 - m) for m in range(p**S)}
        assert set(degrees) == want_even | want_odd

        history = emss.turn_pages(page2, S - 1)
        after1 = history[1]
        # F_p[zeta]/(zeta^p) (x) higher divided powers (x) Lambda(gamma_p sy):
        # even part has slot 1 empty, odd part has slot 1 full
        expected = set()
        for a0 in range(p):
            for rest in np.ndindex(*(p,) * (S - 2)):
                expected.add(
                    emss.DPBasisElement((a0, 0) + tuple(int(x) for x in rest), 0)
                )
                expected.add(
                    emss.DPBasisElement((a0, p - 1) + tuple(int(x) for x in rest), 1)
                )
        assert set(after1.monomials) == expected
        for page in history[1:]:
            assert page.record.d_squared_zero
            assert page.record.euler_before == page.record.euler_after

        report = emss.final_page_report(p, S)
        assert report.verdict == "MATCH"
        assert report.total_dim == p
        zeta_powers = {
            emss.DPBasisElement((a,) + (0,) * (S - 1), 0) for a in range(p)
        }
        assert set(report.survivors) == zeta_powers
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(6, "divided-power pages at p in {3, 5}, S = 3", elapsed)


def test_criterion_7_socle_and_nakayama():
    for p in (2, 3):
        for m in range(2, 10):
            alg = artin.truncated_polynomial_algebra(p, m)
            reg = artin.regular_module(alg)
            series = artin.socle_series(reg)
            assert series.dims == tuple(range(1, m + 1))
            assert series.k0 == m and series.e == m
            for k in range(1, m + 1):
                # the first dims[k-1] rows of the adapted basis span soc^k
                red = artin.row_space(series.basis[: series.dims[k - 1]], p)
                want = np.zeros((k, m), dtype=np.int64)
                for i in range(k):
                    want[i, m - k + i] = 1  # soc^k = (y^(m-k))
                assert red.tolist() == want.tolist()
    rng = random.Random(0)
    pool = [artin.truncated_polynomial_algebra(2, m) for m in range(2, 9)]
    pool.append(artin.truncated_polynomial_algebra(3, 3))
    pool.append(
        artin.tensor_algebra(
            artin.truncated_polynomial_algebra(2, 2),
            artin.truncated_polynomial_algebra(2, 2),
        )
    )
    frees = [artin.free_module(alg, 2) for alg in pool]
    checks = 0
    for _ in range(200):
        mod = artin.random_spanned_module(frees[rng.randrange(len(frees))], rng)
        top, dim = artin.nakayama_check(mod)  # raises on JM = M != 0
        assert dim <= 16
        assert (dim == 0 and top == 0) or top > 0
        checks += 1
    assert checks == 200
    _report(7, "socle ladders for m in 2..9 and 200 clean Nakayama checks")


def test_criterion_8_infinite_global_dimension():
    tested = []
    for p, ms in ((2, range(2, 10)), (3, (4,))):
        for m in ms:
            alg = artin.truncated_polynomial_algebra(p, m)
            b = artin.minimal_free_resolution(alg, 10)
            assert b == (1,) * 11
            tested.append(b)
    two = artin.tensor_algebra(
        artin.truncated_polynomial_algebra(2, 2),
        artin.truncated_polynomial_algebra(2, 2),
    )
    b = artin.minimal_free_resolution(two, 10)
    assert b == (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
    tested.append(b)
    odd = artin.tensor_algebra(
        artin.truncated_polynomial_algebra(3, 2),
        artin.truncated_polynomial_algebra(3, 2),
    )
    b = artin.minimal_free_resolution(odd, 10)
    tested.append(b)
    for seq in tested:
        assert all(v > 0 for v in seq)  # no zero entry anywhere
    _report(8, "Betti sequences to s = 10 for every tested local algebra")


def test_criterion_9_sigma3_separation():
    t0 = time.perf_counter()
    s3 = groups.symmetric_group(3)
    comp = groups.has_normal_p_complement(s3, 2)
    assert comp.exists
    assert set(comp.subgroup.elements) == set(groups.alternating_group(3).elements)

    conj = groups.conjugation_nilpotent(s3, 2)
    assert not conj.nilpotent
    assert conj.stable_dim >= 2
    # V = differences of transpositions sits inside the stable module
    swaps = [i for i, g in enumerate(s3.elements) if groups.perm_order(g) == 2]
    red, piv = artin.rref(list(conj.stable_basis), 2)
    for a, b in [(swaps[0], swaps[1]), (swaps[0], swaps[2])]:
        vec = [0] * s3.order
        vec[a] = vec[b] = 1
        assert not artin.residual(vec, red, piv, 2).any()

    a4 = groups.alternating_group(4)
    assert not groups.has_normal_p_complement(a4, 2).exists

    for G in (groups.dihedral_group(4), groups.quaternion_group(), groups.cyclic_group(4)):
        rep = groups.conjugation_nilpotent(G, 2)
        assert rep.nilpotent and rep.stable_dim == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(9, "S3 splits yet fails conjugation nilpotence; A4 does not split", elapsed)


def test_precision_stability_n8_vs_n12():
    # every acceptance computation must come out the same at N = 12
    # after reduction mod p^8
    rings8 = _fresh_grid_rings(N=8)
    rings12 = _fresh_grid_rings(N=12)
    for key in rings8:
        p, n, r = key
        r8, r12 = rings8[key], rings12[key]
        assert homalg.tor_table(r12, 6).entries == homalg.tor_table(r8, 6).entries
        assert homalg.rational_tor(r12, 6) == homalg.rational_tor(r8, 6)
        mod8 = p**8
        assert tuple(c % mod8 for c in r12.w_coeffs) == r8.w_coeffs
        assert tuple(c % mod8 for c in r12.q_elt.coeffs) == r8.q_elt.coeffs
        assert (
            homalg.convergence_diagnostic(r12, 6).verdict
            == homalg.convergence_diagnostic(r8, 6).verdict
            == "MISMATCH"
        )
    print("[precision] PASS N = 8 and N = 12 agree after reduction")
