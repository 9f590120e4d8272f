"""Smith normal form, the periodic resolution, Tor pages, comparison maps."""

import dataclasses
import math
import random

import pytest

from conftest import law_for, random_element, ring_for
from ramify import homalg
from ramify.cochain import RingElement, substitution_map
from ramify.homalg import (
    ChainMapError,
    HomologyError,
    ModuleDescriptor,
    comparison_chain_map,
    convergence_diagnostic,
    induced_tor_morphism,
    kunneth_page,
    rational_tor,
    tor_table,
)

GRID = [(p, n, r) for p in (2, 3) for n in (1, 2) for r in (1, 2)]


# ------------------------------------------------------------------------ SNF
#
# The oracle: the general integer Smith normal form.  tor_table only
# ever takes the invariant factors of a 1x1 matrix, and the library's
# smith_normal_form is the closed form of that case.


def smith_normal_form(mat):
    """Invariant factors of an integer matrix, ascending divisibility.

    Plain elementary row and column operations over Python ints; no
    transform matrices are kept.  Returns the list of nonzero diagonal
    entries (absolute values).
    """
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < m and t < n:
        # smallest nonzero entry of the trailing submatrix to (t, t)
        bi = bj = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (bi is None or abs(a[i][j]) < abs(a[bi][bj])):
                    bi, bj = i, j
        if bi is None:
            break
        while True:
            a[t], a[bi] = a[bi], a[t]
            for row in a:
                row[t], row[bj] = row[bj], row[t]
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] % piv:
                    q = a[i][t] // piv
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
                    dirty = True
            if not dirty:
                for j in range(t + 1, n):
                    if a[t][j] % piv:
                        q = a[t][j] // piv
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                        dirty = True
            if dirty:
                bi = bj = None
                for i in range(t, m):
                    for j in range(t, n):
                        if a[i][j] and (
                            bi is None or abs(a[i][j]) < abs(a[bi][bj])
                        ):
                            bi, bj = i, j
                continue
            # pivot divides its row and column: clear them exactly
            for i in range(t + 1, m):
                q = a[i][t] // piv
                if q:
                    for j in range(t, n):
                        a[i][j] -= q * a[t][j]
            for j in range(t + 1, n):
                q = a[t][j] // piv
                if q:
                    for i in range(t, m):
                        a[i][j] -= q * a[i][t]
            # divisibility sweep over the rest of the submatrix
            bad = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % piv:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            for j in range(t, n):
                a[t][j] += a[bad][j]
            bi, bj = t, t
            for i in range(t, m):
                for j in range(t, n):
                    if a[i][j] and abs(a[i][j]) < abs(a[bi][bj]):
                        bi, bj = i, j
        diag.append(abs(a[t][t]))
        t += 1
    return diag


def test_snf_frozen_cases():
    assert smith_normal_form([[2, 4], [6, 8]]) == [2, 4]
    assert smith_normal_form([[6, 0], [0, 10]]) == [2, 30]
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    assert smith_normal_form([[1]]) == [1]
    assert smith_normal_form([[0]]) == []
    assert smith_normal_form([[0, 0], [0, 0]]) == []
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [1, 1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[5, 0, 0], [0, 10, 0]]) == [5, 10]


def test_snf_divisibility_chain_randomized():
    rng = random.Random(411)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        mat = [[rng.randrange(-20, 21) for _ in range(n)] for _ in range(m)]
        inv = smith_normal_form(mat)
        assert all(d > 0 for d in inv)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_snf_matches_sympy_invariant_factors():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    rng = random.Random(2718)
    for _ in range(300):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        mat = [[rng.randrange(-30, 31) for _ in range(n)] for _ in range(m)]
        want = invariant_factors(sympy.Matrix(mat), domain=sympy.ZZ)
        assert smith_normal_form(mat) == [abs(int(d)) for d in want if d], mat


def _unimodular(rng, n):
    # random product of elementary row operations applied to the identity
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randrange(-2, 3)
        for k in range(n):
            u[i][k] += c * u[j][k]
    return u


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_snf_invariant_under_unimodular_change_of_basis():
    rng = random.Random(62)
    for _ in range(40):
        m = rng.randrange(2, 5)
        n = rng.randrange(2, 5)
        mat = [[rng.randrange(-15, 16) for _ in range(n)] for _ in range(m)]
        u = _unimodular(rng, m)
        v = _unimodular(rng, n)
        assert smith_normal_form(_mat_mul(_mat_mul(u, mat), v)) == smith_normal_form(
            mat
        )


def test_snf_of_diagonal_gives_elementary_divisors():
    rng = random.Random(5150)
    for _ in range(30):
        entries = [rng.randrange(1, 40) for _ in range(rng.randrange(1, 5))]
        mat = [
            [entries[i] if i == j else 0 for j in range(len(entries))]
            for i in range(len(entries))
        ]
        inv = smith_normal_form(mat)
        assert math.prod(inv) == math.prod(entries)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0


def test_library_snf_is_the_oracle_on_1x1_and_refuses_other_shapes():
    rng = random.Random(1980)
    values = [0, 1, -1]
    values += [sign * p**r for p in (2, 3, 5, 7) for r in range(7) for sign in (1, -1)]
    values += [rng.randrange(-10**12, 10**12) for _ in range(200)]
    for a in values:
        assert homalg.smith_normal_form([[a]]) == smith_normal_form([[a]]), a
    for mat in ([], [[1, 0]], [[1], [0]], [[2, 0], [0, 3]]):
        with pytest.raises(ValueError, match="^smith_normal_form takes a 1x1 matrix$"):
            homalg.smith_normal_form(mat)


# ------------------------------------------------------------ integer complex
#
# The oracle: a general chain complex of free abelian groups and its
# homology by Smith normal form.  tor_table reads Tor off the period of
# the resolution; on the full resolution, tensored down, this must give
# the same groups.


class IntMatrixComplex:
    """Chain complex of finitely generated free abelian groups given by
    integer matrices d_1..d_L, with d_i of shape (n_(i-1), n_i)."""

    def __init__(self, matrices):
        self.matrices = [[[int(x) for x in row] for row in m] for m in matrices]
        if not self.matrices:
            raise ValueError("complex needs at least one matrix")
        self.ranks = [len(self.matrices[0])]
        for m in self.matrices:
            if len(m) != self.ranks[-1]:
                raise ValueError("matrix shapes are not composable")
            self.ranks.append(len(m[0]) if m else 0)
        for a, b in zip(self.matrices, self.matrices[1:]):
            if any(x for row in _mat_mul(a, b) for x in row):
                raise HomologyError("consecutive matrices do not compose to zero")

    @property
    def length(self):
        return len(self.matrices)


def _full_resolution(ring, length):
    """The multipliers of the resolution of the residue object through
    degree length: multiplier s (1-based) is y for odd s and q_r for
    even s."""
    return tuple(ring.y_elt if s % 2 else ring.q_elt for s in range(1, length + 1))


def tensor_down(ring, multipliers):
    """Each rank-one differential becomes the 1x1 integer matrix of its
    augmentation's canonical lift."""
    mats = []
    for m in multipliers:
        v = ring.augmentation(m)
        assert 0 <= v < ring.modulus
        mats.append([[v]])
    return IntMatrixComplex(mats)


def snf_homology(complex_, s):
    """H_s of an integer matrix complex, 0 <= s < length."""
    if not (0 <= s < complex_.length):
        raise ValueError("homology degree out of range for this complex")
    rank_out = len(smith_normal_form(complex_.matrices[s - 1])) if s >= 1 else 0
    inv_in = smith_normal_form(complex_.matrices[s])
    free = complex_.ranks[s] - rank_out - len(inv_in)
    assert free >= 0
    return ModuleDescriptor(free=free, torsion=tuple(d for d in inv_in if d != 1))


def test_module_descriptor_str():
    assert str(ModuleDescriptor(1)) == "Z"
    assert str(ModuleDescriptor(3)) == "Z^3"
    assert str(ModuleDescriptor(0, (4,))) == "Z/4"
    assert str(ModuleDescriptor(1, (9,))) == "Z + Z/9"
    assert str(ModuleDescriptor(0)) == "0"
    assert ModuleDescriptor(0).is_zero
    assert not ModuleDescriptor(0, (2,)).is_zero


def test_int_matrix_complex_homology():
    # 0 <- Z <- Z with d_1 = 0, d_2 = 4, d_3 = 0
    C = IntMatrixComplex([[[0]], [[4]], [[0]]])
    assert C.ranks == [1, 1, 1, 1]
    assert str(snf_homology(C, 0)) == "Z"
    assert str(snf_homology(C, 1)) == "Z/4"
    # d_2 = 4 is injective out of C_2, so nothing survives there
    assert str(snf_homology(C, 2)) == "0"
    with pytest.raises(ValueError):
        snf_homology(C, 3)
    with pytest.raises(ValueError):
        snf_homology(C, -1)


def test_int_matrix_complex_validation():
    with pytest.raises(ValueError):
        IntMatrixComplex([])
    with pytest.raises(ValueError):
        IntMatrixComplex([[[1, 0]], [[1, 0]]])  # 1x2 then 1x2: not composable
    with pytest.raises(HomologyError):
        IntMatrixComplex([[[1]], [[1]]])  # product is nonzero


def test_free_homology_of_zero_maps():
    C = IntMatrixComplex([[[0, 0], [0, 0]], [[0], [0]]])
    assert snf_homology(C, 0) == ModuleDescriptor(free=2)
    assert snf_homology(C, 1) == ModuleDescriptor(free=2)


# ---------------------------------------------------- the periodic resolution


def test_full_resolution_tensors_down_alternately():
    ring = ring_for(2, 1, 1)
    down = tensor_down(ring, _full_resolution(ring, 5))
    assert down.matrices == [[[0]], [[2]], [[0]], [[2]], [[0]]]


# ------------------------------------------------------------------ Tor pages


@pytest.mark.parametrize("p,n,r", GRID)
def test_tor_table_closed_form(p, n, r):
    table = tor_table(ring_for(p, n, r), 6)
    assert table.s_max == 6
    assert table.rank == p ** (r * n)
    assert str(table.entry(0)) == "Z"
    for s in (1, 3, 5):
        assert table.entry(s) == ModuleDescriptor(0, (p**r,))
    for s in (2, 4, 6):
        assert table.entry(s).is_zero


@pytest.mark.parametrize("p,n,r", GRID)
def test_tor_table_matches_the_full_complex(p, n, r):
    ring = ring_for(p, n, r)
    for s_max in range(9):
        down = tensor_down(ring, _full_resolution(ring, s_max + 1))
        want = tuple(snf_homology(down, s) for s in range(s_max + 1))
        assert tor_table(ring, s_max).entries == want


def test_tor_table_takes_one_snf_per_differential_of_the_period(monkeypatch):
    calls = []
    snf = homalg.smith_normal_form

    def spy(mat):
        calls.append(mat)
        return snf(mat)

    monkeypatch.setattr(homalg, "smith_normal_form", spy)
    ring = ring_for(3, 1, 2)
    for s_max in (0, 6, 20):
        calls.clear()
        assert len(tor_table(ring, s_max).entries) == s_max + 1
        assert calls == [[[0]], [[9]]]


def test_tor_table_certifies_the_periodic_reading(monkeypatch):
    p, r = 2, 2
    snf = homalg.smith_normal_form

    def wrong(mat):
        return [p ** (r + 1)] if mat == [[p**r]] else snf(mat)

    monkeypatch.setattr(homalg, "smith_normal_form", wrong)
    with pytest.raises(HomologyError, match="Tor_1 is Z/8 but the closed form gives Z/4"):
        tor_table(ring_for(p, 1, r), 3)


def test_tor_table_degree_zero_window():
    table = tor_table(ring_for(2, 1, 1), 0)
    assert len(table.entries) == 1 and str(table.entry(0)) == "Z"
    with pytest.raises(ValueError):
        tor_table(ring_for(2, 1, 1), -1)


@pytest.mark.parametrize("p,n,r", GRID)
def test_rational_tor_vanishes_positively(p, n, r):
    assert rational_tor(ring_for(p, n, r), 6) == (1, 0, 0, 0, 0, 0, 0)


def test_rational_tor_runs_the_tor_table_certificate(monkeypatch):
    # a closed form that disagrees only on torsion must stop rational Tor
    # too: its ranks are read from the one certified table
    monkeypatch.setattr(
        homalg, "_expected_tor",
        lambda p, r, s: ModuleDescriptor(free=int(s == 0), torsion=(p,) * (s % 2)),
    )
    with pytest.raises(HomologyError, match="closed form"):
        rational_tor(ring_for(2, 1, 2), 3)
    with pytest.raises(ValueError, match="s_max must be >= 0"):
        rational_tor(ring_for(2, 1, 2), -1)


def test_kunneth_page_bookkeeping():
    page = kunneth_page(ring_for(3, 1, 2), 6)
    assert page.p == 3 and page.r == 2 and page.rank == 9
    assert [d.index for d in page.differentials] == [3, 5]
    for d in page.differentials:
        assert d.forced_zero
        assert d.target == (0, 0)
        assert d.source == (d.index, 0)
        assert d.reason == "torsion source, torsion-free target"
    assert page.odd_witnesses == (
        (1, ModuleDescriptor(0, (9,))),
        (3, ModuleDescriptor(0, (9,))),
        (5, ModuleDescriptor(0, (9,))),
    )


@pytest.mark.parametrize("p,n,r", GRID)
def test_convergence_diagnostic_integral_mismatch(p, n, r):
    rep = convergence_diagnostic(ring_for(p, n, r), s_max=6)
    assert rep.mode == "integral"
    assert rep.verdict == "MISMATCH"
    assert rep.expected == ModuleDescriptor(free=p ** (r * n))
    assert len(rep.odd_witnesses) == 3
    assert all(desc.torsion == (p**r,) for _, desc in rep.odd_witnesses)


@pytest.mark.parametrize("p,n,r", GRID)
def test_convergence_diagnostic_rational_match(p, n, r):
    rep = convergence_diagnostic(ring_for(p, n, r), s_max=6, rational=True)
    assert rep.mode == "rational"
    assert rep.verdict == "MATCH"
    assert rep.odd_witnesses == ()


def test_convergence_diagnostic_short_window():
    rep = convergence_diagnostic(ring_for(2, 1, 1), s_max=0)
    assert rep.verdict == "INCONCLUSIVE"
    with pytest.raises(ValueError, match="s_max must be >= 0"):
        convergence_diagnostic(ring_for(2, 1, 1), s_max=-1)


# -------------------------------------------------------------- comparison


def _component(phi, s):
    """Degree-s component of the comparison map over phi."""
    if s % 2 == 0:
        return phi.apply
    return lambda x: phi.apply(x) * phi.cofactor


def _probe_squares(phi, L, seed=0):
    """Oracle for comparison_chain_map: evaluate the squares at degrees
    1..min(L, 2) and the augmentation square on the monomial basis of
    A_1 plus RANDOM_PROBES seeded random elements, raising ChainMapError
    on the first failure.  Returns the L |probes| squares this covers."""
    a1, ak = phi.source, phi.target
    rng = random.Random(seed)
    probes = [
        a1.element([1 if i == j else 0 for i in range(a1.rank)])
        for j in range(a1.rank)
    ]
    probes += [random_element(a1, rng) for _ in range(homalg.RANDOM_PROBES)]
    for s in range(1, min(L, 2) + 1):
        rho_s, rho_sm1 = _component(phi, s), _component(phi, s - 1)
        m1, mk = (a1.y_elt, a1.q_elt)[s - 1], (ak.y_elt, ak.q_elt)[s - 1]
        for x in probes:
            if rho_sm1(m1 * x) != mk * rho_s(x):
                raise ChainMapError("square at degree %d fails on %r" % (s, x))
    for x in probes:
        if ak.augmentation(phi.apply(x)) != a1.augmentation(x):
            raise ChainMapError("augmentation square fails on %r" % x)
    return L * len(probes)


# the compare points of the benchmark's tower workload, (3, 2, 3) among them
TOWER_COMPARE = [(p, n, k) for p in (2, 3) for n in (1, 2) for k in (2, 3)]


@pytest.mark.parametrize("p,n,k", TOWER_COMPARE)
def test_identities_agree_with_the_probe_oracle(p, n, k):
    cm = comparison_chain_map(law_for(p, n, max_r=k), k, 6)
    for seed in (0, 1):
        assert _probe_squares(cm.morphism, 6, seed) == cm.squares_checked


def test_comparison_chain_map_p2_k2():
    cm = comparison_chain_map(law_for(2, 1), 2, 6)
    assert [f.name for f in dataclasses.fields(cm)] == ["morphism", "length", "squares_checked"]
    assert cm.length == 6
    # full basis (rank 2) plus six random probes, six squares
    assert cm.squares_checked == 6 * (2 + 6)
    phi = cm.morphism
    y = phi.source.y_elt
    assert _component(phi, 0)(y).coeffs == phi.apply(y).coeffs
    assert _component(phi, 1)(y).coeffs == (phi.apply(y) * phi.cofactor).coeffs


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_comparison_chain_map_multiplicative_grid(p, k):
    cm = comparison_chain_map(law_for(p, 1, max_r=max(k, 2)), k, 6)
    assert cm.squares_checked == 6 * (p + 6)


def test_comparison_chain_map_honda():
    cm = comparison_chain_map(law_for(2, 2), 2, 4)
    assert cm.length == 4
    assert cm.morphism.target.rank == 16


def test_comparison_chain_map_validation():
    with pytest.raises(ValueError):
        comparison_chain_map(law_for(2, 1), 2, 0)


def _shifted_cofactor(phi):
    """phi with its cofactor Q replaced by Q + 1."""
    return dataclasses.replace(phi, cofactor=phi.cofactor + phi.target.one)


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_a_perturbed_target_q_fails_the_degree_2_identity(p, n, k, monkeypatch):
    F = law_for(p, n, max_r=k)
    ak = ring_for(p, n, k, max_r=k)
    phi = substitution_map(F, k)
    assert phi.target is ak
    monkeypatch.setattr(ak, "q_elt", ak.q_elt + ak.element([0, p]))
    with pytest.raises(ChainMapError, match=r"^square at degree 2 fails: phi\(q_1\) Q != q_k$"):
        comparison_chain_map(F, k, 6)
    with pytest.raises(ChainMapError, match="^square at degree 2 fails on "):
        _probe_squares(phi, 6)
    # a chain map of length 1 has no degree-2 square
    assert comparison_chain_map(F, k, 1).squares_checked == (
        phi.source.rank + homalg.RANDOM_PROBES)


@pytest.mark.parametrize("p,n,k", [(2, 1, 2), (3, 1, 3), (2, 2, 2)])
def test_a_perturbed_cofactor_fails_the_degree_2_identity(p, n, k, monkeypatch):
    # phi(y) = y Q holds by construction of substitution_map, so a cofactor
    # changed afterwards is caught by the identity phi(q_1) Q = q_k; the
    # probes already see it at degree 1
    F = law_for(p, n, max_r=k)
    build = homalg.substitution_map
    monkeypatch.setattr(homalg, "substitution_map",
                        lambda *args: _shifted_cofactor(build(*args)))
    with pytest.raises(ChainMapError, match=r"^square at degree 2 fails: phi\(q_1\) Q != q_k$"):
        comparison_chain_map(F, k, 6)
    with pytest.raises(ChainMapError, match="^square at degree 1 fails on "):
        _probe_squares(_shifted_cofactor(build(F, k)), 6)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_induced_tor_morphism(p, k):
    tm = induced_tor_morphism(substitution_map(law_for(p, 1, max_r=max(k, 2)), k), 6)
    assert tm.k == k
    assert tm.multiplier == p ** (k - 1)
    assert tm.odd_injective
    assert tm.entries[0] == ("identity", 1, True)
    for s in (1, 3, 5):
        assert tm.entries[s] == ("times-p^(k-1)", p ** (k - 1), True)
    for s in (2, 4, 6):
        assert tm.entries[s] == ("zero", 0, True)
