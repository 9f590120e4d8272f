"""Truncated series arithmetic, p-series construction, and preparation."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ramify import fgl
from ramify.cochain import minimum_series_precision
from ramify.coeff import ZZ, ContextMismatch, NonUnitError, padic_context
from ramify.fgl import (
    FormalGroupLaw,
    PrecisionError,
    TruncatedSeries,
    WeierstrassError,
    _honda_imax,
    _log_y,
    certify_honda_pseries,
    exact_quotient_by_y,
    formal_sum,
    make_honda_fgl,
    make_multiplicative_fgl,
    validated_series,
    weierstrass_preparation,
)


# ---------------------------------------------------------------- series core


def test_validated_series_canonicalises_each_coefficient():
    s = validated_series(padic_context(3, 2), (9, -1, 14, 4), False)
    assert s == TruncatedSeries(padic_context(3, 2), (0, 8, 5, 4), False)
    assert validated_series(ZZ, (-7, 10**30), False).coeffs == (-7, 10**30)
    with pytest.raises(TypeError):
        validated_series(ZZ, (1, 1.5), True)


def test_validated_series_trims_trailing_zeros_of_exact_series():
    s = validated_series(ZZ, (1, 2, 0, 0), True)
    assert s.coeffs == (1, 2)
    assert s.exact and s._entry(17) == 0
    # zeros mod the context count: 2 y * 128 y = 0 mod 256
    assert validated_series(padic_context(2, 8), (0, 0, 256), True).coeffs == ()
    # a truncated series keeps its known zeros
    assert validated_series(ZZ, (1, 0, 0), False).coeffs == (1, 0, 0)


def test_validated_series_refuses_an_empty_truncated_series():
    with pytest.raises(PrecisionError):
        validated_series(ZZ, (), False)
    assert validated_series(ZZ, (), True).coeffs == ()


def test_exact_product_drops_the_zeros_it_makes():
    ctx = padic_context(2, 8)
    a = TruncatedSeries(ctx, (0, 2), True)
    b = TruncatedSeries(ctx, (0, 128), True)
    assert a * b == TruncatedSeries(ctx, (), True)
    assert (a * TruncatedSeries(ctx, (), True)).coeffs == ()


def test_addition_takes_the_shorter_precision():
    ctx = padic_context(7, 1)
    a = TruncatedSeries(ctx, (1, 2, 3, 4), False)
    b = TruncatedSeries(ctx, (6, 5), False)
    s = a + b
    assert s.coeffs == (0, 0) and not s.exact
    # an exact polynomial never shortens the other operand
    e = TruncatedSeries(ctx, (1,), True)
    assert len((a + e).coeffs) == 4 and not (a + e).exact


def test_exact_product_grows_exact():
    a = TruncatedSeries(ZZ, (1, 1), True)
    sq = a * a
    assert sq.exact and sq.coeffs == (1, 2, 1)
    t = TruncatedSeries(ZZ, (1, 1, 1), False)
    assert len((a * t).coeffs) == 3 and not (a * t).exact


def test_context_mismatch_is_rejected():
    a = TruncatedSeries(padic_context(3, 1), (1,), False)
    b = TruncatedSeries(padic_context(5, 1), (1,), False)
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a * b
    with pytest.raises(ContextMismatch):
        a.compose(b)


def test_series_ring_identities_randomized():
    rng = random.Random(20240)
    for ctx in (ZZ, padic_context(5, 1), padic_context(3, 4)):
        hi = ctx.modulus or 10**6
        for _ in range(40):
            def rand_series():
                L = rng.randrange(1, 7)
                vals = tuple(rng.randrange(-hi, hi) for _ in range(L))
                return validated_series(ctx, vals, rng.random() < 0.3)

            a, b, c = rand_series(), rand_series(), rand_series()
            assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
            assert (a + b).coeffs == (b + a).coeffs
            assert (a * b).coeffs == (b * a).coeffs
            assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
            lhs = a * (b + c)
            rhs = a * b + a * c
            assert lhs.exact == rhs.exact
            n = max(len(lhs.coeffs), len(rhs.coeffs))
            assert [lhs._entry(i) for i in range(n)] == [
                rhs._entry(i) for i in range(n)
            ]


def test_composition_is_associative_randomized():
    rng = random.Random(99)
    ctx = padic_context(5, 1)
    for _ in range(25):
        def rand(zero_const):
            vals = [rng.randrange(5) for _ in range(6)]
            if zero_const:
                vals[0] = 0
            return TruncatedSeries(ctx, tuple(vals), False)

        f, g, h = rand(False), rand(True), rand(True)
        assert f.compose(g).compose(h).coeffs == f.compose(g.compose(h)).coeffs


def test_compose_rejects_nonzero_constant_term():
    f = TruncatedSeries(ZZ, (1, 1), True)
    with pytest.raises(ValueError):
        f.compose(TruncatedSeries(ZZ, (1, 1), True))


def test_exact_composition_matches_truncated():
    f = TruncatedSeries(ZZ, (3, 0, 2, 1), True)
    g = TruncatedSeries(ZZ, (0, 1, 1), True)
    fe = f.compose(g)
    ft = TruncatedSeries(ZZ, f.coeffs + (0,) * 5, False).compose(
        TruncatedSeries(ZZ, g.coeffs + (0,) * 6, False)
    )
    assert fe.exact
    assert ft.coeffs == tuple(fe._entry(i) for i in range(9))


def test_series_inverse_roundtrip_randomized():
    rng = random.Random(7)
    m = 3**5
    for _ in range(100):
        c = np.array([rng.randrange(m) for _ in range(rng.randrange(1, 9))], np.int64)
        if c[0] % 3 == 0:
            with pytest.raises(NonUnitError):
                fgl._inv(c, m, len(c))
            continue
        v = fgl._inv(c, m, len(c))
        assert fgl._mul(c, v, m, len(c)).tolist() == [1] + [0] * (len(c) - 1)
        # lifting an inverse known on a prefix gives the same inverse
        for k in range(1, len(c) + 1):
            assert fgl._inv(c, m, len(c), fgl._inv(c, m, k)).tolist() == v.tolist()


def _convolve_oracle(a, b, modulus, out_len):
    """The first out_len coefficients of a b, mod modulus (None: exact),
    by the schoolbook double loop."""
    if out_len <= 0:
        return []
    la, lb = min(len(a), out_len), min(len(b), out_len)
    if la == 0 or lb == 0:
        return [0] * out_len
    out = [0] * min(out_len, la + lb - 1)
    for i in range(la):
        av = a[i]
        if not av:
            continue
        jtop = min(lb, out_len - i)
        for j in range(jtop):
            bv = b[j]
            if bv:
                out[i + j] += av * bv
    if modulus is not None:
        out = [v % modulus for v in out]
    return out + [0] * (out_len - len(out))


def _int64_edge(length):
    """The largest modulus whose length-term products _mul_raw may sum
    in int64, and the next one."""
    inside = math.isqrt((2**63 - 1) // length) + 1
    assert (inside - 1) ** 2 * length < 2**63 <= inside**2 * length
    return inside, inside + 1


@pytest.mark.parametrize("length", [1, 2, 7, 40])
def test_mul_raw_matches_the_schoolbook_oracle(length):
    # length is the shorter operand's, which sets the dtype of the call;
    # moduli just inside and just outside int64, and exact ZZ
    inside, outside = _int64_edge(length)
    assert fgl._dtype(inside, length) is np.int64
    assert fgl._dtype(outside, length) is object
    assert fgl._dtype(None, length) is object
    rng = random.Random(length)
    for modulus in (inside, outside, None):
        hi = modulus or 10**25
        lo = 0 if modulus else -hi
        for lb in (length, length + 3):
            for fill in ("random", "extremal"):
                if fill == "random":
                    a = [rng.randrange(lo, hi) for _ in range(length)]
                    b = [rng.randrange(lo, hi) for _ in range(lb)]
                else:
                    a, b = [hi - 1] * length, [hi - 1] * lb
                full = length + lb - 1
                for out_len in (1, length, full - 1, full, full + 4):
                    want = _convolve_oracle(a, b, modulus, out_len)
                    assert fgl._mul_raw(a, b, modulus, out_len) == want
                    assert fgl._mul_raw(b, a, modulus, out_len) == want
        for out_len in (0, 3):
            assert fgl._mul_raw([], [1, 2], modulus, out_len) == [0] * out_len
            assert fgl._mul_raw([1, 2], [], modulus, out_len) == [0] * out_len


def test_exact_quotient_by_y():
    s = TruncatedSeries(ZZ, (0, 0, 7), True)
    assert exact_quotient_by_y(s).coeffs == (0, 7)
    zero = TruncatedSeries(ZZ, (), True)
    assert exact_quotient_by_y(zero).coeffs == ()
    with pytest.raises(ValueError):
        exact_quotient_by_y(TruncatedSeries(ZZ, (1, 1), True))
    with pytest.raises(PrecisionError):
        exact_quotient_by_y(TruncatedSeries(ZZ, (0,), False))


# ------------------------------------------------------------------- p-series


def test_multiplicative_p_series_frozen_values():
    F = make_multiplicative_fgl(2)
    two = F.p_series(1)
    assert two.exact and two.coeffs == (0, 2, 1)
    assert F.p_series(2).coeffs == (0, 4, 6, 4, 1)
    assert F.p_series(3).coeffs == (0, 8, 28, 56, 70, 56, 28, 8, 1)
    assert make_multiplicative_fgl(3).p_series(1).coeffs == (0, 3, 3, 1)


def test_p_series_r_zero_is_y():
    F = make_multiplicative_fgl(2)
    assert F.p_series(0).coeffs == (0, 1)
    with pytest.raises(ValueError):
        F.p_series(-1)
    H = make_honda_fgl(2, 2, M=16)
    assert H.p_series(0).coeffs == (0, 1) and H.p_series(0).exact


def test_p_series_precision_guard():
    F = make_multiplicative_fgl(2, M=16)
    F.p_series(3)  # degree 8 < 16, fine
    with pytest.raises(PrecisionError):
        F.p_series(4)
    H = make_honda_fgl(2, 2, M=16)
    with pytest.raises(PrecisionError):
        H.p_series(2)


def test_p_series_serves_prefixes_of_a_longer_solve(monkeypatch):
    # [p^r](y) mod p^N is canonical, so a shorter request reads the
    # prefix of a longer certified solve; a longer one solves again
    solves = []
    solve = fgl._solve_log

    def spy(target, p, n, M, N):
        solves.append(M)
        return solve(target, p, n, M, N)

    monkeypatch.setattr(fgl, "_solve_log", spy)
    for p, n, r in [(2, 2, 1), (3, 2, 1), (2, 3, 1), (2, 1, 2)]:
        long_M = minimum_series_precision(p, n, r, 6, False)
        short_M = p ** (r * n) + 5
        H = make_honda_fgl(p, n, M=long_M, N=6)
        short = H.p_series(r, short_M)
        fresh = make_honda_fgl(p, n, M=long_M, N=6).p_series(r, short_M)
        solves.clear()
        longer = H.p_series(r)
        assert solves == [long_M] and longer.coeffs[:short_M] == short.coeffs
        for M in (short_M, short_M + 1, long_M):
            assert H.p_series(r, M) == TruncatedSeries(H.context, longer.coeffs[:M], False)
        assert H.p_series(r, short_M) == fresh
        assert solves == [long_M]


def test_honda_p_series_reduces_to_frobenius_power():
    # height n means [p]y = y^(p^n) on the nose after reduction mod p
    for (p, n, M) in [(2, 1, 12), (2, 2, 20), (3, 1, 12), (3, 2, 12)]:
        F = make_honda_fgl(p, n, M=M)
        bar = [v % p for v in F.p_series(1).coeffs]
        want = [0] * M
        if p**n < M:
            want[p**n] = 1
        assert bar == want
        assert F.n == n
        assert F.p_series(1).coeffs[1] == p


def test_honda22_head_coefficients_frozen():
    F = make_honda_fgl(2, 2, M=20, N=8)
    assert F.p_series(1).coeffs[:6] == (0, 2, 0, 0, 249, 0)


def _rational_pseries(p, n, M):
    """Reference [p](y) over Fraction by the fixed point that settles
    p^n - 1 degrees of L(psi) = p L(y) per pass."""
    imax = _honda_imax(p, n, M)
    target = [Fraction(0)] * M
    for i in range(imax + 1):
        target[p ** (n * i)] = Fraction(p ** (imax - i + 1))
    psi = [Fraction(0)] * M
    psi[1] = Fraction(p)
    D = 2
    while D < M:
        D2 = min(M, D + p**n - 1)
        lhs = [Fraction(0)] * D2
        for i in range(imax + 1):
            if p ** (n * i) < D2:
                term = _pow_raw(psi, p ** (n * i), None, D2)
                lhs = [a + p ** (imax - i) * t for a, t in zip(lhs, term)]
        assert lhs[:D] == target[:D]
        for k in range(D, D2):
            psi[k] = -(lhs[k] - target[k]) / p**imax
        D = D2
    return psi


# ------------------------------------------- reference: the list-based solver


def _pow_raw(base, e, modulus, out_len):
    cur = list(base[:out_len]) + [0] * max(0, out_len - len(base))
    if modulus is not None:
        cur = [v % modulus for v in cur]
    result = None
    while e:
        if e & 1:
            result = cur if result is None else fgl._mul_raw(result, cur, modulus, out_len)
        e >>= 1
        if e:
            cur = fgl._mul_raw(cur, cur, modulus, out_len)
    return [1] + [0] * (out_len - 1) if result is None else result


def _inv_raw(c, modulus, length):
    v = [pow(c[0], -1, modulus)]
    cur = 1
    while cur < length:
        cur = min(length, 2 * cur)
        t = fgl._mul_raw(c[:cur], v, modulus, cur)
        t = [(-x) % modulus for x in t]
        t[0] = (t[0] + 2) % modulus
        v = fgl._mul_raw(v, t, modulus, cur)
    return v + [0] * (length - len(v))


def _add_log_oracle(acc, f, p, n, imax, modulus, s):
    """acc + L(y f(y^s)) mod modulus in z-form, as lists."""
    out_len = len(acc)
    acc = list(acc)
    cur = list(f[:out_len]) + [0] * max(0, out_len - len(f))
    for i in range(imax + 1):
        shift = (p ** (n * i) - 1) // s
        if shift >= out_len:
            break
        if i > 0:
            cur = _pow_raw(cur, p**n, modulus, out_len - shift)
        c = p ** (imax - i)
        acc[shift:] = [(a + c * v) % modulus for a, v in zip(acc[shift:], cur)]
    return acc


def _solve_log_oracle(target, p, n, M, N):
    """fgl._solve_log before its step kept one power chain and a carried
    inverse on arrays: each Newton step evaluates L(f) by repeated
    p^n-th powers, raises f to every q_i - 1 afresh for the unit U and
    inverts U from scratch, all on coefficient lists."""
    imax = _honda_imax(p, n, M)
    scale = p**imax
    modulus = p ** (N + imax)
    s = fgl._stride(target, p**n - 1, 1)
    neg = [(-t) % modulus for t in target[1::s]]
    f = [t // scale for t in target[1:2]]
    J = 1
    while J < len(neg):
        J2 = min(len(neg), 2 * J)
        res = _add_log_oracle(neg[:J2], f, p, n, imax, modulus, s)
        assert not any(res[:J]) and not any(v % scale for v in res[J:])
        L = J2 - J
        unit = [1] + [0] * (L - 1)
        for i in range(1, imax + 1):
            q = p ** (n * i)
            shift = (q - 1) // s
            if shift < L:
                term = _pow_raw(f, q - 1, modulus, L - shift)
                c = p ** ((n - 1) * i)
                unit[shift:] = [(u + c * t) % modulus for u, t in zip(unit[shift:], term)]
        eps = fgl._mul_raw([v // scale for v in res[J:]], _inv_raw(unit, modulus, L), modulus, L)
        f += [(-v) % modulus for v in eps]
        J = J2
    psi = [0] * M
    psi[1::s] = [v % p**N for v in f]
    return psi


def _pseries_target(p, n, r, N):
    """p^r L(y) mod p^(N + imax) below y^M, and M, for the M the ring
    of (p, n, r, N) asks."""
    M = minimum_series_precision(p, n, r, N, False)
    imax = _honda_imax(p, n, M)
    return _log_y(p**r, p, n, imax, p ** (N + imax), M), M


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_solver_matches_the_list_oracle_on_the_grid(p):
    for _, n, r, N in [pt for pt in _accepted_grid(16) if pt[0] == p]:
        target, M = _pseries_target(p, n, r, N)
        want = _solve_log_oracle(target, p, n, M, N)
        assert fgl._solve_log(target, p, n, M, N) == want, (p, n, r, N)


def test_solver_matches_the_list_oracle_past_int64():
    # p^(N + imax) is past the int64 bound: the solve runs on object arrays
    for p, n, r, N in [(2, 2, 2, 40), (3, 2, 1, 30), (2, 1, 2, 62), (5, 1, 1, 28)]:
        target, M = _pseries_target(p, n, r, N)
        s = p**n - 1
        assert fgl._dtype(p ** (N + _honda_imax(p, n, M)), (M - 2) // s + 1) is object
        want = _solve_log_oracle(target, p, n, M, N)
        assert fgl._solve_log(target, p, n, M, N) == want, (p, n, r, N)


def test_solver_refuses_a_target_off_its_functional_equation():
    # A target one unit off L(psi*) at degree 1 + j s.  At j = 0, f_0 =
    # target_1 / p^imax leaves a remainder that the first step finds in
    # its settled prefix; at j >= 1 the step that reaches degree 1 + j s
    # finds a correction p^imax does not divide.
    p, n, r, N = 2, 2, 2, 8
    target, M = _pseries_target(p, n, r, N)
    imax = _honda_imax(p, n, M)
    modulus, s = p ** (N + imax), p**n - 1
    assert imax == 3

    def perturbed(j):
        bad = list(target)
        bad[1 + j * s] = (bad[1 + j * s] + 1) % modulus
        return bad

    with pytest.raises(PrecisionError, match="^settled prefix moved at degree 1$"):
        fgl._solve_log(perturbed(0), p, n, M, N)
    for j in (1, 5, 6, (M - 2) // s):
        why = r"not divisible by p\^3 at degree %d$" % (1 + j * s)
        with pytest.raises(PrecisionError, match=why):
            fgl._solve_log(perturbed(j), p, n, M, N)


def test_mod_solver_agrees_with_rational_solver():
    for (p, n, M) in [(2, 1, 12), (2, 2, 20), (3, 1, 12), (3, 2, 12)]:
        newton = make_honda_fgl(p, n, M=M, N=8).p_series(1).coeffs
        rat = _rational_pseries(p, n, M)
        pn = p**8
        for k in range(M):
            f = rat[k]
            assert f.denominator % p != 0
            assert f.numerator * pow(f.denominator, -1, pn) % pn == newton[k]


def _tower_points():
    # every (p, n, r) with r in {2, 3} and rank p^(r n) <= 16 at N = 8,
    # plus two rank-64 points at N = 4
    for p in (2, 3):
        for n in (1, 2):
            for r in (2, 3):
                if p ** (r * n) <= 16:
                    yield p, n, r, 8
    yield 2, 3, 2, 4
    yield 2, 2, 3, 4


@pytest.mark.parametrize("p, n, r, N", list(_tower_points()))
def test_p_power_series_matches_composition(p, n, r, N):
    F = make_honda_fgl(p, n, M=minimum_series_precision(p, n, r, N, False), N=N)
    composed = F.p_series(r - 1).compose(F.p_series(1))
    assert F.p_series(r).coeffs == composed.coeffs
    if n == 1:
        G = make_multiplicative_fgl(p, M=p**r + 1)
        composed = G.p_series(r - 1).compose(G.p_series(1))
        assert composed.exact and G.p_series(r).coeffs == composed.coeffs


@pytest.mark.parametrize("p, n", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_p_series_is_the_p_fold_formal_sum(p, n):
    L = min(p**n + 2, 40)
    F = make_honda_fgl(p, n, M=L, N=8)
    y = TruncatedSeries(F.context, (0, 1) + (0,) * (L - 2), False)
    total = y
    for _ in range(p - 1):
        total = formal_sum(F, total, y)
    assert total.coeffs == F.p_series(1).coeffs


def test_certificate_rejects_wrong_series():
    p, n, N = 2, 2, 8
    M = minimum_series_precision(p, n, 2, N, False)
    for r in (1, 2):
        psi = list(make_honda_fgl(p, n, M, N).p_series(r).coeffs)
        certify_honda_pseries(psi, p, n, r, N)
        for k in (M - 2, M - 1):
            bad = list(psi)
            bad[k] = (bad[k] + p ** (N - 1)) % p**N
            with pytest.raises(PrecisionError):
                certify_honda_pseries(bad, p, n, r, N)
        # [p^r](y) lives in the degrees 1 mod p^n - 1 = 3: a low degree
        # off them, and the last degree on them
        last = 1 + 3 * ((M - 2) // 3)
        for k, why in ((2, "off the degrees 1 mod 3"), (last, "functional equation")):
            bad = list(psi)
            bad[k] = (bad[k] + p ** (N - 1)) % p**N
            with pytest.raises(PrecisionError, match=why):
                certify_honda_pseries(bad, p, n, r, N)
        coarse = list(make_honda_fgl(p, n, M, N - 1).p_series(r).coeffs)
        assert coarse != psi
        with pytest.raises(PrecisionError):
            certify_honda_pseries(coarse, p, n, r, N)
        with pytest.raises(PrecisionError):
            certify_honda_pseries([1] + psi[1:], p, n, r, N)


def _accepted_grid(N_max):
    """(p, n, r, N) with rank p^(r n) <= 64, r in {1, 2}, r < N <= N_max."""
    for p in (2, 3, 5, 7):
        for r in (1, 2):
            n = 1
            while p ** (r * n) <= 64:
                for N in range(r + 1, N_max + 1):
                    yield p, n, r, N
                n += 1


def _stride_one(coeffs, s, offset):
    return 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_p_series_in_z_matches_the_stride_one_solver(p, monkeypatch):
    # every grid point with N <= 16, solved in z = y^(p^n - 1) and in y;
    # some of them overflow int64 even at length M / (p^n - 1), so
    # _mul_raw's convolution of Python-int object arrays runs in both forms
    objects = 0
    for _, n, r, N in [pt for pt in _accepted_grid(16) if pt[0] == p]:
        M = minimum_series_precision(p, n, r, N, False)
        imax = _honda_imax(p, n, M)
        objects += fgl._dtype(p ** (N + imax), (M - 2) // (p**n - 1) + 1) is object
        z_form = make_honda_fgl(p, n, M, N).p_series(r).coeffs
        with monkeypatch.context() as m:
            m.setattr(fgl, "_stride", _stride_one)
            assert make_honda_fgl(p, n, M, N).p_series(r).coeffs == z_form
    assert objects > 0 or p == 2


def test_p_series_at_a_ring_length_is_a_prefix_of_the_law_length():
    # A_r reads [p^r](y) at its own minimum_series_precision on a law
    # sized for A_(r + 1); both are [p^r](y) mod p^N, so the shorter is
    # a prefix of the longer
    points = [(p, n, r, N) for p in (2, 3, 5) for n in (2, 3) for r in (1, 2)
              for N in (2, 5, 8) if r < N and p ** ((r + 1) * n) <= 729]
    assert len(points) == 21
    for p, n, r, N in points:
        need = minimum_series_precision(p, n, r, N, False)
        F = make_honda_fgl(p, n, minimum_series_precision(p, n, r + 1, N, False), N)
        short = F.p_series(r, need).coeffs
        assert len(short) == need < F.M
        assert short == F.p_series(r).coeffs[:need], (p, n, r, N)


def _tower_tor_points():
    """The tor points of the benchmark's tower workload: N <= 8, one
    rank-64 point at N = 14, and the probes at N = 9 and N = 16.  At
    n = 1 the CLI takes the multiplicative law; the Honda q_r there are
    extra inputs."""
    pts = list(_accepted_grid(8)) + [(2, 3, 2, 14)]
    return pts + [(2, 3, 1, 9), (2, 3, 2, 9), (2, 4, 1, 16)]


def _prepare(q):
    w = weierstrass_preparation(q)
    return w.degree, w.distinguished.coeffs, w.unit.coeffs


def test_weierstrass_in_z_matches_the_stride_one_preparation(monkeypatch):
    # every point prepares, in z and in y alike
    for p, n, r, N in _tower_tor_points():
        F = make_honda_fgl(p, n, minimum_series_precision(p, n, r, N, False), N)
        q = exact_quotient_by_y(F.p_series(r))
        z_form = _prepare(q)
        with monkeypatch.context() as m:
            m.setattr(fgl, "_stride", _stride_one)
            assert _prepare(q) == z_form, (p, n, r, N)


def test_series_products_run_at_the_stride(monkeypatch):
    # a refactor that drops the stride must fail here, not only in timing;
    # every series product goes through _mul, and each half makes some
    lengths = []
    mul = fgl._mul

    def recording(a, b, modulus, out_len):
        lengths.append(max(len(a), len(b)))
        return mul(a, b, modulus, out_len)

    p, n, r, N = 2, 3, 2, 14
    M = minimum_series_precision(p, n, r, N, False)
    F = make_honda_fgl(p, n, M, N)
    monkeypatch.setattr(fgl, "_mul", recording)
    q = exact_quotient_by_y(F.p_series(r))
    assert lengths and max(lengths) <= (M - 2) // 7 + 1
    lengths.clear()
    weierstrass_preparation(q)
    assert lengths and max(lengths) <= (len(q.coeffs) - 1) // 7 + 1


def test_formal_sum_multiplicative():
    F = make_multiplicative_fgl(2)
    y = TruncatedSeries(ZZ, (0, 1), True)
    s = formal_sum(F, y, y)
    assert s.coeffs == (0, 2, 1)
    zero = TruncatedSeries(ZZ, (), True)
    assert formal_sum(F, y, zero).coeffs == (0, 1)


def test_formal_sum_honda_unit_and_commutativity():
    F = make_honda_fgl(2, 2, M=12)
    ctx = F.context
    y = TruncatedSeries(ctx, (0, 1) + (0,) * 10, False)
    zero = TruncatedSeries(ctx, (0,) * 12, False)
    assert formal_sum(F, y, zero).coeffs == y.coeffs
    a = TruncatedSeries(ctx, (0, 3, 1, 7, 0, 2, 0, 0, 0, 0, 0, 0), False)
    assert formal_sum(F, a, y).coeffs == formal_sum(F, y, a).coeffs


def test_formal_sum_rejects_bad_operands():
    for F in (make_multiplicative_fgl(2), make_honda_fgl(2, 2, M=12)):
        y = TruncatedSeries(F.context, (0, 1), True)
        with pytest.raises(ValueError):
            formal_sum(F, TruncatedSeries(F.context, (1, 1), True), y)
        with pytest.raises(ContextMismatch):
            formal_sum(F, y, TruncatedSeries(padic_context(2, 1), (0, 1), True))
    # Honda operands must lie in Z/p^N, same p, N at most the law's
    F = make_honda_fgl(2, 2, M=12, N=4)
    for ctx in (padic_context(2, 5), padic_context(3, 4), ZZ):
        with pytest.raises(ContextMismatch):
            formal_sum(F, *[TruncatedSeries(ctx, (0, 1), True)] * 2)


# ------------------------------------------- reference: the bivariate sum table


def _dict_mul(d1, d2, cap, modulus):
    out = {}
    for k1, v1 in d1.items():
        for k2, v2 in d2.items():
            k = tuple(x + y for x, y in zip(k1, k2))
            if sum(k) >= cap:
                continue
            out[k] = out.get(k, 0) + v1 * v2
    if modulus is not None:
        out = {k: v % modulus for k, v in out.items()}
    return {k: v for k, v in out.items() if v}


def _dict_pow(d, e, cap, modulus):
    nvars = len(next(iter(d))) if d else 0
    result = {(0,) * nvars: 1}
    cur = d
    while e:
        if e & 1:
            result = _dict_mul(result, cur, cap, modulus)
        e >>= 1
        if e:
            cur = _dict_mul(cur, cur, cap, modulus)
    return result


def _honda_table_mod(p, n, M, N):
    """Bivariate Honda sum table {(i, j): F_ij} to total degree < M,
    entries mod p^N: L(F(x, y)) = L(x) + L(y) settled p^n - 1 total
    degrees per pass by a fixed point on the coefficients."""
    imax = _honda_imax(p, n, M)
    scale = p**imax
    modulus = p ** (N + imax)
    target = {}
    for i in range(imax + 1):
        K = p ** (n * i)
        c = p ** (imax - i)
        for key in ((K, 0), (0, K)):
            target[key] = (target.get(key, 0) + c) % modulus
    F = {(1, 0): 1, (0, 1): 1}
    D = 2
    gain = p**n - 1
    while D < M:
        D2 = min(M, D + gain)
        lhs = {}
        cur = F
        for i in range(imax + 1):
            if p ** (n * i) >= D2:
                break
            if i > 0:
                cur = _dict_pow(cur, p**n, D2, modulus)
            c = p ** (imax - i)
            for k, v in cur.items():
                lhs[k] = (lhs.get(k, 0) + c * v) % modulus
        for k in set(lhs) | set(target):
            r = (lhs.get(k, 0) - target.get(k, 0)) % modulus
            if not r:
                continue
            tot = sum(k)
            assert tot >= D, "settled table prefix moved at %r" % (k,)
            if tot >= D2:
                continue
            assert r % scale == 0, "table correction not divisible at %r" % (k,)
            F[k] = (F.get(k, 0) - r // scale) % modulus
        D = D2
    pn = p**N
    return {k: v % pn for k, v in F.items() if v % pn}


def _table_formal_sum(F, tab, a, b):
    """Reference a +_F b for a Honda law F: sum over its table of
    F_ij a^i b^j, with the coefficients reduced into the operands'
    context (as constant polynomials there)."""
    ctx = a.context
    L = int(min(a._eff(), b._eff(), F.M))
    out = TruncatedSeries(ctx, (0,) * L, False)
    pow_a = {0: TruncatedSeries(ctx, (1,), True)}
    pow_b = {0: TruncatedSeries(ctx, (1,), True)}
    for (i, j) in sorted(tab):
        if i + j >= L:
            continue
        for store, base, k in ((pow_a, a, i), (pow_b, b, j)):
            for kk in range(max(store) + 1, k + 1):
                store[kk] = store[kk - 1] * base
        c = TruncatedSeries(ctx, (tab[(i, j)],), True)
        out = out + pow_a[i] * pow_b[j] * c
    return out


def _random_series(rng, ctx, L):
    return TruncatedSeries(
        ctx, (0,) + tuple(rng.randrange(ctx.modulus) for _ in range(L - 1)), False
    )


# 7 laws x 6 operand pairs; the table solver takes seconds to minutes
# at M = 64 once p^n <= 4
TABLE_LAWS = [(2, 1, 16), (2, 2, 32), (2, 3, 64), (3, 1, 24), (3, 2, 64), (5, 1, 30),
              (5, 2, 64)]


def _table_operands(p, n, M):
    """The law and the six operand pairs the table reference checks."""
    rng = random.Random(1000 * p + 100 * n + M)
    F = make_honda_fgl(p, n, M=M, N=6)
    for ctx in (F.context, padic_context(p, 3), padic_context(p, 1)):
        for L in (M, M - 3):
            yield F, _random_series(rng, ctx, L), _random_series(rng, ctx, M)


@pytest.mark.parametrize("p, n, M", TABLE_LAWS)
def test_formal_sum_matches_the_table_reference(p, n, M):
    tab = _honda_table_mod(p, n, M, 6)
    for F, a, b in _table_operands(p, n, M):
        got = formal_sum(F, a, b)
        assert len(got.coeffs) == len(a.coeffs) and not got.exact
        assert got.coeffs == _table_formal_sum(F, tab, a, b).coeffs


@pytest.mark.parametrize("p, n, M", TABLE_LAWS)
def test_formal_sum_targets_solve_as_the_list_oracle(p, n, M):
    for F, a, b in _table_operands(p, n, M):
        N, L = a.context.prec, len(a.coeffs)
        imax = _honda_imax(p, n, L)
        acc = [0] * (L - 1)
        for x in (a, b):
            acc = _add_log_oracle(acc, x.coeffs[1:], p, n, imax, p ** (N + imax), 1)
        target = [0] + acc
        assert fgl._solve_log(target, p, n, L, N) == _solve_log_oracle(target, p, n, L, N)


def test_formal_sum_satisfies_the_group_law_axioms():
    rng = random.Random(7)
    # (law, operand context, operand length or None for exact polynomials)
    cases = [
        (make_multiplicative_fgl(2), ZZ, None),
        (make_multiplicative_fgl(3), padic_context(3, 4), 16),
        (make_honda_fgl(2, 2, M=20), padic_context(2, 8), 20),
        (make_honda_fgl(3, 1, M=30, N=5), padic_context(3, 5), 30),
        (make_honda_fgl(2, 3, M=40, N=4), padic_context(2, 1), 40),
        (make_honda_fgl(5, 1, M=80, N=3), padic_context(5, 3), 80),
    ]
    for F, ctx, L in cases:

        def series():
            if L is None:
                vals = (0,) + tuple(rng.randrange(-9, 10) for _ in range(5))
                return TruncatedSeries(ctx, vals, True)
            return _random_series(rng, ctx, L)

        def add(a, b):
            return formal_sum(F, a, b)

        zero = TruncatedSeries(ctx, (), True)
        for _ in range(3):
            a, b, c = series(), series(), series()
            assert add(a, zero).coeffs == a.coeffs == add(zero, a).coeffs
            assert add(a, b).coeffs == add(b, a).coeffs
            assert add(add(a, b), c).coeffs == add(a, add(b, c)).coeffs


def test_formal_sum_doubles_y_to_the_p_series_at_M_80():
    F = make_honda_fgl(2, 1, M=80)
    y = TruncatedSeries(F.context, (0, 1) + (0,) * 78, False)
    assert formal_sum(F, y, y).coeffs == F.p_series(1).coeffs


def test_law_constructors_validate():
    with pytest.raises(ValueError):
        make_multiplicative_fgl(4)
    with pytest.raises(ValueError):
        make_multiplicative_fgl(2, M=1)
    with pytest.raises(ValueError):
        make_honda_fgl(2, 0, M=12)


def test_weierstrass_on_multiplicative_q1():
    F = make_multiplicative_fgl(2)
    q = TruncatedSeries(padic_context(2, 8), exact_quotient_by_y(F.p_series(1)).coeffs, True)
    w = weierstrass_preparation(q)
    assert w.degree == 1
    assert w.distinguished.exact and w.distinguished.coeffs == (2, 1)
    assert w.unit.coeffs[0] == 1
    assert all(v == 0 for v in w.unit.coeffs[1:])


def test_weierstrass_on_multiplicative_q1_p3():
    F = make_multiplicative_fgl(3)
    q = TruncatedSeries(padic_context(3, 8), exact_quotient_by_y(F.p_series(1)).coeffs, True)
    w = weierstrass_preparation(q)
    assert w.degree == 2
    assert w.distinguished.coeffs == (3, 3, 1)
    assert w.unit.coeffs[0] == 1


def test_weierstrass_on_honda_q1():
    p, n, N = 2, 2, 8
    F = make_honda_fgl(p, n, M=40, N=N)
    q = exact_quotient_by_y(F.p_series(1))
    w = weierstrass_preparation(q)
    d = p**n - 1
    assert w.degree == d
    g = w.distinguished
    assert g.coeffs[d] == 1
    assert all(g.coeffs[i] % p == 0 for i in range(d))
    # constant term has p-valuation exactly one
    assert g.coeffs[0] % p == 0 and (g.coeffs[0] // p) % p != 0
    back = g * w.unit
    L = len(back.coeffs)
    assert back.coeffs == q.coeffs[:L]


def test_weierstrass_degree_zero_and_errors():
    ctx = padic_context(2, 8)
    u = TruncatedSeries(ctx, (1, 2, 3), False)
    w = weierstrass_preparation(u)
    assert w.degree == 0 and w.distinguished.coeffs == (1,)
    assert w.unit is u
    with pytest.raises(WeierstrassError):
        weierstrass_preparation(TruncatedSeries(ZZ, (1, 1), True))
    with pytest.raises(WeierstrassError):
        weierstrass_preparation(TruncatedSeries(ctx, (2, 4, 8), False))
    with pytest.raises(PrecisionError):
        weierstrass_preparation(TruncatedSeries(ctx, (2, 1, 1), False))


def test_prepared_factors_are_stable_under_extra_precision():
    # the distinguished polynomial must not depend on how much of the
    # series we happen to know
    F = make_honda_fgl(3, 1, M=60, N=8)
    q = exact_quotient_by_y(F.p_series(1))
    w_long = weierstrass_preparation(q)
    w_short = weierstrass_preparation(TruncatedSeries(q.context, q.coeffs[:31], False))
    assert w_long.distinguished.coeffs == w_short.distinguished.coeffs
    n = len(w_short.unit.coeffs)
    assert w_long.unit.coeffs[:n] == w_short.unit.coeffs[:n]
