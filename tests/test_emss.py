"""Divided-power pages: products, round differentials, survivor reports."""

import random

import dataclasses

import pytest

from ramify import emss
from ramify.emss import (
    CutoffError,
    DPBasisElement,
    dp_multiply,
    final_page_report,
    initial_page,
    round_differential,
    turn_pages,
)


def mono(exps, eps=0):
    return DPBasisElement(tuple(exps), eps)


# ----------------------------------------------------------------- monomials


def test_bidegrees():
    p = 3
    assert mono((0, 0)).bidegree(p) == (0, 0)
    assert mono((1, 0)).bidegree(p) == (1, -1)
    assert mono((0, 0), eps=1).bidegree(p) == (1, -2)
    assert mono((0, 1)).bidegree(p) == (3, -3)
    assert mono((2, 1), eps=1).bidegree(p) == (6, -7)
    assert mono((1, 0)).total_degree == 0
    assert mono((1, 0), eps=1).total_degree == -1


def test_monomial_str():
    assert str(mono((0, 0))) == "1"
    assert str(mono((1, 0))) == "z"
    assert str(mono((2, 0))) == "z^2"
    assert str(mono((0, 1))) == "g[p^1]"
    assert str(mono((0, 0, 2))) == "g[p^2]^2"
    assert str(mono((1, 1), eps=1)) == "z*g[p^1]*sy"
    assert str(mono((0, 0), eps=1)) == "sy"


def test_monomial_validation():
    with pytest.raises(ValueError):
        DPBasisElement((0, 0), 2)
    with pytest.raises(ValueError):
        DPBasisElement((-1, 0), 0)


# ------------------------------------------------------------------ products


def test_dp_multiply_frozen():
    p = 3
    z = mono((1, 0))
    assert dp_multiply(z, z, p) == (2, mono((2, 0)))
    assert dp_multiply(mono((2, 0)), z, p) == (0, None)  # slot overflow
    sy = mono((0, 0), eps=1)
    assert dp_multiply(sy, sy, p) == (0, None)
    g = mono((0, 1))
    assert dp_multiply(g, g, p) == (2, mono((0, 2)))
    assert dp_multiply(g, sy, p) == (1, mono((0, 1), eps=1))
    one = mono((0, 0))
    assert dp_multiply(one, g, p) == (1, g)


def test_dp_multiply_matches_classical_divided_powers():
    # gamma_a gamma_b = C(a+b, a) gamma_(a+b); digitwise Lucas gives the
    # same scalar whenever no slot overflows
    import math

    p = 5
    for a in range(p):
        for b in range(p):
            if a + b >= p:
                continue
            got = dp_multiply(mono((0, a)), mono((0, b)), p)
            want = math.comb(a + b, a) % p
            assert got == (want, mono((0, a + b)))


def test_dp_multiply_slot_mismatch():
    with pytest.raises(ValueError):
        dp_multiply(mono((1,)), mono((1, 0)), 3)


def test_dp_multiply_commutative_and_associative_randomized():
    rng = random.Random(140)
    p, S = 3, 3
    def rand():
        return mono(
            [rng.randrange(p) for _ in range(S)], eps=rng.randrange(2)
        )

    def as_combo(pair):
        scal, m = pair
        return {} if m is None or scal % p == 0 else {m: scal % p}

    def mul_combo(combo, y):
        out = {}
        for m, c in combo.items():
            s, t = dp_multiply(m, y, p)
            if t is not None and (c * s) % p:
                out[t] = (out.get(t, 0) + c * s) % p
        return {m: c for m, c in out.items() if c}

    for _ in range(60):
        x, y, z = rand(), rand(), rand()
        assert dp_multiply(x, y, p) == dp_multiply(y, x, p)
        lhs = mul_combo(as_combo(dp_multiply(x, y, p)), z)
        rhs = mul_combo(as_combo(dp_multiply(y, z, p)), x)
        assert lhs == rhs


# ------------------------------------------------------------- differentials


def test_round_differential_frozen():
    p, S = 3, 2
    g = mono((0, 1))
    assert round_differential(g, p, S, 1) == (1, mono((0, 0), eps=1))
    z = mono((1, 0))
    assert round_differential(z, p, S, 1) == (0, None)
    sy = mono((0, 0), eps=1)
    assert round_differential(sy, p, S, 1) == (0, None)
    # z * g maps to z * sy
    assert round_differential(mono((1, 1)), p, S, 1) == (1, mono((1, 0), eps=1))


def test_round_two_cycle_includes_lower_slots():
    p, S = 3, 3
    g2 = mono((0, 0, 1))
    scal, tgt = round_differential(g2, p, S, 2)
    assert scal == 1
    assert tgt == mono((0, 2, 0), eps=1)  # w_2 = g[p^1]^(p-1) sy


def test_differential_is_a_derivation_on_the_example():
    # gamma_p^2 = 2 gamma_(2p) in digit coordinates; both routes give
    # 2 gamma_p sigma y
    p, S = 3, 2
    g = mono((0, 1))
    scal_sq, gsq = dp_multiply(g, g, p)
    assert (scal_sq, gsq) == (2, mono((0, 2)))
    d_scal, d_tgt = round_differential(gsq, p, S, 1)
    lhs = (scal_sq * d_scal % p, d_tgt)
    dg_scal, dg_tgt = round_differential(g, p, S, 1)
    prod_scal, prod_tgt = dp_multiply(g, dg_tgt, p)
    rhs = (2 * dg_scal * prod_scal % p, prod_tgt)
    assert lhs == rhs == (2, mono((0, 1), eps=1))


def test_round_differential_cutoff_errors():
    with pytest.raises(CutoffError):
        round_differential(mono((0, 1)), 3, 2, 2)
    with pytest.raises(CutoffError):
        round_differential(mono((0, 1)), 3, 2, 0)


# ---------------------------------------------------------------------- pages


def test_initial_page_p3_s2():
    page = initial_page(3, 2)
    assert page.index == 2
    assert page.next_round == 1
    assert page.total_dimension == 18  # 2 * p^S
    assert page.euler() == 0
    assert page.dimension(0, 0) == 1
    assert page.dimension(1, -1) == 1  # z
    assert page.dimension(1, -2) == 1  # sigma y


def test_initial_page_validation():
    with pytest.raises(ValueError):
        initial_page(2, 3)
    with pytest.raises(ValueError):
        initial_page(9, 2)
    with pytest.raises(ValueError):
        initial_page(3, 1)


def test_one_round_p3_s2():
    history = turn_pages(initial_page(3, 2), 1)
    assert len(history) == 2
    nxt = history[1]
    assert nxt.index == 3  # past the realized d^2
    assert nxt.total_dimension == 6
    rec = nxt.record
    assert rec.round == 1
    assert rec.nominal_index == 2
    assert rec.dim_before == 18 and rec.dim_after == 6
    assert rec.d_squared_zero
    assert rec.leibniz_pairs_checked > 0
    assert rec.euler_before == rec.euler_after == 0
    survivors = set(nxt.monomials)
    # even part: zeta powers; exterior part: top gamma block times sy
    assert mono((2, 0)) in survivors
    assert mono((1, 2), eps=1) in survivors
    assert mono((0, 1)) not in survivors


def test_turn_pages_cutoff():
    page = initial_page(3, 2)
    with pytest.raises(CutoffError):
        turn_pages(page, 2)
    with pytest.raises(ValueError):
        turn_pages(page, -1)
    assert turn_pages(page, 0) == [page]


def test_second_round_nominal_index():
    history = turn_pages(initial_page(3, 3), 2)
    assert [p_.total_dimension for p_ in history] == [54, 18, 6]
    assert history[1].record.nominal_index == 2
    assert history[2].record.nominal_index == 5  # p^2 - p - 1
    assert history[2].index == 6


# -------------------------------------------------------------------- report


@pytest.mark.parametrize("p,S", [(3, 2), (3, 3), (5, 2)])
def test_final_page_report_match(p, S):
    rep = final_page_report(p, S)
    assert rep.verdict == "MATCH"
    assert rep.window == p ** (S - 1)
    assert rep.total_dim == p
    want = {mono((a,) + (0,) * (S - 1)) for a in range(p)}
    assert set(rep.survivors) == want
    assert len(rep.pages) == S
    assert rep.pages[0].index == 2


def test_final_page_report_inconclusive():
    for S in (0, 1):
        rep = final_page_report(3, S)
        assert rep.verdict == "INCONCLUSIVE"
        assert rep.survivors == ()
        assert rep.pages == ()


def test_final_page_report_rejects_two():
    with pytest.raises(ValueError):
        final_page_report(2, 3)


@pytest.mark.parametrize("p,S,reason", [
    (9, 1, "p must be prime"),
    (9, 3, "p must be prime"),
    (1, 0, "p must be prime"),
    (3, -1, "cutoff S must be >= 0"),
])
def test_final_page_report_refuses_bad_input_before_the_cutoff(p, S, reason):
    with pytest.raises(ValueError, match=reason):
        final_page_report(p, S)


# ------------------------------------------------------- Leibniz certificate


def _apply_d_combo(combo, page):
    """Extend the differential linearly to a dict monomial -> coef."""
    out = {}
    for mono_, coef in combo.items():
        scal, tgt = emss.round_differential(mono_, page.p, page.S, page.next_round)
        if tgt is not None and scal % page.p:
            out[tgt] = (out.get(tgt, 0) + coef * scal) % page.p
    return {m: c for m, c in out.items() if c % page.p}


def _mul_combo(x_mono, y_mono, page):
    scal, tgt = dp_multiply(x_mono, y_mono, page.p)
    if tgt is None or scal % page.p == 0:
        return {}
    return {tgt: scal % page.p}


def _scale_combo(combo, c, p):
    return {m: (v * c) % p for m, v in combo.items() if (v * c) % p}


def _add_combo(a, b, p):
    out = dict(a)
    for m, v in b.items():
        out[m] = (out.get(m, 0) + v) % p
    return {m: v for m, v in out.items() if v}


def _all_pairs_leibniz(page):
    """Test oracle: d(xy) = d(x)y + (-1)^|x| x d(y) for every pair of basis
    monomials inside the safe window, with d evaluated afresh on every
    monomial rather than read from the round's table."""
    p = page.p
    window = p ** (page.S - 1)
    in_window = [m for m in page.monomials if m.bidegree(p)[0] <= window]
    checked = 0
    for x in in_window:
        dx = _apply_d_combo({x: 1}, page)
        for y in in_window:
            dy = _apply_d_combo({y: 1}, page)
            lhs = _apply_d_combo(_mul_combo(x, y, page), page)
            rhs = {}
            for m, c in dx.items():
                rhs = _add_combo(rhs, _scale_combo(_mul_combo(m, y, page), c, p), p)
            sign = -1 if x.eps else 1
            for m, c in dy.items():
                rhs = _add_combo(rhs, _scale_combo(_mul_combo(x, m, page), c * sign, p), p)
            if lhs != rhs:
                raise AssertionError(
                    "Leibniz fails on %s, %s at round %d"
                    % (x, y, page.next_round)
                )
            checked += 1
    return checked


def _generator_leibniz(page):
    """The library certificate on a table built now, so that a mutant
    installed on round_differential reaches it."""
    return emss._check_leibniz(page, emss._differential_table(page))


def _pages_before_each_round(p, S):
    return turn_pages(initial_page(p, S), S - 1)[:-1]


def _mutants(page):
    """(monomial, wrong value of d on it) for the page before round s:
    one non-generator and two generators."""
    p, S, s = page.p, page.S, page.next_round
    w = emss._round_cycle(p, S, s)
    zeta = mono((1,) + (0,) * (S - 1))
    zeta2 = mono((2,) + (0,) * (S - 1))
    g_s = mono(tuple(int(j == s) for j in range(S)))
    return [
        (zeta2, dp_multiply(zeta2, w, p)),
        (zeta, dp_multiply(zeta, w, p)),
        (g_s, (2, w)),
    ]


def _install_mutant(mp, target, value):
    """Change the round differential on the single monomial `target`."""
    real = emss.round_differential
    mp.setattr(
        emss, "round_differential",
        lambda x, *rest: value if x == target else real(x, *rest),
    )


LEIBNIZ_GRID = [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)]


@pytest.mark.parametrize("p,S", LEIBNIZ_GRID)
def test_leibniz_certificates_accept_the_real_differential(p, S):
    for page in _pages_before_each_round(p, S):
        assert _generator_leibniz(page) > 0
        assert _all_pairs_leibniz(page) > 0


@pytest.mark.parametrize("p,S", LEIBNIZ_GRID)
def test_leibniz_certificates_reject_mutants(p, S, monkeypatch):
    real = emss.round_differential
    for page in _pages_before_each_round(p, S):
        for target, value in _mutants(page):
            assert real(target, p, S, page.next_round) != value
            with monkeypatch.context() as mp:
                _install_mutant(mp, target, value)
                for certificate in (_generator_leibniz, _all_pairs_leibniz):
                    with pytest.raises(AssertionError, match="Leibniz fails"):
                        certificate(page)


@pytest.mark.parametrize("p,S", [(3, 2), (3, 3), (5, 2)])
def test_leibniz_certificate_rejects_every_single_monomial_mutant(p, S, monkeypatch):
    # d changed on one page monomial: to that monomial times w_s, or to a
    # doubled or zero value.  The oracle sees only the window, so it may
    # accept some; the generator certificate must reject all of them.
    real = emss.round_differential
    for page in _pages_before_each_round(p, S):
        s = page.next_round
        w = emss._round_cycle(p, S, s)
        for x in page.monomials:
            scal, tgt = real(x, p, S, s)
            wrong = [dp_multiply(x, w, p)]
            if tgt is not None:
                wrong += [(2 * scal % p, tgt), (0, None)]
            for value in wrong:
                if value[1] is None and tgt is None:
                    continue
                with monkeypatch.context() as mp:
                    _install_mutant(mp, x, value)
                    with pytest.raises(AssertionError, match="Leibniz fails"):
                        _generator_leibniz(page)


@pytest.mark.parametrize("p,S", [(3, 3), (5, 3)])
def test_certificates_accept_a_rescaled_differential(p, S, monkeypatch):
    # 2d is a derivation with the same kernel and image as d, so every
    # certificate must accept it and the pages must not move
    want = [(pg.monomials, pg.record) for pg in turn_pages(initial_page(p, S), S - 1)]
    real = emss.round_differential

    def rescaled(*args):
        scal, tgt = real(*args)
        return 2 * scal % p, tgt

    monkeypatch.setattr(emss, "round_differential", rescaled)
    for page in _pages_before_each_round(p, S):
        assert _generator_leibniz(page) > 0
        assert _all_pairs_leibniz(page) > 0
    got = [(pg.monomials, pg.record) for pg in turn_pages(initial_page(p, S), S - 1)]
    assert got == want


def test_leibniz_certificate_rejects_a_page_it_does_not_cover():
    page = initial_page(3, 3)
    zeta, zeta2 = mono((1, 0, 0)), mono((2, 0, 0))
    for dropped, reason in [(zeta, "not on the page"), (zeta2, "leaves the page")]:
        cut = dataclasses.replace(
            page, monomials=tuple(m for m in page.monomials if m != dropped)
        )
        with pytest.raises(AssertionError, match=reason):
            _generator_leibniz(cut)
    stray = dataclasses.replace(page, next_round=2)  # slot 1 is not pinned yet
    with pytest.raises(AssertionError, match="not generated"):
        _generator_leibniz(stray)


@pytest.mark.parametrize("p,S", [(3, 3), (5, 3), (3, 4)])
def test_leibniz_certificate_signs_an_odd_derivation(p, S):
    # contracting sigma y, x * sy -> x, is a derivation of odd degree:
    # on two sigma y factors d(g) m and g d(m) cancel only with the sign
    for page in _pages_before_each_round(p, S):
        table = {
            m: (1, dataclasses.replace(m, eps=0)) for m in page.monomials if m.eps
        }
        assert emss._check_leibniz(page, table) > 0


EMSS_PAGES_GRID = [(3, S) for S in range(2, 7)] + [(5, S) for S in range(2, 5)] + [
    (7, 2), (7, 3)
]


def test_leibniz_pairs_are_generators_times_page():
    for p, S in EMSS_PAGES_GRID:
        history = turn_pages(initial_page(p, S), S - 1)
        for page in history[1:]:
            rec = page.record
            generators = S - rec.round + 2  # zeta, g[p^j] for j >= s, w_s
            assert rec.leibniz_pairs_checked == generators * rec.dim_before


@pytest.mark.parametrize("p,S", EMSS_PAGES_GRID)
def test_page_dimensions(p, S):
    history = turn_pages(initial_page(p, S), S - 1)
    assert [pg.total_dimension for pg in history] == [
        2 * p ** (S - k) for k in range(S)
    ]
    for page in history[1:]:
        rec = page.record
        assert rec.dim_after == 2 * p ** (S - rec.round)
        assert rec.cells_with_differential == (rec.dim_before - rec.dim_after) // 2
        assert rec.euler_before == rec.euler_after


# --------------------------------------------------------- round certificate


def _round_mutants(S):
    """(page, monomial, wrong value of d on it, message) at p = 3, S >= 3:
    each breaks exactly one of the round certificate's checks."""
    page1, page2 = _pages_before_each_round(3, S)[:2]
    zeros = (0,) * (S - 2)
    gamma_p, sy = mono((0, 1) + zeros), mono((0, 0) + zeros, eps=1)
    gamma_p2 = mono((0, 0, 1) + zeros[1:])
    return [
        # sy has slot 1 below p - 1, so it is off the page before round 2
        (page2, gamma_p2, (1, sy), "leaves the page"),
        # gamma_p already maps to sy; now sy maps back
        (page1, sy, (1, gamma_p), "d o d is nonzero"),
        # gamma_p sits in (3, -3), so d must land in (1, -2); z^2 sy is in (3, -4)
        (page1, gamma_p, (1, mono((2, 0) + zeros, eps=1)), "not by"),
        # gamma_p and sy then both survive, against the pattern
        (page1, gamma_p, (0, None), "not the predicted survivors"),
    ]


@pytest.mark.parametrize("S", [3, 4])
def test_round_certificate_rejects_each_mutant(S, monkeypatch):
    for page, target, value, reason in _round_mutants(S):
        assert target in page.monomials
        assert round_differential(target, 3, S, page.next_round) != value
        with monkeypatch.context() as mp:
            mp.setattr(emss, "_check_leibniz", lambda page, table: 0)
            _install_mutant(mp, target, value)
            with pytest.raises(AssertionError, match=reason):
                emss._run_round(page)


@pytest.mark.parametrize("p,S", [(3, 4), (5, 4)])
def test_one_evaluation_of_d_per_monomial(p, S, monkeypatch):
    calls = []
    real = emss.round_differential

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(emss, "round_differential", counted)
    rep = final_page_report(p, S)
    assert len(calls) == sum(pg.record.dim_before for pg in rep.pages[1:])
