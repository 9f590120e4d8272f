"""Divided-power pages: products, round differentials, survivor reports."""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
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


def index(m, p):
    """The page index of a monomial: sum a_j p^j + eps p^S."""
    return sum(a * p ** j for j, a in enumerate(m.exponents)) + m.eps * p ** len(m.exponents)


# ----------------------------------------------------------------- monomials


def test_bidegrees():
    p = 3
    assert mono((0, 0)).bidegree(p) == (0, 0)
    assert mono((1, 0)).bidegree(p) == (1, -1)
    assert mono((0, 0), eps=1).bidegree(p) == (1, -2)
    assert mono((0, 1)).bidegree(p) == (3, -3)
    assert mono((2, 1), eps=1).bidegree(p) == (6, -7)


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


def _leibniz_holds(x, y, page):
    """d(xy) = d(x)y + (-1)^|x| x d(y), with d evaluated afresh on every
    monomial rather than read from the round's table."""
    p, rhs = page.p, {}
    for m, c in _apply_d_combo({x: 1}, page).items():
        rhs = _add_combo(rhs, _scale_combo(_mul_combo(m, y, page), c, p), p)
    sign = -1 if x.eps else 1
    for m, c in _apply_d_combo({y: 1}, page).items():
        rhs = _add_combo(rhs, _scale_combo(_mul_combo(x, m, page), c * sign, p), p)
    return _apply_d_combo(_mul_combo(x, y, page), page) == rhs


def _all_pairs_leibniz(page):
    """Test oracle: the Leibniz rule for every pair of basis monomials
    inside the safe window."""
    p = page.p
    window = p ** (page.S - 1)
    in_window = [m for m in page.monomials if m.bidegree(p)[0] <= window]
    for x, y in itertools.product(in_window, repeat=2):
        if not _leibniz_holds(x, y, page):
            raise AssertionError(
                "Leibniz fails on %s, %s at round %d" % (x, y, page.next_round)
            )
    return len(in_window) ** 2


def _generator_leibniz(page):
    """The library certificate on a table built now, so that a mutant
    installed on round_differential reaches it."""
    tables = emss._index_tables(page.p, page.S)
    table = emss._differential_table(page, tables)
    return emss._check_leibniz(page, table, tables, emss._positions(page))


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
    """Change the round differential on the single monomial `target`:
    in round_differential, which the oracles read, and in the array
    table the library builds."""
    real, real_table = emss.round_differential, emss._differential_table
    mp.setattr(
        emss, "round_differential",
        lambda x, *rest: value if x == target else real(x, *rest),
    )

    def table(page, tables):
        scalar, tgt = (a.copy() for a in real_table(page, tables))
        i = int(np.searchsorted(page.indices, index(target, page.p)))
        assert page.indices[i] == index(target, page.p)
        c, y = value
        nonzero = y is not None and c % page.p
        scalar[i], tgt[i] = (c % page.p, index(y, page.p)) if nonzero else (0, -1)
        return scalar, tgt

    mp.setattr(emss, "_differential_table", table)


def _first_leibniz_failure(page):
    """Test oracle: the message of the first (generator, monomial) pair,
    generators outermost in the library's order, that breaks the
    Leibniz rule."""
    p, S, s = page.p, page.S, page.next_round
    gens = [mono([int(i == j) for i in range(S)]) for j in [0] + list(range(s, S))]
    for g in gens + [emss._round_cycle(p, S, s)]:
        for m in page.monomials:
            if not _leibniz_holds(g, m, page):
                return "Leibniz fails on %s, %s at round %d" % (g, m, s)
    return None


def _rejects_in_blocks(page, mp):
    """The generator certificate fails with the oracle's message with its
    own block size, with two generators and with one per block."""
    want = _first_leibniz_failure(page)
    assert want is not None
    for budget in (emss._BLOCK_PAIRS, 2 * len(page.indices), 1):
        mp.setattr(emss, "_BLOCK_PAIRS", budget)
        with pytest.raises(AssertionError) as err:
            _generator_leibniz(page)
        assert str(err.value) == want


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
                _rejects_in_blocks(page, mp)
                with pytest.raises(AssertionError, match="Leibniz fails"):
                    _all_pairs_leibniz(page)


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
                    _rejects_in_blocks(page, mp)


@pytest.mark.parametrize("p,S", [(3, 3), (5, 3)])
def test_certificates_accept_a_rescaled_differential(p, S, monkeypatch):
    # 2d is a derivation with the same kernel and image as d, so every
    # certificate must accept it and the pages must not move
    want = [(pg.monomials, pg.record) for pg in turn_pages(initial_page(p, S), S - 1)]
    real, real_table = emss.round_differential, emss._differential_table

    def rescaled(*args):
        scal, tgt = real(*args)
        return 2 * scal % p, tgt

    def rescaled_table(page, tables):
        scal, tgt = real_table(page, tables)
        return 2 * scal % p, tgt

    monkeypatch.setattr(emss, "round_differential", rescaled)
    monkeypatch.setattr(emss, "_differential_table", rescaled_table)
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
            page, indices=page.indices[page.indices != index(dropped, 3)]
        )
        with pytest.raises(AssertionError, match=reason):
            _generator_leibniz(cut)
    stray = dataclasses.replace(page, next_round=2)  # slot 1 is not pinned yet
    with pytest.raises(AssertionError, match="not generated"):
        _generator_leibniz(stray)


@pytest.mark.parametrize("per_block", [1, 2, 3, 4])
def test_leibniz_certificate_reports_in_generator_order(per_block, monkeypatch):
    # zeta breaks the rule and g[p^2] * g[p^2] leaves a page without
    # g[p^2]^2; the generators are zeta, g[p^1], g[p^2], w_1, so zeta's
    # failure comes first whether or not the two share a block
    page, zeta2 = initial_page(3, 3), mono((2, 0, 0))
    cut = dataclasses.replace(page, indices=page.indices[page.indices != index(mono((0, 0, 2)), 3)])
    _install_mutant(monkeypatch, zeta2, dp_multiply(zeta2, emss._round_cycle(3, 3, 1), 3))
    monkeypatch.setattr(emss, "_BLOCK_PAIRS", per_block * len(cut.indices))
    with pytest.raises(AssertionError) as err:
        _generator_leibniz(cut)
    assert str(err.value) == "Leibniz fails on z, z at round 1"


@pytest.mark.parametrize("p,S", [(3, 3), (5, 3), (3, 4)])
def test_leibniz_certificate_signs_an_odd_derivation(p, S):
    # contracting sigma y, x * sy -> x, is a derivation of odd degree:
    # on two sigma y factors d(g) m and g d(m) cancel only with the sign
    for page in _pages_before_each_round(p, S):
        odd = page.indices >= p ** S
        table = (odd.astype(np.int32), np.where(odd, page.indices - p ** S, -1))
        tables = emss._index_tables(p, S)
        assert emss._check_leibniz(page, table, tables, emss._positions(page)) > 0


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
            mp.setattr(emss, "_check_leibniz", lambda page, table, tables, pos: 0)
            _install_mutant(mp, target, value)
            with pytest.raises(AssertionError, match=reason):
                emss._run_round(page, emss._index_tables(3, S))


def test_round_certificate_checks_the_sigma_y_step(monkeypatch):
    # zeta (m = 1) to the even monomial of index 1 + p^S - p: the index step
    # of the real d, but sigma y does not come on, so the bidegree is wrong
    page, zeta, far = initial_page(3, 3), index(mono((1, 0, 0)), 3), index(mono((1, 2, 2)), 3)
    assert far == zeta + 3 ** 3 - 3
    real_table = emss._differential_table

    def table(pg, tables):
        scalar, target = (a.copy() for a in real_table(pg, tables))
        scalar[zeta], target[zeta] = 1, far  # positions are indices on the first page
        scalar[far], target[far] = 0, -1
        return scalar, target

    monkeypatch.setattr(emss, "_check_leibniz", lambda page, table, tables, pos: 0)
    monkeypatch.setattr(emss, "_differential_table", table)
    with pytest.raises(AssertionError, match="d moves z to z\\*g\\[p\\^1\\]\\^2"):
        emss._run_round(page, emss._index_tables(3, 3))


@pytest.mark.parametrize("p,S", [(3, 4), (5, 4)])
def test_one_table_build_per_round(p, S, monkeypatch):
    calls, builds = [], []
    real, real_tables = emss._differential_table, emss._index_tables

    def counted(page, tables):
        calls.append(page.next_round)
        return real(page, tables)

    def built(*args):
        builds.append(args)
        return real_tables(*args)

    monkeypatch.setattr(emss, "_differential_table", counted)
    monkeypatch.setattr(emss, "_index_tables", built)
    rep = final_page_report(p, S)
    assert calls == list(range(1, S))
    assert builds == [(p, S), (p, 1)]  # the turn's tables, then slot zero for the zeta check
    assert len(rep.pages) == S


# -------------------------------------------------- object path as the oracle


def _object_round(monomials, p, S, s):
    """One round on DPBasisElements, as the library ran it before pages
    were index arrays: round_differential on every monomial into a dict
    table, the round checks, the Leibniz rule for generators times the
    page through dp_multiply, and the survivors in page order."""
    table = {}
    for x in monomials:
        c, y = round_differential(x, p, S, s)
        if y is not None and c % p:
            table[x] = (c % p, y)
    on_page = set(monomials)
    for x, (_, y) in table.items():
        assert y in on_page and y not in table
        (s0, t0), (s1, t1) = x.bidegree(p), y.bidegree(p)
        assert (s1 - s0, t1 - t0) == (-(p - 1), p - 2)

    def terms(*pairs):
        out = {}
        for c, m in pairs:
            if m is not None:
                out[m] = (out.get(m, 0) + c) % p
        return {m: c for m, c in out.items() if c}

    def times(a, x, y):
        if x is None or y is None:
            return 0, None
        c, xy = dp_multiply(x, y, p)
        return a * c, xy

    digits = [mono([int(i == j) for i in range(S)]) for j in [0] + list(range(s, S))]
    gens = digits + [emss._round_cycle(p, S, s)]
    for m in monomials:
        b, dm = table.get(m, (0, None))
        for g in gens:
            a, dg = table.get(g, (0, None))
            c, gm = dp_multiply(g, m, p)
            assert gm is None or gm in on_page
            e, dgm = table.get(gm, (0, None))
            sign = -1 if g.eps else 1
            assert terms((c * e, dgm)) == terms(times(a, dg, m), times(sign * b, g, dm))
    targets = {y for _, y in table.values()}
    survivors = tuple(m for m in monomials if m not in table and m not in targets)

    def euler(ms):
        return sum(1 if m.eps == 0 else -1 for m in ms)

    record = emss.RoundRecord(
        round=s, nominal_index=emss._nominal_index(p, s),
        dim_before=len(monomials), dim_after=len(survivors),
        cells_with_differential=len({x.bidegree(p) for x in table}),
        d_squared_zero=True, leibniz_pairs_checked=len(gens) * len(monomials),
        euler_before=euler(monomials), euler_after=euler(survivors),
    )
    return survivors, record


OBJECT_GRID = sorted({(p, S) for p, S in LEIBNIZ_GRID + EMSS_PAGES_GRID if S <= 4})


@pytest.mark.parametrize("p,S", OBJECT_GRID)
def test_index_pages_match_the_object_path(p, S):
    mons = tuple(sorted(
        (mono(e, eps) for e in itertools.product(range(p), repeat=S) for eps in (0, 1)),
        key=lambda m: index(m, p),
    ))
    history = turn_pages(initial_page(p, S), S - 1)
    assert history[0].monomials == mons
    for before, page in zip(history, history[1:]):
        mons, record = _object_round(mons, p, S, before.next_round)
        assert page.monomials == mons
        assert page.record == record


def _digits(t, p, count):
    return [t // p ** j % p for j in range(count)]


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_index_tables_are_digit_sums_and_factorials(p):
    S = 1 if p > 7 else 2
    q = p ** S
    tp, digit_sum, fact, inv_fact = emss._index_tables(p, S)
    assert tp == p and len(digit_sum) == len(fact) == len(inv_fact) == 4 * q
    for t in range(2 * q):  # the sigma y exponent is digit S
        digits = _digits(t, p, S + 1)
        assert digit_sum[t] == sum(digits)
        assert fact[t] == math.prod(math.factorial(a) for a in digits) % p
        assert fact[t] * inv_fact[t] % p == 1
    assert not fact[2 * q:].any() and not inv_fact[2 * q:].any()  # also index -1
    # Kummer and the factorial units give the digitwise binomial
    for x, y in itertools.product(range(q), repeat=2):
        xs, ys = _digits(x, p, S), _digits(y, p, S)
        carries = any(a + b >= p for a, b in zip(xs, ys))
        assert (digit_sum[x + y] == digit_sum[x] + digit_sum[y]) == (not carries)
        if not carries:
            want = math.prod(math.comb(a + b, a) for a, b in zip(xs, ys)) % p
            assert fact[x + y] * inv_fact[x] * inv_fact[y] % p == want


@pytest.mark.parametrize("p,S", [(3, 2), (3, 3), (5, 2), (7, 2)])
def test_index_product_matches_dp_multiply(p, S):
    # every pair at once, as _check_leibniz broadcasts: a column of
    # monomials against a row, -1 (the zero monomial) last in both
    page, tables = initial_page(p, S), emss._index_tables(p, S)
    xs = np.append(page.indices, -1).astype(np.int32)
    scalar, target = emss._multiply(xs[:, None], xs[None, :], tables)
    assert scalar.shape == target.shape == (len(xs), len(xs))
    assert scalar.dtype == target.dtype == np.int32
    for i, x in enumerate(page.monomials):
        for j, y in enumerate(page.monomials):
            c0, xy = dp_multiply(x, y, p)
            want = (0, -1) if xy is None else (c0, index(xy, p))
            assert (scalar[i, j], target[i, j]) == want
    assert not scalar[-1].any() and not scalar[:, -1].any()
    assert (target[-1] == -1).all() and (target[:, -1] == -1).all()
    sy = p ** S
    assert [a.tolist() for a in emss._multiply(sy, np.array([sy, 1]), tables)] == [
        [0, 1], [-1, sy + 1]]  # sigma y * sigma y = 0, sigma y * zeta = zeta sigma y


def test_int32_keys_hold_for_every_admitted_prime():
    # a page of S >= 2 slots holds 2 p^2 <= PAGE_LIMIT monomials, and the
    # Leibniz keys target * p + scalar stay below PAGE_LIMIT * p
    p_max = math.isqrt(emss.PAGE_LIMIT // 2)
    assert 2 * p_max ** 2 <= emss.PAGE_LIMIT < 2 * (p_max + 1) ** 2
    assert emss.PAGE_LIMIT * p_max < 2 ** 31
    assert p_max ** 3 < 2 ** 31  # the product of three table entries


def test_leibniz_blocks_stay_within_the_pair_budget(monkeypatch):
    # p = 3, S = 9: the first page (39,366 monomials) is past the budget,
    # so it goes one generator at a time; the later pages fit it
    widths, page_dims, real_multiply, real_check = [], [], emss._multiply, emss._check_leibniz

    def multiply(x, y, tables):
        if page_dims:  # inside _check_leibniz
            widths.append((np.broadcast(x, y).size, page_dims[-1]))
        return real_multiply(x, y, tables)

    def check(page, *rest):
        page_dims.append(len(page.indices))
        try:
            return real_check(page, *rest)
        finally:
            dims.append(page_dims.pop())

    dims = []
    monkeypatch.setattr(emss, "_multiply", multiply)
    monkeypatch.setattr(emss, "_check_leibniz", check)
    assert final_page_report(3, 9).verdict == "MATCH"
    assert dims == [2 * 3 ** k for k in range(9, 1, -1)]
    assert max(w for w, n in widths if n > emss._BLOCK_PAIRS) == 2 * 3 ** 9
    assert all(w <= max(emss._BLOCK_PAIRS, n) for w, n in widths)


@pytest.mark.parametrize("p,S", [(3, 6), (5, 4), (7, 3)])
def test_small_pages_certify_a_round_in_one_block(p, S, monkeypatch):
    calls, real = [], emss._multiply
    monkeypatch.setattr(emss, "_multiply", lambda *args: calls.append(1) or real(*args))
    final_page_report(p, S)
    # per round: the table and three products; then the zeta check
    assert len(calls) == 4 * (S - 1) + 1


def test_final_page_report_p3_s9_within_its_budget():
    start = time.perf_counter()
    rep = final_page_report(3, 9)
    assert time.perf_counter() - start < 3.0
    assert rep.verdict == "MATCH"
    assert rep.pages[0].total_dimension == 2 * 3 ** 9


# ------------------------------------------------------------- page ceiling


def test_page_limit_admits_the_largest_page_and_refuses_the_next():
    assert 2 * 3 ** 9 <= emss.PAGE_LIMIT
    S = max(S for S in range(2, 64) if 2 * 3 ** S <= emss.PAGE_LIMIT)
    assert initial_page(3, S).total_dimension == 2 * 3 ** S
    with pytest.raises(ValueError, match="2\\*3\\^%d monomials exceeds PAGE_LIMIT = %d"
                       % (S + 1, emss.PAGE_LIMIT)):
        initial_page(3, S + 1)


@pytest.mark.parametrize("p,S", [(3, 10 ** 9), (9223372036854775783, 2), (5, 10 ** 6)])
def test_page_limit_refuses_huge_inputs_at_once(p, S):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds PAGE_LIMIT"):
        final_page_report(p, S)
    assert time.perf_counter() - start < 1.0


def test_refusal_order_is_prime_then_cutoff_then_ceiling():
    with pytest.raises(ValueError, match="p must be prime"):
        final_page_report(9, 10 ** 9)
    with pytest.raises(ValueError, match="cutoff S must be >= 0"):
        final_page_report(9223372036854775783, -1)
    assert final_page_report(9223372036854775783, 1).verdict == "INCONCLUSIVE"
