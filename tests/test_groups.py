"""Permutation groups, Sylow subgroups, p-complements, conjugation chains."""

import math
import random

import numpy as np
import pytest

from ramify import artin, groups
from ramify.groups import (
    FiniteGroup,
    GroupError,
    alternating_group,
    compose,
    conjugation_nilpotent,
    cyclic_group,
    dihedral_group,
    has_normal_p_complement,
    identity_perm,
    inverse,
    parse_cycles,
    perm_order,
    quaternion_group,
    sylow_subgroup,
    symmetric_group,
)


# -------------------------------------------------------------- permutations


def test_compose_convention():
    # compose(a, b) applies a first, then b
    a = (1, 0, 2)
    b = (0, 2, 1)
    assert compose(a, b) == (2, 0, 1)
    assert compose(a, inverse(a)) == identity_perm(3)
    assert inverse((1, 2, 0)) == (2, 0, 1)


def _order_by_cycles(a):
    """The lcm of the lengths of the cycles of a."""
    order, seen = 1, set()
    for start in range(len(a)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = a[x]
            length += 1
        order = math.lcm(order, max(length, 1))
    return order


def test_perm_order():
    assert perm_order(identity_perm(4)) == 1
    assert perm_order(()) == 1
    assert perm_order((1, 0, 2, 3)) == 2
    assert perm_order((1, 2, 0, 4, 3)) == 6
    c5_s3 = FiniteGroup(8, parse_cycles("(1,2,3,4,5);(6,7);(6,7,8)"))
    for G in (symmetric_group(5), alternating_group(5), quaternion_group(),
              dihedral_group(5), c5_s3):
        orders = [perm_order(g) for g in G.elements]
        assert orders == [_order_by_cycles(g) for g in G.elements]
        assert max(orders) == {120: 6, 60: 5, 8: 4, 10: 5, 30: 15}[G.order]


def test_parse_cycles():
    (g,) = parse_cycles("(1,2,3)")
    assert g == (1, 2, 0)
    a, b = parse_cycles("(1,2);(1,2,3)")
    assert a == (1, 0, 2) and b == (1, 2, 0)
    (wide,) = parse_cycles("(1,2)", degree=4)
    assert wide == (1, 0, 2, 3)
    (two,) = parse_cycles("(1,2)(3,4)")
    assert two == (1, 0, 3, 2)
    (ident,) = parse_cycles("()", degree=3)
    assert ident == (0, 1, 2)


def test_parse_cycles_rejects_garbage():
    with pytest.raises(GroupError, match="^no generators given$"):
        parse_cycles("")
    with pytest.raises(GroupError, match="^unbalanced parenthesis in "):
        parse_cycles("(1,2")
    for bad in ["1,2)", "[1,2]"]:
        with pytest.raises(GroupError, match="^malformed cycle text: "):
            parse_cycles(bad)
    with pytest.raises(GroupError, match="^non-integer point in "):
        parse_cycles("(1,x)")
    for bad in ["(1,1)", "(0,1)"]:
        with pytest.raises(GroupError, match="^cycle points must be distinct and >= 1$"):
            parse_cycles(bad)
    with pytest.raises(GroupError, match="^degree 3 too small for the points used$"):
        parse_cycles("(1,5)", degree=3)


# -------------------------------------------------------------------- groups


def test_standard_orders():
    assert cyclic_group(6).order == 6
    assert dihedral_group(4).order == 8
    assert symmetric_group(4).order == 24
    assert alternating_group(4).order == 12
    assert alternating_group(5).order == 60
    assert quaternion_group().order == 8
    with pytest.raises(GroupError):
        alternating_group(6)  # order 360 exceeds the cap


def test_alternating_three_elements():
    A3 = alternating_group(3)
    assert set(A3.elements) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


def test_group_membership_and_conjugation():
    G = symmetric_group(3)
    swap = (1, 0, 2)
    assert swap in G
    assert (1, 0) not in G
    g = (1, 2, 0)
    # conjugate of a transposition is a transposition
    assert perm_order(G.conjugate(g, swap)) == 2


def test_group_validation():
    for bad in [(0, 0, 1), (0, 1)]:
        with pytest.raises(GroupError, match=r"^not a permutation of 0\.\.2$"):
            FiniteGroup(3, [bad])
    with pytest.raises(GroupError, match="^order must be >= 1$"):
        cyclic_group(0)
    with pytest.raises(GroupError, match="^need m >= 3$"):
        dihedral_group(2)
    with pytest.raises(GroupError, match="^degree must be >= 1$"):
        symmetric_group(0)
    with pytest.raises(GroupError, match="^need m >= 3$"):
        alternating_group(2)
    with pytest.raises(GroupError, match="^group order exceeds cap 200$"):
        symmetric_group(6)  # order 720 > cap


def test_a_wrong_quaternion_table_fails_the_construction(monkeypatch):
    # every product read as its right factor: each left translation is
    # the identity, and i, j generate the trivial group
    monkeypatch.setattr(groups, "_qmul", lambda a, b: b)
    with pytest.raises(GroupError, match="^quaternion construction came out wrong$"):
        quaternion_group()


def test_quaternion_has_unique_involution():
    Q = quaternion_group()
    invs = [g for g in Q.elements if perm_order(g) == 2]
    assert len(invs) == 1


# --------------------------------------------------------------------- Sylow


@pytest.mark.parametrize(
    "maker,p,expected",
    [
        (lambda: symmetric_group(3), 2, 2),
        (lambda: symmetric_group(3), 3, 3),
        (lambda: symmetric_group(4), 2, 8),
        (lambda: symmetric_group(4), 3, 3),
        (lambda: symmetric_group(5), 2, 8),
        (lambda: alternating_group(5), 2, 4),
        (lambda: alternating_group(5), 5, 5),
        (lambda: dihedral_group(6), 2, 4),
        (lambda: quaternion_group(), 2, 8),
    ],
)
def test_sylow_orders(maker, p, expected):
    G = maker()
    P = sylow_subgroup(G, p)
    assert P.order == expected
    for g in P.elements:
        assert g in G


def test_sylow_seed_independence():
    G = symmetric_group(4)
    for seed in range(4):
        assert sylow_subgroup(G, 2, seed=seed).order == 8


def test_sylow_rejects_composite():
    with pytest.raises(GroupError, match="^p must be prime$"):
        sylow_subgroup(symmetric_group(3), 4)


def test_a_wrong_element_order_stalls_sylow_growth(monkeypatch):
    # every order read as 6: no element is a 2-element, so nothing can
    # grow the trivial subgroup towards order 2
    G = symmetric_group(3)
    monkeypatch.setattr(groups, "perm_order", lambda a: 6)
    with pytest.raises(GroupError, match="^greedy Sylow growth stalled; should not happen$"):
        sylow_subgroup(G, 2)


# --------------------------------------------------------------- complements


def test_s3_has_a3_complement_at_two():
    rep = has_normal_p_complement(symmetric_group(3), 2)
    assert rep.exists
    assert rep.candidate_order == rep.expected_order == 3
    assert set(rep.subgroup.elements) == set(alternating_group(3).elements)
    assert "order 3" in str(rep)


def test_a4_has_no_complement_at_two():
    rep = has_normal_p_complement(alternating_group(4), 2)
    assert not rep.exists
    assert rep.expected_order == 3
    assert rep.candidate_order == 12  # the 3-cycles already generate A4
    assert "no normal p-complement" in str(rep)


def test_a4_splits_at_three():
    # the Klein four-group is a normal 3-complement
    rep = has_normal_p_complement(alternating_group(4), 3)
    assert rep.exists and rep.candidate_order == 4


def test_p_groups_have_trivial_complement():
    for G in (dihedral_group(4), quaternion_group(), cyclic_group(4), cyclic_group(8)):
        rep = has_normal_p_complement(G, 2)
        assert rep.exists and rep.candidate_order == 1
    rep = has_normal_p_complement(cyclic_group(9), 3)
    assert rep.exists and rep.candidate_order == 1


def test_s5_complement_candidate_is_a5():
    rep = has_normal_p_complement(symmetric_group(5), 2)
    assert not rep.exists
    assert rep.expected_order == 15
    assert rep.candidate_order == 60  # odd-order permutations generate A5


def test_complement_rejects_composite():
    with pytest.raises(GroupError, match="^p must be prime$"):
        has_normal_p_complement(symmetric_group(3), 6)


def test_a_wrong_element_order_fails_complement_normality(monkeypatch):
    # at p = 3 only (1,2) is read as a 3'-element: it generates a
    # subgroup of order 2 that conjugation by (1,2,3) moves
    G = symmetric_group(3)
    order = groups.perm_order
    monkeypatch.setattr(groups, "perm_order",
                        lambda a: order(a) if a in (G.identity, (1, 0, 2)) else 3)
    with pytest.raises(GroupError, match="^complement candidate is not normal$"):
        has_normal_p_complement(G, 3)


def test_cyclic_six_splits_at_both_primes():
    G = cyclic_group(6)
    at2 = has_normal_p_complement(G, 2)
    assert at2.exists and at2.candidate_order == 3
    at3 = has_normal_p_complement(G, 3)
    assert at3.exists and at3.candidate_order == 2


def _sylow_by_elements(G, p, seed):
    """Reference greedy Sylow growth: each trial closes over every
    element of the current subgroup plus the candidate."""
    target = groups._p_part(G.order, p)
    candidates = [g for g in G.elements
                  if g != G.identity and groups._is_p_power(perm_order(g), p)]
    random.Random(seed).shuffle(candidates)
    current = {G.identity}
    while len(current) < target:
        for g in candidates:
            if g in current:
                continue
            try:
                trial = groups._closure(G.degree, list(current) + [g], cap=target)
            except GroupError:
                continue
            if groups._is_p_power(len(trial), p):
                current = trial
                if len(current) == target:
                    break
    return tuple(sorted(current))


def test_subgroups_from_generating_sets_match_all_element_closures():
    # each generator kept grows the subgroup, so there are at most
    # log_2 of its order
    c5_s3 = FiniteGroup(8, parse_cycles("(1,2,3,4,5);(6,7);(6,7,8)"))
    for G in (symmetric_group(4), alternating_group(5), symmetric_group(5),
              dihedral_group(5), quaternion_group(), c5_s3):
        for p in (2, 3, 5):
            if G.order % p:
                continue
            rep = has_normal_p_complement(G, p)
            coprime = [g for g in G.elements if math.gcd(perm_order(g), p) == 1]
            assert rep.subgroup.elements == FiniteGroup(G.degree, coprime).elements
            assert 2 ** len(rep.subgroup.generators) <= max(2, rep.candidate_order)
            for seed in range(3):
                P = sylow_subgroup(G, p, seed=seed)
                assert P.elements == _sylow_by_elements(G, p, seed)
                assert 2 ** len(P.generators) <= max(2, P.order)


def test_sylow_and_complement_keep_the_closure_they_built(monkeypatch):
    # both subgroups are built from the closure their loops already hold:
    # no generating set is closed twice, and the group is the one its
    # generators generate
    G = symmetric_group(5)
    closure, closed = groups._closure, []
    monkeypatch.setattr(groups, "_closure", lambda degree, gens, **kw:
                        closed.append(tuple(gens)) or closure(degree, gens, **kw))
    for p in (2, 3, 5):
        for build in (sylow_subgroup, lambda G, p: has_normal_p_complement(G, p).subgroup):
            closed.clear()
            H = build(G, p)
            assert closed and len(set(closed)) == len(closed)
            assert H.elements == tuple(sorted(closure(G.degree, H.generators)))


# --------------------------------------------------------------- conjugation


def test_s3_conjugation_chain_at_two():
    rep = conjugation_nilpotent(symmetric_group(3), 2)
    assert not rep.nilpotent
    assert rep.chain_dims == (6, 3, 2)
    assert rep.stable_dim == 2
    # the stable piece contains the differences of transpositions
    G = symmetric_group(3)
    swaps = [i for i, g in enumerate(G.elements) if perm_order(g) == 2]
    assert len(swaps) == 3
    from ramify.artin import residual, rref

    red, piv = rref(list(rep.stable_basis), 2)
    for a, b in [(swaps[0], swaps[1]), (swaps[0], swaps[2])]:
        vec = [0] * 6
        vec[a] = vec[b] = 1
        assert not residual(vec, red, piv, 2).any()


_RREF = artin.rref


def _rref_answering(monkeypatch, answers):
    """Make artin.rref reduce, in place of its i-th stack with c
    columns, the rows answers[c][i]; other stacks reduce as given."""
    queues = {c: iter(rows) for c, rows in answers.items()}

    def fake(rows, p):
        return _RREF(next(queues.get(rows.shape[1], iter(())), rows), p)

    monkeypatch.setattr(artin, "rref", fake)


# S3's classes: the identity, three transpositions, two 3-cycles; the
# rows below are on the transpositions, in element order


def test_conjugation_chain_certifies_descent(monkeypatch):
    # M_2 on the transpositions claimed to be <e_0>, which is not inside
    # M_1 there, the sum-zero vectors
    _rref_answering(monkeypatch, {3: [[[1, 0, 0]]]})
    with pytest.raises(GroupError, match="^conjugation chain failed to descend$"):
        conjugation_nilpotent(symmetric_group(3), 2)


def test_conjugation_chain_certifies_invariance(monkeypatch):
    # <e_0 + e_1> claimed as M_2 and M_3 on the transpositions: it lies in
    # M_1 and then in itself, but conjugation moves it
    _rref_answering(monkeypatch, {3: [[[1, 1, 0]]] * 2})
    with pytest.raises(GroupError, match="^stable submodule is not G-invariant$"):
        conjugation_nilpotent(symmetric_group(3), 2)
    # the class sum in the same place passes both checks at p = 3, where
    # it sums to zero; the 3-cycles keep their M_1
    _rref_answering(monkeypatch, {3: [[[1, 1, 1]]] * 2})
    rep = conjugation_nilpotent(symmetric_group(3), 3)
    assert rep.chain_dims == (6, 3, 2) and rep.stable_dim == 2


def test_conjugation_refuses_primes_past_int64_exactness():
    with pytest.raises(artin.AlgebraError, match="too large"):
        conjugation_nilpotent(symmetric_group(3), 4294967311)


@pytest.mark.parametrize(
    "maker",
    [
        lambda: dihedral_group(4),
        lambda: quaternion_group(),
        lambda: cyclic_group(4),
        lambda: cyclic_group(8),
    ],
)
def test_two_groups_are_conjugation_nilpotent(maker):
    rep = conjugation_nilpotent(maker(), 2)
    assert rep.nilpotent
    assert rep.chain_dims[-1] == 0
    assert rep.stable_dim == 0 and rep.stable_basis == ()


def test_c9_conjugation_nilpotent_at_three():
    rep = conjugation_nilpotent(cyclic_group(9), 3)
    assert rep.nilpotent
    # abelian: one step kills everything
    assert rep.chain_dims == (9, 0)


def test_a4_conjugation_not_nilpotent_at_three():
    rep = conjugation_nilpotent(alternating_group(4), 3)
    assert not rep.nilpotent
    assert rep.stable_dim >= 1


def _all_elements_chain(G, p):
    """Reference conjugation chain: M_(i+1) spanned by g.v - v for every
    element g of G, not just the generators.  Returns (chain_dims,
    stable_basis) in the library's conventions."""
    n = G.order
    pos = {g: i for i, g in enumerate(G.elements)}
    rows = np.eye(n, dtype=np.int64)
    dims = [n]
    while True:
        moved = []
        for g in G.elements:
            permuted = np.zeros_like(rows)
            permuted[:, [pos[G.conjugate(g, x)] for x in G.elements]] = rows
            moved.append((permuted - rows) % p)
        red, _ = artin.rref(np.vstack(moved), p)
        if len(red) in (0, dims[-1]):
            if len(red) == 0:
                dims.append(0)
            return tuple(dims), tuple(tuple(int(x) for x in row) for row in red)
        dims.append(len(red))
        rows = red


def _relabeled(G, seed):
    """G with its points relabeled by a seeded permutation."""
    points = list(range(G.degree))
    random.Random(seed).shuffle(points)
    s = tuple(points)
    return FiniteGroup(G.degree, [compose(compose(inverse(s), g), s) for g in G.generators])


def test_s5_generator_path_matches_small_group_path():
    # acting by generators only, class by class, spans the same chain as
    # acting by every element on all of F_p[G], up to a stable submodule
    # given by the same rref basis.  Relabeled points put the classes out
    # of element order; M_1 is the sum-zero part of each class
    c5_s3 = FiniteGroup(8, parse_cycles("(1,2,3,4,5);(6,7);(6,7,8)"))
    trivial = [FiniteGroup(len(gens[0]), gens)
               for gens in (parse_cycles("()"), parse_cycles("(1)"))]
    cases = [
        (symmetric_group(5), 2),
        (symmetric_group(4), 2),
        (symmetric_group(4), 3),
        (alternating_group(4), 3),
        (alternating_group(5), 5),
        (dihedral_group(5), 2),
        (dihedral_group(6), 3),
        (quaternion_group(), 2),
        (cyclic_group(9), 3),
        (c5_s3, 5),
        (dihedral_group(8), 2),
    ]
    cases += [(_relabeled(G, p), p) for G in (symmetric_group(5), alternating_group(5))
              for p in (2, 3, 5)]
    cases += [(G, p) for G in trivial for p in (2, 3)]
    for G, p in cases:
        rep = conjugation_nilpotent(G, p)
        dims, basis = _all_elements_chain(G, p)
        assert (rep.chain_dims, rep.stable_basis, rep.nilpotent) == (dims, basis, dims[-1] == 0)
        assert all(type(x) is int for row in rep.stable_basis for x in row)
        classes = {frozenset(G.conjugate(g, x) for g in G.elements) for x in G.elements}
        assert rep.chain_dims[1] == G.order - len(classes)
    assert [G.degree for G in trivial] == [0, 1]
    assert conjugation_nilpotent(dihedral_group(8), 2).chain_dims == (16, 9, 4, 2, 0)
    with pytest.raises(GroupError, match="^p must be prime$"):
        conjugation_nilpotent(symmetric_group(3), 6)


def test_s3_splits_but_conjugation_is_not_nilpotent():
    # the two diagnostics measure different things: S3 at p = 2 has
    # the normal complement A3, yet conjugation on F_2[S3] stabilizes
    # at a nonzero submodule
    G = symmetric_group(3)
    assert has_normal_p_complement(G, 2).exists
    assert not conjugation_nilpotent(G, 2).nilpotent


def test_abelian_groups_are_conjugation_nilpotent_in_one_step():
    for G, p in [(cyclic_group(6), 2), (cyclic_group(6), 3)]:
        rep = conjugation_nilpotent(G, p)
        assert rep.nilpotent
        assert rep.chain_dims == (6, 0)
