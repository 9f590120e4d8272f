"""Small permutation groups and p-nilpotence diagnostics.

Groups are generated subgroups of a symmetric group on at most 1000
points, stored as explicit element lists (capped at order 200, which
is all the examples need).  Three questions are answered here:

  * a Sylow p-subgroup, grown greedily from p-power-order elements;
  * whether a normal p-complement exists, by checking the subgroup
    generated by all p'-order elements against the p'-part of the
    group order;
  * whether the conjugation action on the group algebra F_p[G] is
    nilpotent, by iterating M -> span{g.v - v} until the chain of
    submodules stabilizes, one conjugacy class at a time.

For the complement test the candidate subgroup N0 generated by the
p'-elements is the only possibility: a normal complement K has
p-power index, so every p'-element maps to the identity in G/K and
lands in K, giving N0 <= K; and every element of K has p'-order, so
K <= N0.  Hence a complement exists iff |N0| equals the p'-part.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import artin
from .coeff import is_prime

__all__ = [
    "GroupError",
    "identity_perm",
    "compose",
    "inverse",
    "perm_order",
    "parse_cycles",
    "FiniteGroup",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "alternating_group",
    "quaternion_group",
    "sylow_subgroup",
    "ComplementReport",
    "has_normal_p_complement",
    "ConjugationReport",
    "conjugation_nilpotent",
]

MAX_ORDER = 200
MAX_DEGREE = 1000


class GroupError(Exception):
    pass


# ---------------------------------------------------------------------------
# permutations: tuples over 0..degree-1, composed left to right


def identity_perm(degree):
    return tuple(range(degree))


def compose(a, b):
    """Apply a first, then b."""
    return tuple([b[x] for x in a])


def inverse(a):
    out = [0] * len(a)
    for x, y in enumerate(a):
        out[y] = x
    return tuple(out)


def perm_order(a):
    """The lcm of the lengths of the cycles of a."""
    n, seen = 1, set()
    for start in range(len(a)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = a[x], length + 1
        n = math.lcm(n, max(length, 1))
    return n


def parse_cycles(text, degree=None):
    """Parse generators in one-based cycle notation.

    Generators are separated by ';', each a product of parenthesized
    cycles, e.g. "(1,2);(1,2,3)".  Whitespace is ignored; an empty
    cycle list means the identity.  The degree defaults to the
    largest point mentioned.  Each permutation is returned once, and
    none is built past MAX_DEGREE or MAX_ORDER distinct generators.
    """
    chunks = [c.strip() for c in text.split(";") if c.strip()]
    if not chunks:
        raise GroupError("no generators given")
    moved = {}  # each generator's (point, image) pairs, once per permutation
    top = 0
    for chunk in chunks:
        images = {}
        rest = chunk.replace(" ", "")
        while rest:
            if not rest.startswith("("):
                raise GroupError("malformed cycle text: %r" % chunk)
            close = rest.find(")")
            if close < 0:
                raise GroupError("unbalanced parenthesis in %r" % chunk)
            inner = rest[1:close]
            rest = rest[close + 1 :]
            if not inner:
                continue
            try:
                pts = [int(t) for t in inner.split(",")]
            except ValueError:
                raise GroupError("non-integer point in %r" % chunk)
            if any(x < 1 for x in pts) or len(set(pts)) != len(pts):
                raise GroupError("cycle points must be distinct and >= 1")
            images.update((x - 1, pts[(i + 1) % len(pts)] - 1) for i, x in enumerate(pts))
            top = max(top, max(pts))
        moved[tuple(sorted((x, y) for x, y in images.items() if x != y))] = None
    if degree is None:
        degree = top
    if degree < top:
        raise GroupError("degree %d too small for the points used" % degree)
    if degree > MAX_DEGREE:
        raise GroupError("degree %d exceeds cap %d" % (degree, MAX_DEGREE))
    if len(moved) > MAX_ORDER:
        raise GroupError("%d distinct generators exceed the order cap %d" % (len(moved), MAX_ORDER))
    perms = []
    for pairs in moved:
        perm = list(range(degree))
        for x, y in pairs:
            perm[x] = y
        perms.append(tuple(perm))
    return perms


def _closure(degree, gens, cap=MAX_ORDER):
    """Elements of the generated subgroup, BFS over right
    multiplication.  Raises GroupError past the cap."""
    ident = identity_perm(degree)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise GroupError("group order exceeds cap %d" % cap)
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class FiniteGroup:
    """Generated subgroup of Sym(degree); elements enumerated at
    construction time, unless members, their closure, is known.  An
    enumeration keeps only generators outside the closure of the kept
    ones before: each at least doubles the order, so at most 7 stay."""

    def __init__(self, degree, generators, members=None):
        self.degree = degree
        gens, closed = [], members or {identity_perm(degree)}
        for g in map(tuple, generators):
            if members is None and g in closed:
                continue
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise GroupError("not a permutation of 0..%d" % (degree - 1))
            gens.append(g)
            if members is None:
                closed = _closure(degree, gens)
        self.generators = tuple(gens) if gens else (identity_perm(degree),)
        self.elements = tuple(sorted(closed))

    @property
    def order(self):
        return len(self.elements)

    @property
    def identity(self):
        return identity_perm(self.degree)

    def __repr__(self):
        return "FiniteGroup(order=%d, degree=%d)" % (self.order, self.degree)


def cyclic_group(m):
    if m < 1:
        raise GroupError("order must be >= 1")
    return FiniteGroup(m, [tuple((i + 1) % m for i in range(m))])


def dihedral_group(m):
    """Symmetries of the m-gon, order 2m."""
    if m < 3:
        raise GroupError("need m >= 3")
    rot = tuple((i + 1) % m for i in range(m))
    ref = tuple((m - i) % m for i in range(m))
    return FiniteGroup(m, [rot, ref])


def symmetric_group(m):
    if m < 1:
        raise GroupError("degree must be >= 1")
    if m == 1:
        return FiniteGroup(1, [])
    cyc = tuple((i + 1) % m for i in range(m))
    swap = tuple([1, 0] + list(range(2, m)))
    return FiniteGroup(m, [swap, cyc])


def alternating_group(m):
    if m < 3:
        raise GroupError("need m >= 3")
    three = tuple([1, 2, 0] + list(range(3, m)))
    if m % 2 == 1:
        big = tuple((i + 1) % m for i in range(m))
    else:
        # (m-1)-cycle on 1..m-1, fixing 0: even
        big = tuple([0] + [(i % (m - 1)) + 1 for i in range(1, m)])
    return FiniteGroup(m, [three, big])


_QUNITS = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]


def _qmul(a, b):
    sa, xa = (a.startswith("-"), a.lstrip("-"))
    sb, xb = (b.startswith("-"), b.lstrip("-"))
    table = {
        ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
        ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }
    out = table[(xa, xb)]
    if sa != sb:
        out = out[1:] if out.startswith("-") else "-" + out
    return out


def quaternion_group():
    """The eight quaternion units acting on themselves by left
    translation."""
    idx = {u: n for n, u in enumerate(_QUNITS)}

    def left(u):
        return tuple(idx[_qmul(u, v)] for v in _QUNITS)

    g = FiniteGroup(8, [left("i"), left("j")])
    if g.order != 8:
        raise GroupError("quaternion construction came out wrong")
    return g


# ---------------------------------------------------------------------------
# Sylow subgroups and normal p-complements


def _p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def sylow_subgroup(G, p, seed=0):
    """A Sylow p-subgroup, grown greedily.

    Starting from the trivial subgroup, adjoin p-power-order elements
    whenever the enlarged closure is still a p-group.  A proper
    p-subgroup always extends inside its normalizer (the quotient has
    an element of order p, and P<g> is then a p-group), so repeated
    passes over the candidates reach the full p-part.
    """
    if not is_prime(p):
        raise GroupError("p must be prime")
    target = _p_part(G.order, p)
    candidates = [
        g for g in G.elements if g != G.identity and _is_p_power(perm_order(g), p)
    ]
    rng = random.Random(seed)
    rng.shuffle(candidates)
    # current is the closure of the accepted generators
    accepted, current = [], {G.identity}
    while len(current) < target:
        progressed = False
        for g in candidates:
            if g in current:
                continue
            try:
                trial = _closure(G.degree, accepted + [g], cap=target)
            except GroupError:
                continue
            if _is_p_power(len(trial), p):
                accepted.append(g)
                current = trial
                progressed = True
                if len(current) == target:
                    break
        if not progressed:
            raise GroupError("greedy Sylow growth stalled; should not happen")
    return FiniteGroup(G.degree, accepted, current)


@dataclass(frozen=True)
class ComplementReport:
    p: int
    exists: bool
    candidate_order: int
    expected_order: int  # the p'-part of |G|
    subgroup: FiniteGroup

    def __str__(self):
        if self.exists:
            return "normal p-complement of order %d" % self.candidate_order
        return (
            "no normal p-complement: p'-elements generate order %d, need %d"
            % (self.candidate_order, self.expected_order)
        )


def has_normal_p_complement(G, p):
    """Decide existence of a normal p-complement; the subgroup
    generated by the p'-order elements is returned either way.

    When it exists its index is a p-power by arithmetic: |N0| = m, the
    p'-part |G| / _p_part(|G|), so the index is _p_part(|G|), a power
    of p by that function's loop."""
    if not is_prime(p):
        raise GroupError("p must be prime")
    m = G.order // _p_part(G.order, p)
    gens, members = [], {G.identity}
    for g in G.elements:
        if g not in members and math.gcd(perm_order(g), p) == 1:
            gens.append(g)
            members = _closure(G.degree, gens)
    # generated by a conjugation-closed set, so always normal; check anyway
    for g in G.generators:
        ginv = inverse(g)  # g x g^-1 sends i to g[x[g^-1[i]]]
        for x in members:
            if tuple([g[x[i]] for i in ginv]) not in members:
                raise GroupError("complement candidate is not normal")
    n0 = FiniteGroup(G.degree, gens, members)
    exists = n0.order == m
    return ComplementReport(
        p=p,
        exists=exists,
        candidate_order=n0.order,
        expected_order=m,
        subgroup=n0,
    )


# ---------------------------------------------------------------------------
# conjugation action on F_p[G]


@dataclass(frozen=True)
class ConjugationReport:
    p: int
    nilpotent: bool
    chain_dims: tuple  # dim M_0, dim M_1, ... until 0 or stable
    stable_dim: int  # 0 when nilpotent
    stable_basis: tuple  # rref rows over F_p in group-element coordinates

    def __str__(self):
        verdict = "nilpotent" if self.nilpotent else "not nilpotent"
        return "conjugation action %s, chain %s" % (
            verdict,
            " > ".join(str(d) for d in self.chain_dims),
        )


def _conjugation_classes(G):
    """Conjugation by each generator as an index permutation of
    G.elements (row k sends x_i to x_conj[k, i]), and the conjugacy
    classes as the orbits of those permutations: ascending index lists,
    in the order of their least index."""
    pos = {x: i for i, x in enumerate(G.elements)}
    conj = []
    for g in G.generators:
        ginv = inverse(g)  # g x g^-1 sends i to g[x[g^-1[i]]]
        conj.append([pos[tuple([g[x[i]] for i in ginv])] for x in G.elements])
    classes, seen = [], set()
    for start in range(G.order):
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        for i in orbit:
            for perm in conj:
                if perm[i] not in seen:
                    seen.add(perm[i])
                    orbit.append(perm[i])
        classes.append(sorted(orbit))
    return np.array(conj, dtype=np.int64), classes


def conjugation_nilpotent(G, p):
    """Iterate M_(i+1) = span{g.v - v : v in M_i} for the conjugation
    action of G on F_p[G].

    The spanning set ranges over the generators g of G only, which gives
    the same M_(i+1) as every element would: each M_i is G-stable, and
    for stable M the identity (w - 1)v = (g - 1)(rest . v) + (rest - 1)v,
    applied along a generator word for w, rewrites any (w - 1)M inside
    sum over generators of (g - 1)M.

    F_p[G] is the permutation module on G, so it is the direct sum of
    the permutation modules F_p[C] on the conjugacy classes C.  Each
    g - 1 maps F_p[C] into itself, so each M_i is the direct sum of its
    blocks M_i(C) in F_p[C], each iterated on its own.  The classes are
    the orbits of the generators' conjugations, each computed once.

      * M_1(C) is the sum-zero subspace of F_p[C], with rref rows
        e_i - e_last.  Each gx - x sums to zero, and the differences
        gx - x over the generators g and the x in C are the edges of
        the generators' Schreier graph on the orbit C, which is
        connected, so they span every e_x - e_last.  A class of size 1
        gives 0, so an abelian group gives the chain (n, 0).
      * From M_2 on, each block row-reduces its (|gens| dim, |C|)
        stack, all blocks in the same round.  M_(i+1)(C) <= M_i(C)
        (checked as descent), so block dimensions never increase, and
        the chain is stable once the summed dimension stops falling:
        then no block's fell.  A block whose own dimension did not fall
        is stable already, so later rounds carry it as it stands.
      * Block rows sit on disjoint supports, each class in ascending
        element order, so a block's pivots stay its leading entries and
        no other row touches them: sorted by pivot, the rows of all
        blocks are the unique rref of the direct sum.

    Returns nilpotent=True when the chain reaches zero; otherwise the
    first stable nonzero submodule, each block checked to be invariant
    under every generator's conjugation.  A p at or past artin.P_LIMIT
    raises artin.AlgebraError: the F_p products would leave int64.
    """
    artin.check_exact(p)
    if not is_prime(p):
        raise GroupError("p must be prime")
    n = G.order
    conj, classes = _conjugation_classes(G)
    dims = [n, n - len(classes)]
    classes = [cls for cls in classes if len(cls) > 1]  # M_1 is 0 on the rest
    place = np.empty(n, dtype=np.int64)  # an element's index in its class
    bases = []
    for cls in classes:
        place[cls] = range(len(cls))
        rows = np.eye(len(cls) - 1, len(cls), dtype=np.int64)
        rows[:, -1] = p - 1
        bases.append((rows, list(range(len(cls) - 1))))
    # per class: read[k, j] is the local index that conjugation by the
    # k-th generator moves to j, so g.v = v[:, read[k]]
    back = np.argsort(conj, axis=1)
    reads = [place[back[:, cls]] for cls in classes]
    falling = [True] * len(classes)
    while dims[-1]:
        for b, (rows, pivots) in enumerate(bases):
            if not falling[b]:
                continue
            moved = rows[:, reads[b]] - rows[:, None, :]
            red, piv = artin.rref(moved.reshape(-1, rows.shape[1]) % p, p)
            if artin.residual(red, rows, pivots, p).any():
                raise GroupError("conjugation chain failed to descend")
            bases[b] = (red, piv)
            falling[b] = 0 < len(red) < len(rows)
        total = sum(len(rows) for rows, _ in bases)
        if total == dims[-1]:
            for (rows, pivots), read in zip(bases, reads):
                moved = rows[:, read].reshape(-1, rows.shape[1])
                if artin.residual(moved, rows, pivots, p).any():
                    raise GroupError("stable submodule is not G-invariant")
            full = np.zeros((total, n), dtype=np.int64)
            leads, at = [], 0
            for cls, (rows, pivots) in zip(classes, bases):
                full[at:at + len(rows), cls] = rows
                leads += [cls[c] for c in pivots]
                at += len(rows)
            stable = full[np.argsort(leads)]
            return ConjugationReport(
                p=p,
                nilpotent=False,
                chain_dims=tuple(dims),
                stable_dim=total,
                stable_basis=tuple(map(tuple, stable.tolist())),
            )
        dims.append(total)
    return ConjugationReport(
        p=p,
        nilpotent=True,
        chain_dims=tuple(dims),
        stable_dim=0,
        stable_basis=(),
    )
