"""Finite dimensional graded-commutative algebras over prime fields.

Everything here is an explicit linear-algebra model: an algebra is a
structure tensor over F_p together with an augmentation, and a module
is a collection of action matrices.  The point of the module is the
local Artinian package: radical, socle series, Nakayama-style zero
detection, and Betti numbers of the residue field computed from an
explicit minimal free resolution.

Only prime fields are supported.  The structure constants are kept as
small numpy integer arrays and every product is reduced mod p on the
spot, so all results are exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from .coeff import _is_prime

__all__ = [
    "AlgebraError",
    "FinAlgebra",
    "FinModule",
    "SocleSeries",
    "field_algebra",
    "truncated_polynomial_algebra",
    "tensor_algebra",
    "regular_module",
    "free_module",
    "spanned_submodule",
    "random_spanned_module",
    "radical_basis",
    "nilpotency_exponent",
    "socle_series",
    "nakayama_check",
    "minimal_free_resolution",
    "betti_numbers",
    "rref",
    "null_space",
]


class AlgebraError(Exception):
    """Structure tensor fails a required identity, or a computation
    detects an internally inconsistent state."""


# ---------------------------------------------------------------------------
# F_p linear algebra helpers.  Vectors are 1-d int64 arrays, subspaces are
# stored as full row-reduced row bases.


def rref(rows, p):
    """Row-reduce over F_p.

    Returns (reduced, pivots) where reduced contains only the nonzero
    rows, each with leading entry 1 and zeros above and below it.
    """
    a = np.array(rows, dtype=np.int64) % p
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.size == 0:
        return np.zeros((0, a.shape[1] if a.ndim == 2 else 0), dtype=np.int64), []
    nrows, ncols = a.shape
    r = 0
    pivots = []
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if a[i, c]:
                pr = i
                break
        if pr is None:
            continue
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        inv = pow(int(a[r, c]), -1, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a[:r], pivots


def row_space(rows, p):
    """Canonical basis (rref rows) of the span of the given rows."""
    red, _ = rref(rows, p)
    return red


def in_row_space(vec, reduced, pivots, p):
    """Membership test against an rref basis."""
    v = np.asarray(vec, dtype=np.int64) % p
    for i, c in enumerate(pivots):
        if v[c]:
            v = (v - v[c] * reduced[i]) % p
    return not v.any()


def coords_in_rref(vec, reduced, pivots, p):
    """Coordinates of vec in the rref basis; raises if not in the span."""
    v = np.asarray(vec, dtype=np.int64) % p
    coeffs = np.zeros(len(pivots), dtype=np.int64)
    for i, c in enumerate(pivots):
        if v[c]:
            coeffs[i] = v[c]
            v = (v - v[c] * reduced[i]) % p
    if v.any():
        raise AlgebraError("vector not in the given span")
    return coeffs


def null_space(mat, p):
    """Basis of {x : mat @ x = 0 mod p}, as a list of int64 vectors."""
    a = np.array(mat, dtype=np.int64) % p
    if a.ndim == 1:
        a = a.reshape(1, -1)
    ncols = a.shape[1]
    red, pivots = rref(a, p)
    pivset = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivset:
            continue
        v = np.zeros(ncols, dtype=np.int64)
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = (-int(red[i, f])) % p
        basis.append(v)
    return basis


def quotient_map(reduced, pivots, n, p):
    """Matrix of the projection F_p^n -> F_p^n / span(reduced).

    Coordinates on the quotient are the non-pivot positions of the
    reduction of a vector by the rref rows.
    """
    # t maps v (column) to its reduction v - sum_i v[c_i] * reduced[i]
    t = np.eye(n, dtype=np.int64)
    for i, c in enumerate(pivots):
        t[:, c] -= reduced[i]
    # After reduction every pivot coordinate vanishes, so the quotient
    # coordinates live at the non-pivot positions.
    pivset = set(pivots)
    nonpiv = [c for c in range(n) if c not in pivset]
    return t[nonpiv, :] % p


# ---------------------------------------------------------------------------


class FinAlgebra:
    """Finite dimensional graded-commutative augmented F_p-algebra.

    table[i, j, k] is the e_k coefficient of e_i * e_j.  The basis
    element with index 0 must be the unit unless an explicit unit
    vector is supplied.  Construction validates associativity (fully
    for dim <= 14, on a seeded sample otherwise), graded commutativity
    with Koszul signs, that the augmentation is an algebra map, parity
    additivity, and that the augmentation kernel is nilpotent.  A
    non-nilpotent kernel means the algebra is not local in the sense
    used here and is rejected.
    """

    def __init__(self, p, labels, parities, table, aug, unit=None, seed=0):
        if not _is_prime(p):
            raise AlgebraError("p must be prime")
        self.p = int(p)
        self.labels = tuple(str(s) for s in labels)
        self.dim = len(self.labels)
        if self.dim == 0:
            raise AlgebraError("algebra must be nonzero")
        self.parities = tuple(int(x) % 2 for x in parities)
        if len(self.parities) != self.dim:
            raise AlgebraError("parity list has wrong length")
        self.table = np.array(table, dtype=np.int64) % p
        if self.table.shape != (self.dim, self.dim, self.dim):
            raise AlgebraError("structure tensor has wrong shape")
        self.aug = np.array(aug, dtype=np.int64) % p
        if self.aug.shape != (self.dim,):
            raise AlgebraError("augmentation vector has wrong length")
        if unit is None:
            unit = np.zeros(self.dim, dtype=np.int64)
            unit[0] = 1
        self.unit = np.array(unit, dtype=np.int64) % p
        self._radical = None
        self._nilpotency = None
        self._validate(seed)

    # -- arithmetic on coefficient vectors

    def mul(self, x, y):
        x = np.asarray(x, dtype=np.int64) % self.p
        y = np.asarray(y, dtype=np.int64) % self.p
        return np.einsum("i,j,ijk->k", x, y, self.table) % self.p

    def aug_of(self, x):
        return int(np.dot(np.asarray(x, dtype=np.int64) % self.p, self.aug) % self.p)

    # -- validation

    def _validate(self, seed):
        p, d, tbl = self.p, self.dim, self.table
        # unit
        for j in range(d):
            ej = np.zeros(d, dtype=np.int64)
            ej[j] = 1
            if not np.array_equal(self.mul(self.unit, ej), ej):
                raise AlgebraError("unit fails on basis element %d" % j)
            if not np.array_equal(self.mul(ej, self.unit), ej):
                raise AlgebraError("unit fails on basis element %d" % j)
        # parity additivity: e_i e_j supported on parity p_i + p_j
        for i in range(d):
            for j in range(d):
                want = (self.parities[i] + self.parities[j]) % 2
                for k in range(d):
                    if tbl[i, j, k] and self.parities[k] != want:
                        raise AlgebraError(
                            "product e_%d e_%d hits wrong parity at e_%d" % (i, j, k)
                        )
        # graded commutativity with Koszul sign
        for i in range(d):
            for j in range(i, d):
                sign = -1 if self.parities[i] and self.parities[j] else 1
                if not np.array_equal(tbl[i, j], (sign * tbl[j, i]) % p):
                    raise AlgebraError("graded commutativity fails at (%d,%d)" % (i, j))
        # associativity: full check is cubic in dim, sample when large
        if d <= 14:
            triples = itertools.product(range(d), repeat=3)
        else:
            rng = random.Random(seed)
            triples = [
                (rng.randrange(d), rng.randrange(d), rng.randrange(d))
                for _ in range(300)
            ]
        basis = np.eye(d, dtype=np.int64)
        for i, j, k in triples:
            lhs = self.mul(self.mul(basis[i], basis[j]), basis[k])
            rhs = self.mul(basis[i], self.mul(basis[j], basis[k]))
            if not np.array_equal(lhs, rhs):
                raise AlgebraError("associativity fails at (%d,%d,%d)" % (i, j, k))
        # augmentation is an algebra map
        if self.aug_of(self.unit) != 1:
            raise AlgebraError("augmentation of the unit is not 1")
        for i in range(d):
            for j in range(d):
                ei = basis[i]
                ej = basis[j]
                if self.aug_of(self.mul(ei, ej)) != (
                    self.aug_of(ei) * self.aug_of(ej)
                ) % p:
                    raise AlgebraError("augmentation is not multiplicative")
        # odd elements must be in the kernel of the augmentation
        for i in range(d):
            if self.parities[i] and self.aug[i]:
                raise AlgebraError("augmentation does not vanish on odd part")
        # ker(aug) must be nilpotent, otherwise not local in our sense
        self._check_radical_nilpotent()

    def _check_radical_nilpotent(self):
        rad = radical_basis(self)
        cur = row_space(rad, self.p) if len(rad) else np.zeros((0, self.dim), np.int64)
        e = 1
        while cur.shape[0] > 0:
            nxt_rows = []
            for v in cur:
                for w in rad:
                    nxt_rows.append(self.mul(v, w))
            nxt = row_space(nxt_rows, self.p) if nxt_rows else np.zeros(
                (0, self.dim), np.int64
            )
            # powers of a nilpotent ideal shrink strictly until they die
            if nxt.shape[0] >= cur.shape[0]:
                raise AlgebraError("augmentation kernel is not nilpotent")
            cur = nxt
            e += 1
        self._nilpotency = e

    def describe(self):
        return "F_%d-algebra of dimension %d" % (self.p, self.dim)

    def __repr__(self):
        return "FinAlgebra(p=%d, dim=%d)" % (self.p, self.dim)


def radical_basis(alg):
    """Basis of ker(augmentation) as a list of vectors.

    For an augmented algebra over a field this is the Jacobson radical
    whenever the kernel is nilpotent, which construction guarantees.
    """
    if alg._radical is not None:
        return alg._radical
    rows = []
    for i in range(alg.dim):
        v = np.zeros(alg.dim, dtype=np.int64)
        v[i] = 1
        a = alg.aug_of(v)
        if a == 0:
            rows.append(v)
        else:
            # e_i - aug(e_i) * unit lies in the kernel
            rows.append((v - a * alg.unit) % alg.p)
    red, _ = rref(rows, alg.p)
    alg._radical = [red[i] for i in range(red.shape[0])]
    return alg._radical


def nilpotency_exponent(alg):
    """Least e with J^e = 0; J = ker(augmentation)."""
    if alg._nilpotency is None:
        alg._check_radical_nilpotent()
    return alg._nilpotency


# -- constructors


def field_algebra(p):
    """F_p itself."""
    return FinAlgebra(
        p, ("1",), (0,), np.ones((1, 1, 1), dtype=np.int64), (1,)
    )


def truncated_polynomial_algebra(p, m):
    """F_p[y]/(y^m), basis 1, y, ..., y^(m-1), everything in parity 0."""
    if m < 1:
        raise AlgebraError("m must be >= 1")
    table = np.zeros((m, m, m), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            if i + j < m:
                table[i, j, i + j] = 1
    labels = tuple("1" if i == 0 else ("y" if i == 1 else "y^%d" % i) for i in range(m))
    aug = np.zeros(m, dtype=np.int64)
    aug[0] = 1
    return FinAlgebra(p, labels, (0,) * m, table, aug)


def tensor_algebra(a, b):
    """Graded tensor product with the Koszul sign rule.

    (x (x) y) * (x' (x) y') = (-1)^(|y||x'|) (xx') (x) (yy').
    """
    if a.p != b.p:
        raise AlgebraError("tensor factors live over different primes")
    p = a.p
    da, db = a.dim, b.dim
    d = da * db
    idx = lambda i, j: i * db + j
    table = np.zeros((d, d, d), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(da), range(db), range(da), range(db)):
        sign = -1 if b.parities[j1] and a.parities[i2] else 1
        left = a.table[i1, i2]
        right = b.table[j1, j2]
        block = np.outer(left, right).reshape(-1)
        table[idx(i1, j1), idx(i2, j2)] = (sign * block) % p
    labels = tuple(
        "%s*%s" % (a.labels[i], b.labels[j])
        for i in range(da)
        for j in range(db)
    )
    parities = tuple(
        (a.parities[i] + b.parities[j]) % 2 for i in range(da) for j in range(db)
    )
    aug = np.outer(a.aug, b.aug).reshape(-1) % p
    unit = np.outer(a.unit, b.unit).reshape(-1) % p
    return FinAlgebra(p, labels, parities, table, aug, unit=unit)


# ---------------------------------------------------------------------------


class FinModule:
    """Left module over a FinAlgebra given by explicit action matrices.

    act[i] is the matrix of the action of basis element e_i; the unit
    must act as the identity and the action must be compatible with
    the structure tensor.
    """

    def __init__(self, algebra, act, labels=None):
        self.algebra = algebra
        self.act = np.array(act, dtype=np.int64) % algebra.p
        if self.act.ndim != 3 or self.act.shape[0] != algebra.dim:
            raise AlgebraError("need one action matrix per algebra basis element")
        if self.act.shape[1] != self.act.shape[2]:
            raise AlgebraError("action matrices must be square")
        self.dim = self.act.shape[1]
        self.labels = tuple(labels) if labels is not None else tuple(
            "m%d" % i for i in range(self.dim)
        )
        self._validate()

    def _validate(self):
        p = self.algebra.p
        unit_mat = np.tensordot(self.algebra.unit, self.act, axes=(0, 0)) % p
        if not np.array_equal(unit_mat, np.eye(self.dim, dtype=np.int64)):
            raise AlgebraError("unit does not act as identity")
        # compatibility: act(e_i e_j) == act(e_i) act(e_j)
        lhs = np.einsum("ijk,kab->ijab", self.algebra.table, self.act) % p
        rhs = np.einsum("iab,jbc->ijac", self.act, self.act) % p
        if not np.array_equal(lhs, rhs):
            raise AlgebraError("action is not compatible with the product")

    def act_vec(self, a, v):
        """a.v for an algebra vector a and module vector v."""
        mat = np.tensordot(np.asarray(a, np.int64) % self.algebra.p, self.act, axes=(0, 0))
        return (mat % self.algebra.p) @ (np.asarray(v, np.int64) % self.algebra.p) % self.algebra.p


def _free_action_blocks(alg, rank):
    """Left multiplication matrices for A^rank, one per algebra basis elt."""
    # the regular action: act[i][:, j] must be e_i * e_j = table[i, j, :]
    reg = np.transpose(alg.table, (0, 2, 1)) % alg.p
    out = np.zeros((alg.dim, rank * alg.dim, rank * alg.dim), dtype=np.int64)
    for i in range(alg.dim):
        for b in range(rank):
            s = b * alg.dim
            out[i, s : s + alg.dim, s : s + alg.dim] = reg[i]
    return out


def _span_closure(acts, rows, p):
    """Closure of the row span under the action matrices acts.

    Returns (reduced, pivots), the rref basis of the smallest
    acts-stable subspace containing rows.
    """
    cur, piv = rref(rows, p)
    while True:
        new_rows = list(cur)
        for a in acts:
            for v in cur:
                new_rows.append(a @ v % p)
        nxt, piv = rref(new_rows, p)
        if nxt.shape[0] == cur.shape[0]:
            return nxt, piv
        cur = nxt


def regular_module(alg):
    """The algebra as a left module over itself."""
    return FinModule(alg, _free_action_blocks(alg, 1), labels=alg.labels)


def free_module(alg, rank):
    """A^rank with the block-diagonal action."""
    labels = tuple(
        "%s#%d" % (alg.labels[i], b) for b in range(rank) for i in range(alg.dim)
    )
    return FinModule(alg, _free_action_blocks(alg, rank), labels=labels)


def spanned_submodule(module, vectors):
    """Smallest submodule containing the given vectors.

    Returns (submodule, basis_rows) where basis_rows expresses the new
    module's basis inside the ambient one.
    """
    p = module.algebra.p
    rows = [np.asarray(v, np.int64) % p for v in vectors]
    if not rows:
        rows = [np.zeros(module.dim, np.int64)]
    red, pivots = _span_closure(module.act, rows, p)
    r = red.shape[0]
    if r == 0:
        # zero module
        act = np.zeros((module.algebra.dim, 0, 0), dtype=np.int64)
        return FinModule(module.algebra, act), red
    act = np.zeros((module.algebra.dim, r, r), dtype=np.int64)
    for i in range(module.algebra.dim):
        for j in range(r):
            w = module.act[i] @ red[j] % p
            act[i][:, j] = coords_in_rref(w, red, pivots, p)
    sub = FinModule(module.algebra, act)
    return sub, red


def random_spanned_module(alg, rng, free_rank=2, n_vectors=2):
    """Submodule of A^free_rank spanned by random vectors; used by the
    randomized Nakayama checks."""
    free = free_module(alg, free_rank)
    vecs = []
    for _ in range(n_vectors):
        vecs.append(
            np.array([rng.randrange(alg.p) for _ in range(free.dim)], dtype=np.int64)
        )
    sub, _ = spanned_submodule(free, vecs)
    return sub


# ---------------------------------------------------------------------------
# socle series and Nakayama


@dataclass(frozen=True)
class SocleSeries:
    """dims[k-1] = dim soc^k M for k = 1..k0; k0 is the first index
    with soc^k M = M and e bounds it from above."""

    dims: tuple
    k0: int
    e: int


def socle_series(module):
    """Socle filtration soc^k M = {x : J^k x = 0}, as the dimensions of
    the stages socle_series_bases computes and certifies."""
    stages = socle_series_bases(module)
    return SocleSeries(
        dims=tuple(red.shape[0] for red in stages),
        k0=len(stages),
        e=nilpotency_exponent(module.algebra),
    )


def socle_series_bases(module):
    """The rref basis of soc^k M for k = 1..k0.

    Verifies strict growth up to k0, the containment J soc^(k+1) in
    soc^k, and termination at k0 <= e.  Violations raise AlgebraError
    since they can only come from a broken action.
    """
    alg = module.algebra
    p = alg.p
    rad = radical_basis(alg)
    rad_mats = [np.tensordot(g, module.act, axes=(0, 0)) % p for g in rad]
    e = nilpotency_exponent(alg)
    stages = []
    prev_red = np.zeros((0, module.dim), dtype=np.int64)
    prev_piv = []
    while prev_red.shape[0] < module.dim:
        if len(stages) == e:
            raise AlgebraError("socle series fails to terminate by J-nilpotency")
        q = quotient_map(prev_red, prev_piv, module.dim, p)
        if rad_mats:
            stacked = np.vstack([q @ m % p for m in rad_mats])
        else:
            stacked = np.zeros((0, module.dim), dtype=np.int64)
        kern = null_space(stacked, p)
        red, piv = rref(kern if kern else np.zeros((0, module.dim), np.int64), p)
        if red.shape[0] <= prev_red.shape[0]:
            raise AlgebraError("socle series is not strictly increasing")
        # J soc^k must land in soc^(k-1)
        for g in rad_mats:
            for v in red:
                if not in_row_space(g @ v % p, prev_red, prev_piv, p):
                    raise AlgebraError("J soc^k escapes soc^(k-1)")
        stages.append(red)
        prev_red, prev_piv = red, piv
    return stages


def nakayama_check(module):
    """Returns (dim M / JM, dim M).

    If M is nonzero but M/JM vanishes the algebra or action is broken;
    that situation raises instead of returning.
    """
    alg = module.algebra
    p = alg.p
    if module.dim == 0:
        return (0, 0)
    rad = radical_basis(alg)
    rows = []
    for g in rad:
        mat = np.tensordot(g, module.act, axes=(0, 0)) % p
        for j in range(module.dim):
            rows.append(mat[:, j])
    jm = row_space(rows, p) if rows else np.zeros((0, module.dim), np.int64)
    top = module.dim - jm.shape[0]
    if top == 0 and module.dim > 0:
        raise AlgebraError("Nakayama violation: JM = M for nonzero M")
    return (top, module.dim)


# ---------------------------------------------------------------------------
# minimal free resolutions of the residue field


def minimal_free_resolution(alg, s_max, shuffle_seed=0):
    """Betti numbers b_0..b_(s_max) of the residue field F_p over alg.

    Builds the resolution one syzygy module at a time: generators are
    lifted from K/JK, the next kernel is computed by exact F_p linear
    algebra, and minimality is certified by checking that every kernel
    element has all its generator coordinates inside the radical.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    p = alg.p
    rng = random.Random(shuffle_seed)
    rad = radical_basis(alg)
    betti = [1]
    # K ⊆ A^rank, the first syzygy of F_p is the radical inside A^1
    rank = 1
    acts = _free_action_blocks(alg, rank)
    k_rows = row_space(rad, p)
    for _ in range(s_max):
        if k_rows.shape[0] == 0:
            # resolution terminated; only happens for the field itself
            betti.append(0)
            continue
        # JK
        jk_rows = []
        for g in rad:
            mat = np.zeros((rank * alg.dim, rank * alg.dim), dtype=np.int64)
            for i in range(alg.dim):
                mat = (mat + int(g[i]) * acts[i]) % p
            for v in k_rows:
                jk_rows.append(mat @ v % p)
        jk_red, jk_piv = rref(
            jk_rows if jk_rows else np.zeros((0, rank * alg.dim), np.int64), p
        )
        # minimal generators: extend JK to K, order shuffled for lift
        # independence
        candidates = list(range(k_rows.shape[0]))
        rng.shuffle(candidates)
        gens = []
        cur_red, cur_piv = jk_red, jk_piv
        for ci in candidates:
            v = k_rows[ci]
            if not in_row_space(v, cur_red, cur_piv, p):
                gens.append(v)
                cur_red, cur_piv = rref(np.vstack([cur_red, v.reshape(1, -1)]), p)
        b = len(gens)
        betti.append(b)
        # map A^b -> A^rank sending the i-th free generator to gens[i];
        # the column for basis slot (gi, j) is e_j . gens[gi]
        ncols = b * alg.dim
        big = np.zeros((rank * alg.dim, ncols), dtype=np.int64)
        for gi, gen in enumerate(gens):
            for j in range(alg.dim):
                big[:, gi * alg.dim + j] = acts[j] @ gen % p
        kern = null_space(big, p)
        new_rows = (
            np.array(kern, dtype=np.int64)
            if kern
            else np.zeros((0, ncols), dtype=np.int64)
        )
        # minimality: the kernel must sit inside J . A^b, so every
        # generator coordinate augments to zero
        for v in new_rows:
            for gi in range(b):
                comp = v[gi * alg.dim : (gi + 1) * alg.dim]
                if alg.aug_of(comp) != 0:
                    raise AlgebraError("resolution is not minimal")
        rank = b
        acts = _free_action_blocks(alg, rank)
        if new_rows.shape[0]:
            # the kernel of a module map is a submodule; the closure
            # is a cheap self-check and must not grow the span
            k_rows, _ = _span_closure(acts, new_rows, p)
            if int(k_rows.shape[0]) != int(rref(new_rows, p)[0].shape[0]):
                raise AlgebraError("kernel failed to be a submodule")
        else:
            k_rows = np.zeros((0, b * alg.dim), np.int64)
    return tuple(betti[: s_max + 1])


def betti_numbers(alg, s_max):
    """Betti numbers of the residue field, with a lift-independence
    cross-check: two different generator orderings must agree."""
    first = minimal_free_resolution(alg, s_max, shuffle_seed=0)
    second = minimal_free_resolution(alg, s_max, shuffle_seed=1)
    if first != second:
        raise AlgebraError("Betti numbers depend on the choice of lifts")
    return first
