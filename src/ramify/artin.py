"""Finite dimensional graded-commutative algebras over prime fields.

Everything here is an explicit linear-algebra model: an algebra is a
structure tensor over F_p together with an augmentation, and a module
is the action matrices rho(G) of the generators G of J/J^2, J the
augmentation kernel.  The point of the module is the local Artinian
package: radical, socle series, Nakayama-style zero detection, and
Betti numbers of the residue field computed from an explicit minimal
free resolution.

A table from outside is validated once (validated_algebra).  Every
computation acts by G, not by a basis of J, so its stacks have
|G| dim M rows, not dim J dim M; FinAlgebra proves why.

Only prime fields are supported.  The structure constants are kept as
small numpy integer arrays and every product is reduced mod p on the
spot, so all results are exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeff import is_prime

__all__ = [
    "AlgebraError",
    "FinAlgebra",
    "FinModule",
    "SocleSeries",
    "validated_algebra",
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
    rows, each with leading entry 1 and zeros above and below it: the
    unique rref of the row span, as a (rank, ncols) int64 array.  At
    p = 2 the rows are packed into Python ints (_rref_f2); at odd p a
    column loop reduces the int64 array in place.

    At odd p, the pivot for column c is the first row with a nonzero in
    column c that holds no pivot yet.  One pivot touches only the cells
    (i, c:) of the rows i with a[i, c] != 0: it scales the pivot row
    when the inverse of its lead is not 1, and subtracts a[i, c] times
    it from every other such row.  Skipping the other cells is exact.  A
    row with a[i, c] = 0 would lose 0 times the pivot row.  Left of c
    the pivot row is zero: a row that holds no pivot is zero in each
    column c' < c, since c' either gave a pivot (its column was cleared
    in every other row) or had no nonzero in such a row at its time; and
    each step subtracts only a multiple of such a row, which keeps those
    zeros.  So the subtraction leaves columns < c alone, and each pivot
    row ends with its leading 1 and zeros at every other pivot column.
    A column zero in every input row (all of them when there are none)
    stays zero under every row operation, so it never holds a pivot and
    is not visited.  A row that holds no pivot ends zero, so the pivot
    rows in column order are the unique rref of the row span, whichever
    cells and columns are skipped.

    At p = 2, bit c of a row's int is column c, so a row's lead is its
    lowest set bit.  The forward pass inserts the rows one at a time: a
    row XORs with the kept row that has its lead until it is zero or
    has a lead no kept row has, and is then kept.  Both rows of an XOR
    are zero below their common lead, which the XOR clears, so the lead
    only moves right and the loop ends; each XOR is invertible within
    the span, so the kept rows span the input, and their leads are
    distinct, so they are independent and in echelon form.  Back
    substitution runs from the rightmost pivot leftwards: the row with
    lead c XORs with each already reduced row whose pivot c' > c is set
    in it.  That row is zero at every pivot column but c' (below c' by
    its lead, the others by induction), so the XOR clears bit c' and
    changes no other pivot column nor anything left of c'.  Each row
    ends with its lead and zeros at every other pivot column: the rref
    of the span, which is unique, so the insertion order does not
    matter.
    """
    a = np.atleast_2d(np.array(rows, dtype=np.int64))
    if p == 2:
        return _rref_f2((a & 1).astype(bool))
    a %= p
    used = [False] * a.shape[0]
    prows, pivots = [], []
    for c in np.flatnonzero(a.any(axis=0)).tolist():
        # the rows with a nonzero in column c; the pivot is the first that holds none yet
        nz = a[:, c].nonzero()[0]
        rows_c = nz.tolist()
        k = 0
        while k < len(rows_c) and used[rows_c[k]]:
            k += 1
        if k == len(rows_c):
            continue
        i = rows_c[k]
        used[i] = True
        piv = a[i, c:]
        inv = pow(int(piv[0]), -1, p)
        if inv != 1:
            piv *= inv
            piv %= p
        if len(rows_c) > 1:
            sub = a[nz, c:]
            step = np.multiply.outer(sub[:, 0], piv)
            step[k] = 0
            sub -= step
            sub %= p
            a[nz, c:] = sub
        prows.append(i)
        pivots.append(c)
        if len(prows) == a.shape[0]:
            break
    return a[prows], pivots


def _rref_f2(a):
    """rref of a bool array over F_2, on rows packed into Python ints
    with bit c as column c (see rref for why it is the rref)."""
    nrows, ncols = a.shape
    nbytes = (ncols + 7) // 8
    packed = np.packbits(a, axis=1, bitorder="little").tobytes()
    lead_row = {}
    for i in range(nrows):
        v = int.from_bytes(packed[i * nbytes:(i + 1) * nbytes], "little")
        while v:
            lead = (v & -v).bit_length() - 1
            w = lead_row.get(lead)
            if w is None:
                lead_row[lead] = v
                break
            v ^= w
    pivots = sorted(lead_row)
    later = 0
    for c in reversed(pivots):
        v = lead_row[c]
        hit = v & later
        while hit:
            low = hit & -hit
            v ^= lead_row[low.bit_length() - 1]
            hit ^= low
        lead_row[c] = v
        later |= 1 << c
    out = b"".join(lead_row[c].to_bytes(nbytes, "little") for c in pivots)
    bits = np.frombuffer(out, dtype=np.uint8).reshape(len(pivots), nbytes)
    red = np.unpackbits(bits, axis=1, count=ncols, bitorder="little")
    return red.astype(np.int64), pivots


def row_space(rows, p):
    """Canonical basis (rref rows) of the span of the given rows."""
    red, _ = rref(rows, p)
    return red


# multiply-adds from which a product runs on float64 BLAS (_matmul_mod)
_FLOAT_MADDS = 1 << 15
_FLOAT_EXACT = 1 << 53


def _matmul_mod(a, b, p, axes=None):
    """a @ b mod p, or for axes = (i, j) axis i of a contracted with
    axis j of b (free axes of a first) as one 2-D @; int64, entries in
    [0, p), zeros at k = 0.  Every F_p product of this module and of
    groups goes through here.

    Each entry of the product is a sum of k products of two residues, k
    the contracted length, so an integer x with 0 <= x <= (p - 1)^2 k.
    Below _FLOAT_MADDS multiply-adds, counted as a.size b.size / k, and
    whenever (p - 1)^2 k >= 2^53, it is the int64 product, exact while
    (p - 1)^2 k < 2^63 (see FinAlgebra).  Otherwise a and b are cast to
    float64 once, in the layout the contraction reads, and multiplied on
    BLAS; for p < P_LIMIT that is every k < 2^21.  Every partial sum is
    an integer in [0, x], below 2^53, so exact in any order of
    summation.  With x = q p + r, 0 <= r < p, x is reduced as
    x - p floor(x / p), which needs no fix-up.  At r = 0 the quotient q
    is exact.  Otherwise x / p lies in (q, q + 1 - 1 / p], and below
    2^53 / p, so its ulp is below 2 / p and the correctly rounded
    quotient is within less than 1 / p of it: at least q, as q is a
    float, and below q + 1, so its floor is q.  Then p q <= x, and
    x - p q = r, are exact.  Float % or fmod is exact too, but about
    ten times slower than this.

    The two paths per call, the float64 one with its casts and this
    reduction, best of 5, mod 3, in microseconds on a 2-CPU x86-64 host
    with OpenBLAS's default threads (on a loaded host both columns
    rose up to 2x):

        (m, k, n)        multiply-adds    int64   float64
        (16, 16, 16)             4,096      5.8       6.7
        (25, 25, 25)            15,625     14.3       9.2
        (32, 32, 32)            32,768     25.9      10.5
        (64, 64, 64)           262,144    171.0      29.7
        (25, 25, 625)          390,625    305.3      64.4
        (120, 113, 120)      1,627,200  1,029.2     122.2

    Float64 wins from about 10^4 multiply-adds on; the crossover sits
    at 2^15, where it wins by 2x, so the many small products of the
    socle and resolution loops keep their int64 calls.
    """
    k = a.shape[-1 if axes is None else axes[0]]
    if axes is not None:
        i, j = axes
        a = a.transpose([x for x in range(a.ndim) if x != i] + [i])
        b = b.transpose([j] + [x for x in range(b.ndim) if x != j])
        shape = a.shape[:-1] + b.shape[1:]
        a, b = a.reshape(math.prod(a.shape[:-1]), k), b.reshape(k, math.prod(b.shape[1:]))
    if not k or a.size * b.size < k * _FLOAT_MADDS or (p - 1) ** 2 * k >= _FLOAT_EXACT:
        x = a @ b % p
    else:
        x = a.astype(np.float64) @ b.astype(np.float64)
        q = x / p
        np.floor(q, out=q)
        q *= p
        x -= q
        x = x.astype(np.int64)
    return x if axes is None else x.reshape(shape)


def residual(vecs, reduced, pivots, p):
    """What is left of each vector along the last axis of vecs, entries
    in [0, p), after reduction by an rref basis: zero exactly for the
    vectors in its span."""
    v = np.asarray(vecs, dtype=np.int64)
    return (v - _matmul_mod(v[..., pivots], reduced, p)) % p


def coords_in_rref(vecs, reduced, pivots, p):
    """Coordinates in the rref basis of each vector along the last axis
    of vecs: its pivot entries, once the residual against the basis
    vanishes.  Raises if a vector is not in the span."""
    if residual(vecs, reduced, pivots, p).any():
        raise AlgebraError("vector not in the given span")
    return np.asarray(vecs, dtype=np.int64)[..., pivots] % p


def null_space(mat, p):
    """The rref of {x : mat @ x = 0 mod p}, as the rows of a (k, ncols)
    int64 array, from one elimination: that of mat[:, ::-1], whose
    kernel is the kernel of mat read backwards.

    In the reversed columns, with (red, piv) that rref, the kernel has
    one row per free column f': 1 at f' and -red[i, f'] at each pivot
    c_i, nonzero only for c_i < f' as row i is zero left of c_i.  These
    rows are independent (each alone is nonzero at its f'), and there
    are ncols - rank of them, the nullity.  Read back, with f = ncols -
    1 - f' and the rows in increasing f, each row has 1 at its free
    column f and other nonzeros only at pivot columns right of f.  So
    its lead is the 1 at f, and every other row is zero at f: the rows
    are in rref, the unique one of the kernel, and its pivots are the
    free columns in increasing order, each row's first nonzero."""
    a = np.atleast_2d(np.asarray(mat, dtype=np.int64))[:, ::-1]
    red, piv = rref(a, p)
    free = np.delete(np.arange(a.shape[1]), piv)
    basis = np.zeros((free.size, a.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, piv] = -red[:, free].T % p
    return np.ascontiguousarray(basis[::-1, ::-1])


# ---------------------------------------------------------------------------


P_LIMIT = 1 << 16


def check_exact(p):
    """Refuse a p past the bound below which F_p arithmetic here is
    exact in int64 (see FinAlgebra)."""
    if p >= P_LIMIT:
        raise AlgebraError(
            "p = %d is too large: F_p products are exact in int64 only for p < %d"
            % (p, P_LIMIT)
        )


def check_prime(p):
    """Refuse a p that is not a prime below P_LIMIT."""
    check_exact(p)
    if not is_prime(p):
        raise AlgebraError("p must be prime")


class FinAlgebra:
    """Finite dimensional graded-commutative augmented local F_p-algebra,
    held as given; only p, from --p, is checked.  Its constructors
    (validated_algebra, truncated_polynomial_algebra) prove the rest.

    table[i, j, k] is the e_k coefficient of e_i * e_j, e_0 is the unit,
    and nilpotency is the least e with J^e = 0, J the augmentation
    kernel.  The homogeneous rows G of generators lift a basis of
    J/J^2, or are the basis of J, and their right-nested words
    g1 (g2 (... (gk 1))) span A; gen_products[g, j] = G[g] e_j.
    words is a basis of A by such words: word 0 is the unit, and its
    entry j - 1 = (parent, g), parent < j, makes word j the product
    G[g] (word parent).  Only spanned_submodule reads it.

    Every computation acts by G, as J = sum_g gA: a nonempty
    right-nested word is g w for a g in G, so A = F_p 1 + sum_g gA, and
    sum_g gA lies in J = ker(eps) since eps(g a) = eps(g) eps(a) = 0,
    which forces J = sum_g gA.  So JN = sum_g gN for a submodule N (with
    N = J^k in A, J^(k+1) = sum_g g J^k), and a span stable under G is
    a submodule, the words acting as products of the rho(g).

    p must be below P_LIMIT = 2^16.  Every product here is taken by
    _matmul_mod over residues in [0, p) and reduced mod p afterwards.
    Each entry is a sum of k products of two residues, and k is at most
    the dimension of an algebra or module the computation builds.  A
    large product runs on float64 BLAS, exact while (p - 1)^2 k < 2^53,
    so for every k < 2^21; a small one, or one past that bound, runs in
    int64, exact while (p - 1)^2 k < 2^63, so for every k < 2^31.
    check_exact refuses a larger p, whose wrapped int64 sums would give
    wrong answers or a hang.
    """

    def __init__(self, p, labels, parities, table, aug, generators, words, gen_products,
                 nilpotency):
        check_prime(p)
        self.p = int(p)
        self.labels = labels
        self.dim = len(labels)
        self.parities = parities
        self.table = table
        self.aug = aug
        self.generators = generators
        self.words = words
        self.gen_products = gen_products
        self.nilpotency = nilpotency
        self._radical = None

    # -- validation, for validated_algebra

    def _validate(self):
        p, d, tbl = self.p, self.dim, self.table
        par = np.array(self.parities, dtype=np.int64)
        # unit: row j of e_0 * e_j and of e_j * e_0 must be e_j
        eye = np.eye(d, dtype=np.int64)
        bad = np.flatnonzero((tbl[0] != eye).any(axis=1) | (tbl[:, 0] != eye).any(axis=1))
        if bad.size:
            raise AlgebraError("unit fails on basis element %d" % bad[0])
        # parity additivity: e_i e_j supported on parity p_i + p_j
        want = (par[:, None] + par[None, :]) % 2
        bad = np.argwhere((tbl != 0) & (par[None, None, :] != want[:, :, None]))
        if bad.size:
            raise AlgebraError("product e_%d e_%d hits wrong parity at e_%d" % tuple(bad[0]))
        # graded commutativity with Koszul sign
        sign = np.where(np.outer(par, par) == 1, -1, 1)
        swapped = sign[:, :, None] * tbl.transpose(1, 0, 2) % p
        bad = np.argwhere(np.triu((tbl != swapped).any(axis=2)))
        if bad.size:
            raise AlgebraError("graded commutativity fails at (%d,%d)" % tuple(bad[0]))
        # G and its products g e_j, shared by the certificates below,
        # free_module and the resolution
        rad = radical_basis(self)
        self.generators, self.words, self.gen_products, j2 = self._generators(rad)
        self._check_associative(self.gen_products)
        # augmentation is an algebra map
        if self.aug[0] != 1:
            raise AlgebraError("augmentation of the unit is not 1")
        if not np.array_equal(_matmul_mod(tbl, self.aug, p), np.outer(self.aug, self.aug) % p):
            raise AlgebraError("augmentation is not multiplicative")
        # odd elements must be in the kernel of the augmentation
        if ((par == 1) & (self.aug != 0)).any():
            raise AlgebraError("augmentation does not vanish on odd part")
        # ker(aug) must be nilpotent, otherwise not local in our sense
        self._check_radical_nilpotent(rad, j2, self.gen_products)

    def _generators(self, rad):
        """(G, words, gen_products, J^2 in rref): the lifts of a basis of
        J/J^2 and the words a breadth-first search from the unit keeps,
        if those span A; otherwise the basis of J and its words 1, g.
        gen_products[g, j] = G[g] e_j.  Each round keeps, by one
        rref of the transposed stack as in _lift_generators, the
        products g w (w from the last round) outside the span of the
        words and of the products before them.  So g w lies in the span
        of the words for every kept w: the words span a G-stable space."""
        p, d = self.p, self.dim
        # J^2, spanned by the products v w of basis elements of J, and by
        # those with v <= w alone: _validate has certified graded
        # commutativity, and the rows of rad are homogeneous (see
        # validated_algebra), so w v = +-v w
        right = _matmul_mod(rad, self.table, p, axes=(1, 1))  # e_i w
        products = _matmul_mod(rad, right, p, axes=(1, 1))  # [v, w] = v w
        j2, j2_piv = rref(products[np.triu_indices(len(rad))], p)
        # the radical rows whose images in J/J^2, their residuals
        # against J^2, are independent
        _, lifts = rref(residual(rad, j2, j2_piv, p).T, p)
        gens = rad[lifts]
        left = _matmul_mod(gens, self.table, p, axes=(1, 0))
        rows, words, last = np.eye(1, d, dtype=np.int64), [], [0]
        while last:
            # candidate k is G[k % |G|] times the word last[k // |G|]
            cand = _matmul_mod(rows[last], left, p, axes=(1, 1)).reshape(-1, d)
            n = rows.shape[0]
            _, piv = rref(np.vstack([rows, cand]).T, p)
            keep = [c - n for c in piv if c >= n]
            words += [(last[k // len(gens)], k % len(gens)) for k in keep]
            rows = np.vstack([rows, cand[keep]])
            last = list(range(n, rows.shape[0]))
        if rows.shape[0] < d:
            gens, words = rad, [(0, i) for i in range(d - 1)]
            left = _matmul_mod(rad, self.table, p, axes=(1, 0))
        return gens, tuple(words), left, j2

    def _check_associative(self, ge):
        """(g e_j) e_k = g (e_j e_k) for g in the generators and all j,
        k, as one stacked product from ge[g, j] = g e_j;
        validated_algebra proves that this is associativity."""
        p, tbl = self.p, self.table
        lhs = _matmul_mod(ge, tbl, p, axes=(2, 0))
        rhs = _matmul_mod(tbl, ge, p, axes=(2, 1)).transpose(2, 0, 1, 3)
        bad = np.argwhere((lhs != rhs).any(axis=3))
        if bad.size:
            raise AlgebraError(
                "associativity fails at generator %d and (%d,%d)" % tuple(bad[0])
            )

    def _check_radical_nilpotent(self, rad, j2, ge):
        """J^(k+1) = sum_g g J^k (class docstring; associativity,
        commutativity and a multiplicative augmentation are certified
        before this runs), one stacked product of ge[g, j] = g e_j and
        one rref per power from J^3 on; the powers of a nilpotent J
        shrink strictly until they die.  J^2 = J J is the rref j2 that
        _generators reduced, for either G it returns, as it is spanned
        by the products of basis elements of J."""
        p, d = self.p, self.dim
        cur, nxt, e = rad, j2, 1
        while cur.shape[0] > 0:
            if nxt.shape[0] >= cur.shape[0]:
                raise AlgebraError("augmentation kernel is not nilpotent")
            cur, e = nxt, e + 1
            if cur.shape[0]:
                # row (v, g) is g v
                nxt, _ = rref(_matmul_mod(cur, ge, p, axes=(1, 1)).reshape(-1, d), p)
        self.nilpotency = e

    def __repr__(self):
        return "FinAlgebra(p=%d, dim=%d)" % (self.p, self.dim)


def validated_algebra(p, labels, parities, table, aug):
    """The FinAlgebra of a structure tensor from outside, unit e_0, once
    it is checked: e_0 is a two-sided unit, parity additivity, graded
    commutativity with Koszul signs, associativity, an augmentation that
    is an algebra map vanishing on the odd part, and a nilpotent
    augmentation kernel J (else the algebra is not local in our sense).
    G, gen_products and nilpotency are derived on the way.

    Associativity is certified on G, in every dimension, as
    (g e_j) e_k = g (e_j e_k) for g in G and all j, k.  G lifts a basis
    of J/J^2 when their right-nested words span A, and is the basis of
    J otherwise, whose words 1 and g 1 = g span F_p 1 + J = A.  The set
    S = {x : (x y) z = x (y z) for all y, z} is a subspace, holds 1
    (the unit check) and is closed under products: for x, x' in S
        ((x x') y) z = (x (x' y)) z = x ((x' y) z)
                     = x (x' (y z)) = (x x') (y z).
    So S holds every right-nested word in G, and S = A.

    G is homogeneous: J is spanned by the homogeneous e_i - eps(e_i) e_0
    (eps kills the odd part, and e_0 = e_0 e_0 is even by parity
    additivity), and the rref basis of such a span joins those of its
    even and odd parts.
    """
    check_prime(p)
    labels = tuple(str(s) for s in labels)
    d = len(labels)
    if d == 0:
        raise AlgebraError("algebra must be nonzero")
    parities = tuple(int(x) % 2 for x in parities)
    if len(parities) != d:
        raise AlgebraError("parity list has wrong length")
    table = np.array(table, dtype=np.int64) % p
    if table.shape != (d, d, d):
        raise AlgebraError("structure tensor has wrong shape")
    aug = np.array(aug, dtype=np.int64) % p
    if aug.shape != (d,):
        raise AlgebraError("augmentation vector has wrong length")
    # _validate fills in generators, words, gen_products and nilpotency
    alg = FinAlgebra(p, labels, parities, table, aug, None, None, None, None)
    alg._validate()
    return alg


def radical_basis(alg):
    """Basis of ker(augmentation), the rows of an rref array.

    For an augmented algebra over a field this is the Jacobson radical
    whenever the kernel is nilpotent, which construction guarantees.
    """
    if alg._radical is None:
        # e_i - aug(e_i) e_0 lies in the kernel
        rows = np.eye(alg.dim, dtype=np.int64)
        rows[:, 0] -= alg.aug
        alg._radical, _ = rref(rows, alg.p)
    return alg._radical


def nilpotency_exponent(alg):
    """Least e with J^e = 0; J = ker(augmentation)."""
    return alg.nilpotency


# -- constructors


def _truncated_table(m):
    """Structure tensor of F_p[y]/(y^m): table[i, j, i + j] = 1 for i + j < m."""
    i, j = np.nonzero(np.add.outer(np.arange(m), np.arange(m)) < m)
    table = np.zeros((m, m, m), dtype=np.int64)
    table[i, j, i + j] = 1
    return table


def truncated_polynomial_algebra(p, m):
    """F_p[y]/(y^m), basis 1, y, ..., y^(m-1), all in parity 0: a
    quotient of F_p[y], so associative and commutative with unit 1, and
    eps(y) = 0 is the quotient map.  J^k = (y^k) is spanned by y^k, ...,
    y^(m-1), so J/J^2 has the basis y (none at m = 1), whose words y^k
    span A: G = {y}, acting by the shift y e_j = e_(j+1), and
    J^(m-1) != 0 = J^m.  minimal_free_resolution reads the dense table."""
    if m < 1:
        raise AlgebraError("m must be >= 1")
    table = _truncated_table(m)
    labels = tuple("1" if i == 0 else ("y" if i == 1 else "y^%d" % i) for i in range(m))
    aug = np.eye(1, m, dtype=np.int64)[0]
    generators = np.eye(m, dtype=np.int64)[1:2]
    shift = np.eye(m, k=1, dtype=np.int64)[None][: len(generators)]
    words = tuple((j - 1, 0) for j in range(1, m))
    return FinAlgebra(p, labels, (0,) * m, table, aug, generators, words, shift, m)


def tensor_algebra(a, b):
    """Graded tensor product with the Koszul sign rule, checked by
    validated_algebra: (x (x) y) * (x' (x) y') = (-1)^(|y||x'|) (xx') (x) (yy'),
    and e_(i dim b + j) = e_i (x) e_j, so e_0 (x) e_0 is the unit."""
    if a.p != b.p:
        raise AlgebraError("tensor factors live over different primes")
    # sign[j1, i2] = -1 when b's e_j1 and a's e_i2 are both odd
    sign = np.where(np.outer(b.parities, a.parities) == 1, -1, 1)
    table = np.einsum("ikm,jln,jk->ijklmn", a.table, b.table, sign)
    labels = ["%s*%s" % (x, y) for x in a.labels for y in b.labels]
    parities = np.add.outer(a.parities, b.parities).reshape(-1)
    aug = np.outer(a.aug, b.aug).reshape(-1)
    return validated_algebra(a.p, labels, parities, table.reshape((len(labels),) * 3), aug)


# ---------------------------------------------------------------------------


class FinModule:
    """Left module over a certified FinAlgebra, held by rho(G) alone.

    gen_act[g] is the matrix of the action of the algebra's
    generators[g], and dim = gen_act.shape[1].  The right-nested words
    in G span A (see FinAlgebra), so rho(G) fixes the whole action.
    The constructors below build each FinModule from a certified
    algebra, and their actions need no check of their own:
    - On A^rank, x acts on each block by left multiplication, an action
      as A is unital and associative (validated_algebra certifies it on
      G, and truncated_polynomial_algebra is a quotient of F_p[y]).
    - A G-stable span is A-stable (see FinAlgebra), so the restriction
      of an action to it is an action.  spanned_submodule reads the
      restricted rho(g) off coords_in_rref, which raises if the span is
      not G-stable.
    """

    def __init__(self, algebra, gen_act):
        self.algebra = algebra
        self.gen_act = gen_act
        self.dim = gen_act.shape[1]


def _dense_images(acts, p):
    """Images of rows under each action matrix in acts (act[i] acts on
    columns), stacked action by action."""

    def images_of(rows):
        images = _matmul_mod(acts, rows, p, axes=(2, 1)).transpose(0, 2, 1)
        return images.reshape(-1, rows.shape[1])

    return images_of


def _free_images(mult, p):
    """Images of rows of A^rank under left multiplications, stacked
    multiplication by multiplication.  mult[g, j, k] is the e_k
    coefficient of x_g e_j; a row of A^rank is rank blocks of dim A
    coordinates, and x_g acts on each block alone, so no dense
    (rank dim A)^2 action matrix is formed."""
    d = mult.shape[1]

    def images_of(rows):
        blocks = rows.reshape(rows.shape[0], rows.shape[1] // d, d)
        images = _matmul_mod(blocks, mult, p, axes=(2, 1)).transpose(2, 0, 1, 3)
        return images.reshape(-1, rows.shape[1])

    return images_of


def regular_module(alg):
    """The algebra as a left module over itself."""
    return free_module(alg, 1)


def free_module(alg, rank):
    """A^rank, each rho(g) block diagonal: I_rank (x) the left
    multiplication by g, whose column j is g e_j = gen_products[g, j]."""
    eye = np.eye(rank, dtype=np.int64)
    return FinModule(alg, np.kron(eye, alg.gen_products.transpose(0, 2, 1)))


def spanned_submodule(module, vectors):
    """Smallest submodule AV containing the given vectors V.

    Returns (submodule, basis_rows) where basis_rows expresses the new
    module's basis inside the ambient one.

    The span is one rref of the blocks w V for the words w of the
    algebra: block 0 is V, and block j is g (block parent) for word
    j = (parent, g), one product by rho(g) each.  Correctness does not
    rest on the words.  The stack holds V and lies in AV, and
    coords_in_rref raises unless its span is G-stable, a submodule (see
    FinAlgebra); so a span that passes is exactly AV.
    """
    p, rho_g = module.algebra.p, module.gen_act
    blocks = [np.array(vectors, dtype=np.int64).reshape(-1, module.dim) % p]
    for parent, g in module.algebra.words:
        blocks.append(_matmul_mod(blocks[parent], rho_g[g].T, p))
    red, pivots = rref(np.vstack(blocks), p)
    # column j of the restricted rho(g) holds the coordinates of g red[j]
    images = _dense_images(rho_g, p)(red).reshape(rho_g.shape[0], red.shape[0], module.dim)
    gen_act = coords_in_rref(images, red, pivots, p).transpose(0, 2, 1)
    return FinModule(module.algebra, gen_act), red


def random_spanned_module(free, rng):
    """Submodule of a free module spanned by two random vectors; used by
    the randomized Nakayama checks, which build the free module once."""
    p = free.algebra.p
    vecs = [[rng.randrange(p) for _ in range(free.dim)] for _ in range(2)]
    return spanned_submodule(free, vecs)[0]


# ---------------------------------------------------------------------------
# socle series and Nakayama


@dataclass(frozen=True, eq=False)
class SocleSeries:
    """dims[k-1] = dim soc^k M for k = 1..k0; k0 is the first index
    with soc^k M = M and e bounds it from above.  basis is a basis of M
    adapted to the series: its first dims[k-1] rows span soc^k M."""

    dims: tuple
    k0: int
    e: int
    basis: np.ndarray


def socle_series(module):
    """Socle filtration soc^k M = {x : J^k x = 0} and a basis adapted to
    it, on the shrinking quotient Q = M / soc^(k-1), whose socle is
    soc^k / soc^(k-1) (Lux-Mueller-Ringe, J. Symbolic Comput. 1994).

    soc^k = {x : Gx in soc^(k-1)}: for a submodule S and homogeneous g,
    a (FinAlgebra shows G homogeneous), graded commutativity gives
    g(ax) = +-a(gx), so Gx in S gives Jx = sum_g g(Ax) in S.  So soc(Q)
    is the common kernel of the d x d actions A_g induced on Q, held at
    the coordinates F of M that Q keeps.  With (red, piv) the rref of
    soc(Q), as null_space returns it, and f its free columns,
    x -> x[f] - red[:, f]^T x[piv] maps Q onto Q / soc(Q), with the
    section y at f, 0 at piv; so the next action is A_g[f][:, f] -
    red[:, f]^T A_g[piv][:, f], O(d^2 s) for the s new rows, and the
    next F is F[f].  The sections compose to placing at F, so red
    placed at F is block k of the adapted basis B.

    Certified once against rho(G) itself by the rref of [B^T | rho(g) B^T
    for g in G]: its pivots must be its first n columns, so B is
    invertible, and the rest are the B-coordinates of each g b.  With S_k
    the span of blocks 1..k, each stage-k row must map into S_(k-1), so
    S_k lies in soc^k by induction; and the stage-(k-1) coordinates of
    the images of the stage-k rows, stacked over G, must have full row
    rank.  Then S_k = soc^k: a vector outside S_k has a top stage j > k,
    so some g x lies outside S_(j-2), which holds soc^(k-1) = S_(k-1).
    k0 <= e is checked on the way, and catches a stage that does not
    grow too, as it leaves Q as it was; a violation raises AlgebraError,
    as only a broken action gives one.
    """
    p, n, rho_g = module.algebra.p, module.dim, module.gen_act
    e = nilpotency_exponent(module.algebra)
    act, cols, sizes = rho_g, np.arange(n), []
    basis = np.zeros((n, n), dtype=np.int64)
    while cols.size:
        if len(sizes) == e:
            raise AlgebraError("socle series fails to terminate by J-nilpotency")
        red = null_space(act.reshape(-1, cols.size), p)
        piv = (red != 0).argmax(axis=1)  # the leads of an rref
        basis[n - cols.size:][: len(red), cols] = red
        sizes.append(len(red))
        f = np.delete(np.arange(cols.size), piv)
        # the correction changes only the rows where red[:, f] is nonzero
        hit = np.flatnonzero(red[:, f].any(axis=0))
        nxt = act[:, f[:, None], f]
        top = act[:, piv[:, None], f]
        nxt[:, hit] = (nxt[:, hit] - _matmul_mod(red[:, f[hit]].T, top, p)) % p
        act, cols = nxt, cols[f]
    stage = np.repeat(np.arange(len(sizes)), sizes)
    red, piv = rref(np.hstack([basis.T, *_matmul_mod(rho_g, basis.T, p)]), p)
    if piv != list(range(n)):
        raise AlgebraError("adapted socle basis is singular")
    coords = red[:, n:].reshape(n, len(rho_g), n)  # coordinate i of g B[r] at [i, g, r]
    if (coords * (stage[:, None] >= stage)[:, None, :]).any():
        raise AlgebraError("J soc^k escapes soc^(k-1)")
    down = (coords * (stage[:, None] == stage - 1)[:, None, :]).transpose(2, 1, 0)
    if rref(down.reshape(n, n * len(rho_g)), p)[0].shape[0] != np.count_nonzero(stage):
        raise AlgebraError("socle series misses part of soc^k")
    dims = tuple(np.cumsum(sizes).tolist())
    return SocleSeries(dims=dims, k0=len(dims), e=e, basis=basis)


def nakayama_check(module):
    """Returns (dim M / JM, dim M).

    If M is nonzero but M/JM vanishes the algebra or action is broken;
    that situation raises instead of returning.
    """
    if module.dim == 0:
        return (0, 0)
    # JM = sum_g gM (see FinAlgebra): the columns of the matrices of G
    cols = module.gen_act.transpose(0, 2, 1)
    jm = row_space(cols.reshape(-1, module.dim), module.algebra.p)
    top = module.dim - jm.shape[0]
    if top == 0:
        raise AlgebraError("Nakayama violation: JM = M for nonzero M")
    return (top, module.dim)


# ---------------------------------------------------------------------------
# minimal free resolutions of the residue field


def _lift_generators(jk, candidates, p):
    """The candidates outside the span of jk and the candidates before
    them, in order: the rows a greedy extension of JK to K keeps.

    Column c of the stack [jk; candidates]^T is a pivot column of its
    rref exactly when it is not in the span of the columns before it,
    so one rref picks them all."""
    n = jk.shape[0]
    _, piv = rref(np.vstack([jk, candidates]).T, p)
    return candidates[[c - n for c in piv if c >= n]]


def minimal_free_resolution(alg, s_max):
    """Betti numbers b_0..b_(s_max) of the residue field F_p over alg.

    Builds the resolution one syzygy module at a time: generators are
    lifted from K/JK, the next kernel is computed by exact F_p linear
    algebra, and each step is certified exact and minimal, once.

    JK = sum_g gK, as each K is a submodule (checked below), and closure
    under G is closure under A (see FinAlgebra).  Exactness: the map
    A^b -> A^rank sends its free generators to the lifts, rows of the
    submodule K, so its image lies in K, and it is all of K exactly when
    its dimension b dim A - dim ker equals dim K.  Minimality: every
    kernel element has all its generator coordinates inside the radical.
    An exact and minimal resolution is the minimal one, whose ranks do
    not depend on the lifts chosen.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    p = alg.p
    d = alg.dim
    # G and A act on A^rank block by block, for every rank
    gen_images = _free_images(alg.gen_products, p)
    all_images = _free_images(alg.table, p)
    betti = [1]
    # K ⊆ A^rank, the first syzygy of F_p is the radical inside A^1
    rank = 1
    k_rows = radical_basis(alg)
    for _ in range(s_max):
        if k_rows.shape[0] == 0:
            # resolution terminated; only happens for the field itself
            betti.append(0)
            continue
        # minimal generators: extend JK to K
        gens = _lift_generators(gen_images(k_rows), k_rows, p)
        b = gens.shape[0]
        betti.append(b)
        # map A^b -> A^rank sending the i-th free generator to gens[i];
        # the column for basis slot (gi, j) is e_j . gens[gi]
        ncols = b * d
        big = all_images(gens).reshape(d, b, rank * d).transpose(2, 1, 0)
        new_rows = null_space(big.reshape(rank * d, ncols), p)
        # exactness: the image, inside K, has the dimension of K
        if ncols - new_rows.shape[0] != k_rows.shape[0]:
            raise AlgebraError("resolution is not exact")
        # minimality: the kernel must sit inside J . A^b, so every
        # generator coordinate augments to zero
        if _matmul_mod(new_rows.reshape(-1, b, d), alg.aug, p).any():
            raise AlgebraError("resolution is not minimal")
        rank, k_rows = b, new_rows
        # the kernel of a module map is a submodule; a cheap self-check
        # that its span is G-stable
        k_piv = (k_rows != 0).argmax(axis=1)  # the leads of an rref
        if residual(gen_images(k_rows), k_rows, k_piv, p).any():
            raise AlgebraError("kernel failed to be a submodule")
    return tuple(betti[: s_max + 1])
