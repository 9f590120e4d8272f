"""F_p linear algebra, finite local algebras, socles, Betti numbers."""

import ast
import importlib.util
import itertools
import os
import random
import sys

import numpy as np
import pytest

from test_groups import conjugate
from ramify import artin, cli, groups
from ramify.artin import (
    AlgebraError,
    FinAlgebra,
    coords_in_rref,
    free_module,
    minimal_free_resolution,
    nakayama_check,
    nilpotency_exponent,
    null_space,
    radical_basis,
    random_spanned_module,
    regular_module,
    residual,
    row_space,
    rref,
    socle_series,
    spanned_submodule,
    tensor_algebra,
    truncated_polynomial_algebra,
    validated_algebra,
)


# ------------------------------------------------------------- linear algebra


def test_rref_frozen():
    red, piv = rref([[1, 1], [1, 1]], 2)
    assert red.tolist() == [[1, 1]] and piv == [0]
    red, piv = rref([[0, 2], [3, 0]], 5)
    assert red.tolist() == [[1, 0], [0, 1]] and piv == [0, 1]
    red, piv = rref(np.zeros((2, 3), dtype=np.int64), 3)
    assert red.shape == (0, 3) and piv == []


def test_rref_shape_properties_randomized():
    rng = random.Random(17)
    for p in (2, 3, 5):
        for _ in range(25):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
            red, piv = rref(mat, p)
            assert red.shape == (len(piv), n)
            for i, c in enumerate(piv):
                assert red[i, c] == 1
                assert all(red[k, c] == 0 for k in range(len(piv)) if k != i)
                assert all(red[i, cc] == 0 for cc in range(c))
            # original rows lie in the reduced span and vice versa
            for row in mat:
                assert not residual(row, red, piv, p).any()
            orig_red, orig_piv = rref(mat, p)
            for row in red:
                assert not residual(row, orig_red, orig_piv, p).any()


def _rref_oracle(rows, p):
    """The row reduction rref replaced: a full R x C outer-product
    update and a reduction mod p of every cell at every pivot."""
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


def _rref_oracle_inputs(p, rng):
    """Seeded matrices over F_p: tall stacks (R >= 20 C), zero columns,
    all entries p - 1, rank-deficient, single-row and empty ones; widths
    that straddle the bytes and words of rref's packed rows at p = 2,
    sparse shift-and-permutation stacks, a dense 300 x 300 one, and
    unreduced ones with entries below -1 and above p, near the int64
    limits too."""
    mats = []
    for rows, cols in [(20, 1), (60, 3), (200, 8), (400, 12)]:
        mats.append(rng.integers(0, p, (rows, cols)))
        # a tall stack of low rank, through a thin middle factor
        mid = max(1, cols // 3)
        thin = rng.integers(0, p, (rows, mid)) @ rng.integers(0, p, (mid, cols))
        mats.append(thin % p)
    for rows, cols in [(5, 7), (9, 4), (12, 12)]:
        a = rng.integers(0, p, (rows, cols))
        a[:, rng.integers(0, cols, 2)] = 0
        deficient = a.copy()
        deficient[1:] = deficient[0] * rng.integers(0, p, (rows - 1, 1)) % p
        mats += [a, deficient, np.full((rows, cols), p - 1),
                 rng.integers(0, 2, (rows, cols)) * (p - 1), rng.integers(0, p, (1, cols))]
    mats += [np.zeros((0, 5), dtype=np.int64), np.zeros((3, 0), dtype=np.int64),
             np.zeros((4, 6), dtype=np.int64), [[p - 1]], [0, p - 1, 1]]
    # leading all-zero columns, which rref never visits
    mats.append(np.eye(1, 32, 20, dtype=np.int64) * (p - 1))
    for rows, cols, k in [(1, 32, 20), (6, 10, 3), (30, 12, 9), (4, 8, 7)]:
        a = rng.integers(0, p, (rows, cols))
        a[:, :k] = 0
        mats += [a, np.hstack([a[:, k:], a[:, :k]])]
    # widths either side of a byte and of a 64-bit word, with the last
    # column set, dense and at about 1/8 density
    for cols in [1, 7, 8, 9, 63, 64, 65, 129]:
        sparse = rng.integers(1, p, (cols + 3, cols)) * (rng.random((cols + 3, cols)) < 0.125)
        mats += [rng.integers(0, p, (cols + 3, cols)), sparse,
                 np.eye(2, cols, cols - 1, dtype=np.int64) * (p - 1)]
    # shift-and-permutation stacks: (P_g - 1) over the generators g, the
    # (240, 120) first conjugation stack of S5 on F_p[S5], and cyclic shifts
    S5 = groups.symmetric_group(5)
    pos = {x: i for i, x in enumerate(S5.elements)}
    eye = np.eye(S5.order, dtype=np.int64)
    mats.append(np.vstack([eye[[pos[conjugate(g, x)] for x in S5.elements]] - eye
                           for g in S5.generators]))
    shift = np.eye(40, k=1, dtype=np.int64) - np.eye(40, dtype=np.int64)
    mats += [np.vstack([shift, np.roll(shift, 7, axis=1)]), -shift[::-1]]
    mats.append(rng.integers(0, p, (300, 300)))
    # unreduced entries either side of zero: rref reduces its input mod p
    big = 2**62
    mats += [rng.integers(-3 * p, 3 * p + 1, (40, 70)), np.arange(-9, 9).reshape(3, 6),
             [[big, big + 1, -big, -big - 1, 2, -2, 3, -3]]]
    return mats


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 65521])
def test_rref_matches_full_update_oracle(p):
    for mat in _rref_oracle_inputs(p, np.random.default_rng(p)):
        red, piv = rref(mat, p)
        want_red, want_piv = _rref_oracle(mat, p)
        assert piv == want_piv
        assert red.dtype == want_red.dtype and red.shape == want_red.shape
        assert np.array_equal(red, want_red)


def test_null_space_randomized():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(25):
            m, n = rng.randrange(1, 6), rng.randrange(1, 6)
            mat = np.array(
                [[rng.randrange(p) for _ in range(n)] for _ in range(m)],
                dtype=np.int64,
            )
            basis = null_space(mat, p)
            red, piv = rref(mat, p)
            assert len(basis) == n - len(piv)  # rank-nullity
            for v in basis:
                assert not (mat @ v % p).any()
            if len(basis):
                kred, kpiv = rref(basis, p)
                assert kred.shape[0] == len(basis)  # independent


def _null_space_inputs(p, rng):
    """Matrices at the edges null_space must handle, and random ones."""
    yield np.zeros((0, 5), dtype=np.int64)  # no rows: the kernel is everything
    yield np.zeros((4, 0), dtype=np.int64)  # no columns: the kernel is zero
    yield np.zeros((3, 6), dtype=np.int64)
    yield np.eye(5, dtype=np.int64)  # full rank: the kernel is zero
    yield np.hstack([np.eye(4, dtype=np.int64), rng.integers(0, p, (4, 3))])
    yield np.full((3, 7), p - 1, dtype=np.int64)
    for _ in range(20):
        m, n = rng.integers(1, 9, 2)
        yield rng.integers(0, p, (m, n)) * (rng.random((m, n)) < 0.6)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 65521])
def test_null_space_is_the_rref_of_the_kernel(p):
    rng = np.random.default_rng(p)
    for mat in _null_space_inputs(p, rng):
        rows = null_space(mat, p)
        ncols = mat.shape[1]
        assert rows.dtype == np.int64 and rows.shape[1] == ncols
        assert not (mat @ rows.T % p).any()
        rank = len(rref(mat, p)[1]) if mat.shape[0] else 0
        assert rank + rows.shape[0] == ncols
        red, piv = rref(rows, p)
        assert np.array_equal(rows, red)
        # its pivots are each row's first nonzero, as socle_series reads them
        assert piv == [int(np.flatnonzero(row)[0]) for row in rows]


def test_coords_in_rref_roundtrip():
    rng = random.Random(31)
    p = 3
    for _ in range(20):
        mat = [[rng.randrange(p) for _ in range(5)] for _ in range(3)]
        red, piv = rref(mat, p)
        if red.shape[0] == 0:
            continue
        coeffs = [rng.randrange(p) for _ in range(red.shape[0])]
        vec = np.zeros(5, dtype=np.int64)
        for c, row in zip(coeffs, red):
            vec = (vec + c * row) % p
        got = coords_in_rref(vec, red, piv, p)
        assert ((got @ red) % p == vec).all()
    with pytest.raises(AlgebraError):
        red, piv = rref([[1, 0, 0]], 2)
        coords_in_rref([0, 1, 0], red, piv, 2)


def quotient_map(reduced, pivots, n, p):
    """Matrix of the projection F_p^n -> F_p^n / span(reduced), the
    oracles' quotient: its coordinates are the non-pivot positions of
    the reduction of a vector by the rref rows."""
    # t maps v (column) to its reduction v - sum_i v[c_i] * reduced[i];
    # after reduction every pivot coordinate vanishes
    t = np.eye(n, dtype=np.int64)
    t[:, pivots] -= reduced.T
    return np.delete(t, pivots, axis=0) % p


def test_quotient_map_kills_exactly_the_span():
    rng = random.Random(37)
    p = 2
    for _ in range(20):
        n = rng.randrange(2, 6)
        mat = [[rng.randrange(p) for _ in range(n)] for _ in range(2)]
        red, piv = rref(mat, p)
        q = quotient_map(red, piv, n, p)
        assert q.shape == (n - len(piv), n)
        for row in red:
            assert not (q @ row % p).any()
        # q is surjective: its rank is the quotient dimension
        qred, qpiv = rref(q, p)
        assert qred.shape[0] == n - len(piv)


# each product form the F_p code takes: n -> (a shape, b shape), and the
# axes; n moves it across the float64 crossover
_PRODUCT_FORMS = (
    (lambda n: ((n, n), (n, n)), None),
    (lambda n: ((n,), (n, n * n)), None),  # one vector, as in residual
    (lambda n: ((3, n, n), (n, n)), None),  # stacked rows, as in coords_in_rref
    (lambda n: ((n, n), (3, n, n)), None),  # q @ rho(G)
    (lambda n: ((3, n, n), (3, n, n)), None),  # batched on both sides
    (lambda n: ((n, n, n), (n,)), None),  # the augmentation products
    (lambda n: ((3, n), (n, n, n)), (1, 0)),
    (lambda n: ((n, n), (n, n, n)), (1, 1)),
    (lambda n: ((n, n), (3, n, n)), (1, 2)),
    (lambda n: ((3, n, n), (n, n, n)), (2, 0)),
    (lambda n: ((n, n, n), (3, n, n)), (2, 1)),
    (lambda n: ((3, n, n), (n, n, n)), (2, 1)),
)


def _product_oracle(a, b, p, axes):
    return (a @ b if axes is None else np.tensordot(a, b, axes)) % p


def _madds(sa, sb, axes):
    return np.prod(sa) * np.prod(sb) // sa[-1 if axes is None else axes[0]]


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_matmul_mod_matches_the_int64_product(p):
    rng = np.random.default_rng(p)
    for shapes, axes in _PRODUCT_FORMS:
        for n, side in ((rng.integers(2, 8), False), (rng.integers(32, 48), True)):
            sa, sb = shapes(int(n))
            assert (_madds(sa, sb, axes) >= artin._FLOAT_MADDS) == side
            for a, b in (
                (rng.integers(0, p, sa), rng.integers(0, p, sb)),
                (np.full(sa, p - 1), np.full(sb, p - 1)),
            ):
                got = artin._matmul_mod(a, b, p, axes)
                assert got.dtype == np.int64
                assert np.array_equal(got, _product_oracle(a, b, p, axes))
    # a transposed operand, as in spanned_submodule's word blocks
    a, b = rng.integers(0, p, (40, 50)), rng.integers(0, p, (40, 50))
    assert np.array_equal(artin._matmul_mod(a, b.T, p), a @ b.T % p)
    # an empty contraction, k = 0, gives zeros of the oracle's shape
    for sa, sb, axes in (((3, 0), (0, 4), None), ((2, 3, 0), (0, 5), None),
                         ((2, 0), (0, 3, 3), (1, 0)), ((2, 0), (3, 0, 3), (1, 1)),
                         ((2, 3, 0), (0, 3, 4), (2, 0)), ((2, 3, 0), (4, 0, 3), (2, 1))):
        a, b = np.zeros(sa, dtype=np.int64), np.zeros(sb, dtype=np.int64)
        got, want = artin._matmul_mod(a, b, p, axes), _product_oracle(a, b, p, axes)
        assert got.dtype == np.int64 and got.shape == want.shape and not got.any()


@pytest.mark.parametrize("past", [False, True])
def test_matmul_mod_is_exact_at_the_float64_bound(past, monkeypatch):
    # the largest k with (p - 1)^2 k < 2^53, or the first past it, where
    # the int64 product must answer: there the sum below is odd and
    # above 2^53, so no float64 holds it
    p = 65521
    k = (2**53 - 1) // (p - 1) ** 2 + past
    a = np.full((1, k), p - 1, dtype=np.int64)
    b = np.full((k, 1), p - 1, dtype=np.int64)
    a[0, -1] = b[-1, 0] = p - 2
    total = (p - 1) ** 2 * (k - 1) + (p - 2) ** 2
    assert (total >= 2**53) == past and total % 2 == 1
    # the float64 path is the one that reduces by floor
    floors = []
    floor = np.floor
    monkeypatch.setattr(np, "floor", lambda *args, **kw: floors.append(1) or floor(*args, **kw))
    assert artin._matmul_mod(a, b, p)[0, 0] == total % p == (a @ b % p)[0, 0]
    assert bool(floors) != past


# every name of a numpy product, as a call or as an operator
_PRODUCTS = ("dot", "matmul", "tensordot", "einsum")
# F_p products outside _matmul_mod, each with the reason it may stay
_PRODUCTS_ALLOWED = {
    ("artin.py", "tensor_algebra", "einsum"):
        "the signed table of a tensor product, reduced by validated_algebra",
}


def _products_outside_matmul_mod(name):
    """{(file, qualified def, product)} of the products in a source file."""
    with open(os.path.join(os.path.dirname(artin.__file__), name)) as f:
        tree = ast.parse(f.read())
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            what = None
            if isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.MatMult):
                what = "@"
            elif isinstance(child, ast.Attribute) and child.attr in _PRODUCTS:
                what = child.attr
            elif isinstance(child, ast.Name) and child.id in _PRODUCTS:
                what = child.id
            if what and scope[:1] != ("_matmul_mod",):
                found.add((name, ".".join(scope), what))
            visit(child, scope)

    visit(tree, ())
    return found


def test_every_fp_product_goes_through_matmul_mod():
    found = _products_outside_matmul_mod("artin.py") | _products_outside_matmul_mod("groups.py")
    assert found == set(_PRODUCTS_ALLOWED)
    # inside it, the int64 and the float64 path each take one @ of the
    # same reshaped operands, and no other numpy product is left
    with open(artin.__file__) as f:
        tree = ast.parse(f.read())
    (fn,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_matmul_mod"]
    ops = [n for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult)]
    names = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    names |= {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    assert len(ops) == 2 and not names & set(_PRODUCTS)


# ------------------------------------------------------------------ algebras


def _mul(alg, x, y):
    """The product x y of coefficient vectors, through the dense table."""
    x = np.asarray(x, dtype=np.int64) % alg.p
    y = np.asarray(y, dtype=np.int64) % alg.p
    left = np.tensordot(x, alg.table, axes=(0, 0)) % alg.p
    return y @ left % alg.p


def _aug_of(alg, x):
    """The augmentation of a coefficient vector."""
    return int(np.dot(np.asarray(x, dtype=np.int64) % alg.p, alg.aug) % alg.p)


def test_field_algebra():
    k = truncated_polynomial_algebra(5, 1)  # F_5 = F_5[y]/(y)
    assert k.dim == 1
    assert len(radical_basis(k)) == 0
    assert nilpotency_exponent(k) == 1
    assert minimal_free_resolution(k, 4) == (1, 0, 0, 0, 0)


def test_truncated_polynomial_algebra_structure():
    alg = truncated_polynomial_algebra(3, 4)
    assert alg.dim == 4
    assert alg.labels == ("1", "y", "y^2", "y^3")
    y = np.array([0, 1, 0, 0], dtype=np.int64)
    y2 = _mul(alg, y, y)
    assert y2.tolist() == [0, 0, 1, 0]
    assert _mul(alg, y2, y2).tolist() == [0, 0, 0, 0]
    assert _aug_of(alg, np.array([2, 1, 1, 1])) == 2
    assert nilpotency_exponent(alg) == 4
    assert len(radical_basis(alg)) == 3
    with pytest.raises(AlgebraError):
        truncated_polynomial_algebra(3, 0)


def _split_field_square():
    """F_2 x F_2 in the unit-first basis {1, f}, f = (0, 1), f^2 = f."""
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[1, 1, 1] = 1
    return table


def test_algebra_validation_rejects_nonlocal():
    # k x k split algebra: idempotent radical complement, not local
    with pytest.raises(AlgebraError):
        validated_algebra(2, ("1", "f"), (0, 0), _split_field_square(), (1, 0))


def test_algebra_validation_rejects_bad_augmentation():
    # aug(y) = 1 is not an algebra map for F_2[y]/(y^2)
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    with pytest.raises(AlgebraError):
        validated_algebra(2, ("1", "y"), (0, 0), table, (1, 1))


def test_algebra_validation_rejects_nonassociative():
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    table[1, 1, 0] = 1  # y*y = 1 makes y a unit outside the radical
    with pytest.raises(AlgebraError):
        validated_algebra(2, ("1", "y"), (0, 0), table, (1, 0))


def test_algebra_has_no_seed():
    # nor a unit parameter: the unit is e_0, as in the file format
    alg = truncated_polynomial_algebra(2, 3)
    fields = (alg.labels, alg.parities, alg.table, alg.aug)
    held = fields + (alg.generators, alg.words, alg.gen_products, alg.nilpotency)
    for extra in ({"seed": 0}, {"unit": np.eye(3, dtype=np.int64)[0]}):
        with pytest.raises(TypeError):
            FinAlgebra(2, *held, **extra)
        with pytest.raises(TypeError):
            validated_algebra(2, *fields, **extra)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_truncated_polynomial_algebra_is_what_the_validator_derives(p):
    for m in range(1, 41):
        alg = truncated_polynomial_algebra(p, m)
        want = validated_algebra(p, alg.labels, alg.parities, artin._truncated_table(m), alg.aug)
        assert (alg.p, alg.dim, alg.labels, alg.parities) == (p, m, want.labels, want.parities)
        for name in ("table", "aug", "generators", "gen_products"):
            got, ref = getattr(alg, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), (m, name)
        assert alg.nilpotency == want.nilpotency == m
        assert np.array_equal(radical_basis(alg), radical_basis(want))
        assert alg.words == want.words
        assert row_space(_word_rows(alg), p).shape[0] == m


def _word_rows(alg):
    """The words of alg as rows in the standard basis, each the product
    of its generator and its parent's row through the dense table."""
    rows = [np.eye(1, alg.dim, dtype=np.int64)[0]]
    for parent, g in alg.words:
        rows.append(_mul(alg, alg.generators[g], rows[parent]))
    return np.array(rows, dtype=np.int64)


def test_words_are_a_basis_of_the_algebra():
    t = truncated_polynomial_algebra
    files = [cli._parse_algebra_file(text, p) for p, _, text in _workload_algebra_files()]
    for alg in _small_algebras() + files + [tensor_algebra(t(3, 3), t(3, 5))]:
        assert len(alg.words) == alg.dim - 1
        assert all(0 <= parent < j and 0 <= g < len(alg.generators)
                   for j, (parent, g) in enumerate(alg.words, start=1))
        assert row_space(_word_rows(alg), alg.p).shape[0] == alg.dim


def test_j2_from_the_pairs_v_le_w_is_the_span_of_every_product(monkeypatch):
    # _generators stacks J^2 from the products v w with v <= w alone; the
    # rref of the stack, and so G and the words, are those of all
    # (dim J)^2 products
    files = [cli._parse_algebra_file(text, p) for p, _, text in _workload_algebra_files()]
    rref_ = artin.rref
    for alg in _small_algebras() + files:
        p, rad = alg.p, radical_basis(alg)
        stacks = []
        monkeypatch.setattr(artin, "rref", lambda rows, p: stacks.append(rows) or rref_(rows, p))
        gens, words, gen_products, j2 = alg._generators(rad)
        monkeypatch.undo()
        assert len(stacks[0]) == len(rad) * (len(rad) + 1) // 2
        right = np.tensordot(rad, alg.table, axes=(1, 1)) % p
        every = np.tensordot(rad, right, axes=(1, 1)).reshape(-1, alg.dim)
        want, want_piv = rref(every, p)
        got, got_piv = rref(stacks[0], p)
        assert got_piv == want_piv and np.array_equal(got, want)
        # the J^2 handed to the nilpotency check is that rref
        assert np.array_equal(j2, want)
        assert np.array_equal(gens, alg.generators) and words == alg.words
        assert np.array_equal(gen_products, alg.gen_products)


def _tensor_table_oracle(a, b):
    """The structure tensor of a (x) b, one Koszul-signed block per
    pair of basis products."""
    da, db = a.dim, b.dim
    d = da * db
    table = np.zeros((d, d, d), dtype=np.int64)
    for i1, j1, i2, j2 in itertools.product(range(da), range(db), range(da), range(db)):
        sign = -1 if b.parities[j1] and a.parities[i2] else 1
        block = np.outer(a.table[i1, i2], b.table[j1, j2]).reshape(-1)
        table[i1 * db + j1, i2 * db + j2] = (sign * block) % a.p
    return table


def test_tensor_table_matches_the_blockwise_oracle():
    algs = _small_algebras()
    pairs = [(a, b) for a in algs for b in algs if a.p == b.p]
    assert any(1 in a.parities and 1 in b.parities for a, b in pairs)
    for a, b in pairs:
        got = tensor_algebra(a, b).table
        want = _tensor_table_oracle(a, b)
        assert got.dtype == want.dtype and np.array_equal(got, want)


# ----------------------------------------------- certificates against oracles


def _associativity_oracle(table, p, triples=None):
    """The per-triple check: (e_i e_j) e_k = e_i (e_j e_k) on the given
    triples, every triple by default."""
    if triples is None:
        triples = itertools.product(range(table.shape[0]), repeat=3)
    for i, j, k in triples:
        # (e_i e_j) e_k from row (i, j); e_i (e_j e_k) from row (j, k)
        # pushed through the left multiplication by e_i
        if not np.array_equal(
            table[i, j] @ table[:, k, :] % p, table[j, k] @ table[i] % p
        ):
            raise AlgebraError("associativity fails at (%d,%d,%d)" % (i, j, k))


def _oracle_check_associative(self, ge):
    """Stand-in for FinAlgebra._check_associative: every triple."""
    _associativity_oracle(self.table, self.p)


def _module_oracle(alg, act):
    """The full module check: the unit acts as the identity and
    act(e_i e_j) = act(e_i) act(e_j) for every pair i, j."""
    p = alg.p
    if not np.array_equal(act[0] % p, np.eye(act.shape[1], dtype=np.int64)):
        return False
    lhs = np.einsum("ijk,kab->ijab", alg.table, act) % p
    rhs = np.einsum("iab,jbc->ijac", act, act) % p
    return np.array_equal(lhs, rhs)


def _dense_free_action(alg, rank):
    """The action of every basis element e_i on A^rank, a block-diagonal
    (rank dim A)^2 matrix whose column j of each block is e_i e_j."""
    reg = np.transpose(alg.table, (0, 2, 1)) % alg.p
    out = np.zeros((alg.dim, rank * alg.dim, rank * alg.dim), dtype=np.int64)
    for i in range(alg.dim):
        for b in range(rank):
            s = b * alg.dim
            out[i, s : s + alg.dim, s : s + alg.dim] = reg[i]
    return out


def _dense_restriction(act, basis, p):
    """A dense action restricted to the span of the rref rows basis:
    column j of matrix i holds the coordinates of e_i basis[j]."""
    red, piv = rref(basis, p)
    images = np.tensordot(act, red, axes=(2, 1)).transpose(0, 2, 1) % p
    return coords_in_rref(images, red, piv, p).transpose(0, 2, 1)


def _random_spanned(free, rng):
    """random_spanned_module(free, rng) and the rref basis of its span,
    from the same two vectors drawn from a twin of rng."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    module = random_spanned_module(free, rng)
    vectors = [[twin.randrange(free.algebra.p) for _ in range(free.dim)] for _ in range(2)]
    sub, basis = spanned_submodule(free, vectors)
    assert np.array_equal(sub.gen_act, module.gen_act)
    return module, basis


def _assert_matches_dense(module, act):
    """The module's rho(G) is the dense action act at the algebra's
    generators, and act passes the full module check."""
    alg = module.algebra
    want = np.tensordot(alg.generators, act, axes=(1, 0)) % alg.p
    assert np.array_equal(module.gen_act, want)
    assert _module_oracle(alg, act)


def _accepts(build):
    try:
        build()
    except AlgebraError:
        return False
    return True


def _workload_algebra_files():
    """(p, number of tensor factors, file text) for every algebra file
    shape of the benchmark's user_inputs workload, from a fixed seed."""
    path = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "perfbench", "workloads.py",
    )
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    rng = random.Random(5)
    return [(p, len(factors), workloads.algebra_text(p, factors, rng))
            for p, factors, _ in workloads.ALGEBRA_SHAPES]


def _exterior(p):
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = 1
    return validated_algebra(p, ("1", "x"), (0, 1), table, (1, 0))


def _small_algebras():
    t = truncated_polynomial_algebra
    return [
        t(2, 4), t(3, 3), t(5, 2),
        tensor_algebra(t(2, 2), t(2, 2)),
        tensor_algebra(_exterior(3), t(3, 3)),
        tensor_algebra(_exterior(3), _exterior(3)),
    ]


def test_certificates_accept_library_and_workload_algebras():
    t = truncated_polynomial_algebra
    algs = [(t(p, m), int(m > 1)) for p in (2, 3) for m in (1, 2, 5, 9, 16)]
    algs += [(alg, 2) for alg in _small_algebras()[3:]]
    algs.append((tensor_algebra(t(3, 3), t(3, 5)), 2))
    files = _workload_algebra_files()
    assert len(files) == 9
    algs += [(cli._parse_algebra_file(text, p), n) for p, n, text in files]
    for alg, n_factors in algs:
        _associativity_oracle(alg.table, alg.p)
        # the lifts of J/J^2 span, so the generators are one per factor
        assert alg.generators.shape[0] == n_factors
        free, dense = free_module(alg, 2), _dense_free_action(alg, 2)
        module, basis = _random_spanned(free, random.Random(3))
        _assert_matches_dense(free, dense)
        _assert_matches_dense(module, _dense_restriction(dense, basis, alg.p))


def test_associativity_certificates_agree_on_table_mutants(monkeypatch):
    rejected = nonassociative = 0
    for alg in _small_algebras():
        p, d, par = alg.p, alg.dim, alg.parities
        mutants = []
        for i, j, k in itertools.product(range(d), repeat=3):
            one = alg.table.copy()
            one[i, j, k] += 1
            mutants.append(one % p)
            if i != j:
                # the same change at (j, i, k) with the Koszul sign keeps
                # graded commutativity, so these reach associativity
                one[j, i, k] += -1 if par[i] and par[j] else 1
                mutants.append(one % p)
        for table in mutants:
            def build():
                validated_algebra(p, alg.labels, par, table, alg.aug)

            new = _accepts(build)
            with monkeypatch.context() as m:
                m.setattr(FinAlgebra, "_check_associative", _oracle_check_associative)
                assert _accepts(build) == new
            rejected += not new
            nonassociative += not _accepts(lambda: _associativity_oracle(table, p))
    assert rejected > 0 and nonassociative > 0


def test_certificate_rejects_what_a_triple_sample_misses(tmp_path, capsys):
    # F_2[y]/(y^16) with y^2 y^2 = y^4 + y^15: commutative, augmented and
    # nilpotent, and associativity fails only at (1,1,2) and (2,1,1), two
    # of the 4096 triples
    table = artin._truncated_table(16)
    table[2, 2, 15] = 1
    aug = np.zeros(16, dtype=np.int64)
    aug[0] = 1
    labels = ["y%d" % i for i in range(16)]
    # the 300 triples the sampled check drew for dim > 14 (seed 0)
    rng = random.Random(0)
    sample = [(rng.randrange(16), rng.randrange(16), rng.randrange(16)) for _ in range(300)]
    _associativity_oracle(table, 2, sample)
    with pytest.raises(AlgebraError, match="associativity"):
        _associativity_oracle(table, 2)
    with pytest.raises(AlgebraError, match="associativity fails at generator 0"):
        validated_algebra(2, labels, (0,) * 16, table, aug)
    lines = ["labels: " + " ".join(labels), "parities: " + " 0" * 16, "aug: 1" + " 0" * 15]
    lines += ["mul: %d %d %d 1" % tuple(ijk) for ijk in np.argwhere(table)]
    path = tmp_path / "nonassoc.alg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rc = cli.main(["socle", "--p", "2", "--algebra", str(path)])
    err = capsys.readouterr().err
    assert rc == 65 and "malformed algebra file: associativity" in err


def _spy_on_fallback(monkeypatch):
    """Record, for each algebra built, whether its generators fell back
    to the basis of J."""
    fell_back = []
    lifts_or_basis = FinAlgebra._generators

    def spy(self, rad):
        gens, words, gen_products, j2 = lifts_or_basis(self, rad)
        fell_back.append(gens is rad)
        if gens is rad:
            # the words 1 and g 1 = g for the basis of J
            assert words == tuple((0, i) for i in range(len(rad)))
        assert np.array_equal(gen_products, np.tensordot(gens, self.table, axes=(1, 0)) % self.p)
        return gens, words, gen_products, j2

    monkeypatch.setattr(FinAlgebra, "_generators", spy)
    return fell_back


def test_fallback_generators_reject_nonassociative_tables(monkeypatch):
    # basis 1, x, s, t: x x = s, s s = t, all else zero.  J/J^2 lifts to
    # {x}, whose words 1, x, s miss t; (x x) s = t but x (x s) = 0
    table = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        table[0, i, i] = table[i, 0, i] = 1
    table[1, 1, 2] = table[2, 2, 3] = 1
    fell_back = _spy_on_fallback(monkeypatch)
    with pytest.raises(AlgebraError, match="associativity"):
        validated_algebra(3, ("1", "x", "s", "t"), (0,) * 4, table, (1, 0, 0, 0))
    assert fell_back == [True]


def test_fallback_generators_reject_nonlocal_tables(monkeypatch):
    # F_2 x F_2 as {1, f} with f^2 = f, and F_3[y]/(y^2) x F_3 as
    # {1, y, f} with y^2 = yf = 0 and f^2 = f: J^2 = J for the first, and
    # the idempotent f of the second is in no right-nested word of the
    # lifts, so both fall back, pass associativity and fail nilpotency
    prod = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        prod[0, i, i] = prod[i, 0, i] = 1
    prod[2, 2, 2] = 1
    fell_back = _spy_on_fallback(monkeypatch)
    with pytest.raises(AlgebraError, match="not nilpotent"):
        validated_algebra(2, ("1", "f"), (0, 0), _split_field_square(), (1, 0))
    with pytest.raises(AlgebraError, match="not nilpotent"):
        validated_algebra(3, ("1", "y", "f"), (0, 0, 0), prod, (1, 0, 0))
    assert fell_back == [True, True]


def test_tensor_algebra_koszul_sign():
    # exterior algebra on one odd generator over F_3
    table = np.zeros((2, 2, 2), dtype=np.int64)
    table[0, 0, 0] = 1
    table[0, 1, 1] = 1
    table[1, 0, 1] = 1
    ext = validated_algebra(3, ("1", "x"), (0, 1), table, (1, 0))
    two = tensor_algebra(ext, ext)
    assert two.dim == 4
    x1 = np.array([0, 0, 1, 0], dtype=np.int64)  # x (x) 1
    x2 = np.array([0, 1, 0, 0], dtype=np.int64)  # 1 (x) x
    fwd = _mul(two, x1, x2)
    bwd = _mul(two, x2, x1)
    assert fwd.tolist() == [0, 0, 0, 1]
    assert bwd.tolist() == [0, 0, 0, 2]  # odd-odd swap picks up -1
    assert _mul(two, x1, x1).tolist() == [0, 0, 0, 0]


def test_tensor_algebra_prime_mismatch():
    with pytest.raises(AlgebraError):
        tensor_algebra(truncated_polynomial_algebra(2, 1), truncated_polynomial_algebra(3, 1))


# ------------------------------------------------------------------- modules


def test_regular_module_action_matches_table():
    alg = truncated_polynomial_algebra(2, 3)
    reg = regular_module(alg)
    assert reg.dim == 3
    assert alg.generators.tolist() == [[0, 1, 0]]  # G = {y}
    v = np.array([1, 1, 0], dtype=np.int64)
    assert (reg.gen_act[0] @ v % 2).tolist() == [0, 1, 1]


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_free_module_is_block_diagonal_regular(rank):
    two = tensor_algebra(
        truncated_polynomial_algebra(3, 2), truncated_polynomial_algebra(3, 3)
    )
    for alg in (truncated_polynomial_algebra(2, 3), two):
        reg = regular_module(alg).gen_act
        want = [np.kron(np.eye(rank, dtype=np.int64), rho) for rho in reg]
        assert np.array_equal(free_module(alg, rank).gen_act, np.array(want))


def test_every_constructor_matches_the_dense_action():
    # the modules carry no dense action and no check of their own, so
    # each constructor's rho(G) is read against the dense action it
    # restricts, and that action against the full module check
    t = truncated_polynomial_algebra
    files = [cli._parse_algebra_file(text, p) for p, _, text in _workload_algebra_files()]
    rng = random.Random(16)
    for alg in _small_algebras() + files + [t(2, 1), t(3, 1)]:
        p = alg.p
        _assert_matches_dense(regular_module(alg), _dense_free_action(alg, 1))
        for rank in (1, 2, 3):
            free, dense = free_module(alg, rank), _dense_free_action(alg, rank)
            _assert_matches_dense(free, dense)
            vectors = [[rng.randrange(p) for _ in range(free.dim)]]
            sub, basis = spanned_submodule(free, vectors)
            _assert_matches_dense(sub, _dense_restriction(dense, basis, p))
            module, basis = _random_spanned(free, rng)
            _assert_matches_dense(module, _dense_restriction(dense, basis, p))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_blockwise_free_action_matches_dense_blocks(rank):
    files = [cli._parse_algebra_file(text, p) for p, _, text in _workload_algebra_files()]
    odd = next(alg for alg in files if 1 in alg.parities)
    rng = np.random.default_rng(rank)
    for alg in _small_algebras() + [odd]:
        p, d = alg.p, alg.dim
        rows = rng.integers(0, p, (5, rank * d))
        dense = _dense_free_action(alg, rank)
        want = np.tensordot(dense, rows, axes=(2, 1)).transpose(0, 2, 1) % p
        got = artin._free_images(alg.table, p)(rows)
        assert np.array_equal(got, want.reshape(-1, rank * d))
        assert np.array_equal(got, artin._dense_images(dense, p)(rows))
        # the radical acting block by block, as JK is formed
        rad = radical_basis(alg)
        rad_dense = np.tensordot(rad, dense, axes=(1, 0)) % p
        want = np.tensordot(rad_dense, rows, axes=(2, 1)).transpose(0, 2, 1) % p
        rad_mult = np.tensordot(rad, alg.table, axes=(1, 0)) % p
        got = artin._free_images(rad_mult, p)(rows)
        assert np.array_equal(got, want.reshape(-1, rank * d))


def test_spanned_submodule_closure():
    alg = truncated_polynomial_algebra(2, 4)
    free = free_module(alg, 2)
    e0 = np.zeros(8, dtype=np.int64)
    e0[0] = 1  # generator of the first summand
    sub, rows = spanned_submodule(free, [e0])
    assert sub.dim == 4  # a full copy of the algebra
    y3_corner = np.zeros(8, dtype=np.int64)
    y3_corner[3] = 1
    red, piv = rref(rows, 2)
    assert not residual(y3_corner, red, piv, 2).any()


def _span_closure(images_of, rows, p):
    """Reference: the closure of the row span under an action given by
    images_of, which maps a stack of rows to the stack of their images,
    grown round by round.  Returns (reduced, pivots).

    Only the rows added in the last round go through images_of: the
    images of the earlier rows already lie in the current span (by
    induction), so once the new rows' images add nothing, the span is
    stable by linearity.

    The basis grows without being row-reduced again.  A round's
    residuals, and so their rref new, are zero at the pivots of cur;
    let Q be the pivots of new.  cur - cur[:, Q] @ new is zero on Q and
    unchanged on the pivots of cur, and keeps each row's pivot c_i:
    cur_i[q] != 0 puts q after c_i, and new's row with pivot q is zero
    left of q.  So both blocks, in pivot order, are the unique rref of
    span(cur) + span(new).
    """
    cur, piv = rref(rows, p)
    new = cur
    while True:
        resid = residual(images_of(new), cur, piv, p)
        new, add_piv = rref(resid[resid.any(axis=1)], p)
        if not add_piv:
            return cur, piv
        cur = (cur - cur[:, add_piv] @ new) % p
        order = np.argsort(piv + add_piv)
        cur, piv = np.vstack([cur, new])[order], sorted(piv + add_piv)


def _whole_basis_closure(images_of, rows, p):
    """Reference: every round sends the whole current basis through
    images_of, not only the rows the last round added."""
    cur, piv = rref(rows, p)
    while True:
        resid = artin.residual(images_of(cur), cur, piv, p)
        resid = resid[resid.any(axis=1)]
        if resid.shape[0] == 0:
            return cur, piv
        cur, piv = rref(np.vstack([cur, resid]), p)


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
def test_span_closure_matches_the_whole_basis_closure(p):
    rng = random.Random(700 + p)
    t = truncated_polynomial_algebra
    cases = []
    for alg in (t(p, 3), t(p, 5), tensor_algebra(t(p, 2), t(p, 3))):
        for rank in (1, 2, 3):
            free = free_module(alg, rank)
            actions = [
                artin._dense_images(_dense_free_action(alg, rank), p),
                # one generator at a time: the closure takes several rounds
                artin._free_images(alg.table[1:2], p),
                artin._free_images(alg.table[1:], p),
            ]
            for images_of in actions:
                for n_rows in (1, 2, 3):
                    rows = [
                        np.array([rng.randrange(p) for _ in range(free.dim)], np.int64)
                        for _ in range(n_rows)
                    ]
                    cases.append((images_of, rows, 1))
    # (F_p[y]/(y^16))^2 under G = {y}: the closure grows by a shift per
    # round, so it takes 16 rounds, and every entry p - 1 is the largest
    # residue the int64 products see
    shift = artin._free_images(t(p, 16).gen_products, p)
    for rows in ([np.full(32, p - 1, np.int64)],
                 [np.full(32, p - 1, np.int64), np.eye(32, dtype=np.int64)[20] * (p - 1)],
                 [np.array([rng.randrange(p) for _ in range(32)], np.int64)]):
        cases.append((shift, rows, 15))
    for images_of, rows, min_rounds in cases:
        rounds = []
        counted = lambda r, f=images_of: rounds.append(1) or f(r)
        got, got_piv = _span_closure(counted, rows, p)
        want, want_piv = _whole_basis_closure(images_of, rows, p)
        assert np.array_equal(got, want)
        assert list(got_piv) == list(want_piv)
        assert len(rounds) >= min_rounds


@pytest.mark.parametrize("p", [2, 3, 65521])
def test_spanned_submodule_is_the_round_by_round_closure(p):
    # free modules and submodules of them, on seeded vectors and on
    # vectors with every entry p - 1, the largest residue int64 sees
    rng = random.Random(800 + p)
    t = truncated_polynomial_algebra
    algs = [t(p, 3), t(p, 5), t(p, 16), tensor_algebra(t(p, 2), t(p, 3)),
            tensor_algebra(_exterior(p), t(p, 3))]
    for alg, rank in itertools.product(algs, (1, 2)):
        free = free_module(alg, rank)
        for module in (free, _random_spanned(free, rng)[0]):
            n = module.dim
            for vectors in ([[rng.randrange(p) for _ in range(n)]],
                            [[rng.randrange(p) for _ in range(n)] for _ in range(3)],
                            [np.full(n, p - 1)],
                            [np.full(n, p - 1), np.eye(n, dtype=np.int64)[n // 2] * (p - 1)]):
                sub, basis = spanned_submodule(module, vectors)
                want, _ = _span_closure(artin._dense_images(module.gen_act, p), vectors, p)
                assert np.array_equal(basis, want)
                assert sub.dim == want.shape[0]


def test_span_closure_row_reduces_each_row_once(monkeypatch):
    """spanned_submodule makes one rref, of the two seeded vectors of
    (F_2[y]/(y^16))^2 times each of the 16 words: 32 rows for a
    31-dimensional closure, where re-reducing the whole basis every
    round handed rref 271."""
    free = free_module(truncated_polynomial_algebra(2, 16), 2)
    rng = random.Random(4)
    vectors = [[rng.randrange(2) for _ in range(free.dim)] for _ in range(2)]
    seen = []
    real = artin.rref
    monkeypatch.setattr(
        artin, "rref", lambda rows, p: seen.append(np.atleast_2d(rows).shape[0]) or real(rows, p)
    )
    sub, _ = spanned_submodule(free, vectors)
    assert sub.dim == 31
    assert seen == [len(vectors) * 16]


def test_spanned_submodule_refuses_words_short_of_a_basis():
    # without one word the stack spans less than A v for a cyclic
    # generator v, and that span is not G-stable, so the check raises
    t = truncated_polynomial_algebra
    for alg in _small_algebras() + [t(2, 16), t(65521, 4)]:
        words = alg.words
        leaves = set(range(1, alg.dim)) - {parent for parent, _ in words}
        assert leaves
        for j in leaves:
            alg.words = tuple((parent - (parent > j), g)
                              for k, (parent, g) in enumerate(words, start=1) if k != j)
            for rank in (1, 2):
                free = free_module(alg, rank)
                with pytest.raises(AlgebraError, match="not in the given span"):
                    spanned_submodule(free, [np.eye(1, free.dim, dtype=np.int64)[0]])
        alg.words = words


@pytest.mark.parametrize("rank", [1, 2])
def test_span_closure_of_zero_rows_is_the_zero_subspace(rank):
    t = truncated_polynomial_algebra
    for alg in (t(2, 3), t(3, 2), tensor_algebra(t(2, 2), t(2, 2))):
        p, dim = alg.p, rank * alg.dim
        images_of = artin._free_images(alg.table, p)
        for rows in (np.zeros((0, dim), np.int64), np.zeros((3, dim), np.int64)):
            assert images_of(rows).shape == (alg.dim * rows.shape[0], dim)
            basis, piv = _span_closure(images_of, rows, p)
            assert basis.shape == (0, dim) and list(piv) == []
            sub, basis = spanned_submodule(free_module(alg, rank), rows)
            assert sub.dim == 0 and basis.shape == (0, dim)


def test_zero_module():
    alg = truncated_polynomial_algebra(2, 3)
    free = free_module(alg, 1)
    sub, _ = spanned_submodule(free, [np.zeros(3, dtype=np.int64)])
    assert sub.dim == 0
    assert nakayama_check(sub) == (0, 0)
    series = socle_series(sub)
    assert series.dims == () and series.k0 == 0 and series.basis.shape == (0, 0)


# ----------------------------------------------------------------- socles


def _socle_by_powers(alg, act, k):
    """soc^k M as the common kernel of a basis of J^k acting by the dense
    action act, with J^k built by multiplying in the algebra rather than
    by climbing the series."""
    p = alg.p
    rad = radical_basis(alg)
    power = list(rad)
    for _ in range(k - 1):
        products = [_mul(alg, a, g) for a in power for g in rad]
        power = list(row_space(products, p)) if products else []
    if not power:
        return np.eye(act.shape[1], dtype=np.int64)
    mats = np.vstack([np.tensordot(b, act, axes=(0, 0)) % p for b in power])
    return row_space(null_space(mats, p), p)


def _socle_stages(series, p):
    """The rref basis of soc^k M for k = 1..k0, read off the adapted
    basis: its first dims[k-1] rows span soc^k M."""
    return [row_space(series.basis[:dim], p) for dim in series.dims]


def _check_socle_stages(module, act):
    """socle_series agrees, stage by stage, with the kernels of the
    powers of J acting by the dense action act."""
    series = socle_series(module)
    stages = _socle_stages(series, module.algebra.p)
    assert len(stages) == series.k0
    assert series.basis.shape == (module.dim, module.dim)
    for k, red in enumerate(stages, start=1):
        assert red.tolist() == _socle_by_powers(module.algebra, act, k).tolist()
    return series


@pytest.mark.parametrize("m", range(2, 10))
def test_socle_series_truncated_polynomial(m):
    alg = truncated_polynomial_algebra(2, m)
    series = _check_socle_stages(regular_module(alg), _dense_free_action(alg, 1))
    assert series.dims == tuple(range(1, m + 1))
    assert series.k0 == m
    assert series.e == m


def test_socle_stage_bases_are_top_power_spans():
    m = 5
    alg = truncated_polynomial_algebra(3, m)
    stages = _socle_stages(socle_series(regular_module(alg)), 3)
    assert len(stages) == m
    for k, red in enumerate(stages, start=1):
        # soc^k = span(y^(m-k), ..., y^(m-1))
        want = np.zeros((k, m), dtype=np.int64)
        for i in range(k):
            want[i, m - k + i] = 1
        assert red.tolist() == want.tolist()


def test_socle_series_tensor_square():
    a = truncated_polynomial_algebra(2, 2)
    two = tensor_algebra(a, truncated_polynomial_algebra(2, 2))
    series = _check_socle_stages(regular_module(two), _dense_free_action(two, 1))
    assert series.dims == (1, 3, 4)
    assert series.k0 == 3 and series.e == 3


def _conjugated(module, rng):
    """module with its action in a random basis, so that its socle rows
    are nonzero off their pivots."""
    p, n = module.algebra.p, module.dim
    while True:
        basis = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)], np.int64)
        if len(rref(basis, p)[1]) == n:
            break
    inverse = rref(np.hstack([basis, np.eye(n, dtype=np.int64)]), p)[0][:, n:]
    act = [basis @ a @ inverse % p for a in module.gen_act]
    return artin.FinModule(module.algebra, np.array(act, dtype=np.int64))


def test_socle_series_certifies_each_stage(monkeypatch):
    mod = regular_module(truncated_polynomial_algebra(2, 3))
    with monkeypatch.context() as m:
        m.setattr(artin, "nilpotency_exponent", lambda alg: 2)
        with pytest.raises(AlgebraError, match="terminate"):
            socle_series(mod)
    # the carried action without its correction red[:, f]^T A_g[piv][:, f],
    # the only product of a matrix by a stack of matrices in socle_series
    conj = _conjugated(regular_module(truncated_polynomial_algebra(2, 4)), random.Random(10))
    assert socle_series(conj).dims == (1, 2, 3, 4)
    matmul = artin._matmul_mod

    def uncorrected(a, b, p, axes=None):
        if axes is None and a.ndim == 2 and b.ndim == 3:
            return np.zeros((b.shape[0], a.shape[0], b.shape[2]), dtype=np.int64)
        return matmul(a, b, p, axes)

    with monkeypatch.context() as m:
        m.setattr(artin, "_matmul_mod", uncorrected)
        with pytest.raises(AlgebraError, match="escapes"):
            socle_series(conj)
    # a first stage cut to one row leaves a flag with J S_k in S_(k-1)
    # that ends at M, but is not the socle series
    kernels = []

    def first_cut(mat, p):
        kern = null_space(mat, p)
        kernels.append(kern)
        return kern[:1] if len(kernels) == 1 else kern

    with monkeypatch.context() as m:
        m.setattr(artin, "null_space", first_cut)
        m.setattr(artin, "nilpotency_exponent", lambda alg: 10)
        with pytest.raises(AlgebraError, match="misses"):
            socle_series(free_module(truncated_polynomial_algebra(2, 3), 2))
    assert len(kernels[0]) == 2


def test_a_socle_stage_that_does_not_grow_fails_to_terminate(monkeypatch):
    # an empty stage leaves the quotient as it was, so the J-nilpotency
    # bound stops the loop within e stages
    monkeypatch.setattr(artin, "null_space",
                        lambda mat, p: np.zeros((0, np.shape(mat)[1]), dtype=np.int64))
    with pytest.raises(AlgebraError, match="fails to terminate by J-nilpotency"):
        socle_series(regular_module(truncated_polynomial_algebra(3, 4)))


def test_socle_series_carries_the_quotient(monkeypatch):
    # a return to a fresh quotient map of M per stage, the m^4 path, must
    # fail here, not only in timing: stage k works at the width 41 - k of
    # the quotient, and only the certificate, once, sees M whole
    m = 40
    events = []
    widths = {"null_space": lambda a, p: np.shape(a)[1], "rref": lambda a, p: np.shape(a)[1],
              "_matmul_mod": lambda a, b, p, axes=None: max(np.shape(a) + np.shape(b))}
    for name, width in widths.items():
        def spy(*args, _real=getattr(artin, name), _name=name, _width=width, **kw):
            events.append((_name, _width(*args, **kw)))
            return _real(*args, **kw)
        monkeypatch.setattr(artin, name, spy)
    series = socle_series(regular_module(truncated_polynomial_algebra(2, m)))
    assert series.dims == tuple(range(1, m + 1))
    starts = [i for i, (name, _) in enumerate(events) if name == "null_space"]
    assert [events[i][1] for i in starts] == list(range(m, 0, -1))
    cert = len(events) - 3
    assert events[cert:] == [("_matmul_mod", m), ("rref", 2 * m), ("rref", m)]
    for i, j in zip(starts, starts[1:] + [cert]):
        assert all(width <= events[i][1] for _, width in events[i:j])


def test_nakayama_randomized():
    rng = random.Random(2026)
    # F_2[x, y]/(x, y)^2 is not Gorenstein: on its modules the row and
    # column spans of the action matrices of J can differ in dimension
    square_zero = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        square_zero[0, i, i] = square_zero[i, 0, i] = 1
    algs = [
        truncated_polynomial_algebra(2, 4),
        truncated_polynomial_algebra(3, 3),
        tensor_algebra(
            truncated_polynomial_algebra(2, 2), truncated_polynomial_algebra(2, 2)
        ),
        validated_algebra(2, ("1", "x", "y"), (0, 0, 0), square_zero, (1, 0, 0)),
    ]
    for _ in range(30):
        alg = algs[rng.randrange(len(algs))]
        mod, basis = _random_spanned(free_module(alg, 2), rng)
        act = _dense_restriction(_dense_free_action(alg, 2), basis, alg.p)
        top, dim = nakayama_check(mod)
        assert 0 <= top <= dim <= 16
        if dim > 0:
            assert top > 0
            # JM spanned vector by vector: g . m_j for g in J, m_j in M
            jm = [np.tensordot(g, act, axes=(0, 0)) @ m % alg.p for g in radical_basis(alg)
                  for m in np.eye(dim, dtype=np.int64)]
            assert top == dim - row_space(jm, alg.p).shape[0]
        series = _check_socle_stages(mod, act)
        if dim:
            assert series.dims[-1] == dim
            assert series.k0 <= series.e


# ----------------------------------------------------------------- Betti


@pytest.mark.parametrize("m", range(2, 8))
def test_betti_hypersurface_is_constant(m):
    alg = truncated_polynomial_algebra(2, m)
    assert minimal_free_resolution(alg, 6) == (1,) * 7


def test_betti_tensor_square_grows_linearly():
    a = truncated_polynomial_algebra(2, 2)
    two = tensor_algebra(a, truncated_polynomial_algebra(2, 2))
    assert minimal_free_resolution(two, 6) == (1, 2, 3, 4, 5, 6, 7)


@pytest.mark.parametrize("step", [1, 2, 3])
def test_resolution_certifies_exactness(step, monkeypatch):
    # without one of its generators at this step the map A^b -> A^rank
    # misses part of K, although the lifts it keeps are still minimal
    lifted = artin._lift_generators
    calls = []

    def dropping(jk, candidates, p):
        calls.append(1)
        gens = lifted(jk, candidates, p)
        return gens[:-1] if len(calls) == step else gens

    monkeypatch.setattr(artin, "_lift_generators", dropping)
    t = truncated_polynomial_algebra
    algs = [tensor_algebra(t(2, 2), t(2, 2)), tensor_algebra(t(3, 3), t(3, 2))]
    algs += [t(p, m) for p in (2, 3, 5) for m in (2, 3, 7)]
    for alg in algs:
        calls.clear()
        with pytest.raises(AlgebraError, match="not exact"):
            minimal_free_resolution(alg, step)


def test_resolution_certifies_the_kernel_is_a_submodule(monkeypatch):
    # span(y) in place of span(y^2), the kernel of x -> x y on
    # F_2[y]/(y^3): the same dimension, inside the radical, but y y
    # escapes it
    monkeypatch.setattr(artin, "null_space", lambda mat, p: np.array([[0, 1, 0]]))
    with pytest.raises(AlgebraError, match="kernel failed to be a submodule"):
        minimal_free_resolution(truncated_polynomial_algebra(2, 3), 1)


def test_resolution_certifies_minimality(monkeypatch):
    # if every element of K counts as a new generator, the generators of
    # A^b are not minimal and the kernel has a unit coordinate
    monkeypatch.setattr(artin, "_lift_generators", lambda jk, candidates, p: candidates)
    with pytest.raises(AlgebraError, match="not minimal"):
        minimal_free_resolution(truncated_polynomial_algebra(2, 3), 2)


def test_betti_of_odd_prime_tensor():
    two = tensor_algebra(
        truncated_polynomial_algebra(3, 3), truncated_polynomial_algebra(3, 2)
    )
    b = minimal_free_resolution(two, 4)
    assert b[0] == 1 and all(v > 0 for v in b)


# ------------------------------------- generators of J/J^2 against the basis


def _nilpotency_oracle(alg):
    """The nilpotency exponent from J^(k+1) = J^k J, J acting by its
    whole basis."""
    p, d = alg.p, alg.dim
    rad = radical_basis(alg)
    right = np.einsum("bj,ijn->bin", rad, alg.table) % p
    cur, e = rad, 1
    while cur.shape[0]:
        nxt = row_space(np.tensordot(cur, right, axes=(1, 1)).reshape(-1, d) % p, p)
        assert nxt.shape[0] < cur.shape[0]
        cur, e = nxt, e + 1
    return e


def _rad_mats(alg, act):
    """The matrices of the basis of J in the dense action act."""
    return np.tensordot(radical_basis(alg), act, axes=(1, 0)) % alg.p


def _socle_bases_oracle(alg, act):
    """soc^k = {x : Jx in soc^(k-1)}, J acting by its whole basis."""
    p, n = alg.p, act.shape[1]
    rad_mats = _rad_mats(alg, act)
    stages, red, piv = [], np.zeros((0, n), np.int64), []
    while red.shape[0] < n:
        q = quotient_map(red, piv, n, p)
        kern = null_space((q @ rad_mats % p).reshape(-1, n), p)
        assert len(kern) > red.shape[0]
        red, piv = rref(kern, p)
        stages.append(red)
    return stages


def _nakayama_top_oracle(alg, act):
    """dim M / JM, JM spanned by the columns of the matrices of the basis
    of J in the dense action act."""
    n = act.shape[1]
    return n - row_space(_rad_mats(alg, act).transpose(0, 2, 1).reshape(-1, n), alg.p).shape[0]


def _greedy_generators(jk, candidates, p):
    """The candidates outside the span of jk and of the candidates kept
    before them, one rref per kept candidate."""
    red, piv = rref(jk, p)
    kept = []
    for v in candidates:
        if residual(v, red, piv, p).any():
            kept.append(v)
            red, piv = rref(np.vstack([red, v]), p)
    return np.array(kept, dtype=np.int64).reshape(-1, candidates.shape[1])


def _whole_basis_resolution(alg, s_max):
    """Betti numbers with JK formed from the whole basis of J, the
    generators kept by _greedy_generators and each kernel closed under
    all of A."""
    p, d = alg.p, alg.dim
    rad = radical_basis(alg)
    rad_images = artin._free_images(np.tensordot(rad, alg.table, axes=(1, 0)) % p, p)
    all_images = artin._free_images(alg.table, p)
    betti, rank, k_rows = [1], 1, rad
    for _ in range(s_max):
        if k_rows.shape[0] == 0:
            betti.append(0)
            continue
        gens = _greedy_generators(rad_images(k_rows), k_rows, p)
        b = gens.shape[0]
        betti.append(b)
        big = all_images(gens).reshape(d, b, rank * d).transpose(2, 1, 0)
        kern = null_space(big.reshape(rank * d, b * d), p)
        rank = b
        k_rows = _span_closure(all_images, kern, p)[0]
    return tuple(betti)


def _oracle_algebras(p):
    """F_p[y]/(y^m) for m <= 20, and Koszul tensor products with odd
    factors."""
    t = truncated_polynomial_algebra
    algs = [t(p, m) for m in range(1, 21)]
    algs += [
        tensor_algebra(_exterior(p), t(p, 3)),
        tensor_algebra(_exterior(p), _exterior(p)),
        tensor_algebra(tensor_algebra(t(p, 2), _exterior(p)), t(p, 4)),
    ]
    return algs


@pytest.mark.parametrize("p", [2, 3, 5])
def test_generator_actions_match_whole_basis_oracles(p, monkeypatch):
    rng = random.Random(900 + p)
    lifted = artin._lift_generators
    rad_images = []  # the basis of J acting on A^rank, one per algebra
    checked = []

    def check_jk(jk, candidates, q):
        # JK = sum_g gK spans what the basis of J sends K to, and one
        # rref keeps the rows the greedy extension keeps
        assert np.array_equal(row_space(jk, q), row_space(rad_images[-1](candidates), q))
        got = lifted(jk, candidates, q)
        assert np.array_equal(got, _greedy_generators(jk, candidates, q))
        checked.append(got.shape[0])
        return got

    monkeypatch.setattr(artin, "_lift_generators", check_jk)
    for alg in _oracle_algebras(p):
        rad_mult = np.tensordot(radical_basis(alg), alg.table, axes=(1, 0)) % p
        rad_images.append(artin._free_images(rad_mult, p))
        assert nilpotency_exponent(alg) == _nilpotency_oracle(alg)
        assert minimal_free_resolution(alg, 4) == _whole_basis_resolution(alg, 4)
        free, dense = free_module(alg, 2), _dense_free_action(alg, 2)
        vectors = [np.array([rng.randrange(p) for _ in range(free.dim)], np.int64)
                   for _ in range(rng.randrange(1, 3))]
        sub, basis = spanned_submodule(free, vectors)
        want, _ = _span_closure(artin._dense_images(dense, p), vectors, p)
        assert np.array_equal(basis, want)
        rand, rand_basis = _random_spanned(free, rng)
        for module, act in ((regular_module(alg), _dense_free_action(alg, 1)),
                            (sub, _dense_restriction(dense, basis, p)),
                            (rand, _dense_restriction(dense, rand_basis, p))):
            got = _socle_stages(socle_series(module), p)
            want = _socle_bases_oracle(alg, act)
            assert [red.tolist() for red in got] == [red.tolist() for red in want]
            assert nakayama_check(module)[0] == _nakayama_top_oracle(alg, act)
    assert checked


def test_socle_basis_matches_the_oracle_on_workload_algebras():
    # the 9 algebra file shapes of the benchmark, at p = 2, 3 and 5
    files = _workload_algebra_files()
    assert sorted({p for p, _, _ in files}) == [2, 3, 5]
    for p, _, text in files:
        alg = cli._parse_algebra_file(text, p)
        dense = _dense_free_action(alg, 1)
        sub, basis = _random_spanned(regular_module(alg), random.Random(p))
        for module, act in ((regular_module(alg), dense),
                            (sub, _dense_restriction(dense, basis, p))):
            got = _socle_stages(socle_series(module), p)
            want = _socle_bases_oracle(alg, act)
            assert [red.tolist() for red in got] == [red.tolist() for red in want]


def test_generator_actions_stack_at_most_dim_times_g_rows(monkeypatch):
    # a refactor that goes back to acting by the whole basis of J must
    # fail here, not only in timing
    alg = truncated_polynomial_algebra(2, 40)
    module = regular_module(alg)
    bound = module.dim * len(alg.generators)
    rows, jk_rows = [], []
    rref_ = artin.rref
    lifted = artin._lift_generators

    def recording(stack, p):
        rows.append(np.shape(stack)[0])
        return rref_(stack, p)

    def recording_jk(jk, candidates, p):
        jk_rows.append((jk.shape[0], candidates.shape[0]))
        return lifted(jk, candidates, p)

    monkeypatch.setattr(artin, "rref", recording)
    monkeypatch.setattr(artin, "_lift_generators", recording_jk)
    rad = radical_basis(alg)
    # J^2 = (y^2) is spanned by the radical rows y^2, ..., y^39
    alg._check_radical_nilpotent(rad, rad[1:], alg.gen_products)
    socle_series(module)
    # every syzygy of F_p over F_2[y]/(y^40) lies in A^1, of dimension 40
    assert minimal_free_resolution(alg, 6) == (1,) * 7
    assert rows and max(rows) <= bound
    assert len(jk_rows) == 6
    assert all(jk <= k * len(alg.generators) for jk, k in jk_rows)


@pytest.mark.parametrize("m", [2, 5, 12])
def test_each_subspace_is_reduced_once(m, monkeypatch):
    # one elimination per kernel and per power of J: the socle series of
    # F_2[y]/(y^m) makes m + 2 rref calls (one kernel per stage, two in
    # its certificate), each resolution step two (the lifts, the
    # kernel), and the nilpotency check e - 2 (J^3, ..., J^e)
    alg = truncated_polynomial_algebra(2, m)
    rad = radical_basis(alg)
    calls = []
    real = artin.rref
    monkeypatch.setattr(artin, "rref", lambda rows, p: calls.append(1) or real(rows, p))
    assert socle_series(regular_module(alg)).dims == tuple(range(1, m + 1))
    assert len(calls) == m + 2
    for s in range(1, 4):
        calls.clear()
        assert minimal_free_resolution(alg, s) == (1,) * (s + 1)
        assert len(calls) == 2 * s
    calls.clear()
    alg._check_radical_nilpotent(rad, rad[1:], alg.gen_products)
    assert alg.nilpotency == m and len(calls) == m - 2


def test_validation_reduces_j2_and_multiplies_g_by_the_table_once(monkeypatch):
    # _generators hands J^2 to the nilpotency check, which reduces only
    # J^3, ..., J^e, and its G e_j are the gen_products: one product of
    # G by the table, on axes (1, 0), per validation
    real_rref, real_check = artin.rref, FinAlgebra._check_radical_nilpotent
    matmul = artin._matmul_mod
    calls, left = [], []

    def counting_check(self, rad, j2, ge):
        before = len(calls)
        real_check(self, rad, j2, ge)
        calls.append(("check", self.nilpotency, len(calls) - before))

    monkeypatch.setattr(artin, "rref", lambda rows, p: calls.append(1) or real_rref(rows, p))
    monkeypatch.setattr(FinAlgebra, "_check_radical_nilpotent", counting_check)
    monkeypatch.setattr(artin, "_matmul_mod", lambda a, b, p, axes=None:
                        left.append(axes == (1, 0)) or matmul(a, b, p, axes))
    for p, _, text in _workload_algebra_files():
        calls.clear()
        left.clear()
        alg = cli._parse_algebra_file(text, p)
        (e, reduced), = [c[1:] for c in calls if c != 1]
        assert e == alg.nilpotency >= 3 and reduced == e - 2
        assert sum(left) == 1
