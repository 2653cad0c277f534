import itertools
import random

import numpy as np
import pytest

from char2spec.gf import GF2, GF4, GF8, GF16, code_dtype
from char2spec import matrix as mx
from char2spec import upoly as up
from char2spec import _bulk

from oracles import (WIDE_FIELDS, all_monic, charpoly_cofactor, conjugate, matrix_eval_poly,
                     min_poly_by_search, rref)


def test_basic_ops(gf4):
    assert mx.rank(gf4, mx.zero(3)) == 0
    assert mx.rank(gf4, mx.identity(4)) == 4
    assert mx.rank(gf4, mx.from_rows([[2, 1], [1, 2]])) == 2  # det w^2 + 1 = w
    assert mx.rank(gf4, mx.from_rows([[1, 2], [2, 3]])) == 1  # det w^2 + w^2 = 0
    a = mx.from_rows([[1, 2], [3, 0]])
    assert mx.mat_add(a, a) == mx.zero(2)
    assert mx.transpose(a) == mx.from_rows([[1, 3], [2, 0]])
    assert mx.trace(a) == 1
    with pytest.raises(ValueError):
        mx.mat_mul(gf4, a, mx.zero(3))
    with pytest.raises(ValueError):
        mx.trace(mx.zero(2, 3))


def test_place():
    b = mx.from_rows([[1, 2, 3], [0, 3, 1]])
    assert mx.place(3, 5, 1, 2, b) == mx.from_rows([[0, 0, 0, 0, 0],
                                                  [0, 0, 1, 2, 3],
                                                  [0, 0, 0, 3, 1]])
    assert mx.place(4, 3, 2, 0, b) == mx.from_rows([[0, 0, 0], [0, 0, 0],
                                                  [1, 2, 3], [0, 3, 1]])
    # a 1 x 1 block on the last row and column of a non-square target
    assert mx.place(2, 4, 1, 3, mx.from_rows([[2]])) == mx.Mat(2, 4, [0] * 7 + [2])
    assert mx.place(2, 2, 0, 0, mx.zero(2)) == mx.zero(2)
    for n, m, i, j in ((2, 5, 1, 0), (3, 4, 0, 2), (3, 5, -1, 0), (3, 5, 0, -1)):
        with pytest.raises(ValueError):
            mx.place(n, m, i, j, b)
    # the top-right block of the choice solver: r[i, j - p] if i < p <= j
    rng = random.Random(3)
    for n in range(2, 6):
        for p in range(1, n):
            r = mx.Mat(p, n - p, [rng.randrange(4) for _ in range(p * (n - p))])
            old = mx.Mat(n, n, [r[i, j - p] if i < p <= j else 0
                                for i in range(n) for j in range(n)])
            assert mx.place(n, n, 0, p, r) == old


def test_rref_reports_pivots(gf4):
    a = mx.from_rows([[0, 1, 2], [0, 2, 2], [0, 0, 0]])
    r, pivots = rref(gf4, a)
    assert pivots == [1, 2]
    assert r.row(0)[1] == 1 and r.row(1)[2] == 1
    assert r.row(0)[2] == 0  # fully reduced above the second pivot


def test_companion_layout_and_roundtrip(gf4):
    assert mx.companion((1, 1, 1)) == mx.from_rows([[0, 1], [1, 1]])
    assert mx.companion((0, 1)) == mx.from_rows([[0]])
    with pytest.raises(ValueError):
        mx.companion((1, 2))  # not monic
    for d in range(1, 5):
        for r in all_monic(gf4, d):
            c = mx.companion(r)
            assert mx.char_poly(gf4, c) == r
            assert mx.min_poly(gf4, c) == r


def test_char_poly_examples(gf4):
    r = up.poly([1, 2, 0, 1])  # t^3 + w t + 1
    assert mx.char_poly(gf4, mx.companion(r)) == r
    n = 4
    expect = up.ONE
    for _ in range(n):
        expect = up.poly_mul(gf4, expect, (1, 1))
    assert mx.char_poly(gf4, mx.identity(n)) == expect  # (t+1)^n


def test_char_poly_against_cofactor_oracle(gf4):
    rng = random.Random(2)
    for _ in range(200):
        n = rng.randrange(1, 5)
        a = mx.random_matrix(gf4, rng, n)
        assert mx.char_poly(gf4, a) == charpoly_cofactor(gf4, a)


def test_two_char_poly_algorithms_agree(gf4, gf8):
    # exhaustive for 2x2 over GF(4)
    for idx in range(4 ** 4):
        e = [(idx >> (2 * i)) & 3 for i in range(4)]
        a = mx.Mat(2, 2, e)
        assert mx.char_poly_hessenberg(gf4, a) == mx.char_poly_berkowitz(gf4, a)
    rng = random.Random(3)
    for fs in (gf4, gf8):
        for _ in range(300):
            n = rng.randrange(1, 7)
            a = mx.random_matrix(fs, rng, n)
            assert mx.char_poly_hessenberg(fs, a) == mx.char_poly_berkowitz(fs, a)


def test_char_poly_transpose_invariant(gf4):
    for idx in range(4 ** 4):
        e = [(idx >> (2 * i)) & 3 for i in range(4)]
        a = mx.Mat(2, 2, e)
        assert mx.char_poly(gf4, a) == mx.char_poly(gf4, mx.transpose(a))
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randrange(1, 6)
        a = mx.random_matrix(gf4, rng, n)
        assert mx.char_poly(gf4, a) == mx.char_poly(gf4, mx.transpose(a))


def test_min_poly(gf4):
    assert mx.min_poly(gf4, mx.zero(3)) == (0, 1)            # t
    assert mx.min_poly(gf4, mx.identity(3)) == (1, 1)        # t + 1
    assert mx.min_poly(gf4, mx.unit(3, 3, 0, 1)) == (0, 0, 1)  # t^2
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 6)
        a = mx.random_matrix(gf4, rng, n)
        mp = mx.min_poly(gf4, a)
        cp = mx.char_poly(gf4, a)
        assert not up.poly_divmod(gf4, cp, mp)[1]  # mp divides cp
        assert matrix_eval_poly(gf4, mp, a) == mx.zero(n)


def test_min_poly_matches_the_search_oracle():
    for entries in itertools.product(range(2), repeat=9):
        a = mx.Mat(3, 3, entries)
        assert mx.min_poly(GF2, a) == min_poly_by_search(GF2, a), a
    rng = random.Random(20)
    for fs, count in ((GF4, 90), (GF8, 45)):
        for t in range(count):
            n = rng.randrange(4)
            if t % 3 == 0:    # a conjugated scalar or Jordan-like matrix
                c = rng.randrange(fs.q)
                jordan = mx.Mat(n, n, [c if i == j else rng.randrange(2) * (j == i + 1)
                                       for i in range(n) for j in range(n)])
                a = conjugate(fs, jordan, mx.random_invertible(fs, rng, n))
            elif t % 3 == 1:  # sparse
                a = mx.Mat(n, n, [rng.randrange(fs.q) if rng.random() < 0.3 else 0
                                  for _ in range(n * n)])
            else:
                a = mx.random_matrix(fs, rng, n)
            assert mx.min_poly(fs, a) == min_poly_by_search(fs, a), a
    assert mx.min_poly(GF4, mx.zero(0)) == (1,)


def test_tensor(gf4, gf8):
    e1s = (1, 0)
    assert mx.tensor(gf4, e1s, (0, 1)) == mx.unit(2, 2, 1, 0)
    assert mx.tensor(gf4, e1s, (1, 0)) == mx.unit(2, 2, 0, 0)
    rng = random.Random(6)
    for _ in range(1000):
        n = rng.randrange(1, 5)
        phi = tuple(rng.randrange(gf8.q) for _ in range(n))
        y = tuple(rng.randrange(gf8.q) for _ in range(n))
        t = mx.tensor(gf8, phi, y)
        dot = 0
        for a, b in zip(phi, y):
            dot ^= gf8.mul(a, b)
        assert mx.trace(t) == dot
        assert mx.rank(gf8, t) <= 1
    with pytest.raises(ValueError):
        mx.tensor(gf4, (1, 0), (1, 0, 0))


def test_conjugate(gf4):
    a = mx.from_rows([[1, 2], [0, 3]])
    assert conjugate(gf4, a, mx.identity(2)) == a
    perm = mx.from_rows([[0, 1], [1, 0]])
    assert conjugate(gf4, mx.unit(2, 2, 0, 1), perm) == mx.unit(2, 2, 1, 0)
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randrange(1, 6)
        a = mx.random_matrix(gf4, rng, n)
        p = mx.random_invertible(gf4, rng, n)
        assert mx.char_poly(gf4, conjugate(gf4, a, p)) == mx.char_poly(gf4, a)
    singular = mx.from_rows([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        conjugate(gf4, a, singular)


def test_regular_hessenberg_predicate(gf4):
    assert mx.is_regular_hessenberg(mx.companion((1, 0, 0, 1)))
    assert not mx.is_regular_hessenberg(mx.zero(3))          # zero subdiagonal
    m = mx.from_rows([[1, 2, 3], [1, 0, 1], [1, 2, 1]])      # entry (3,1) is below
    assert not mx.is_regular_hessenberg(m)
    assert mx.is_regular_hessenberg(mx.from_rows([[1, 2, 3], [1, 0, 1], [0, 2, 1]]))


def test_json_roundtrip():
    a = mx.from_rows([[1, 2], [3, 0]])
    assert mx.mat_from_json(a.to_json()) == a


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, GF16] + WIDE_FIELDS)
def test_batch_charpoly_matches_scalar(fs):
    # batch sizes around the 64-lane word of the bit-sliced kernel; uint8
    # codes up to k = 8, uint16 above
    rng = np.random.default_rng(9)
    dtype = code_dtype(fs.degree)
    for n in range(1, 7):
        for size in (1, 63, 64, 65, 300):
            mats = rng.integers(0, fs.q, size=(size, n, n)).astype(dtype)
            planes = _bulk.code_planes(mats.reshape(size, n * n), fs.degree)
            batch = _bulk.monic_codes(
                _bulk.charpoly_planes(fs, planes.reshape(n, n, fs.degree, -1)), size)
            assert batch.shape == (size, n + 1) and batch.dtype == dtype
            for i in range(0, size, 1 if size <= 65 else 7):
                m = mx.Mat(n, n, [int(x) for x in mats[i].reshape(-1)])
                got = tuple(int(c) for c in batch[i])
                assert got == mx.char_poly_hessenberg(fs, m) == mx.char_poly_berkowitz(fs, m), \
                    (fs, n, size, i)
