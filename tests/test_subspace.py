import random

import pytest

from char2spec.gf import GF2, GF4, GF8, GF16, FieldSpec, code_dtype
from char2spec import matrix as mx
from char2spec import subspace as sub

import oracles


def test_span_and_member(gf4):
    s = sub.span(gf4, 3, [(1, 0, 0), (1, 1, 0)])
    assert s == sub.span(gf4, 3, [(1, 0, 0), (0, 1, 0)])
    assert s.dim == 2
    assert s.member((0, 0, 0))
    assert s.member((3, 2, 0))
    assert not s.member((0, 0, 1))
    with pytest.raises(ValueError):
        sub.span(gf4, 3, [(1, 0)])


def test_equality_is_basis_identity(gf4):
    rng = random.Random(1)
    for _ in range(100):
        s = sub.random_subspace(gf4, rng, 4, rng.randrange(0, 5))
        # re-span from random combinations of the basis: same canonical object
        mixed = []
        for _ in range(6):
            v = [0] * 4
            for row in s.basis:
                c = rng.randrange(4)
                v = [x ^ gf4.mul(c, y) for x, y in zip(v, row)]
            mixed.append(v)
        t = sub.span(gf4, 4, mixed)
        assert t.dim <= s.dim
        if t.dim == s.dim:
            assert t == s and hash(t) == hash(s)


def test_dimension_formula(gf4):
    rng = random.Random(2)
    for _ in range(1000):
        m = rng.randrange(1, 6)
        s = sub.random_subspace(gf4, rng, m, rng.randrange(0, m + 1))
        t = sub.random_subspace(gf4, rng, m, rng.randrange(0, m + 1))
        assert s.sum_with(t).dim + s.intersect(t).dim == s.dim + t.dim


def test_intersect_examples(gf4):
    s = sub.span(gf4, 3, [(1, 0, 0), (0, 1, 0)])
    t = sub.span(gf4, 3, [(0, 1, 0), (0, 0, 1)])
    assert s.intersect(s) == s
    assert s.intersect(t) == sub.span(gf4, 3, [(0, 1, 0)])


def test_intersect_membership_crosscheck(gf4):
    rng = random.Random(3)
    for _ in range(20):
        s = sub.random_subspace(gf4, rng, 4, rng.randrange(0, 5))
        t = sub.random_subspace(gf4, rng, 4, rng.randrange(0, 5))
        inter = s.intersect(t)
        for idx in range(4 ** 4):
            v = tuple((idx >> (2 * i)) & 3 for i in range(4))
            assert inter.member(v) == (s.member(v) and t.member(v))


def test_annihilator(gf4):
    full = sub.full_space(gf4, 4)
    assert full.annihilator().dim == 0
    zero = sub.span(gf4, 4, [])
    assert zero.annihilator().dim == 4
    rng = random.Random(4)
    for _ in range(1000):
        m = rng.randrange(1, 6)
        s = sub.random_subspace(gf4, rng, m, rng.randrange(0, m + 1))
        ann = s.annihilator()
        assert ann.dim == m - s.dim
        assert ann.annihilator() == s
        for row in s.basis:
            for phi in ann.basis:
                acc = 0
                for a, b in zip(row, phi):
                    acc ^= gf4.mul(a, b)
                assert acc == 0


def test_trace_orthogonal(gf4):
    full = sub.MatSubspace.from_matrices(
        gf4, (3, 3), [mx.unit(3, 3, i, j) for i in range(3) for j in range(3)])
    assert sub.trace_orthogonal(full).dim == 0
    from char2spec.constructions import sl
    for n in (2, 3):
        perp = sub.trace_orthogonal(sl(gf4, n))
        assert perp.dim == 1 and perp.member(mx.identity(n))
    rng = random.Random(5)
    for _ in range(1000):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        s = sub.MatSubspace((n, m), sub.random_subspace(gf4, rng, n * m,
                                                        rng.randrange(0, n * m + 1)))
        perp = sub.trace_orthogonal(s)
        assert perp.shape == (m, n)
        assert perp.dim == n * m - s.dim
        assert sub.trace_orthogonal(perp) == s
        # the defining pairing really vanishes
        for u in s.basis_matrices()[:2]:
            for v in perp.basis_matrices()[:2]:
                assert mx.trace(mx.mat_mul(gf4, v, u)) == 0


def test_projective_enumeration(gf4):
    pts = list(sub.enumerate_projective(gf4, 2))
    assert len(pts) == 5 == oracles.gaussian_binomial(2, 1, 4)
    assert len(set(pts)) == 5
    for fs, m in [(GF2, 5), (GF4, 4), (GF8, 3), (GF16, 2)]:
        pts = list(sub.enumerate_projective(fs, m))
        assert len(pts) == oracles.gaussian_binomial(m, 1, fs.q)
        assert len(set(pts)) == len(pts)
        for p in pts:
            first = next(x for x in p if x)
            assert first == 1


def test_digits_and_combine(gf4):
    assert sub.digits(0, 4, 3) == [0, 0, 0]
    assert sub.digits(4 * 4 * 3 + 4 * 2 + 1, 4, 3) == [1, 2, 3]
    assert sub.digits(5, 2, 2) == [1, 0]          # digits past `count` drop
    s = sub.span(gf4, 3, [(1, 0, 2), (0, 1, 1)])
    assert s.combine((2, 3)) == (2, 3, gf4.mul(2, 2) ^ 3)
    assert s.combine((0, 0)) == (0, 0, 0)
    for i in range(16):
        assert s.element_at(i) == s.combine(sub.digits(i, 4, 2))
    assert list(s.enumerate_elements()) == [s.element_at(i) for i in range(16)]
    # the full space enumerates F^n in base-q counter order, first digit fastest
    assert list(sub.full_space(GF2, 2).enumerate_elements()) == [(0, 0), (1, 0), (0, 1), (1, 1)]


def test_enumeration_orders(gf4):
    # projective points and Grassmannian free entries count with the last
    # coordinate fastest
    assert list(sub.enumerate_projective(gf4, 2)) == [(1, 0), (1, 1), (1, 2), (1, 3), (0, 1)]
    assert list(sub.enumerate_projective(GF2, 3)) == [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1)]
    planes = [w.basis for w in oracles.enumerate_grassmannian(GF2, 2, 3)]
    assert planes == [((1, 0, 0), (0, 1, 0)), ((1, 0, 0), (0, 1, 1)),
                      ((1, 0, 1), (0, 1, 0)), ((1, 0, 1), (0, 1, 1)),
                      ((1, 0, 0), (0, 0, 1)), ((1, 1, 0), (0, 0, 1)),
                      ((0, 1, 0), (0, 0, 1))]
    s = sub.span(gf4, 3, [(1, 0, 2), (0, 1, 1)])
    assert list(sub.projective_points_of(s)) == [
        s.combine(c) for c in sub.enumerate_projective(gf4, 2)]


def test_projective_blocks_concatenate_to_enumeration(monkeypatch):
    # the same points in the same order, whether a block holds a whole
    # pivot's points, several pivots' or a part of one
    cases = [(fs, m) for fs, mmax in ((GF2, 5), (GF4, 4), (GF8, 3), (FieldSpec(9), 2))
             for m in range(0, mmax + 1)]
    for size in (sub.PROJECTIVE_BLOCK, 7, 1):
        monkeypatch.setattr(sub, "PROJECTIVE_BLOCK", size)
        for fs, m in cases:
            blocks = list(sub.projective_blocks(fs, m))
            assert all(0 < len(b) <= size and b.shape[1:] == (m,)
                       and b.dtype == code_dtype(fs.degree) for b in blocks)
            got = [tuple(x) for b in blocks for x in b.tolist()]
            assert got == list(sub.enumerate_projective(fs, m))


def test_projective_blocks_budget():
    # raised at the call, before any block is made
    with pytest.raises(sub.BudgetExceeded) as exc:
        sub.projective_blocks(FieldSpec(16), 3, budget=1000)
    assert exc.value.needed == 65536 ** 2 + 65536 + 1 and exc.value.budget == 1000
    assert sum(map(len, sub.projective_blocks(GF4, 3, budget=21))) == 21
    with pytest.raises(sub.BudgetExceeded):
        sub.projective_blocks(GF4, 3, budget=20)


def test_grassmannian_counts():
    cases = [(fs, d, m) for fs, mmax in ((GF2, 6), (GF4, 5), (GF8, 4), (GF16, 3))
             for m in range(1, mmax + 1) for d in range(0, m + 1)]
    for fs, d, m in cases:
        expect = oracles.gaussian_binomial(m, d, fs.q)
        if expect > 10 ** 5:
            continue
        seen = set()
        for w in oracles.enumerate_grassmannian(fs, d, m):
            assert w.dim == d
            seen.add(w.basis)
        assert len(seen) == expect, (fs.q, d, m)
    assert oracles.gaussian_binomial(5, 2, 4) == 5797


def test_grassmannian_count_large_stream():
    # a sub-million stream, counted without materializing the bases
    expect = oracles.gaussian_binomial(6, 3, 4)
    assert expect == 376805
    assert sum(1 for _ in oracles.enumerate_grassmannian(GF4, 3, 6)) == expect


def test_enumeration_budget():
    with pytest.raises(sub.BudgetExceeded):
        list(oracles.enumerate_grassmannian(GF4, 2, 5, budget=100))
    s = sub.random_subspace(GF4, random.Random(0), 6, 5)
    with pytest.raises(sub.BudgetExceeded):
        list(s.enumerate_elements(budget=100))


def test_element_enumeration(gf4):
    zero_dim = sub.span(gf4, 3, [])
    assert list(zero_dim.enumerate_elements()) == [(0, 0, 0)]
    s = sub.span(gf4, 3, [(1, 0, 2), (0, 1, 1)])
    elems = list(s.enumerate_elements())
    assert len(elems) == 16 and len(set(elems)) == 16
    assert all(s.member(v) for v in elems)
    assert elems[0] == (0, 0, 0)


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, FieldSpec(9)], ids=["gf2", "gf4", "gf8", "gf2^9"])
def test_annihilator_rows_project_onto_the_quotient(fs):
    # read as a matrix, the annihilator rows of W are the projection
    # V -> V/W in the chart of W's non-pivot columns: it kills W, is the
    # identity on the non-pivot unit vectors, and equals reducing modulo W
    # and dropping the pivot coordinates
    rng = random.Random(fs.degree)
    for m in range(1, 6):
        for d in (0, m, *(rng.randrange(m + 1) for _ in range(4))):
            w = sub.random_subspace(fs, rng, m, d)
            rows = w.annihilator_rows()
            pi = mx.Mat(len(rows), m, [x for row in rows for x in row])
            free = [j for j in range(m) if j not in w.pivots]
            assert len(free) == m - d
            for row in w.basis:
                assert mx.mat_vec(fs, pi, row) == (0,) * len(free)
            for r, f in enumerate(free):
                e = tuple(int(j == f) for j in range(m))
                assert mx.mat_vec(fs, pi, e) == tuple(int(i == r) for i in range(len(free)))
            assert pi == oracles.quotient_projection(fs, w), (m, w.basis)


def test_index_chunks():
    assert sub.index_chunks(10, 3) == [(0, 4), (4, 8), (8, 10)]
    assert sub.index_chunks(4, 8) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert sub.index_chunks(0, 4) == []


def test_mat_subspace_json_roundtrip(gf4):
    s = sub.MatSubspace.from_matrices(gf4, (2, 2),
                                      [mx.unit(2, 2, 0, 1), mx.identity(2)])
    back = oracles.mat_subspace_from_json(gf4, s.to_json())
    assert back == s
