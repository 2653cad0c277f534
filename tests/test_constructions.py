import random
from dataclasses import replace
from math import comb

import pytest

from char2spec.gf import GF2, GF4, GF8
from char2spec import matrix as mx
from char2spec import constructions as cons
from char2spec.subspace import MatSubspace, trace_orthogonal
from char2spec.spectra import check_space, parse_predicate


@pytest.mark.parametrize("fs", [GF4, GF2])
def test_catalogue_entries_build_to_their_dimension(fs):
    # every entry is a build expression, and its stated dimension is both
    # the built one and the structural count of the expression
    for entry in cons.CATALOGUE:
        space, expected = cons.build_with_expected(fs, entry.expr)
        assert space.dim == entry.dim == expected, entry.expr


@pytest.mark.parametrize("fs", [GF2, GF4, GF8])
def test_catalogue_claims_hold_and_are_sharp(fs):
    # every claim holds (exhaustive up to 2^16 elements, seeded samples
    # past it), and the claim one bound lower fails wherever the bound is
    # positive
    for entry in cons.CATALOGUE:
        if entry.pred is None:
            continue
        space, pred = cons.build(fs, entry.expr), parse_predicate(entry.pred)
        v = check_space(fs, space, pred, budget=1 << 16, samples=2000, seed=0)
        assert v.holds, (entry.expr, entry.pred)
        if pred.k > 0:
            lower = replace(pred, k=pred.k - 1)
            v = check_space(fs, space, lower, budget=1 << 16, samples=2000, seed=0)
            assert not v.holds, (entry.expr, lower.name)


def test_base_space_dimensions(gf4):
    assert cons.nt(gf4, 4).dim == 6
    assert cons.sl(gf4, 2).dim == 3
    assert cons.alts(gf4, 3).dim == 3
    assert cons.syms(gf4, 3).dim == 6
    assert cons.ut(gf4, 4).dim == 10


@pytest.mark.parametrize("fs", [GF2, GF4])
def test_sl_is_the_trace_dual_of_the_scalars(fs):
    for n in range(1, 6):
        s = cons.sl(fs, n)
        assert s.dim == n * n - 1
        assert s == trace_orthogonal(MatSubspace.from_matrices(fs, (n, n), [mx.identity(n)]))


@pytest.mark.parametrize("fs", [GF2, GF4])
def test_alts_are_symmetric_with_zero_diagonal(fs):
    for n in range(1, 7):
        s = cons.alts(fs, n)
        assert s.dim == comb(n, 2)
        for b in s.basis_matrices():
            assert mx.transpose(b) == b
            assert all(b[i, i] == 0 for i in range(n))


def test_joint(gf4):
    j = cons.joint(gf4, cons.sl(gf4, 2), cons.nt(gf4, 2))
    assert j.dim == 3 + 1 + 4 == comb(4, 2) + 2
    tiny = cons.joint(gf4, cons.zero_space(gf4, 1), cons.zero_space(gf4, 1))
    assert tiny.dim == 1 and tiny.member(mx.unit(2, 2, 0, 1))
    a = cons.joint(gf4, cons.joint(gf4, cons.sl(gf4, 2), cons.nt(gf4, 1)), cons.nt(gf4, 1))
    b = cons.joint(gf4, cons.sl(gf4, 2), cons.joint(gf4, cons.nt(gf4, 1), cons.nt(gf4, 1)))
    assert a == b == cons.joint(gf4, cons.sl(gf4, 2), cons.nt(gf4, 1), cons.nt(gf4, 1))


def test_joint_membership_crosscheck(gf4):
    j = cons.joint(gf4, cons.sl(gf4, 2), cons.nt(gf4, 2))
    rng = random.Random(1)
    # every block assembly with A in sl2, C in nt2, B free is a member
    for _ in range(200):
        a = rng.randrange(4 ** 3)
        amat = cons.sl(gf4, 2).element_at(a)
        cmat = cons.nt(gf4, 2).element_at(rng.randrange(4))
        rows = [
            list(amat.row(0)) + [rng.randrange(4), rng.randrange(4)],
            list(amat.row(1)) + [rng.randrange(4), rng.randrange(4)],
            [0, 0] + list(cmat.row(0)),
            [0, 0] + list(cmat.row(1)),
        ]
        assert j.member(mx.from_rows(rows))
    # and every member has that block structure
    count = 0
    for m in j.enumerate_elements():
        count += 1
        assert m[2, 0] == m[2, 1] == m[3, 0] == m[3, 1] == 0
        assert m[0, 0] ^ m[1, 1] == 0          # sl2 block has trace 0
        assert m[2, 2] == m[3, 3] == m[3, 2] == 0
    assert count == 4 ** 8


def test_hurdle_template(gf4):
    h = cons.hurdle_template(gf4, 4)
    assert h.dim == 7
    assert cons.hurdle_template(gf4, 2) == cons.sl(gf4, 2)
    # every element kills e_1 .. e_{n-2}: the first n-2 columns vanish
    for b in h.basis_matrices():
        for j in range(2):
            assert all(b[i, j] == 0 for i in range(4))


def test_b2m(gf4, gf8):
    assert cons.b2m(gf4, 2).dim == 10
    assert cons.b2m(gf4, 1).dim == 3
    # the symplectic-symmetric definition: K M is symmetric, K = k2m(m)
    for fs in (GF2, GF4, GF8):
        for m in (1, 2, 3):
            k = cons.k2m(fs, m)
            s = cons.b2m(fs, m)
            assert s.dim == m * m + m * (m + 1)
            for b in s.basis_matrices():
                km = mx.mat_mul(fs, k, b)
                assert mx.transpose(km) == km
    k = cons.k2m(gf4, 2)
    assert mx.rank(gf4, k) == 4
    assert mx.transpose(k) == k and all(k[i, i] == 0 for i in range(4))
    lhs = cons.b2m(gf4, 2)
    rhs = cons.mul_space_left(gf4, mx.inverse(gf4, k), cons.syms(gf4, 4))
    assert lhs == rhs
    v = check_space(gf4, cons.b2m(gf4, 1), parse_predicate("2bar-spec"))
    assert v.holds


def test_line_plus(gf4):
    t = cons.joint(gf4, cons.nt(gf4, 1), cons.sl(gf4, 2), cons.nt(gf4, 2))
    lp = cons.line_plus(gf4, t)
    assert lp.dim == comb(5, 2) + 3
    assert lp.member(mx.identity(5))
    with pytest.raises(ValueError):
        cons.line_plus(gf4, cons.full(gf4, 2))
    # sl2 contains I in characteristic 2, so adjoining the line must fail
    with pytest.raises(ValueError):
        cons.line_plus(gf4, cons.sl(gf4, 2))


def test_mats_p(gf4):
    assert cons.mats_p(gf4, 3, mx.identity(3)) == cons.syms(gf4, 3)
    with pytest.raises(ValueError):
        cons.mats_p(gf4, 2, mx.from_rows([[1, 1], [1, 1]]))
    p = mx.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    s = cons.mats_p(gf4, 3, p)
    assert s.dim == 6
    for b in s.basis_matrices():
        back = mx.mat_mul(gf4, b, mx.inverse(gf4, p))
        assert back == mx.transpose(back)


def test_case_iv(gf4):
    s = cons.case_iv_n6(gf4)
    assert s.dim == 18
    for m in s.basis_matrices() + [s.element_at(17), s.element_at(4 ** 9 + 5)]:
        # block upper triangular in 2 x 2 blocks
        assert all(m[i, j] == 0 for i in range(6) for j in range(6) if i // 2 > j // 2)
        first = [[m[i, j] for j in range(2)] for i in range(2)]
        third = [[m[4 + i, 4 + j] for j in range(2)] for i in range(2)]
        assert first == third
        assert mx.trace(m) == 0
        assert m[0, 0] ^ m[1, 1] == 0


def test_build_parser(gf4):
    assert cons.build(gf4, "joint(sl2,nt2)") == cons.sl2_joint_nt(gf4, 4)
    assert cons.build(gf4, "line_plus(joint(nt1,sl2,nt2))") == cons.optimal_2bar(gf4, 5, 1)
    space, expected = cons.build_with_expected(gf4, "line_plus(joint(nt1,sl2,nt2))")
    assert expected == comb(5, 2) + 3 == space.dim
    space, expected = cons.build_with_expected(gf4, "b2m2")
    assert expected == 10 == space.dim
    assert cons.build(gf4, "mats_p4").dim == 10
    assert cons.build(gf4, "case_iv_n6").dim == 18
    for bad in ("bogus3", "joint(sl2", "line_plus(sl2,sl2)", "mats_p3"):
        with pytest.raises(ValueError):
            cons.build(gf4, bad)


# every atom of the construction grammar and the constructor it names
_DIRECT = {
    "nt": cons.nt, "sl": cons.sl, "syms": cons.syms, "alts": cons.alts, "ut": cons.ut,
    "full": cons.full, "hurdle": cons.hurdle_template, "zero": cons.zero_space,
    "b2m": cons.b2m, "mats_p": lambda fs, n: cons.mats_p(fs, n, cons.k2m(fs, n // 2)),
}


def test_direct_constructors_cover_every_atom():
    assert set(_DIRECT) == set(cons._ATOMS)


@pytest.mark.parametrize("name", list(_DIRECT))
def test_atoms_build_their_constructor(gf4, name):
    sizes = {"mats_p": (2, 4), "hurdle": (2, 3, 4, 5)}.get(name, (1, 2, 3, 4, 5))
    for n in sizes:
        space, expected = cons.build_with_expected(gf4, f"{name}{n}")
        assert space == _DIRECT[name](gf4, n), f"{name}{n}"
        assert expected == space.dim, f"{name}{n}"
