import inspect
import random
import time
import tracemalloc
from collections import Counter
from itertools import product
from math import comb

import numpy as np
import pytest

from char2spec.gf import GF2, GF4, GF8, GF16, FieldSpec
from char2spec import matrix as mx
from char2spec import subspace as sub
from char2spec import upoly as up
from char2spec import constructions as cons
from char2spec import structure as st
from char2spec import _bulk
from char2spec import spectra
from char2spec.spectra import profile

import oracles
from oracles import (all_monic, alternator_grams, first_failing_index,
                     vanishing_points_two_pass)


# ----------------------------------------------------------------------
# adapted scans
# ----------------------------------------------------------------------
def test_adapted_scan_nt3(gf4):
    rep = st.adapted_scan(gf4, cons.nt(gf4, 3))
    meets = {p.point: p.meet_dim for p in rep.points}
    assert meets[(0, 0, 1)] == 0          # e3 is adapted
    assert meets[(1, 0, 0)] > 0           # e1 is not: E_{1,2}-style tensors
    assert rep.counts()["points"] == 21


def test_adapted_scan_hurdle_and_full(gf4):
    for n in (3, 4):
        assert len(st.adapted_scan(gf4, cons.hurdle_template(gf4, n)).adapted) == 0
        assert len(st.adapted_scan(gf4, cons.full(gf4, n)).adapted) == 0


def test_adapted_scan_similarity_covariance(gf4):
    rng = random.Random(1)
    for n in (2, 3):
        s = sub.MatSubspace((n, n), sub.random_subspace(gf4, rng, n * n, 4))
        p = mx.random_invertible(gf4, rng, n)
        conj = cons.conjugate_space(gf4, s, p)
        pts = list(sub.enumerate_projective(gf4, n))
        assert (st.adapted_meet_dims(gf4, s, pts).tolist()
                == st.adapted_meet_dims(gf4, conj, [mx.mat_vec(gf4, p, x) for x in pts]).tolist())


def test_point_classification(gf4):
    rep = st.adapted_scan(gf4, cons.nt(gf4, 3))
    for p in rep.points:
        if p.meet_dim == 0:
            assert p.klass == "adapted"
        elif p.meet_dim == 1:
            assert p.klass == "weakly_adapted"
        else:
            assert p.klass == "neither"


# ----------------------------------------------------------------------
# hurdles
# ----------------------------------------------------------------------
def test_hurdle_tensor_space_dimension(gf4):
    for n in (3, 4, 5):
        plane = sub.span(gf4, n, [tuple(1 if i == n - 2 else 0 for i in range(n)),
                                  tuple(1 if i == n - 1 else 0 for i in range(n))])
        wp = oracles.hurdle_tensor_space(gf4, plane)
        assert wp.dim == 2 * n - 1
        assert wp == cons.hurdle_template(gf4, n)


def test_sl3_contains_every_hurdle_tensor_space(gf2, gf4):
    # In characteristic 2 every phi (x) y with phi(y) = 0 is trace-zero, so sl3
    # contains W_P for every dual plane P and detect_hurdle(sl3) finds one:
    # the reason the acceptance check on sl3 is red.
    for fs in (gf2, gf4):
        sl3 = cons.sl(fs, 3)
        planes = list(oracles.enumerate_grassmannian(fs, 2, 3))
        assert len(planes) == fs.q ** 2 + fs.q + 1
        for plane in planes:
            assert sl3.contains_space(oracles.hurdle_tensor_space(fs, plane))


def test_detect_hurdle_on_template(gf4):
    for n in (3, 4):
        cert = st.detect_hurdle(gf4, cons.hurdle_template(gf4, n))
        assert cert is not None
        expect = sub.span(gf4, n, [tuple(1 if i == n - 2 else 0 for i in range(n)),
                                   tuple(1 if i == n - 1 else 0 for i in range(n))])
        assert cert.plane == expect
        assert cert.kernel.dim == n - 2


def test_detect_hurdle_on_conjugates(gf4):
    rng = random.Random(2)
    for n in (3, 4):
        tpl = cons.hurdle_template(gf4, n)
        for _ in range(5):
            s = cons.conjugate_space(gf4, tpl, mx.random_invertible(gf4, rng, n))
            cert = st.detect_hurdle(gf4, s)
            assert cert is not None
            assert st.certifies_hurdle(gf4, s, cert.plane)
            assert len(st.adapted_scan(gf4, s).adapted) == 0


def test_detect_hurdle_negatives(gf4):
    assert st.detect_hurdle(gf4, cons.nt(gf4, 3)) is None
    assert st.detect_hurdle(gf4, cons.b2m(gf4, 2)) is None
    # sl2 v sl2 is a hurdle
    assert st.detect_hurdle(gf4, cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))) is not None
    # in characteristic 2 every trace-zero tensor lies in sl_n, so sl_3
    # certifies for every dual plane (and accordingly has no adapted vector)
    cert = st.detect_hurdle(gf4, cons.sl(gf4, 3))
    assert cert is not None
    assert len(st.adapted_scan(gf4, cons.sl(gf4, 3)).adapted) == 0


def test_detect_hurdle_budget(gf4):
    # the search walks no planes, so it takes no budget and answers nt4
    # whatever the number of its planes
    assert "budget" not in inspect.signature(st.detect_hurdle).parameters
    assert st.detect_hurdle(gf4, cons.nt(gf4, 4)) is None


def _dual_form_cases(fs, n_max, dims_step=1):
    """Random spaces of every dimension 0..n^2 (every dims_step-th one) for
    n = 2..n_max, then conjugated hurdle templates and named spaces."""
    rng = random.Random(100 + fs.q)
    for n in range(2, n_max + 1):
        for d in range(0, n * n + 1, dims_step):
            yield sub.MatSubspace((n, n), sub.random_subspace(fs, rng, n * n, d))
        if n >= 3:
            tpl = cons.hurdle_template(fs, n)
            yield from (cons.conjugate_space(fs, tpl, mx.random_invertible(fs, rng, n))
                        for _ in range(2))
            yield from (cons.nt(fs, n), cons.sl(fs, n), cons.ut(fs, n))


@pytest.mark.parametrize("fs,n_max,dims_step", [(GF2, 4, 1), (GF4, 4, 1), (GF8, 3, 1),
                                                (GF8, 4, 4)],
                         ids=["gf2", "gf4", "gf8", "gf8-n4"])
def test_dual_forms_match_primal_oracles(fs, n_max, dims_step):
    hurdles = 0
    for s in _dual_form_cases(fs, n_max, dims_step):
        rep = st.adapted_scan(fs, s)
        assert [p.meet_dim for p in rep.points] == [
            oracles.adapted_meet_dim(fs, s, p.point) for p in rep.points]
        cert = st.detect_hurdle(fs, s)
        want = oracles.detect_hurdle(fs, s)
        assert (None if cert is None else cert.plane) == want
        hurdles += want is not None
    assert hurdles >= 4


def test_dual_forms_over_a_wide_field():
    # k = 9: no multiplication table, so the code kernels multiply by
    # shift-and-XOR; the primal oracles are too slow for whole scans here
    fs = FieldSpec(9)
    rng = random.Random(9)
    for d in range(0, 5):
        s = sub.MatSubspace((2, 2), sub.random_subspace(fs, rng, 4, d))
        cert = st.detect_hurdle(fs, s)
        assert (None if cert is None else cert.plane) == oracles.detect_hurdle(fs, s)
    for d in (0, 2, 5, 8, 9):
        s = sub.MatSubspace((3, 3), sub.random_subspace(fs, rng, 9, d))
        pts = [tuple(rng.randrange(fs.q) for _ in range(3)) for _ in range(12)]
        pts = [x for x in pts if any(x)] + [(0, 0, 1), (1, 0, 0)]
        assert st.adapted_meet_dims(fs, s, pts).tolist() == [
            oracles.adapted_meet_dim(fs, s, x) for x in pts]
    # the first plane (pivots 0, 1, no free entries) certifies the template
    # conjugated by the reversal; the plain template's plane comes last
    rev = mx.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
    flipped = cons.conjugate_space(fs, cons.hurdle_template(fs, 3), rev)
    plane = st.detect_hurdle(fs, flipped).plane
    assert plane == sub.span(fs, 3, [(1, 0, 0), (0, 1, 0)]) == oracles.detect_hurdle(fs, flipped)
    cert = st.detect_hurdle(fs, cons.hurdle_template(fs, 3))
    assert cert.plane == sub.span(fs, 3, [(0, 1, 0), (0, 0, 1)])
    assert st.detect_hurdle(fs, cons.nt(fs, 3)) is None


def _perp_of(fs, n, us):
    """The space S with S-perp = span(us)."""
    return sub.trace_orthogonal(sub.MatSubspace((n, n), sub.VecSubspace(
        fs, n * n, [u.entries for u in us])))


def _eigen_space(fs, rng, n):
    """A space whose S-perp is spanned by up to two operators P^-1 D P with
    D diagonal in runs of equal eigenvalues, so that S-perp often has
    several common eigenspaces of dimension >= 2; sometimes one random
    element is added to S."""
    p = mx.random_invertible(fs, rng, n)
    us = []
    for _ in range(rng.randrange(3)):
        vals = []
        while len(vals) < n:
            vals += [rng.randrange(fs.q)] * rng.randrange(1, 4)
        d = mx.Mat(n, n, [vals[i] if i == j else 0 for i in range(n) for j in range(n)])
        us.append(mx.mat_mul(fs, mx.inverse(fs, p), mx.mat_mul(fs, d, p)))
    s = _perp_of(fs, n, us)
    if rng.randrange(3) == 0:
        s = s.sum_with(sub.MatSubspace((n, n), sub.random_subspace(fs, rng, n * n, 1)))
    return s


def test_detect_hurdle_matches_the_block_filter_on_conjugates(gf4):
    rng = random.Random(15)
    for n in (3, 4, 5):
        tpl = cons.hurdle_template(gf4, n)
        for i in range(6):
            s = cons.conjugate_space(gf4, tpl, mx.random_invertible(gf4, rng, n))
            if i % 2:       # widen the space: it may stop being a hurdle
                s = s.sum_with(sub.MatSubspace((n, n), sub.random_subspace(gf4, rng, n * n, 1)))
            cert = st.detect_hurdle(gf4, s)
            assert (None if cert is None else cert.plane) == oracles.detect_hurdle_blocks(gf4, s)
            assert i % 2 or cert is not None


def test_detect_hurdle_matches_the_oracles_with_several_eigenspaces():
    several = 0
    for fs, n_max, count in ((GF2, 5, 60), (GF4, 5, 60), (GF8, 4, 40), (GF16, 4, 20)):
        rng = random.Random(fs.q)
        for _ in range(count):
            n = rng.randrange(2, n_max + 1)
            s = _eigen_space(fs, rng, n)
            several += len(st.common_eigenspaces(
                fs, sub.trace_orthogonal(s).basis_matrices(), n)) > 1
            cert = st.detect_hurdle(fs, s)
            assert (None if cert is None else cert.plane) == oracles.detect_hurdle_blocks(fs, s)
    assert several >= 10


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, GF16], ids=["gf2", "gf4", "gf8", "gf16"])
def test_detect_hurdle_matches_the_primal_oracle(fs):
    rng = random.Random(200 + fs.q)
    found = 0
    for n in (1, 2, 3):
        for _ in range(6 if fs.q < 16 else 3):
            for s in (sub.MatSubspace((n, n), sub.random_subspace(
                          fs, rng, n * n, rng.randrange(n * n + 1))),
                      _eigen_space(fs, rng, n)):
                cert = st.detect_hurdle(fs, s)
                want = oracles.detect_hurdle(fs, s)
                assert (None if cert is None else cert.plane) == want
                found += want is not None
    assert found >= 3


def test_detect_hurdle_tie_break_reads_the_free_entries(gf4):
    # two common eigenspaces with the same pivot pair (0, 1): the first rows
    # differ first at column 2, where w1 has 0 and w2 has 1
    w1 = [(1, 0, 0, 1), (0, 1, 1, 0)]
    w2 = [(1, 0, 1, 0), (0, 1, 0, 3)]
    p = mx.from_rows(w1 + w2)
    pinv = mx.inverse(gf4, p)
    for c1, c2 in ((1, 0), (0, 1), (2, 3)):
        d = mx.Mat(4, 4, [(c1, c1, c2, c2)[i] if i == j else 0 for i in range(4) for j in range(4)])
        s = _perp_of(gf4, 4, [mx.mat_mul(gf4, pinv, mx.mat_mul(gf4, d, p))])
        spaces = st.common_eigenspaces(gf4, sub.trace_orthogonal(s).basis_matrices(), 4)
        assert sorted(w.basis for w in spaces) == sorted([tuple(w1), tuple(w2)])
        plane = st.detect_hurdle(gf4, s).plane
        assert plane == sub.span(gf4, 4, w1) == oracles.detect_hurdle_blocks(gf4, s)


def test_detect_hurdle_on_full_and_trace_zero_spaces(gf2, gf4):
    # Mat_n has S-perp = 0 and sl_n has S-perp = F I: every plane certifies,
    # so the answer is the first plane, span(e_1, e_2)
    for fs in (gf2, gf4):
        for n in (2, 3, 4):
            e12 = sub.span(fs, n, [[int(i == j) for i in range(n)] for j in (0, 1)])
            for s in (cons.full(fs, n), cons.sl(fs, n)):
                assert st.detect_hurdle(fs, s).plane == e12


def test_detect_hurdle_in_dimensions_one_and_two(gf4):
    zero = lambda n: sub.MatSubspace((n, n), sub.VecSubspace(gf4, n * n, []))
    # F^1 has no plane
    assert st.detect_hurdle(gf4, zero(1)) is None
    assert st.detect_hurdle(gf4, cons.full(gf4, 1)) is None
    # the only plane of F^2 certifies iff S contains sl_2
    assert st.detect_hurdle(gf4, zero(2)) is None
    assert st.detect_hurdle(gf4, cons.nt(gf4, 2)) is None
    assert st.detect_hurdle(gf4, cons.sl(gf4, 2)).plane == sub.full_space(gf4, 2)
    with pytest.raises(ValueError):
        st.detect_hurdle(gf4, sub.MatSubspace((2, 3), sub.full_space(gf4, 6)))


def test_detect_hurdle_over_gf_2_16_without_walking_the_planes():
    # the Grassmannian of planes in F^3 has q^2 + q + 1 ~ 2^32 planes here,
    # far more than a walk could visit in the bound, and more than the
    # default budget of the point scans
    fs = FieldSpec(16)
    s = cons.hurdle_template(fs, 3)
    assert oracles.gaussian_binomial(3, 2, fs.q) > sub.DEFAULT_BUDGET
    t0 = time.perf_counter()
    cert = st.detect_hurdle(fs, s)
    assert time.perf_counter() - t0 < 10.0
    assert cert.plane == sub.span(fs, 3, [(0, 1, 0), (0, 0, 1)])


def test_field_roots_match_evaluation(gf2, gf8):
    for fs in (gf2, gf8, FieldSpec(9)):
        rng = random.Random(fs.q)
        for _ in range(20):
            f = up.poly([rng.randrange(fs.q) for _ in range(rng.randrange(1, 5))] + [1])
            assert st.field_roots(fs, f) == oracles.roots_by_evaluation(fs, f)


def test_certifies_hurdle_matches_every_point_of_the_plane(gf2, gf4):
    # the three-point spanning family against the tensors of every point
    for fs in (gf2, gf4):
        rng = random.Random(fs.q)
        for n in (2, 3, 4):
            for _ in range(8):
                plane = sub.random_subspace(fs, rng, n, 2)
                full = oracles.hurdle_tensor_space(fs, plane)
                assert full.dim == 2 * n - 1
                drop = sub.random_subspace(fs, rng, full.dim, full.dim - 1)
                part = sub.MatSubspace((n, n), sub.VecSubspace(
                    fs, n * n, [full.space.combine(c) for c in drop.basis]))
                other = sub.MatSubspace((n, n), sub.random_subspace(
                    fs, rng, n * n, rng.randrange(n * n + 1)))
                for s in (full, part, other, full.sum_with(other)):
                    assert st.certifies_hurdle(fs, s, plane) == oracles.certifies_hurdle(
                        fs, s, plane)
                assert not st.certifies_hurdle(fs, part, plane)


# ----------------------------------------------------------------------
# transitive rank and veils
# ----------------------------------------------------------------------
def test_transitive_rank_examples(gf4):
    for n in range(1, 6):
        assert st.transitive_rank(gf4, cons.full(gf4, n)) == n
    for n in range(2, 6):
        assert st.transitive_rank(gf4, cons.nt(gf4, n)) == n - 1
    # NT attains its rank at e_n
    basis = cons.nt(gf4, 4).basis_matrices()
    assert st.image_dim(gf4, basis, (0, 0, 0, 1)) == 3


def test_transitive_rank_rectangular(gf4):
    # operators F^2 -> F^3 spanned by two unit maps: every image is a plane
    gens = [mx.unit(3, 2, 0, 0), mx.unit(3, 2, 1, 1)]
    t = sub.MatSubspace.from_matrices(gf4, (3, 2), gens)
    assert st.transitive_rank(gf4, t) == 2          # < 3: intransitive


def test_transitive_rank_matches_scalar_oracle(monkeypatch):
    # square and rectangular, also with 2-point blocks, so that the head
    # spans several blocks
    for size in (sub.PROJECTIVE_BLOCK, 2):
        monkeypatch.setattr(sub, "PROJECTIVE_BLOCK", size)
        for fs, shapes in ((GF2, [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (4, 2), (3, 1)]),
                           (GF4, [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (1, 3)]),
                           (GF8, [(2, 2), (3, 3), (2, 3), (3, 2)]),
                           (FieldSpec(9), [(1, 1), (1, 2), (2, 1), (2, 2)])):
            for seed in (0, 1, 2):
                for t in oracles.operator_spaces(fs, random.Random(seed), shapes, 6):
                    assert st.transitive_rank(fs, t) == oracles.transitive_rank(fs, t), (fs, t)
        for fs in (GF2, GF4, GF8):
            for n in range(1, 5):
                nt = cons.nt(fs, n)
                assert st.transitive_rank(fs, nt) == oracles.transitive_rank(fs, nt) == n - 1


def test_transitive_rank_and_adapted_scan_budget():
    # ~4.3e9 points: full3 reaches rank 3 at its first point, before the
    # budget is checked; nt3 and both adapted scans are refused at once
    fs = FieldSpec(16)
    assert st.transitive_rank(fs, cons.full(fs, 3), budget=1000) == 3
    with pytest.raises(sub.BudgetExceeded):
        st.transitive_rank(fs, cons.nt(fs, 3), budget=1000)
    for t in (cons.nt(fs, 3), cons.full(fs, 3)):
        with pytest.raises(sub.BudgetExceeded):
            st.adapted_scan(fs, t, budget=1000)
    assert st.transitive_rank(GF4, cons.nt(GF4, 3), budget=21) == 2
    with pytest.raises(sub.BudgetExceeded):
        st.transitive_rank(GF4, cons.nt(GF4, 3), budget=20)
    assert st.adapted_scan(GF4, cons.nt(GF4, 3), budget=21).counts()["points"] == 21


def test_confinement_checks_report_a_scan_past_the_budget():
    # the sampled spectrum passes hold; the adapted scans of 4.3e9 and
    # 1.2e19 points are "budget" verdicts, not exceptions
    fs = FieldSpec(16)
    phi = (1, 0, 0)
    s = sub.MatSubspace.from_matrices(
        fs, (3, 3), [mx.tensor(fs, phi, tuple(int(i == j) for j in range(3)))
                     for i in range(3)])
    v = st.confinement_first_check(fs, s, phi, budget=1, samples=50)
    assert v.outcome == "budget"
    assert v.detail == {"reason": "enumeration of 4295032833 objects exceeds budget 16777216"}
    v = st.confinement_third_check(fs, st.third_confinement_template(fs, 5), budget=1,
                                   samples=50)
    assert v.outcome == "budget" and "exceeds budget 16777216" in v.detail["reason"]
    h, g = sub.span(fs, 3, [(0, 1, 0), (0, 0, 1)]), sub.span(fs, 3, [phi])
    v = st.confinement_second_check(fs, st.second_confinement_generators(fs, h, g), h, g,
                                    budget=1, samples=50)
    assert v.detail == {"reason": "enumeration of 4295032833 objects exceeds budget 16777216"}


def test_transitive_rank_memory_is_bounded_by_the_block():
    # nt3 over GF(2^8): 65 793 points and no point of rank 3, so the scan
    # reads them all; ranked all at once they would take ~11 MB
    fs = FieldSpec(8)
    t = cons.nt(fs, 3)
    st.transitive_rank(fs, cons.nt(fs, 2))      # field tables built
    tracemalloc.start()
    try:
        got = st.transitive_rank(fs, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == 2
    assert peak <= 5 * 10 ** 6


def test_adapted_scan_blocks_do_not_change_the_report(monkeypatch):
    want = [st.adapted_scan(GF4, cons.build(GF4, c)).to_json() for c in ("nt3", "hurdle4")]
    monkeypatch.setattr(sub, "PROJECTIVE_BLOCK", 5)
    assert [st.adapted_scan(GF4, cons.build(GF4, c)).to_json()
            for c in ("nt3", "hurdle4")] == want


def test_intransitivity_and_veil(gf4):
    n = 3
    into_e1 = sub.MatSubspace.from_matrices(
        gf4, (n, n), [mx.unit(n, n, 0, j) for j in range(n)])
    assert st.transitive_rank(gf4, into_e1) < n
    veil = oracles.find_intransitivity_veil(gf4, into_e1)
    assert veil is not None and veil.dim == n - 1
    assert veil.member((1, 0, 0))
    # an intransitive space is primitively intransitive when it has no
    # nonzero veil: into_e1 has one, the 2x2 alternating line has none
    alt2 = cons.alts(gf4, 2)
    assert st.transitive_rank(gf4, alt2) < 2
    assert oracles.find_intransitivity_veil(gf4, alt2) is None
    assert st.transitive_rank(gf4, cons.full(gf4, 2)) == 2


def test_alternating_space_is_intransitive(gf4):
    for n in (2, 3):
        alt = cons.alts(gf4, n)
        assert st.transitive_rank(gf4, alt) < n


def test_primitively_intransitive_dimension_bound(gf4):
    """Whenever an intransitive space has no nonzero veil (and |F| >= n),
    its dimension stays within n(n-1)/2."""
    rng = random.Random(3)
    audited = 0
    pool = []
    for n in (2, 3):
        pool.append((n, cons.alts(gf4, n)))
        for _ in range(10):
            p = mx.random_invertible(gf4, rng, n)
            pool.append((n, cons.conjugate_space(gf4, cons.alts(gf4, n), p)))
        for _ in range(20):
            d = rng.randrange(0, n * n)
            pool.append((n, sub.MatSubspace((n, n),
                                            sub.random_subspace(gf4, rng, n * n, d))))
    for n, t in pool:
        if st.transitive_rank(gf4, t) == n:
            continue
        if oracles.find_intransitivity_veil(gf4, t) is None:
            audited += 1
            assert t.dim <= comb(n, 2), (n, t.dim)
    assert audited > 0


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, FieldSpec(9)], ids=["gf2", "gf4", "gf8", "gf2^9"])
def test_quotient_space_matches_the_projection_oracle(fs):
    rng = random.Random(fs.degree + 1)
    shapes = [(n, m) for n in range(1, 5) for m in range(1, 4)]
    for t in oracles.operator_spaces(fs, rng, shapes, 3):
        n, m = t.shape
        for d in (0, n, rng.randrange(n + 1)):
            w = sub.random_subspace(fs, rng, n, d)
            pi = oracles.quotient_projection(fs, w)
            want = sub.MatSubspace.from_matrices(
                fs, (n - d, m), [mx.mat_mul(fs, pi, b) for b in t.basis_matrices()])
            got = st.quotient_space(fs, t, w)
            assert got.shape == (n - d, m), (t.shape, t.dim, w.basis)
            assert got.basis_matrices() == want.basis_matrices(), (t.shape, t.dim, w.basis)


def test_images_of_a_zero_space_take_the_target_shape(gf4):
    # the shape of an image space is the map's, also when no basis matrix
    # shows it: pi T lives in Mat_{n - dim W, m} for T = 0 and for W = F^n
    zero = sub.MatSubspace((3, 2), sub.VecSubspace(gf4, 6, []))
    t = sub.MatSubspace.from_matrices(gf4, (3, 2), [mx.Mat(3, 2, [1, 2, 0, 1, 3, 0])])
    full = sub.full_space(gf4, 3)
    assert st.quotient_space(gf4, zero, sub.line(gf4, (1, 0, 0))).shape == (2, 2)
    assert st.quotient_space(gf4, zero, full).shape == (0, 2)
    image = st.quotient_space(gf4, t, full)
    assert image.shape == (0, 2) and image.dim == 0
    p = mx.Mat(2, 3, [1, 0, 0, 0, 1, 0])
    assert cons.mul_space_left(gf4, p, zero).shape == (2, 2)
    assert cons.mul_space_left(gf4, p, t).shape == (2, 2)


# ----------------------------------------------------------------------
# alternators
# ----------------------------------------------------------------------
def test_alternator_identity_gram_for_alternating_space(gf4):
    for n in (2, 3, 4):
        t = cons.alts(gf4, n)
        gram = st.find_alternator(gf4, t)
        assert gram is not None
        assert st.is_alternator(gf4, t, gram)


def test_alternator_scalar_line(gf4):
    # odd size: alternating invertible Grams cannot exist
    t3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    assert st.find_alternator(gf4, t3) is None
    # even size: the standard symplectic Gram works
    t4 = sub.MatSubspace.from_matrices(gf4, (4, 4), [mx.identity(4)])
    gram = st.find_alternator(gf4, t4)
    assert gram is not None and st.is_alternator(gf4, t4, gram)


def test_alternator_requires_big_field():
    t = sub.MatSubspace.from_matrices(GF2, (2, 2), [mx.identity(2)])
    with pytest.raises(ValueError):
        st.find_alternator(GF2, t)


def test_alternator_mats_p_roundtrip(gf4):
    k = cons.k2m(gf4, 2)
    s = cons.mats_p(gf4, 4, k)
    perp = sub.trace_orthogonal(s)
    gram = st.find_alternator(gf4, perp)
    assert gram is not None
    assert st.is_alternator(gf4, perp, gram)
    assert mx.rank(gf4, gram) == 4


def test_alternator_sampled_grams_are_pinned(gf4):
    # a budget below q^dim of the Gram space makes the search sample it;
    # the pinned Grams fix the seeded sample stream and its coordinate order
    perp = sub.trace_orthogonal(cons.mats_p(gf4, 4, cons.k2m(gf4, 2)))
    swap = [0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0]
    for seed, c in enumerate([2, 3, 2, 2, 2, 3, 1, 3, 1, 3, 1, 2]):
        gram = st.find_alternator(gf4, cons.alts(gf4, 3), budget=1, seed=seed)
        assert gram == mx.Mat(3, 3, [c if i % 4 == 0 else 0 for i in range(9)])
    for seed, c in [(0, 2), (1, 3), (5, 3)]:
        gram = st.find_alternator(gf4, perp, budget=3, samples=200, seed=seed)
        assert gram == mx.Mat(4, 4, [c * e for e in swap])
        assert st.is_alternator(gf4, perp, gram)
    # exhaustive within the budget: the first full-rank Gram in index order
    assert st.find_alternator(gf4, perp, budget=10) == mx.Mat(4, 4, swap)
    # no full-rank Gram exists: sampling gives up after its samples
    t3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    assert st.find_alternator(gf4, t3, budget=1, samples=50) is None


def _alternator_cases(fs):
    rng = random.Random(1)
    a4 = cons.alts(fs, 4)
    yield from (cons.alts(fs, n) for n in (2, 3, 4))
    yield from (cons.syms(fs, n) for n in (2, 3, 4))
    yield from (cons.nt(fs, n) for n in (2, 3, 4))
    yield sub.trace_orthogonal(cons.mats_p(fs, 4, cons.k2m(fs, 2)))
    for n in (2, 3, 4):
        yield sub.MatSubspace.from_matrices(fs, (n, n), [mx.identity(n)])
    for _ in range(2):
        yield sub.MatSubspace.from_matrices(
            fs, (4, 4), [a4.element_at(rng.randrange(fs.q ** a4.dim)) for _ in range(2)])
    yield sub.MatSubspace.from_matrices(fs, (2, 4), [mx.Mat(2, 4, [1, 0, 0, 0, 0, 1, 0, 0])])


def test_alternator_exhaustive_is_the_first_full_rank_gram(gf4, gf8):
    # exhaustive search returns the Gram of smallest enumeration index with
    # full column rank, walking the whole Gram space (scalar line in Mat_4:
    # index 80 over GF(4), 576 over GF(8))
    firsts = []
    for fs in (gf4, gf8):
        for t in _alternator_cases(fs):
            grams = alternator_grams(fs, t)
            i = first_failing_index(grams, lambda g: mx.rank(fs, g) == t.shape[0])
            firsts.append(i)
            assert st.find_alternator(fs, t) == (None if i is None else grams.element_at(i))
    assert firsts == ([1, 1, 1, None, None, None, None, None, None, 1, 1, None, 80, 1, 1, 1]
                      + [1, 1, 1, None, None, None, None, None, None, 1, 1, None, 576, 1, 1, 1])


@pytest.mark.parametrize("fs", [GF4, FieldSpec(9)], ids=["gf4", "gf2^9"])
def test_alternator_sampled_is_the_first_full_rank_sample(fs):
    # square and non-square (2 x 4) operator spaces, and the scalar line in
    # Mat_3, which has no full-rank Gram: the sampled search returns the
    # Gram at the first full-rank sample of the seeded stream
    cases = [cons.alts(fs, 3),
             sub.MatSubspace.from_matrices(fs, (4, 4), [mx.identity(4)]),
             sub.MatSubspace.from_matrices(fs, (2, 4), [mx.Mat(2, 4, [1, 0, 0, 0, 0, 1, 0, 0])]),
             sub.MatSubspace.from_matrices(fs, (3, 3), [mx.identity(3)])]
    firsts = []
    for t in cases:
        grams = alternator_grams(fs, t)
        for seed in range(4):
            i = oracles.first_failing_sample(grams, seed, 40,
                                             lambda g: mx.rank(fs, g) == t.shape[0])
            want = None if i is None else oracles.sample_element(grams, seed, i)
            assert st.find_alternator(fs, t, budget=1, samples=40, seed=seed) == want
            firsts.append(i)
    assert firsts[-4:] == [None] * 4 and None not in firsts[:-4]


def test_alternator_sampling_ranks_whole_chunks(gf4, monkeypatch):
    # no full-rank Gram: all 10^5 samples are ranked, a chunk per batch_rank
    calls = []
    rank = _bulk.batch_rank
    monkeypatch.setattr(_bulk, "batch_rank", lambda *a: calls.append(1) or rank(*a))
    t3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    assert st.find_alternator(gf4, t3, budget=1, samples=10 ** 5) is None
    assert len(calls) == -(-10 ** 5 // spectra.CHUNK) == 2


# ----------------------------------------------------------------------
# choice solver
# ----------------------------------------------------------------------
def test_choice_examples(gf4):
    m = mx.companion((0, 1, 1))  # t^2 + t
    r = st.choice_solve(gf4, m, (1, 1, 1), 1)
    assert r == mx.Mat(1, 1, (1,))
    # the trivial target admits the zero block
    assert st.choice_solve(gf4, m, mx.char_poly(gf4, m), 1) == mx.Mat(1, 1, (0,))


def test_choice_preconditions(gf4):
    m = mx.companion((0, 1, 0, 1))
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 1, 1, 1), 1)   # trace mismatch (tr M = 0)
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 1, 2), 1)      # not monic
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 0, 0, 1), 3)   # split out of range
    with pytest.raises(ValueError):
        st.choice_solve(gf4, mx.zero(3), (0, 0, 0, 1), 1)  # not regular Hessenberg


def test_choice_full_small_audit(gf4):
    m = mx.from_rows([[1, 2, 3], [1, 0, 1], [0, 2, 1]])
    tr = mx.trace(m)
    for a0 in range(4):
        for a1 in range(4):
            target = up.poly((a0, a1, tr, 1))
            for p in (1, 2):
                r = st.choice_solve(gf4, m, target, p)
                assert r is not None
                full = mx.mat_add(m, mx.place(3, 3, 0, p, r))
                assert mx.char_poly(gf4, full) == target


def test_choice_middle_split_and_budget(gf4):
    rng = random.Random(4)
    m = mx.from_rows([[1, 2, 3, 1], [2, 0, 1, 0], [0, 3, 1, 2], [0, 0, 1, 3]])
    assert mx.is_regular_hessenberg(m)
    tr = mx.trace(m)
    target = up.poly((2, 1, 0, tr, 1))
    r = st.choice_solve(gf4, m, target, 2)  # exhaustive path, 4^4 candidates
    assert r is not None
    full = mx.mat_add(m, mx.place(4, 4, 0, 2, r))
    assert mx.char_poly(gf4, full) == target
    big = mx.companion(up.poly((1, 0, 0, 0, 0, 1)))
    with pytest.raises(sub.BudgetExceeded):
        st.choice_solve(gf4, big, (1, 1, 0, 0, 0, 1), 2, budget=10)


def _regular_hessenberg(fs, rng, n):
    return mx.Mat(n, n, [rng.randrange(1, fs.q) if i == j + 1 else
                         rng.randrange(fs.q) if i <= j else 0
                         for i in range(n) for j in range(n)])


def test_choice_outer_splits_solve_exactly_without_search(gf4):
    """For p = 1 and p = n - 1 char_poly is affine in the block, so the
    linear solve is exact: budget=1 leaves no room for a search, and every
    target with the right trace gets a block that re-verifies."""
    rng = random.Random(22)
    for n in range(2, 6):
        for _ in range(8):
            m = _regular_hessenberg(gf4, rng, n)
            target = tuple(rng.randrange(4) for _ in range(n - 1)) + (mx.trace(m), 1)
            for p in {1, n - 1}:
                r = st.choice_solve(gf4, m, target, p, budget=1)
                assert r is not None and (r.rows, r.cols) == (p, n - p)
                assert mx.char_poly(gf4, mx.mat_add(m, mx.place(n, n, 0, p, r))) == target


def test_choice_outer_split_that_fails_its_recheck_raises(gf4, monkeypatch):
    # a misplaced block breaks the affine solve's re-check, which is an
    # internal fault, not a target without a solution
    place = st.place
    monkeypatch.setattr(st, "place", lambda n, m, i, j, b: mx.transpose(place(n, m, i, j, b)))
    m = mx.from_rows([[1, 2, 3], [1, 0, 1], [0, 2, 1]])
    with pytest.raises(AssertionError, match="inconsistent"):
        st.choice_solve(gf4, m, (2, 3, mx.trace(m), 1), 1)


def test_choice_works_over_gf2(gf2):
    for r in all_monic(gf2, 3):
        m = mx.companion((r[0] ^ 1, r[1], r[2], 1))
        if not mx.is_regular_hessenberg(m):
            continue
        for p in (1, 2):
            if r[2] != mx.trace(m):
                continue
            sol = st.choice_solve(gf2, m, r, p)
            assert sol is not None


# ----------------------------------------------------------------------
# covering / vanishing
# ----------------------------------------------------------------------
def test_covering_examples(gf4):
    fam = [sub.span(gf4, 2, [v]) for v in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    assert st.covering_hypotheses(gf4, fam, 3) is None
    v = st.covering_check(gf4, fam)
    assert v.holds
    pt = tuple(v.detail["uncovered_point"])
    assert not any(s.member(pt) for s in fam)
    assert not st.covering_check(gf4, [sub.full_space(gf4, 2)]).holds
    assert st.covering_hypotheses(gf4, fam, 4) is not None  # |F| = r now


def test_vanishing_negative_example(gf4):
    # xy does not vanish off the two axes, so hypothesis (iii) must fail
    axes = [sub.span(gf4, 2, [(1, 0)]), sub.span(gf4, 2, [(0, 1)])]
    p = {(1, 1): 1}
    v = st.vanishing_check(gf4, p, 2, axes)
    assert v.outcome == "hypothesis-violation"
    assert "point" in v.detail


def test_eval_monomial_map_on_every_point(gf4):
    # against each power as e repeated products (x^0 = 1, 0^0 included)
    p = {(2, 0, 1): 3, (0, 0, 0): 2, (1, 1, 1): 1, (0, 3, 0): 0}
    for x in sub.full_space(gf4, 3).enumerate_elements():
        want = 0
        for mono, coef in p.items():
            term = coef
            for xi, e in zip(x, mono):
                for _ in range(e):
                    term = gf4.mul(term, xi)
            want ^= term
        assert st.eval_monomial_map(gf4, p, x) == want
        for mono in p:
            assert st.eval_monomial_map(gf4, {mono: 1}, x) == (
                gf4.mul(gf4.mul(gf4.pow(x[0], mono[0]), gf4.pow(x[1], mono[1])),
                        gf4.pow(x[2], mono[2])))


def test_vanishing_walk_matches_two_pass_oracle(gf2, gf4, gf8):
    # random polynomials (mostly nonzero off the union) and the harness's
    # solution polynomials (which vanish there) on admissible families
    paths = set()
    for fs in (gf2, gf4, gf8):
        rng = random.Random(fs.q)
        for _ in range(40):
            n = rng.choice((2, 3))
            d = rng.randrange(1, min(fs.q - 1, 3) + 1)
            family = [sub.random_subspace(fs, rng, n, k)
                      for k in range(1, n - 1) for _ in range(rng.randrange(fs.q))]
            family += [sub.random_subspace(fs, rng, n, n - 1)
                       for _ in range(rng.randrange(fs.q - d + 1))]
            family = family or [sub.random_subspace(fs, rng, n, 1)]
            monos = [m for m in product(range(d + 1), repeat=n) if sum(m) == d]
            off = [x for x in sub.full_space(fs, n).enumerate_elements()
                   if not any(v.member(x) for v in family)]
            sols = sub.VecSubspace(fs, len(monos), [
                [st.eval_monomial_map(fs, {m: 1}, x) for m in monos] for x in off]).annihilator()
            polys = [{m: rng.randrange(fs.q) for m in monos}]
            polys += [{m: c for m, c in zip(monos, row) if c} for row in sols.basis]
            for p in polys:
                v = st.vanishing_check(fs, p, d, family)
                outcome, point = vanishing_points_two_pass(fs, p, family)
                assert v.outcome == outcome
                assert v.detail.get("point") == (None if point is None else list(point))
                paths.add(outcome)
    assert paths == {"hypothesis-violation", "holds"}


def test_vanishing_zero_poly_holds(gf4):
    fam = [sub.span(gf4, 3, [(1, 0, 0)])]
    v = st.vanishing_check(gf4, {}, 2, fam)
    assert v.holds


def test_vanishing_check_reports_budget_past_the_points():
    # a "holds" verdict would visit all 2^32 points of GF(2^16)^2
    fs = FieldSpec(16)
    v = st.vanishing_check(fs, {}, 1, [sub.line(fs, (1, 0))])
    assert v.to_json() == {"name": "vanishing", "outcome": "budget", "detail": {
        "reason": "enumeration of 4294967296 objects exceeds budget 16777216"}}


def test_union_mask_refuses_more_pairs_than_the_budget(monkeypatch):
    # it holds n codes for every (point, member) pair
    monkeypatch.setattr(st, "DEFAULT_BUDGET", 100)
    x = np.array(list(sub.enumerate_projective(GF4, 2)), dtype=np.uint8)
    family = [sub.line(GF4, p) for p in x.tolist()] * 4
    assert len(family) * len(x) == 100
    assert st.union_mask(GF4, family, x).all()
    with pytest.raises(sub.BudgetExceeded) as exc:
        st.union_mask(GF4, family, np.concatenate([x, x[:1]]))
    assert (exc.value.needed, exc.value.budget) == (120, 100)


def test_vanishing_rejects_inhomogeneous(gf4):
    fam = [sub.span(gf4, 2, [(1, 0)])]
    v = st.vanishing_check(gf4, {(1, 0): 1, (0, 2): 1}, 1, fam)
    assert v.outcome == "hypothesis-violation"


# ----------------------------------------------------------------------
# splitting and confinement
# ----------------------------------------------------------------------
def test_splitting_modes(gf4):
    s2 = cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))
    cert = st.detect_hurdle(gf4, s2)
    v = st.splitting_check(gf4, s2, cert, mode="2spec", budget=1 << 16,
                           samples=2 * 10 ** 4, seed=1)
    assert v.holds and v.detail["mode"] == "sampled"
    h4 = cons.hurdle_template(gf4, 4)
    cert4 = st.detect_hurdle(gf4, h4)
    assert st.splitting_check(gf4, h4, cert4, mode="1star").holds
    assert st.splitting_check(gf4, h4, cert4, mode="2spec").holds
    with pytest.raises(ValueError):
        st.splitting_check(gf4, h4, cert4, mode="3spec")


def test_splitting_on_conjugated_hurdle(gf4):
    # the chart extraction must work when G is not spanned by basis vectors
    rng = random.Random(9)
    s = cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))
    p = mx.random_invertible(gf4, rng, 4)
    conj = cons.conjugate_space(gf4, s, p)
    cert = st.detect_hurdle(gf4, conj)
    assert cert is not None
    v = st.splitting_check(gf4, conj, cert, mode="2spec", budget=1 << 14,
                           samples=3 * 10 ** 4, seed=2)
    assert v.holds


def test_splitting_hypothesis_violation(gf4):
    h4 = cons.hurdle_template(gf4, 4)
    cert4 = st.detect_hurdle(gf4, h4)
    spoiler = mx.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    bad = h4.sum_with(sub.MatSubspace.from_matrices(gf4, (4, 4), [spoiler]))
    v = st.splitting_check(gf4, bad, cert4, mode="2spec")
    assert v.outcome == "hypothesis-violation"
    # a certificate that the space does not contain is also a violation
    other_plane = sub.span(gf4, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    v = st.splitting_check(gf4, h4, st.HurdleCertificate(other_plane), mode="2spec")
    assert v.outcome == "hypothesis-violation"


def _stabilizer(fs, g):
    """All n x n operators u with u G inside G: w(u y) = 0 for every w in
    the annihilator of G and y in G, one linear condition on the entries of
    u for each pair of basis vectors."""
    n = g.ambient
    conditions = [[fs.mul(w[i], y[j]) for i in range(n) for j in range(n)]
                  for w in g.annihilator().basis for y in g.basis]
    return sub.MatSubspace((n, n), sub.VecSubspace(fs, n * n, conditions).annihilator())


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, FieldSpec(9)], ids=["gf2", "gf4", "gf8", "gf2^9"])
def test_quotient_trace_matches_the_quotient_block(fs):
    # random dual planes, so that G lies in no coordinate subspace, and
    # random operators that leave G invariant
    rng = random.Random(fs.degree + 2)
    for n in (3, 4, 5):
        for _ in range(4):
            plane = sub.random_subspace(fs, rng, n, 2)
            g = plane.annihilator()
            stab = _stabilizer(fs, g)
            for _ in range(8):
                u = mx.Mat(n, n, stab.space.combine([rng.randrange(fs.q) for _ in range(stab.dim)]))
                assert all(g.member(mx.mat_vec(fs, u, y)) for y in g.basis)
                want = mx.trace(oracles.quotient_block(fs, g, u))
                assert st.quotient_trace(fs, plane, u) == want, (plane.basis, u)


def _failed_conditions(fs, cert, mode, u):
    """The conditions among (b) and (c) of splitting_check, and (d) (a zero
    G-block gives a zero quotient trace, which (c) implies), that u fails:
    the G-block read at the RREF pivots of G, the quotient trace from the
    2 x 2 block of oracles.quotient_block."""
    g = cert.kernel
    cols = [mx.mat_vec(fs, u, row) for row in g.basis]
    block = mx.Mat(g.dim, g.dim, [cols[j][g.pivots[i]] for i in range(g.dim) for j in range(g.dim)])
    roots = oracles.roots_by_evaluation(fs, oracles.charpoly_cofactor(fs, block))
    tr_q = mx.trace(oracles.quotient_block(fs, g, u))
    failed = set()
    if len(roots) > 1 if mode == "2spec" else any(roots):
        failed.add("b")
    if tr_q and roots:
        failed.add("c")
    if tr_q and not any(block.entries):
        failed.add("d")
    return failed


@pytest.mark.parametrize("mode, extra, seed, plane, index, failed", [
    # the G-block has two eigenvalues in F, the quotient trace is 0
    ("2spec", [[0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1],
               [1, 1, 0, 1, 1, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1]], 1,
     ((1, 0, 0, 1), (0, 1, 0, 1)), 128, {"b"}),
    # a nonzero quotient trace with a nonzero G-block that has an eigenvalue in F
    ("1star", [[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1]], 1,
     ((1, 0, 0, 1), (0, 1, 0, 1)), 4, {"c"}),
    ("2spec", [[0, 0, 1, 0, 1, 1, 0, 1, 1], [1, 1, 1, 0, 0, 0, 0, 1, 1]], 3,
     ((1, 0, 0), (0, 1, 1)), 8, {"c"}),
    # a nonzero quotient trace with a zero G-block
    ("1star", [[0, 1, 0, 0, 0, 1, 0, 1, 1]], 3, ((1, 0, 0), (0, 1, 1)), 1, {"c", "d"}),
], ids=["b-2spec", "c-1star", "c-2spec", "cd-1star"])
def test_splitting_verdict_decided_by_one_condition(gf2, mode, extra, seed, plane, index, failed):
    # over GF(2), where the 2-spec hypothesis does not force (b)-(d): the
    # hurdle template plus extra operators that keep G invariant,
    # conjugated so that the certificate plane is not a coordinate plane
    n = 3 if len(extra[0]) == 9 else 4
    space = cons.hurdle_template(gf2, n).sum_with(
        sub.MatSubspace.from_matrices(gf2, (n, n), [mx.Mat(n, n, e) for e in extra]))
    space = cons.conjugate_space(gf2, space, mx.random_invertible(gf2, random.Random(seed), n))
    cert = st.detect_hurdle(gf2, space)
    assert cert.plane.basis == plane
    v = st.splitting_check(gf2, space, cert, mode=mode)
    assert v.outcome == "fails" and v.detail["condition"] == "bcd"
    assert v.detail["index"] == index == first_failing_index(
        space, lambda u: bool(_failed_conditions(gf2, cert, mode, u)))
    assert _failed_conditions(gf2, cert, mode, mx.mat_from_json(v.detail["witness"])) == failed


@pytest.mark.parametrize("fs, n", [(GF2, 3), (GF2, 4), (GF4, 3)], ids=["gf2-3", "gf2-4", "gf4-3"])
def test_condition_d_is_covered_by_c(fs, n):
    # (d): a zero G-block gives a zero quotient trace.  dim G = n - 2 >= 1,
    # so a zero G-block has the eigenvalue 0 in F, and every operator that
    # keeps G invariant and fails (d) fails (c) too; splitting_check
    # checks (b)-(c) alone
    cert = st.HurdleCertificate(sub.random_subspace(fs, random.Random(n), n, 2))
    failed = [_failed_conditions(fs, cert, "2spec", u)
              for u in _stabilizer(fs, cert.kernel).enumerate_elements()]
    assert any("d" in f for f in failed)
    assert all("c" in f for f in failed if "d" in f)


def _ranked_hurdle(fs, seed):
    """hurdle_template(4) plus one or two seeded elements of
    joint(full2, full2), which keep G = span(e0, e1) invariant."""
    roof = cons.joint(fs, cons.full(fs, 2), cons.full(fs, 2))
    rng = random.Random(seed)
    extra = [mx.Mat(4, 4, roof.space.combine([rng.randrange(fs.q) for _ in range(roof.dim)]))
             for _ in range(rng.randrange(1, 3))]
    return cons.hurdle_template(fs, 4).sum_with(sub.MatSubspace.from_matrices(fs, (4, 4), extra))


def _hypothesis_of(mode):
    return spectra.parse_predicate("2-spec" if mode == "2spec" else "1*-spec")


@pytest.mark.parametrize("mode, seed, first_bc, first_violation", [
    ("2spec", 4, 1, 1026), ("2spec", 6, 1, 1025), ("2spec", 8, 1, 1026),
    ("1star", 4, 1, 1026), ("1star", 1, None, 1025)])
def test_splitting_hypothesis_outranks_an_earlier_conclusion_failure(
        gf4, monkeypatch, mode, seed, first_bc, first_violation):
    # over GF(4), an element that fails (b)-(c) comes before the first that
    # breaks the spectrum hypothesis; the verdict is the hypothesis
    # violation, with the witness of the hypothesis scan
    space = _ranked_hurdle(gf4, seed)
    cert = st.detect_hurdle(gf4, cons.hurdle_template(gf4, 4))
    pred = _hypothesis_of(mode)
    assert first_failing_index(
        space, lambda u: not spectra.check_element(gf4, u, pred)) == first_violation
    v = st.splitting_check(gf4, space, cert, mode=mode)
    assert v.to_json() == _violation(f"splitting-{mode}", pred.name,
                                     space.element_at(first_violation).to_json())
    if first_bc is not None:
        assert first_failing_index(
            space, lambda u: bool(_failed_conditions(gf4, cert, mode, u))) == first_bc
    else:
        # (b)-(c) hold on every element: the hypothesis term alone fails the
        # first scan, and without it the check holds
        never = (lambda planes, count: np.zeros(count, dtype=bool), lambda m: False)
        monkeypatch.setattr(st, "_spec_failure", lambda fs, pred: never)
        assert st.splitting_check(gf4, space, cert, mode=mode).holds


@pytest.mark.parametrize("mode", ["2spec", "1star"])
def test_splitting_condition_a_ranks_below_the_hypothesis(gf2, gf4, mode):
    # E_20 moves G = span(e0, e1), so (a) fails.  Over GF(2) both spectrum
    # hypotheses hold on every matrix and (a) decides; over GF(4) the space
    # breaks the hypothesis too, which outranks (a)
    def moved(fs, space):
        return space.sum_with(sub.MatSubspace.from_matrices(fs, (4, 4), [mx.unit(4, 4, 2, 0)]))
    space = moved(gf2, cons.hurdle_template(gf2, 4))
    cert = st.detect_hurdle(gf2, cons.hurdle_template(gf2, 4))
    g = cert.kernel
    first = next(b for b in space.basis_matrices()
                 if not all(g.member(mx.mat_vec(gf2, b, y)) for y in g.basis))
    assert st.splitting_check(gf2, space, cert, mode=mode).to_json() == {
        "name": f"splitting-{mode}", "outcome": "fails",
        "detail": {"condition": "a", "witness": first.to_json()}}
    space = moved(gf4, _ranked_hurdle(gf4, 4))
    pred = _hypothesis_of(mode)
    first = first_failing_index(space, lambda u: not spectra.check_element(gf4, u, pred))
    cert = st.detect_hurdle(gf4, cons.hurdle_template(gf4, 4))
    assert st.splitting_check(gf4, space, cert, mode=mode).to_json() == _violation(
        f"splitting-{mode}", pred.name, space.element_at(first).to_json())


@pytest.mark.parametrize("sampled", [{}, {"budget": 1, "samples": 300, "seed": 3}],
                         ids=["exhaustive", "sampled"])
@pytest.mark.parametrize("mode", ["2spec", "1star"])
def test_holding_splitting_check_scans_once(gf4, monkeypatch, mode, sampled):
    # the spectrum hypothesis and (b)-(c) share one scan
    scans, engine = [], spectra._scan_space
    counted = lambda *args: scans.append(1) or engine(*args)
    monkeypatch.setattr(spectra, "_scan_space", counted)
    monkeypatch.setattr(st, "_scan_space", counted)
    h4 = cons.hurdle_template(gf4, 4)
    v = st.splitting_check(gf4, h4, st.detect_hurdle(gf4, h4), mode=mode, **sampled)
    assert v.holds and v.detail["mode"] == ("sampled" if sampled else "exhaustive")
    assert len(scans) == 1


# the hypothesis-violation verdicts of the spec-hypothesis scans, pinned
_W3 = {"rows": 3, "cols": 3, "entries": [1, 1, 0, 1, 0, 0, 0, 0, 0]}
_W4 = {"rows": 4, "cols": 4, "entries": [2, 0, 0, 0, 1, 2, 0, 3, 1, 2, 0, 3, 3, 2, 0, 3]}


def _violation(name, pred, witness):
    return {"name": name, "outcome": "hypothesis-violation",
            "detail": {"reason": f"space is not {pred}", "witness": witness}}


def test_spec_hypothesis_violations_are_pinned(gf4):
    full3 = cons.full(gf4, 3)
    assert st.confinement_first_check(gf4, full3, (1, 2, 0)).to_json() == _violation(
        "confinement-first", "2-spec", _W3)
    assert st.confinement_first_check(gf4, full3, (1, 2, 0), budget=1, samples=500,
                                      seed=4).to_json() == _violation(
        "confinement-first", "2-spec",
        {"rows": 3, "cols": 3, "entries": [2, 3, 1, 0, 1, 2, 0, 0, 3]})
    h = sub.span(gf4, 3, [(0, 1, 0), (0, 0, 1)])
    g = sub.span(gf4, 3, [(1, 0, 0)])
    assert st.confinement_second_check(gf4, full3, h, g).to_json() == _violation(
        "confinement-second", "2-spec", _W3)
    assert st.confinement_third_check(gf4, cons.full(gf4, 5), budget=1, samples=300,
                                      seed=2).to_json() == _violation(
        "confinement-third", "2-spec",
        {"rows": 5, "cols": 5, "entries": [2, 0, 0, 1, 1, 0, 2, 2, 2, 1, 3, 2, 3, 2, 1,
                                           3, 1, 3, 1, 2, 1, 2, 1, 1, 1]})
    full4 = cons.full(gf4, 4)
    cert = st.detect_hurdle(gf4, cons.hurdle_template(gf4, 4))
    for mode, pred in (("2spec", "2-spec"), ("1star", "1*-spec")):
        v = st.splitting_check(gf4, full4, cert, mode=mode, budget=1, samples=500, seed=1)
        assert v.to_json() == _violation(f"splitting-{mode}", pred, _W4)
    # 2-spec but not 1*-spec: only the 1* scan rejects it
    s2 = cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))
    assert st.splitting_check(gf4, s2, cert, mode="1star").to_json() == _violation(
        "splitting-1star", "1*-spec",
        {"rows": 4, "cols": 4, "entries": [2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]})


def test_confinement_first(gf4):
    n = 3
    phi = (1, 0, 0)
    gens = [mx.tensor(gf4, phi, tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)]
    s = sub.MatSubspace.from_matrices(gf4, (n, n), gens)
    v = st.confinement_first_check(gf4, s, phi)
    assert v.holds
    # a space missing phi (x) V is a hypothesis violation
    v = st.confinement_first_check(gf4, cons.nt(gf4, 3), phi)
    assert v.outcome == "hypothesis-violation"


def test_confinement_second_minimal(gf4):
    n = 4
    h = sub.span(gf4, n, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    g = sub.span(gf4, n, [(1, 0, 0, 0), (0, 1, 0, 0)])
    z = st.second_confinement_generators(gf4, h, g)
    assert z.dim == 2 * n - 3
    v = st.confinement_second_check(gf4, z, h, g)
    assert v.holds
    # G inside H violates the hypotheses
    g_bad = sub.span(gf4, n, [(0, 1, 0, 0), (0, 0, 1, 0)])
    v = st.confinement_second_check(gf4, z, h, g_bad)
    assert v.outcome == "hypothesis-violation"


def test_first_annihilating_point_matches_the_projective_walk():
    # the first theta in projective order with theta . x = 0 on every point
    for fs in (GF2, GF4, GF8):
        rng = random.Random(fs.q)
        for n in (1, 2, 3, 4):
            full = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            cases = [[], [(0,) * n], full, full[::-1]]
            for _ in range(60):
                cases.append([tuple(rng.randrange(fs.q) for _ in range(n))
                              for _ in range(rng.randrange(1, n + 2))])
            for points in cases:
                want = oracles.first_annihilating_point(fs, n, points)
                assert st.first_annihilating_point(fs, n, points) == want
    assert st.first_annihilating_point(GF4, 3, []) == (1, 0, 0)
    assert st.first_annihilating_point(GF4, 3, [(1, 2, 3), (0, 1, 1), (0, 0, 1)]) is None


def test_confinement_third(gf4):
    t = st.third_confinement_template(gf4, 5)
    assert t.dim == 6 + 3
    v = st.confinement_third_check(gf4, t, budget=1 << 20)
    assert v.holds and v.detail["spec_mode"] == "exhaustive"
    with pytest.raises(ValueError):
        st.third_confinement_template(gf4, 4)


def test_lastblock(gf4):
    v = st.lastblock_audit(gf4)
    assert v.holds
    assert v.detail == {"instances": 315, "conclusion_holds": 135, "hypothesis_violations": 180}
    # a tensor with nonzero last row and column violates the hypothesis
    a = mx.tensor(gf4, (1, 1, 1), (0, 1, 1))
    assert mx.trace(a) == 0 and mx.rank(gf4, a) == 1
    assert any(a[i, 2] for i in range(3)) and any(a[2, j] for j in range(3))
    vc = oracles.lastblock_check(gf4, a)
    assert vc.outcome == "hypothesis-violation"


@pytest.mark.parametrize("fs,stride", [(GF4, 1), (GF8, 37)], ids=["gf4", "gf8"])
def test_lastblock_audit_matches_the_checker(monkeypatch, fs, stride):
    # every matrix over GF(4); every stride-th one over GF(8), where the
    # checker walks 512 blocks per matrix that satisfies the hypothesis
    subset = list(st.rank_one_trace_zero(fs, 3))[::stride]
    want = Counter(oracles.lastblock_check(fs, a).outcome for a in subset)
    monkeypatch.setattr(st, "rank_one_trace_zero", lambda fs, n: iter(subset))
    v = st.lastblock_audit(fs)
    assert v.holds and want["fails"] == 0
    assert v.detail == {"instances": len(subset), "conclusion_holds": want["holds"],
                        "hypothesis_violations": want["hypothesis-violation"]}


def test_lastblock_audit_over_gf8_and_its_gates(gf2, gf4):
    assert st.lastblock_audit(GF8).detail == {
        "instances": 4599, "conclusion_holds": 1071, "hypothesis_violations": 3528}
    # no 3x3 matrix over GF(2) has three eigenvalues in F
    assert st.lastblock_audit(gf2).to_json() == {
        "name": "lastblock-audit", "outcome": "hypothesis-violation",
        "detail": {"reason": "needs |F| > 2"}}
    # 69 615 matrices times 4 096 blocks over GF(16)
    assert st.lastblock_audit(GF16).to_json() == {
        "name": "lastblock-audit", "outcome": "budget",
        "detail": {"reason": "enumeration of 285143040 objects exceeds budget 16777216"}}


@pytest.mark.parametrize("count,error", [(3, "flags a 2-spec sum"), (0, "misses a violation")])
def test_lastblock_audit_sees_a_broken_batch_kernel(monkeypatch, count, error):
    # sharpness control: a kernel that counts 3 roots for every sum claims
    # that all 315 matrices break the hypothesis, so "holds" would check no
    # conclusion; one that counts 0 would fail [1,0,1,0,0,0,1,0,1] unverified
    def constant(fs, coeffs, lanes, kind, exclude_zero):
        return np.full(lanes, count, dtype=np.uint8)
    monkeypatch.setattr(_bulk, "spectrum_counts", constant)
    with pytest.raises(AssertionError, match=error):
        st.lastblock_audit(GF4)


def test_diagonal_zero_witness(gf4):
    for n in (3, 4, 5):
        w = st.diagonal_zero_witness(gf4, n)
        assert w is not None
        assert all(w[i, i] == 0 for i in range(n))
        assert profile(gf4, w).distinct_in_f >= 3


def test_diagonal_zero_impossible_over_gf2(gf2):
    # only two field elements: no companion matrix has three distinct roots
    assert st.diagonal_zero_witness(gf2, 3) is None


def test_sl_rank1_span(gf4):
    for n in (2, 3, 4):
        assert st.sl_rank1_span(gf4, n) == cons.sl(gf4, n)


def test_confinement_checkers_take_keyword_options(gf4):
    t = st.third_confinement_template(gf4, 5)
    v = st.confinement_third_check(gf4, t, budget=64, samples=300, seed=2)
    assert v.holds and v.detail == {"spec_mode": "sampled", "checked": 300}
    phi = (1, 0, 0)
    s = sub.MatSubspace.from_matrices(
        gf4, (3, 3), [mx.tensor(gf4, phi, tuple(int(i == j) for j in range(3)))
                      for i in range(3)])
    v = st.confinement_first_check(gf4, s, phi, budget=4, samples=200, seed=1)
    assert v.holds and v.detail == {"spec_mode": "sampled", "checked": 200}
    h = sub.span(gf4, 3, [(0, 1, 0), (0, 0, 1)])
    g = sub.span(gf4, 3, [(1, 0, 0)])
    z = st.second_confinement_generators(gf4, h, g)
    v = st.confinement_second_check(gf4, z, h, g, budget=1 << 20, samples=10, seed=3)
    assert v.holds
    # budget bounds only the spectrum pass: the adapted scan still reads
    # all 21 points of F^3
    v = st.confinement_second_check(gf4, z, h, g, budget=1, samples=50)
    assert v.detail == {"case": "hyperplane", "theta": [1, 0, 0]}
    a = mx.tensor(gf4, (0, 0, 1), (0, 1, 0))
    assert oracles.lastblock_check(gf4, a).outcome in ("holds", "hypothesis-violation")


def test_transrank_identity_on_samples(gf4):
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(2, 5)
        s = sub.MatSubspace((n, n), sub.random_subspace(gf4, rng, n * n,
                                                        rng.randrange(0, n * n + 1)))
        perp = sub.trace_orthogonal(s).basis_matrices()
        for x in sub.enumerate_projective(gf4, n):
            assert st.image_dim(gf4, perp, x) == n - s.intersect(oracles.range_space(gf4, x)).dim
