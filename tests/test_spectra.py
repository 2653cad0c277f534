import os
import random

import numpy as np
import pytest

from char2spec.gf import GF2, GF4, GF8, FieldSpec
from char2spec import _bulk
from char2spec import spectra
from char2spec import matrix as mx
from char2spec import structure as st
from char2spec import subspace as sub
from char2spec import upoly as up
from char2spec import constructions as cons
from char2spec.spectra import (SpecPredicate, _element_for_index, _scan_space, check_element,
                               check_space, check_space_even_charpoly, is_even_poly,
                               parse_predicate, pool_threads, profile)
from oracles import (all_monic, charpoly_cofactor, first_failing_index, first_failing_sample,
                     is_nilpotent, roots_by_evaluation, sample_coordinates, sample_element)


@pytest.fixture
def small_chunk(monkeypatch):
    # small batches, so that several workers get several ranges to merge
    monkeypatch.setattr(spectra, "CHUNK", 16)


def test_profile_examples(gf4):
    p = profile(gf4, mx.zero(3))
    assert (p.distinct_in_f, p.distinct_nonzero_in_f) == (1, 0)
    p = profile(gf4, mx.identity(3))
    assert (p.distinct_in_f, p.distinct_nonzero_in_f) == (1, 1)
    m = mx.from_rows([[0, 2], [1, 0]])  # chi = t^2 + w = (t + w+1)^2
    p = profile(gf4, m)
    assert p.char_poly == (2, 0, 1)
    assert p.distinct_in_closure == 1


def test_profile_invariants(gf4):
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randrange(1, 5)
        m = mx.random_matrix(gf4, rng, n)
        p = profile(gf4, m)
        zero_root = 1 if p.char_poly[0] == 0 else 0
        assert p.distinct_nonzero_in_f == p.distinct_in_f - zero_root
        assert p.distinct_nonzero_in_closure == p.distinct_in_closure - zero_root
        assert p.distinct_in_f <= p.distinct_in_closure <= n
        # the closure bound at k = degree always holds, and k is monotone
        assert check_element(gf4, m, SpecPredicate("in_closure", False, n))
        for k in range(n):
            a = check_element(gf4, m, SpecPredicate("in_field", False, k))
            b = check_element(gf4, m, SpecPredicate("in_field", False, k + 1))
            assert (not a) or b


def test_charpoly_minpoly_same_root_sets():
    for fs in (GF2, GF4):
        rng = random.Random(2)
        for _ in range(200):
            n = rng.randrange(1, 4)
            m = mx.random_matrix(fs, rng, n)
            cp = mx.char_poly(fs, m)
            mp = mx.min_poly(fs, m)
            assert up.count_roots_in_field(fs, cp) == up.count_roots_in_field(fs, mp)
            assert up.count_roots_in_closure(fs, cp) == up.count_roots_in_closure(fs, mp)


def test_predicate_parsing():
    p = parse_predicate("1bar*-spec")
    assert p == SpecPredicate("in_closure", True, 1) and p.name == "1bar*-spec"
    assert parse_predicate("2-spec") == SpecPredicate("in_field", False, 2)
    assert parse_predicate("0bar*") == SpecPredicate("in_closure", True, 0)
    assert parse_predicate("*-spec", k=1) == SpecPredicate("in_field", True, 1)
    with pytest.raises(ValueError):
        parse_predicate("*-spec")


def test_check_space_examples(gf4):
    v = check_space(gf4, cons.sl(gf4, 2), parse_predicate("1-spec"))
    assert v.holds and v.mode == "exhaustive" and v.checked == 64
    assert check_space(gf4, cons.sl(gf4, 2), parse_predicate("1bar-spec")).holds
    assert check_space(gf4, cons.nt(gf4, 3), parse_predicate("0bar*-spec")).holds
    v = check_space(gf4, cons.full(gf4, 2), parse_predicate("1-spec"))
    assert not v.holds
    assert v.witness is not None
    # the witness re-verifies in isolation
    prof = profile(gf4, v.witness)
    assert prof.distinct_in_f > 1
    # diag(0, 1)-like witness appears at the earliest failing index
    assert v.witness_index == 1


def test_check_space_rejects_rectangular(gf4):
    s = sub.MatSubspace((2, 3), sub.random_subspace(gf4, random.Random(0), 6, 2))
    with pytest.raises(ValueError):
        check_space(gf4, s, parse_predicate("1-spec"))


def test_sampled_mode_and_determinism(gf4, small_chunk):
    space = cons.full(gf4, 2)
    pred = parse_predicate("1-spec")
    v1 = check_space(gf4, space, pred, budget=8, samples=4000, seed=5, workers=1)
    v8 = check_space(gf4, space, pred, budget=8, samples=4000, seed=5, workers=8)
    assert v1.mode == "sampled" and v1.seed == 5
    assert v1.to_json() == v8.to_json()
    assert not v1.holds
    prof = profile(gf4, v1.witness)
    assert pred.count(prof) > pred.k
    # a different seed may pick a different witness but the verdict stands
    v2 = check_space(gf4, space, pred, budget=8, samples=4000, seed=6)
    assert not v2.holds


def test_worker_invariance_exhaustive(gf4, small_chunk):
    space = cons.sl2_joint_nt(gf4, 4)
    pred = parse_predicate("1bar*-spec")
    a = check_space(gf4, space, pred, workers=1)
    b = check_space(gf4, space, pred, workers=4)
    assert a.to_json() == b.to_json()


def test_is_even_poly(gf4):
    assert is_even_poly((1, 0, 2, 0, 1))   # t^4 + w t^2 + 1
    assert not is_even_poly((0, 0, 0, 1))  # t^3
    assert is_even_poly(up.ZERO)
    # symplectic-symmetric matrices have even characteristic polynomials
    rng = random.Random(3)
    kinv = mx.inverse(gf4, cons.k2m(gf4, 2))
    for _ in range(1000):
        entries = [[0] * 4 for _ in range(4)]
        for i in range(4):
            entries[i][i] = rng.randrange(4)
            for j in range(i + 1, 4):
                entries[i][j] = entries[j][i] = rng.randrange(4)
        s = mx.from_rows(entries)
        assert is_even_poly(mx.char_poly(gf4, mx.mat_mul(gf4, kinv, s)))


def test_check_space_even_charpoly(gf4, gf8):
    assert check_space_even_charpoly(gf4, cons.b2m(gf4, 1)).holds
    assert check_space_even_charpoly(gf8, cons.b2m(gf8, 1)).holds
    v = check_space_even_charpoly(gf4, cons.full(gf4, 2))
    assert not v.holds and not is_even_poly(v.witness_profile.char_poly)


def test_nilpotent_spaces_have_trivial_spectrum(gf4):
    # strictly upper-triangular spaces pass both nonzero-spectrum predicates
    for n in (2, 3, 4):
        assert check_space(gf4, cons.nt(gf4, n), parse_predicate("0*-spec")).holds
        assert check_space(gf4, cons.nt(gf4, n), parse_predicate("0bar*-spec")).holds


def test_sl2_is_a_maximal_one_star_space(gf4):
    # sl2 passes, and the only strictly larger subspace of Mat_2 is Mat_2
    # itself, which fails: the greatest possible dimension is 3
    assert check_space(gf4, cons.sl(gf4, 2), parse_predicate("1*-spec")).holds
    v = check_space(gf4, cons.full(gf4, 2), parse_predicate("1*-spec"))
    assert not v.holds
    prof = profile(gf4, v.witness)
    assert prof.distinct_nonzero_in_f >= 2


def test_check_space_on_zero_dimensional_space(gf4):
    from char2spec.constructions import zero_space
    v = check_space(gf4, zero_space(gf4, 3), parse_predicate("0bar*-spec"))
    assert v.holds and v.checked == 1 and v.mode == "exhaustive"


def test_gf16_sampled_check_uses_sparse_counts(gf16):
    # 16^5 monic quintics exceed the full-table threshold, so the sampled
    # scan counts roots directly; it must still agree with the scalar path
    space = cons.sl2_joint_nt(gf16, 5)
    v = check_space(gf16, space, parse_predicate("1bar*-spec"),
                    budget=1000, samples=1500, seed=3)
    assert v.holds and v.mode == "sampled"
    rng = random.Random(4)
    for _ in range(20):
        m = space.element_at(rng.randrange(16 ** space.dim))
        assert profile(gf16, m).distinct_nonzero_in_closure <= 1


# (space, predicate) -> (outcome, checked, witness_index) of 20 000 samples
# at seed 11, and the histograms of the four root counts over the sampled
# characteristic polynomials, as the per-polynomial upoly counts gave them
_PINNED_GF16 = {
    ("full5", "3bar-spec"): ("fails", 20000, 0),
    ("full5", "3-spec"): ("fails", 20000, 81),
    ("ut5", "2-spec"): ("fails", 20000, 0),
    ("full5", "5bar*-spec"): ("holds", 20000, None),
}
_PINNED_HISTOGRAMS = {
    "full5": [[6690, 7588, 3888, 1543, 184, 107], [7132, 7628, 3689, 1298, 187, 66],
              [0, 0, 9, 135, 1222, 18634], [0, 1, 23, 253, 2226, 17497]],
    "ut5": [[0, 0, 70, 1625, 8267, 10038], [0, 10, 381, 3423, 9263, 6923],
            [0, 0, 70, 1625, 8267, 10038], [0, 10, 381, 3423, 9263, 6923]],
}


def test_gf16_sampled_verdicts_are_pinned(gf16):
    spaces = {"full5": cons.full(gf16, 5), "ut5": cons.ut(gf16, 5)}
    for (name, pred), want in _PINNED_GF16.items():
        v = check_space(gf16, spaces[name], parse_predicate(pred), samples=20000, seed=11)
        assert v.mode == "sampled"
        assert (v.outcome, v.checked, v.witness_index) == want, (name, pred)
    n, k = 5, gf16.degree
    for name, hists in _PINNED_HISTOGRAMS.items():
        space = spaces[name]
        coords = _bulk.code_planes(_bulk.sample_coords(gf16.q, space.dim, 11, 0, 20000), k)
        ents = _bulk.apply_map(coords, _bulk.linear_map(gf16, space.space.basis, n * n), n * n * k)
        polys = _bulk.monic_codes(_bulk.charpoly_planes(gf16, ents.reshape(n, n, k, -1)), 20000)
        for (kind, ez), want in zip([("in_field", False), ("in_field", True),
                                     ("in_closure", False), ("in_closure", True)], hists):
            counts = _bulk.root_counts(gf16, polys, kind, ez)
            assert np.bincount(counts, minlength=6).tolist() == want, (name, kind, ez)


@pytest.mark.parametrize("space,pred", [("nt8", "0bar*-spec"), ("full8", "2-spec")])
def test_gf256_n8_scan_takes_the_bulk_path(monkeypatch, space, pred):
    # n * k = 64: root counts need no packed index, so the scan runs bulk
    fs = FieldSpec(8)
    s = getattr(cons, space[:-1])(fs, 8)
    p = parse_predicate(pred)
    calls = []
    count_roots = _bulk.count_roots
    monkeypatch.setattr(_bulk, "count_roots", lambda *a: calls.append(1) or count_roots(*a))
    v = check_space(fs, s, p, budget=1000, samples=200, seed=4)
    assert calls and v.mode == "sampled" and v.checked == 200
    scalar = _scan_space(fs, s, None, lambda m: not check_element(fs, m, p),
                         1000, 200, 4, 1)
    assert scalar == ("sampled", 200, 4, v.witness_index, v.witness)
    assert v.holds == (space == "nt8")


def test_f2_closure_predicate_on_all_mat3(gf2):
    # scalar spot-check of the packaged GF(2) equivalence on a slice
    from char2spec.acceptance import _minpoly_is_t_a_tplus1_b
    full3 = cons.full(gf2, 3)
    for idx in range(0, 512, 7):
        m = full3.element_at(idx)
        closure = profile(gf2, m).distinct_nonzero_in_closure <= 1
        assert closure == _minpoly_is_t_a_tplus1_b(gf2, m)


# ----------------------------------------------------------------------
# projective exhaustive scans
# ----------------------------------------------------------------------
def _top_digit(i: int, q: int) -> int:
    while i >= q:
        i //= q
    return i


@pytest.mark.parametrize("q,d", [(4, 3), (8, 2), (2, 5)])
def test_projective_indices(q, d):
    count = _bulk.projective_count(q, d)
    assert count == 1 + (q ** d - 1) // (q - 1)
    indices = _bulk.projective_indices(q, d, 0, count).tolist()
    # ascending, and exactly 0 plus the indices whose top nonzero digit is 1
    assert indices == [0] + [i for i in range(1, q ** d) if _top_digit(i, q) == 1]
    for cut in range(count + 1):
        assert (_bulk.projective_indices(q, d, 0, cut).tolist()
                + _bulk.projective_indices(q, d, cut, count).tolist()) == indices


def _nt_plus(fs, n, i, j):
    return cons.nt(fs, n).sum_with(sub.MatSubspace.from_matrices(fs, (n, n), [mx.unit(n, n, i, j)]))


def _not_one_spec(fs):
    return lambda m: len(roots_by_evaluation(fs, charpoly_cofactor(fs, m))) > 1


def _odd_charpoly(fs):
    return lambda m: any(charpoly_cofactor(fs, m)[1::2])


# A space over GF(8) whose basis elements all have even characteristic
# polynomials; the first odd one is at index 66 = 2 + 8^2, past 8^(d-1).
EVEN_GF8_LATE = sub.MatSubspace.from_matrices(GF8, (4, 4), [
    mx.from_rows([[0, 0, 0, 0], [1, 0, 0, 0], [6, 4, 0, 0], [7, 0, 6, 0]]),
    mx.from_rows([[0, 0, 0, 0], [0, 0, 1, 0], [7, 0, 0, 0], [0, 0, 7, 0]]),
    mx.from_rows([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 6, 0]])])


@pytest.mark.parametrize("workers", [1, 3])
def test_projective_scan_keeps_minimal_witness(workers, small_chunk):
    spec_cases = [
        # first failures at 80 > 4^3 and 576 > 8^3
        (GF4, _nt_plus(GF4, 3, 2, 1), "0bar*-spec", lambda m: not is_nilpotent(GF4, m)),
        (GF8, _nt_plus(GF8, 3, 2, 1), "0bar*-spec", lambda m: not is_nilpotent(GF8, m)),
        (GF4, cons.full(GF4, 2), "1-spec", _not_one_spec(GF4)),
    ]
    for fs, space, pred, fails in spec_cases:
        expect = first_failing_index(space, fails)
        v = check_space(fs, space, parse_predicate(pred), workers=workers)
        assert v.mode == "exhaustive" and v.checked == fs.q ** space.dim
        assert v.witness_index == expect
        assert v.witness == space.element_at(expect)
    for fs, space in [(GF8, EVEN_GF8_LATE), (GF4, cons.full(GF4, 2))]:
        expect = first_failing_index(space, _odd_charpoly(fs))
        v = check_space_even_charpoly(fs, space, workers=workers)
        assert v.checked == fs.q ** space.dim
        assert (v.witness_index, v.witness) == (expect, space.element_at(expect))
    assert check_space_even_charpoly(GF8, EVEN_GF8_LATE).witness_index == 66


@pytest.mark.parametrize("workers", [1, 3])
def test_projective_scalar_path_keeps_minimal_witness(workers, small_chunk):
    # fail_batch=None forces the scalar path over the same rank -> index map
    space = _nt_plus(GF8, 3, 2, 1)
    fails = lambda m: not is_nilpotent(GF8, m)
    got = _scan_space(GF8, space, None, fails, budget=1 << 24, samples=0, seed=0,
                      workers=workers)
    expect = first_failing_index(space, fails)
    assert got == ("exhaustive", 8 ** 4, None, expect, space.element_at(expect))


def test_scan_rebuilds_and_rechecks_the_witness(gf4):
    space = cons.full(gf4, 2)
    always = lambda planes, count: np.ones(count, dtype=bool)
    # the batch verdict is re-checked on the rebuilt element with fail_scalar
    got = _scan_space(gf4, space, always, lambda m: True, 1 << 24, 0, 0, 1)
    assert got == ("exhaustive", 4 ** 4, None, 0, mx.zero(2))
    got = _scan_space(gf4, space, always, lambda m: True, 8, 50, 3, 1)
    assert got == ("sampled", 50, 3, 0, sample_element(space, 3, 0))
    with pytest.raises(AssertionError, match="inconsistent"):
        _scan_space(gf4, space, always, lambda m: False, 1 << 24, 0, 0, 1)
    with pytest.raises(AssertionError, match="inconsistent"):
        _scan_space(gf4, space, always, lambda m: False, 8, 50, 3, 1)


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_scan_needs_positive_samples(gf4, samples):
    pred = parse_predicate("0-spec")
    with pytest.raises(ValueError, match="positive sample count"):
        check_space(gf4, cons.full(gf4, 3), pred, budget=1, samples=samples)
    with pytest.raises(ValueError, match="positive sample count"):
        check_space_even_charpoly(gf4, cons.full(gf4, 3), budget=1, samples=samples)
    # an exhaustive scan does not read the sample count
    assert check_space(gf4, cons.nt(gf4, 2), pred, samples=samples).checked == 4


def _splitting_fails(fs, cert):
    """Conditions (b)-(d) of splitting_check in 2-spec mode, from the
    G-block read off the RREF pivots and the quotient trace tr(u) + tr(u|G)."""
    g = cert.kernel

    def fails(u):
        cols = [mx.mat_vec(fs, u, row) for row in g.basis]
        block = mx.Mat(g.dim, g.dim, tuple(cols[j][g.pivots[i]]
                                           for i in range(g.dim) for j in range(g.dim)))
        in_f = len(roots_by_evaluation(fs, charpoly_cofactor(fs, block)))
        tr_q = mx.trace(u) ^ mx.trace(block)
        return in_f > 1 or (tr_q != 0 and in_f > 0) or (not any(block.entries) and tr_q != 0)
    return fails


@pytest.mark.parametrize("workers", [1, 3])
def test_splitting_check_keeps_minimal_witness(gf2, workers, small_chunk):
    # Over GF(q), q >= 4, conditions (b)-(d) follow from the 2-spec hypothesis
    # once the space contains the template, so a failing instance needs GF(2);
    # there the projective scan is the full scan.
    h4 = cons.hurdle_template(gf2, 4)
    cert = st.detect_hurdle(gf2, h4)
    space = h4.sum_with(sub.MatSubspace.from_matrices(gf2, (4, 4), [mx.unit(4, 4, 3, 3)]))
    v = st.splitting_check(gf2, space, cert, mode="2spec", workers=workers)
    expect = first_failing_index(space, _splitting_fails(gf2, cert))
    assert v.outcome == "fails" and v.detail["condition"] == "bcd"
    assert v.detail["index"] == expect == 16
    assert v.detail["witness"] == space.element_at(expect).to_json()


def test_splitting_check_scalar_path(gf2, monkeypatch):
    # the same failing instance, with the bit-sliced kernel switched off
    h4 = cons.hurdle_template(gf2, 4)
    cert = st.detect_hurdle(gf2, h4)
    space = h4.sum_with(sub.MatSubspace.from_matrices(gf2, (4, 4), [mx.unit(4, 4, 3, 3)]))
    bulk = st.splitting_check(gf2, space, cert, mode="2spec")
    monkeypatch.setattr(_bulk, "supports", lambda fs: False)
    scalar = st.splitting_check(gf2, space, cert, mode="2spec")
    assert scalar.to_json() == bulk.to_json()
    assert scalar.detail["index"] == 16
    # k > 8 always takes the scalar path: a sampled hurdle over GF(2^9)
    # certified by the dual plane of e_{n-2}, e_{n-1} holds
    fs = FieldSpec(9)
    plane = sub.span(fs, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    v = st.splitting_check(fs, cons.hurdle_template(fs, 4), st.HurdleCertificate(plane),
                           mode="2spec", budget=1, samples=200)
    assert v.outcome == "holds"
    assert v.detail == {"mode": "sampled", "checked": 200, "seed": 0}


def test_pool_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert pool_threads(1, 10) == 1
    assert pool_threads(3, 10) == 3
    assert pool_threads(8, 10) == 4
    assert pool_threads(10 ** 6, 10 ** 6) == 4
    assert pool_threads(8, 2) == 2
    assert pool_threads(8, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert pool_threads(8, 10) == 1


# ----------------------------------------------------------------------
# bit-sliced element generation and sampling
# ----------------------------------------------------------------------
def _plane_elements(fs, space, coords, width):
    """Entries of the elements built on planes from coordinate codes
    [N, c] (`width` bits each), decoded by plain bit reading."""
    k, length = fs.degree, space.space.ambient
    to_entries = _bulk.linear_map(fs, space.space.basis, length)
    planes = _bulk.apply_map(_bulk.code_planes(coords, width), to_entries, length * k)
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=coords.shape[0],
                         bitorder="little").reshape(length, k, -1).astype(int)
    codes = sum(bits[:, b] << b for b in range(k)).T
    return [tuple(int(x) for x in row) for row in codes]


@pytest.mark.parametrize("fs,shape,dim", [(GF4, (3, 3), 3), (GF8, (2, 2), 3)])
def test_plane_elements_match_element_at(fs, shape, dim):
    space = sub.MatSubspace(shape, sub.random_subspace(fs, random.Random(5), shape[0] * shape[1], dim))
    width = dim * fs.degree
    # every index, in batches cut at and across the 64-lane word
    for lo, hi in [(0, 1), (0, 64), (1, 66), (60, fs.q ** dim)]:
        idx = np.arange(lo, hi, dtype=np.int64)[:, None]
        assert _plane_elements(fs, space, idx, width) == [
            space.element_at(i).entries for i in range(lo, hi)]
    # every projective rank
    ranks = _bulk.projective_indices(fs.q, dim, 0, _bulk.projective_count(fs.q, dim))
    assert _plane_elements(fs, space, ranks[:, None], width) == [
        space.element_at(int(i)).entries for i in ranks]
    # sampled coordinates
    coords = _bulk.sample_coords(fs.q, dim, 17, 0, 130)
    assert _plane_elements(fs, space, coords, fs.degree) == [
        _element_for_index(fs, space, i, False, 17).entries for i in range(130)]
    assert _element_for_index(fs, space, 129, False, 17) == sample_element(space, 17, 129)


def test_sample_stream_unchanged_for_small_fields():
    assert _bulk.sample_coords(4, 10, 7, 0, 3).tolist() == [
        [3, 2, 0, 1, 2, 0, 0, 3, 1, 3], [1, 1, 0, 0, 3, 1, 2, 2, 3, 0],
        [1, 1, 1, 0, 0, 1, 0, 3, 3, 1]]
    assert _bulk.sample_coords(16, 5, 123456789, 1000, 1002).tolist() == [
        [2, 9, 9, 10, 10], [11, 0, 7, 8, 1]]
    assert _bulk.sample_coords(256, 9, 2 ** 40 + 5, 5, 7).tolist() == [
        [230, 189, 221, 45, 146, 198, 84, 190, 9], [10, 21, 133, 21, 38, 124, 143, 35, 28]]
    assert _bulk.sample_coords(2, 3, 0, 0, 4).tolist() == [[0, 1, 1], [0, 1, 0], [0, 1, 0], [1, 1, 0]]


@pytest.mark.parametrize("k", [9, 16])
def test_sample_coords_cover_wide_fields(k):
    q, d, count = 1 << k, 6, 20_000
    coords = _bulk.sample_coords(q, d, 42, 0, count)
    assert coords.dtype == np.uint16 and int(coords.max()) > 255 and int(coords.max()) < q
    bits = (coords[:, :, None].astype(np.int64) >> np.arange(k)) & 1      # [count, d, k]
    # every bit of every coordinate is balanced: 0.02 is 5.7 standard deviations
    assert np.all(np.abs(bits.mean(axis=0) - 0.5) < 0.02)
    # neighbouring coordinates share no bits: in overlapping byte windows,
    # bit b + 8 of coordinate j would equal bit b of coordinate j + 1
    agree = (bits[:, :-1, 8:] == bits[:, 1:, :k - 8]).mean(axis=0)
    assert np.all(np.abs(agree - 0.5) < 0.02)
    assert coords[:5].tolist() == [sample_coordinates(q, d, 42, i) for i in range(5)]


def _field_plane(fs):
    """Span of C and C^2, C the companion matrix of an irreducible cubic:
    part of a copy of GF(q^3), so only the zero matrix has an eigenvalue in F."""
    cubic = next(f for f in all_monic(fs, 3) if not roots_by_evaluation(fs, f))
    c = mx.companion(cubic)
    return sub.MatSubspace.from_matrices(fs, (3, 3), [c, mx.mat_mul(fs, c, c)])


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("chunk", [5, 50, 100])
def test_pad_lanes_never_fail(monkeypatch, workers, chunk):
    # the zero matrix fails 0-spec, and lanes past a batch's end hold zeros
    monkeypatch.setattr(spectra, "CHUNK", chunk)
    pred = parse_predicate("0-spec")
    fails = lambda m: len(roots_by_evaluation(GF4, charpoly_cofactor(GF4, m))) > 0
    space = _field_plane(GF4)
    v = check_space(GF4, space, pred, workers=workers)
    assert v.mode == "exhaustive" and v.checked == 16 and v.witness_index == 0
    v = check_space(GF4, cons.nt(GF4, 3), pred, workers=workers)
    assert v.checked == 64 and v.witness_index == 0
    for seed in range(4):
        v = check_space(GF4, space, pred, budget=8, samples=300, seed=seed, workers=workers)
        assert v.mode == "sampled"
        assert v.witness_index == first_failing_sample(space, seed, 300, fails)
        assert v.witness == sample_element(space, seed, v.witness_index)


def test_scan_partition_is_bounded_by_chunks(monkeypatch):
    # a huge worker count must not cut the scan into one-element batches
    calls = []
    kernel = _bulk.charpoly_planes
    monkeypatch.setattr(_bulk, "charpoly_planes",
                        lambda fs, mats: calls.append(1) or kernel(fs, mats))
    space, pred = cons.sl2_joint_nt(GF4, 4), parse_predicate("1bar*-spec")
    runs = []
    for workers in (1, 10 ** 6):
        calls.clear()
        v = check_space(GF4, space, pred, budget=8, samples=20_000, seed=1, workers=workers)
        runs.append((v.to_json(), len(calls)))
    assert runs[0] == runs[1] and runs[0][1] == 1
