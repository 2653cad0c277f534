import os
import random
import threading
import time
import tracemalloc
from functools import partial
from itertools import chain

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
from char2spec.spectra import (Scan, SpecPredicate, _element_for_index, _scan_space,
                               check_element, check_space, check_space_even_charpoly,
                               is_even_poly, parse_predicate, profile)
from oracles import (all_monic, charpoly_cofactor, first_failing_index, first_failing_sample,
                     is_nilpotent, projective_indices, root_slots, roots_by_evaluation,
                     sample_coordinates, sample_element)


@pytest.fixture
def small_chunk(monkeypatch):
    # small batches, so that several workers get several ranges to merge;
    # the list gets one entry per batch of the charpoly kernel
    monkeypatch.setattr(spectra, "CHUNK", 16)
    calls = []
    kernel = _bulk.charpoly_planes
    monkeypatch.setattr(_bulk, "charpoly_planes",
                        lambda fs, mats: calls.append(1) or kernel(fs, mats))
    return calls


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


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, FieldSpec(9)], ids=["gf2", "gf4", "gf8", "gf2^9"])
def test_profile_matches_root_slots_of_the_cofactor_charpoly(fs):
    rng = random.Random(40 + fs.degree)
    for t in range(60):
        n = rng.randrange(1, 6)
        m = mx.random_matrix(fs, rng, n)
        if t % 2:         # singular matrices, so that the root 0 shows up
            m = mx.Mat(n, n, m.entries[:-n] + (0,) * n)
        f = charpoly_cofactor(fs, m)
        p = profile(fs, m)
        assert p.char_poly == f
        assert (p.distinct_in_f, p.distinct_nonzero_in_f, p.distinct_in_closure,
                p.distinct_nonzero_in_closure) == root_slots(fs, f)


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
    with pytest.raises(TypeError):   # the bound is written in the text alone
        parse_predicate("*-spec", k=1)
    for text in ("*-spec", "bar", "-spec"):
        with pytest.raises(ValueError, match="has no bound k"):
            parse_predicate(text)
    for text in ("-1-spec", "-2bar*", "-1*-spec"):
        with pytest.raises(ValueError, match="has a negative bound k"):
            parse_predicate(text)
    # only ASCII decimal digits: int() alone would read 1_0 as 10, +2 and
    # ' 2 ' as 2 and an Arabic-Indic three as 3
    for text in ("x-spec", "1.5-spec", "2barbar-spec", "1_0-spec", "+2-spec", " 2 bar-spec",
                 "\u0663-spec", "2 -spec", "- 1-spec"):
        with pytest.raises(ValueError, match="has a bound k that is not an integer"):
            parse_predicate(text)


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
    assert len(small_chunk) > 1         # one word per batch
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
    # scan counts roots on the coefficient planes (k = 4 <= 7) with no
    # table and no cache; it must still agree with the scalar path
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
        coords = _bulk.sample_planes(gf16.q, space.dim, 11, 0, 20000)
        ents = _bulk.apply_map(coords, _bulk.linear_map(gf16, space.space.basis, n * n), n * n * k)
        coeffs = _bulk.charpoly_planes(gf16, ents.reshape(n, n, k, -1))
        for (kind, ez), want in zip([("in_field", False), ("in_field", True),
                                     ("in_closure", False), ("in_closure", True)], hists):
            counts = _bulk.spectrum_counts(gf16, coeffs, 20000, kind, ez)
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
    expect = first_failing_sample(s, 4, 200, lambda m: not check_element(fs, m, p))
    assert v.witness_index == expect
    assert v.witness == (None if expect is None else sample_element(s, 4, expect))
    assert v.holds == (space == "nt8")


def test_gf16_nt5_scan_takes_one_derivative_gcd_per_lane(monkeypatch, gf16):
    # every characteristic polynomial of nt5 is x^5: every lane has a
    # repeated factor.  gcd(f, f') runs once per lane, on the planes, and
    # the code rows go on from its result, with gcds of degree < 5 only
    plane_lanes, row_degrees = [], []
    derivative_gcd, gcd = _bulk._derivative_gcd, _bulk._gcd
    monkeypatch.setattr(_bulk, "_derivative_gcd",
                        lambda fs, c, count: plane_lanes.append(count) or derivative_gcd(fs, c, count))
    monkeypatch.setattr(_bulk, "_gcd", lambda fs, f, g, df, dg: row_degrees.append(int(df.max()))
                        or gcd(fs, f, g, df, dg))
    v = check_space(gf16, cons.nt(gf16, 5), parse_predicate("0bar*-spec"), samples=2000, seed=5)
    assert v.holds and v.mode == "sampled" and v.checked == 2000
    assert sum(plane_lanes) == 2000
    assert row_degrees and max(row_degrees) < 5


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
    indices = projective_indices(q, d)
    assert len(indices) == 1 + (q ** d - 1) // (q - 1)
    # ascending, and exactly 0 plus the indices whose top nonzero digit is 1
    assert indices == [0] + [i for i in range(1, q ** d) if _top_digit(i, q) == 1]


def _word_indices(q, d, lo, hi):
    """The indices of the lanes a projective scan of F_q^d checks in its
    word ranks [lo, hi)."""
    words = _bulk.projective_words(q, d, lo, hi)
    lanes = (64 * words[:, None] + np.arange(64)).reshape(-1)
    return lanes[lanes < q ** d].tolist()


@pytest.mark.parametrize("q,d", [(2, 5), (2, 12), (4, 3), (4, 10), (8, 2), (8, 7)])
def test_word_cover_is_the_projective_indices_and_word_zero(q, d):
    count = _bulk.projective_word_count(q, d)
    covered = _word_indices(q, d, 0, count)
    reps = projective_indices(q, d)
    head = list(range(min(64, q ** d)))
    # word 0 whole, then exactly the representatives past it, ascending
    assert covered == head + [i for i in reps if i >= 64]
    assert set(reps) <= set(covered)
    # cut at every batch boundary, for batches of one word up to the default
    for batch in (1, 3, max(1, spectra.CHUNK // 64)):
        pieces = [_word_indices(q, d, lo, min(lo + batch, count)) for lo in range(0, count, batch)]
        assert list(chain.from_iterable(pieces)) == covered, batch


def test_word_lookup_reads_the_rank_range_alone():
    # GF(2), d = 60: 2^54 words; the last three are the top of block 2^59
    count = _bulk.projective_word_count(2, 60)
    assert count == 1 + sum(2 ** j // 64 for j in range(6, 60))
    start = time.perf_counter()
    words = _bulk.projective_words(2, 60, count - 3, count)
    assert time.perf_counter() - start < 1.0
    assert words.tolist() == [2 ** 54 - 3, 2 ** 54 - 2, 2 ** 54 - 1]
    assert _bulk.projective_words(2, 60, 1, 3).tolist() == [1, 2]   # block 2^6, then 2^7


def _line_predicate(fs, d, bad):
    """fail_batch and fail_scalar over the 1 x d space of coordinate rows:
    an element fails iff the smallest index on its line is in `bad`, which
    makes the predicate invariant under scaling.  Also returns the list
    that gets one entry per batch."""
    q, batches = fs.q, []

    def representative(coords):
        top = next((c for c in reversed(coords) if c), 0)
        if not top:
            return 0
        inv = fs.inv(top)
        return sum(fs.mul(inv, c) * q ** j for j, c in enumerate(coords))

    def fail_batch(planes, count):
        batches.append(1)
        codes = _bulk.lane_codes(planes.reshape(d, fs.degree, -1), count)
        return np.array([representative([int(c) for c in row]) in bad for row in codes])

    return fail_batch, lambda m: representative(list(m.entries)) in bad, batches


@pytest.mark.parametrize("workers", [1, 3])
def test_word_scan_keeps_minimal_witness(workers, small_chunk):
    # (field, d, representatives of the failing lines): failing
    # non-representatives in word 0 (10, 15 on the line of 5; 42, 63 on the
    # line of 21) ahead of failing representatives; first failures at the
    # first and last lanes of word 1, and in word 3 of a GF(2) scan
    cases = [(GF4, 4, {5, 16}), (GF4, 4, {21, 100}), (GF4, 4, {64}), (GF4, 4, {127}),
             (GF2, 8, {200, 255}), (GF8, 2, {9}), (GF4, 4, set())]
    for fs, d, bad in cases:
        space = sub.MatSubspace((1, d), sub.full_space(fs, d))
        fail_batch, fail_scalar, batches = _line_predicate(fs, d, bad)
        expect = first_failing_index(space, fail_scalar)
        got = _scan_space(fs, space, fail_batch, fail_scalar, 1 << 24, 0, 0, workers)
        witness = None if expect is None else space.element_at(expect)
        assert got == Scan("exhaustive", fs.q ** d, None, expect, witness), (fs.q, d, bad)
        if not bad:     # one batch per word: GF(4), d = 4 has words 0 and 1
            assert len(batches) == _bulk.projective_word_count(fs.q, d) == 2


def test_exhaustive_scan_refuses_indices_past_int64():
    pred = parse_predicate("1-spec")
    wide = sub.MatSubspace((1, 63), sub.full_space(GF2, 63))       # 2^63 elements
    with pytest.raises(ValueError, match="int64"):
        _scan_space(GF2, wide, None, None, 1 << 63, 0, 0, 1)
    with pytest.raises(ValueError, match="int64"):
        check_space(GF4, cons.full(GF4, 6), parse_predicate("6-spec"), budget=4 ** 36)
    # under the budget the same spaces are sampled
    v = check_space(GF2, cons.full(GF2, 8), pred, budget=1 << 62, samples=64)
    assert v.mode == "sampled" and v.checked == 64


def _nt_plus(fs, n, i, j):
    return cons.nt(fs, n).sum_with(sub.MatSubspace.from_matrices(fs, (n, n), [mx.unit(n, n, i, j)]))


def _space_of(fs, n, text):
    """The span of sums of unit matrices: "00+11 01" is span(E00 + E11, E01)."""
    mats = []
    for term in text.split():
        entries = [0] * (n * n)
        for ij in term.split("+"):
            entries[int(ij[0]) * n + int(ij[1])] = 1
        mats.append(mx.Mat(n, n, entries))
    return sub.MatSubspace.from_matrices(fs, (n, n), mats)


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
        # contains I, and its scan of one element per coset still spans
        # several words
        (GF4, cons.full(GF4, 3), "1-spec", _not_one_spec(GF4)),
    ]
    for fs, space, pred, fails in spec_cases:
        expect = first_failing_index(space, fails)
        small_chunk.clear()
        v = check_space(fs, space, parse_predicate(pred), workers=workers)
        # one word per batch: several ranges, each at least one batch
        assert workers == 1 or len(small_chunk) > 1
        assert v.mode == "exhaustive" and v.checked == fs.q ** space.dim
        assert v.witness_index == expect
        assert v.witness == space.element_at(expect)
    # the second contains I, and its scan of one element per coset still
    # spans several words
    even_gf4 = _space_of(GF4, 4, "00+11+22+33 01 02 03 12 13 23 20")
    for fs, space in [(GF8, EVEN_GF8_LATE), (GF4, even_gf4)]:
        expect = first_failing_index(space, _odd_charpoly(fs))
        small_chunk.clear()
        v = check_space_even_charpoly(fs, space, workers=workers)
        assert workers == 1 or len(small_chunk) > 1
        assert v.checked == fs.q ** space.dim
        assert (v.witness_index, v.witness) == (expect, space.element_at(expect))
    assert check_space_even_charpoly(GF8, EVEN_GF8_LATE).witness_index == 66


def _oracle_fails(fs, pred):
    """A predicate's failure from the cofactor characteristic polynomial and
    the scalar root counts, or an odd coefficient for "even"."""
    if pred == "even":
        return _odd_charpoly(fs)
    p = parse_predicate(pred)
    slot = 2 * (p.kind == "in_closure") + p.exclude_zero
    return lambda m: root_slots(fs, charpoly_cofactor(fs, m))[slot] > p.k


def _check(fs, space, pred, **kw):
    if pred == "even":
        return check_space_even_charpoly(fs, space, **kw)
    return check_space(fs, space, parse_predicate(pred), **kw)


# Spaces that contain I: (field, n, space, predicates).  With e_j the
# coordinates of I in the RREF basis, J = max{j : e_j != 0} is the digit a
# scan drops; J k < 6 puts it among the lane bits of a 64-lane word, J k >= 6
# among the bits of the word number.  First failures, in predicate order:
_SHIFT_CASES = [
    (GF2, 3, "00+11+22 01 02 12 10", ("1-spec", "1bar-spec")),           # J = 0: 10, 10
    (GF2, 3, "00 01 02 11+22 12 20", ("2bar-spec",)),                    # J = 3: 37
    (GF2, 4, "00+11 01 02 03 12 13 22+33 23 30",
     ("1-spec", "2bar-spec", "even")),                                   # J = 6: 1, 265, 265
    (GF4, 3, "00+11+22 01 12 20", ("1-spec", "2bar-spec")),             # J = 0: 84, 84
    (GF4, 3, "00 01 02 11+22 12 20", ("2-spec", "2bar-spec")),          # J = 3: 1041, 1041
    (GF4, 2, "00+11 01+11 10", ("even",)),                              # J = 0: 4
    (GF4, 4, "00+11 01 02 22+33 23+33", ("even",)),                     # J = 3: 256
    (GF8, 3, "00+11+22 01 02 12 10", ("1-spec", "1bar-spec")),           # J = 0: 520, 520
    (GF8, 3, "00 02 11+22 12 20", ("2-spec", "2bar-spec")),             # J = 2: 4107, 4105
    (GF8, 2, "00+11 01+11 10", ("even",)),                              # J = 0: 8
    (GF8, 4, "00+11 01 22+33 23+33", ("even",)),                        # J = 2: 512
]


@pytest.fixture(scope="module")
def shift_expectations():
    """The first failing index of every _SHIFT_CASES scan, by a full walk."""
    return {(fs.q, text, pred): first_failing_index(_space_of(fs, n, text), _oracle_fails(fs, pred))
            for fs, n, text, preds in _SHIFT_CASES for pred in preds}


@pytest.mark.parametrize("workers", [1, 3])
def test_translation_scan_keeps_minimal_witness(workers, small_chunk, shift_expectations):
    # one element per coset M + F I, against the full walk; the cases put J
    # among the lane bits and among the word bits in every field, with a
    # witness past q^(J+1), where the digit put back at J moves the index,
    # and with a witness whose digit at the first nonzero e_j is not 0
    moved, first_digit = set(), False
    for fs, n, text, preds in _SHIFT_CASES:
        space = _space_of(fs, n, text)
        ident = mx.identity(n).entries
        e = [ident[p] for p in space.space.pivots]
        assert space.space.combine(e) == ident
        nonzero = [j for j, c in enumerate(e) if c]
        big = nonzero[-1]
        for pred in preds:
            expect = shift_expectations[fs.q, text, pred]
            v = _check(fs, space, pred, workers=workers)
            assert (v.mode, v.checked) == ("exhaustive", fs.q ** space.dim)
            assert (v.witness_index, v.witness) == (expect, space.element_at(expect)), (text, pred)
            if expect >= fs.q ** (big + 1):
                moved.add((fs.q, big * fs.degree < 6))
            first_digit |= nonzero[0] < big and expect // fs.q ** nonzero[0] % fs.q != 0
    assert moved == {(q, lane) for q in (2, 4, 8) for lane in (True, False)}
    assert first_digit


def test_translation_scan_visits_one_element_per_coset(small_chunk):
    # upper triangular with diagonal (a, b, b) over GF(4) holds 2-spec and
    # 2*-spec, and nt4 1bar-spec; one word per batch, so the kernel runs
    # once per word
    space, nt4 = _space_of(GF4, 3, "00 01 02 11+22 12"), cons.nt(GF4, 4)
    for s, pred, dim in [(space, "2-spec", space.dim - 1), (space, "2*-spec", space.dim),
                         (nt4, "1bar-spec", nt4.dim)]:
        small_chunk.clear()
        v = check_space(GF4, s, parse_predicate(pred))
        assert v.holds and v.checked == 4 ** s.dim
        assert len(small_chunk) == _bulk.projective_word_count(4, dim), pred


@pytest.mark.parametrize("workers", [1, 3])
def test_scans_that_visit_every_coset(workers, small_chunk):
    # no reduction: the * forms (a shift moves a root onto 0 or off it),
    # spaces without I, and sampled scans, which keep their pinned stream
    cases = [(GF4, 3, "00+11+22 01 12", "0bar*-spec"),      # I itself fails
             (GF8, 3, "00+11+22 01 02 12 10", "1*-spec"),
             (GF2, 4, "00+11 01 02 03 12 13 22+33 23 30", "1bar*-spec"),
             (GF4, 3, "00 01 02 12 21", "1-spec"),
             (GF8, 3, "01 02 12 10 20", "2bar-spec")]
    for fs, n, text, pred in cases:
        space = _space_of(fs, n, text)
        expect = first_failing_index(space, _oracle_fails(fs, pred))
        v = _check(fs, space, pred, workers=workers)
        assert (v.mode, v.checked) == ("exhaustive", fs.q ** space.dim)
        assert (v.witness_index, v.witness) == (expect, space.element_at(expect)), (text, pred)
    for fs, n, text, preds in [case for case in _SHIFT_CASES if case[0] is GF4]:
        space = _space_of(fs, n, text)
        for pred in preds:
            v = _check(fs, space, pred, budget=8, samples=300, seed=11, workers=workers)
            assert (v.mode, v.checked) == ("sampled", 300)
            expect = first_failing_sample(space, 11, 300, _oracle_fails(fs, pred))
            assert v.witness_index == expect, (text, pred)
            assert expect is None or v.witness == sample_element(space, 11, expect)


@pytest.mark.parametrize("fs", [GF2, GF4, GF8], ids=["gf2", "gf4", "gf8"])
def test_scans_across_block_cuts_match_the_scalar_walk(fs, small_chunk):
    # nt4 and ut4 split at every cut; E32, E10 and E30 each cross some of
    # them, so a batch splits only where all its lanes leave that coordinate
    # at 0.  nt4 + E32 and nt4 + E10 fail 0bar*-spec and 1-spec only through
    # the crossing entry: a cut taken across it hides the failure, and a
    # scan re-verifies only the witness it reports.  One word or 16 samples
    # per batch; exhaustive where the scalar walk covers q^dim <= 2^14
    # elements (GF(8) walks nt3 + E21 in test_projective_scan_keeps_minimal_witness)
    ut4_e30 = cons.ut(fs, 4).sum_with(sub.MatSubspace.from_matrices(fs, (4, 4), [mx.unit(4, 4, 3, 0)]))
    spaces = {"nt4": cons.nt(fs, 4), "nt4+E32": _nt_plus(fs, 4, 3, 2),
              "nt4+E10": _nt_plus(fs, 4, 1, 0), "ut4": cons.ut(fs, 4), "ut4+E30": ut4_e30}
    for name, space in spaces.items():
        for pred in ("0bar*-spec", "1-spec", "even"):
            fails = _oracle_fails(fs, pred)
            if fs.q ** space.dim <= 1 << 14:
                v = _check(fs, space, pred)
                expect = first_failing_index(space, fails)
                assert (v.mode, v.witness_index) == ("exhaustive", expect), (name, pred)
            v = _check(fs, space, pred, budget=8, samples=300, seed=5)
            expect = first_failing_sample(space, 5, 300, fails)
            assert (v.mode, v.witness_index) == ("sampled", expect), (name, pred)


def test_scan_rebuilds_and_rechecks_the_witness(gf4):
    space = cons.full(gf4, 2)
    always = lambda planes, count: np.ones(count, dtype=bool)
    # the batch verdict is re-checked on the rebuilt element with fail_scalar
    got = _scan_space(gf4, space, always, lambda m: True, 1 << 24, 0, 0, 1)
    assert got == Scan("exhaustive", 4 ** 4, None, 0, mx.zero(2))
    got = _scan_space(gf4, space, always, lambda m: True, 8, 50, 3, 1)
    assert got == Scan("sampled", 50, 3, 0, sample_element(space, 3, 0))
    with pytest.raises(AssertionError, match="inconsistent"):
        _scan_space(gf4, space, always, lambda m: False, 1 << 24, 0, 0, 1)
    with pytest.raises(AssertionError, match="inconsistent"):
        _scan_space(gf4, space, always, lambda m: False, 8, 50, 3, 1)


def test_fail_scalar_runs_only_on_the_witness(gf2, gf4, monkeypatch):
    # planes decide every element; fail_scalar re-checks the witness alone.
    # Each run lists its scans in order as (found a witness, fail_scalar
    # calls): a failing splitting check scans its hypothesis with (b)-(c),
    # then the hypothesis alone; a holding one makes the first scan only
    scans = []
    engine = spectra._scan_space

    def counted(fs, s, fail_batch, fail_scalar, *rest):
        calls = []
        out = engine(fs, s, fail_batch, lambda m: calls.append(1) or fail_scalar(m), *rest)
        scans.append((out.witness is not None, len(calls)))
        return out
    monkeypatch.setattr(spectra, "_scan_space", counted)
    monkeypatch.setattr(st, "_scan_space", counted)
    h4 = cons.hurdle_template(gf2, 4)
    cert = st.detect_hurdle(gf2, h4)
    plus = h4.sum_with(sub.MatSubspace.from_matrices(gf2, (4, 4), [mx.unit(4, 4, 3, 3)]))
    scalar3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    found, clean = (True, 1), (False, 0)
    runs = [
        (lambda: check_space(gf4, cons.full(gf4, 3), parse_predicate("1-spec")), [found]),
        (lambda: check_space(gf4, cons.nt(gf4, 3), parse_predicate("0bar*-spec")), [clean]),
        (lambda: check_space(gf4, cons.full(gf4, 3), parse_predicate("1-spec"),
                             budget=1, samples=100), [found]),
        (lambda: check_space(gf4, cons.nt(gf4, 3), parse_predicate("0bar*-spec"),
                             budget=1, samples=100), [clean]),
        (lambda: check_space_even_charpoly(gf4, cons.full(gf4, 2)), [found]),
        (lambda: check_space_even_charpoly(gf4, cons.nt(gf4, 2)), [clean]),
        (lambda: st.splitting_check(gf2, plus, cert), [found, clean]),
        (lambda: st.splitting_check(gf2, h4, cert), [clean]),
        (lambda: st.find_alternator(gf4, cons.alts(gf4, 3)), [found]),
        (lambda: st.find_alternator(gf4, scalar3), [clean]),
        (lambda: st.find_alternator(gf4, cons.alts(gf4, 3), budget=1, samples=100), [found]),
        (lambda: st.find_alternator(gf4, scalar3, budget=1, samples=100), [clean]),
    ]
    for run, want in runs:
        scans.clear()
        run()
        assert scans == want


@pytest.mark.parametrize("samples", [0, -5])
def test_sampled_scan_needs_positive_samples(gf4, samples):
    pred = parse_predicate("0-spec")
    with pytest.raises(ValueError, match="positive sample count"):
        check_space(gf4, cons.full(gf4, 3), pred, budget=1, samples=samples)
    with pytest.raises(ValueError, match="positive sample count"):
        check_space_even_charpoly(gf4, cons.full(gf4, 3), budget=1, samples=samples)
    # an exhaustive scan does not read the sample count
    assert check_space(gf4, cons.nt(gf4, 2), pred, samples=samples).checked == 4


def _splitting_fails(fs, cert, mode="2spec"):
    """Conditions (b)-(d) of splitting_check, from the G-block read off the
    RREF pivots and the quotient trace tr(u) + tr(u|G)."""
    g = cert.kernel

    def fails(u):
        cols = [mx.mat_vec(fs, u, row) for row in g.basis]
        block = mx.Mat(g.dim, g.dim, tuple(cols[j][g.pivots[i]]
                                           for i in range(g.dim) for j in range(g.dim)))
        roots = roots_by_evaluation(fs, charpoly_cofactor(fs, block))
        bad_b = len(roots) > 1 if mode == "2spec" else any(roots)
        tr_q = mx.trace(u) ^ mx.trace(block)
        return bad_b or (tr_q != 0 and len(roots) > 0) or (not any(block.entries) and tr_q != 0)
    return fails


@pytest.mark.parametrize("workers", [1, 3])
def test_splitting_check_keeps_minimal_witness(gf2, workers, small_chunk):
    # Over GF(q), q >= 4, conditions (b)-(d) follow from the 2-spec hypothesis
    # once the space contains the template, so a failing instance needs GF(2);
    # there the projective scan is the full scan.
    h4 = cons.hurdle_template(gf2, 4)
    cert = st.detect_hurdle(gf2, h4)
    space = h4.sum_with(sub.MatSubspace.from_matrices(gf2, (4, 4), [mx.unit(4, 4, 3, 3)]))
    small_chunk.clear()
    v = st.splitting_check(gf2, space, cert, mode="2spec", workers=workers)
    assert workers == 1 or len(small_chunk) > 1
    expect = first_failing_index(space, _splitting_fails(gf2, cert))
    assert expect == 16 and v.outcome == "fails"
    assert v.detail == {"condition": "bcd", "witness": space.element_at(expect).to_json(),
                        "index": expect, "mode": "exhaustive"}


def test_splitting_check_sampled_wide_field_holds():
    # over GF(2^9): a sampled hurdle certified by the dual plane of
    # e_{n-2}, e_{n-1} holds
    fs = FieldSpec(9)
    plane = sub.span(fs, 4, [(0, 0, 1, 0), (0, 0, 0, 1)])
    v = st.splitting_check(fs, cons.hurdle_template(fs, 4), st.HurdleCertificate(plane),
                           mode="2spec", budget=1, samples=200)
    assert v.outcome == "holds"
    assert v.detail == {"mode": "sampled", "checked": 200, "seed": 0}


@pytest.fixture
def batch_threads(monkeypatch):
    # batches of 16 samples; the list gets the thread of every batch of the
    # charpoly kernel.  Thread objects, not idents: a joined thread's ident
    # can come back on the next thread started.
    monkeypatch.setattr(spectra, "CHUNK", 16)
    threads = []
    kernel = _bulk.charpoly_planes
    monkeypatch.setattr(_bulk, "charpoly_planes",
                        lambda fs, mats: threads.append(threading.current_thread())
                        or kernel(fs, mats))
    return threads


def test_scan_threads_never_outnumber_the_processors(batch_threads):
    # a huge --workers cuts one range per batch, more ranges than processors
    cpus = os.cpu_count() or 1
    ranges = max(16, 2 * cpus)
    v = check_space(GF4, cons.nt(GF4, 3), parse_predicate("1-spec"), budget=1,
                    samples=16 * ranges, workers=10 ** 6)
    assert v.mode == "sampled" and v.holds
    assert len(batch_threads) == ranges
    assert threading.main_thread() not in batch_threads
    assert len(set(batch_threads)) <= cpus


def test_scans_reuse_the_pool_threads(batch_threads):
    def scan():
        batch_threads.clear()
        v = check_space(GF4, cons.nt(GF4, 3), parse_predicate("1-spec"), budget=1,
                        samples=64, workers=2)
        assert v.mode == "sampled" and v.holds and len(batch_threads) == 4
        return set(batch_threads)

    first = scan()
    alive = set(threading.enumerate())
    second = scan()
    assert threading.main_thread() not in first | second
    # the second scan starts no thread: it runs on threads the first left running
    assert first <= alive and second <= alive


def test_each_range_keeps_its_scan_thread(monkeypatch):
    # range i runs on scan thread i mod processors in every scan: a thread
    # that is free early never takes a range of another
    monkeypatch.setattr(spectra, "CHUNK", 16)
    cpus = os.cpu_count() or 1
    ranges = 2 * cpus
    seen = {}
    planes = _bulk.sample_planes

    def record(q, d, seed, lo, hi):
        seen[lo // 16] = threading.current_thread()
        return planes(q, d, seed, lo, hi)

    monkeypatch.setattr(_bulk, "sample_planes", record)

    def scan():
        seen.clear()
        v = check_space(GF4, cons.nt(GF4, 3), parse_predicate("1-spec"), budget=1,
                        samples=16 * ranges, workers=ranges)
        assert v.mode == "sampled" and v.holds and sorted(seen) == list(range(ranges))
        return [seen[i] for i in range(ranges)]

    first = scan()
    assert threading.main_thread() not in first
    for i in range(ranges):
        for j in range(ranges):
            assert (first[i] is first[j]) == (i % cpus == j % cpus), (i, j)
    assert scan() == first


def test_one_range_runs_in_the_calling_thread(batch_threads):
    v = check_space(GF4, cons.nt(GF4, 3), parse_predicate("1-spec"), budget=1,
                    samples=16, workers=8)
    assert v.mode == "sampled" and set(batch_threads) == {threading.current_thread()}


# ----------------------------------------------------------------------
# bit-sliced element generation and sampling
# ----------------------------------------------------------------------
def _plane_elements(fs, space, coords, count):
    """Entries of the elements built on planes from the coordinate planes
    [dim k, W] of `count` lanes, decoded by plain bit reading."""
    k, length = fs.degree, space.space.ambient
    to_entries = _bulk.linear_map(fs, space.space.basis, length)
    planes = _bulk.apply_map(coords, to_entries, length * k)
    bits = np.unpackbits(planes.view(np.uint8), axis=-1, count=count,
                         bitorder="little").reshape(length, k, -1).astype(int)
    codes = sum(bits[:, b] << b for b in range(k)).T
    return [tuple(int(x) for x in row) for row in codes]


@pytest.mark.parametrize("fs,shape,dim", [(GF4, (3, 3), 3), (GF8, (2, 2), 3)])
def test_plane_elements_match_element_at(fs, shape, dim):
    space = sub.MatSubspace(shape, sub.random_subspace(fs, random.Random(5), shape[0] * shape[1], dim))
    width = dim * fs.degree
    # every index, in batches cut at and across the 64-lane word
    for lo, hi in [(0, 1), (0, 64), (1, 66), (60, fs.q ** dim)]:
        idx = _bulk.code_planes(np.arange(lo, hi, dtype=np.int64)[:, None], width)
        assert _plane_elements(fs, space, idx, hi - lo) == [
            space.element_at(i).entries for i in range(lo, hi)]
    # every projective rank
    ranks = np.array(projective_indices(fs.q, dim))
    assert _plane_elements(fs, space, _bulk.code_planes(ranks[:, None], width), ranks.size) == [
        space.element_at(int(i)).entries for i in ranks]
    # sampled coordinates, as the scan draws them
    coords = _bulk.sample_planes(fs.q, dim, 17, 0, 130)
    assert _plane_elements(fs, space, coords, 130) == [
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


@pytest.mark.parametrize("q,d", [(2, 3), (4, 10), (16, 25), (256, 8), (512, 6), (1 << 16, 9), (4, 0)])
def test_sample_coords_match_the_scalar_stream(q, d):
    # both field widths, last stream words cut short and full, no coordinates
    lo = 1 << 33
    got = _bulk.sample_coords(q, d, -5, lo, lo + 70)
    assert got.shape == (70, d) and got.dtype == (np.uint8 if q <= 256 else np.uint16)
    assert got.tolist() == [sample_coordinates(q, d, -5, i) for i in range(lo, lo + 70)]


@pytest.mark.parametrize("d", [0, 8, 9, 25, 36])
@pytest.mark.parametrize("q", [2, 4, 16, 256, 1 << 9, 1 << 16])
def test_sample_planes_match_the_scalar_stream(q, d):
    # both field widths, stream words cut short and full; ranges that start
    # inside a 64-lane word (75000 is where the second range of a
    # two-worker 150000-sample scan starts), partial and whole last words
    k = q.bit_length() - 1
    for lo in (75_000, (1 << 33) + 5):
        for count in (1, 63, 65, 20_000):
            planes = _bulk.sample_planes(q, d, 9, lo, lo + count)
            assert planes.shape == (d * k, -(-count // 64)) and planes.dtype == np.uint64
            codes = _bulk.lane_codes(planes.reshape(d, k, planes.shape[-1]), count)
            # every lane, or every 97th and the whole last word
            lanes = range(count) if count < 100 else [*range(0, count - 64, 97),
                                                      *range(count - 64, count)]
            assert [codes[i].tolist() for i in lanes] == [
                sample_coordinates(q, d, 9, lo + i) for i in lanes], (lo, count)


def test_sample_planes_peak_is_the_stream_words_and_one_temporary():
    # [words, lanes] stream words, one uint64 temporary as large, a byte per
    # gathered bit, the planes out; the byte columns of the codes path
    # (49.5 MiB here) are never built
    q, d, count = 1 << 16, 36, 1 << 16
    words, bits = 9, 8
    _bulk.sample_planes(q, d, 3, 0, 64)     # the stream offsets of seed 3 are cached
    tracemalloc.start()
    try:
        planes = _bulk.sample_planes(q, d, 3, 75_000, 75_000 + count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= words * count * (8 + 8 + bits) + planes.nbytes + (1 << 16)


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
    # the zero matrix fails 0-spec, and lanes past a batch's end (zeros, or
    # indices past q^dim in word 0) are never read
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
    # sampled, 20 000 positions; exhaustive, 342 words of 64 indices
    assert _bulk.projective_word_count(4, space.dim) == 342
    for budget in (8, 1 << 24):
        runs = []
        for workers in (1, 10 ** 6):
            calls.clear()
            v = check_space(GF4, space, pred, budget=budget, samples=20_000, seed=1,
                            workers=workers)
            runs.append((v.to_json(), len(calls)))
        assert runs[0] == runs[1] and runs[0][1] == 1


# the sampled k > 8 verdicts over GF(2^9) at seed 7, 300 samples, as the
# scalar path gave them before k > 8 ran on planes:
# (space, predicate) -> (outcome, witness index)
_WIDE_SAMPLED = {("full3", "2-spec"): ("fails", 16), ("full2", "1-spec"): ("fails", 1),
                 ("ut3", "1-spec"): ("fails", 0), ("nt3", "0bar*-spec"): ("holds", None),
                 ("nt3", "1*-spec"): ("holds", None), ("full3", "3-spec"): ("holds", None)}


@pytest.mark.parametrize("chunk", [7, spectra.CHUNK])
def test_wide_field_sampled_scans_are_pinned(monkeypatch, chunk):
    # each chunk's coordinates are drawn at once; verdicts, witness indices
    # and sampled alternators match the per-sample stream
    monkeypatch.setattr(spectra, "CHUNK", chunk)
    fs = FieldSpec(9)
    for (name, pred), want in _WIDE_SAMPLED.items():
        space = cons.build(fs, name)
        for workers in (1, 3):
            v = check_space(fs, space, parse_predicate(pred), budget=1, samples=300, seed=7,
                            workers=workers)
            assert (v.outcome, v.checked, v.witness_index) == (want[0], 300, want[1])
            if v.witness is not None:
                assert v.witness == sample_element(space, 7, v.witness_index)
    space = cons.build(fs, "full3")
    fails = lambda m: not check_element(fs, m, parse_predicate("2-spec"))
    assert first_failing_sample(space, 7, 300, fails) == 16
    grams = [st.find_alternator(fs, cons.alts(fs, 3), budget=1, samples=50, seed=seed)
             for seed in range(4)]
    assert grams == [mx.Mat(3, 3, [c if i % 4 == 0 else 0 for i in range(9)])
                     for c in (286, 104, 286, 480)]
    scalar3 = sub.MatSubspace.from_matrices(fs, (3, 3), [mx.identity(3)])
    assert st.find_alternator(fs, scalar3, budget=1, samples=50) is None


# ----------------------------------------------------------------------
# k > 8 on planes
# ----------------------------------------------------------------------
_SLOT_PREDS = ["2-spec", "1*-spec", "2bar-spec", "1bar*-spec"]   # one per root-count slot


def _walk(space, sampled, fails):
    """The oracle walk over the sample stream (seed 7, 200 samples) or over
    every element in index order."""
    if sampled:
        return first_failing_sample(space, 7, 200, fails)
    return first_failing_index(space, fails)


@pytest.mark.parametrize("fs", [FieldSpec(9), FieldSpec(10)], ids=["gf2^9", "gf2^10"])
def test_wide_field_planes_match_scalar_path(monkeypatch, fs):
    rng = random.Random(fs.degree)
    # two-dimensional spaces scan exhaustively: q + 2 projective ranks
    mat3 = sub.MatSubspace.from_matrices(fs, (3, 3), [mx.random_matrix(fs, rng, 3) for _ in range(2)])
    mat2 = sub.MatSubspace.from_matrices(fs, (2, 2), [mx.random_matrix(fs, rng, 2) for _ in range(2)])
    sampled = dict(budget=1, samples=200, seed=7)
    spec_fails = lambda p: lambda m: not check_element(fs, m, p)
    odd = lambda m: not is_even_poly(mx.char_poly(fs, m))
    # (call, space, sampled, the scalar predicate, the spectrum hypothesis)
    cases = [(partial(check_space, fs, space, parse_predicate(p), **sampled), space, True,
              spec_fails(parse_predicate(p)), None)
             for space in (cons.build(fs, name) for name in ("full3", "ut3", "nt3"))
             for p in _SLOT_PREDS]
    cases += [(partial(check_space, fs, mat3, parse_predicate(p)), mat3, False,
               spec_fails(parse_predicate(p)), None) for p in _SLOT_PREDS]
    b2m1 = cons.b2m(fs, 1)
    cases += [(partial(check_space_even_charpoly, fs, b2m1, **sampled), b2m1, True, odd, None),
              (partial(check_space_even_charpoly, fs, mat2), mat2, False, odd, None)]
    h4 = cons.hurdle_template(fs, 4)
    cert = st.HurdleCertificate(sub.span(fs, 4, [(0, 0, 1, 0), (0, 0, 0, 1)]))
    plus = h4.sum_with(sub.MatSubspace.from_matrices(fs, (4, 4), [mx.unit(4, 4, 3, 3)]))
    cases += [(partial(st.splitting_check, fs, space, cert, mode=mode, **sampled), space, True,
               _splitting_fails(fs, cert, mode), spec_fails(parse_predicate(hyp)))
              for space in (h4, plus) for mode, hyp in (("2spec", "2-spec"), ("1star", "1*-spec"))]

    kernel, batches = _bulk.charpoly_planes, []
    monkeypatch.setattr(_bulk, "charpoly_planes",
                        lambda fs, mats: batches.append(1) or kernel(fs, mats))
    got = []
    for call, space, is_sampled, fails, hypothesis in cases:
        v = call()
        index = v.witness_index if isinstance(v, Scan) else v.detail.get("index")
        if hypothesis is not None and _walk(space, is_sampled, hypothesis) is not None:
            expect = ("hypothesis-violation", None)
        else:
            i = _walk(space, is_sampled, fails)
            expect = ("holds" if i is None else "fails", i)
        assert (v.outcome, index) == expect
        got.append(expect)
    assert len(batches) >= len(cases)
    assert {outcome for outcome, _ in got} == {"holds", "fails", "hypothesis-violation"}
    assert any(i is not None and i > 1 for _, i in got)


def test_wide_field_scan_memory_is_bounded():
    # nt6 over GF(2^16), one chunk of 2^16 samples: in one block of lanes,
    # the partial products of the plane kernel alone would take 63 MB
    fs = FieldSpec(16)
    space, pred = cons.nt(fs, 6), parse_predicate("0bar*-spec")
    check_space(fs, space, pred, budget=1, samples=64, seed=1)      # field tables built
    tracemalloc.start()
    try:
        v = check_space(fs, space, pred, budget=1, samples=1 << 16, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.holds and v.checked == 1 << 16
    assert peak <= 40 * 10 ** 6


@pytest.mark.parametrize("pred", ["6-spec", "6bar-spec"])
def test_plane_root_count_scan_memory_is_bounded(pred):
    # full6 over GF(128), one chunk of 2^16 samples: 128^6 > 2^16 and
    # k = 7, the widest field whose root counts run on planes; the q k
    # value planes of the roots in F alone take 7 MB
    fs = FieldSpec(7)
    space, p = cons.full(fs, 6), parse_predicate(pred)
    check_space(fs, space, p, budget=1, samples=64, seed=1)          # field tables built
    tracemalloc.start()
    try:
        v = check_space(fs, space, p, budget=1, samples=1 << 16, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.holds and v.checked == 1 << 16
    assert peak <= 40 * 10 ** 6
