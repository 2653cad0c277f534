"""The batch root counter of :mod:`char2spec._bulk` against the scalar
routines of :mod:`char2spec.upoly`."""

import ctypes
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from char2spec import _bulk
from char2spec import matrix as mx
from char2spec import upoly as up
from char2spec.gf import GF2, GF4, GF8, GF16, FieldSpec, code_dtype
from oracles import (WIDE_FIELDS, all_monic, field_id, lane_codes_by_bits, pack_monic,
                     root_slots, spectrum_tables_scalar)

GF256 = FieldSpec(8)
SLOTS = [("in_field", False), ("in_field", True), ("in_closure", False), ("in_closure", True)]


def _codes(fs, polys) -> np.ndarray:
    return np.array(polys, dtype=code_dtype(fs.degree))


def _direct_slots(fs, polys: np.ndarray) -> list[np.ndarray]:
    """The four slots from `count_roots`, which never reads a table."""
    zero = polys[:, 0] == 0
    in_f = _bulk.count_roots(fs, polys, "in_field").astype(int)
    clo = _bulk.count_roots(fs, polys, "in_closure").astype(int)
    return [in_f, in_f - zero, clo, clo - zero]


def _assert_matches_upoly(fs, polys):
    codes = _codes(fs, polys)
    want = np.array([root_slots(fs, f) for f in polys]).T
    for slot, got in enumerate(_direct_slots(fs, codes)):
        assert np.array_equal(got, want[slot]), (fs, SLOTS[slot])
    n = codes.shape[1] - 1
    coeffs = _bulk.code_planes(codes[:, :n], fs.degree).reshape(n, fs.degree, -1)
    for slot, (kind, ez) in enumerate(SLOTS):
        got = _bulk.spectrum_counts(fs, coeffs, len(codes), kind, ez)
        assert got.dtype == np.uint8 and np.array_equal(got, want[slot]), (fs, SLOTS[slot])


@pytest.mark.parametrize("fs,n_max", [(GF2, 8), (GF4, 5), (GF8, 4), (GF16, 3)])
def test_counts_match_upoly_on_every_monic_polynomial(fs, n_max):
    for n in range(1, n_max + 1):
        _assert_matches_upoly(fs, list(all_monic(fs, n)))


def _random_monic(fs, rng, degree):
    return tuple(rng.randrange(fs.q) for _ in range(degree)) + (1,)


def _product(fs, *factors):
    out = up.ONE
    for f in factors:
        out = up.poly_mul(fs, out, f)
    return out


def _constructed(fs, n, rng, per_pattern=40):
    """Degree-n polynomials with repeated factors: p^2, p^3, p^2 q^2 (each
    times a random cofactor), x^n, x^j p^2, (x + a)^n and, for even n,
    derivative-zero squares s^2 and fourth powers."""
    def pad(*factors):
        f = _product(fs, *factors)
        return _product(fs, f, _random_monic(fs, rng, n - up.deg(f)))

    out = [(0,) * n + (1,)]
    for _ in range(per_pattern):
        dp = rng.randrange(1, n // 2 + 1)
        p = _random_monic(fs, rng, dp)
        out.append(pad(p, p))
        p = _random_monic(fs, rng, rng.randrange(1, n // 3 + 1))
        out.append(pad(p, p, p))
        if n >= 4:
            p, q = _random_monic(fs, rng, 1), _random_monic(fs, rng, (n - 2) // 2)
            out.append(pad(p, p, q, q))
        j = rng.randrange(1, n - 1)
        p = _random_monic(fs, rng, (n - j) // 2)
        out.append(pad((0,) * j + (1,), p, p))
        a = (rng.randrange(fs.q), 1)
        out.append(_product(fs, *[a] * n))
        if n % 2 == 0:
            s = _random_monic(fs, rng, n // 2)
            out.append(_product(fs, s, s))
            if n % 4 == 0:
                s = _random_monic(fs, rng, n // 4)
                out.append(_product(fs, s, s, s, s))
    assert all(up.deg(f) == n for f in out)
    if n % 2 == 0:
        assert any(not up.derivative(f) for f in out[1:])
    return out


@pytest.mark.parametrize("fs,n", [(GF16, 5), (GF16, 6), (GF256, 3), (GF256, 4),
                                  (GF2, 17), (GF8, 6), (FieldSpec(5), 4), (FieldSpec(7), 3)])
def test_counts_match_upoly_on_repeated_factors(fs, n):
    # q^n > 2^16: spectrum_counts counts these without a table, on planes
    # for k <= 7 (GF(2) takes the one-plane product) and on code rows from
    # k = 8; random rows, mostly squarefree, sit in the same words
    assert fs.q ** n > 1 << 16
    rng = random.Random(100 * fs.degree + n)
    polys = _constructed(fs, n, rng)
    polys += [_random_monic(fs, rng, n) for _ in range(40)]
    _assert_matches_upoly(fs, rng.sample(polys, len(polys)))


def test_squarefree_gf16_quintics_are_counted_on_planes(monkeypatch):
    # 16^5 > 2^16, k = 4: no lane is unpacked to codes, all four slots
    fs, n, rng = GF16, 5, random.Random(55)
    polys = []
    while len(polys) < 300:
        f = _random_monic(fs, rng, n)
        if up.deg(up.poly_gcd(fs, f, up.derivative(f))) == 0:
            polys.append(f)
    coeffs = _bulk.code_planes(_codes(fs, [f[:n] for f in polys]), fs.degree).reshape(n, fs.degree, -1)
    want = np.array([root_slots(fs, f) for f in polys]).T

    def unpacked(*args):
        raise AssertionError("a squarefree lane was unpacked to codes")

    for name in ("monic_codes", "count_roots", "lane_codes"):
        monkeypatch.setattr(_bulk, name, unpacked)
    for slot, (kind, ez) in enumerate(SLOTS):
        assert np.array_equal(_bulk.spectrum_counts(fs, coeffs, len(polys), kind, ez), want[slot])


@pytest.mark.parametrize("fs,n", [(GF16, 5), (FieldSpec(7), 3)], ids=["gf16-n5", "gf128-n3"])
def test_plane_counts_match_across_lane_blocks(fs, n, monkeypatch):
    # 700 lanes, 11 words in blocks of three; the last block holds 60 lanes
    rng = random.Random(fs.degree)
    polys = _constructed(fs, n, rng, per_pattern=60)[:350]
    polys += [_random_monic(fs, rng, n) for _ in range(700 - len(polys))]
    codes = _codes(fs, [f[:n] for f in rng.sample(polys, len(polys))])
    coeffs = _bulk.code_planes(codes, fs.degree).reshape(n, fs.degree, -1)
    whole = [_bulk.spectrum_counts(fs, coeffs, len(polys), kind, ez) for kind, ez in SLOTS]
    kernel, widths = _bulk._plane_counts, []

    def recorded(fs, coeffs, count, kind):
        widths.append((coeffs.shape[-1], count))
        return kernel(fs, coeffs, count, kind)

    monkeypatch.setattr(_bulk, "_plane_counts", recorded)
    k = fs.degree
    per_word = max(fs.q * (k + 9), (n + 1) * k * max(2 * k, _bulk._mul_network(fs).shape[1]))
    monkeypatch.setattr(_bulk, "_PARTIAL_BYTES", 3 * 8 * per_word)
    for (kind, ez), want in zip(SLOTS, whole):
        widths.clear()
        assert np.array_equal(_bulk.spectrum_counts(fs, coeffs, len(polys), kind, ez), want)
        assert widths == [(11, 700), (3, 192), (3, 192), (3, 192), (2, 124)]


def _wide_field_polys(fs, n, rng, count=30):
    """Degree-n monic polynomials: random rows, products of linear factors
    with repeats (0 among the roots half the time) and, for n >= 4, squares
    of irreducible quadratics times a random cofactor, whose g = gcd(f, f')
    is not 1, so that the closure count recurses on s."""
    out = [_random_monic(fs, rng, n) for _ in range(count)]
    for i in range(count):
        roots = [rng.randrange(fs.q) for _ in range(rng.randrange(1, n + 1))]
        if i % 2:
            roots[0] = 0
        out.append(_product(fs, *[(rng.choice(roots), 1) for _ in range(n)]))
    if n >= 4:
        for _ in range(count):
            p = _random_monic(fs, rng, 2)
            while up.count_roots_in_field(fs, p):
                p = _random_monic(fs, rng, 2)
            out.append(_product(fs, p, p, _random_monic(fs, rng, n - 4)))
    return out


@pytest.mark.parametrize("fs", [FieldSpec(9), FieldSpec(10), FieldSpec(16)],
                         ids=["gf2^9", "gf2^10", "gf2^16"])
def test_wide_field_counts_match_upoly(fs):
    # roots in F by deg gcd(f, x^q - x mod f), in the closure by the
    # squarefree recursion; n = 1 reads the table of all q linear rows
    rng = random.Random(fs.degree)
    for n in range(1, 6):
        _assert_matches_upoly(fs, _wide_field_polys(fs, n, rng))


@pytest.mark.parametrize("fs,n", [(GF4, 4), (GF8, 3)])
def test_spectrum_tables_match_scalar_build(fs, n):
    got = _bulk.spectrum_tables(fs, n)
    want = spectrum_tables_scalar(fs, n)
    for table, ref in zip(got, want):
        assert table.dtype == np.uint8 and table.tolist() == ref


# every table with k <= 7 and q^n <= 2^12, and two larger ones
_TABLES = [(FieldSpec(k), n) for k in range(1, 8) for n in range(1, 12 // k + 1)]
_TABLES += [(GF4, 8), (GF16, 4)]


@pytest.mark.parametrize("fs,n", _TABLES, ids=[f"{fs.name}-n{n}" for fs, n in _TABLES])
def test_spectrum_tables_match_code_row_counts(fs, n):
    # the tables are counted on index planes; count_roots counts the same
    # monic polynomials on explicit code rows, in table order
    polys = _codes(fs, list(all_monic(fs, n)))
    for slot, (table, want) in enumerate(zip(_bulk.spectrum_tables(fs, n),
                                             _direct_slots(fs, polys))):
        assert table.dtype == np.uint8 and np.array_equal(table, want), (fs, n, SLOTS[slot])


def test_spectrum_tables_use_no_code_row_counter(monkeypatch):
    # k <= 7: the table build runs the plane counter; only lanes with a
    # repeated factor leave the planes, after the plane gcd
    def code_rows(*args):
        raise AssertionError("a k <= 7 table was counted on code rows")

    for name in ("count_roots", "field_values"):
        monkeypatch.setattr(_bulk, name, code_rows)
    _bulk.spectrum_tables.cache_clear()
    for fs, n in [(GF4, 8), (GF16, 4), (FieldSpec(7), 2)]:
        tables = _bulk.spectrum_tables(fs, n)
        assert [t.shape for t in tables] == [(fs.q ** n,)] * 4


def test_spectrum_tables_stop_at_the_root_counts_bound():
    # 16^5 = 2^20 polynomials: spectrum_counts counts such batches directly
    with pytest.raises(ValueError, match="count_roots"):
        _bulk.spectrum_tables(GF16, 5)


def test_pack_monic_orders_like_all_monic():
    polys = _codes(GF8, list(all_monic(GF8, 3)))
    assert pack_monic(GF8, polys) == list(range(8 ** 3))


def _perfbench_tables():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return sorted({(fs.degree, n) for pairs in workloads.TABLES.values() for fs, n in pairs})


def test_table_index_matches_packed_codes():
    # lane_codes against a bit-by-bit reader: every width in one or two
    # bytes, 1-5 columns, lanes cut inside and at a word
    rng = np.random.default_rng(12)
    counts = (0, 1, 63, 64, 65, 200)
    for b in range(1, 17):
        for c in range(1, 6):
            for count in counts:
                planes = rng.integers(0, 1 << 64, size=(c, b, -(-count // 64)), dtype=np.uint64)
                got = _bulk.lane_codes(planes, count)
                assert got.dtype == code_dtype(b) and got.shape == (count, c), (b, c, count)
                assert got.tolist() == lane_codes_by_bits(planes, count), (b, c, count)
    # the table index is lane_codes of the n k coefficient planes as one
    # column: every (field, n) whose spectrum table the benchmark reads,
    # plus the widest index of each byte count
    for k, n in _perfbench_tables() + [(2, 8), (2, 16), (16, 1)]:
        fs = FieldSpec(k)
        if fs.q ** n > 1 << 16:
            continue
        tables = _bulk.spectrum_tables(fs, n)
        for count in counts + (4096,):
            coeffs = rng.integers(0, 1 << 64, size=(n, k, -(-count // 64)), dtype=np.uint64)
            index = pack_monic(fs, [row + [1] for row in lane_codes_by_bits(coeffs, count)])
            for slot, (kind, ez) in enumerate(SLOTS):
                got = _bulk.spectrum_counts(fs, coeffs, count, kind, ez)
                assert got.tolist() == tables[slot][index].tolist(), (k, n, count, kind, ez)


def test_counts_of_an_empty_batch():
    # counted on planes, on code rows (k >= 8), read from a table
    for fs, n in [(GF16, 5), (FieldSpec(9), 3), (GF4, 3)]:
        empty = np.zeros((n, fs.degree, 0), dtype=np.uint64)
        for kind, ez in SLOTS:
            assert _bulk.spectrum_counts(fs, empty, 0, kind, ez).shape == (0,)


def test_charpolys_and_nonzero_lanes_of_an_empty_batch():
    for fs in (GF4, FieldSpec(9)):              # uint8 and uint16 codes
        empty = np.zeros((0, 9), dtype=code_dtype(fs.degree))
        planes = _bulk.code_planes(empty, fs.degree).reshape(3, 3, fs.degree, -1)
        assert _bulk.monic_codes(_bulk.charpoly_planes(fs, planes), 0).shape == (0, 4)
    for planes in (np.zeros((4, 0), np.uint64), np.zeros((3, 2, 0), np.uint64)):
        assert _bulk.nonzero_lanes(planes, 0).shape == (0,)


# ----------------------------------------------------------------------
# the plane product network
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fs", [FieldSpec(k) for k in range(1, 9)] + WIDE_FIELDS, ids=field_id)
def test_plane_products_match_the_field(fs):
    # every pair of elements up to k = 8, 4096 seeded pairs above: a wrong
    # partial product in any output bit's row of the network shows
    k = fs.degree
    if k <= 8:
        a, b = np.divmod(np.arange(fs.q * fs.q), fs.q)
    else:
        a, b = np.random.default_rng(fs.modulus).integers(0, fs.q, size=(2, 4096))
    planes = _bulk.code_planes(np.stack([a, b], axis=1).astype(code_dtype(k)), k)
    planes = planes.reshape(2, k, -1)
    prod = _bulk._matvec(_bulk._mul_network(fs), planes[None, None, 0], planes[None, 1])
    got = _bulk.lane_codes(prod, a.size)[:, 0]
    assert got.tolist() == [fs.mul(int(x), int(y)) for x, y in zip(a, b)], fs


@pytest.mark.parametrize("fs,n", [(GF16, 5), (FieldSpec(16), 3)], ids=["gf16-n5", "gf2^16-n3"])
def test_charpolys_match_across_lane_blocks(fs, n, monkeypatch):
    # eight words in blocks of three (3, 3, 2) give the planes of one block
    size = 64 * 7 + 5
    codes = np.random.default_rng(fs.degree).integers(0, fs.q, size=(size, n * n))
    codes = codes.astype(code_dtype(fs.degree))
    planes = _bulk.code_planes(codes, fs.degree).reshape(n, n, fs.degree, -1)
    whole = _bulk.charpoly_planes(fs, planes)
    kernel, widths = _bulk.charpoly_planes, []

    def recorded(fs, mats):
        widths.append(mats.shape[-1])
        return kernel(fs, mats)

    monkeypatch.setattr(_bulk, "charpoly_planes", recorded)
    per_word = n * fs.degree * max((n - 1) * fs.degree, _bulk._mul_network(fs).shape[1])
    monkeypatch.setattr(_bulk, "_PARTIAL_BYTES", 3 * 8 * per_word)
    blocked = _bulk.charpoly_planes(fs, planes)
    assert widths == [8, 3, 3, 2]
    assert np.array_equal(blocked, whole)
    got = _bulk.monic_codes(blocked, size)
    for i in (0, 191, 192, 383, 384, size - 1):       # both sides of each block edge
        m = mx.Mat(n, n, [int(x) for x in codes[i]])
        assert tuple(int(c) for c in got[i]) == mx.char_poly_hessenberg(fs, m), i


def _compositions(n: int) -> list[list[int]]:
    """The cuts 0 < i < n of every composition of n into diagonal blocks."""
    return [[i for i in range(1, n) if mask >> (i - 1) & 1] for mask in range(1 << (n - 1))]


def _charpolys(fs, planes, count) -> list[tuple]:
    return list(map(tuple, _bulk.monic_codes(_bulk.charpoly_planes(fs, planes), count).tolist()))


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, GF16, FieldSpec(9)], ids=field_id)
def test_charpolys_split_at_block_cuts(fs):
    # every composition of n <= 6 into diagonal blocks, filled at random on
    # and above the blocks and zero below, in 1, 1, 2 and 5 words; each lane
    # against both scalar algorithms.  The unread lanes of the last word,
    # set at random below the cuts too, may only block a cut.  A spoiler,
    # one entry just below a cut set in its top plane in the last read lane
    # of the last word, must keep that cut from being taken.
    k = fs.degree
    rng = np.random.default_rng(fs.modulus)
    for n in range(1, 7):
        for cuts in _compositions(n):
            block = np.searchsorted(cuts, np.arange(n), side="right")
            codes = rng.integers(0, fs.q, size=(300, n, n)).astype(code_dtype(k))
            codes[:, block[:, None] > block] = 0
            mats = [mx.Mat(n, n, c) for c in codes.reshape(300, n * n).tolist()]
            want = [mx.char_poly_hessenberg(fs, m) for m in mats]
            assert want == [mx.char_poly_berkowitz(fs, m) for m in mats], (n, cuts)
            for count in (1, 63, 65, 300):
                planes = _bulk.code_planes(codes[:count].reshape(count, n * n), k)
                planes = planes.reshape(n, n, k, -1)
                assert set(cuts) <= set(_bulk._block_cuts(planes)), (n, cuts, count)
                assert _charpolys(fs, planes, count) == want[:count], (n, cuts, count)
                unread = planes.copy()
                garbage = rng.integers(0, 1 << 64, size=(n, n, k), dtype=np.uint64)
                unread[..., -1] |= garbage & ~np.uint64((1 << count % 64) - 1)
                assert _charpolys(fs, unread, count) == want[:count], (n, cuts, count)
                lane = count - 1
                for i in cuts:
                    spoiled = planes.copy()
                    spoiled[i, i - 1, k - 1, lane // 64] |= np.uint64(1 << lane % 64)
                    assert i not in _bulk._block_cuts(spoiled), (n, cuts, count, i)
                    m = codes[lane].copy()
                    m[i, i - 1] = 1 << (k - 1)
                    m = mx.Mat(n, n, m.ravel().tolist())
                    expect = want[:lane] + [mx.char_poly_hessenberg(fs, m)]
                    assert expect[-1] == mx.char_poly_berkowitz(fs, m)
                    assert _charpolys(fs, spoiled, count) == expect, (n, cuts, count, i)


# ----------------------------------------------------------------------
# code-array products and batched rank
# ----------------------------------------------------------------------
GF512 = FieldSpec(9)


@pytest.mark.parametrize("fs", [GF2, GF4, GF256] + WIDE_FIELDS, ids=field_id)
def test_code_products_and_inverses_match_the_field(fs):
    rng = random.Random(fs.degree)
    a = np.array([0, 1, fs.q - 1] + [rng.randrange(fs.q) for _ in range(200)])
    b = np.array([rng.randrange(fs.q) for _ in range(a.size)])
    dtype = code_dtype(fs.degree)
    got = _bulk._mul(fs, a.astype(dtype), b.astype(dtype))
    assert got.dtype == dtype
    assert got.tolist() == [fs.mul(int(x), int(y)) for x, y in zip(a, b)]
    # broadcasting, as the structure procedures use it
    assert _bulk._mul(fs, a[:3, None].astype(dtype), b[None, :4].astype(dtype)).tolist() == [
        [fs.mul(int(x), int(y)) for y in b[:4]] for x in a[:3]]
    inv = fs.inv_table[a.astype(dtype)]
    assert inv.tolist() == [fs.inv(int(x)) if x else 0 for x in a]
    sqrt = fs.sqrt_table
    assert sqrt.dtype == dtype
    assert sqrt[a].tolist() == [fs.sqrt(int(x)) for x in a]


@pytest.mark.parametrize("fs", [GF2, GF4, GF8, GF512], ids=["gf2", "gf4", "gf8", "gf2^9"])
def test_batch_rank_matches_scalar_rank(fs):
    rng = random.Random(30 + fs.degree)
    dtype = code_dtype(fs.degree)
    for rows, cols in [(0, 3), (1, 1), (3, 3), (5, 2), (2, 5), (7, 4), (17, 4), (4, 9)]:
        lanes = []
        for i in range(40):
            if i == 0:      # all zero
                lanes.append([0] * (rows * cols))
            elif i == 1 and rows >= cols:     # full column rank
                top = mx.random_invertible(fs, rng, cols).entries
                lanes.append(list(top) + [0] * ((rows - cols) * cols))
            else:           # sparse or dense, often rank deficient
                dense = rng.random()
                lanes.append([rng.randrange(fs.q) if rng.random() < dense else 0
                              for _ in range(rows * cols)])
        a = np.array(lanes, dtype=dtype).reshape(len(lanes), rows, cols)
        want = [mx.rank(fs, mx.Mat(rows, cols, lane)) for lane in lanes]
        assert _bulk.batch_rank(fs, a).tolist() == want, (rows, cols)
        assert np.array_equal(a, np.array(lanes, dtype=dtype).reshape(a.shape))  # input intact
    assert _bulk.batch_rank(fs, np.zeros((0, 3, 3), dtype=dtype)).shape == (0,)


@pytest.mark.parametrize("k", [1, 2, 8, 9, 16])
@pytest.mark.parametrize("count", [1, 63, 64, 65])
def test_lane_codes_invert_code_planes(k, count):
    rng = np.random.default_rng(100 * k + count)
    dtype = np.uint8 if k <= 8 else np.uint16
    codes = rng.integers(0, 1 << k, size=(count, 3)).astype(dtype)
    planes = _bulk.code_planes(codes, k).reshape(3, k, -1)
    got = _bulk.lane_codes(planes, count)
    assert got.dtype == dtype and np.array_equal(got, codes)
    # the monic wrapper appends the leading ones
    monic = _bulk.monic_codes(planes, count)
    assert np.array_equal(monic[:, :3], codes) and (monic[:, 3] == 1).all()


@pytest.mark.parametrize("offset", [0, 5, 1 << 30])
def test_index_planes_match_code_planes_of_the_indices(offset):
    words = np.arange(offset, offset + 3, dtype=np.int64)
    indices = (64 * words[:, None] + np.arange(64)).reshape(-1, 1)
    for width in range(1, 41):
        assert np.array_equal(_bulk.index_planes(words, width),
                              _bulk.code_planes(indices, width)), width


# ----------------------------------------------------------------------
# the memory policy: freed batch temporaries stay in the process
# ----------------------------------------------------------------------
def _glibc_mallopt() -> bool:
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    return hasattr(libc, "mallopt") and hasattr(libc, "gnu_get_libc_version")


def _minor_faults(call, repeats: int) -> int:
    resource = pytest.importorskip("resource")
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        call()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(not _glibc_mallopt(), reason="needs glibc's mallopt")
def test_warm_batches_take_no_page_faults():
    # with glibc's default thresholds the batches map their temporaries
    # afresh: from about 30 to over 2000 faults over these 5 calls,
    # depending on whether the kernel backs them with huge pages, and 700
    # to 1800 for one sampled scan, whose pool threads allocate in arenas
    # of their own
    mats = np.random.default_rng(27).integers(0, 1 << 63, size=(4, 4, 3, 1024), dtype=np.uint64)

    def batch():
        _bulk.spectrum_counts(GF8, _bulk.charpoly_planes(GF8, mats), 64 * 1024, "in_field", False)

    batch()
    assert _minor_faults(batch, 5) < 20
    from char2spec import constructions as cons
    from char2spec.spectra import check_space, parse_predicate
    space, pred = cons.case_iv_n6(GF4), parse_predicate("2bar-spec")

    def scan():
        verdict = check_space(GF4, space, pred, budget=1 << 10, samples=150_000, workers=2)
        assert verdict.mode == "sampled" and verdict.checked == 150_000

    scan()
    scan()
    assert _minor_faults(scan, 1) < 20


class _FakeMallopt:
    def __init__(self, result: int):
        self.result, self.calls = result, []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


def test_memory_policy_sets_trim_only_after_the_mmap_threshold(monkeypatch):
    def libc(**functions):
        monkeypatch.setattr(_bulk.ctypes, "CDLL", lambda name: type("Lib", (), functions)())

    def no_handle(name):        # as ctypes.CDLL(None) on Windows
        raise TypeError("LoadLibrary() argument 1 must be str, not None")

    monkeypatch.setattr(_bulk.ctypes, "CDLL", no_handle)
    _bulk._keep_freed_memory()
    libc()                      # no mallopt, as on macOS: nothing set, no error
    _bulk._keep_freed_memory()
    refused = _FakeMallopt(0)
    libc(mallopt=refused)
    _bulk._keep_freed_memory()
    assert refused.calls == [(-3, 2 * _bulk._PARTIAL_BYTES)]     # trim threshold left alone
    taken = _FakeMallopt(1)
    libc(mallopt=taken)
    _bulk._keep_freed_memory()
    assert taken.calls == [(-3, 32 << 20), (-1, 64 << 20)]
