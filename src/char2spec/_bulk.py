"""Bit-sliced kernels for large enumerations (internal).

A batch of N elements of GF(2^k) is held as k bit-planes of uint64
words: bit b of lane i is bit b of element i's code, and lane i sits in
bit i % 64 of word i // 64, so one word carries 64 elements (Biham's
bit-slicing; M4RIE holds matrices over GF(2^e) the same way).  Arrays of
planes have shape [..., k, W] with W = ceil(N / 64).  Lanes past N in the
last word are zero and are never unpacked.

Addition is XOR of planes.  Multiplication is a fixed AND/XOR network
derived from the modulus: all k^2 partial products a_i & b_j in one
broadcast AND, then, for each output bit t, the XOR of the partial
products whose monomial x^(i+j) reduces to a polynomial with bit t set,
gathered and folded in one ``reduceat``.  Sums of products (dot products,
matrix-vector products) XOR the partial products first and run the
network once.  A product costs the same few numpy calls for every k.

Multiplying by a fixed field constant is a GF(2)-linear map on the k
planes of its argument, so any fixed F-linear map (basis coordinates to
matrix entries, a matrix to one of its blocks) is an XOR of selected
input planes into output planes (:func:`linear_map`, :func:`apply_map`).

The characteristic polynomial kernel is the division-free Berkowitz
recurrence of the scalar path in :mod:`.matrix`, run on planes; tests
cross-check it against both scalar algorithms on every shape in use.
Root counts index precomputed tables by the packed low coefficients, so
only those are unpacked to codes.

Only fields with k <= 8 are supported here (codes are uint8); callers
fall back to the scalar path above that.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldSpec
from . import upoly

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PLANE = np.dtype("<u8")


def supports(fs: FieldSpec) -> bool:
    return fs.degree <= 8


# ----------------------------------------------------------------------
# planes <-> codes
# ----------------------------------------------------------------------
_BYTE_LSB = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x0102040810204080)   # moves bit 8i to bit 56 + i


def _lane_bits(planes: np.ndarray, count: int) -> np.ndarray:
    """[P, W] planes -> [P, count] array of 0/1 bytes (lanes 0 .. count-1)."""
    raw = np.ascontiguousarray(planes, dtype=_PLANE).view(np.uint8)
    return np.unpackbits(raw, axis=1, count=count, bitorder="little")


def code_planes(codes: np.ndarray, width: int) -> np.ndarray:
    """Planes of the low `width` bits of every column of codes [N, c]:
    returns [c * width, W], column j's bit b at plane j * width + b.

    Codes are transposed to one byte row per (column, byte); each uint64
    word of a row holds 8 lanes, and a mask and a multiply gather bit b of
    those 8 bytes into one byte of plane b."""
    big, cols = codes.shape
    nbytes = -(-width // 8)
    bits = min(8, width)
    raw = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder("<")).view(np.uint8)
    lanes = 64 * -(-big // 64)
    rows = np.zeros((cols, nbytes, lanes), dtype=np.uint8)
    rows[:, :, :big] = raw.reshape(big, cols, -1)[:, :, :nbytes].transpose(1, 2, 0)
    words = rows.view(np.uint64)[:, :, None, :] >> np.arange(bits, dtype=np.uint64)[:, None]
    words &= _BYTE_LSB
    with np.errstate(over="ignore"):
        words *= _GATHER
    words >>= np.uint64(56)
    out = words.astype(np.uint8)
    # [cols, nbytes, bits, lanes / 8]: bit 8 * byte + b of each column
    out = out.reshape(cols, nbytes * bits, lanes // 8)[:, :width]
    return np.ascontiguousarray(out).reshape(cols * width, lanes // 8).view(_PLANE)


def monic_codes(coeffs: np.ndarray, count: int) -> np.ndarray:
    """Low coefficients [n, k, W] (ascending) -> [count, n+1] uint8 codes of
    the monic polynomials (column n is all ones)."""
    n, k, w = coeffs.shape
    bits = _lane_bits(coeffs.reshape(n * k, w), count).reshape(n, k, count)
    codes = bits[:, 0].copy()
    for b in range(1, k):
        codes |= bits[:, b] << b
    out = np.ones((count, n + 1), dtype=np.uint8)
    out[:, :n] = codes.T
    return out


def nonzero_lanes(planes: np.ndarray, count: int) -> np.ndarray:
    """Lanes in which any of the planes [..., W] has a set bit."""
    w = planes.shape[-1]
    seen = np.bitwise_or.reduce(planes.reshape(-1, w), axis=0)
    return _lane_bits(seen[None], count)[0].astype(bool)


# ----------------------------------------------------------------------
# field arithmetic on planes
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _mul_network(fs: FieldSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each output bit t, the partial products (i, j) whose monomial
    x^(i+j) mod the modulus has bit t set: (i indices, j indices, group
    starts).  Every group holds (t, 0), so none is empty."""
    k = fs.degree
    groups = [[(i, j) for i in range(k) for j in range(k)
               if fs.mul(1 << i, 1 << j) >> t & 1] for t in range(k)]
    pairs = np.array([p for g in groups for p in g], dtype=np.intp)
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    return pairs[:, 0], pairs[:, 1], starts


def _partial(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All partial products x_i & y_j: [..., k, W] x [..., k, W] -> [..., k, k, W]."""
    return x[..., :, None, :] & y[..., None, :, :]


def _fold(fs: FieldSpec, part: np.ndarray) -> np.ndarray:
    """Reduce partial products [..., k, k, W] to the planes [..., k, W] of
    the product modulo the field's modulus."""
    pi, pj, starts = _mul_network(fs)
    return np.bitwise_xor.reduceat(part[..., pi, pj, :], starts, axis=-2)


def _matvec(fs: FieldSpec, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a [r, c, k, W] times v [c, k, W] -> [r, k, W]."""
    return _fold(fs, np.bitwise_xor.reduce(_partial(a, v[None]), axis=1))


@lru_cache(maxsize=None)
def _conv_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index pairs (j, s), j, s >= 1, j + s <= m, grouped by j + s = 2 .. m
    (0-based into c[1:] and col[1:]), with the group starts."""
    pairs = [(j - 1, i - j - 1) for i in range(2, m + 1) for j in range(1, i)]
    starts = np.cumsum([0] + [i - 1 for i in range(2, m)])
    js, ss = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return js, ss, starts


def charpoly_planes(fs: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a plane batch of square matrices.

    mats: [n, n, k, W] planes.  Returns the n low coefficients, ascending,
    as [n, k, W] planes (the polynomial is monic of degree n)."""
    n, _, k, w = mats.shape
    # c holds the coefficients c_1 .. c_{m} of the leading principal
    # m x m block, by descending degree (c_0 = 1 is implicit)
    c = mats[0:1, 0]
    for m in range(2, n + 1):
        block = mats[:m, :m - 1]          # rows: the (m-1) block, then r
        v = mats[:m - 1, m - 1]
        col = np.empty((m, k, w), dtype=_PLANE)
        col[0] = mats[m - 1, m - 1]
        for t in range(1, m):
            if t < m - 1:
                prod = _matvec(fs, block, v)
                v, col[t] = prod[:m - 1], prod[m - 1]
            else:
                col[t] = _matvec(fs, block[m - 1:], v)[0]
        new = col.copy()
        new[:m - 1] ^= c
        js, ss, starts = _conv_pairs(m)
        part = np.bitwise_xor.reduceat(_partial(c[js], col[ss]), starts, axis=0)
        new[1:] ^= _fold(fs, part)
        c = new
    return c[::-1]


# ----------------------------------------------------------------------
# fixed linear maps on planes
# ----------------------------------------------------------------------
def linear_map(fs: FieldSpec, rows, width: int) -> list[np.ndarray]:
    """GF(2) form of the F-linear map x -> sum_j x_j * rows[j] (rows[j] a
    vector of `width` field elements): for input plane j * k + b, the
    output planes l * k + t it is XORed into, those where bit t of
    x^b * rows[j][l] is set."""
    k = fs.degree
    r = np.array(rows, dtype=np.uint8).reshape(len(rows), width)
    images = fs.mul_table_np()[(1 << np.arange(k))[:, None], r[:, None, :]]   # [d, k, width]
    bits = (images[..., None] >> np.arange(k, dtype=np.uint8)) & 1          # [d, k, width, k]
    src, dst = np.nonzero(bits.reshape(len(rows) * k, width * k))
    return np.split(dst, np.cumsum(np.bincount(src, minlength=len(rows) * k))[:-1])


def apply_map(planes: np.ndarray, targets: list[np.ndarray], size: int) -> np.ndarray:
    """Apply a map from :func:`linear_map` to planes [P, W] -> [size, W]."""
    out = np.zeros((size, planes.shape[-1]), dtype=_PLANE)
    for plane, tgt in zip(planes, targets):
        out[tgt] ^= plane
    return out


def batch_charpoly(fs: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a batch of square matrices.

    mats: [N, n, n] uint8 codes.  Returns [N, n+1] uint8 coefficients by
    ascending degree (so [:, n] is all ones)."""
    big, n = mats.shape[:2]
    planes = code_planes(mats.reshape(big, n * n), fs.degree)
    return monic_codes(charpoly_planes(fs, planes.reshape(n, n, fs.degree, -1)), big)


@lru_cache(maxsize=None)
def spectrum_tables(fs: FieldSpec, n: int):
    """Distinct-root counts for every monic polynomial of degree n over fs,
    indexed by the packed low coefficients (base q, constant term least
    significant).  Four uint8 arrays: roots in F, nonzero roots in F,
    roots in the closure, nonzero roots in the closure."""
    q = fs.q
    total = q ** n
    if total > (1 << 20):
        raise ValueError("spectrum table too large; use scalar profiling")
    in_f = np.zeros(total, dtype=np.uint8)
    in_f_nz = np.zeros(total, dtype=np.uint8)
    clo = np.zeros(total, dtype=np.uint8)
    clo_nz = np.zeros(total, dtype=np.uint8)
    for idx in range(total):
        coeffs = []
        rest = idx
        for _ in range(n):
            coeffs.append(rest % q)
            rest //= q
        f = tuple(coeffs) + (1,)
        a = upoly.count_roots_in_field(fs, f)
        b = upoly.count_roots_in_closure(fs, f)
        z = 1 if coeffs[0] == 0 else 0
        in_f[idx] = a
        in_f_nz[idx] = a - z
        clo[idx] = b
        clo_nz[idx] = b - z
    return in_f, in_f_nz, clo, clo_nz


def pack_monic(fs: FieldSpec, polys: np.ndarray) -> np.ndarray:
    """Pack [N, n+1] ascending monic coefficient rows into table indices."""
    q = fs.q
    n = polys.shape[1] - 1
    if n * fs.degree > 62:
        raise ValueError("packed polynomial index would overflow")
    idx = np.zeros(polys.shape[0], dtype=np.int64)
    mult = 1
    for i in range(n):
        idx += polys[:, i].astype(np.int64) * mult
        mult *= q
    return idx


def spectra_supported(fs: FieldSpec, n: int) -> bool:
    return supports(fs) and n * fs.degree <= 62


_KIND_SLOT = {("in_field", False): 0, ("in_field", True): 1,
              ("in_closure", False): 2, ("in_closure", True): 3}


_sparse_cache: dict = {}


def root_counts(fs: FieldSpec, polys: np.ndarray, kind: str, exclude_zero: bool) -> np.ndarray:
    """Distinct-root counts for a batch of monic polynomials of equal degree.

    Small coefficient spaces get a full precomputed table; larger ones
    profile only the distinct polynomials seen, memoized across calls."""
    n = polys.shape[1] - 1
    slot = _KIND_SLOT[(kind, exclude_zero)]
    idx = pack_monic(fs, polys)
    if fs.q ** n <= (1 << 16):
        return spectrum_tables(fs, n)[slot][idx]
    cache = _sparse_cache.setdefault((fs, n, slot), {})
    uniq, inverse = np.unique(idx, return_inverse=True)
    counts = np.empty(uniq.shape[0], dtype=np.uint8)
    for i, packed in enumerate(uniq):
        key = int(packed)
        got = cache.get(key)
        if got is None:
            rest = key
            coeffs = []
            for _ in range(n):
                coeffs.append(rest % fs.q)
                rest //= fs.q
            f = tuple(coeffs) + (1,)
            if kind == "in_field":
                got = upoly.count_roots_in_field(fs, f)
            else:
                got = upoly.count_roots_in_closure(fs, f)
            if exclude_zero and coeffs[0] == 0:
                got -= 1
            cache[key] = got
        counts[i] = got
    return counts[inverse]


# ----------------------------------------------------------------------
# element streams
# ----------------------------------------------------------------------
def projective_count(q: int, d: int) -> int:
    """Number of projective ranks in F_q^d: the zero vector plus one
    representative per line, 1 + (q^d - 1)/(q - 1)."""
    return 1 + (q ** d - 1) // (q - 1)


def projective_indices(q: int, d: int, lo: int, hi: int) -> np.ndarray:
    """Enumeration indices of the projective ranks [lo, hi), ascending.

    Rank 0 is index 0; the remaining ranks run, in order, through the index
    blocks [q^j, 2 q^j) for j = 0 .. d-1.  These are exactly the indices
    whose highest nonzero base-q digit is 1, i.e. the smallest index on
    each line {c v : c in F*}."""
    ranks = np.arange(lo, hi, dtype=np.int64)
    starts = np.array([0] + [projective_count(q, j) for j in range(d)], dtype=np.int64)
    bases = np.array([0] + [q ** j for j in range(d)], dtype=np.int64)
    block = np.searchsorted(starts, ranks, side="right") - 1
    return bases[block] + (ranks - starts[block])


_MASK64 = (1 << 64) - 1


def _splitmix64_int(x: int) -> int:
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = x + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def sample_coords(q: int, d: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Counter-based sampling: sample index i yields d uniform coordinates
    from SplitMix64 stream words keyed by (seed, i).  Each coordinate owns
    a byte-aligned field of one word (8 bits and 8 to a word for q <= 256,
    uint8; 16 bits and 4 to a word above, uint16) and takes its low k bits.
    Deterministic, independent of how the index range is partitioned
    across workers."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    key = _splitmix64_int(((seed & _MASK64) * 0x9E3779B97F4A7C15 + 1) & _MASK64)
    field = 8 if q <= 256 else 16
    per_word = 64 // field
    dtype = np.uint8 if field == 8 else np.uint16
    out = np.empty((hi - lo, d), dtype=dtype)
    mask = np.uint64(q - 1)
    for w in range(-(-d // per_word)):
        offset = np.uint64((key + w * 0xD1342543DE82EF95) & _MASK64)
        with np.errstate(over="ignore"):
            stream = _splitmix64(idx * _GOLDEN + offset)
        for b in range(min(per_word, d - per_word * w)):
            out[:, per_word * w + b] = ((stream >> np.uint64(field * b)) & mask).astype(dtype)
    return out
