"""Bit-sliced kernels for large enumerations (internal).

A batch of N elements of GF(2^k) is held as k bit-planes of uint64
words: bit b of lane i is bit b of element i's code, and lane i sits in
bit i % 64 of word i // 64, so one word carries 64 elements (Biham's
bit-slicing; M4RIE holds matrices over GF(2^e) the same way).  Arrays of
planes have shape [..., k, W] with W = ceil(N / 64).  Lanes past N in the
last word are never read.  Codes go to planes through :func:`code_planes`
(a multiply gathers one bit of eight bytes) and come back through
:func:`lane_codes` (an 8 x 8 bit transpose), the one reader of codes off
planes.  Scans need no codes.  In an exhaustive scan the planes of the
indices 64 w .. 64 w + 63 are fixed lane patterns for bits 0-5 and
whole words of ones or zeros above (:func:`index_planes`), and the scan
visits whole words of indices (:func:`projective_words`).
A sampled scan takes the planes of its coordinates straight off the
SplitMix64 stream words (:func:`sample_planes`): the same multiply
gathers one bit of the eight bytes of a stream word, and the same
transpose turns eight lanes of those bytes into plane bytes.

Addition is XOR of planes.  Multiplication is a fixed AND/XOR network
derived from the modulus: all k^2 partial products a_i & b_j in one
broadcast AND, then, for each output bit t, the XOR of the partial
products whose monomial x^(i+j) reduces to a polynomial with bit t set.
The network is a [k, G] table of partial products, its rows padded to
the widest with a slot that is always zero, so all k output planes are
one gather along the table and one XOR along its rows.  Sums of products
(dot products, matrix-vector products) XOR the partial products first
and run the network once.  A product costs the same few numpy calls for
every k.

Multiplying by a fixed field constant is a GF(2)-linear map on the k
planes of its argument, so any fixed F-linear map (basis coordinates to
matrix entries, a matrix to one of its blocks) is an XOR of selected
input planes into output planes (:func:`linear_map`, :func:`apply_map`).

The characteristic polynomial kernel is the division-free Berkowitz
recurrence of the scalar path in :mod:`.matrix`, run on planes; tests
cross-check it against both scalar algorithms on every shape in use.
Its n low coefficients go to root counting (:func:`spectrum_counts`).
When q^n <= 2^16 they are read, as planes, into indices of tables built
for all q^n monic polynomials (:func:`spectrum_tables`): the index is
:func:`lane_codes` of the n k coefficient planes read as one column.
Above that a batch is counted by the counter that builds the tables
(:func:`_root_counts`), for k <= 7 on the coefficient planes
(:func:`_plane_counts`).  Roots in F are the lanes' all-zero values at
the q elements, one fixed linear map of the planes; roots in the closure
start from deg gcd(f, f') by divsteps on planes, every lane in step.
Squarefree lanes (gcd 1) count n and are never unpacked; only lanes with
a repeated factor are read off the planes, with their gcd, and go on on
code rows.  For k >= 8 the coefficients are unpacked to codes [N, n+1]
(:func:`monic_codes`) and counted on code rows (:func:`count_roots`).

Root counts on code rows run all lanes in step (the tests hold them to
the scalar :mod:`.upoly` routines).  Roots in F are
deg gcd(f, (x^q - x) mod f), with x^q mod f from k modular squarings.
Roots in the closure are deg rad f, from the characteristic-2 squarefree
decomposition: with g = gcd(f, f') = s^2 and w = f / g, deg rad f =
deg w + deg rad s - deg gcd(w, s), where the gcds are Bernstein-Yang
divsteps (the same number of steps in every lane) and only lanes with
g != 1 recurse on s.

Every kernel serves every field, k <= 16.  Codes are uint8 for k <= 8
and uint16 above (:func:`.gf.code_dtype`).  The kernels build no field
table; they read those of the :class:`.gf.FieldSpec`.  A product of code
arrays is one read of the flat q*q table for k <= 8 and, above, a read
of the log/exp tables; inverses and square roots read tables of q codes.

Memory: ``_PARTIAL_BYTES`` bounds the largest temporary of one batch,
and every batch frees its temporaries.  glibc's malloc serves blocks
above its mmap threshold by fresh mappings and returns the free top of a
heap to the system past its trim threshold.  By default the mmap
threshold starts at 128 KiB and rises to the size of each larger mapped
block freed, the trim threshold to twice that, so the heap is still
given back whenever a batch's freed temporaries together pass it, and a
scan faults its temporaries' pages in again batch after batch.  At
import this module sets (``mallopt``) the mmap threshold to
2 x ``_PARTIAL_BYTES``, 32 MiB, the largest glibc takes on 64-bit
systems, so that every batch temporary comes from the heap, and, only
once that is taken, the trim threshold to 4 x ``_PARTIAL_BYTES``: the
process keeps up to 64 MiB of freed heap for the next batch.  The order
matters, as either setting turns off the rising thresholds, and a trim
threshold alone would leave mmap pinned at 128 KiB.  Where there is no
glibc ``mallopt`` (musl, macOS, Windows) or it refuses, nothing is set
(:func:`_keep_freed_memory`).
"""

from __future__ import annotations

import ctypes
from functools import lru_cache

import numpy as np

from .gf import FieldSpec, code_dtype

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PLANE = np.dtype("<u8")
_PARTIAL_BYTES = 1 << 24    # bound on the largest temporary of one matrix-vector product
_TABLE_POLYS = 1 << 16      # bound on the monic polynomials of one spectrum table
_EVAL_DEGREE = 7            # up to this k, roots are counted on coefficient planes
_M_TRIM_THRESHOLD = -1      # glibc mallopt parameters (malloc.h)
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep the batch temporaries' freed memory in the process: glibc's
    mmap threshold to 2 x ``_PARTIAL_BYTES`` and, if that is taken, its
    trim threshold to 4 x ``_PARTIAL_BYTES`` (see the module docstring).
    Does nothing, and never raises, without a ``mallopt`` that takes them."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):   # no process-wide libc handle, no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 2 * _PARTIAL_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, 4 * _PARTIAL_BYTES)


_keep_freed_memory()


# ----------------------------------------------------------------------
# planes <-> codes
# ----------------------------------------------------------------------
_BYTE_LSB = np.uint64(0x0101010101010101)
_GATHER = np.uint64(0x0102040810204080)   # moves bit 8i to bit 56 + i
_TRANSPOSE8 = tuple((np.uint64(shift), np.uint64(mask)) for shift, mask in
                    ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0)))
_ALL_ONES = ~np.uint64(0)
# bit b < 6 of the lane number, over the 64 lanes of a word
_LANE_BITS = np.array([0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                       0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000], dtype=_PLANE)


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
    raw = raw.reshape(big, cols, codes.dtype.itemsize)[:, :, :nbytes]
    rows[:, :, :big] = raw.transpose(1, 2, 0)
    words = rows.view(np.uint64)[:, :, None, :] >> np.arange(bits, dtype=np.uint64)[:, None]
    words &= _BYTE_LSB
    with np.errstate(over="ignore"):
        words *= _GATHER
    words >>= np.uint64(56)
    out = words.astype(np.uint8)
    # [cols, nbytes, bits, lanes / 8]: bit 8 * byte + b of each column
    out = out.reshape(cols, nbytes * bits, lanes // 8)[:, :width]
    return np.ascontiguousarray(out).reshape(cols * width, lanes // 8).view(_PLANE)


def index_planes(words: np.ndarray, width: int) -> np.ndarray:
    """Planes [width, W] of the low `width` bits of the lane indices
    64 words[i] + l, l = 0 .. 63: the planes :func:`code_planes` builds from
    those indices, without an index array.  Bits 0-5 are the lane number,
    the same pattern in every word; bit b >= 6 is bit b - 6 of the word
    number, all ones or all zeros across the word."""
    out = np.empty((width, words.size), dtype=_PLANE)
    low = min(width, 6)
    out[:low] = _LANE_BITS[:low, None]
    if width > 6:
        shifts = np.arange(width - 6, dtype=np.uint64)[:, None]
        out[6:] = (words.astype(np.uint64) >> shifts & np.uint64(1)) * _ALL_ONES
    return out


def _transpose8(x: np.ndarray) -> None:
    """Transpose in place the 8 x 8 bit matrix of every uint64 of x, byte i
    its row i: the three swap steps of ``transpose8`` (Warren, Hacker's
    Delight, 7-3)."""
    for shift, mask in _TRANSPOSE8:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t


def lane_codes(planes: np.ndarray, count: int) -> np.ndarray:
    """Planes [c, b, W] -> [count, c] codes of lanes 0 .. count-1 (b <= 16),
    in the dtype of :func:`code_dtype`: column j's bit t is plane (j, t).

    Eight planes of a column at a time, a byte transpose gathers byte i
    of the eight planes' word w into one uint64, an 8 x 8 bit matrix with
    one byte per plane, and the three swap steps of ``transpose8``
    (Warren, Hacker's Delight, 7-3) turn it so that byte l holds the eight
    plane bits of lane 64 w + 8 i + l.  A column's bytes for lane i are
    then adjacent, the low byte first, and are read as one code."""
    c, b, w = planes.shape
    groups = -(-b // 8)
    rows = np.zeros((c, groups * 8, w), dtype=_PLANE)
    rows[:, :b] = planes
    grid = rows.view(np.uint8).reshape(c, groups, 8, 8 * w).transpose(0, 1, 3, 2)
    x = np.ascontiguousarray(grid).view(_PLANE)[..., 0]             # [c, groups, 8 W]
    _transpose8(x)
    out = x.view(np.uint8)[..., :count]                             # [c, groups, count]
    codes = out[:, 0].astype(code_dtype(b), copy=False)
    if groups == 2:
        codes |= out[:, 1].astype(codes.dtype) << 8
    return codes.T


def monic_codes(coeffs: np.ndarray, count: int) -> np.ndarray:
    """Low coefficients [n, k, W] (ascending) -> [count, n+1] codes of the
    monic polynomials (column n is all ones)."""
    out = np.ones((count, coeffs.shape[0] + 1), dtype=code_dtype(coeffs.shape[1]))
    out[:, :-1] = lane_codes(coeffs, count)
    return out


def nonzero_lanes(planes: np.ndarray, count: int) -> np.ndarray:
    """Lanes in which any of the planes [..., W] has a set bit."""
    seen = np.bitwise_or.reduce(planes, axis=tuple(range(planes.ndim - 1)))
    return np.unpackbits(seen.view(np.uint8), count=count, bitorder="little").astype(bool)


# ----------------------------------------------------------------------
# field arithmetic on planes
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _mul_network(fs: FieldSpec) -> np.ndarray:
    """The product network as a [k, G] gather table: row t lists the
    partial products (i, j), as i k + j, whose monomial x^(i+j) mod the
    modulus has bit t set, padded to the widest row, G, with k k, the
    index of a partial product that is always zero (see :func:`_matvec`).
    Every row holds (t, 0), so none is all padding."""
    k = fs.degree
    groups = [[i * k + j for i in range(k) for j in range(k)
               if fs.mul(1 << i, 1 << j) >> t & 1] for t in range(k)]
    width = max(map(len, groups))
    return np.array([g + [k * k] * (width - len(g)) for g in groups], dtype=np.intp)


def _matvec(net: np.ndarray, a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a [r, c, k, W] times v [c, k, W] -> [r, k, W], through the network
    `net` of :func:`_mul_network`.

    All partial products a_i & v_j, [r, c, k, k, W], come from one
    broadcast AND and are XORed over the c columns into rows 0 .. k-1 of
    a [r, k + 1, k, W] array whose row k stays zero.  One gather through
    the network, [r, k, G, W], and one XOR along G give the product
    planes.  Over GF(2) a product is the AND alone."""
    r, _, k, w = a.shape
    if k == 1:
        return np.bitwise_xor.reduce(a & v, axis=1)
    acc = np.zeros((r, k + 1, k, w), dtype=_PLANE)
    np.bitwise_xor.reduce(a[:, :, :, None] & v[:, None], axis=1, out=acc[:, :k])
    return np.bitwise_xor.reduce(acc.reshape(r, (k + 1) * k, w).take(net, axis=1), axis=2)


@lru_cache(maxsize=None)
def _conv_table(m: int) -> np.ndarray:
    """[m-1, m-1] indices into rows 0 .. m-1 of c (c_1 .. c_{m-1}, then a
    zero row) of the lower-triangular Toeplitz matrix T[i, s] = c_(i-s+1),
    zero above the diagonal: the convolution sum_{j+s=i+1} c_j col_s is
    row i of T col."""
    i, s = np.ogrid[:m - 1, :m - 1]
    return np.where(s <= i, i - s, m - 1)


def charpoly_planes(fs: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a plane batch of square matrices.

    mats: [n, n, k, W] planes.  Returns the n low coefficients, ascending,
    as [n, k, W] planes (the polynomial is monic of degree n).

    Every temporary grows with W.  The largest are those of
    :func:`_matvec`: the partial products, [n, n-1, k, k, W] words, or
    the gathered [n, k, G, W] where the network is wider, G > (n-1) k
    (n = 2, or k = 16 at n = 3).  Past ``_PARTIAL_BYTES`` the lanes go in
    blocks of words that keep the larger of the two within it (k = 16 and
    2^16 lanes: 63 MB of partial products in one block for n = 6); k <= 8
    with 2^16 lanes and n <= 6 takes one block."""
    n, _, k, w = mats.shape
    net = _mul_network(fs)
    words = n * k * max((n - 1) * k, net.shape[1])
    step = max(1, _PARTIAL_BYTES // (_PLANE.itemsize * words))
    if w > step:
        return np.concatenate([charpoly_planes(fs, mats[..., lo:lo + step])
                               for lo in range(0, w, step)], axis=-1)
    # c holds the coefficients c_1 .. c_{m-1} of the leading principal
    # (m-1) x (m-1) block, by descending degree (c_0 = 1 is implicit),
    # then the zero row that pads the convolution table; col has one row
    # more than it needs so that it becomes the next c in place
    c = np.zeros((2, k, w), dtype=_PLANE)
    c[0] = mats[0, 0]
    for m in range(2, n + 1):
        block = mats[:m, :m - 1]          # rows: the (m-1) block, then r
        v = mats[:m - 1, m - 1]
        col = np.zeros((m + 1, k, w), dtype=_PLANE)
        col[0] = mats[m - 1, m - 1]
        for t in range(1, m):
            if t < m - 1:
                prod = _matvec(net, block, v)
                v, col[t] = prod[:m - 1], prod[m - 1]
            else:
                col[t] = _matvec(net, block[m - 1:], v)[0]
        conv = _matvec(net, c[_conv_table(m)], col[:m - 1])
        col[:m - 1] ^= c[:m - 1]
        col[1:m] ^= conv
        c = col
    return c[n - 1::-1]


# ----------------------------------------------------------------------
# fixed linear maps on planes
# ----------------------------------------------------------------------
def linear_map(fs: FieldSpec, rows, width: int) -> list[np.ndarray]:
    """GF(2) form of the F-linear map x -> sum_j x_j * rows[j] (rows[j] a
    vector of `width` field elements): for input plane j * k + b, the
    output planes l * k + t it is XORed into, those where bit t of
    x^b * rows[j][l] is set."""
    k = fs.degree
    r = np.array(rows, dtype=code_dtype(fs.degree)).reshape(len(rows), width)
    powers = (1 << np.arange(k)).astype(r.dtype)
    images = _mul(fs, powers[:, None], r[:, None, :])                        # [d, k, width]
    bits = (images[..., None] >> np.arange(k, dtype=r.dtype)) & 1           # [d, k, width, k]
    src, dst = np.nonzero(bits.reshape(len(rows) * k, width * k))
    return np.split(dst, np.cumsum(np.bincount(src, minlength=len(rows) * k))[:-1])


def apply_map(planes: np.ndarray, targets: list[np.ndarray], size: int) -> np.ndarray:
    """Apply a map from :func:`linear_map` to planes [P, W] -> [size, W]."""
    out = np.zeros((size, planes.shape[-1]), dtype=_PLANE)
    for plane, tgt in zip(planes, targets):
        out[tgt] ^= plane
    return out


# ----------------------------------------------------------------------
# code arrays: products, inverses, ranks and root counts
# ----------------------------------------------------------------------
def _mul(fs: FieldSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products of broadcast code arrays: one lookup in the flat q*q table
    for k <= 8, and exp[log a + log b] in the field's log/exp tables above."""
    k = fs.degree
    if k <= 8:
        return np.take(fs.mul_table_np().reshape(-1), (a.astype(np.uint16) << k) | b)
    log = fs.log_table
    return np.take(fs.exp_table, log[a] + log[b])


def batch_rank(fs: FieldSpec, a: np.ndarray) -> np.ndarray:
    """Ranks of a batch of matrices a [N, r, c] of codes, all lanes in step
    (lane-uniform Gaussian elimination, as in M4RIE).  Column by column,
    each lane takes as pivot its first unused row with a nonzero entry
    (``argmax``) and clears that column in its other unused rows; the
    rank is the number of pivots."""
    big, rows, cols = a.shape
    used = np.zeros((big, rows), dtype=bool)
    if rows == 0:
        return used.sum(axis=1)
    a = a.copy()
    lanes = np.arange(big)
    for j in range(cols):
        cand = (a[:, :, j] != 0) & ~used
        piv = cand.argmax(axis=1)
        prow = a[lanes, piv]                              # zero where no pivot
        f = _mul(fs, a[:, :, j], fs.inv_table[prow[:, j]][:, None]) * cand
        f[lanes, piv] = 0
        a ^= _mul(fs, f[:, :, None], prow[:, None, :])
        used[lanes, piv] |= cand[lanes, piv]
    return used.sum(axis=1)


def _gcd(fs: FieldSpec, f: np.ndarray, g: np.ndarray, df: np.ndarray,
         dg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monic gcd of every row pair, with its degrees.

    Rows are reversed: column j holds the coefficient of x^(d - j) for the
    row's formal degree d (df, dg; f[:, 0] != 0, g may be zero).  This is
    the polynomial divstep of Bernstein and Yang ("Fast constant-time gcd
    computation and modular inversion", 2019).  With delta = df - dg, a
    step drops a zero leading term of g, or cancels the leading term of
    the row of larger formal degree against the other (swapping first
    when that row is f) and drops it; either way df + dg falls by exactly
    one.  All lanes take the same max(df + dg) + 1 steps, after which
    every g is zero, and deg gcd follows from delta."""
    delta = df - dg
    steps = int((df + dg).max()) + 1
    ones = f.dtype.type(np.iinfo(f.dtype).max)
    for _ in range(steps):
        f0, g0 = f[:, :1], g[:, :1]
        swap = (delta > 0) & (g0[:, 0] != 0)
        drop = _mul(fs, f0, g) ^ _mul(fs, g0, f)      # leading column is zero
        f = f ^ ((f ^ g) & (swap[:, None] * ones))
        g = np.zeros_like(drop)
        g[:, :-1] = drop[:, 1:]
        delta = np.where(swap, 1 - delta, 1 + delta)
    return _mul(fs, fs.inv_table[f[:, :1]], f), (delta + df + dg - steps) // 2


def _divide(fs: FieldSpec, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Exact quotients of reversed rows f by reversed rows g with g[:, 0] == 1:
    a power series division, column by column."""
    rem = f.copy()
    quot = np.empty_like(f)
    width = f.shape[1]
    for j in range(width):
        quot[:, j] = rem[:, j]
        rem[:, j:] ^= _mul(fs, rem[:, j:j + 1], g[:, :width - j])
    return quot


def _closure_counts(fs: FieldSpec, f: np.ndarray, df: np.ndarray) -> np.ndarray:
    """deg rad f for monic reversed rows f [N, L] of degrees df.

    In characteristic 2, g = gcd(f, f') = s^2 holds every factor of even
    multiplicity in full and the others to one power less, so w = f / g is
    the product of the factors of odd multiplicity and
    deg rad f = deg w + deg rad s - deg gcd(w, s) (von zur Gathen and
    Gerhard, Modern Computer Algebra, 14.6).  Lanes with g = 1 are
    squarefree; the rest recurse on s, of half the degree
    (:func:`_repeated_counts`)."""
    width = f.shape[1]
    # f' keeps the terms of odd exponent d - j; read at formal degree
    # d - 1, column j then stands for x^(d - 1 - j)
    deriv = np.where((df[:, None] - np.arange(width)) & 1, f, 0)
    g, dg = _gcd(fs, f, deriv, df, df - 1)
    out = df.astype(np.intp)
    rep = np.flatnonzero(dg > 0)
    if rep.size:
        out[rep] = _repeated_counts(fs, f[rep], g[rep], df[rep], dg[rep])
    return out


def _repeated_counts(fs: FieldSpec, f: np.ndarray, g: np.ndarray, df: np.ndarray,
                     dg: np.ndarray) -> np.ndarray:
    """deg rad f for monic reversed rows f [N, L] of degrees df, given
    g = gcd(f, f') as monic reversed rows of degrees dg > 0 (see
    :func:`_closure_counts`)."""
    w = _divide(fs, f, g)
    s = fs.sqrt_table[g[:, ::2]]          # g = s^2 has even exponents only
    padded = np.zeros_like(w)
    padded[:, :s.shape[1]] = s
    _, dws = _gcd(fs, w, padded, df - dg, dg // 2)
    return df - dg + _closure_counts(fs, s, dg // 2) - dws


def field_values(fs: FieldSpec, polys: np.ndarray) -> np.ndarray:
    """Values [N, q] of every row of ascending codes [N, L] (L >= 1, in
    the dtype of :func:`code_dtype`) at every element of F, column a the
    value at a, in the same dtype: Horner's rule, all rows and elements
    in step."""
    x = np.arange(fs.q, dtype=code_dtype(fs.degree))
    acc = np.repeat(polys[:, -1:], fs.q, axis=1)
    for i in range(polys.shape[1] - 2, -1, -1):
        acc = _mul(fs, acc, x) ^ polys[:, i:i + 1]
    return acc


def _frobenius_counts(fs: FieldSpec, polys: np.ndarray) -> np.ndarray:
    """Distinct roots in F of monic rows [N, n+1]: deg gcd(f, (x^q - x) mod f),
    as x^q - x is the product of x - a over all a in F.

    x^q mod f is k squarings of x mod f.  In characteristic 2 the square of
    r = sum r_i x^i is sum r_i^2 x^(2i): the coefficients are squared and
    spread to the even exponents, then the terms of degree >= n are reduced
    by the monic f (x^n = f_0 + ... + f_(n-1) x^(n-1)), highest first."""
    big, n = polys.shape[0], polys.shape[1] - 1
    low = polys[:, :n]
    log, exp = fs.log_table, fs.exp_table
    log_low = log[low]      # read once for all k (n - 1) reduction steps
    x = np.zeros_like(low)
    if n == 1:
        x[:, 0] = low[:, 0]
    else:
        x[:, 1] = 1
    r = x
    for _ in range(fs.degree):
        wide = np.zeros((big, 2 * n - 1), dtype=low.dtype)
        wide[:, ::2] = _mul(fs, r, r)
        for j in range(2 * n - 2, n - 1, -1):
            wide[:, j - n:j] ^= np.take(exp, log[wide[:, j:j + 1]] + log_low)
        r = wide[:, :n]
    # reversed rows of equal width: f of formal degree n, then x^q - x mod f
    g = np.zeros_like(polys)
    g[:, :n] = (r ^ x)[:, ::-1]
    degrees = np.full(big, n)
    return _gcd(fs, polys[:, ::-1], g, degrees, degrees - 1)[1]


def count_roots(fs: FieldSpec, polys: np.ndarray, kind: str) -> np.ndarray:
    """Distinct roots of a batch of monic polynomials [N, n+1] (ascending
    codes), in F ("in_field") or in its closure ("in_closure"), zero
    included, as uint8, on code rows in blocks of 2^14: Frobenius counts in
    F, the squarefree recursion of :func:`_closure_counts` in the closure.
    Root counts reach it for k >= 8 (:func:`_root_counts`)."""
    n = polys.shape[1] - 1
    step = 1 << 14
    out = np.empty(polys.shape[0], dtype=np.uint8)
    for lo in range(0, polys.shape[0], step):
        block = polys[lo:lo + step]
        if kind == "in_closure":
            out[lo:lo + step] = _closure_counts(fs, block[:, ::-1], np.full(block.shape[0], n))
        else:
            out[lo:lo + step] = _frobenius_counts(fs, block)
    return out


# ----------------------------------------------------------------------
# root counts on coefficient planes
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _evaluation_map(fs: FieldSpec, n: int):
    """The values at every a in F of a monic polynomial of degree n as a
    map of its n k low coefficient planes: the :func:`linear_map` of the
    rows [a^i for a in F], i < n, into value planes a k + t, and the value
    planes of the leading term, those where bit t of a^n is set."""
    rows = [[fs.pow(a, i) for a in range(fs.q)] for i in range(n + 1)]
    lead = np.array(rows[n])[:, None] >> np.arange(fs.degree) & 1
    return linear_map(fs, rows[:n], fs.q), np.flatnonzero(lead)


def _field_counts(fs: FieldSpec, coeffs: np.ndarray, count: int) -> np.ndarray:
    """Roots in F of lanes 0 .. count-1 of coefficient planes [n, k, W]:
    the elements at which all k value planes are zero."""
    n, k, w = coeffs.shape
    targets, lead = _evaluation_map(fs, n)
    values = apply_map(coeffs.reshape(n * k, w), targets, fs.q * k)
    values[lead] ^= _ALL_ONES
    roots = ~np.bitwise_or.reduce(values.reshape(fs.q, k, w), axis=1)
    return np.unpackbits(roots.view(np.uint8), axis=1, count=count,
                         bitorder="little").sum(axis=0, dtype=np.uint8)


def _derivative_gcd(fs: FieldSpec, coeffs: np.ndarray, count: int):
    """gcd(f, f') of the monic polynomials of coefficient planes [n, k, W]:
    the divsteps of :func:`_gcd` on planes, in reversed rows [n+1, k, W].
    Each step's products are one :func:`_matvec` of (g, f) by (f_0, g_0),
    the swap is a lane mask and delta a per-lane int array.  Returns the
    gcd's planes, not made monic, and its degrees in lanes 0 .. count-1."""
    n, k, w = coeffs.shape
    net = _mul_network(fs)
    gf = np.zeros((n + 1, 2, k, w), dtype=_PLANE)
    g, f = gf[:, 0], gf[:, 1]
    f[0, 0] = _ALL_ONES
    f[1:] = coeffs[::-1]
    g[:] = f                      # f' at formal degree n - 1, as in _closure_counts
    g[(n - np.arange(n + 1)) & 1 == 0] = 0
    delta = np.ones(64 * w, dtype=np.intp)
    for _ in range(2 * n):
        swap = np.packbits(delta > 0, bitorder="little").view(_PLANE)
        swap &= np.bitwise_or.reduce(g[0], axis=0)
        drop = _matvec(net, gf, gf[0, ::-1])
        f ^= (f ^ g) & swap
        g[:-1] = drop[1:]
        g[-1] = 0
        swapped = np.unpackbits(swap.view(np.uint8), bitorder="little").astype(bool)
        delta = np.where(swapped, 1 - delta, 1 + delta)
    return f, (delta[:count] - 1) // 2


def _closure_plane_counts(fs: FieldSpec, coeffs: np.ndarray, count: int) -> np.ndarray:
    """Roots in the closure of lanes 0 .. count-1 of coefficient planes
    [n, k, W]: n where gcd(f, f') = 1; the other lanes are read off the
    words that hold them, with their gcd, made monic, and go on to
    :func:`_repeated_counts` on code rows."""
    n = coeffs.shape[0]
    g, dg = _derivative_gcd(fs, coeffs, count)
    out = np.full(count, n, dtype=np.uint8)
    rep = np.flatnonzero(dg > 0)
    if rep.size:
        words, at = np.unique(rep // 64, return_inverse=True)
        planes = np.concatenate([coeffs[::-1], g])[..., words]
        codes = lane_codes(planes, 64 * words.size)[64 * at + rep % 64]
        f = np.ones((rep.size, n + 1), dtype=codes.dtype)
        f[:, 1:] = codes[:, :n]
        g = _mul(fs, fs.inv_table[codes[:, n:n + 1]], codes[:, n:])
        out[rep] = _repeated_counts(fs, f, g, np.full(rep.size, n), dg[rep])
    return out


def _plane_counts(fs: FieldSpec, coeffs: np.ndarray, count: int, kind: str) -> np.ndarray:
    """Distinct roots, zero included, of lanes 0 .. count-1 of coefficient
    planes [n, k, W], k <= 7, as uint8.  Past ``_PARTIAL_BYTES`` the lanes
    go in blocks of words that keep the largest temporary within it: the q
    k value planes and q unpacked root bytes of :func:`_field_counts`, or
    the products of one divstep (see :func:`charpoly_planes`)."""
    n, k, w = coeffs.shape
    words = max(fs.q * (k + 9), (n + 1) * k * max(2 * k, _mul_network(fs).shape[1]))
    step = max(1, _PARTIAL_BYTES // (_PLANE.itemsize * words))
    if w > step:
        return np.concatenate([
            _plane_counts(fs, coeffs[..., lo:lo + step], min(count - 64 * lo, 64 * step), kind)
            for lo in range(0, w, step)])
    if kind == "in_field":
        return _field_counts(fs, coeffs, count)
    return _closure_plane_counts(fs, coeffs, count)


def _root_counts(fs: FieldSpec, coeffs: np.ndarray, count: int, kind: str) -> np.ndarray:
    """Distinct roots, zero included, of lanes 0 .. count-1 of coefficient
    planes [n, k, W], as uint8: on the planes for k <= 7
    (:func:`_plane_counts`), unpacked to code rows above
    (:func:`count_roots`)."""
    if coeffs.shape[1] <= _EVAL_DEGREE:
        return _plane_counts(fs, coeffs, count, kind)
    return count_roots(fs, monic_codes(coeffs, count), kind)


@lru_cache(maxsize=None)
def spectrum_tables(fs: FieldSpec, n: int):
    """Distinct-root counts for every monic polynomial of degree n over fs,
    indexed by the packed low coefficients (base q, constant term least
    significant).  Four uint8 arrays: roots in F, nonzero roots in F,
    roots in the closure, nonzero roots in the closure, counted on the
    :func:`index_planes` of 0 .. q^n - 1, whose n k bits are the index."""
    total = fs.q ** n
    if total > _TABLE_POLYS:
        raise ValueError(f"a spectrum table of {total} polynomials exceeds "
                         f"{_TABLE_POLYS}; count the batch with count_roots")
    coeffs = index_planes(np.arange(-(-total // 64)), n * fs.degree).reshape(n, fs.degree, -1)
    zero = ~nonzero_lanes(coeffs[0], total)
    in_f = _root_counts(fs, coeffs, total, "in_field")
    clo = _root_counts(fs, coeffs, total, "in_closure")
    return in_f, in_f - zero, clo, clo - zero


_KIND_SLOT = {("in_field", False): 0, ("in_field", True): 1,
              ("in_closure", False): 2, ("in_closure", True): 3}


def spectrum_counts(fs: FieldSpec, coeffs: np.ndarray, count: int, kind: str,
                    exclude_zero: bool) -> np.ndarray:
    """Distinct-root counts of lanes 0 .. count-1 of a plane batch of monic
    polynomials of degree n, given by their n low coefficients [n, k, W]
    (the output of :func:`charpoly_planes`), as uint8.

    Coefficient spaces of at most 2^16 polynomials read a full precomputed
    table (:func:`spectrum_tables`) at indices read off the planes as one
    column of n k bits (:func:`lane_codes`).  Larger ones are counted as the
    tables are built (:func:`_root_counts`), with the zero root, as there,
    from the constant-coefficient planes."""
    n, k, w = coeffs.shape
    if fs.q ** n <= _TABLE_POLYS:
        index = lane_codes(coeffs.reshape(1, n * k, w), count)[:, 0]
        return spectrum_tables(fs, n)[_KIND_SLOT[(kind, exclude_zero)]][index]
    counts = _root_counts(fs, coeffs, count, kind)
    if exclude_zero:
        counts -= ~nonzero_lanes(coeffs[0], count)
    return counts


# ----------------------------------------------------------------------
# element streams
# ----------------------------------------------------------------------
# A projective scan of F_q^d visits index 0 and the blocks [q^j, 2 q^j),
# j = 0 .. d-1 (see :mod:`.spectra`), in 64-lane words: word w holds the
# indices 64 w .. 64 w + 63.  Word 0 holds every block with q^j < 64, and
# the block of each q^j >= 64 is the run of q^j / 64 whole words from
# word q^j / 64 on, as q^j is a power of two.
def _block_words(q: int, d: int) -> list[int]:
    """q^j / 64 for each block [q^j, 2 q^j) with q^j >= 64: its number of
    words, and also the number of its first word."""
    return [q ** j // 64 for j in range(d) if q ** j >= 64]


def projective_word_count(q: int, d: int) -> int:
    """Words of a projective scan of F_q^d: word 0, then the words of every
    block with q^j >= 64."""
    return 1 + sum(_block_words(q, d))


def projective_words(q: int, d: int, lo: int, hi: int) -> np.ndarray:
    """Word numbers of the word ranks [lo, hi) of a projective scan of
    F_q^d, ascending: rank 0 is word 0, and the blocks follow in order.
    Computed from the rank range alone, block by block."""
    runs = [np.zeros(min(hi, 1) - min(lo, 1), dtype=np.int64)]
    rank = 1
    for size in _block_words(q, d):
        if rank >= hi:
            break
        a, b = max(lo, rank), min(hi, rank + size)
        if a < b:
            runs.append(np.arange(size + a - rank, size + b - rank, dtype=np.int64))
        rank += size
    return np.concatenate(runs)


_MASK64 = (1 << 64) - 1
_STREAM_STEP = 0xD1342543DE82EF95   # between the keys of a sample's stream words


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's output function, in place on uint64 words z: the
    generator's word from state x is _mix64(x + golden)."""
    t = np.empty_like(z)
    with np.errstate(over="ignore"):
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= np.uint64(0xBF58476D1CE4E5B9)
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= np.uint64(0x94D049BB133111EB)
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
    return z


@lru_cache(maxsize=64)
def _stream_offsets(seed: int, words: int) -> np.ndarray:
    """Per-word offsets of the stream of a seed: stream word w of sample i
    is _mix64(i golden + offsets[w]), offsets[w] = key + w step + golden
    and key = _mix64(seed golden + 1 + golden), all mod 2^64."""
    golden = int(_GOLDEN)
    key = int(_mix64(np.array([((seed & _MASK64) * golden + 1 + golden) & _MASK64],
                              dtype=np.uint64))[0])
    offsets = np.array([(key + w * _STREAM_STEP + golden) & _MASK64 for w in range(words)],
                       dtype=np.uint64)
    offsets.flags.writeable = False
    return offsets


def sample_planes(q: int, d: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """Counter-based sampling: the planes [d k, W] (k = log2 q) of the d
    coordinates of samples lo .. hi-1, coordinate c's bit t at plane
    c k + t.  Sample i draws its coordinates from SplitMix64 stream words
    keyed by (seed, i) (Steele, Lea and Flood, OOPSLA 2014).  Each
    coordinate owns a byte-aligned field of one word (f = 1 byte and
    per = 8 fields to a word for q <= 256, f = 2 bytes and per = 4 above)
    and takes its low k bits.  Deterministic, independent of how the index
    range is partitioned across workers.

    The planes come straight off the stream words, with no codes between.
    The words of whole 64-lane groups of samples are drawn in place, one
    row per stream word (lanes past hi are never read).  For each bit
    b < min(k, 8), the mask and multiply of :func:`code_planes` gather
    bit b of the eight bytes of a word into one byte, and eight lanes'
    bytes make a uint64 whose byte l is lane l.  The 8 x 8 bit transpose
    of :func:`lane_codes` turns it so that byte j holds bit b of byte j of
    those eight lanes, and one gather takes plane (c, t) from bit t % 8 of
    byte f (c % per) + t // 8 of stream word c // per."""
    k = q.bit_length() - 1
    f = 1 if q <= 256 else 2
    per = 8 // f
    words = -(-d // per)
    bits = min(k, 8)
    lanes = 64 * -(-(hi - lo) // 64)
    z = np.empty((words, lanes), dtype=_PLANE)
    with np.errstate(over="ignore"):
        base = np.arange(lo, lo + lanes, dtype=np.uint64)
        base *= _GOLDEN
        np.add(base, _stream_offsets(seed, words)[:, None], out=z)
        del base
        _mix64(z)
        gathered = np.empty((words, bits, lanes), dtype=np.uint8)
        t = np.empty_like(z)
        for b in range(bits):
            np.bitwise_and(z, _BYTE_LSB << np.uint64(b), out=t)
            t *= _GATHER >> np.uint64(b)             # bit 8 i + b to bit 56 + i
            gathered[:, b] = t.view(np.uint8)[..., 7::8]
    del z, t
    _transpose8(gathered.view(_PLANE))               # [words, bits, lanes / 8]
    col, bit = np.divmod(np.arange(d * k), k)
    by_byte = gathered.reshape(words * bits, lanes // 8, 8).transpose(0, 2, 1)
    return by_byte[col // per * bits + bit % 8, f * (col % per) + bit // 8].view(_PLANE)


def sample_coords(q: int, d: int, seed: int, lo: int, hi: int) -> np.ndarray:
    """The coordinates [hi - lo, d] of samples lo .. hi-1, read off the
    planes of :func:`sample_planes` by :func:`lane_codes`: uint8 for
    q <= 256, uint16 above.  Scans read the planes; this reads one
    sample's coordinates back for its witness."""
    planes = sample_planes(q, d, seed, lo, hi)
    return lane_codes(planes.reshape(d, q.bit_length() - 1, planes.shape[-1]), hi - lo)
