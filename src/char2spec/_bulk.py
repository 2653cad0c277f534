"""Bit-sliced kernels for large enumerations (internal).

A batch of N elements of GF(2^k) is held as k bit-planes of uint64
words: bit b of lane i is bit b of element i's code, and lane i sits in
bit i % 64 of word i // 64, so one word carries 64 elements (Biham's
bit-slicing; M4RIE holds matrices over GF(2^e) the same way).  Arrays of
planes have shape [..., k, W] with W = ceil(N / 64).  Lanes past N in the
last word are never read.  Codes go to planes through :func:`code_planes`
(a multiply gathers one bit of eight bytes) and come back through
:func:`lane_codes` (an 8 x 8 bit transpose), the one reader of codes off
planes.  An exhaustive scan needs no codes:
the planes of the indices 64 w .. 64 w + 63 are fixed lane patterns for
bits 0-5 and whole words of ones or zeros above (:func:`index_planes`),
and the scan visits whole words of indices (:func:`projective_words`).

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
Above that they are unpacked to codes [N, n+1] (:func:`monic_codes`)
and counted directly.

Direct root counts work on code rows, all lanes in step (the tests hold
them to the scalar :mod:`.upoly` routines).  Roots in F are, for k <= 7,
the zeros of a Horner evaluation at all q elements (:func:`field_values`,
which also finds the eigenvalues of :mod:`.structure`), and from k = 8 on
deg gcd(f, (x^q - x) mod f), with x^q mod f from k modular squarings.
Roots in the closure are deg rad f, from the characteristic-2 squarefree
decomposition: with g = gcd(f, f') = s^2 and w = f / g, deg rad f =
deg w + deg rad s - deg gcd(w, s), where the gcds are Bernstein-Yang
divsteps (the same number of steps in every lane) and only lanes with
g != 1 recurse on s.  The spectrum tables are built the same way.

Every kernel serves every field, k <= 16.  Codes are uint8 for k <= 8
and uint16 above (:func:`.gf.code_dtype`).  The kernels build no field
table; they read those of the :class:`.gf.FieldSpec`.  A product of code
arrays is one read of the flat q*q table for k <= 8 and, above, a read
of the log/exp tables; inverses and square roots read tables of q codes.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldSpec, code_dtype

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_PLANE = np.dtype("<u8")
_PARTIAL_BYTES = 1 << 24    # bound on the largest temporary of one matrix-vector product
_TABLE_POLYS = 1 << 16      # bound on the monic polynomials of one spectrum table


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
    for shift, mask in _TRANSPOSE8:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
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
    squarefree; the rest recurse on s, of half the degree."""
    width = f.shape[1]
    # f' keeps the terms of odd exponent d - j; read at formal degree
    # d - 1, column j then stands for x^(d - 1 - j)
    deriv = np.where((df[:, None] - np.arange(width)) & 1, f, 0)
    g, dg = _gcd(fs, f, deriv, df, df - 1)
    out = df.astype(np.intp)
    rep = np.flatnonzero(dg > 0)
    if rep.size:
        f, g, df, dg = f[rep], g[rep], df[rep], dg[rep]
        w = _divide(fs, f, g)
        s = fs.sqrt_table[g[:, ::2]]          # g = s^2 has even exponents only
        padded = np.zeros_like(w)
        padded[:, :s.shape[1]] = s
        _, dws = _gcd(fs, w, padded, df - dg, dg // 2)
        out[rep] = df - dg + _closure_counts(fs, s, dg // 2) - dws
    return out


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
    included, as uint8.  For k <= 7 roots in F are Horner counts and rows
    go in blocks of about 2^16 / q, which bounds the Horner table (rows x q);
    from k = 8 on, where q evaluations per row lose to k squarings, they are
    Frobenius counts and rows go in blocks of 2^14."""
    n = polys.shape[1] - 1
    horner = fs.degree <= 7
    step = max(1024, (1 << 16) // fs.q) if horner else 1 << 14
    out = np.empty(polys.shape[0], dtype=np.uint8)
    for lo in range(0, polys.shape[0], step):
        block = polys[lo:lo + step]
        if kind == "in_closure":
            out[lo:lo + step] = _closure_counts(fs, block[:, ::-1], np.full(block.shape[0], n))
        elif horner:
            out[lo:lo + step] = np.count_nonzero(field_values(fs, block) == 0, axis=1)
        else:
            out[lo:lo + step] = _frobenius_counts(fs, block)
    return out


@lru_cache(maxsize=None)
def spectrum_tables(fs: FieldSpec, n: int):
    """Distinct-root counts for every monic polynomial of degree n over fs,
    indexed by the packed low coefficients (base q, constant term least
    significant).  Four uint8 arrays: roots in F, nonzero roots in F,
    roots in the closure, nonzero roots in the closure."""
    total = fs.q ** n
    if total > _TABLE_POLYS:
        raise ValueError(f"a spectrum table of {total} polynomials exceeds "
                         f"{_TABLE_POLYS}; count the batch with count_roots")
    idx = np.arange(total)
    polys = np.ones((total, n + 1), dtype=code_dtype(fs.degree))
    for i in range(n):
        polys[:, i] = idx >> (fs.degree * i) & (fs.q - 1)
    in_f = count_roots(fs, polys, "in_field")
    clo = count_roots(fs, polys, "in_closure")
    zero = polys[:, 0] == 0
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
    column of n k bits (:func:`lane_codes`); larger ones are unpacked to
    codes and counted directly by :func:`count_roots`."""
    n, k, w = coeffs.shape
    if fs.q ** n <= _TABLE_POLYS:
        index = lane_codes(coeffs.reshape(1, n * k, w), count)[:, 0]
        return spectrum_tables(fs, n)[_KIND_SLOT[(kind, exclude_zero)]][index]
    polys = monic_codes(coeffs, count)
    counts = count_roots(fs, polys, kind)
    if exclude_zero:
        counts -= polys[:, 0] == 0
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
    key = int(_splitmix64(np.array([((seed & _MASK64) * 0x9E3779B97F4A7C15 + 1) & _MASK64],
                                   dtype=np.uint64))[0])
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
