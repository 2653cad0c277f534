"""Vectorized kernels for large enumerations (internal).

Batches of field elements are uint8 numpy arrays of codes; addition is
XOR and multiplication is fancy indexing into the per-field q x q table,
so everything stays exact.  The characteristic polynomial kernel is the
same division-free Berkowitz recurrence as the scalar path in
:mod:`.matrix` (branch-free, hence vectorizable); tests cross-check the
two on every shape the package uses.

Only fields with k <= 8 are supported here; callers fall back to the
scalar path above that.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import FieldSpec
from . import upoly

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def supports(fs: FieldSpec) -> bool:
    return fs.degree <= 8


def _xor_reduce(a: np.ndarray, axis: int) -> np.ndarray:
    return np.bitwise_xor.reduce(a, axis=axis)


def batch_charpoly(fs: FieldSpec, mats: np.ndarray) -> np.ndarray:
    """Characteristic polynomials of a batch of square matrices.

    mats: [N, n, n] uint8 codes.  Returns [N, n+1] uint8 coefficients by
    ascending degree (so [:, n] is all ones).
    """
    mul = fs.mul_table_np()
    n = mats.shape[1]
    big = mats.shape[0]
    c = np.ones((big, 1), dtype=np.uint8)
    for m in range(1, n + 1):
        col = np.zeros((big, m + 1), dtype=np.uint8)
        col[:, 0] = 1
        col[:, 1] = mats[:, m - 1, m - 1]
        if m >= 2:
            r_vec = mats[:, m - 1, :m - 1]
            sub = mats[:, :m - 1, :m - 1]
            v = mats[:, :m - 1, m - 1]
            for t in range(2, m + 1):
                col[:, t] = _xor_reduce(mul[r_vec, v], axis=1)
                if t < m:
                    v = _xor_reduce(mul[sub, v[:, None, :]], axis=2)
        new = np.zeros((big, m + 1), dtype=np.uint8)
        prev_len = c.shape[1]
        for i in range(m + 1):
            acc = np.zeros(big, dtype=np.uint8)
            for j in range(max(0, i - m), min(i, prev_len - 1) + 1):
                acc ^= mul[c[:, j], col[:, i - j]]
            new[:, i] = acc
        c = new
    return c[:, ::-1]


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
@lru_cache(maxsize=None)
def _scale_rows(fs: FieldSpec, basis: tuple) -> np.ndarray:
    """[d, q, L] table: row j, scalar c -> c * basis[j]."""
    mul = fs.mul_table_np()
    b = np.array(basis, dtype=np.uint8)
    return mul[:, b].transpose(1, 0, 2)  # mul[c, b[j, l]] -> [d, q, L]


def elements_from_coords(fs: FieldSpec, basis: tuple, coords: np.ndarray) -> np.ndarray:
    """Batch linear combinations: coords [N, d] -> entries [N, L]."""
    scaled = _scale_rows(fs, basis)
    big = coords.shape[0]
    length = scaled.shape[2]
    out = np.zeros((big, length), dtype=np.uint8)
    for j in range(coords.shape[1]):
        out ^= scaled[j][coords[:, j]]
    return out


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


def exhaustive_coords(q: int, d: int, idx: np.ndarray) -> np.ndarray:
    """Base-q digits (least significant first) of the enumeration indices."""
    idx = idx.copy()
    out = np.empty((idx.shape[0], d), dtype=np.uint8)
    for j in range(d):
        out[:, j] = (idx % q).astype(np.uint8)
        idx //= q
    return out


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
    """Counter-based sampling: sample index i yields d uniform coordinates,
    one per byte of a SplitMix64 stream keyed by (seed, i).  Deterministic,
    independent of how the index range is partitioned across workers."""
    idx = np.arange(lo, hi, dtype=np.uint64)
    key = _splitmix64_int(((seed & _MASK64) * 0x9E3779B97F4A7C15 + 1) & _MASK64)
    out = np.empty((hi - lo, d), dtype=np.uint8)
    mask = q - 1
    words = (d + 7) // 8
    for w in range(words):
        offset = np.uint64((key + w * 0xD1342543DE82EF95) & _MASK64)
        with np.errstate(over="ignore"):
            stream = _splitmix64(idx * _GOLDEN + offset)
        for b in range(min(8, d - 8 * w)):
            out[:, 8 * w + b] = ((stream >> np.uint64(8 * b)) & np.uint64(mask)).astype(np.uint8)
    return out


def apply_linear(fs: FieldSpec, batch: np.ndarray, lin: list[list[int]]) -> np.ndarray:
    """Apply a fixed linear map (lin[j][t], domain index j, codomain index t)
    to every row of the batch; skips zero coefficients."""
    mul = fs.mul_table_np()
    big = batch.shape[0]
    width = len(lin[0]) if lin else 0
    out = np.zeros((big, width), dtype=np.uint8)
    for j, row in enumerate(lin):
        colj = None
        for t, coef in enumerate(row):
            if coef:
                if colj is None:
                    colj = batch[:, j]
                out[:, t] ^= mul[coef, colj]
    return out
