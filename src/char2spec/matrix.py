"""Dense exact matrices over GF(2^k).

A :class:`Mat` is an immutable (rows, cols, entries) triple with the
entries stored row-major as a tuple of field codes; the field is passed
explicitly to any operation that multiplies.  Addition is entrywise XOR.

Two independent characteristic-polynomial algorithms are kept
permanently: Hessenberg reduction with pivoting (the default) and the
division-free Berkowitz recurrence.  Tests cross-check them on every
shape in use; the batch engine in :mod:`._bulk` vectorizes the Berkowitz
path and is cross-checked against both.
"""

from __future__ import annotations

from .gf import FieldSpec
from .upoly import Poly, poly

Row = tuple[int, ...]


class Mat:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries) -> None:
        self.rows = rows
        self.cols = cols
        self.entries = tuple(entries)
        if len(self.entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(self.entries)}")

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Row:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Row:
        return self.entries[j::self.cols]

    def row_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"Mat({self.rows}x{self.cols}: {body})"

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols, "entries": list(self.entries)}


def mat_from_json(obj: dict) -> Mat:
    return Mat(obj["rows"], obj["cols"], obj["entries"])


def from_rows(rows) -> Mat:
    rows = [list(r) for r in rows]
    n = len(rows)
    m = len(rows[0]) if rows else 0
    return Mat(n, m, [x for r in rows for x in r])


def zero(n: int, m: int | None = None) -> Mat:
    m = n if m is None else m
    return Mat(n, m, (0,) * (n * m))


def identity(n: int) -> Mat:
    return Mat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def unit(n: int, m: int, i: int, j: int) -> Mat:
    e = [0] * (n * m)
    e[i * m + j] = 1
    return Mat(n, m, e)


def place(n: int, m: int, i: int, j: int, b: Mat) -> Mat:
    """The n x m matrix holding b with its top-left entry at (i, j), zero
    elsewhere."""
    if i < 0 or j < 0 or i + b.rows > n or j + b.cols > m:
        raise ValueError("block does not fit in the target")
    e = [0] * (n * m)
    for r in range(b.rows):
        start = (i + r) * m + j
        e[start:start + b.cols] = b.row(r)
    return Mat(n, m, e)


def mat_add(a: Mat, b: Mat) -> Mat:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch in addition")
    return Mat(a.rows, a.cols, tuple(x ^ y for x, y in zip(a.entries, b.entries)))


def mat_mul(fs: FieldSpec, a: Mat, b: Mat) -> Mat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch in multiplication")
    mul = fs.mul
    n, k, m = a.rows, a.cols, b.cols
    ae, be = a.entries, b.entries
    out = [0] * (n * m)
    for i in range(n):
        arow = ae[i * k:(i + 1) * k]
        orow = out[i * m:(i + 1) * m]
        for t in range(k):
            c = arow[t]
            if c == 0:
                continue
            brow = be[t * m:(t + 1) * m]
            for j in range(m):
                orow[j] ^= mul(c, brow[j])
        out[i * m:(i + 1) * m] = orow
    return Mat(n, m, out)


def dot(fs: FieldSpec, a, b) -> int:
    """sum_i a_i b_i, e.g. a functional phi evaluated at a vector x."""
    mul = fs.mul
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc ^= mul(x, y)
    return acc


def mat_vec(fs: FieldSpec, a: Mat, v) -> tuple[int, ...]:
    mul = fs.mul
    out = []
    for i in range(a.rows):
        acc = 0
        row = a.row(i)
        for j, c in enumerate(v):
            if c:
                acc ^= mul(row[j], c)
        out.append(acc)
    return tuple(out)


def transpose(a: Mat) -> Mat:
    return Mat(a.cols, a.rows, tuple(a.entries[j * a.cols + i]
                                     for i in range(a.cols) for j in range(a.rows)))


def trace(a: Mat) -> int:
    if a.rows != a.cols:
        raise ValueError("trace of a non-square matrix")
    t = 0
    for i in range(a.rows):
        t ^= a.entries[i * a.cols + i]
    return t


def tensor(fs: FieldSpec, phi, y) -> Mat:
    """The rank <= 1 operator x -> phi(x) y, with trace phi(y)."""
    if len(phi) != len(y):
        raise ValueError("dimension mismatch in tensor")
    mul = fs.mul
    n = len(y)
    return Mat(n, n, tuple(mul(y[i], phi[j]) for i in range(n) for j in range(n)))


# ----------------------------------------------------------------------
# elimination kernels (shared with the subspace module)
# ----------------------------------------------------------------------
def rref_rows(fs: FieldSpec, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row-echelon form; returns (nonzero rows, pivot cols).
    Rows are scaled and eliminated through one row of the field's
    multiplication table (mrow[y] = f * y) where it keeps one (k <= 8)."""
    mul, inv = fs.mul, fs.inv
    table = fs._mul
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = -1
        for i in range(r, len(rows)):
            if rows[i][c]:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        lead = rows[r][c]
        if lead != 1:
            li = inv(lead)
            if table is None:
                rows[r] = [mul(li, x) for x in rows[r]]
            else:
                mrow = table[li]
                rows[r] = [mrow[x] for x in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                if table is None:
                    rows[i] = [x ^ mul(f, y) for x, y in zip(rows[i], prow)]
                else:
                    mrow = table[f]
                    rows[i] = [x ^ mrow[y] for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return [row for row in rows[:r]], pivots


def rank(fs: FieldSpec, a: Mat) -> int:
    return len(rref_rows(fs, a.row_lists())[1])


def inverse(fs: FieldSpec, a: Mat) -> Mat:
    if a.rows != a.cols:
        raise ValueError("inverse of a non-square matrix")
    n = a.rows
    aug = [list(a.row(i)) + [1 if i == j else 0 for j in range(n)] for i in range(n)]
    reduced, pivots = rref_rows(fs, aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return from_rows([row[n:] for row in reduced])


# ----------------------------------------------------------------------
# characteristic and minimal polynomials
# ----------------------------------------------------------------------
def char_poly_hessenberg(fs: FieldSpec, a: Mat) -> Poly:
    """det(tI + M) via similarity reduction to Hessenberg form with pivoting,
    then the standard Hessenberg determinant recurrence (char 2: tI - M = tI + M)."""
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    mul, inv = fs.mul, fs.inv
    h = a.row_lists()
    for j in range(n - 2):
        sel = -1
        for i in range(j + 1, n):
            if h[i][j]:
                sel = i
                break
        if sel < 0:
            continue
        if sel != j + 1:
            h[j + 1], h[sel] = h[sel], h[j + 1]
            for row in h:
                row[j + 1], row[sel] = row[sel], row[j + 1]
        piv_inv = inv(h[j + 1][j])
        for i in range(j + 2, n):
            if h[i][j]:
                f = mul(h[i][j], piv_inv)
                h[i] = [x ^ mul(f, y) for x, y in zip(h[i], h[j + 1])]
                for row in h:
                    row[j + 1] ^= mul(f, row[i])
    # p[k] = char poly of the leading k x k block, coefficients by ascending degree
    p: list[list[int]] = [[1]]
    for k in range(1, n + 1):
        cur = [0] + p[k - 1]  # t * p_{k-1}
        dk = h[k - 1][k - 1]
        if dk:
            for i, c in enumerate(p[k - 1]):
                cur[i] ^= mul(dk, c)
        run = 1
        for i in range(k - 1, 0, -1):
            run = mul(run, h[i][i - 1])
            if run == 0:
                break
            coeff = mul(h[i - 1][k - 1], run)
            if coeff:
                for t, c in enumerate(p[i - 1]):
                    cur[t] ^= mul(coeff, c)
        p.append(cur)
    return poly(p[n])


def char_poly_berkowitz(fs: FieldSpec, a: Mat) -> Poly:
    """Division-free Berkowitz/Samuelson characteristic polynomial.

    Grows one leading principal block at a time; with the new row R, new
    column C and new diagonal entry d of the m-th block, the new
    coefficient vector is the convolution of (1, d, R C, R M C, ...)
    with the previous one, truncated to length m + 1.
    """
    if a.rows != a.cols:
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = a.rows
    mul = fs.mul
    rows = a.row_lists()
    c = [1]  # descending-degree coefficients for the leading block
    for m in range(1, n + 1):
        d = rows[m - 1][m - 1]
        r_vec = rows[m - 1][:m - 1]
        col = [1, d]
        v = [rows[i][m - 1] for i in range(m - 1)]
        while len(col) < m + 1:
            acc = 0
            for x, y in zip(r_vec, v):
                if x and y:
                    acc ^= mul(x, y)
            col.append(acc)
            if len(col) == m + 1:
                break
            nv = [0] * (m - 1)
            for i in range(m - 1):
                acc2 = 0
                rrow = rows[i]
                for j in range(m - 1):
                    rj = rrow[j]
                    vj = v[j]
                    if rj and vj:
                        acc2 ^= mul(rj, vj)
                nv[i] = acc2
            v = nv
        new = [0] * (m + 1)
        for i in range(m + 1):
            acc = 0
            for j in range(max(0, i - len(col) + 1), min(i, len(c) - 1) + 1):
                cc = c[j]
                kk = col[i - j]
                if cc and kk:
                    acc ^= mul(cc, kk)
            new[i] = acc
        c = new
    return poly(reversed(c))


def char_poly(fs: FieldSpec, a: Mat) -> Poly:
    """Default characteristic polynomial path (Hessenberg with pivoting)."""
    return char_poly_hessenberg(fs, a)


def min_poly(fs: FieldSpec, a: Mat) -> Poly:
    """Least-degree monic annihilator, by one row reduction of the rows
    [vec(A^i) | e_i] for i = 0..n, with the e-coordinates listed from A^n
    down to I.  The rows with zero A-part span the polynomials of degree
    <= n that annihilate A (nonzero by Cayley-Hamilton), and the last
    reduced row is the one of least degree, with leading coefficient 1."""
    if a.rows != a.cols:
        raise ValueError("minimal polynomial of a non-square matrix")
    n = a.rows
    rows, power = [], identity(n)
    for i in range(n + 1):
        if i:
            power = mat_mul(fs, power, a)
        rows.append(list(power.entries) + [1 if j == n - i else 0 for j in range(n + 1)])
    reduced, _ = rref_rows(fs, rows)
    return poly(reduced[-1][n * n:][::-1])


def companion(r: Poly) -> Mat:
    """Companion matrix with ones on the subdiagonal and the coefficients
    of the monic input in the last column (a_0 at the top)."""
    if not r or r[-1] != 1:
        raise ValueError("companion matrix requires a monic polynomial")
    n = len(r) - 1
    if n < 1:
        raise ValueError("companion matrix requires degree >= 1")
    m = [[0] * n for _ in range(n)]
    for j in range(n - 1):
        m[j + 1][j] = 1
    for i in range(n):
        m[i][n - 1] = r[i]
    return from_rows(m)


def is_regular_hessenberg(a: Mat) -> bool:
    """Upper Hessenberg with every subdiagonal entry nonzero."""
    if a.rows != a.cols:
        return False
    n = a.rows
    for i in range(n):
        for j in range(n):
            if i > j + 1 and a[i, j] != 0:
                return False
    return all(a[j + 1, j] != 0 for j in range(n - 1))


def random_matrix(fs: FieldSpec, rng, n: int) -> Mat:
    return Mat(n, n, tuple(rng.randrange(fs.q) for _ in range(n * n)))


def random_invertible(fs: FieldSpec, rng, n: int) -> Mat:
    while True:
        a = random_matrix(fs, rng, n)
        if rank(fs, a) == n:
            return a
