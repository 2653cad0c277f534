"""Independent brute-force oracles used to freeze expected values, and
the small helpers that only tests use.

The oracles deliberately avoid the code paths they check: factorization
is plain trial division, root counting is direct evaluation, and the
characteristic polynomial is a cofactor expansion of t*I + M over the
polynomial ring.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterator

from char2spec.gf import FieldSpec
from char2spec.matrix import Mat, from_rows, inverse, mat_from_json, mat_mul, rref_rows
from char2spec.subspace import BudgetExceeded, DEFAULT_BUDGET, MatSubspace, VecSubspace
from char2spec import upoly as up

# the default moduli of k = 9..16, and a second degree-9 modulus whose root
# x, like that of the default x^9 + x + 1, has order 73, not 511
WIDE_FIELDS = [FieldSpec(k) for k in range(9, 17)] + [FieldSpec(9, 0b1000010111)]


def field_id(fs: FieldSpec) -> str:
    """A test id naming the field, and its modulus when not the default."""
    return fs.name if fs == FieldSpec(fs.degree) else f"{fs.name}:{fs.modulus}"


def mat_scale(fs: FieldSpec, c: int, a: Mat) -> Mat:
    return Mat(a.rows, a.cols, tuple(fs.mul(c, x) for x in a.entries))


def rref(fs: FieldSpec, a: Mat) -> tuple[Mat, list[int]]:
    """The reduced row echelon form of a, zero rows last, and its pivots."""
    rows, pivots = rref_rows(fs, a.row_lists())
    rows += [[0] * a.cols for _ in range(a.rows - len(rows))]
    return from_rows(rows), pivots


def conjugate(fs: FieldSpec, m: Mat, p: Mat) -> Mat:
    """p m p^-1 (similarity); raises on singular p."""
    return mat_mul(fs, mat_mul(fs, p, m), inverse(fs, p))


def mat_subspace_from_json(field: FieldSpec, obj: dict) -> MatSubspace:
    """The inverse of :meth:`MatSubspace.to_json`."""
    shape = tuple(obj["shape"])
    return MatSubspace.from_matrices(field, shape, [mat_from_json(b) for b in obj["basis"]])


def all_monic(fs: FieldSpec, degree: int):
    """All monic polynomials of exactly the given degree."""
    q = fs.q
    for idx in range(q ** degree):
        coeffs = []
        rest = idx
        for _ in range(degree):
            coeffs.append(rest % q)
            rest //= q
        yield tuple(coeffs) + (1,)


def poly_eval(fs: FieldSpec, f, a: int) -> int:
    acc = 0
    mul = fs.mul
    for c in reversed(f):
        acc = mul(acc, a) ^ c
    return acc


def roots_by_evaluation(fs: FieldSpec, f) -> list[int]:
    return [a for a in fs.elements() if poly_eval(fs, f, a) == 0]


def factor_trial_division(fs: FieldSpec, f) -> dict:
    """Map irreducible monic factor -> multiplicity, by trial division."""
    f = up.monic(fs, f)
    out: dict = {}
    d = 1
    while len(f) - 1 >= 2 * d:
        for g in all_monic(fs, d):
            while True:
                q, r = up.poly_divmod(fs, f, g)
                if r:
                    break
                out[g] = out.get(g, 0) + 1
                f = q
        d += 1
    if len(f) > 1:
        out[f] = out.get(f, 0) + 1
    return out


def radical_by_factoring(fs: FieldSpec, f):
    rad = up.ONE
    for g in factor_trial_division(fs, f):
        rad = up.poly_mul(fs, rad, g)
    return up.monic(fs, rad)


def charpoly_cofactor(fs: FieldSpec, m: Mat):
    """det(t*I + M) by cofactor expansion over the polynomial ring."""
    n = m.rows
    grid = [[(m[i, j], 1) if i == j else ((m[i, j],) if m[i, j] else up.ZERO)
             for j in range(n)] for i in range(n)]
    return _poly_det(fs, grid)


def _poly_det(fs: FieldSpec, grid):
    n = len(grid)
    if n == 1:
        return grid[0][0]
    acc = up.ZERO
    for j in range(n):
        entry = grid[0][j]
        if not entry:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in grid[1:]]
        acc = up.poly_add(acc, up.poly_mul(fs, entry, _poly_det(fs, minor)))
    return acc


def matrix_eval_poly(fs: FieldSpec, f, m: Mat) -> Mat:
    """f(M) by Horner's rule; used to confirm annihilators."""
    from char2spec.matrix import identity, mat_add, zero
    n = m.rows
    acc = zero(n, n)
    for c in reversed(f):
        acc = mat_add(mat_mul(fs, acc, m), mat_scale(fs, c, identity(n)))
    return acc


def min_poly_by_search(fs: FieldSpec, m: Mat):
    """The monic f of least degree with f(M) = 0, by trying every monic
    polynomial of degree 0, 1, ... in turn through :func:`matrix_eval_poly`."""
    from char2spec.matrix import zero
    for d in range(m.rows + 1):
        for f in all_monic(fs, d):
            if matrix_eval_poly(fs, f, m) == zero(m.rows):
                return f
    raise AssertionError("Cayley-Hamilton: the characteristic polynomial annihilates M")


def first_failing_index(space, fails):
    """Smallest enumeration index whose element fails, by walking all q^dim
    elements in order (None when every element passes)."""
    for i in range(space.field.q ** space.dim):
        if fails(space.element_at(i)):
            return i
    return None


def projective_indices(q: int, d: int) -> list[int]:
    """The enumeration indices a projective scan of F_q^d must cover,
    ascending: 0 and the blocks [q^j, 2 q^j), j = 0 .. d-1, the indices
    whose highest nonzero base-q digit is 1 (the smallest index on each
    line {c v : c in F*})."""
    return [0] + [i for j in range(d) for i in range(q ** j, 2 * q ** j)]


def pack_monic(fs: FieldSpec, polys) -> list[int]:
    """Spectrum-table indices of ascending monic coefficient rows: the low
    coefficients packed base q, constant term least significant."""
    return [sum(int(c) << (fs.degree * i) for i, c in enumerate(row[:-1])) for row in polys]


def lane_codes_by_bits(planes, count: int) -> list[list[int]]:
    """Codes [count][c] of lanes 0 .. count-1 from planes [c, b, W] of
    uint64 words, one bit at a time with Python ints: bit t of column j's
    code in lane i is bit i % 64 of word i // 64 of plane (j, t)."""
    words = planes.tolist()
    return [[sum((col[t][i // 64] >> i % 64 & 1) << t for t in range(len(col))) for col in words]
            for i in range(count)]


def is_nilpotent(fs: FieldSpec, m: Mat) -> bool:
    """M^n = 0, i.e. every eigenvalue in the closure is 0."""
    from char2spec.matrix import mat_mul
    p = m
    for _ in range(m.rows - 1):
        p = mat_mul(fs, p, m)
    return not any(p.entries)


_M64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    z = (x + _GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def sample_coordinates(q: int, d: int, seed: int, i: int) -> list[int]:
    """The d coordinates of sample i, from the SplitMix64 stream in plain
    integers: coordinate c is the low k bits of the (c mod per)-th field of
    stream word c // per, where fields are 8 bits wide (per = 8) for
    q <= 256 and 16 bits wide (per = 4) above."""
    field = 8 if q <= 256 else 16
    per = 64 // field
    key = _splitmix64(((seed & _M64) * _GOLDEN + 1) & _M64)
    out = []
    for c in range(d):
        offset = (key + (c // per) * 0xD1342543DE82EF95) & _M64
        word = _splitmix64((i * _GOLDEN + offset) & _M64)
        out.append((word >> (field * (c % per))) & (q - 1))
    return out


def sample_element(space, seed: int, i: int) -> Mat:
    """The matrix of sample i: the coordinates against the RREF basis."""
    fs = space.field
    n, m = space.shape
    entries = [0] * (n * m)
    for c, row in zip(sample_coordinates(fs.q, space.dim, seed, i), space.space.basis):
        for j, x in enumerate(row):
            entries[j] ^= fs.mul(c, x)
    return Mat(n, m, entries)


def first_failing_sample(space, seed: int, samples: int, fails):
    """Smallest sample index whose element fails, by walking the sample
    stream in order (None when every sample passes)."""
    for i in range(samples):
        if fails(sample_element(space, seed, i)):
            return i
    return None


def root_slots(fs: FieldSpec, f) -> tuple[int, int, int, int]:
    """(roots in F, nonzero roots in F, roots in the closure, nonzero roots
    in the closure) of f, by the scalar routines of :mod:`upoly`."""
    in_f, in_closure = up.count_roots_in_field(fs, f), up.count_roots_in_closure(fs, f)
    zero = up.has_root_zero(f)
    return in_f, in_f - zero, in_closure, in_closure - zero


def spectrum_tables_scalar(fs: FieldSpec, n: int):
    """The four spectrum tables of every monic polynomial of degree n, one
    polynomial at a time through :func:`root_slots`, in `all_monic` order
    (which is the packed-index order)."""
    rows = [root_slots(fs, f) for f in all_monic(fs, n)]
    return tuple(list(col) for col in zip(*rows))


def alternator_grams(fs: FieldSpec, t):
    """The Gram matrices Q (U x V) with Q f alternating for every f in the
    operator space T <= Hom(U, V): the kernel of Q -> ((Q f)_aa, (Q f)_ab +
    (Q f)_ba), with the map tabulated by multiplying unit matrices."""
    from char2spec.matrix import mat_mul, unit
    vdim, udim = t.shape
    units = [unit(udim, vdim, i, j) for i in range(udim) for j in range(vdim)]
    rows = []
    for f in t.basis_matrices():
        prods = [mat_mul(fs, u, f) for u in units]
        for a in range(udim):
            rows.append([p[a, a] for p in prods])
            for b in range(a + 1, udim):
                rows.append([p[a, b] ^ p[b, a] for p in prods])
    return MatSubspace((udim, vdim), VecSubspace(fs, udim * vdim, rows).annihilator())


def vanishing_points_two_pass(fs: FieldSpec, p, family):
    """The point walk of the vanishing check in two passes: first every
    point outside the union must have p(x) = 0 (else a hypothesis
    violation there), then the first point with p(x) != 0 fails the
    conclusion.  Returns (outcome, point or None)."""
    from char2spec.structure import eval_monomial_map
    points = [c[::-1] for c in product(range(fs.q), repeat=family[0].ambient)]
    for x in points:
        if not any(v.member(x) for v in family) and eval_monomial_map(fs, p, x):
            return "hypothesis-violation", x
    for x in points:
        if eval_monomial_map(fs, p, x):
            return "fails", x
    return "holds", None


def adapted_meet_dim(fs: FieldSpec, s, x) -> int:
    """dim of S meet the tensors phi (x) x with phi(x) = 0, by intersecting
    S with their span in n^2 coordinates."""
    from char2spec.structure import tensor_span
    from char2spec.subspace import line
    return s.intersect(tensor_span(fs, line(fs, x).annihilator().basis, [x])).dim


def _plane_tensors(fs: FieldSpec, plane):
    """The tensors phi (x) y for every projective point phi of the dual
    plane and every y in a basis of ker phi."""
    from char2spec.matrix import tensor
    from char2spec.subspace import line, projective_points_of
    for phi in projective_points_of(plane):
        for y in line(fs, phi).annihilator().basis:
            yield tensor(fs, phi, y)


def hurdle_tensor_space(fs: FieldSpec, plane) -> MatSubspace:
    """Span of all tensors phi (x) y with phi in the dual plane and
    phi(y) = 0, from the tensors of every projective point of the plane."""
    n = plane.ambient
    return MatSubspace.from_matrices(fs, (n, n), _plane_tensors(fs, plane))


def certifies_hurdle(fs: FieldSpec, s, plane) -> bool:
    """Every tensor phi (x) y with phi a projective point of the dual plane
    and y in a basis of ker phi is a member of S."""
    return all(s.member(t) for t in _plane_tensors(fs, plane))


def gaussian_binomial(m: int, d: int, q: int) -> int:
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (d - i) - 1
    return num // den


def enumerate_grassmannian(field: FieldSpec, d: int, ambient: int,
                           budget: int = DEFAULT_BUDGET) -> Iterator[VecSubspace]:
    """All d-dimensional subspaces of F^ambient, each exactly once, as RREF
    bases: pivot-column sets in lexicographic order, free entries counting
    in base q (last free entry fastest).  Raises BudgetExceeded at the first
    step when there are more than `budget` subspaces."""
    total = gaussian_binomial(ambient, d, field.q)
    if total > budget:
        raise BudgetExceeded(total, budget)
    for pivots in combinations(range(ambient), d):
        free = [(r, c) for r in range(d) for c in range(pivots[r] + 1, ambient)
                if c not in pivots]
        head = [[int(c == p) for c in range(ambient)] for p in pivots]
        for values in product(range(field.q), repeat=len(free)):
            rows = [row[:] for row in head]
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            yield VecSubspace._trusted(field, ambient, rows, pivots)


def detect_hurdle(fs: FieldSpec, s, budget: int = 1 << 24):
    """The first dual plane in Grassmannian order whose tensors phi (x) y,
    phi(y) = 0, all lie in S, one membership test at a time (None when no
    plane certifies)."""
    for plane in enumerate_grassmannian(fs, 2, s.shape[0], budget):
        if certifies_hurdle(fs, s, plane):
            return plane
    return None


def first_annihilating_point(fs: FieldSpec, n: int, points):
    """The first projective point theta of F^n with theta . x = 0 for every
    given x, by walking the points in order (None when there is none)."""
    from char2spec.matrix import dot
    from char2spec.subspace import enumerate_projective
    for theta in enumerate_projective(fs, n):
        if not any(dot(fs, theta, x) for x in points):
            return theta
    return None


def detect_hurdle_blocks(fs: FieldSpec, s, budget: int = 1 << 24):
    """The first dual plane in Grassmannian order on which every u in a
    basis of S-perp acts as one scalar (phi u = c phi for both RREF rows, c
    read at the pivot of row 0), filtering the planes of each pivot pair as
    one code array by one u after the other (None when no plane
    certifies).  Fast enough for n = 5 over GF(4)."""
    from itertools import groupby
    import numpy as np
    from char2spec import _bulk
    from char2spec.gf import code_dtype
    from char2spec.structure import basis_codes
    from char2spec.subspace import trace_orthogonal
    n = s.shape[0]
    u = basis_codes(trace_orthogonal(s))
    planes = enumerate_grassmannian(fs, 2, n, budget)
    for pivots, group in groupby(planes, key=lambda w: w.pivots):
        block = np.array([w.basis for w in group], dtype=code_dtype(fs.degree))
        for ui in u:
            img = np.zeros_like(block)
            for i in range(n):          # (phi u)_j = sum_i phi_i u_ij
                img ^= _bulk._mul(fs, block[:, :, i, None], ui[i])
            c = img[:, 0, pivots[0], None, None]
            block = block[~np.any(img ^ _bulk._mul(fs, c, block), axis=(1, 2))]
        if len(block):
            return VecSubspace._trusted(fs, n, block[0].tolist(), pivots)
    return None


def transitive_rank(fs: FieldSpec, t) -> int:
    """max over projective x of dim(T x), one point at a time through
    `image_dim`, stopping at the first point of rank n."""
    from char2spec.structure import image_dim
    from char2spec.subspace import enumerate_projective
    n, m = t.shape
    basis = t.basis_matrices()
    best = 0
    for x in enumerate_projective(fs, m):
        best = max(best, image_dim(fs, basis, x))
        if best == n:
            break
    return best


def find_intransitivity_veil(fs: FieldSpec, t,
                             budget: int = DEFAULT_BUDGET) -> VecSubspace | None:
    """Greatest-dimension proper nonzero subspace W of the target with
    pi T intransitive; None when no nonzero W works (so an intransitive T
    is primitively intransitive exactly when this returns None)."""
    from char2spec.structure import quotient_space
    n, _ = t.shape
    for d in range(n - 1, 0, -1):
        for w in enumerate_grassmannian(fs, d, n, budget):
            quotient = quotient_space(fs, t, w)
            if transitive_rank(fs, quotient) < quotient.shape[0]:
                return w
    return None


def range_space(fs: FieldSpec, x):
    """All operators with range inside the line F*x (dimension n)."""
    from char2spec.structure import tensor_span
    from char2spec.subspace import full_space
    return tensor_span(fs, full_space(fs, len(x)).basis, [x])


def transrank_sides(fs: FieldSpec, s):
    """The projective points x of F^n with dim(S-perp x) and n - dim(S n
    (V* (x) x)) at each, one point at a time: `image_dim` over a basis of
    S-perp, and a Zassenhaus intersection with `range_space(x)`."""
    from char2spec.structure import image_dim
    from char2spec.subspace import enumerate_projective, trace_orthogonal
    n = s.shape[0]
    perp_basis = trace_orthogonal(s).basis_matrices()
    points = list(enumerate_projective(fs, n))
    lhs = [image_dim(fs, perp_basis, x) for x in points]
    rhs = [n - s.intersect(range_space(fs, x)).dim for x in points]
    return points, lhs, rhs


def vanishing_solutions(fs: FieldSpec, family, monos):
    """The forms over the given monomials that vanish at every point of
    F^n outside the union of the family: the annihilator of their values
    at all those points, by `member` and `eval_monomial_map`."""
    from char2spec.structure import eval_monomial_map
    n = family[0].ambient
    union_free = [x for x in (c[::-1] for c in product(range(fs.q), repeat=n))
                  if not any(v.member(x) for v in family)]
    rows = [[eval_monomial_map(fs, {mono: 1}, x) for mono in monos] for x in union_free]
    return VecSubspace(fs, len(monos), rows).annihilator()


def operator_spaces(fs: FieldSpec, rng, shapes, count: int):
    """For each (n, m) in shapes: the zero and the full subspace of
    Mat_{n,m}, then `count` random ones of random dimension 0 .. n m."""
    from char2spec.subspace import full_space, random_subspace
    for n, m in shapes:
        yield MatSubspace((n, m), VecSubspace(fs, n * m, []))
        yield MatSubspace((n, m), full_space(fs, n * m))
        for _ in range(count):
            yield MatSubspace((n, m), random_subspace(fs, rng, n * m, rng.randrange(0, n * m + 1)))


def quotient_projection(fs: FieldSpec, w) -> Mat:
    """The projection V -> V/W in the chart of the non-pivot columns of W:
    column i is the unit vector e_i reduced modulo the RREF rows of W (each
    pivot entry cleared by its row), read at the non-pivot columns."""
    m = w.ambient
    free = [j for j in range(m) if j not in w.pivots]
    cols = []
    for i in range(m):
        v = [int(j == i) for j in range(m)]
        for row, p in zip(w.basis, w.pivots):
            c = v[p]
            v = [x ^ fs.mul(c, y) for x, y in zip(v, row)]
        cols.append([v[j] for j in free])
    return Mat(len(free), m, [cols[i][r] for r in range(len(free)) for i in range(m)])


def quotient_block(fs: FieldSpec, w, u: Mat) -> Mat:
    """The matrix of u on V/W (W invariant under u) in the chart of
    :func:`quotient_projection`: column b is the projection of u applied
    to the b-th non-pivot unit vector of W."""
    from char2spec.matrix import mat_vec
    pi = quotient_projection(fs, w)
    free = [j for j in range(w.ambient) if j not in w.pivots]
    cols = [mat_vec(fs, pi, u.col(f)) for f in free]
    return Mat(len(free), len(free), [cols[j][i] for i in range(len(free)) for j in range(len(free))])


def lastblock_check(fs: FieldSpec, a: Mat):
    """For a rank-1 trace-0 3x3 matrix whose sums with every sl_2-plus-zero
    block have at most two eigenvalues in F, the last row or the last
    column must vanish."""
    from char2spec.constructions import sl
    from char2spec.matrix import mat_add, rank, trace
    from char2spec.spectra import profile
    from char2spec.structure import LemmaVerdict
    name = "lastblock"
    if (a.rows, a.cols) != (3, 3):
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs a 3x3 matrix"})
    if rank(fs, a) != 1 or trace(a) != 0:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs rank 1 and trace 0"})
    for nmat in sl(fs, 2).enumerate_elements():
        summed = mat_add(a, Mat(3, 3, nmat.row(0) + (0,) + nmat.row(1) + (0, 0, 0, 0)))
        if profile(fs, summed).distinct_in_f > 2:
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": "a perturbed sum exceeds two eigenvalues",
                                 "witness": summed.to_json()})
    if not any(a.col(2)) or not any(a.row(2)):
        return LemmaVerdict(name, "holds", {})
    return LemmaVerdict(name, "fails", {"matrix": a.to_json()})
