"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the code paths they check: factorization is
plain trial division, root counting is direct evaluation, and the
characteristic polynomial is a cofactor expansion of t*I + M over the
polynomial ring.
"""

from __future__ import annotations

from char2spec.gf import FieldSpec
from char2spec.matrix import Mat
from char2spec import upoly as up


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


def roots_by_evaluation(fs: FieldSpec, f) -> list[int]:
    return [a for a in fs.elements() if up.poly_eval(fs, f, a) == 0]


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
    from char2spec.matrix import identity, mat_add, mat_mul, mat_scale, zero
    n = m.rows
    acc = zero(n, n)
    for c in reversed(f):
        acc = mat_add(mat_mul(fs, acc, m), mat_scale(fs, c, identity(n)))
    return acc


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
    return (up.count_roots_in_field(fs, f), up.count_nonzero_roots_in_field(fs, f),
            up.count_roots_in_closure(fs, f), up.count_nonzero_roots_in_closure(fs, f))


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
    from char2spec.subspace import MatSubspace, VecSubspace
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
    from itertools import product
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


def certifies_hurdle(fs: FieldSpec, s, plane) -> bool:
    """Every tensor phi (x) y with phi a projective point of the dual plane
    and y in a basis of ker phi is a member of S."""
    from char2spec.matrix import tensor
    from char2spec.subspace import line, projective_points_of
    return all(s.member(tensor(fs, phi, y)) for phi in projective_points_of(plane)
               for y in line(fs, phi).annihilator().basis)


def detect_hurdle(fs: FieldSpec, s, budget: int = 1 << 24):
    """The first dual plane in Grassmannian order whose tensors phi (x) y,
    phi(y) = 0, all lie in S, one membership test at a time (None when no
    plane certifies)."""
    from char2spec.subspace import enumerate_grassmannian
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
    from char2spec.subspace import VecSubspace, enumerate_grassmannian, trace_orthogonal
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
    from itertools import product
    from char2spec.structure import eval_monomial_map
    from char2spec.subspace import VecSubspace
    n = family[0].ambient
    union_free = [x for x in (c[::-1] for c in product(range(fs.q), repeat=n))
                  if not any(v.member(x) for v in family)]
    rows = [[eval_monomial_map(fs, {mono: 1}, x) for mono in monos] for x in union_free]
    return VecSubspace(fs, len(monos), rows).annihilator()


def operator_spaces(fs: FieldSpec, rng, shapes, count: int):
    """For each (n, m) in shapes: the zero and the full subspace of
    Mat_{n,m}, then `count` random ones of random dimension 0 .. n m."""
    from char2spec.subspace import MatSubspace, VecSubspace, full_space, random_subspace
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
