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


def is_nilpotent(fs: FieldSpec, m: Mat) -> bool:
    """M^n = 0, i.e. every eigenvalue in the closure is 0."""
    from char2spec.matrix import mat_mul
    p = m
    for _ in range(m.rows - 1):
        p = mat_mul(fs, p, m)
    return not any(p.entries)
