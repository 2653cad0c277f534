"""Seeded multi-instance harnesses for the lemma checkers.

Each seeded harness draws a reproducible family of instances through one
trial loop (:func:`_trials`), validates every hypothesis before testing
the conclusion, and returns a :class:`~char2spec.structure.LemmaVerdict`
whose detail carries instance counts.  The generators are built to
satisfy the hypotheses, so a violation is reported with its trial, never
skipped.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement, product
from math import comb

import numpy as np

from .gf import FieldSpec
from .matrix import (Mat, char_poly, identity, inverse, mat_add, mat_vec, place,
                     random_invertible, rref_rows, trace, transpose)
from .subspace import (DEFAULT_BUDGET, BudgetExceeded, MatSubspace, VecSubspace, full_space,
                       projective_blocks, random_subspace, trace_orthogonal)
from .spectra import SpecPredicate, check_space
from .structure import (LemmaVerdict, basis_codes, certifies_hurdle,
                        choice_solve, confinement_first_check, confinement_second_check,
                        confinement_third_check, covering_check,
                        covering_hypotheses, detect_hurdle,
                        diagonal_zero_witness, lastblock_audit, operator_images,
                        quotient_space, second_confinement_generators,
                        sl_rank1_span, splitting_check, tensor_span,
                        third_confinement_template, union_mask, vanishing_check)
from . import constructions as cons
from . import _bulk


def _random_mat_subspace(fs: FieldSpec, rng, rows: int, cols: int,
                         dim: int) -> MatSubspace:
    return MatSubspace((rows, cols), random_subspace(fs, rng, rows * cols, dim))


def _trials(name: str, trials: int, seed: int, instance, **totals: int) -> LemmaVerdict:
    """The trial loop of every seeded harness: instance(rng, t) returns the
    verdict on trial t.  The first that does not hold comes back tagged
    "trial": t, which tells a failed instance from a refused setup (the CLI
    reads it); else each total sums its key over the trials' verdicts."""
    rng = random.Random(seed)
    for t in range(trials):
        verdict = instance(rng, t)
        if not verdict.holds:
            verdict.detail["trial"] = t
            return verdict
        for key in totals:
            totals[key] += verdict.detail[key]
    return LemmaVerdict(name, "holds", {"instances": trials, **totals, "seed": seed})


# ----------------------------------------------------------------------
# trace orthogonality
# ----------------------------------------------------------------------
def _hom_into(fs: FieldSpec, udim: int, v0: VecSubspace) -> MatSubspace:
    """Hom(U, V0) inside Hom(U, V): matrices whose columns lie in V0."""
    vdim = v0.ambient
    return MatSubspace.from_matrices(fs, (vdim, udim), [
        place(vdim, udim, 0, j, Mat(vdim, 1, w)) for j in range(udim) for w in v0.basis])


def _restriction_dim(fs: FieldSpec, space: MatSubspace, v0: VecSubspace) -> int:
    """dim of { v restricted to V0 : v in space } for space <= Hom(V, U)."""
    cols = [list(w) for w in v0.basis]
    rows = []
    for b in space.basis_matrices():
        flat = []
        for w in cols:
            flat.extend(mat_vec(fs, b, w))
        rows.append(flat)
    if not rows:
        return 0
    return len(rref_rows(fs, rows)[1])


def trace_ortho1_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """dim(S n Hom(U,V0)) + dim(S-perp restricted to V0) = dim U * dim V0,
    both sides computed independently on random (S, V0)."""
    def instance(rng, t):
        udim = rng.randrange(1, 5)
        vdim = rng.randrange(1, 5)
        s = _random_mat_subspace(fs, rng, vdim, udim, rng.randrange(0, udim * vdim + 1))
        v0 = random_subspace(fs, rng, vdim, rng.randrange(0, vdim + 1))
        lhs = s.intersect(_hom_into(fs, udim, v0)).dim
        rhs = _restriction_dim(fs, trace_orthogonal(s), v0)
        expected = udim * v0.dim
        return LemmaVerdict("trace-ortho-1", "holds" if lhs + rhs == expected else "fails",
                            {"lhs": lhs, "rhs": rhs, "expected": expected})
    return _trials("trace-ortho-1", trials, seed, instance)


def trace_ortho2_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """dim{u in S : u kills U0} + dim(pi S-perp) = dim V * (dim U - dim U0)
    with an explicit quotient chart for pi; the left side comes from S (the
    kernel of restricting to U0), the right side from S-perp."""
    def instance(rng, t):
        udim = rng.randrange(1, 5)
        vdim = rng.randrange(1, 5)
        s = _random_mat_subspace(fs, rng, vdim, udim, rng.randrange(0, udim * vdim + 1))
        u0 = random_subspace(fs, rng, udim, rng.randrange(0, udim + 1))
        lhs = s.dim - _restriction_dim(fs, s, u0)
        rhs = quotient_space(fs, trace_orthogonal(s), u0).dim
        expected = vdim * (udim - u0.dim)
        return LemmaVerdict("trace-ortho-2", "holds" if lhs + rhs == expected else "fails",
                            {"lhs": lhs, "rhs": rhs, "expected": expected})
    return _trials("trace-ortho-2", trials, seed, instance)


def transrank_sides(fs: FieldSpec, s: MatSubspace):
    """Both sides of the transrank identity at the projective points x of
    F^n, a block at a time in enumeration order
    (:func:`subspace.projective_blocks`): yields (x, lhs, rhs) with lhs =
    dim(S-perp x), the rank of the images of x under a basis of S-perp,
    and rhs = n - dim(S n (V* (x) x)).  The right side never reads
    S-perp: V* (x) x is spanned by the n tensors x e_j^T, so by the
    Grassmann formula it is n - (dim S + n - rank[S; x e_1^T ... x e_n^T]).
    One batch rank for each side and block."""
    n = s.shape[0]
    perp = basis_codes(trace_orthogonal(s))
    sbasis = basis_codes(s).reshape(s.dim, n * n)
    for x in projective_blocks(fs, n):
        lhs = _bulk.batch_rank(fs, operator_images(fs, perp, x))
        # tensor j holds x in column j of an n x n matrix
        tensors = np.zeros((len(x), n, n, n), dtype=x.dtype)
        for j in range(n):
            tensors[:, j, :, j] = x
        stacked = np.concatenate([np.broadcast_to(sbasis, (len(x), *sbasis.shape)),
                                  tensors.reshape(len(x), n, n * n)], axis=1)
        yield x, lhs, _bulk.batch_rank(fs, stacked) - s.dim


def transrank_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """dim(S-perp x) = n - dim(S n (V* (x) x)) for every projective x
    (:func:`transrank_sides`); a failure names the first point where the
    sides differ."""
    def instance(rng, t):
        n = rng.randrange(2, 5)
        s = _random_mat_subspace(fs, rng, n, n, rng.randrange(0, n * n + 1))
        checked = 0
        for x, lhs, rhs in transrank_sides(fs, s):
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:
                i = bad[0]
                return LemmaVerdict("transrank", "fails", {"point": x[i].tolist(),
                                                           "lhs": int(lhs[i]), "rhs": int(rhs[i])})
            checked += len(x)
        return LemmaVerdict("transrank", "holds", {"points_checked": checked})
    return _trials("transrank", trials, seed, instance, points_checked=0)


# ----------------------------------------------------------------------
# covering and vanishing
# ----------------------------------------------------------------------
def covering_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """Random families matching the covering shape with r = |F| - 1 never
    cover the space."""
    r = fs.q - 1

    def instance(rng, t):
        n = rng.randrange(2, 5)
        family = []
        for k in range(1, n - 1):
            family += [random_subspace(fs, rng, n, k) for _ in range(r)]
        family += [random_subspace(fs, rng, n, n - 1) for _ in range(r + 1)]
        bad = covering_hypotheses(fs, family, r)
        if bad is not None:
            return LemmaVerdict("covering", "hypothesis-violation", {"reason": bad})
        return LemmaVerdict("covering", "holds" if covering_check(fs, family).holds else "fails",
                            {"n": n})
    return _trials("covering", trials, seed, instance)


def _monomials(n: int, d: int) -> list[tuple[int, ...]]:
    out = []
    for combo in combinations_with_replacement(range(n), d):
        e = [0] * n
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return out


def monomial_values(fs: FieldSpec, x: np.ndarray, monos) -> np.ndarray:
    """The value of every monomial (exponent tuple) at every point of x
    [N, n], as codes [N, len(monos)]: exp of the exponent-weighted sum of
    the logs, and 0 where a coordinate with a positive exponent is 0."""
    e = np.array(monos, dtype=np.int64).reshape(len(monos), x.shape[1])
    logs = np.where(x == 0, 0, fs.log_table[x]).astype(np.int64)
    values = fs.exp_table[(logs @ e.T) % (fs.q - 1)]
    values[((x == 0)[:, None, :] & (e > 0)).any(axis=2)] = 0
    return values


def vanishing_solutions(fs: FieldSpec, family: list[VecSubspace], monos,
                        x: np.ndarray) -> VecSubspace:
    """The coefficient vectors, over the given monomials of one degree d, of
    the forms that vanish at every point of F^n outside the union of the
    family: the annihilator of their values there.  x holds the projective
    points of F^n as codes [N, n] (:func:`subspace.projective_blocks`): the
    union is closed under scaling and each row scales by c^d from x to c x,
    so the projective points outside the union give the same row space.
    Union membership: :func:`structure.union_mask`."""
    rows = monomial_values(fs, x[~union_mask(fs, family, x)], monos).tolist()
    return VecSubspace(fs, len(monos), rows).annihilator()


def vanishing_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """Random admissible families; every homogeneous p forced to vanish off
    the union must vanish identically."""
    points = {}     # n -> the projective points of F^n

    def instance(rng, t):
        n = 2 + rng.randrange(2)
        # the lemma needs d <= |F|; for n = 2 every member is a hyperplane,
        # at most |F| - d of them, and the family cannot be empty
        d = rng.randrange(1, min(3, fs.q - 1 if n == 2 else fs.q) + 1)
        c_small = [rng.randrange(0, fs.q) for _ in range(1, n - 1)]
        c_hyp = rng.randrange(0, fs.q - d + 1)
        family = []
        for k, ck in zip(range(1, n - 1), c_small):
            family += [random_subspace(fs, rng, n, k) for _ in range(ck)]
        family += [random_subspace(fs, rng, n, n - 1) for _ in range(c_hyp)]
        if not family:
            family = [random_subspace(fs, rng, n, 1)]
        monos = _monomials(n, d)
        # every p satisfying hypothesis (iii) lives in this solution space;
        # the lemma says each of them is the zero function
        if n not in points:
            points[n] = np.concatenate(list(projective_blocks(fs, n)))
        solutions = vanishing_solutions(fs, family, monos, points[n])
        for coeffs in solutions.basis:
            verdict = vanishing_check(fs, {mono: c for mono, c in zip(monos, coeffs) if c},
                                      d, family)
            if not verdict.holds:
                return verdict
        # every candidate was checked, so the two totals agree
        return LemmaVerdict("vanishing", "holds", {"polys_checked": solutions.dim,
                                                   "candidate_dims": solutions.dim})
    return _trials("vanishing", trials, seed, instance, polys_checked=0, candidate_dims=0)


# ----------------------------------------------------------------------
# confinement and splitting
# ----------------------------------------------------------------------
# the enumeration budget and sample count of the splitting and
# hurdle-dimension scans
_BUDGET = 1 << 16
_SAMPLES = 2 * 10 ** 4


def confinement_first_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                              workers: int = 1) -> LemmaVerdict:
    """Conjugated instances of phi (x) V (optionally extended by the scalar
    line), which are 2-spec by construction; the checker re-validates."""
    def instance(rng, t):
        n = rng.randrange(3, 5)
        phi = tuple(rng.randrange(fs.q) for _ in range(n))
        if not any(phi):
            phi = identity(n).row(0)
        s = tensor_span(fs, [phi], full_space(fs, n).basis)
        if rng.randrange(2):
            s = s.sum_with(MatSubspace.from_matrices(fs, (n, n), [identity(n)]))
        p = random_invertible(fs, rng, n)
        s = cons.conjugate_space(fs, s, p)
        # phi transforms contravariantly: phi' = phi o P^{-1}
        phi_c = mat_vec(fs, transpose(inverse(fs, p)), phi)
        return confinement_first_check(fs, s, phi_c, workers=workers)
    return _trials("confinement-first", trials, seed, instance)


def confinement_second_harness(fs: FieldSpec, trials: int = 50, seed: int = 0,
                               workers: int = 1) -> LemmaVerdict:
    """Instances around the minimal generator space (optionally extended by
    the scalar line), over random bases."""
    def instance(rng, t):
        n = rng.randrange(3, 5)
        p = random_invertible(fs, rng, n)
        basis_rows = [p.row(i) for i in range(n)]
        # G is not inside H: row 0 of p lies outside the span of the others
        h = VecSubspace(fs, n, basis_rows[1:])
        g = VecSubspace(fs, n, basis_rows[:n - 2])
        s = second_confinement_generators(fs, h, g)
        if rng.randrange(2):
            s = s.sum_with(MatSubspace.from_matrices(fs, (n, n), [identity(n)]))
        return confinement_second_check(fs, s, h, g, workers=workers)
    return _trials("confinement-second", trials, seed, instance)


def _extend(fs: FieldSpec, rng, s: MatSubspace, roof: MatSubspace) -> MatSubspace:
    """s plus 0 to 2 random elements of roof."""
    for _ in range(rng.randrange(0, 3)):
        v = roof.space.combine([rng.randrange(fs.q) for _ in range(roof.dim)])
        s = s.sum_with(MatSubspace(s.shape, VecSubspace(fs, len(v), [v])))
    return s


def splitting_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                      workers: int = 1) -> LemmaVerdict:
    """Random 2-spec hurdles between the template and the full twofold sl_2
    joint (n = 4); all four splitting conclusions must hold."""
    big = cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2))
    template = cons.hurdle_template(fs, 4)
    cert = detect_hurdle(fs, template)

    def instance(rng, t):
        return splitting_check(fs, _extend(fs, rng, template, big), cert, mode="2spec",
                               budget=_BUDGET, samples=_SAMPLES, seed=seed + t,
                               workers=workers)
    return _trials("splitting", trials, seed, instance)


def hurdle_roof(fs: FieldSpec, n: int, star: bool, twofold: bool):
    """(roof, dimension bound, predicate) of a generated hurdle of size n;
    the twofold roof sl_2 v sl_2 serves the 2-spec case at n = 4."""
    if star:
        return (cons.joint(fs, cons.nt(fs, n - 2), cons.sl(fs, 2)), comb(n, 2) + 2,
                SpecPredicate("in_field", True, 1))
    roof = (cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2)) if twofold
            else cons.line_plus(fs, cons.joint(fs, cons.nt(fs, n - 2), cons.sl(fs, 2))))
    return roof, comb(n, 2) + 3 + (1 if n == 4 else 0), SpecPredicate("in_field", False, 2)


def hurdle_dimension_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                             workers: int = 1) -> LemmaVerdict:
    """Generated hurdles: 1*-spec instances must have dim <= C(n,2)+2 and
    2-spec instances dim <= C(n,2)+3 (+4 when n = 4).  Certificates are
    verified directly; predicates are re-checked by enumeration/sampling.

    It cannot fail: each instance lies in a conjugate of its roof, whose
    dimension is at most its bound (`hurdle_roof`, checked by the tests),
    so "fails" is unreachable, and "holds" shows that the generator works,
    not that the lemma holds."""
    def instance(rng, t):
        n = rng.randrange(3, 6)
        star = rng.randrange(2) == 0
        template = cons.hurdle_template(fs, n)
        roof, bound, pred = hurdle_roof(fs, n, star,
                                        not star and n == 4 and rng.randrange(2) == 1)
        s = _extend(fs, rng, template, roof)
        p = random_invertible(fs, rng, n)
        s = cons.conjugate_space(fs, s, p)
        pinv_t = transpose(inverse(fs, p))
        plane = VecSubspace(fs, n, [mat_vec(fs, pinv_t, identity(n).row(i))
                                    for i in (n - 2, n - 1)])
        if not certifies_hurdle(fs, s, plane):
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"reason": "conjugated certificate failed"})
        pv = check_space(fs, s, pred, budget=_BUDGET, samples=_SAMPLES,
                         seed=seed + t, workers=workers)
        if not pv.holds:
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"reason": f"instance is not {pred.name}"})
        return LemmaVerdict("hurdle-dimension", "holds" if s.dim <= bound else "fails",
                            {"dim": s.dim, "bound": bound, "n": n})
    return _trials("hurdle-dimension", trials, seed, instance)


def diagonal_zero_harness(fs: FieldSpec) -> LemmaVerdict:
    """A witness with >= 3 distinct eigenvalues must exist inside the
    zero-diagonal space for n = 3, 4, 5 when |F| > 2."""
    if fs.q <= 2:
        return LemmaVerdict("diagonal-zero", "hypothesis-violation", {"reason": "needs |F| > 2"})
    found = {}
    for n in (3, 4, 5):
        w = diagonal_zero_witness(fs, n)
        if w is None:
            return LemmaVerdict("diagonal-zero", "fails", {"n": n})
        if any(w[i, i] != 0 for i in range(n)):
            return LemmaVerdict("diagonal-zero", "fails",
                                {"n": n, "reason": "witness has nonzero diagonal"})
        found[str(n)] = w.to_json()
    return LemmaVerdict("diagonal-zero", "holds", {"witnesses": found})


def sl_rank1_harness(fs: FieldSpec) -> LemmaVerdict:
    """sl_n is spanned by its rank-one tensors, n = 2 .. 4: a "budget"
    verdict past DEFAULT_BUDGET tensors in all (GF(16) and up)."""
    n_max = 4
    q = fs.q    # (q^n - 1)(q^(n-1) - 1)/(q - 1) tensors for each n
    total = sum((q ** n - 1) * (q ** (n - 1) - 1) // (q - 1) for n in range(2, n_max + 1))
    if total > DEFAULT_BUDGET:
        return LemmaVerdict("sl-rank1-span", "budget",
                            {"reason": str(BudgetExceeded(total, DEFAULT_BUDGET))})
    for n in range(2, n_max + 1):
        if sl_rank1_span(fs, n) != cons.sl(fs, n):
            return LemmaVerdict("sl-rank1-span", "fails", {"n": n})
    return LemmaVerdict("sl-rank1-span", "holds", {"n_max": n_max})


def confinement_third_harness(fs: FieldSpec, seed: int = 0,
                              workers: int = 1) -> LemmaVerdict:
    return confinement_third_check(fs, third_confinement_template(fs, 5),
                                   budget=1 << 20, seed=seed, workers=workers)


# ----------------------------------------------------------------------
# choice lemma audit
# ----------------------------------------------------------------------
# matrices the audit re-runs through the scalar choice_solve
_SPOT_CHECKS = 64
# bound on the (matrix, block) pairs of one audit batch, and so on its table
# of reached (c0, c1): the full GF(4) audit, 36864 x 16 pairs, is one batch
_AUDIT_PAIRS = 1 << 20


def _hessenberg_matrices(q: int, stride: int, lo: int, hi: int) -> np.ndarray:
    """The regular upper Hessenberg 3 x 3 matrices [hi - lo, 3, 3] numbered
    i * stride, i = lo .. hi - 1: base-q digits of the six upper cells by
    rows, then base-(q - 1) digits, plus one, of the two subdiagonal cells.
    The numbers are uint64: there are fewer than 2^64 matrices for k <= 8."""
    rest = np.arange(lo, hi, dtype=np.uint64) * np.uint64(stride)
    mats = np.zeros((hi - lo, 3, 3), dtype=np.uint8)
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2), (1, 0), (2, 1)]:
        base = np.uint64(q - (i > j))
        mats[:, i, j] = rest % base + np.uint64(i > j)
        rest //= base
    return mats


def choice_lemma_audit(fs: FieldSpec, n: int = 3, cap: int | None = None,
                       seed: int = 0, budget: int = DEFAULT_BUDGET) -> LemmaVerdict:
    """Total audit: for every regular Hessenberg matrix M of the given size
    (canonically sampled down to `cap` when the full count exceeds it) and
    every monic target with M's trace, a top-right block R achieves the
    target, for the split p = 1 and for p = n-1.

    R misses the diagonal, so the lemma holds for (M, p) iff the low
    coefficients (c0, c1) of chi(M + R) take all q^2 values over the q^2
    blocks R.  Every block goes through the batch characteristic
    polynomial, and `solved` sums the distinct (c0, c1); a seeded
    subsample is re-run through the scalar `choice_solve`.
    `affine_fallbacks` is always 0: it stays because criterion 7 and the
    pinned reports fix the report byte for byte.  It serves k <= 8 only,
    and raises BudgetExceeded past `budget` matrices."""
    if n != 3:
        raise ValueError(f"the choice audit is specialized to n = 3, got n = {n}")
    if fs.degree > 8:
        raise ValueError(f"the choice audit tries q^2 targets per matrix and serves "
                         f"GF(2^k) for k <= 8 only, got k = {fs.degree}")
    if cap is not None and cap < 1:
        raise ValueError(f"the choice audit cap must be a positive integer, got cap = {cap}")
    q, k = fs.q, fs.degree
    total = q ** 6 * (q - 1) ** 2
    capped = cap is not None and total > cap
    count = cap if capped else total
    if count > budget:
        raise BudgetExceeded(count, budget)
    # canonical sampling: spread deterministically over the full range
    stride = total // count
    # the k planes of each constant c, the same in every lane
    constants = np.where(np.arange(q)[:, None] >> np.arange(k) & 1,
                         _bulk._ALL_ONES, np.uint64(0))[..., None]
    # the two cells of the top-right block of p = 1 and of p = n - 1
    blocks = [[(0, j) for j in range(1, n)], [(i, n - 1) for i in range(n - 1)]]
    step = max(1, _AUDIT_PAIRS // (q * q))
    solved = 0
    for lo in range(0, count, step):
        size = min(step, count - lo)
        mats = _hessenberg_matrices(q, stride, lo, lo + size)
        planes = _bulk.code_planes(mats.reshape(size, n * n), k).reshape(n, n, k, -1)
        # lane l's row of the table, one slot per (c0, c1)
        rows = np.arange(size) * (q * q)
        for (i1, j1), (i2, j2) in blocks:
            reached = np.zeros(size * q * q, dtype=bool)
            for r1, r2 in product(range(q), repeat=2):
                cand = planes.copy()
                cand[i1, j1] ^= constants[r1]
                cand[i2, j2] ^= constants[r2]
                # c0 and c1 read as one code c0 + q c1 per lane
                low = _bulk.charpoly_planes(fs, cand)[:2].reshape(1, 2 * k, -1)
                reached[rows + _bulk.lane_codes(low, size)[:, 0]] = True
            solved += int(np.count_nonzero(reached))
    failures = 2 * count * q * q - solved

    rng = random.Random(seed)
    for _ in range(_SPOT_CHECKS):
        bi = rng.randrange(count)
        m = Mat(n, n, _hessenberg_matrices(q, stride, bi, bi + 1).reshape(-1).tolist())
        r = (rng.randrange(q), rng.randrange(q), trace(m), 1)
        for p in (1, n - 1):
            rmat = choice_solve(fs, m, r, p)
            if rmat is None:
                return LemmaVerdict("choice-audit", "fails",
                                    {"matrix": m.to_json(), "target": list(r), "p": p})
            if char_poly(fs, mat_add(m, place(n, n, 0, p, rmat))) != r:
                return LemmaVerdict("choice-audit", "fails",
                                    {"reason": "returned block failed re-verification",
                                     "matrix": m.to_json(), "p": p})
    outcome = "holds" if failures == 0 else "fails"
    return LemmaVerdict("choice-audit", outcome,
                        {"hessenberg_matrices": count, "capped": capped,
                         "targets_per_matrix": q * q, "splits": [1, n - 1],
                         "solved": solved, "affine_fallbacks": 0,
                         "failures": failures, "spot_checks": _SPOT_CHECKS})


# ----------------------------------------------------------------------
# registry for the CLI
# ----------------------------------------------------------------------
# name -> (harness, the run options it reads), in the order the CLI lists them
_LEMMAS = {
    "covering": (covering_harness, ("trials", "seed")),
    "vanishing": (vanishing_harness, ("trials", "seed")),
    "trace-ortho-1": (trace_ortho1_harness, ("trials", "seed")),
    "trace-ortho-2": (trace_ortho2_harness, ("trials", "seed")),
    "transrank": (transrank_harness, ("trials", "seed")),
    "splitting": (splitting_harness, ("trials", "seed", "workers")),
    "confinement-first": (confinement_first_harness, ("trials", "seed", "workers")),
    "confinement-second": (confinement_second_harness, ("trials", "seed", "workers")),
    "confinement-third": (confinement_third_harness, ("seed", "workers")),
    "lastblock": (lastblock_audit, ()),
    "sl-rank1-span": (sl_rank1_harness, ()),
    "diagonal-zero": (diagonal_zero_harness, ()),
    "hurdle-dimension": (hurdle_dimension_harness, ("trials", "seed", "workers")),
    "choice-audit": (choice_lemma_audit, ("seed", "budget")),
}

LEMMA_NAMES = list(_LEMMAS)


def run_lemma(fs: FieldSpec, name: str, trials: int = 200, seed: int = 0,
              workers: int = 1, budget: int = DEFAULT_BUDGET) -> LemmaVerdict:
    """Run one harness by name, passing it by keyword only the run options
    it reads (`_LEMMAS`): `budget` reaches the choice audit alone, and the
    other harnesses fix their own.  Raises BudgetExceeded past a budget."""
    if name not in _LEMMAS:
        raise ValueError(f"unknown lemma harness {name!r}")
    harness, reads = _LEMMAS[name]
    options = {"trials": trials, "seed": seed, "workers": workers, "budget": budget}
    return harness(fs, **{key: options[key] for key in reads})
