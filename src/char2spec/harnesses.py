"""Seeded multi-instance harnesses for the lemma checkers.

Each harness draws a reproducible family of instances from a seed,
validates every hypothesis before testing the conclusion, and returns a
:class:`~char2spec.structure.LemmaVerdict` whose detail carries instance
counts.  Failed hypotheses regenerate the instance (the generators are
built to satisfy them; a persistent violation is reported rather than
silently skipped).
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement
from math import comb

import numpy as np

from .gf import FieldSpec
from .matrix import (Mat, char_poly, identity, inverse, mat_add, mat_vec, place,
                     random_invertible, rref_rows, transpose)
from .subspace import (MatSubspace, VecSubspace, full_space, projective_blocks,
                       random_subspace, trace_orthogonal)
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
    rng = random.Random(seed)
    for t in range(trials):
        udim = rng.randrange(1, 5)
        vdim = rng.randrange(1, 5)
        s = _random_mat_subspace(fs, rng, vdim, udim, rng.randrange(0, udim * vdim + 1))
        v0 = random_subspace(fs, rng, vdim, rng.randrange(0, vdim + 1))
        lhs = s.intersect(_hom_into(fs, udim, v0)).dim
        rhs = _restriction_dim(fs, trace_orthogonal(s), v0)
        if lhs + rhs != udim * v0.dim:
            return LemmaVerdict("trace-ortho-1", "fails",
                                {"trial": t, "lhs": lhs, "rhs": rhs,
                                 "expected": udim * v0.dim})
    return LemmaVerdict("trace-ortho-1", "holds", {"instances": trials, "seed": seed})


def trace_ortho2_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """dim{u in S : u kills U0} + dim(pi S-perp) = dim V * (dim U - dim U0)
    with an explicit quotient chart for pi; the left side comes from S (the
    kernel of restricting to U0), the right side from S-perp."""
    rng = random.Random(seed)
    for t in range(trials):
        udim = rng.randrange(1, 5)
        vdim = rng.randrange(1, 5)
        s = _random_mat_subspace(fs, rng, vdim, udim, rng.randrange(0, udim * vdim + 1))
        u0 = random_subspace(fs, rng, udim, rng.randrange(0, udim + 1))
        lhs = s.dim - _restriction_dim(fs, s, u0)
        rhs = quotient_space(fs, trace_orthogonal(s), u0).dim
        if lhs + rhs != vdim * (udim - u0.dim):
            return LemmaVerdict("trace-ortho-2", "fails",
                                {"trial": t, "lhs": lhs, "rhs": rhs,
                                 "expected": vdim * (udim - u0.dim)})
    return LemmaVerdict("trace-ortho-2", "holds", {"instances": trials, "seed": seed})


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
    rng = random.Random(seed)
    checked = 0
    for t in range(trials):
        n = rng.randrange(2, 5)
        s = _random_mat_subspace(fs, rng, n, n, rng.randrange(0, n * n + 1))
        for x, lhs, rhs in transrank_sides(fs, s):
            bad = np.flatnonzero(lhs != rhs)
            if bad.size:
                i = bad[0]
                return LemmaVerdict("transrank", "fails",
                                    {"trial": t, "point": x[i].tolist(),
                                     "lhs": int(lhs[i]), "rhs": int(rhs[i])})
            checked += len(x)
    return LemmaVerdict("transrank", "holds",
                        {"instances": trials, "points_checked": checked, "seed": seed})


# ----------------------------------------------------------------------
# covering and vanishing
# ----------------------------------------------------------------------
def covering_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """Random families matching the covering shape with r = |F| - 1 never
    cover the space."""
    rng = random.Random(seed)
    r = fs.q - 1
    for t in range(trials):
        n = rng.randrange(2, 5)
        family = []
        for k in range(1, n - 1):
            family += [random_subspace(fs, rng, n, k) for _ in range(r)]
        family += [random_subspace(fs, rng, n, n - 1) for _ in range(r + 1)]
        bad = covering_hypotheses(fs, family, r)
        if bad is not None:
            return LemmaVerdict("covering", "hypothesis-violation",
                                {"trial": t, "reason": bad})
        verdict = covering_check(fs, family)
        if not verdict.holds:
            return LemmaVerdict("covering", "fails", {"trial": t, "n": n})
    return LemmaVerdict("covering", "holds", {"instances": trials, "seed": seed})


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
    rng = random.Random(seed)
    polys_checked = 0
    candidate_dims = 0
    points = {}     # n -> the projective points of F^n
    for t in range(trials):
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
        candidate_dims += solutions.dim
        for coeffs in solutions.basis:
            p = {mono: c for mono, c in zip(monos, coeffs) if c}
            verdict = vanishing_check(fs, p, d, family)
            polys_checked += 1
            if verdict.outcome != "holds":
                verdict.detail["trial"] = t
                return verdict
    return LemmaVerdict("vanishing", "holds",
                        {"instances": trials, "polys_checked": polys_checked,
                         "candidate_dims": candidate_dims, "seed": seed})


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
    rng = random.Random(seed)
    for t in range(trials):
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
        verdict = confinement_first_check(fs, s, phi_c, workers=workers)
        if verdict.outcome != "holds":
            verdict.detail["trial"] = t
            return verdict
    return LemmaVerdict("confinement-first", "holds", {"instances": trials, "seed": seed})


def confinement_second_harness(fs: FieldSpec, trials: int = 50, seed: int = 0,
                               workers: int = 1) -> LemmaVerdict:
    """Instances around the minimal generator space (optionally extended by
    the scalar line), over random bases."""
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randrange(3, 5)
        p = random_invertible(fs, rng, n)
        basis_rows = [p.row(i) for i in range(n)]
        h = VecSubspace(fs, n, basis_rows[1:])
        g = VecSubspace(fs, n, basis_rows[:n - 2])
        if h.contains_space(g):
            continue
        s = second_confinement_generators(fs, h, g)
        if rng.randrange(2):
            s = s.sum_with(MatSubspace.from_matrices(fs, (n, n), [identity(n)]))
        verdict = confinement_second_check(fs, s, h, g, workers=workers)
        if verdict.outcome != "holds":
            verdict.detail["trial"] = t
            return verdict
    return LemmaVerdict("confinement-second", "holds", {"instances": trials, "seed": seed})


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
    rng = random.Random(seed)
    big = cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2))
    template = cons.hurdle_template(fs, 4)
    cert = detect_hurdle(fs, template)
    for t in range(trials):
        s = _extend(fs, rng, template, big)
        verdict = splitting_check(fs, s, cert, mode="2spec", budget=_BUDGET,
                                  samples=_SAMPLES, seed=seed + t, workers=workers)
        if verdict.outcome != "holds":
            verdict.detail["trial"] = t
            return verdict
    return LemmaVerdict("splitting", "holds", {"instances": trials, "seed": seed})


def hurdle_dimension_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                             workers: int = 1) -> LemmaVerdict:
    """Generated hurdles: 1*-spec instances must have dim <= C(n,2)+2 and
    2-spec instances dim <= C(n,2)+3 (+4 when n = 4).  Certificates are
    verified directly; predicates are re-checked by enumeration/sampling."""
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randrange(3, 6)
        star = rng.randrange(2) == 0
        template = cons.hurdle_template(fs, n)
        if star:
            roof = cons.joint(fs, cons.nt(fs, n - 2), cons.sl(fs, 2))
            bound = comb(n, 2) + 2
            pred = SpecPredicate("in_field", True, 1)
        else:
            if n == 4 and rng.randrange(2):
                roof = cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2))
                bound = comb(n, 2) + 4
            else:
                roof = cons.line_plus(fs, cons.joint(fs, cons.nt(fs, n - 2), cons.sl(fs, 2)))
                bound = comb(n, 2) + 3 + (1 if n == 4 else 0)
            pred = SpecPredicate("in_field", False, 2)
        s = _extend(fs, rng, template, roof)
        p = random_invertible(fs, rng, n)
        s = cons.conjugate_space(fs, s, p)
        pinv_t = transpose(inverse(fs, p))
        plane = VecSubspace(fs, n, [mat_vec(fs, pinv_t, identity(n).row(i))
                                    for i in (n - 2, n - 1)])
        if not certifies_hurdle(fs, s, plane):
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"trial": t, "reason": "conjugated certificate failed"})
        pv = check_space(fs, s, pred, budget=_BUDGET, samples=_SAMPLES,
                         seed=seed + t, workers=workers)
        if not pv.holds:
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"trial": t, "reason": f"instance is not {pred.name}"})
        if s.dim > bound:
            return LemmaVerdict("hurdle-dimension", "fails",
                                {"trial": t, "dim": s.dim, "bound": bound, "n": n})
    return LemmaVerdict("hurdle-dimension", "holds", {"instances": trials, "seed": seed})


def diagonal_zero_harness(fs: FieldSpec) -> LemmaVerdict:
    """A witness with >= 3 distinct eigenvalues must exist inside the
    zero-diagonal space for n = 3, 4, 5."""
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
    n_max = 4
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


def choice_lemma_audit(fs: FieldSpec, n: int = 3, cap: int | None = None,
                       seed: int = 0) -> LemmaVerdict:
    """Total audit: for every regular Hessenberg matrix of the given size
    (canonically sampled down to `cap` when the full count exceeds it) and
    every monic target with matching trace, a top-right block perturbation
    achieving the target exists for p = 1 and p = n-1.

    Solutions come from the same affine solve as :func:`structure.choice_solve`
    (vectorized), every candidate is re-verified through the batch
    characteristic polynomial, and a deterministic subsample is re-run
    through the scalar `choice_solve` for agreement.  It tries q^2 targets
    for every matrix, so it serves k <= 8 only."""
    if n != 3:
        raise ValueError(f"the choice audit is specialized to n = 3, got n = {n}")
    if fs.degree > 8:
        raise ValueError(f"the choice audit tries q^2 targets per matrix and serves "
                         f"GF(2^k) for k <= 8 only, got k = {fs.degree}")
    if cap is not None and cap < 1:
        raise ValueError(f"the choice audit cap must be a positive integer, got cap = {cap}")
    q = fs.q

    def mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _bulk._mul(fs, a, b)

    upper_cells = [(i, j) for i in range(n) for j in range(i, n)]
    sub_cells = [(i + 1, i) for i in range(n - 1)]
    total = (q ** len(upper_cells)) * ((q - 1) ** len(sub_cells))
    capped = cap is not None and total > cap
    count = cap if capped else total

    idx = np.arange(count, dtype=np.int64)
    if capped:
        # canonical sampling: spread deterministically over the full range
        idx = (idx * (total // count)) % total
    mats = np.zeros((count, n, n), dtype=np.uint8)
    rest = idx.copy()
    for (i, j) in upper_cells:
        mats[:, i, j] = (rest % q).astype(np.uint8)
        rest //= q
    for (i, j) in sub_cells:
        mats[:, i, j] = (rest % (q - 1)).astype(np.uint8) + 1
        rest //= (q - 1)

    # the matrices are packed into planes once; perturbations XOR into copies
    k = fs.degree
    planes = _bulk.code_planes(mats.reshape(count, n * n), k).reshape(n, n, k, -1)
    chi0_planes = _bulk.charpoly_planes(fs, planes)
    chi0 = _bulk.lane_codes(chi0_planes[:2], count)
    traces = np.zeros(count, dtype=np.uint8)
    for i in range(n):
        traces ^= mats[:, i, i]
    trace_planes = _bulk.code_planes(traces[:, None], k)
    # the k planes of each constant c, the same in every lane
    constants = np.where(np.arange(q)[:, None] >> np.arange(k) & 1, _bulk._ALL_ONES, np.uint64(0))

    def lane_planes(*cols: np.ndarray) -> np.ndarray:
        return _bulk.code_planes(np.stack(cols, axis=1), k).reshape(len(cols), k, -1)

    solved = 0
    failures = 0
    fallbacks = 0
    positions = {1: [(0, j) for j in range(1, n)],
                 n - 1: [(i, n - 1) for i in range(n - 1)]}
    deltas = {}
    for p, poss in positions.items():
        cols = []
        for (i, j) in poss:
            pert = planes.copy()
            pert[i, j, 0] ^= _bulk._ALL_ONES     # entry (i, j) plus 1 in every lane
            cols.append(_bulk.lane_codes(_bulk.charpoly_planes(fs, pert)[:2] ^ chi0_planes[:2],
                                         count))
        deltas[p] = cols

    for p, poss in positions.items():
        d1, d2 = deltas[p]
        a, b = d1[:, 0], d1[:, 1]
        c, d = d2[:, 0], d2[:, 1]
        det = mul(a, d) ^ mul(b, c)
        det_inv = fs.inv_table[det]
        singular = det == 0
        # Cramer's rule for the target (a0, a1), with rhs = chi0 + (a0, a1):
        # x1 = (rhs0 d + rhs1 c) / det and x2 = (rhs1 a + rhs0 b) / det are
        # F-linear in (a0, a1), so the moves are a fixed part plus a part per
        # a0 and a part per a1, and so are their planes
        dd, dc, da, db = (mul(det_inv, v) for v in (d, c, a, b))
        fixed = lane_planes(mul(chi0[:, 0], dd) ^ mul(chi0[:, 1], dc),
                            mul(chi0[:, 1], da) ^ mul(chi0[:, 0], db))
        by_a0 = [lane_planes(mul(np.uint8(t), dd), mul(np.uint8(t), db)) for t in range(q)]
        by_a1 = [lane_planes(mul(np.uint8(t), dc), mul(np.uint8(t), da)) for t in range(q)]
        (i1, j1), (i2, j2) = poss
        for a0 in range(q):
            for a1 in range(q):
                moves = fixed ^ by_a0[a0] ^ by_a1[a1]
                cand = planes.copy()
                cand[i1, j1] ^= moves[0]
                cand[i2, j2] ^= moves[1]
                # the candidate's three low coefficients minus the target's
                miss = _bulk.charpoly_planes(fs, cand)
                miss[0] ^= constants[a0][:, None]
                miss[1] ^= constants[a1][:, None]
                miss[2] ^= trace_planes
                ok = ~_bulk.nonzero_lanes(miss, count) & ~singular
                bad = np.flatnonzero(~ok)
                solved += int(ok.sum())
                for bi in bad:
                    m = Mat(n, n, [int(x) for x in mats[bi].reshape(-1)])
                    r = (a0, a1, int(traces[bi]), 1)
                    rmat = choice_solve(fs, m, r, p)
                    fallbacks += 1
                    if rmat is None:
                        failures += 1
                    else:
                        solved += 1
    rng = random.Random(seed)
    for _ in range(_SPOT_CHECKS):
        bi = rng.randrange(count)
        m = Mat(n, n, [int(x) for x in mats[bi].reshape(-1)])
        r = (rng.randrange(q), rng.randrange(q), int(traces[bi]), 1)
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
                         "solved": solved, "affine_fallbacks": fallbacks,
                         "failures": failures, "spot_checks": _SPOT_CHECKS})


# ----------------------------------------------------------------------
# registry for the CLI
# ----------------------------------------------------------------------
# name -> harness(fs, trials, seed, workers), in the order the CLI lists them
_LEMMAS = {
    "covering": lambda fs, trials, seed, workers: covering_harness(fs, trials, seed),
    "vanishing": lambda fs, trials, seed, workers: vanishing_harness(fs, trials, seed),
    "trace-ortho-1": lambda fs, trials, seed, workers: trace_ortho1_harness(fs, trials, seed),
    "trace-ortho-2": lambda fs, trials, seed, workers: trace_ortho2_harness(fs, trials, seed),
    "transrank": lambda fs, trials, seed, workers: transrank_harness(fs, trials, seed),
    "splitting": lambda fs, trials, seed, workers: splitting_harness(
        fs, trials, seed, workers=workers),
    "confinement-first": lambda fs, trials, seed, workers: confinement_first_harness(
        fs, trials, seed, workers=workers),
    "confinement-second": lambda fs, trials, seed, workers: confinement_second_harness(
        fs, trials, seed, workers=workers),
    "confinement-third": lambda fs, trials, seed, workers: confinement_third_harness(
        fs, seed=seed, workers=workers),
    "lastblock": lambda fs, trials, seed, workers: lastblock_audit(fs),
    "sl-rank1-span": lambda fs, trials, seed, workers: sl_rank1_harness(fs),
    "diagonal-zero": lambda fs, trials, seed, workers: diagonal_zero_harness(fs),
    "hurdle-dimension": lambda fs, trials, seed, workers: hurdle_dimension_harness(
        fs, trials, seed, workers=workers),
    "choice-audit": lambda fs, trials, seed, workers: choice_lemma_audit(fs, seed=seed),
}

LEMMA_NAMES = list(_LEMMAS)


def run_lemma(fs: FieldSpec, name: str, trials: int = 200, seed: int = 0,
              workers: int = 1) -> LemmaVerdict:
    """Run one harness by name.  Raises BudgetExceeded when an instance
    has more objects to enumerate than the default budget."""
    if name not in _LEMMAS:
        raise ValueError(f"unknown lemma harness {name!r}")
    return _LEMMAS[name](fs, trials, seed, workers)
