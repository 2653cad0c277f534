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
from .matrix import (Mat, char_poly, identity, inverse, mat_add, mat_mul,
                     mat_vec, random_invertible, rref_rows, tensor)
from .subspace import (MatSubspace, QuotientChart, VecSubspace, enumerate_projective,
                       full_space, random_subspace, trace_orthogonal)
from .spectra import SpecPredicate, check_space
from .structure import (LemmaVerdict, certifies_hurdle, choice_solve,
                        confinement_first_check, confinement_second_check,
                        confinement_third_check, covering_check,
                        covering_hypotheses, detect_hurdle,
                        diagonal_zero_witness, eval_monomial_map, image_dim,
                        lastblock_audit,
                        range_space, second_confinement_generators,
                        sl_rank1_span, splitting_check,
                        third_confinement_template, vanishing_check)
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
    gens = []
    for j in range(udim):
        for w in v0.basis:
            e = [0] * (vdim * udim)
            for i in range(vdim):
                e[i * udim + j] = w[i]
            gens.append(Mat(vdim, udim, e))
    return MatSubspace.from_matrices(fs, (vdim, udim), gens)


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
    with an explicit quotient chart for pi."""
    rng = random.Random(seed)
    for t in range(trials):
        udim = rng.randrange(1, 5)
        vdim = rng.randrange(1, 5)
        s = _random_mat_subspace(fs, rng, vdim, udim, rng.randrange(0, udim * vdim + 1))
        u0 = random_subspace(fs, rng, udim, rng.randrange(0, udim + 1))
        # S_{U0}: solve u * w = 0 for all w in a basis of U0, inside S coords
        rows = []
        for b in s.basis_matrices():
            col = []
            for w in u0.basis:
                col.extend(mat_vec(fs, b, w))
            rows.append(col)
        if s.dim == 0:
            lhs = 0
        elif not u0.basis:
            lhs = s.dim
        else:
            mat_rows = [[rows[i][k] for i in range(s.dim)] for k in range(len(rows[0]))]
            lhs = s.dim - len(rref_rows(fs, mat_rows)[1])
        pi = QuotientChart(fs, u0).matrix()
        perp = trace_orthogonal(s)
        pis = perp.transform(lambda b: mat_mul(fs, pi, b)) if perp.dim else None
        rhs = pis.dim if pis is not None else 0
        if lhs + rhs != vdim * (udim - u0.dim):
            return LemmaVerdict("trace-ortho-2", "fails",
                                {"trial": t, "lhs": lhs, "rhs": rhs,
                                 "expected": vdim * (udim - u0.dim)})
    return LemmaVerdict("trace-ortho-2", "holds", {"instances": trials, "seed": seed})


def transrank_harness(fs: FieldSpec, trials: int = 200, seed: int = 0) -> LemmaVerdict:
    """dim(S-perp x) = n - dim(S n (V* (x) x)) for every projective x."""
    rng = random.Random(seed)
    checked = 0
    for t in range(trials):
        n = rng.randrange(2, 5)
        s = _random_mat_subspace(fs, rng, n, n, rng.randrange(0, n * n + 1))
        perp_basis = trace_orthogonal(s).basis_matrices()
        for x in enumerate_projective(fs, n):
            lhs = image_dim(fs, perp_basis, x)
            rhs = n - s.intersect(range_space(fs, x)).dim
            checked += 1
            if lhs != rhs:
                return LemmaVerdict("transrank", "fails",
                                    {"trial": t, "point": list(x), "lhs": lhs, "rhs": rhs})
    return LemmaVerdict("transrank", "holds",
                        {"instances": trials, "points_checked": checked, "seed": seed})


# ----------------------------------------------------------------------
# covering and vanishing
# ----------------------------------------------------------------------
def covering_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                     n_max: int = 4) -> LemmaVerdict:
    """Random families matching the covering shape with r = |F| - 1 never
    cover the space."""
    rng = random.Random(seed)
    r = fs.q - 1
    for t in range(trials):
        n = rng.randrange(2, n_max + 1)
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


def vanishing_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                      n_choices=(2, 3), d_max: int = 3) -> LemmaVerdict:
    """Random admissible families; every homogeneous p forced to vanish off
    the union must vanish identically."""
    rng = random.Random(seed)
    polys_checked = 0
    candidate_dims = 0
    for t in range(trials):
        n = n_choices[rng.randrange(len(n_choices))]
        d = rng.randrange(1, d_max + 1)
        c_small = [rng.randrange(0, fs.q) for _ in range(1, n - 1)]
        c_hyp = rng.randrange(0, fs.q - d + 1)
        family = []
        for k, ck in zip(range(1, n - 1), c_small):
            family += [random_subspace(fs, rng, n, k) for _ in range(ck)]
        family += [random_subspace(fs, rng, n, n - 1) for _ in range(c_hyp)]
        if not family:
            family = [random_subspace(fs, rng, n, 1)]
        monos = _monomials(n, d)
        union_free = [x for x in full_space(fs, n).enumerate_elements()
                      if not any(v.member(x) for v in family)]
        unit_maps = [{mono: 1} for mono in monos]
        rows = [[eval_monomial_map(fs, u, x) for u in unit_maps] for x in union_free]
        # every p satisfying hypothesis (iii) lives in this solution space;
        # the lemma says each of them is the zero function
        solutions = VecSubspace(fs, len(monos), rows).annihilator()
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
def confinement_first_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                              workers: int = 1) -> LemmaVerdict:
    """Conjugated instances of phi (x) V (optionally extended by the scalar
    line), which are 2-spec by construction; the checker re-validates."""
    rng = random.Random(seed)
    for t in range(trials):
        n = rng.randrange(3, 5)
        phi = tuple(rng.randrange(fs.q) for _ in range(n))
        if not any(phi):
            phi = tuple(1 if i == 0 else 0 for i in range(n))
        gens = [tensor(fs, phi, tuple(1 if j == i else 0 for j in range(n)))
                for i in range(n)]
        s = MatSubspace.from_matrices(fs, (n, n), gens)
        if rng.randrange(2):
            s = s.sum_with(MatSubspace.from_matrices(fs, (n, n), [identity(n)]))
        p = random_invertible(fs, rng, n)
        s = cons.conjugate_space(fs, s, p)
        # phi transforms contravariantly: phi' = phi o P^{-1}
        phi_c = tuple(_row_times(fs, phi, inverse(fs, p)))
        verdict = confinement_first_check(fs, s, phi_c, workers=workers)
        if verdict.outcome != "holds":
            verdict.detail["trial"] = t
            return verdict
    return LemmaVerdict("confinement-first", "holds", {"instances": trials, "seed": seed})


def _row_times(fs: FieldSpec, row, m: Mat) -> list[int]:
    return [_dot(fs, row, m.col(j)) for j in range(m.cols)]


def _dot(fs: FieldSpec, a, b) -> int:
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc ^= fs.mul(x, y)
    return acc


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


def splitting_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                      budget: int = 1 << 16, samples: int = 2 * 10 ** 4,
                      workers: int = 1) -> LemmaVerdict:
    """Random 2-spec hurdles between the template and the full twofold sl_2
    joint (n = 4); all four splitting conclusions must hold."""
    rng = random.Random(seed)
    big = cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2))
    template = cons.hurdle_template(fs, 4)
    cert = detect_hurdle(fs, template)
    for t in range(trials):
        s = template
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(fs.q) for _ in range(big.dim)]
            v = Mat(4, 4, big.space.combine(coeffs))
            s = s.sum_with(MatSubspace.from_matrices(fs, (4, 4), [v]))
        verdict = splitting_check(fs, s, cert, mode="2spec", budget=budget,
                                  samples=samples, seed=seed + t, workers=workers)
        if verdict.outcome != "holds":
            verdict.detail["trial"] = t
            return verdict
    return LemmaVerdict("splitting", "holds", {"instances": trials, "seed": seed})


def hurdle_dimension_harness(fs: FieldSpec, trials: int = 200, seed: int = 0,
                             budget: int = 1 << 16, samples: int = 2 * 10 ** 4,
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
        s = template
        for _ in range(rng.randrange(0, 3)):
            coeffs = [rng.randrange(fs.q) for _ in range(roof.dim)]
            v = Mat(n, n, roof.space.combine(coeffs))
            s = s.sum_with(MatSubspace.from_matrices(fs, (n, n), [v]))
        p = random_invertible(fs, rng, n)
        s = cons.conjugate_space(fs, s, p)
        pinv = inverse(fs, p)
        plane = VecSubspace(fs, n, [_row_times(fs, phi, pinv)
                                    for phi in (tuple(1 if i == n - 2 else 0 for i in range(n)),
                                                tuple(1 if i == n - 1 else 0 for i in range(n)))])
        if not certifies_hurdle(fs, s, plane):
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"trial": t, "reason": "conjugated certificate failed"})
        pv = check_space(fs, s, pred, budget=budget, samples=samples,
                         seed=seed + t, workers=workers)
        if not pv.holds:
            return LemmaVerdict("hurdle-dimension", "hypothesis-violation",
                                {"trial": t, "reason": f"instance is not {pred.name}"})
        if s.dim > bound:
            return LemmaVerdict("hurdle-dimension", "fails",
                                {"trial": t, "dim": s.dim, "bound": bound, "n": n})
    return LemmaVerdict("hurdle-dimension", "holds", {"instances": trials, "seed": seed})


def diagonal_zero_harness(fs: FieldSpec, ns=(3, 4, 5)) -> LemmaVerdict:
    """A witness with >= 3 distinct eigenvalues must exist inside the
    zero-diagonal space for every requested n."""
    found = {}
    for n in ns:
        w = diagonal_zero_witness(fs, n)
        if w is None:
            return LemmaVerdict("diagonal-zero", "fails", {"n": n})
        if any(w[i, i] != 0 for i in range(n)):
            return LemmaVerdict("diagonal-zero", "fails",
                                {"n": n, "reason": "witness has nonzero diagonal"})
        found[str(n)] = w.to_json()
    return LemmaVerdict("diagonal-zero", "holds", {"witnesses": found})


def sl_rank1_harness(fs: FieldSpec, n_max: int = 4) -> LemmaVerdict:
    for n in range(2, n_max + 1):
        if sl_rank1_span(fs, n) != cons.sl(fs, n):
            return LemmaVerdict("sl-rank1-span", "fails", {"n": n})
    return LemmaVerdict("sl-rank1-span", "holds", {"n_max": n_max})


def confinement_third_harness(fs: FieldSpec, n: int = 5, seed: int = 0,
                              budget: int = 1 << 20,
                              workers: int = 1) -> LemmaVerdict:
    v = confinement_third_check(fs, third_confinement_template(fs, n),
                                budget=budget, seed=seed, workers=workers)
    v.name = "confinement-third"
    return v


# ----------------------------------------------------------------------
# choice lemma audit
# ----------------------------------------------------------------------
_ALL_LANES = ~np.uint64(0)


def choice_lemma_audit(fs: FieldSpec, n: int = 3, cap: int | None = None,
                       seed: int = 0, spot_checks: int = 64) -> LemmaVerdict:
    """Total audit: for every regular Hessenberg matrix of the given size
    (canonically sampled down to `cap` when the full count exceeds it) and
    every monic target with matching trace, a top-right block perturbation
    achieving the target exists for p = 1 and p = n-1.

    Solutions come from the same affine solve as :func:`structure.choice_solve`
    (vectorized), every candidate is re-verified through the batch
    characteristic polynomial, and a deterministic subsample is re-run
    through the scalar `choice_solve` for agreement."""
    q = fs.q
    mul = fs.mul_table_np()
    inv_t = _bulk.inv_table(fs)
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

    def charpolys(pl: np.ndarray) -> np.ndarray:
        return _bulk.monic_codes(_bulk.charpoly_planes(fs, pl), count)

    chi0 = charpolys(planes)
    traces = np.zeros(count, dtype=np.uint8)
    for i in range(n):
        traces ^= mats[:, i, i]

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
            pert[i, j, 0] ^= _ALL_LANES     # entry (i, j) plus 1 in every lane
            cols.append(charpolys(pert) ^ chi0)
        deltas[p] = cols

    if n != 3:
        raise NotImplementedError("the vectorized audit is specialized to n = 3")

    for p, poss in positions.items():
        d1, d2 = deltas[p]
        a, b = d1[:, 0], d1[:, 1]
        c, d = d2[:, 0], d2[:, 1]
        det = mul[a, d] ^ mul[b, c]
        det_inv = inv_t[det]
        singular = det == 0
        for a0 in range(q):
            for a1 in range(q):
                rhs0 = chi0[:, 0] ^ a0
                rhs1 = chi0[:, 1] ^ a1
                x1 = mul[det_inv, mul[rhs0, d] ^ mul[rhs1, c]]
                x2 = mul[det_inv, mul[a, rhs1] ^ mul[b, rhs0]]
                (i1, j1), (i2, j2) = poss
                moves = _bulk.code_planes(np.stack([x1, x2], axis=1), k).reshape(2, k, -1)
                cand = planes.copy()
                cand[i1, j1] ^= moves[0]
                cand[i2, j2] ^= moves[1]
                chi = charpolys(cand)
                ok = ((chi[:, 0] == a0) & (chi[:, 1] == a1)
                      & (chi[:, 2] == traces) & ~singular)
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
    for _ in range(spot_checks):
        bi = rng.randrange(count)
        m = Mat(n, n, [int(x) for x in mats[bi].reshape(-1)])
        r = (rng.randrange(q), rng.randrange(q), int(traces[bi]), 1)
        for p in (1, n - 1):
            rmat = choice_solve(fs, m, r, p)
            if rmat is None:
                return LemmaVerdict("choice-audit", "fails",
                                    {"matrix": m.to_json(), "target": list(r), "p": p})
            embedded = [[0] * n for _ in range(n)]
            for i in range(p):
                for j in range(n - p):
                    embedded[i][p + j] = rmat[i, j]
            total_m = mat_add(m, Mat(n, n, [x for row in embedded for x in row]))
            if char_poly(fs, total_m) != r:
                return LemmaVerdict("choice-audit", "fails",
                                    {"reason": "returned block failed re-verification",
                                     "matrix": m.to_json(), "p": p})
    outcome = "holds" if failures == 0 else "fails"
    return LemmaVerdict("choice-audit", outcome,
                        {"hessenberg_matrices": count, "capped": capped,
                         "targets_per_matrix": q * q, "splits": [1, n - 1],
                         "solved": solved, "affine_fallbacks": fallbacks,
                         "failures": failures, "spot_checks": spot_checks})


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
        fs, min(trials, 50), seed, workers=workers),
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
    if name not in _LEMMAS:
        raise ValueError(f"unknown lemma harness {name!r}")
    return _LEMMAS[name](fs, trials, seed, workers)
