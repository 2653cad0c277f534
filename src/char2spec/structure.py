"""Structural procedures on matrix subspaces.

Implements the executable versions of the package's structure theory:
adapted/weakly-adapted vector scans, hurdle detection (the first
certifying plane of the dual 2-Grassmannian), transitive rank,
alternator solving, the constructive choice solver for regular
Hessenberg matrices, and single-instance checkers for the covering,
vanishing, splitting and confinement lemmas.  Every checker validates
its hypotheses before testing the conclusion; a violated hypothesis
yields a distinct "hypothesis-violation" verdict rather than a lemma
failure, and budget overflows surface as "budget", never as
"none"/"fails".  In the three confinement checkers `budget` bounds only
the spectrum pass, which samples past it; their adapted scans cannot
sample, so they take up to DEFAULT_BUDGET points and report "budget"
past them.  Adapted scans and hurdle detection run in trace-dual
form, from S-perp: adapted scans on whole batches of points
(:mod:`._bulk` code kernels), hurdle detection by refining the common
left eigenspaces of a basis of S-perp, without walking the planes.
Transitive rank ranks its points in batches after a short scalar head.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .gf import FieldSpec, code_dtype
from .matrix import (Mat, char_poly, dot, from_rows, is_regular_hessenberg, mat_add, mat_mul,
                     mat_vec, place, rank, rref_rows, tensor, trace, unit, companion)
from .subspace import (BudgetExceeded, MatSubspace, VecSubspace, digits, enumerate_projective,
                       full_space, line, projective_blocks, projective_points_of,
                       trace_orthogonal, DEFAULT_BUDGET)
from .spectra import SpecPredicate, check_element, check_space, profile, _scan_space
from .upoly import Poly, poly, poly_add
from . import _bulk


@dataclass
class LemmaVerdict:
    name: str
    outcome: str              # holds | fails | hypothesis-violation | budget
    detail: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    def to_json(self) -> dict:
        return {"name": self.name, "outcome": self.outcome, "detail": self.detail}


# ----------------------------------------------------------------------
# rank-one tensor spaces and adapted vectors
# ----------------------------------------------------------------------
def tensor_span(fs: FieldSpec, phis, ys) -> MatSubspace:
    """Span of the tensors phi (x) y for every phi in phis and y in ys
    (ys must be non-empty; it fixes n)."""
    n = len(ys[0])
    return MatSubspace.from_matrices(fs, (n, n), [tensor(fs, phi, y) for phi in phis for y in ys])


@dataclass(frozen=True)
class PointReport:
    point: tuple[int, ...]
    meet_dim: int

    @property
    def klass(self) -> str:
        if self.meet_dim == 0:
            return "adapted"
        if self.meet_dim == 1:
            return "weakly_adapted"
        return "neither"


@dataclass
class AdaptedScanReport:
    label: str
    points: tuple[PointReport, ...]

    @property
    def adapted(self) -> list[PointReport]:
        return [p for p in self.points if p.meet_dim == 0]

    @property
    def non_adapted(self) -> list[PointReport]:
        return [p for p in self.points if p.meet_dim > 0]

    @property
    def weakly_adapted(self) -> list[PointReport]:
        return [p for p in self.points if p.meet_dim <= 1]

    def counts(self) -> dict:
        return {"points": len(self.points),
                "adapted": len(self.adapted),
                "weakly_adapted": len(self.weakly_adapted)}

    def to_json(self) -> dict:
        return {"label": self.label, "counts": self.counts(),
                "points": [{"point": list(p.point), "meet_dim": p.meet_dim,
                            "class": p.klass} for p in self.points]}


def basis_codes(s: MatSubspace) -> np.ndarray:
    """The canonical basis of a matrix space as codes [dim, n, m]."""
    return np.array(s.space.basis, dtype=code_dtype(s.field.degree)).reshape(-1, *s.shape)


def operator_images(fs: FieldSpec, u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The images u_i x of every point x of x [N, m] under every operator of
    u [r, n, m], as codes [N, r, n]."""
    ux = np.zeros((len(x), len(u), u.shape[1]), dtype=x.dtype)
    for j in range(u.shape[2]):
        ux ^= _bulk._mul(fs, u[None, :, :, j], x[:, None, None, j])
    return ux


def adapted_meet_dims(fs: FieldSpec, s: MatSubspace, points) -> np.ndarray:
    """At each nonzero point x, the dimension of S meet the trace-zero
    operators with range inside F*x, the tensors phi (x) x with phi(x) = 0.
    Trace-dual form: tr(u (phi (x) x)) = phi(u x), so the meet is the
    annihilator of [u_1 x ... u_r x; x] over a basis u of S-perp, of
    dimension n - its rank (one :func:`_bulk.batch_rank` for all points)."""
    n = s.shape[0]
    x = np.array(points, dtype=code_dtype(fs.degree)).reshape(len(points), n)
    ux = operator_images(fs, basis_codes(trace_orthogonal(s)), x)
    return n - _bulk.batch_rank(fs, np.concatenate([ux, x[:, None, :]], axis=1))


def adapted_scan(fs: FieldSpec, s: MatSubspace, label: str = "",
                 budget: int = DEFAULT_BUDGET) -> AdaptedScanReport:
    """For every projective point x, the dimension of the intersection of S
    with the trace-zero operators of range F*x; 0 means x is adapted,
    <= 1 weakly adapted.  Raises BudgetExceeded when there are more than
    `budget` points."""
    n, m = s.shape
    if n != m:
        raise ValueError("adapted scan needs a space of square matrices")
    points = []
    for block in projective_blocks(fs, n, budget):
        meets = adapted_meet_dims(fs, s, block).tolist()
        points += map(PointReport, map(tuple, block.tolist()), meets)
    return AdaptedScanReport(label, tuple(points))


# ----------------------------------------------------------------------
# hurdles
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HurdleCertificate:
    """A 2-dimensional subspace P of the dual such that the space contains
    every trace-zero tensor phi (x) y with phi in P and phi(y) = 0;
    equivalently all trace-zero operators killing the codimension-2
    subspace G that P annihilates."""
    plane: VecSubspace

    @property
    def kernel(self) -> VecSubspace:
        return self.plane.annihilator()

    def to_json(self) -> dict:
        return {"dual_plane": self.plane.to_json()}


def _hurdle_tensors(fs: FieldSpec, plane: VecSubspace):
    """The tensors phi (x) y for phi = w1, w2 and w1 + w2, where w1, w2 are
    the RREF rows of the dual plane, and every y in a basis of ker phi.

    They span every tensor phi (x) y with phi in the plane and phi(y) = 0,
    the trace-zero operators killing the plane's pre-annihilator
    (dimension 2n-1): the kernels of w1 and w2 give the operators
    w1 (x) y1 + w2 (x) y2 with w1(y1) = w2(y2) = 0 (dimension 2n-2), and
    the kernel of w1 + w2 adds one with w1(y) = w2(y) = 1."""
    w1, w2 = plane.basis
    for phi in (w1, w2, tuple(a ^ b for a, b in zip(w1, w2))):
        for y in line(fs, phi).annihilator().basis:
            yield tensor(fs, phi, y)


def certifies_hurdle(fs: FieldSpec, s: MatSubspace, plane: VecSubspace) -> bool:
    """The primal test: every tensor of the plane is a member of S, checked
    on the spanning family :func:`_hurdle_tensors`."""
    return all(s.member(t) for t in _hurdle_tensors(fs, plane))


def field_roots(fs: FieldSpec, f: Poly) -> list[int]:
    """The roots in F of a polynomial, ascending: the zeros of its values
    at every element of F (:func:`_bulk.field_values`)."""
    values = _bulk.field_values(fs, np.array([f], dtype=code_dtype(fs.degree)))
    return np.flatnonzero(values[0] == 0).tolist()


def common_eigenspaces(fs: FieldSpec, u: list[Mat], n: int) -> list[VecSubspace]:
    """The common left eigenspaces W(c) = {phi : phi u_j = c_j phi for all
    j} of dimension at least 2, for the n x n operators u.

    Starts from F^n and refines by one u at a time.  A u that acts on a
    space W as one scalar keeps W whole (Bu == cB over its RREF basis B, c
    read at the first pivot); otherwise a plane is dropped, and a larger W
    is cut into the K(c) = {aB : a(Bu - cB) = 0} of dimension at least 2.
    B is the identity on its pivot columns p, so a(Bu) = c a there: c is
    an eigenvalue in F of the d x d matrix (Bu)[:, p]."""
    spaces = [full_space(fs, n)] if n >= 2 else []
    mul = fs.mul
    for ui in u:
        refined = []
        for w in spaces:
            img = mat_mul(fs, from_rows(w.basis), ui).row_lists()
            c = img[0][w.pivots[0]]
            if img == [[mul(c, b) for b in br] for br in w.basis]:
                refined.append(w)
                continue
            if w.dim == 2:
                continue
            pivot_block = Mat(w.dim, w.dim, [row[p] for row in img for p in w.pivots])
            for c in field_roots(fs, char_poly(fs, pivot_block)):
                # a (Bu - cB) = 0: a is orthogonal to every column of Bu - cB
                diff = [[x ^ mul(c, b) for x, b in zip(ir, br)] for ir, br in zip(img, w.basis)]
                ker = VecSubspace(fs, w.dim, list(zip(*diff))).annihilator()
                if ker.dim >= 2:
                    refined.append(VecSubspace(fs, n, [w.combine(a) for a in ker.basis]))
        spaces = refined
        if not spaces:
            break
    return spaces


def detect_hurdle(fs: FieldSpec, s: MatSubspace) -> HurdleCertificate | None:
    """The first certifying plane of the dual 2-Grassmannian; None when no
    plane certifies.  The planes are ordered as RREF bases: by pivot pair
    in lexicographic order, then by the free entries counted in base q,
    the last one fastest.  The search does not walk the planes, so it
    needs no budget.

    Trace-dual form: phi (x) y lies in S iff (phi u)(y) = 0 for every u in
    a basis of S-perp, so P certifies iff phi(y) = 0 forces (phi u)(y) = 0
    for every phi in P, i.e. iff every u acts on P as one scalar c_u: P
    lies in a common left eigenspace W(c) (:func:`common_eigenspaces`).
    Distinct W(c) meet only in 0, and a plane inside W has its pivots
    among W's, so the first plane of W in Grassmannian order is the span of
    its first two RREF rows, and the answer is the least of those over the
    W(c) by (pivot pair, free entries row by row).  The plane returned is
    re-verified by :func:`certifies_hurdle`."""
    n, m = s.shape
    if n != m:
        raise ValueError("hurdle detection needs a space of square matrices")
    spaces = common_eigenspaces(fs, trace_orthogonal(s).basis_matrices(), n)
    if not spaces:
        return None
    # with the pivot pair fixed, the rows compare as their free entries do
    w = min(spaces, key=lambda w: (w.pivots[:2], w.basis[0], w.basis[1]))
    plane = VecSubspace._trusted(fs, n, w.basis[:2], w.pivots[:2])
    if not certifies_hurdle(fs, s, plane):
        raise AssertionError("dual plane failed to re-verify; hurdle search is inconsistent")
    return HurdleCertificate(plane)


# ----------------------------------------------------------------------
# transitive rank
# ----------------------------------------------------------------------
def image_dim(fs: FieldSpec, basis_mats: list[Mat], x) -> int:
    return len(rref_rows(fs, [list(mat_vec(fs, b, x)) for b in basis_mats])[1])


def transitive_rank(fs: FieldSpec, t: MatSubspace, budget: int = DEFAULT_BUDGET) -> int:
    """max over x of dim(T x); the maximum is attained on projective points.

    The first m points are ranked one at a time, and the scan stops as
    soon as a point reaches rank n (a full-rank space usually does so at
    once, whatever the budget).  Past them, BudgetExceeded is raised when
    there are more than `budget` points; otherwise all points are ranked
    a block at a time, each block by one :func:`_bulk.batch_rank` of
    [u_1 x ... u_r x] over a basis u (the head's m points once more)."""
    n, m = t.shape
    basis = t.basis_matrices()
    best = 0
    for x in islice(enumerate_projective(fs, m), m):
        best = max(best, image_dim(fs, basis, x))
        if best == n:
            return best
    u = basis_codes(t)
    for block in projective_blocks(fs, m, budget):
        best = max(best, int(_bulk.batch_rank(fs, operator_images(fs, u, block)).max()))
        if best == n:
            break
    return best


def quotient_space(fs: FieldSpec, t: MatSubspace, w: VecSubspace) -> MatSubspace:
    """The operator space pi T for the canonical projection pi: V -> V/W,
    in the chart of V/W by the non-pivot columns of W: pi is the matrix of
    W's annihilator rows (a non-pivot e_f maps to itself, e_p at the pivot
    of row r to row r read at the non-pivot columns)."""
    rows = w.annihilator_rows()
    pi = Mat(len(rows), w.ambient, [x for row in rows for x in row])   # 0 x n when W = V
    return t.transform(lambda b: mat_mul(fs, pi, b))


# ----------------------------------------------------------------------
# alternators
# ----------------------------------------------------------------------
def find_alternator(fs: FieldSpec, t: MatSubspace, budget: int = DEFAULT_BUDGET,
                    samples: int = 10 ** 5, seed: int = 0) -> Mat | None:
    """A right-nondegenerate bilinear form b with b(x, f(x)) = 0 for every
    f in the space, returned as its Gram matrix Q (so b(x, y) = x^T Q y).

    b(x, f(x)) = 0 for all x forces Q f to be alternating, and over a
    field with more than two elements that condition is also sufficient,
    so the Gram matrices form the solution space of a linear system.
    Right-nondegeneracy means Q has full column rank; the solution space
    is scanned by :func:`spectra._scan_space` in enumeration order (seeded
    sampling past the budget), a chunk of Grams ranked at once by
    :func:`_bulk.batch_rank`; the engine re-verifies the Gram it returns.
    Full rank is invariant under scaling, so the exhaustive scan is
    projective and still returns the Gram of smallest index."""
    if fs.q <= 2:
        raise ValueError("alternator solving requires |F| > 2")
    vdim, udim = t.shape       # operators U -> V; Q is udim x vdim
    # (Q f)_{ab} = sum_c Q[a, c] f[c, b]: for a <= b, one row in the
    # unknowns Q[i, c] for the diagonal entry (a = b) or for the symmetry
    # (Q f)_{ab} + (Q f)_{ba}
    rows = [[(f[c, b] if i == a else 0) ^ (f[c, a] if i == b != a else 0)
             for i in range(udim) for c in range(vdim)]
            for f in t.basis_matrices() for a in range(udim) for b in range(a, udim)]
    grams = MatSubspace((udim, vdim), VecSubspace(fs, udim * vdim, rows).annihilator())

    def full_rank(planes, count):
        codes = _bulk.lane_codes(planes.reshape(udim * vdim, fs.degree, -1), count)
        return _bulk.batch_rank(fs, codes.reshape(count, udim, vdim)) == vdim

    return _scan_space(fs, grams, full_rank, lambda g: rank(fs, g) == vdim,
                       budget, samples, seed, 1).witness


def is_alternator(fs: FieldSpec, t: MatSubspace, gram: Mat) -> bool:
    """Direct check of b(x, f(x)) = 0 on every x in the domain, plus right-
    nondegeneracy; used as the independent verification of solver output."""
    vdim, udim = t.shape
    if rank(fs, gram) != vdim:
        return False
    for f in t.basis_matrices():
        for x in enumerate_projective(fs, udim):
            if dot(fs, x, mat_vec(fs, gram, mat_vec(fs, f, x))):
                return False
    return True


# ----------------------------------------------------------------------
# choice solver
# ----------------------------------------------------------------------
def choice_solve(fs: FieldSpec, m: Mat, r: Poly, p: int,
                 budget: int = DEFAULT_BUDGET) -> Mat | None:
    """Find R in Mat_{p,n-p} such that adding R as the top-right block of a
    regular Hessenberg matrix makes the characteristic polynomial r.

    Requires tr(r) = tr(M) (the top-right block never touches the
    diagonal).  For p = 1 and p = n-1 the perturbation stays inside one
    row (resp. column), so the characteristic polynomial is affine in R
    and the solve is an exact linear system over the degrees 0..n-2,
    whose columns are char_poly(M + E) - char_poly(M) over the unit
    positions: None when it is inconsistent, and AssertionError when its
    solution fails the re-check.  Only 2 <= p <= n-2 searches, over the
    q^{p(n-p)} candidates within the budget (else BudgetExceeded).
    Every result is re-verified through char_poly before being returned.
    """
    n = m.rows
    if not is_regular_hessenberg(m):
        raise ValueError("choice_solve needs a regular Hessenberg matrix")
    if len(r) - 1 != n or r[-1] != 1:
        raise ValueError("target must be monic of matching degree")
    if not 1 <= p <= n - 1:
        raise ValueError("split index out of range")
    if r[n - 1] != trace(m):
        raise ValueError("trace precondition violated: tr(r) != tr(M)")

    chi0 = char_poly(fs, m)
    target = poly_add(r, chi0)  # char 2: the needed perturbation of chi

    if p == 1 or p == n - 1:
        positions = ([(0, j) for j in range(1, n)] if p == 1
                     else [(i, n - 1) for i in range(n - 1)])
        cols = [poly_add(char_poly(fs, mat_add(m, unit(n, n, i, j))), chi0)
                for (i, j) in positions] + [target]
        # linear system over coefficients of degree 0..n-2
        reduced, pivots = rref_rows(fs, [[c[d] if d < len(c) else 0 for c in cols]
                                         for d in range(n - 1)])
        if (n - 1) in pivots:  # inconsistent system
            return None
        solution = [0] * (n - 1)
        for row, piv in zip(reduced, pivots):
            solution[piv] = row[n - 1]
        rmat = Mat(p, n - p, solution)
        if char_poly(fs, mat_add(m, place(n, n, 0, p, rmat))) != r:
            raise AssertionError("affine choice solve failed to re-verify; solver is inconsistent")
        return rmat

    cells = p * (n - p)
    total = fs.q ** cells
    if total > budget:
        raise BudgetExceeded(total, budget)
    for idx in range(total):
        rmat = Mat(p, n - p, digits(idx, fs.q, cells))
        cand = mat_add(m, place(n, n, 0, p, rmat))
        if char_poly(fs, cand) == r:
            return rmat
    return None


# ----------------------------------------------------------------------
# covering and vanishing checks
# ----------------------------------------------------------------------
def union_mask(fs: FieldSpec, family: list[VecSubspace], x: np.ndarray) -> np.ndarray:
    """Which points of x [N, n] (codes) lie in the union of the family: x
    lies in a member iff A x = 0 over a basis A of the member's
    annihilator.  Zero rows pad every basis to n rows, so one
    :func:`operator_images` call tests every member; it holds n codes for
    every (point, member) pair, so more than DEFAULT_BUDGET pairs raise
    BudgetExceeded."""
    pairs = len(x) * len(family)
    if pairs > DEFAULT_BUDGET:
        raise BudgetExceeded(pairs, DEFAULT_BUDGET)
    n = x.shape[1]
    ann = [rows + [[0] * n] * (n - len(rows)) for rows in (v.annihilator_rows() for v in family)]
    ops = np.array(ann, dtype=x.dtype).reshape(len(family), n, n)
    return (~operator_images(fs, ops, x).any(axis=2)).any(axis=1)


def covering_check(fs: FieldSpec, family: list[VecSubspace]) -> LemmaVerdict:
    """Scan all projective points; report the first one outside the union,
    or "covers" when the family covers the whole space."""
    if not family:
        raise ValueError("empty family")
    ambient = family[0].ambient
    for x in enumerate_projective(fs, ambient):
        if not any(v.member(x) for v in family):
            return LemmaVerdict("covering", "holds",
                                {"uncovered_point": list(x)})
    return LemmaVerdict("covering", "fails", {"covers": True})


def covering_hypotheses(fs: FieldSpec, family: list[VecSubspace], r: int) -> str | None:
    """The covering lemma's shape conditions; None when satisfied, else a
    description of the violated one."""
    if fs.q <= r:
        return f"|F| = {fs.q} is not greater than r = {r}"
    n = family[0].ambient
    if len(family) != (n - 1) * r + 1:
        return f"family size {len(family)} != (n-1)r+1"
    by_dim = Counter(v.dim for v in family)
    for k in range(1, n - 1):
        if by_dim.get(k, 0) != r:
            return f"dimension {k} appears {by_dim.get(k, 0)} times, expected {r}"
    if by_dim.get(n - 1, 0) != r + 1:
        return f"dimension {n - 1} appears {by_dim.get(n - 1, 0)} times, expected {r + 1}"
    return None


Monomial = tuple[int, ...]


def eval_monomial_map(fs: FieldSpec, p: dict[Monomial, int], x) -> int:
    mul, power = fs.mul, fs.pow
    acc = 0
    for mono, coef in p.items():
        term = coef
        for xi, e in zip(x, mono):
            term = mul(term, power(xi, e))
        acc ^= term
    return acc


def vanishing_check(fs: FieldSpec, p: dict[Monomial, int], d: int,
                    family: list[VecSubspace]) -> LemmaVerdict:
    """Hypotheses: p is d-homogeneous, |F| >= d, at most |F|-1 family members
    of each dimension 1..n-2 and at most |F|-d of dimension n-1, and p
    vanishes outside the union.  Conclusion: p vanishes everywhere.  The
    walk visits every point of F^n; more than DEFAULT_BUDGET of them give
    a "budget" verdict."""
    if not family:
        raise ValueError("empty family")
    n = family[0].ambient
    name = "vanishing"
    for mono in p:
        if len(mono) != n or sum(mono) != d:
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": f"monomial {mono} is not degree-{d} in {n} variables"})
    if fs.q < d:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "|F| < d"})
    by_dim = Counter(v.dim for v in family)
    if by_dim[0]:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "trivial subspace in family"})
    for k in range(1, n - 1):
        if by_dim.get(k, 0) > fs.q - 1:
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": f"{by_dim[k]} subspaces of dimension {k} > |F|-1"})
    if by_dim.get(n - 1, 0) > fs.q - d:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": f"{by_dim.get(n - 1, 0)} hyperplanes > |F|-d"})
    # one walk: a nonzero value outside the union violates the hypothesis
    # wherever it comes; otherwise the first nonzero value fails the lemma
    first = None
    try:
        # every point of F^n in index order (the first coordinate counts fastest)
        for x in full_space(fs, n).enumerate_elements():
            if eval_monomial_map(fs, p, x):
                if not any(v.member(x) for v in family):
                    return LemmaVerdict(name, "hypothesis-violation",
                                        {"reason": "p does not vanish outside the union",
                                         "point": list(x)})
                if first is None:
                    first = x
    except BudgetExceeded as exc:
        return LemmaVerdict(name, "budget", {"reason": str(exc)})
    if first is not None:
        return LemmaVerdict(name, "fails", {"point": list(first)})
    return LemmaVerdict(name, "holds", {"points_checked": fs.q ** n})


# ----------------------------------------------------------------------
# the spectrum hypothesis of the splitting and confinement checkers
# ----------------------------------------------------------------------
_TWO_SPEC = SpecPredicate("in_field", False, 2)


def _spec_hypothesis(fs: FieldSpec, s: MatSubspace, pred: SpecPredicate, name: str,
                     budget: int, samples: int, seed: int, workers: int):
    """Scan the space for a spectrum hypothesis.  Returns (space verdict,
    None) when it holds, else (space verdict, the checker's
    hypothesis-violation verdict carrying the witness)."""
    pv = check_space(fs, s, pred, budget=budget, samples=samples, seed=seed, workers=workers)
    if pv.holds:
        return pv, None
    return pv, LemmaVerdict(name, "hypothesis-violation",
                            {"reason": f"space is not {pred.name}",
                             "witness": pv.witness.to_json()})


# ----------------------------------------------------------------------
# splitting lemma for hurdles
# ----------------------------------------------------------------------
def _linear_map(fs: FieldSpec, n: int, image_of_unit) -> list[list[int]]:
    return [list(image_of_unit(unit(n, n, i, j)))
            for i in range(n) for j in range(n)]


def quotient_trace(fs: FieldSpec, plane: VecSubspace, u: Mat) -> int:
    """The trace of u on V/G, for the subspace G that the dual plane
    annihilates (u must leave G invariant).  The RREF rows w1, w2 of the
    plane vanish on G and w_i(e_{p_j}) = delta_ij at their pivots p_j, so
    they are the dual basis of e_{p1} + G, e_{p2} + G, and the trace is
    w1(u e_{p1}) + w2(u e_{p2}) in every chart of V/G."""
    (w1, w2), (p1, p2) = plane.basis, plane.pivots
    return dot(fs, w1, u.col(p1)) ^ dot(fs, w2, u.col(p2))


def splitting_check(fs: FieldSpec, s: MatSubspace, cert: HurdleCertificate,
                    mode: str = "2spec", budget: int = DEFAULT_BUDGET,
                    samples: int = 10 ** 5, seed: int = 0,
                    workers: int = 1) -> LemmaVerdict:
    """For a hurdle with invariant codimension-2 subspace G, check that every
    element (a) leaves G invariant, (b) induces on G an endomorphism with
    no nonzero eigenvalue in F (1*-spec mode) / at most one eigenvalue in
    F (2-spec mode), (c) induces on G an endomorphism with no eigenvalue
    in F when the induced quotient trace is nonzero, and (d) induces a
    trace-zero quotient map whenever the G-block vanishes."""
    if mode not in ("2spec", "1star"):
        raise ValueError("mode must be '2spec' or '1star'")
    name = f"splitting-{mode}"
    n, nm = s.shape
    if n != nm or n < 3:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs square matrices, n >= 3"})

    if not certifies_hurdle(fs, s, cert.plane):
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "certificate tensors are not all inside the space"})
    pred = SpecPredicate("in_field", mode == "1star", 2 if mode == "2spec" else 1)
    _, violation = _spec_hypothesis(fs, s, pred, name, budget, samples, seed, workers)
    if violation:
        return violation

    g = cert.kernel
    gdim = g.dim

    def g_block(u: Mat) -> list[int]:
        # coordinates of u*g_j in the RREF basis of G: read the pivot entries
        cols = [mat_vec(fs, u, grow) for grow in g.basis]
        return [cols[j][g.pivots[i]] for i in range(gdim) for j in range(gdim)]

    # (a) invariance of G is linear: checking the basis suffices
    for b in s.basis_matrices():
        for grow in g.basis:
            if not g.member(mat_vec(fs, b, grow)):
                return LemmaVerdict(name, "fails",
                                    {"condition": "a", "witness": b.to_json()})

    # the block and the trace are linear in u: on planes they are fixed maps
    # of the entries
    k = fs.degree
    map_g = _bulk.linear_map(fs, _linear_map(fs, n, g_block), gdim * gdim)
    map_q = _bulk.linear_map(
        fs, _linear_map(fs, n, lambda u: [quotient_trace(fs, cert.plane, u)]), 1)

    def fail_batch(planes, count):
        flat = planes.reshape(-1, planes.shape[-1])
        gb = _bulk.apply_map(flat, map_g, gdim * gdim * k).reshape(gdim, gdim, k, -1)
        coeffs = _bulk.charpoly_planes(fs, gb)
        counts_f = _bulk.spectrum_counts(fs, coeffs, count, "in_field", False)
        bad_b = (counts_f > 1 if mode == "2spec"
                 else _bulk.spectrum_counts(fs, coeffs, count, "in_field", True) > 0)
        tr_q = _bulk.nonzero_lanes(_bulk.apply_map(flat, map_q, k), count)
        g_zero = ~_bulk.nonzero_lanes(gb, count)
        return bad_b | (tr_q & (counts_f > 0)) | (g_zero & tr_q)

    def fail_scalar(u: Mat) -> bool:
        gb = Mat(gdim, gdim, g_block(u))
        prof = profile(fs, gb)
        tq = quotient_trace(fs, cert.plane, u)
        bad_b = prof.distinct_in_f > 1 if mode == "2spec" else prof.distinct_nonzero_in_f > 0
        return bad_b or (tq != 0 and (prof.distinct_in_f > 0 or not any(gb.entries)))

    scan = _scan_space(fs, s, fail_batch, fail_scalar, budget, samples, seed, workers)
    if scan.holds:
        return LemmaVerdict(name, "holds",
                            {"mode": scan.mode, "checked": scan.checked, "seed": scan.seed})
    return LemmaVerdict(name, "fails", {"condition": "bcd", "witness": scan.witness.to_json(),
                                        "index": scan.witness_index, "mode": scan.mode})


# ----------------------------------------------------------------------
# confinement checkers
# ----------------------------------------------------------------------
def confinement_first_check(fs: FieldSpec, s: MatSubspace, phi,
                            budget: int = DEFAULT_BUDGET, samples: int = 10 ** 5,
                            seed: int = 0, workers: int = 1) -> LemmaVerdict:
    """Hypotheses: n >= 3, the space is 2-spec and contains phi (x) V.
    Conclusion: every non-adapted projective point lies in Ker phi."""
    name = "confinement-first"
    n, m = s.shape
    if n != m or n < 3:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs n >= 3 square"})
    if not any(phi):
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "phi = 0"})
    if not s.contains_space(tensor_span(fs, [phi], full_space(fs, n).basis)):
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "phi (x) V is not inside the space"})
    pv, violation = _spec_hypothesis(fs, s, _TWO_SPEC, name, budget, samples, seed, workers)
    if violation:
        return violation
    try:
        non_adapted = adapted_scan(fs, s).non_adapted
    except BudgetExceeded as exc:
        return LemmaVerdict(name, "budget", {"reason": str(exc)})
    for p in non_adapted:
        if dot(fs, phi, p.point):
            return LemmaVerdict(name, "fails", {"point": list(p.point)})
    return LemmaVerdict(name, "holds", {"spec_mode": pv.mode, "checked": pv.checked})


def second_confinement_generators(fs: FieldSpec, h: VecSubspace,
                                  g: VecSubspace) -> MatSubspace:
    """All trace-zero operators that vanish on G and map into H (dim 2n-3
    when G is not inside H)."""
    from .constructions import sl
    return tensor_span(fs, g.annihilator().basis, h.basis).intersect(sl(fs, h.ambient))


def first_annihilating_point(fs: FieldSpec, n: int, points) -> tuple[int, ...] | None:
    """The first projective point theta of F^n in :func:`enumerate_projective`
    order with theta . x = 0 for every given x; None when the points span
    F^n.  It is the first RREF row of their annihilator: it has the least
    pivot, and adding multiples of later rows to it first changes a 0 of it
    at one of their pivots."""
    ann = VecSubspace(fs, n, points).annihilator()
    return ann.basis[0] if ann.dim else None


def confinement_second_check(fs: FieldSpec, s: MatSubspace, h: VecSubspace,
                             g: VecSubspace, budget: int = DEFAULT_BUDGET,
                             samples: int = 10 ** 5, seed: int = 0,
                             workers: int = 1) -> LemmaVerdict:
    """Hypotheses: n >= 3, H a hyperplane, G of codimension 2 with G not
    inside H, the space 2-spec and containing every trace-zero operator
    vanishing on G and mapping into H.  Conclusion: the space is a hurdle,
    or some hyperplane H' makes G u H u H' swallow every non-adapted
    vector (H' is the first in projective-dual order,
    :func:`first_annihilating_point`)."""
    name = "confinement-second"
    n, m = s.shape
    if n != m or n < 3:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs n >= 3 square"})
    if h.dim != n - 1 or g.dim != n - 2:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "H or G has wrong dimension"})
    if h.contains_space(g):
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "G lies inside H"})
    gen = second_confinement_generators(fs, h, g)
    if not s.contains_space(gen):
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "generator operators are not all inside the space"})
    _, violation = _spec_hypothesis(fs, s, _TWO_SPEC, name, budget, samples, seed, workers)
    if violation:
        return violation
    cert = detect_hurdle(fs, s)
    if cert is not None:
        return LemmaVerdict(name, "holds", {"case": "hurdle", "certificate": cert.to_json()})
    try:
        scan = adapted_scan(fs, s)
    except BudgetExceeded as exc:
        return LemmaVerdict(name, "budget", {"reason": str(exc)})
    bad_points = [p.point for p in scan.non_adapted
                  if not g.member(p.point) and not h.member(p.point)]
    theta = first_annihilating_point(fs, n, bad_points)
    if theta is not None:
        return LemmaVerdict(name, "holds", {"case": "hyperplane", "theta": list(theta)})
    return LemmaVerdict(name, "fails", {"outside_points": [list(x) for x in bad_points]})


def third_confinement_template(fs: FieldSpec, n: int) -> MatSubspace:
    """The minimal space of the third confinement setup: six coupled
    generators in the top-left 4x4 corner plus the free entries of rows
    5..n in the first three columns (dimension 6 + 3(n-4))."""
    if n < 5:
        raise ValueError("third confinement template needs n >= 5")
    gens = [
        mat_add(unit(n, n, 1, 0), unit(n, n, 3, 2)),   # a
        mat_add(unit(n, n, 2, 0), unit(n, n, 3, 1)),   # b
        unit(n, n, 3, 0),                              # c
        mat_add(unit(n, n, 1, 1), unit(n, n, 2, 2)),   # lambda
        unit(n, n, 2, 1),                              # x
        unit(n, n, 1, 2),                              # y
    ]
    gens += [unit(n, n, i, j) for i in range(4, n) for j in range(3)]
    return MatSubspace.from_matrices(fs, (n, n), gens)


def confinement_third_check(fs: FieldSpec, s: MatSubspace,
                            budget: int = DEFAULT_BUDGET, samples: int = 10 ** 5,
                            seed: int = 0, workers: int = 1) -> LemmaVerdict:
    """Hypotheses: n >= 5, the space is 2-spec and contains the template.
    Conclusion: every non-adapted projective point has first or third
    coordinate zero."""
    name = "confinement-third"
    n, m = s.shape
    if n != m or n < 5:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs n >= 5 square"})
    if not s.contains_space(third_confinement_template(fs, n)):
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "template generators are not all inside the space"})
    pv, violation = _spec_hypothesis(fs, s, _TWO_SPEC, name, budget, samples, seed, workers)
    if violation:
        return violation
    try:
        non_adapted = adapted_scan(fs, s).non_adapted
    except BudgetExceeded as exc:
        return LemmaVerdict(name, "budget", {"reason": str(exc)})
    for p in non_adapted:
        if p.point[0] != 0 and p.point[2] != 0:
            return LemmaVerdict(name, "fails", {"point": list(p.point)})
    return LemmaVerdict(name, "holds", {"spec_mode": pv.mode, "checked": pv.checked})


def rank_one_trace_zero(fs: FieldSpec, n: int):
    """All rank-1 trace-0 matrices, each exactly once, in deterministic order:
    projective y, projective phi with phi(y) = 0, scalar c in F*."""
    for y in enumerate_projective(fs, n):
        for phi in projective_points_of(line(fs, y).annihilator()):
            for c in range(1, fs.q):
                yield tensor(fs, tuple(fs.mul(c, t) for t in phi), y)


def lastblock_audit(fs: FieldSpec) -> LemmaVerdict:
    """Exhaustive 3x3 audit: every rank-1 trace-0 matrix either breaks the
    2-eigenvalue hypothesis or satisfies the row/column conclusion, with
    the sums through the batch kernels about 2^16 at a time; its oracle is
    the one-matrix checker `lastblock_check` of `tests/oracles.py`.  The
    scalar path re-checks up to 16 evenly spaced claimed violations and
    every block of a failing matrix, and a kernel it contradicts raises
    AssertionError.  The hypothesis is vacuous over GF(2); over
    DEFAULT_BUDGET sums (GF(16) and up) is a "budget" verdict."""
    from .constructions import sl
    name = "lastblock-audit"
    if fs.q <= 2:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs |F| > 2"})
    q = fs.q    # (q^2 + q + 1) (q + 1) (q - 1) matrices, q^3 blocks each
    total = (q * q + q + 1) * (q * q - 1) * q ** 3
    if total > DEFAULT_BUDGET:
        return LemmaVerdict(name, "budget", {"reason": str(BudgetExceeded(total, DEFAULT_BUDGET))})
    mats = list(rank_one_trace_zero(fs, 3))
    blocks = np.zeros((q ** 3, 9), dtype=np.uint8)
    blocks[:, [0, 1, 3, 4]] = [b.entries for b in sl(fs, 2).enumerate_elements()]
    a = np.array([m.entries for m in mats], dtype=np.uint8)
    violated = np.zeros(len(mats), dtype=bool)
    flagged = np.zeros(len(mats), dtype=np.int64)     # the first block flagged
    step = max(1, (1 << 16) // len(blocks))
    for lo in range(0, len(mats), step):
        sums = (a[lo:lo + step, None] ^ blocks).reshape(-1, 9)
        planes = _bulk.code_planes(sums, fs.degree).reshape(3, 3, fs.degree, -1)
        counts = _bulk.spectrum_counts(fs, _bulk.charpoly_planes(fs, planes), len(sums),
                                       "in_field", False)
        over = counts.reshape(-1, len(blocks)) > 2
        violated[lo:lo + step], flagged[lo:lo + step] = over.any(axis=1), over.argmax(axis=1)
    claimed = np.flatnonzero(violated)
    for i in claimed[np.linspace(0, len(claimed) - 1, min(16, len(claimed)), dtype=int)]:
        if check_element(fs, mat_add(mats[i], Mat(3, 3, blocks[flagged[i]].tolist())), _TWO_SPEC):
            raise AssertionError(f"the batch kernel flags a 2-spec sum of {mats[i].to_json()}")
    # the conclusion fails when both the last column and the last row are nonzero
    bad = np.flatnonzero(~violated & a[:, [2, 5, 8]].any(axis=1) & a[:, 6:].any(axis=1))
    if bad.size:
        m = mats[bad[0]]
        if not all(check_element(fs, mat_add(m, Mat(3, 3, b.tolist())), _TWO_SPEC) for b in blocks):
            raise AssertionError(f"the batch kernel misses a violation of {m.to_json()}")
        return LemmaVerdict(name, "fails", {"matrix": m.to_json()})
    return LemmaVerdict(name, "holds",
                        {"instances": len(mats), "conclusion_holds": int(np.sum(~violated)),
                         "hypothesis_violations": int(np.sum(violated))})


# ----------------------------------------------------------------------
# diagonal-zero witness and rank-one span
# ----------------------------------------------------------------------
def diagonal_zero_witness(fs: FieldSpec, n: int) -> Mat | None:
    """A matrix with zero diagonal and at least three distinct eigenvalues in
    F, showing the zero-diagonal space is not 2-spec (n >= 3, |F| > 2).
    Searched among companion matrices of trace-zero monic polynomials,
    which all live inside the zero-diagonal space; deterministic order."""
    for idx in range(fs.q ** (n - 1)):
        c = companion(poly(digits(idx, fs.q, n - 1) + [0, 1]))
        if profile(fs, c).distinct_in_f >= 3:
            return c
    return None


def sl_rank1_span(fs: FieldSpec, n: int) -> MatSubspace:
    """Span of all trace-zero rank-1 tensors; equals sl_n."""
    return MatSubspace.from_matrices(fs, (n, n), rank_one_trace_zero(fs, n))
