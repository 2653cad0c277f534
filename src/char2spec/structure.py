"""Structural procedures on matrix subspaces.

Implements the executable versions of the package's structure theory:
adapted/weakly-adapted vector scans, hurdle detection over the dual
2-Grassmannian, transitive rank and intransitivity veils, alternator
solving, the constructive choice solver for regular Hessenberg matrices,
and single-instance checkers for the covering, vanishing, splitting and
confinement lemmas.  Every checker validates its hypotheses before
testing the conclusion; a violated hypothesis yields a distinct
"hypothesis-violation" verdict rather than a lemma failure, and budget
overflows surface as "budget", never as "none"/"fails".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf import FieldSpec
from .matrix import (Mat, char_poly, is_regular_hessenberg, mat_add, mat_vec,
                     rank, rref_rows, tensor, trace, unit, companion)
from .subspace import (BudgetExceeded, MatSubspace, QuotientChart, VecSubspace, digits,
                       enumerate_grassmannian, enumerate_projective, full_space, line,
                       projective_points_of, DEFAULT_BUDGET)
from .spectra import SpecPredicate, check_space, profile, _scan_space, _element_for_index
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
def range_space(fs: FieldSpec, x) -> MatSubspace:
    """All operators with range inside the line F*x (dimension n)."""
    n = len(x)
    gens = [tensor(fs, tuple(1 if j == i else 0 for j in range(n)), x) for i in range(n)]
    return MatSubspace.from_matrices(fs, (n, n), gens)


def trace_zero_range_space(fs: FieldSpec, x) -> MatSubspace:
    """Operators with trace zero and range inside F*x (dimension n-1)."""
    n = len(x)
    perp = line(fs, x).annihilator()
    gens = [tensor(fs, phi, x) for phi in perp.basis]
    return MatSubspace.from_matrices(fs, (n, n), gens)


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


def adapted_meet_dim(fs: FieldSpec, s: MatSubspace, x) -> int:
    return s.intersect(trace_zero_range_space(fs, x)).dim


def adapted_scan(fs: FieldSpec, s: MatSubspace, label: str = "") -> AdaptedScanReport:
    """For every projective point x, the dimension of the intersection of S
    with the trace-zero operators of range F*x; 0 means x is adapted,
    <= 1 weakly adapted."""
    n, m = s.shape
    if n != m:
        raise ValueError("adapted scan needs a space of square matrices")
    pts = []
    for x in enumerate_projective(fs, n):
        pts.append(PointReport(x, adapted_meet_dim(fs, s, x)))
    return AdaptedScanReport(label, tuple(pts))


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


def hurdle_tensor_space(fs: FieldSpec, plane: VecSubspace) -> MatSubspace:
    """Span of all tensors phi (x) y with phi in the dual plane and
    phi(y) = 0.  Spanning family: every projective point of the plane
    paired with a basis of its kernel; this reaches the full space of
    trace-zero operators killing the pre-annihilator (dimension 2n-1),
    which two kernel families alone would miss by one dimension."""
    n = plane.ambient
    gens = []
    for phi in projective_points_of(plane):
        ker = line(fs, phi).annihilator()
        for y in ker.basis:
            gens.append(tensor(fs, phi, y))
    return MatSubspace.from_matrices(fs, (n, n), gens)


def certifies_hurdle(fs: FieldSpec, s: MatSubspace, plane: VecSubspace) -> bool:
    n = plane.ambient
    for phi in projective_points_of(plane):
        ker = line(fs, phi).annihilator()
        for y in ker.basis:
            if not s.member(tensor(fs, phi, y)):
                return False
    return True


def detect_hurdle(fs: FieldSpec, s: MatSubspace,
                  budget: int = DEFAULT_BUDGET) -> HurdleCertificate | None:
    """Scan 2-dimensional dual subspaces in deterministic Grassmannian order
    and return the first certifying plane; None when the scan completes
    without one.  Raises BudgetExceeded when the Grassmannian is too large,
    which callers must report as a "budget" outcome, not as None."""
    n, m = s.shape
    if n != m:
        raise ValueError("hurdle detection needs a space of square matrices")
    for plane in enumerate_grassmannian(fs, 2, n, budget):
        if certifies_hurdle(fs, s, plane):
            return HurdleCertificate(plane)
    return None


# ----------------------------------------------------------------------
# transitive rank, intransitivity veils
# ----------------------------------------------------------------------
def image_dim(fs: FieldSpec, basis_mats: list[Mat], x) -> int:
    rows = [list(mat_vec(fs, b, x)) for b in basis_mats]
    if not rows:
        return 0
    return len(rref_rows(fs, rows)[1])


def transitive_rank(fs: FieldSpec, t: MatSubspace) -> int:
    """max over x of dim(T x); the maximum is attained on projective points."""
    n, m = t.shape
    basis = t.basis_matrices()
    best = 0
    for x in enumerate_projective(fs, m):
        best = max(best, image_dim(fs, basis, x))
        if best == n:
            break
    return best


def is_intransitive(fs: FieldSpec, t: MatSubspace) -> bool:
    return transitive_rank(fs, t) < t.shape[0]


def quotient_space(fs: FieldSpec, t: MatSubspace, w: VecSubspace) -> MatSubspace:
    """The operator space pi T for the canonical projection pi: V -> V/W."""
    pi = QuotientChart(fs, w).matrix()
    from .matrix import mat_mul
    return t.transform(lambda b: mat_mul(fs, pi, b))


def find_intransitivity_veil(fs: FieldSpec, t: MatSubspace,
                             budget: int = DEFAULT_BUDGET) -> VecSubspace | None:
    """Greatest-dimension proper nonzero subspace W of the target with
    pi T intransitive; None when no nonzero W works (so an intransitive T
    is primitively intransitive exactly when this returns None)."""
    n, _ = t.shape
    for d in range(n - 1, 0, -1):
        for w in enumerate_grassmannian(fs, d, n, budget):
            if is_intransitive(fs, quotient_space(fs, t, w)):
                return w
    return None


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
    is searched in deterministic enumeration order (seeded sampling past
    the budget)."""
    if fs.q <= 2:
        raise ValueError("alternator solving requires |F| > 2")
    vdim, udim = t.shape       # operators U -> V
    unknowns = udim * vdim     # Q is udim x vdim
    rows = []

    def q_entry_index(i: int, j: int) -> int:
        return i * vdim + j

    for f in t.basis_matrices():
        # (Q f)_{a b} = sum_c Q[a, c] f[c, b]
        for a in range(udim):
            row = [0] * unknowns
            for c in range(vdim):
                row[q_entry_index(a, c)] ^= f[c, a]
            rows.append(row)  # diagonal entry (a, a) vanishes
        for a in range(udim):
            for b in range(a + 1, udim):
                row = [0] * unknowns
                for c in range(vdim):
                    row[q_entry_index(a, c)] ^= f[c, b]
                    row[q_entry_index(b, c)] ^= f[c, a]
                rows.append(row)  # symmetry of Q f
    grams = MatSubspace((udim, vdim), VecSubspace(fs, unknowns, rows).annihilator())
    total = fs.q ** grams.dim
    exhaustive = total <= budget
    for i in range(total if exhaustive else samples):
        gram = _element_for_index(fs, grams, i, exhaustive, seed)
        if rank(fs, gram) == vdim:
            return gram
    return None


def is_alternator(fs: FieldSpec, t: MatSubspace, gram: Mat) -> bool:
    """Direct check of b(x, f(x)) = 0 on every x in the domain, plus right-
    nondegeneracy; used as the independent verification of solver output."""
    vdim, udim = t.shape
    if rank(fs, gram) != vdim:
        return False
    for f in t.basis_matrices():
        for x in enumerate_projective(fs, udim):
            fx = mat_vec(fs, f, x)
            qfx = mat_vec(fs, gram, fx)
            acc = 0
            for xi, yi in zip(x, qfx):
                acc ^= fs.mul(xi, yi)
            if acc:
                return False
    return True


# ----------------------------------------------------------------------
# choice solver
# ----------------------------------------------------------------------
def _embed_block(n: int, p: int, r: Mat) -> Mat:
    e = [0] * (n * n)
    for i in range(p):
        for j in range(n - p):
            e[i * n + (p + j)] = r[i, j]
    return Mat(n, n, e)


def choice_solve(fs: FieldSpec, m: Mat, r: Poly, p: int,
                 budget: int = DEFAULT_BUDGET) -> Mat | None:
    """Find R in Mat_{p,n-p} such that adding R as the top-right block of a
    regular Hessenberg matrix makes the characteristic polynomial r.

    Requires tr(r) = tr(M) (the top-right block never touches the
    diagonal).  For p = 1 and p = n-1 the perturbation stays inside one
    row (resp. column), so the characteristic polynomial is affine in R
    and the solve is a linear system whose columns are char_poly(M + E)
    - char_poly(M) over the unit positions.  Other p fall back to
    exhaustive search over q^{p(n-p)} candidates within the budget.
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
        if p == 1:
            positions = [(0, j) for j in range(1, n)]
        else:
            positions = [(i, n - 1) for i in range(n - 1)]
        cols = []
        for (i, j) in positions:
            delta = char_poly(fs, mat_add(m, unit(n, n, i, j)))
            cols.append(poly_add(delta, chi0))
        # linear system over coefficients of degree 0..n-2
        rows = []
        for d in range(n - 1):
            rows.append([c[d] if d < len(c) else 0 for c in cols]
                        + [target[d] if d < len(target) else 0])
        reduced, pivots = rref_rows(fs, rows)
        if (n - 1) not in pivots:  # consistent system
            solution = [0] * (n - 1)
            for row, piv in zip(reduced, pivots):
                solution[piv] = row[n - 1]
            rmat = Mat(p, n - p, solution)
            cand = mat_add(m, _embed_block(n, p, rmat))
            if char_poly(fs, cand) == r:
                return rmat
        # fall through to exhaustive search on inconsistency

    cells = p * (n - p)
    total = fs.q ** cells
    if total > budget:
        raise BudgetExceeded(total, budget)
    for idx in range(total):
        rmat = Mat(p, n - p, digits(idx, fs.q, cells))
        cand = mat_add(m, _embed_block(n, p, rmat))
        if char_poly(fs, cand) == r:
            return rmat
    return None


# ----------------------------------------------------------------------
# covering and vanishing checks
# ----------------------------------------------------------------------
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
    by_dim: dict[int, int] = {}
    for v in family:
        by_dim[v.dim] = by_dim.get(v.dim, 0) + 1
    for k in range(1, n - 1):
        if by_dim.get(k, 0) != r:
            return f"dimension {k} appears {by_dim.get(k, 0)} times, expected {r}"
    if by_dim.get(n - 1, 0) != r + 1:
        return f"dimension {n - 1} appears {by_dim.get(n - 1, 0)} times, expected {r + 1}"
    return None


Monomial = tuple[int, ...]


def eval_monomial_map(fs: FieldSpec, p: dict[Monomial, int], x) -> int:
    mul = fs.mul
    acc = 0
    for mono, coef in p.items():
        term = coef
        for xi, e in zip(x, mono):
            if e:
                if not xi:      # a zero coordinate kills the whole term
                    break
                for _ in range(e):
                    term = mul(term, xi)
        else:
            acc ^= term
    return acc


def vanishing_check(fs: FieldSpec, p: dict[Monomial, int], d: int,
                    family: list[VecSubspace]) -> LemmaVerdict:
    """Hypotheses: p is d-homogeneous, |F| >= d, at most |F|-1 family members
    of each dimension 1..n-2 and at most |F|-d of dimension n-1, and p
    vanishes outside the union.  Conclusion: p vanishes everywhere."""
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
    by_dim: dict[int, int] = {}
    for v in family:
        if v.dim == 0:
            return LemmaVerdict(name, "hypothesis-violation", {"reason": "trivial subspace in family"})
        by_dim[v.dim] = by_dim.get(v.dim, 0) + 1
    for k in range(1, n - 1):
        if by_dim.get(k, 0) > fs.q - 1:
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": f"{by_dim[k]} subspaces of dimension {k} > |F|-1"})
    if by_dim.get(n - 1, 0) > fs.q - d:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": f"{by_dim.get(n - 1, 0)} hyperplanes > |F|-d"})
    points = full_space(fs, n)
    for x in points.enumerate_elements():
        if any(v.member(x) for v in family):
            continue
        if eval_monomial_map(fs, p, x):
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": "p does not vanish outside the union",
                                 "point": list(x)})
    for x in points.enumerate_elements():
        if eval_monomial_map(fs, p, x):
            return LemmaVerdict(name, "fails", {"point": list(x)})
    return LemmaVerdict(name, "holds", {"points_checked": fs.q ** n})


# ----------------------------------------------------------------------
# splitting lemma for hurdles
# ----------------------------------------------------------------------
def _linear_map(fs: FieldSpec, n: int, image_of_unit) -> list[list[int]]:
    return [list(image_of_unit(unit(n, n, i, j)))
            for i in range(n) for j in range(n)]


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

    wp = hurdle_tensor_space(fs, cert.plane)
    if not s.contains_space(wp):
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "certificate tensors are not all inside the space"})
    pred = SpecPredicate("in_field", mode == "1star", 2 if mode == "2spec" else 1)
    pv = check_space(fs, s, pred, budget=budget, samples=samples, seed=seed, workers=workers)
    if not pv.holds:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": f"space is not {pred.name}",
                             "witness": pv.witness.to_json()})

    g = cert.kernel
    chart = QuotientChart(fs, g)
    gdim = g.dim

    def g_block(u: Mat) -> list[int]:
        # coordinates of u*g_j in the RREF basis of G: read the pivot entries
        cols = [mat_vec(fs, u, grow) for grow in g.basis]
        return [cols[j][g.pivots[i]] for i in range(gdim) for j in range(gdim)]

    def q_block(u: Mat) -> list[int]:
        cols = [chart.project(mat_vec(fs, u, chart.lift(tuple(1 if t == b else 0
                                                              for t in range(2)))))
                for b in range(2)]
        return [cols[j][i] for i in range(2) for j in range(2)]

    # (a) invariance of G is linear: checking the basis suffices
    for b in s.basis_matrices():
        for grow in g.basis:
            if not g.member(mat_vec(fs, b, grow)):
                return LemmaVerdict(name, "fails",
                                    {"condition": "a", "witness": b.to_json()})

    # both blocks are linear in u: on planes they are fixed maps of the entries
    k = fs.degree
    bulk = _bulk.supports(fs)
    if bulk:
        map_g = _bulk.linear_map(fs, _linear_map(fs, n, g_block), gdim * gdim)
        map_q = _bulk.linear_map(fs, _linear_map(fs, n, q_block), 4)

    def fail_batch(planes, count):
        flat = planes.reshape(-1, planes.shape[-1])
        gb = _bulk.apply_map(flat, map_g, gdim * gdim * k).reshape(gdim, gdim, k, -1)
        qb = _bulk.apply_map(flat, map_q, 4 * k).reshape(4, k, -1)
        polys = _bulk.monic_codes(_bulk.charpoly_planes(fs, gb), count)
        counts_f = _bulk.root_counts(fs, polys, "in_field", False)
        if mode == "2spec":
            bad_b = counts_f > 1
        else:
            bad_b = _bulk.root_counts(fs, polys, "in_field", True) > 0
        tr_q = _bulk.nonzero_lanes(qb[0] ^ qb[3], count)
        g_zero = ~_bulk.nonzero_lanes(gb, count)
        return bad_b | (tr_q & (counts_f > 0)) | (g_zero & tr_q)

    def fail_scalar(u: Mat) -> bool:
        gb = Mat(gdim, gdim, g_block(u))
        qb = q_block(u)
        prof = profile(fs, gb)
        tq = qb[0] ^ qb[3]
        if mode == "2spec" and prof.distinct_in_f > 1:
            return True
        if mode == "1star" and prof.distinct_nonzero_in_f > 0:
            return True
        if tq != 0 and prof.distinct_in_f > 0:
            return True
        if all(e == 0 for e in gb.entries) and tq != 0:
            return True
        return False

    scan_mode, checked, used_seed, bad, w = _scan_space(
        fs, s, fail_batch if bulk else None, fail_scalar, budget, samples, seed, workers)
    if w is not None:
        return LemmaVerdict(name, "fails",
                            {"condition": "bcd", "witness": w.to_json(),
                             "index": bad, "mode": scan_mode})
    return LemmaVerdict(name, "holds",
                        {"mode": scan_mode, "checked": checked, "seed": used_seed})


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
    for i in range(n):
        y = tuple(1 if j == i else 0 for j in range(n))
        if not s.member(tensor(fs, phi, y)):
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": "phi (x) V is not inside the space"})
    pv = check_space(fs, s, SpecPredicate("in_field", False, 2),
                     budget=budget, samples=samples, seed=seed, workers=workers)
    if not pv.holds:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "space is not 2-spec", "witness": pv.witness.to_json()})
    mul = fs.mul
    for x in enumerate_projective(fs, n):
        if adapted_meet_dim(fs, s, x) > 0:
            acc = 0
            for a, b in zip(phi, x):
                acc ^= mul(a, b)
            if acc != 0:
                return LemmaVerdict(name, "fails", {"point": list(x)})
    return LemmaVerdict(name, "holds", {"spec_mode": pv.mode, "checked": pv.checked})


def second_confinement_generators(fs: FieldSpec, h: VecSubspace,
                                  g: VecSubspace) -> MatSubspace:
    """All trace-zero operators that vanish on G and map into H (dim 2n-3
    when G is not inside H)."""
    from .constructions import sl
    n = h.ambient
    p = g.annihilator()
    gens = []
    for phi in p.basis:
        for y in h.basis:
            gens.append(tensor(fs, phi, y))
    ambient_space = MatSubspace.from_matrices(fs, (n, n), gens)
    return ambient_space.intersect(sl(fs, n))


def confinement_second_check(fs: FieldSpec, s: MatSubspace, h: VecSubspace,
                             g: VecSubspace, budget: int = DEFAULT_BUDGET,
                             samples: int = 10 ** 5, seed: int = 0,
                             workers: int = 1) -> LemmaVerdict:
    """Hypotheses: n >= 3, H a hyperplane, G of codimension 2 with G not
    inside H, the space 2-spec and containing every trace-zero operator
    vanishing on G and mapping into H.  Conclusion: the space is a hurdle,
    or some hyperplane H' makes G u H u H' swallow every non-adapted
    vector (H' is searched in projective-dual order)."""
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
    pv = check_space(fs, s, SpecPredicate("in_field", False, 2),
                     budget=budget, samples=samples, seed=seed, workers=workers)
    if not pv.holds:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "space is not 2-spec", "witness": pv.witness.to_json()})
    try:
        cert = detect_hurdle(fs, s, budget)
    except BudgetExceeded as exc:
        return LemmaVerdict(name, "budget", {"reason": str(exc)})
    if cert is not None:
        return LemmaVerdict(name, "holds", {"case": "hurdle", "certificate": cert.to_json()})
    bad_points = [x for x in enumerate_projective(fs, n)
                  if adapted_meet_dim(fs, s, x) > 0
                  and not g.member(x) and not h.member(x)]
    mul = fs.mul
    for theta in enumerate_projective(fs, n):
        def in_ker(x):
            acc = 0
            for a, b in zip(theta, x):
                acc ^= mul(a, b)
            return acc == 0
        if all(in_ker(x) for x in bad_points):
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
    for i in range(4, n):
        for j in range(3):
            gens.append(unit(n, n, i, j))
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
    pv = check_space(fs, s, SpecPredicate("in_field", False, 2),
                     budget=budget, samples=samples, seed=seed, workers=workers)
    if not pv.holds:
        return LemmaVerdict(name, "hypothesis-violation",
                            {"reason": "space is not 2-spec", "witness": pv.witness.to_json()})
    for x in enumerate_projective(fs, n):
        if x[0] != 0 and x[2] != 0 and adapted_meet_dim(fs, s, x) > 0:
            return LemmaVerdict(name, "fails", {"point": list(x)})
    return LemmaVerdict(name, "holds", {"spec_mode": pv.mode, "checked": pv.checked})


def lastblock_check(fs: FieldSpec, a: Mat) -> LemmaVerdict:
    """For a rank-1 trace-0 3x3 matrix whose sums with every sl_2-plus-zero
    block have at most two eigenvalues in F, the last row or the last
    column must vanish."""
    from .constructions import sl
    name = "lastblock"
    if (a.rows, a.cols) != (3, 3):
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs a 3x3 matrix"})
    if rank(fs, a) != 1 or trace(a) != 0:
        return LemmaVerdict(name, "hypothesis-violation", {"reason": "needs rank 1 and trace 0"})
    for nmat in sl(fs, 2).enumerate_elements():
        summed = mat_add(a, Mat(3, 3, (nmat[0, 0], nmat[0, 1], 0,
                                       nmat[1, 0], nmat[1, 1], 0,
                                       0, 0, 0)))
        if profile(fs, summed).distinct_in_f > 2:
            return LemmaVerdict(name, "hypothesis-violation",
                                {"reason": "a perturbed sum exceeds two eigenvalues",
                                 "witness": summed.to_json()})
    last_col_zero = all(a[i, 2] == 0 for i in range(3))
    last_row_zero = all(a[2, j] == 0 for j in range(3))
    if last_col_zero or last_row_zero:
        return LemmaVerdict(name, "holds", {})
    return LemmaVerdict(name, "fails", {"matrix": a.to_json()})


def rank_one_trace_zero(fs: FieldSpec, n: int):
    """All rank-1 trace-0 matrices, each exactly once, in deterministic order:
    projective y, projective phi with phi(y) = 0, scalar c in F*."""
    for y in enumerate_projective(fs, n):
        perp = line(fs, y).annihilator()
        for phi in projective_points_of(perp):
            for c in range(1, fs.q):
                yield tensor(fs, tuple(fs.mul(c, t) for t in phi), y)


def lastblock_audit(fs: FieldSpec) -> LemmaVerdict:
    """Exhaustive 3x3 audit: every rank-1 trace-0 matrix either breaks the
    2-eigenvalue hypothesis or satisfies the row/column conclusion."""
    total = holds = hypothesis_violations = 0
    for a in rank_one_trace_zero(fs, 3):
        total += 1
        v = lastblock_check(fs, a)
        if v.outcome == "holds":
            holds += 1
        elif v.outcome == "hypothesis-violation":
            hypothesis_violations += 1
        else:
            return LemmaVerdict("lastblock-audit", "fails", {"matrix": a.to_json()})
    return LemmaVerdict("lastblock-audit", "holds",
                        {"instances": total, "conclusion_holds": holds,
                         "hypothesis_violations": hypothesis_violations})


# ----------------------------------------------------------------------
# diagonal-zero witness and rank-one span
# ----------------------------------------------------------------------
def diagonal_zero_witness(fs: FieldSpec, n: int) -> Mat | None:
    """A matrix with zero diagonal and at least three distinct eigenvalues in
    F, showing the zero-diagonal space is not 2-spec (n >= 3, |F| > 2).
    Searched among companion matrices of trace-zero monic polynomials,
    which all live inside the zero-diagonal space; deterministic order."""
    for idx in range(fs.q ** (n - 1)):
        r = poly(digits(idx, fs.q, n - 1) + [0, 1])
        c = companion(r)
        if profile(fs, c).distinct_in_f >= 3:
            return c
    return None


def sl_rank1_span(fs: FieldSpec, n: int) -> MatSubspace:
    """Span of all trace-zero rank-1 tensors; equals sl_n."""
    gens = list(rank_one_trace_zero(fs, n))
    return MatSubspace.from_matrices(fs, (n, n), gens)
