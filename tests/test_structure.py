import random
from math import comb

import pytest

from char2spec.gf import GF2, GF4
from char2spec import matrix as mx
from char2spec import subspace as sub
from char2spec import upoly as up
from char2spec import constructions as cons
from char2spec import structure as st
from char2spec.spectra import profile

from oracles import all_monic


# ----------------------------------------------------------------------
# adapted scans
# ----------------------------------------------------------------------
def test_adapted_scan_nt3(gf4):
    rep = st.adapted_scan(gf4, cons.nt(gf4, 3))
    meets = {p.point: p.meet_dim for p in rep.points}
    assert meets[(0, 0, 1)] == 0          # e3 is adapted
    assert meets[(1, 0, 0)] > 0           # e1 is not: E_{1,2}-style tensors
    assert rep.counts()["points"] == 21


def test_adapted_scan_hurdle_and_full(gf4):
    for n in (3, 4):
        assert len(st.adapted_scan(gf4, cons.hurdle_template(gf4, n)).adapted) == 0
        assert len(st.adapted_scan(gf4, cons.full(gf4, n)).adapted) == 0


def test_adapted_scan_similarity_covariance(gf4):
    rng = random.Random(1)
    for n in (2, 3):
        s = sub.MatSubspace((n, n), sub.random_subspace(gf4, rng, n * n, 4))
        p = mx.random_invertible(gf4, rng, n)
        conj = cons.conjugate_space(gf4, s, p)
        for x in sub.enumerate_projective(gf4, n):
            px = mx.mat_vec(gf4, p, x)
            assert (st.adapted_meet_dim(gf4, s, x)
                    == st.adapted_meet_dim(gf4, conj, px))


def test_point_classification(gf4):
    rep = st.adapted_scan(gf4, cons.nt(gf4, 3))
    for p in rep.points:
        if p.meet_dim == 0:
            assert p.klass == "adapted"
        elif p.meet_dim == 1:
            assert p.klass == "weakly_adapted"
        else:
            assert p.klass == "neither"


# ----------------------------------------------------------------------
# hurdles
# ----------------------------------------------------------------------
def test_hurdle_tensor_space_dimension(gf4):
    for n in (3, 4, 5):
        plane = sub.span(gf4, n, [tuple(1 if i == n - 2 else 0 for i in range(n)),
                                  tuple(1 if i == n - 1 else 0 for i in range(n))])
        wp = st.hurdle_tensor_space(gf4, plane)
        assert wp.dim == 2 * n - 1
        assert wp == cons.hurdle_template(gf4, n)


def test_sl3_contains_every_hurdle_tensor_space(gf2, gf4):
    # In characteristic 2 every phi (x) y with phi(y) = 0 is trace-zero, so sl3
    # contains W_P for every dual plane P and detect_hurdle(sl3) finds one:
    # the reason the acceptance check on sl3 is red.
    for fs in (gf2, gf4):
        sl3 = cons.sl(fs, 3)
        planes = list(sub.enumerate_grassmannian(fs, 2, 3))
        assert len(planes) == fs.q ** 2 + fs.q + 1
        for plane in planes:
            assert sl3.contains_space(st.hurdle_tensor_space(fs, plane))


def test_detect_hurdle_on_template(gf4):
    for n in (3, 4):
        cert = st.detect_hurdle(gf4, cons.hurdle_template(gf4, n))
        assert cert is not None
        expect = sub.span(gf4, n, [tuple(1 if i == n - 2 else 0 for i in range(n)),
                                   tuple(1 if i == n - 1 else 0 for i in range(n))])
        assert cert.plane == expect
        assert cert.kernel.dim == n - 2


def test_detect_hurdle_on_conjugates(gf4):
    rng = random.Random(2)
    for n in (3, 4):
        tpl = cons.hurdle_template(gf4, n)
        for _ in range(5):
            s = cons.conjugate_space(gf4, tpl, mx.random_invertible(gf4, rng, n))
            cert = st.detect_hurdle(gf4, s)
            assert cert is not None
            assert st.certifies_hurdle(gf4, s, cert.plane)
            assert len(st.adapted_scan(gf4, s).adapted) == 0


def test_detect_hurdle_negatives(gf4):
    assert st.detect_hurdle(gf4, cons.nt(gf4, 3)) is None
    assert st.detect_hurdle(gf4, cons.b2m(gf4, 2)) is None
    # sl2 v sl2 is a hurdle
    assert st.detect_hurdle(gf4, cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))) is not None
    # in characteristic 2 every trace-zero tensor lies in sl_n, so sl_3
    # certifies for every dual plane (and accordingly has no adapted vector)
    cert = st.detect_hurdle(gf4, cons.sl(gf4, 3))
    assert cert is not None
    assert len(st.adapted_scan(gf4, cons.sl(gf4, 3)).adapted) == 0


def test_detect_hurdle_budget(gf4):
    with pytest.raises(sub.BudgetExceeded):
        st.detect_hurdle(gf4, cons.nt(gf4, 4), budget=10)


# ----------------------------------------------------------------------
# transitive rank and veils
# ----------------------------------------------------------------------
def test_transitive_rank_examples(gf4):
    for n in range(1, 6):
        assert st.transitive_rank(gf4, cons.full(gf4, n)) == n
    for n in range(2, 6):
        assert st.transitive_rank(gf4, cons.nt(gf4, n)) == n - 1
    # NT attains its rank at e_n
    basis = cons.nt(gf4, 4).basis_matrices()
    assert st.image_dim(gf4, basis, (0, 0, 0, 1)) == 3


def test_transitive_rank_rectangular(gf4):
    # operators F^2 -> F^3 spanned by two unit maps: every image is a plane
    gens = [mx.unit(3, 2, 0, 0), mx.unit(3, 2, 1, 1)]
    t = sub.MatSubspace.from_matrices(gf4, (3, 2), gens)
    assert st.transitive_rank(gf4, t) == 2
    assert st.is_intransitive(gf4, t)


def test_intransitivity_and_veil(gf4):
    n = 3
    into_e1 = sub.MatSubspace.from_matrices(
        gf4, (n, n), [mx.unit(n, n, 0, j) for j in range(n)])
    assert st.is_intransitive(gf4, into_e1)
    veil = st.find_intransitivity_veil(gf4, into_e1)
    assert veil is not None and veil.dim == n - 1
    assert veil.member((1, 0, 0))
    # an intransitive space is primitively intransitive when it has no
    # nonzero veil: into_e1 has one, the 2x2 alternating line has none
    alt2 = cons.alts(gf4, 2)
    assert st.is_intransitive(gf4, alt2)
    assert st.find_intransitivity_veil(gf4, alt2) is None
    assert not st.is_intransitive(gf4, cons.full(gf4, 2))


def test_alternating_space_is_intransitive(gf4):
    for n in (2, 3):
        alt = cons.alts(gf4, n)
        assert st.is_intransitive(gf4, alt)


def test_primitively_intransitive_dimension_bound(gf4):
    """Whenever an intransitive space has no nonzero veil (and |F| >= n),
    its dimension stays within n(n-1)/2."""
    rng = random.Random(3)
    audited = 0
    pool = []
    for n in (2, 3):
        pool.append((n, cons.alts(gf4, n)))
        for _ in range(10):
            p = mx.random_invertible(gf4, rng, n)
            pool.append((n, cons.conjugate_space(gf4, cons.alts(gf4, n), p)))
        for _ in range(20):
            d = rng.randrange(0, n * n)
            pool.append((n, sub.MatSubspace((n, n),
                                            sub.random_subspace(gf4, rng, n * n, d))))
    for n, t in pool:
        if not st.is_intransitive(gf4, t):
            continue
        if st.find_intransitivity_veil(gf4, t) is None:
            audited += 1
            assert t.dim <= comb(n, 2), (n, t.dim)
    assert audited > 0


# ----------------------------------------------------------------------
# alternators
# ----------------------------------------------------------------------
def test_alternator_identity_gram_for_alternating_space(gf4):
    for n in (2, 3, 4):
        t = cons.alts(gf4, n)
        gram = st.find_alternator(gf4, t)
        assert gram is not None
        assert st.is_alternator(gf4, t, gram)


def test_alternator_scalar_line(gf4):
    # odd size: alternating invertible Grams cannot exist
    t3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    assert st.find_alternator(gf4, t3) is None
    # even size: the standard symplectic Gram works
    t4 = sub.MatSubspace.from_matrices(gf4, (4, 4), [mx.identity(4)])
    gram = st.find_alternator(gf4, t4)
    assert gram is not None and st.is_alternator(gf4, t4, gram)


def test_alternator_requires_big_field():
    t = sub.MatSubspace.from_matrices(GF2, (2, 2), [mx.identity(2)])
    with pytest.raises(ValueError):
        st.find_alternator(GF2, t)


def test_alternator_mats_p_roundtrip(gf4):
    k = cons.k2m(gf4, 2)
    s = cons.mats_p(gf4, 4, k)
    perp = sub.trace_orthogonal(s)
    gram = st.find_alternator(gf4, perp)
    assert gram is not None
    assert st.is_alternator(gf4, perp, gram)
    assert mx.rank(gf4, gram) == 4


def test_alternator_sampled_grams_are_pinned(gf4):
    # a budget below q^dim of the Gram space makes the search sample it;
    # the pinned Grams fix the seeded sample stream and its coordinate order
    perp = sub.trace_orthogonal(cons.mats_p(gf4, 4, cons.k2m(gf4, 2)))
    swap = [0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0, 1, 0, 0]
    for seed, c in enumerate([2, 3, 2, 2, 2, 3, 1, 3, 1, 3, 1, 2]):
        gram = st.find_alternator(gf4, cons.alts(gf4, 3), budget=1, seed=seed)
        assert gram == mx.Mat(3, 3, [c if i % 4 == 0 else 0 for i in range(9)])
    for seed, c in [(0, 2), (1, 3), (5, 3)]:
        gram = st.find_alternator(gf4, perp, budget=3, samples=200, seed=seed)
        assert gram == mx.Mat(4, 4, [c * e for e in swap])
        assert st.is_alternator(gf4, perp, gram)
    # exhaustive within the budget: the first full-rank Gram in index order
    assert st.find_alternator(gf4, perp, budget=10) == mx.Mat(4, 4, swap)
    # no full-rank Gram exists: sampling gives up after its samples
    t3 = sub.MatSubspace.from_matrices(gf4, (3, 3), [mx.identity(3)])
    assert st.find_alternator(gf4, t3, budget=1, samples=50) is None


# ----------------------------------------------------------------------
# choice solver
# ----------------------------------------------------------------------
def test_choice_examples(gf4):
    m = mx.companion((0, 1, 1))  # t^2 + t
    r = st.choice_solve(gf4, m, (1, 1, 1), 1)
    assert r == mx.Mat(1, 1, (1,))
    # the trivial target admits the zero block
    assert st.choice_solve(gf4, m, mx.char_poly(gf4, m), 1) == mx.Mat(1, 1, (0,))


def test_choice_preconditions(gf4):
    m = mx.companion((0, 1, 0, 1))
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 1, 1, 1), 1)   # trace mismatch (tr M = 0)
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 1, 2), 1)      # not monic
    with pytest.raises(ValueError):
        st.choice_solve(gf4, m, (1, 0, 0, 1), 3)   # split out of range
    with pytest.raises(ValueError):
        st.choice_solve(gf4, mx.zero(3), (0, 0, 0, 1), 1)  # not regular Hessenberg


def test_choice_full_small_audit(gf4):
    m = mx.from_rows([[1, 2, 3], [1, 0, 1], [0, 2, 1]])
    tr = mx.trace(m)
    for a0 in range(4):
        for a1 in range(4):
            target = up.poly((a0, a1, tr, 1))
            for p in (1, 2):
                r = st.choice_solve(gf4, m, target, p)
                assert r is not None
                full = mx.mat_add(m, st._embed_block(3, p, r))
                assert mx.char_poly(gf4, full) == target


def test_choice_middle_split_and_budget(gf4):
    rng = random.Random(4)
    m = mx.from_rows([[1, 2, 3, 1], [2, 0, 1, 0], [0, 3, 1, 2], [0, 0, 1, 3]])
    assert mx.is_regular_hessenberg(m)
    tr = mx.trace(m)
    target = up.poly((2, 1, 0, tr, 1))
    r = st.choice_solve(gf4, m, target, 2)  # exhaustive path, 4^4 candidates
    assert r is not None
    full = mx.mat_add(m, st._embed_block(4, 2, r))
    assert mx.char_poly(gf4, full) == target
    big = mx.companion(up.poly((1, 0, 0, 0, 0, 1)))
    with pytest.raises(sub.BudgetExceeded):
        st.choice_solve(gf4, big, (1, 1, 0, 0, 0, 1), 2, budget=10)


def test_choice_works_over_gf2(gf2):
    for r in all_monic(gf2, 3):
        m = mx.companion((r[0] ^ 1, r[1], r[2], 1))
        if not mx.is_regular_hessenberg(m):
            continue
        for p in (1, 2):
            if r[2] != mx.trace(m):
                continue
            sol = st.choice_solve(gf2, m, r, p)
            assert sol is not None


# ----------------------------------------------------------------------
# covering / vanishing
# ----------------------------------------------------------------------
def test_covering_examples(gf4):
    fam = [sub.span(gf4, 2, [v]) for v in [(1, 0), (0, 1), (1, 1), (1, 2)]]
    assert st.covering_hypotheses(gf4, fam, 3) is None
    v = st.covering_check(gf4, fam)
    assert v.holds
    pt = tuple(v.detail["uncovered_point"])
    assert not any(s.member(pt) for s in fam)
    assert not st.covering_check(gf4, [sub.full_space(gf4, 2)]).holds
    assert st.covering_hypotheses(gf4, fam, 4) is not None  # |F| = r now


def test_vanishing_negative_example(gf4):
    # xy does not vanish off the two axes, so hypothesis (iii) must fail
    axes = [sub.span(gf4, 2, [(1, 0)]), sub.span(gf4, 2, [(0, 1)])]
    p = {(1, 1): 1}
    v = st.vanishing_check(gf4, p, 2, axes)
    assert v.outcome == "hypothesis-violation"
    assert "point" in v.detail


def test_eval_monomial_map_on_every_point(gf4):
    p = {(2, 0, 1): 3, (0, 0, 0): 2, (1, 1, 1): 1, (0, 3, 0): 0}
    for x in sub.full_space(gf4, 3).enumerate_elements():
        want = 0
        for mono, coef in p.items():
            term = coef
            for xi, e in zip(x, mono):
                term = gf4.mul(term, gf4.pow(xi, e))
            want ^= term
        assert st.eval_monomial_map(gf4, p, x) == want
        for mono in p:
            assert st.eval_monomial_map(gf4, {mono: 1}, x) == (
                gf4.mul(gf4.mul(gf4.pow(x[0], mono[0]), gf4.pow(x[1], mono[1])),
                        gf4.pow(x[2], mono[2])))


def test_vanishing_zero_poly_holds(gf4):
    fam = [sub.span(gf4, 3, [(1, 0, 0)])]
    v = st.vanishing_check(gf4, {}, 2, fam)
    assert v.holds


def test_vanishing_rejects_inhomogeneous(gf4):
    fam = [sub.span(gf4, 2, [(1, 0)])]
    v = st.vanishing_check(gf4, {(1, 0): 1, (0, 2): 1}, 1, fam)
    assert v.outcome == "hypothesis-violation"


# ----------------------------------------------------------------------
# splitting and confinement
# ----------------------------------------------------------------------
def test_splitting_modes(gf4):
    s2 = cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))
    cert = st.detect_hurdle(gf4, s2)
    v = st.splitting_check(gf4, s2, cert, mode="2spec", budget=1 << 16,
                           samples=2 * 10 ** 4, seed=1)
    assert v.holds and v.detail["mode"] == "sampled"
    h4 = cons.hurdle_template(gf4, 4)
    cert4 = st.detect_hurdle(gf4, h4)
    assert st.splitting_check(gf4, h4, cert4, mode="1star").holds
    assert st.splitting_check(gf4, h4, cert4, mode="2spec").holds
    with pytest.raises(ValueError):
        st.splitting_check(gf4, h4, cert4, mode="3spec")


def test_splitting_on_conjugated_hurdle(gf4):
    # the chart extraction must work when G is not spanned by basis vectors
    rng = random.Random(9)
    s = cons.joint(gf4, cons.sl(gf4, 2), cons.sl(gf4, 2))
    p = mx.random_invertible(gf4, rng, 4)
    conj = cons.conjugate_space(gf4, s, p)
    cert = st.detect_hurdle(gf4, conj)
    assert cert is not None
    v = st.splitting_check(gf4, conj, cert, mode="2spec", budget=1 << 14,
                           samples=3 * 10 ** 4, seed=2)
    assert v.holds


def test_splitting_hypothesis_violation(gf4):
    h4 = cons.hurdle_template(gf4, 4)
    cert4 = st.detect_hurdle(gf4, h4)
    spoiler = mx.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    bad = h4.sum_with(sub.MatSubspace.from_matrices(gf4, (4, 4), [spoiler]))
    v = st.splitting_check(gf4, bad, cert4, mode="2spec")
    assert v.outcome == "hypothesis-violation"
    # a certificate that the space does not contain is also a violation
    other_plane = sub.span(gf4, 4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    v = st.splitting_check(gf4, h4, st.HurdleCertificate(other_plane), mode="2spec")
    assert v.outcome == "hypothesis-violation"


def test_confinement_first(gf4):
    n = 3
    phi = (1, 0, 0)
    gens = [mx.tensor(gf4, phi, tuple(1 if j == i else 0 for j in range(n)))
            for i in range(n)]
    s = sub.MatSubspace.from_matrices(gf4, (n, n), gens)
    v = st.confinement_first_check(gf4, s, phi)
    assert v.holds
    # a space missing phi (x) V is a hypothesis violation
    v = st.confinement_first_check(gf4, cons.nt(gf4, 3), phi)
    assert v.outcome == "hypothesis-violation"


def test_confinement_second_minimal(gf4):
    n = 4
    h = sub.span(gf4, n, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    g = sub.span(gf4, n, [(1, 0, 0, 0), (0, 1, 0, 0)])
    z = st.second_confinement_generators(gf4, h, g)
    assert z.dim == 2 * n - 3
    v = st.confinement_second_check(gf4, z, h, g)
    assert v.holds
    # G inside H violates the hypotheses
    g_bad = sub.span(gf4, n, [(0, 1, 0, 0), (0, 0, 1, 0)])
    v = st.confinement_second_check(gf4, z, h, g_bad)
    assert v.outcome == "hypothesis-violation"


def test_confinement_third(gf4):
    t = st.third_confinement_template(gf4, 5)
    assert t.dim == 6 + 3
    v = st.confinement_third_check(gf4, t, budget=1 << 20)
    assert v.holds and v.detail["spec_mode"] == "exhaustive"
    with pytest.raises(ValueError):
        st.third_confinement_template(gf4, 4)


def test_lastblock(gf4):
    v = st.lastblock_audit(gf4)
    assert v.holds
    assert v.detail["instances"] == 315
    assert v.detail["conclusion_holds"] + v.detail["hypothesis_violations"] == 315
    # a tensor with nonzero last row and column violates the hypothesis
    a = mx.tensor(gf4, (1, 1, 1), (0, 1, 1))
    assert mx.trace(a) == 0 and mx.rank(gf4, a) == 1
    assert any(a[i, 2] for i in range(3)) and any(a[2, j] for j in range(3))
    vc = st.lastblock_check(gf4, a)
    assert vc.outcome == "hypothesis-violation"


def test_diagonal_zero_witness(gf4):
    for n in (3, 4, 5):
        w = st.diagonal_zero_witness(gf4, n)
        assert w is not None
        assert all(w[i, i] == 0 for i in range(n))
        assert profile(gf4, w).distinct_in_f >= 3


def test_diagonal_zero_impossible_over_gf2(gf2):
    # only two field elements: no companion matrix has three distinct roots
    assert st.diagonal_zero_witness(gf2, 3) is None


def test_sl_rank1_span(gf4):
    for n in (2, 3, 4):
        assert st.sl_rank1_span(gf4, n) == cons.sl(gf4, n)


def test_confinement_checkers_take_keyword_options(gf4):
    t = st.third_confinement_template(gf4, 5)
    v = st.confinement_third_check(gf4, t, budget=64, samples=300, seed=2)
    assert v.holds and v.detail == {"spec_mode": "sampled", "checked": 300}
    phi = (1, 0, 0)
    s = sub.MatSubspace.from_matrices(
        gf4, (3, 3), [mx.tensor(gf4, phi, tuple(int(i == j) for j in range(3)))
                      for i in range(3)])
    v = st.confinement_first_check(gf4, s, phi, budget=4, samples=200, seed=1)
    assert v.holds and v.detail == {"spec_mode": "sampled", "checked": 200}
    h = sub.span(gf4, 3, [(0, 1, 0), (0, 0, 1)])
    g = sub.span(gf4, 3, [(1, 0, 0)])
    z = st.second_confinement_generators(gf4, h, g)
    v = st.confinement_second_check(gf4, z, h, g, budget=1 << 20, samples=10, seed=3)
    assert v.holds
    a = mx.tensor(gf4, (0, 0, 1), (0, 1, 0))
    assert st.lastblock_check(gf4, a).outcome in ("holds", "hypothesis-violation")


def test_transrank_identity_on_samples(gf4):
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(2, 5)
        s = sub.MatSubspace((n, n), sub.random_subspace(gf4, rng, n * n,
                                                        rng.randrange(0, n * n + 1)))
        perp = sub.trace_orthogonal(s).basis_matrices()
        for x in sub.enumerate_projective(gf4, n):
            assert st.image_dim(gf4, perp, x) == n - s.intersect(st.range_space(gf4, x)).dim
