import hashlib
import json
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from char2spec.gf import GF2, GF4, GF8, GF16, FieldSpec, field_spec
from char2spec import harnesses as H
from char2spec import structure as S
from char2spec import subspace as sub
from char2spec.structure import eval_monomial_map

import oracles


TRIALS = {"trace-ortho-1": 60, "trace-ortho-2": 60, "transrank": 40, "covering": 60,
          "vanishing": 60, "confinement-first": 40, "confinement-second": 15,
          "splitting": 25, "hurdle-dimension": 40}


@pytest.mark.parametrize("name,trials", [(name, TRIALS.get(name, 1)) for name in H.LEMMA_NAMES])
def test_harness_holds(name, trials):
    v = H.run_lemma(GF4, name, trials=trials, seed=13)
    assert v.holds, (name, v.to_json())


def test_every_harness_holds_or_refuses_its_setup_over_gf2():
    # a harness whose hypothesis needs |F| > 2 refuses the field before any
    # trial; none may report a lemma failure
    for name in H.LEMMA_NAMES:
        v = H.run_lemma(GF2, name, 2, 0)
        assert v.holds or (v.outcome == "hypothesis-violation" and "trial" not in v.detail), \
            (name, v.to_json())
    assert H.run_lemma(GF2, "diagonal-zero").to_json() == {
        "name": "diagonal-zero", "outcome": "hypothesis-violation",
        "detail": {"reason": "needs |F| > 2"}}


def test_lemma_registry_order():
    assert H.LEMMA_NAMES == [
        "covering", "vanishing", "trace-ortho-1", "trace-ortho-2", "transrank", "splitting",
        "confinement-first", "confinement-second", "confinement-third", "lastblock",
        "sl-rank1-span", "diagonal-zero", "hurdle-dimension", "choice-audit"]


def test_harnesses_are_seed_reproducible():
    a = H.transrank_harness(GF4, trials=20, seed=5)
    b = H.transrank_harness(GF4, trials=20, seed=5)
    assert a.to_json() == b.to_json()


def test_choice_audit_full_and_capped():
    v = H.choice_lemma_audit(GF4, n=3, cap=None, seed=0)
    assert v.holds
    assert v.detail["hessenberg_matrices"] == 4 ** 6 * 3 ** 2
    assert v.detail["failures"] == 0 and not v.detail["capped"]
    capped = H.choice_lemma_audit(GF4, n=3, cap=500, seed=0)
    assert capped.holds and capped.detail["capped"]
    assert capped.detail["hessenberg_matrices"] == 500


def test_choice_audit_refuses_bad_caps_and_wide_fields():
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"cap = {cap}"):
            H.choice_lemma_audit(GF4, n=3, cap=cap)
    for n in (0, 2, 4):
        with pytest.raises(ValueError, match=f"specialized to n = 3, got n = {n}"):
            H.choice_lemma_audit(GF4, n=n, cap=10)
    # q^2 targets per matrix: refused above k = 8 before any work
    with pytest.raises(ValueError, match="k <= 8 only, got k = 9"):
        H.choice_lemma_audit(field_spec("gf2^9"), n=3, cap=10)


def test_choice_audit_past_the_budget_raises_before_any_work(monkeypatch):
    # uncapped GF(16), GF(32) and GF(256) hold 16^6 15^2 ... 256^6 255^2
    # matrices, past the 2^24 budget
    def refuse(*args, **kwargs):
        raise AssertionError("the audit built matrices past the budget")
    monkeypatch.setattr(H, "_hessenberg_matrices", refuse)
    for name in ("gf16", "gf2^5", "gf2^8"):
        q = field_spec(name).q
        with pytest.raises(sub.BudgetExceeded) as info:
            H.choice_lemma_audit(field_spec(name))
        assert info.value.needed == q ** 6 * (q - 1) ** 2
        assert info.value.budget == sub.DEFAULT_BUDGET
    # the budget bounds the matrices audited, so a cap can bring a field within it
    with pytest.raises(sub.BudgetExceeded):
        H.choice_lemma_audit(field_spec("gf16"), cap=sub.DEFAULT_BUDGET + 1)
    with pytest.raises(AssertionError, match="built matrices"):
        H.choice_lemma_audit(field_spec("gf16"), cap=sub.DEFAULT_BUDGET)
    # GF(8) holds 8^6 7^2 = 12845056 matrices, within the budget
    with pytest.raises(AssertionError, match="built matrices"):
        H.choice_lemma_audit(GF8)
    # a smaller budget refuses a smaller audit
    with pytest.raises(sub.BudgetExceeded) as info:
        H.choice_lemma_audit(GF4, cap=1000, budget=999)
    assert (info.value.needed, info.value.budget) == (1000, 999)
    with pytest.raises(AssertionError, match="built matrices"):
        H.choice_lemma_audit(GF4, cap=1000, budget=1000)


def _reference_matrix(q: int, number: int) -> list[int]:
    # the audit's numbering in Python ints: base-q digits of the six upper
    # cells in row order, then base-(q - 1) digits, plus one, of the subdiagonal
    entries = [0] * 9
    for i, j in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]:
        number, entries[3 * i + j] = divmod(number, q)
    for i, j in [(1, 0), (2, 1)]:
        number, digit = divmod(number, q - 1)
        entries[3 * i + j] = digit + 1
    return entries


@pytest.mark.parametrize("k,count", [(1, 64), (2, 500), (3, 1000), (5, 50), (7, 5),
                                     (8, 1), (8, 3), (8, 1000)])
def test_choice_audit_sampling_decodes_in_uint64(k, count):
    # 256^6 255^2 > 2^63: at k = 8 the numbers i * (total // cap) pass int64,
    # and a signed decode raised OverflowError for every cap
    q = 1 << k
    total = q ** 6 * (q - 1) ** 2
    stride = total // count
    for lo, hi in ((0, min(count, 64)), (count - 1, count)):
        got = H._hessenberg_matrices(q, stride, lo, hi).reshape(hi - lo, 9).tolist()
        assert got == [_reference_matrix(q, i * stride) for i in range(lo, hi)]


def test_choice_audit_sees_a_broken_batch_kernel(monkeypatch):
    # sharpness control: with every characteristic polynomial read as x^3,
    # each matrix reaches one (c0, c1) of q^2 per split, 2 * 20 * 15 misses
    def zeros(fs, mats):
        return np.zeros((mats.shape[0], *mats.shape[2:]), dtype=mats.dtype)
    monkeypatch.setattr(H._bulk, "charpoly_planes", zeros)
    v = H.choice_lemma_audit(GF4, cap=20)
    assert v.outcome == "fails"
    assert (v.detail["solved"], v.detail["failures"]) == (40, 600)


def test_choice_audit_memory_is_bounded_by_its_batches():
    # the matrices go in batches of at most _AUDIT_PAIRS (matrix, block)
    # pairs: a whole-range audit traced 11.1 MiB at this cap
    tracemalloc.start()
    try:
        assert H.choice_lemma_audit(GF8, cap=1 << 17).holds
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# the seeded harnesses and the totals their holds detail carries
SEEDED_TOTALS = {
    "trace_ortho1_harness": (), "trace_ortho2_harness": (),
    "transrank_harness": ("points_checked",), "covering_harness": (),
    "vanishing_harness": ("polys_checked", "candidate_dims"),
    "confinement_first_harness": (), "confinement_second_harness": (),
    "splitting_harness": (), "hurdle_dimension_harness": ()}
_TRIAL_LOOP = H._trials


def _spy_on_trials(monkeypatch, fail_at=None):
    """Run the harnesses' trials through the one loop, recording each
    trial's verdict; the check of trial fail_at returns a failing probe."""
    seen = []

    def spied(name, trials, seed, instance, **totals):
        def checked(rng, t):
            verdict = instance(rng, t)
            if t == fail_at:
                verdict = S.LemmaVerdict("probe", "fails", {"probe": t})
            seen.append(verdict)
            return verdict
        return _TRIAL_LOOP(name, trials, seed, checked, **totals)

    monkeypatch.setattr(H, "_trials", spied)
    return seen


@pytest.mark.parametrize("harness,totals", SEEDED_TOTALS.items())
def test_the_trial_loop_tags_the_first_failure_and_sums_the_totals(monkeypatch, harness,
                                                                   totals):
    seen = _spy_on_trials(monkeypatch, fail_at=2)
    v = getattr(H, harness)(GF4, 6, 3)
    assert v.to_json() == {"name": "probe", "outcome": "fails",
                           "detail": {"probe": 2, "trial": 2}}
    assert len(seen) == 3
    seen = _spy_on_trials(monkeypatch)
    v = getattr(H, harness)(GF4, 3, 3)
    assert len(seen) == 3 and all(verdict.holds for verdict in seen)
    assert v.detail == {"instances": 3, "seed": 3,
                        **{key: sum(verdict.detail[key] for verdict in seen) for key in totals}}


def test_sl_rank1_span_past_the_budget_reports_budget(monkeypatch):
    # 63 + 4599 + 298935 tensors over GF(8) are within 2^24; GF(16) has
    # 17960925 and reports "budget" before building any
    def refuse(fs, n):
        raise AssertionError("the harness built tensors past the budget")
    monkeypatch.setattr(H, "sl_rank1_span", refuse)
    assert H.run_lemma(GF16, "sl-rank1-span").to_json() == {
        "name": "sl-rank1-span", "outcome": "budget",
        "detail": {"reason": "enumeration of 17960925 objects exceeds budget 16777216"}}
    with pytest.raises(AssertionError, match="built tensors"):
        H.sl_rank1_harness(GF8)


def test_confinement_third_harness():
    v = H.confinement_third_harness(GF4)
    assert v.holds


def test_unknown_lemma_name():
    with pytest.raises(ValueError):
        H.run_lemma(GF4, "not-a-lemma")


def test_trace_ortho2_details_are_pinned():
    for fs in (GF2, GF4, GF8):
        for seed in (0, 3, 17, 41):
            v = H.trace_ortho2_harness(fs, trials=40, seed=seed)
            assert v.to_json() == {"name": "trace-ortho-2", "outcome": "holds",
                                   "detail": {"instances": 40, "seed": seed}}


# sha256 of each report at 20 trials and seed 7, and of the full choice
# audit: the settings the harnesses fix as constants must reproduce them
_PINNED_LEMMA_REPORTS = {
    "covering": "823478216e50830bdab3fc1005e9fce7abb6f7ccf2ddd637a408e11d492203d2",
    "vanishing": "6e69dc0599f5e30e1ddbc2d3c083e9049dcfe7a9a85ef4f9646c0cda7bc8f5f6",
    "trace-ortho-1": "fc1ce514162ce2a4edf4e725d5e5a84861bb06da6da0ee802d6f879eb24229bc",
    "trace-ortho-2": "f913c07028b95bf9c06e46cbcb89ddeaa547baef8ce5c42fa6a4979dce13ed6e",
    "transrank": "1c3eb1be31ba75df61e3e5d73c12cdf73b0ab1284b5e1c44faf751857a3c5ba9",
    "splitting": "5a102e83f9bd6edf6b772a45571c8852ac3140b2c02fd065d03796a7172f6e44",
    "confinement-first": "777abcb7913deff0d9fa37b88c587fc5a197373bb03068878fe9b2f26d6c3d04",
    "confinement-second": "0fd2a990b4ce6a6dbdb1b352bc95d02e255e525517043bb1090a12f98a04ecf4",
    "confinement-third": "f02ec714784b85c6089b28f9c29fd64a02460e7c509d9f3a2786b9108be4b30a",
    "lastblock": "89a4984accc9b0c1a0dcade5dba093c5e38ba02ca1207e0f49e30bfa26381efa",
    "sl-rank1-span": "41081307f79bd139073da9ed3dbcbc8e41bc780187b8b1bfd86a6af31b2df220",
    "diagonal-zero": "46ee37925ef1bbcd8dba2170dbe4c468c2542d9eb7e11af57f19e2b5f31ec238",
    "hurdle-dimension": "e32350e851de815bda1683c9827bdd119ec99774a63baaef1e38a1f18664e233",
    "choice-audit": "6c82c2c09c1b8ce06175b0cbcd9080aeaf403adc6ef17c78d358f44a251d3b74",
}


def test_hurdle_roofs_are_within_their_bounds():
    # each instance of the hurdle-dimension harness lies in its roof, and
    # every roof's dimension is at most its bound: the harness cannot fail
    dims = {}
    for case in [(n, star, False) for n in (3, 4, 5) for star in (True, False)] + [(4, False, True)]:
        roof, bound, _ = H.hurdle_roof(GF4, *case)
        dims[case] = (roof.dim, bound)
    assert dims == {(3, True, False): (5, 5), (3, False, False): (6, 6),
                    (4, True, False): (8, 8), (4, False, False): (9, 10),
                    (4, False, True): (10, 10),
                    (5, True, False): (12, 12), (5, False, False): (13, 13)}
    assert all(dim <= bound for dim, bound in dims.values())


def _digest(verdict) -> str:
    return hashlib.sha256(json.dumps(verdict.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", H.LEMMA_NAMES)
def test_lemma_reports_are_pinned(name):
    assert _digest(H.run_lemma(GF4, name, 20, 7)) == _PINNED_LEMMA_REPORTS[name]


def test_choice_audit_report_is_pinned():
    # the audit's seed picks the spot checks, which the report only counts
    assert _digest(H.choice_lemma_audit(GF4)) == _PINNED_LEMMA_REPORTS["choice-audit"]


def test_choice_audit_reports_are_pinned_over_gf2_and_gf8():
    # pinned before the audit tried blocks in place of solving for targets
    assert _digest(H.choice_lemma_audit(GF2)) == \
        "76fa22459eb946c3d5ca1dfad4302d57e281d6b02ff15c974de93296597386cd"
    assert _digest(H.choice_lemma_audit(GF8, cap=1000)) == \
        "04d5bd86dd91f14ffe2755a1240e9b73e2ba1985d2568986d7f85d73a18653c7"


def _points(fs, n):
    return np.concatenate(list(sub.projective_blocks(fs, n)))


def test_transrank_sides_match_scalar_oracle():
    for fs, sizes in ((GF2, (2, 3, 4)), (GF4, (2, 3, 4)), (GF8, (2, 3)),
                      (FieldSpec(9), (1, 2))):
        for seed in (0, 1, 2):
            for s in oracles.operator_spaces(fs, random.Random(seed), [(n, n) for n in sizes], 4):
                x, lhs, rhs = map(np.concatenate, zip(*H.transrank_sides(fs, s)))
                points, want_lhs, want_rhs = oracles.transrank_sides(fs, s)
                assert [tuple(p) for p in x.tolist()] == points
                assert lhs.tolist() == want_lhs and rhs.tolist() == want_rhs


def test_transrank_failure_names_the_first_mismatch(monkeypatch):
    # break the right side at points 4 and 9 of every 3 x 3 trial: the
    # harness stops at the first such trial and names point 4
    real = H.transrank_sides
    sizes = []

    def broken(fs, s):
        sizes.append(s.shape[0])
        for x, lhs, rhs in real(fs, s):
            if s.shape[0] == 3:
                rhs = rhs.copy()
                rhs[[4, 9]] += 1
            yield x, lhs, rhs

    monkeypatch.setattr(H, "transrank_sides", broken)
    v = H.transrank_harness(GF4, trials=20, seed=7)
    assert v.outcome == "fails"
    assert v.detail["trial"] == len(sizes) - 1 == sizes.index(3)
    assert v.detail["point"] == list(list(sub.enumerate_projective(GF4, 3))[4])
    assert v.detail["rhs"] == v.detail["lhs"] + 1


def _families(fs, rng, count):
    """Admissible vanishing families for n = 2 and 3, drawn as the harness
    draws them, with a degree d for each."""
    for _ in range(count):
        n = 2 + rng.randrange(2)
        d = rng.randrange(1, min(3, fs.q - 1 if n == 2 else fs.q) + 1)
        family = [sub.random_subspace(fs, rng, n, k)
                  for k in range(1, n - 1) for _ in range(rng.randrange(fs.q))]
        family += [sub.random_subspace(fs, rng, n, n - 1)
                   for _ in range(rng.randrange(fs.q - d + 1))]
        yield n, d, family or [sub.random_subspace(fs, rng, n, 1)]


def test_vanishing_solutions_match_scalar_oracle():
    for fs in (GF2, GF4, GF8):
        for seed in (0, 1, 2):
            for n, d, family in _families(fs, random.Random(seed), 15):
                monos = H._monomials(n, d)
                assert (H.vanishing_solutions(fs, family, monos, _points(fs, n))
                        == oracles.vanishing_solutions(fs, family, monos))
    # GF(2^9), n = 2: the oracle walks all 2^18 points, so one family of
    # two lines and d = 1 (monomial_values is checked at k = 9 below)
    fs = FieldSpec(9)
    family = [sub.random_subspace(fs, random.Random(3), 2, 1) for _ in range(2)]
    monos = H._monomials(2, 1)
    assert (H.vanishing_solutions(fs, family, monos, _points(fs, 2))
            == oracles.vanishing_solutions(fs, family, monos))


@pytest.mark.parametrize("fs", [GF4, GF8], ids=["gf4", "gf8"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_vanishing_bound_is_sharp(fs, d):
    """Sharpness control at n = 2: with |F| - d hyperplanes (lines of F^2)
    only p = 0 vanishes off the union; with one line more, the product of
    the linear forms of the d lines left out does, and vanishing_check
    names the broken hypothesis.  A solver that always returned 0 would
    still let the harness report "holds"; it fails here."""
    lines = [sub.line(fs, (1, 0))] + [sub.line(fs, (c, 1)) for c in range(fs.q)]
    monos = H._monomials(2, d)
    x = _points(fs, 2)
    assert H.vanishing_solutions(fs, lines[:fs.q - d], monos, x).dim == 0
    family = lines[:fs.q - d + 1]
    solutions = H.vanishing_solutions(fs, family, monos, x)
    assert solutions.dim == 1
    p = {mono: c for mono, c in zip(monos, solutions.basis[0]) if c}
    outside = x[~S.union_mask(fs, family, x)].tolist()
    assert len(outside) == d and all(eval_monomial_map(fs, p, pt) == 0 for pt in outside)
    assert any(eval_monomial_map(fs, p, pt) for pt in x.tolist())
    v = S.vanishing_check(fs, p, d, family)
    assert v.outcome == "hypothesis-violation"
    assert v.detail["reason"] == f"{fs.q - d + 1} hyperplanes > |F|-d"


@pytest.mark.parametrize("fs", [GF2, GF4, GF8], ids=["gf2", "gf4", "gf8"])
def test_covering_bound_is_sharp(fs):
    """Sharpness control: the q + 1 lines of F^2 cover it, one past the q
    lines that the hypotheses allow (r = q - 1); without the last line,
    span((0, 1)), exactly that line's points stay uncovered.  In F^3, q
    lines and the q + 1 planes through span(e3) cover the space, and the
    hypotheses name |F| <= r.  A covering_check that skipped a family
    member would report "holds" on a covering family; it fails here."""
    too_many = f"|F| = {fs.q} is not greater than r = {fs.q}"
    lines = [sub.line(fs, (1, c)) for c in range(fs.q)] + [sub.line(fs, (0, 1))]
    v = S.covering_check(fs, lines)
    assert (v.outcome, v.detail) == ("fails", {"covers": True})
    assert S.covering_hypotheses(fs, lines, fs.q) == too_many
    v = S.covering_check(fs, lines[:-1])
    assert (v.outcome, v.detail) == ("holds", {"uncovered_point": [0, 1]})
    assert S.covering_hypotheses(fs, lines[:-1], fs.q - 1) is None
    family = ([sub.line(fs, (1, c, 0)) for c in range(fs.q)]
              + [sub.span(fs, 3, [(1, c, 0), (0, 0, 1)]) for c in range(fs.q)]
              + [sub.span(fs, 3, [(0, 1, 0), (0, 0, 1)])])
    v = S.covering_check(fs, family)
    assert (v.outcome, v.detail) == ("fails", {"covers": True})
    assert S.covering_hypotheses(fs, family, fs.q) == too_many


def test_monomial_values_match_scalar_evaluation():
    for fs, n, d in ((GF2, 3, 3), (GF4, 3, 3), (GF8, 2, 4), (FieldSpec(9), 2, 3)):
        x = _points(fs, n)
        x = np.concatenate([x, np.zeros((1, n), dtype=x.dtype)])
        monos = [m for e in range(d + 1) for m in H._monomials(n, e)]
        got = H.monomial_values(fs, x, monos).tolist()
        assert got == [[eval_monomial_map(fs, {m: 1}, p) for m in monos] for p in x.tolist()]


def _covering_families(fs, rng, count, n_max=4):
    """Random families of 1 to q + 2 members of every dimension, drawn
    for n = 1 .. n_max."""
    for _ in range(count):
        n = rng.randrange(1, n_max + 1)
        yield [sub.random_subspace(fs, rng, n, rng.randrange(n + 1))
               for _ in range(rng.randrange(1, fs.q + 3))]


def test_union_mask_matches_membership():
    for fs, n_max in ((GF2, 4), (GF4, 4), (FieldSpec(9), 2)):
        for family in _covering_families(fs, random.Random(fs.q + 1), 20, n_max):
            n = family[0].ambient
            x = _points(fs, n)
            want = [any(v.member(p) for v in family) for p in x.tolist()]
            assert S.union_mask(fs, family, x).tolist() == want


def test_harness_draws_are_pinned(monkeypatch):
    # the reports at GF(4), seed 7 and 20 trials carry no instance sizes,
    # so the sizes the covering (n) and vanishing (n, d) harnesses draw are
    # pinned here
    covering, vanishing = Counter(), Counter()
    check, solutions = H.covering_check, H.vanishing_solutions

    def count_covering(fs, family):
        covering[family[0].ambient] += 1
        return check(fs, family)

    def count_vanishing(fs, family, monos, x):
        vanishing[family[0].ambient, sum(monos[0])] += 1
        return solutions(fs, family, monos, x)

    monkeypatch.setattr(H, "covering_check", count_covering)
    monkeypatch.setattr(H, "vanishing_solutions", count_vanishing)
    assert H.run_lemma(GF4, "covering", 20, 7).holds
    assert H.run_lemma(GF4, "vanishing", 20, 7).holds
    assert covering == {2: 7, 3: 8, 4: 5}
    assert vanishing == {(2, 1): 5, (2, 2): 2, (2, 3): 4, (3, 1): 3, (3, 2): 2, (3, 3): 4}
