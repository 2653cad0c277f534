import hashlib
import json
import random
from collections import Counter

import numpy as np
import pytest

from char2spec.gf import GF2, GF4, GF8, FieldSpec, field_spec
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


def _digest(verdict) -> str:
    return hashlib.sha256(json.dumps(verdict.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", H.LEMMA_NAMES)
def test_lemma_reports_are_pinned(name):
    assert _digest(H.run_lemma(GF4, name, 20, 7)) == _PINNED_LEMMA_REPORTS[name]


def test_choice_audit_report_is_pinned():
    # the audit's seed picks the spot checks, which the report only counts
    assert _digest(H.choice_lemma_audit(GF4)) == _PINNED_LEMMA_REPORTS["choice-audit"]


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
