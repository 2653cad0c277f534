import pytest

from char2spec.gf import GF2, GF4, GF8, field_spec
from char2spec import harnesses as H


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
    v = H.choice_lemma_audit(GF4, n=3, cap=None, seed=0, spot_checks=8)
    assert v.holds
    assert v.detail["hessenberg_matrices"] == 4 ** 6 * 3 ** 2
    assert v.detail["failures"] == 0 and not v.detail["capped"]
    capped = H.choice_lemma_audit(GF4, n=3, cap=500, seed=0, spot_checks=4)
    assert capped.holds and capped.detail["capped"]
    assert capped.detail["hessenberg_matrices"] == 500


def test_choice_audit_refuses_bad_caps_and_wide_fields():
    for cap in (0, -3):
        with pytest.raises(ValueError, match=f"cap = {cap}"):
            H.choice_lemma_audit(GF4, n=3, cap=cap)
    # q^2 targets per matrix: refused above k = 8 before any work
    with pytest.raises(ValueError, match="k <= 8 only, got k = 9"):
        H.choice_lemma_audit(field_spec("gf2^9"), n=3, cap=10)


def test_confinement_third_harness():
    v = H.confinement_third_harness(GF4, n=5, budget=1 << 20)
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
