import hashlib
import json

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
