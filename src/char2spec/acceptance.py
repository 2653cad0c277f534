"""The acceptance suite: one function per criterion, a runner, and the
worker-count determinism comparison.

Each criterion function returns a JSON-able dict with an "outcome" of
"pass" or "fail" plus supporting detail.  The runner,
:func:`run_acceptance`, times each criterion and puts the time under
the "timing_ms" key, which the determinism comparison strips.  The criteria
pin their own fields (GF(4), GF(8), GF(2)); the runner's configuration
controls budgets, sample counts, seed and worker count.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, replace
from math import comb

from .gf import GF2, GF4, GF8, FieldSpec
from .matrix import Mat, inverse, min_poly, random_invertible, rank
from .subspace import trace_orthogonal
from .spectra import check_space, check_space_even_charpoly, parse_predicate, profile
from .structure import (adapted_scan, certifies_hurdle, detect_hurdle,
                        find_alternator, is_alternator, lastblock_audit,
                        third_confinement_template, confinement_third_check,
                        transitive_rank)
from . import constructions as cons
from . import harnesses as H
from .upoly import ONE, poly_divmod


@dataclass
class AcceptanceConfig:
    budget: int = 1 << 20
    samples: int = 10 ** 6
    seed: int = 0
    workers: int = 1


def _result(num: int, name: str, ok: bool, detail: dict) -> dict:
    return {"criterion": num, "name": name, "outcome": "pass" if ok else "fail",
            "detail": detail}


def criterion_1(cfg: AcceptanceConfig) -> dict:
    """Exact dimensions of every catalogue construction."""
    fs = GF4
    checks = []
    for n in range(1, 7):
        checks.append((f"dim nt{n}", cons.nt(fs, n).dim, comb(n, 2)))
    for n in range(2, 7):
        checks.append((f"dim sl2vnt{n - 2}", cons.sl2_joint_nt(fs, n).dim, comb(n, 2) + 2))
    checks.append(("dim sl2vsl2", cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2)).dim, 10))
    checks.append(("dim b2m2", cons.b2m(fs, 2).dim, 10))
    for n in (3, 5, 6):
        for k in range(0, n - 1):
            checks.append((f"dim line+nt{k}vsl2vnt{n - k - 2}",
                           cons.optimal_2bar(fs, n, k).dim, comb(n, 2) + 3))
    checks.append(("dim case_iv_n6", cons.case_iv_n6(fs).dim, 18))
    bad = [{"check": c, "got": g, "expected": e} for (c, g, e) in checks if g != e]
    return _result(1, "construction dimensions", not bad,
                   {"checks": len(checks), "failures": bad})


def criterion_2(cfg: AcceptanceConfig) -> dict:
    """Exhaustive spectrum verification over GF(4)."""
    fs = GF4
    jobs = [
        ("sl2", cons.sl(fs, 2), "1-spec"),
        ("sl2", cons.sl(fs, 2), "1bar-spec"),
        *((f"nt{n}", cons.nt(fs, n), "0bar*-spec") for n in range(1, 5)),
        ("sl2vnt2", cons.sl2_joint_nt(fs, 4), "1bar*-spec"),
        ("sl2vsl2", cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2)), "2bar-spec"),
        ("b2m2", cons.b2m(fs, 2), "2bar-spec"),
    ]
    rows = []
    ok = True
    for label, space, pred in jobs:
        v = check_space(fs, space, parse_predicate(pred), budget=cfg.budget,
                        samples=cfg.samples, seed=cfg.seed, workers=cfg.workers,
                        label=label)
        good = v.holds and v.mode == "exhaustive"
        ok = ok and good
        rows.append({"space": label, "pred": pred, "mode": v.mode,
                     "checked": v.checked, "outcome": v.outcome})
    return _result(2, "exhaustive spectrum verification", ok, {"checks": rows})


def criterion_3(cfg: AcceptanceConfig) -> dict:
    """Sampled spectrum verification at n = 5, 6 (>= 10^6 seeded samples)."""
    fs = GF4
    jobs = [
        ("sl2vnt3", cons.sl2_joint_nt(fs, 5), "1bar*-spec"),
        ("line+nt1vsl2vnt2", cons.optimal_2bar(fs, 5, 1), "2bar-spec"),
        ("case_iv_n6", cons.case_iv_n6(fs), "2bar-spec"),
    ]
    rows = []
    ok = True
    for label, space, pred in jobs:
        v = check_space(fs, space, parse_predicate(pred), budget=cfg.budget,
                        samples=max(cfg.samples, 10 ** 6), seed=cfg.seed,
                        workers=cfg.workers, label=label)
        good = v.holds and v.mode == "sampled" and v.checked >= 10 ** 6
        ok = ok and good
        rows.append({"space": label, "pred": pred, "mode": v.mode,
                     "checked": v.checked, "outcome": v.outcome})
    return _result(3, "sampled spectrum verification", ok, {"checks": rows})


def criterion_4(cfg: AcceptanceConfig) -> dict:
    """Even characteristic polynomials on the symplectic spaces."""
    jobs = [
        ("b2m1/gf4", GF4, cons.b2m(GF4, 1), cfg.budget, 0),
        ("b2m1/gf8", GF8, cons.b2m(GF8, 1), cfg.budget, 0),
        ("b2m2/gf4", GF4, cons.b2m(GF4, 2), 1, 10 ** 5),  # forced sampling
    ]
    rows = []
    ok = True
    for label, fs, space, budget, samples in jobs:
        v = check_space_even_charpoly(fs, space, budget=budget,
                                      samples=samples or cfg.samples,
                                      seed=cfg.seed, workers=cfg.workers, label=label)
        want_mode = "sampled" if samples else "exhaustive"
        good = v.holds and v.mode == want_mode and (not samples or v.checked >= samples)
        ok = ok and good
        rows.append({"space": label, "mode": v.mode, "checked": v.checked,
                     "outcome": v.outcome})
    return _result(4, "even characteristic polynomials", ok, {"checks": rows})


def _minpoly_is_t_a_tplus1_b(fs: FieldSpec, m: Mat) -> bool:
    mp = min_poly(fs, m)
    for factor in ((0, 1), (1, 1)):  # t and t + 1
        while len(mp) > 1:
            q, r = poly_divmod(fs, mp, factor)
            if r:
                break
            mp = q
    return mp == ONE


def criterion_5(cfg: AcceptanceConfig) -> dict:
    """GF(2) checks: upper-triangular spaces and the minimal-polynomial
    characterization on all of Mat_3."""
    fs = GF2
    rows = []
    ok = True
    for n in range(1, 5):
        space = cons.ut(fs, n)
        dim_ok = space.dim == comb(n + 1, 2)
        v = check_space(fs, space, parse_predicate("1bar*-spec"), budget=cfg.budget,
                        samples=cfg.samples, seed=cfg.seed, workers=cfg.workers)
        good = dim_ok and v.holds and v.mode == "exhaustive"
        ok = ok and good
        rows.append({"space": f"ut{n}", "dim_ok": dim_ok, "outcome": v.outcome,
                     "checked": v.checked})
    mism = 0
    full3 = cons.full(fs, 3)
    for m in full3.enumerate_elements():
        via_closure = profile(fs, m).distinct_nonzero_in_closure <= 1
        via_minpoly = _minpoly_is_t_a_tplus1_b(fs, m)
        if via_closure != via_minpoly:
            mism += 1
    ok = ok and mism == 0
    rows.append({"check": "mat3/f2 minpoly characterization", "matrices": 512,
                 "mismatches": mism})
    return _result(5, "GF(2) checks", ok, {"checks": rows})


def criterion_6(cfg: AcceptanceConfig) -> dict:
    """Lemma harnesses with hypothesis validation, zero conclusion failures."""
    fs = GF4
    rows = []
    ok = True
    for name in ("trace-ortho-1", "trace-ortho-2", "transrank", "covering", "vanishing",
                 "confinement-first", "splitting", "hurdle-dimension", "diagonal-zero"):
        v = H.run_lemma(fs, name, 200, cfg.seed, cfg.workers)
        ok = ok and v.holds
        rows.append({"harness": name, "outcome": v.outcome,
                     "instances": v.detail.get("instances")})
    return _result(6, "lemma harnesses", ok, {"checks": rows})


def criterion_7(cfg: AcceptanceConfig) -> dict:
    """Total choice-lemma audit over all regular Hessenberg 3x3 matrices."""
    v = H.choice_lemma_audit(GF4, n=3, cap=None, seed=cfg.seed)
    return _result(7, "choice lemma total audit", v.holds, v.detail)


def criterion_8(cfg: AcceptanceConfig) -> dict:
    """Structure procedures: hurdle detection positives/negatives, adapted
    scans on detected hurdles, and transitive ranks.

    Note: the sl3 expectation is recorded as stated even though, in
    characteristic 2, sl_3 contains every trace-zero rank-one tensor and
    therefore certifies as a hurdle for every dual plane; see README.
    """
    fs = GF4
    rng = random.Random(cfg.seed)
    rows = []
    ok = True
    for n in (3, 4, 5):
        template = cons.hurdle_template(fs, n)
        hits = 0
        scans_clean = True
        for i in range(21):
            s = template if i == 0 else cons.conjugate_space(
                fs, template, random_invertible(fs, rng, n))
            cert = detect_hurdle(fs, s)
            if cert is not None and certifies_hurdle(fs, s, cert.plane):
                hits += 1
                if n <= 4 and len(adapted_scan(fs, s).adapted) != 0:
                    scans_clean = False
        good = hits == 21 and scans_clean
        ok = ok and good
        rows.append({"check": f"hurdle detection n={n}", "hits": hits,
                     "expected": 21, "adapted_scans_clean": scans_clean})
    for label, space, expect_none in [
        ("nt3", cons.nt(fs, 3), True),
        ("sl3", cons.sl(fs, 3), True),
        ("b2m2", cons.b2m(fs, 2), True),
    ]:
        cert = detect_hurdle(fs, space)
        good = (cert is None) == expect_none
        ok = ok and good
        rows.append({"check": f"detect_hurdle({label}) is none",
                     "got_none": cert is None, "expected_none": expect_none,
                     "outcome": "pass" if good else "fail"})
    for n in range(1, 6):
        got_nt = transitive_rank(fs, cons.nt(fs, n))
        got_full = transitive_rank(fs, cons.full(fs, n))
        good = got_nt == n - 1 and got_full == n
        ok = ok and good
        rows.append({"check": f"trk n={n}", "trk_nt": got_nt, "trk_full": got_full})
    return _result(8, "structure procedures", ok, {"checks": rows})


def criterion_9(cfg: AcceptanceConfig) -> dict:
    """Symmetric-times-Gram spaces and their trace-dual alternators."""
    fs = GF4
    rng = random.Random(cfg.seed)
    rows = []
    ok = True
    found = 0
    for i in range(20):
        while True:
            entries = [[0] * 4 for _ in range(4)]
            for a in range(4):
                for b in range(a + 1, 4):
                    entries[a][b] = entries[b][a] = rng.randrange(fs.q)
            p = Mat(4, 4, [x for row in entries for x in row])
            if rank(fs, p) == 4:
                break
        s = cons.mats_p(fs, 4, p)
        perp = trace_orthogonal(s)
        gram = find_alternator(fs, perp)
        if gram is not None and is_alternator(fs, perp, gram):
            found += 1
        else:
            rows.append({"instance": i, "gram_found": gram is not None})
    ok = ok and found == 20
    rows.append({"check": "alternators found", "found": found, "expected": 20})
    eq = cons.b2m(fs, 2) == cons.mul_space_left(
        fs, inverse(fs, cons.k2m(fs, 2)), cons.syms(fs, 4))
    ok = ok and eq
    rows.append({"check": "b2m2 equals K^-1 * syms4 canonically", "equal": eq})
    return _result(9, "alternator round trip", ok, {"checks": rows})


def criterion_10(cfg: AcceptanceConfig) -> dict:
    """Third confinement instance at n = 5 plus the exhaustive 3x3 last-block
    audit."""
    fs = GF4
    v3 = confinement_third_check(fs, third_confinement_template(fs, 5),
                                 budget=cfg.budget, samples=cfg.samples,
                                 seed=cfg.seed, workers=cfg.workers)
    vlb = lastblock_audit(fs)
    ok = v3.holds and vlb.holds
    return _result(10, "third confinement and last-block audit", ok,
                   {"third": v3.to_json(), "lastblock": vlb.to_json()})


CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
            criterion_6, criterion_7, criterion_8, criterion_9, criterion_10]


def strip_timings(obj):
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "timing_ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def canonical_bytes(obj) -> bytes:
    return json.dumps(strip_timings(obj), sort_keys=True,
                      separators=(",", ":")).encode()


def criterion_11(cfg: AcceptanceConfig) -> dict:
    """Byte-identical reports (timings excluded) across 1, 4 and 8 workers."""
    worker_counts = [1, 4, 8]
    blobs = [canonical_bytes(run_acceptance(replace(cfg, workers=w), False))
             for w in worker_counts]
    ok = all(b == blobs[0] for b in blobs)
    return _result(11, "worker-count determinism", ok,
                   {"worker_counts": worker_counts, "identical": ok})


def _timed(criterion, cfg: AcceptanceConfig) -> dict:
    t0 = time.perf_counter()
    result = criterion(cfg)
    result["timing_ms"] = round(1000 * (time.perf_counter() - t0), 3)
    return result


def run_acceptance(cfg: AcceptanceConfig, with_determinism: bool = True) -> list[dict]:
    """Every criterion's result, in order, each timed under "timing_ms"."""
    criteria = CRITERIA + [criterion_11] if with_determinism else CRITERIA
    return [_timed(c, cfg) for c in criteria]
