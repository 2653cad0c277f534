"""The four workloads of the char2spec benchmark.

A run is a sequence of rounds.  Each round is a list of ops generated
from the workload seed and the round number, so the same seed always
gives the same inputs.  An op is one call into the library; the runner
times each call alone and checks its result after the round ends.

Why these workloads (each names the layer it stresses and the workload
on which a change to that layer should show no effect):

- ``scan-exhaustive``: the bulk pipeline does almost all the work
  (``exhaustive_coords`` -> ``elements_from_coords`` ->
  ``batch_charpoly`` -> full-table ``root_counts``).  Projective scans
  and bit-sliced kernels act here.  The two failing spaces exercise the
  early exit and the minimal-witness rule, which a projective scan must
  keep exact.  Predicted no-change workload for the sampling and
  sparse-cache layers.
- ``scan-sampled``: stresses ``sample_coords``, the sparse root-count
  cache with ``upoly`` root counting (GF(16), n = 5, almost every
  polynomial new), the scalar path for k > 8 and the thread pool.
  Projective scans leave it untouched: predicted no change.
- ``lemma-structure``: scalar subspace linear algebra (``rref_rows``,
  ``intersect``, ``member``, Grassmannian and projective enumeration)
  dominates; the bulk kernels do little here, so it is the no-change
  workload for kernel work.  Fusing the duplicate scan in
  ``splitting_check`` shows here.
- ``cli-small``: fixed per-call cost of the command line (argument and
  construction parsing, table lookups, chunk set-up, JSON emission) on
  calls of a few milliseconds.  Large scans hide these costs; a kernel
  change that adds per-call packing cost slows this workload.

Inputs vary with the seed and the round in ways that keep the amount of
work steady: holding spaces are conjugated by a seeded invertible matrix
(which keeps every characteristic polynomial), sample streams, harness
families and hurdle conjugates take seeded seeds, and the command-line
calls run in a seeded order.  The failing exhaustive spaces are fixed,
because the depth of their first failure sets how much they scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from char2spec import _bulk, acceptance, cli, harnesses, spectra, structure
from char2spec import constructions as cons
from char2spec.gf import GF2, GF4, GF8, GF16, FieldSpec, field_spec
from char2spec.matrix import Mat, mat_from_json, random_invertible, unit
from char2spec.subspace import MatSubspace

NAMES = ("scan-exhaustive", "scan-sampled", "lemma-structure", "cli-small")

# Criterion 3 pins this budget so that the n = 5, 6 spaces over GF(4) are
# sampled; the sampled workload uses it for every op.
SAMPLED_BUDGET = 1 << 20

GF512 = field_spec("gf2^9")
GF1024 = field_spec("gf2^10")


@dataclass
class Op:
    """One library call.

    key:     entry in expected.json; the same for every seed.
    call:    the timed call.
    observe: result -> (fields compared with expected.json, elements the
             result reports as scanned, problems found by re-checking the
             result independently).
    bulk:    most of the call's time goes to numpy batch kernels, not to
             the interpreter (selects the speed probe that scales it).
    """
    key: str
    call: Callable[[], Any]
    observe: Callable[[Any], tuple[dict, int, list[str]]]
    bulk: bool = False


def round_rng(workload: str, seed: int, rnd: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{rnd}")


# ----------------------------------------------------------------------
# spectrum scans
# ----------------------------------------------------------------------
def _violates(fs: FieldSpec, pred, w: Mat) -> bool:
    """Independent re-check of a witness through spectra.profile."""
    prof = spectra.profile(fs, w)
    if pred is None:
        return any(c != 0 for c in prof.char_poly[1::2])
    return pred.count(prof) > pred.k


def _scan_op(key: str, fs: FieldSpec, space: MatSubspace, pred_text: str | None,
             fields: tuple[str, ...], bulk: bool, **kw) -> Op:
    pred = None if pred_text is None else spectra.parse_predicate(pred_text)
    if pred is None:
        def call():
            return spectra.check_space_even_charpoly(fs, space, **kw)
    else:
        def call():
            return spectra.check_space(fs, space, pred, **kw)

    def observe(v):
        problems = []
        if v.witness is not None:
            if not _violates(fs, pred, v.witness):
                problems.append("witness does not violate the predicate")
            if v.mode == "exhaustive" and space.element_at(v.witness_index) != v.witness:
                problems.append("witness is not the element at witness_index")
        elif v.outcome != "holds":
            problems.append("failing verdict without a witness")
        got = {"outcome": v.outcome, "mode": v.mode, "checked": v.checked,
               "witness_index": v.witness_index}
        return {f: got[f] for f in fields}, v.checked, problems
    return Op(key, call, observe, bulk)


ALL_FIELDS = ("outcome", "mode", "checked", "witness_index")

# (key, field, space builder, predicate or None for even-charpoly, conjugate)
_EXHAUSTIVE = [
    ("sl2vsl2/gf4/2bar-spec", GF4, lambda fs: cons.joint(fs, cons.sl(fs, 2), cons.sl(fs, 2)),
     "2bar-spec", True),
    ("b2m2/gf4/2bar-spec", GF4, lambda fs: cons.b2m(fs, 2), "2bar-spec", True),
    ("nt4/gf8/0bar*-spec", GF8, lambda fs: cons.nt(fs, 4), "0bar*-spec", True),
    ("ut4/gf2/1bar*-spec", GF2, lambda fs: cons.ut(fs, 4), "1bar*-spec", True),
    ("b2m1/gf8/even-charpoly", GF8, lambda fs: cons.b2m(fs, 1), None, True),
    # first failure at index 294 912 of 2^21: five 2^16-element chunks deep
    ("nt4+E32/gf8/0bar*-spec", GF8, lambda fs: _plus_unit(fs, cons.nt(fs, 4), 3, 2),
     "0bar*-spec", False),
    # first failure in the first chunk
    ("nt4+E10/gf8/0bar*-spec", GF8, lambda fs: _plus_unit(fs, cons.nt(fs, 4), 1, 0),
     "0bar*-spec", False),
]


def _plus_unit(fs: FieldSpec, s: MatSubspace, i: int, j: int) -> MatSubspace:
    n = s.shape[0]
    return s.sum_with(MatSubspace.from_matrices(fs, (n, n), [unit(n, n, i, j)]))


def scan_exhaustive_ops(seed: int, rnd: int) -> list[Op]:
    rng = round_rng("scan-exhaustive", seed, rnd)
    ops = []
    for key, fs, build, pred, conj in _EXHAUSTIVE:
        space = build(fs)
        if conj:
            space = cons.conjugate_space(fs, space, random_invertible(fs, rng, space.shape[0]))
        ops.append(_scan_op(key, fs, space, pred, ALL_FIELDS, True, workers=1))
    rng.shuffle(ops)
    return ops


# (key, field, space builder, predicate or None, samples).  Only the GF(4)
# ops are bound by the batch kernels, which release the interpreter lock,
# so only they run on the thread pool: over GF(16) nearly every polynomial
# is a sparse-cache miss counted in upoly, and k > 8 takes the scalar
# path, both bound by the interpreter (a second thread only adds lock
# contention, and made these ops' times swing from run to run).
_SAMPLED = [
    ("sl2vnt3/gf4/1bar*-spec", GF4, lambda fs: cons.sl2_joint_nt(fs, 5), "1bar*-spec", 150_000),
    ("line+nt1vsl2vnt2/gf4/2bar-spec", GF4, lambda fs: cons.optimal_2bar(fs, 5, 1),
     "2bar-spec", 150_000),
    ("case_iv_n6/gf4/2bar-spec", GF4, cons.case_iv_n6, "2bar-spec", 150_000),
    ("full5/gf16/5bar-spec", GF16, lambda fs: cons.full(fs, 5), "5bar-spec", 20_000),
    ("ut5/gf16/5-spec", GF16, lambda fs: cons.ut(fs, 5), "5-spec", 20_000),
    ("nt3/gf2^9/0bar*-spec", GF512, lambda fs: cons.nt(fs, 3), "0bar*-spec", 400),
    ("full3/gf2^9/1-spec", GF512, lambda fs: cons.full(fs, 3), "1-spec", 400),
    ("sl2/gf2^10/1bar-spec", GF1024, lambda fs: cons.sl(fs, 2), "1bar-spec", 400),
    ("b2m1/gf2^10/even-charpoly", GF1024, lambda fs: cons.b2m(fs, 1), None, 400),
]


def scan_sampled_ops(seed: int, rnd: int, workers: int) -> list[Op]:
    rng = round_rng("scan-sampled", seed, rnd)
    ops = []
    for key, fs, build, pred, samples in _SAMPLED:
        # the k > 8 sample stream is due to change on purpose (uniform
        # coordinates), so only the outcome is pinned there
        fields = ALL_FIELDS if fs.degree <= 8 else ("outcome",)
        bulk = fs is GF4
        ops.append(_scan_op(key, fs, build(fs), pred, fields, bulk, budget=SAMPLED_BUDGET,
                            samples=samples, seed=rng.randrange(1 << 31),
                            workers=workers if bulk else 1))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# lemma harnesses, audits and structure procedures
# ----------------------------------------------------------------------
# Trial counts are cut from criterion 6 so that a round takes a few
# seconds; each round draws fresh harness seeds and conjugates.  The
# costly harnesses run as several short calls, each with its own seed, so
# that the speed probes between calls follow the machine closely.
HARNESS_TRIALS = {   # harness: (calls per round, trials per call)
    "trace_ortho1_harness": (1, 200),
    "trace_ortho2_harness": (1, 200),
    "covering_harness": (1, 200),
    "vanishing_harness": (1, 200),
    "transrank_harness": (4, 4),
    "confinement_first_harness": (4, 4),
    "confinement_second_harness": (4, 2),
    "splitting_harness": (5, 2),
    "hurdle_dimension_harness": (5, 2),
}
DETECT_CONJUGATES = {3: 21, 4: 21, 5: 5}


def _verdict_op(key: str, call, detail_keys: tuple[str, ...]) -> Op:
    def observe(v):
        got = {"outcome": v.outcome}
        got.update({k: v.detail.get(k) for k in detail_keys})
        return got, int(v.detail.get("checked", 0)), []
    return Op(key, call, observe)


def _detect_op(key: str, fs: FieldSpec, space: MatSubspace) -> Op:
    def call():
        return structure.detect_hurdle(fs, space)

    def observe(cert):
        problems = []
        if cert is not None and not structure.certifies_hurdle(fs, space, cert.plane):
            problems.append("certificate does not certify")
        return {"found": cert is not None}, 0, problems
    return Op(key, call, observe)


def _adapted_op(key: str, fs: FieldSpec, space: MatSubspace) -> Op:
    def call():
        return structure.adapted_scan(fs, space)

    def observe(report):
        return {"counts": report.counts()}, 0, []
    return Op(key, call, observe)


def _trk_op(key: str, fs: FieldSpec, space: MatSubspace) -> Op:
    def call():
        return structure.transitive_rank(fs, space)

    def observe(trk):
        return {"trk": trk}, 0, []
    return Op(key, call, observe)


def lemma_structure_ops(seed: int, rnd: int) -> list[Op]:
    rng = round_rng("lemma-structure", seed, rnd)
    fs = GF4
    ops = []
    for name, (calls, trials) in HARNESS_TRIALS.items():
        for _ in range(calls):
            hs = rng.randrange(1 << 31)
            ops.append(_verdict_op(
                f"harness/{name}",
                lambda fn=name, t=trials, hs=hs: getattr(harnesses, fn)(fs, t, hs),
                ("instances",)))
    hs = rng.randrange(1 << 31)
    ops.append(_verdict_op("audit/choice_lemma_audit(n=3)",
                           lambda hs=hs: harnesses.choice_lemma_audit(fs, n=3, seed=hs),
                           ("hessenberg_matrices", "solved", "failures")))
    ops.append(_verdict_op("audit/lastblock_audit",
                           lambda: structure.lastblock_audit(fs),
                           ("instances", "conclusion_holds", "hypothesis_violations")))
    hs = rng.randrange(1 << 31)
    ops.append(_verdict_op("audit/confinement_third_harness",
                           lambda hs=hs: harnesses.confinement_third_harness(fs, seed=hs),
                           ("spec_mode", "checked")))
    for n, count in DETECT_CONJUGATES.items():
        template = cons.hurdle_template(fs, n)
        for i in range(count):
            s = template if i == 0 else cons.conjugate_space(
                fs, template, random_invertible(fs, rng, n))
            ops.append(_detect_op(f"detect_hurdle/hurdle{n}", fs, s))
            if n <= 4:
                ops.append(_adapted_op(f"adapted_scan/hurdle{n}", fs, s))
            ops.append(_trk_op(f"transitive_rank/hurdle{n}", fs, s))
    for label in ("nt3", "sl3", "b2m2"):
        ops.append(_detect_op(f"detect_hurdle/{label}", fs, cons.build(fs, label)))
    for n in range(1, 6):
        for label in (f"nt{n}", f"full{n}"):
            ops.append(_trk_op(f"transitive_rank/{label}", fs, cons.build(fs, label)))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
_CLI_FIXED = [
    *(["verify", "--field", f, "--construction", c, "--pred", p] for f, c, p in [
        ("gf2", "ut4", "1bar*-spec"),
        ("gf2", "nt4", "0bar*-spec"),
        ("gf2", "full3", "2-spec"),
        ("gf2", "sl3", "1bar-spec"),
        ("gf4", "nt3", "0bar*-spec"),
        ("gf4", "nt4", "0bar*-spec"),
        ("gf4", "sl2", "1bar-spec"),
        ("gf4", "sl2", "1-spec"),
        ("gf4", "full2", "2-spec"),
        ("gf4", "hurdle3", "2bar-spec"),
        ("gf4", "joint(sl2,nt1)", "1bar*-spec"),
        ("gf4", "b2m1", "2bar-spec"),
        ("gf8", "nt3", "0bar*-spec"),
        ("gf8", "sl2", "1bar-spec"),
        ("gf8", "full2", "1-spec"),
        ("gf16", "sl2", "1bar-spec"),
        ("gf16", "nt3", "0bar*-spec"),
        ("gf16", "full2", "2bar-spec"),
    ]),
    *(["detect-hurdle", "--construction", c]
      for c in ("hurdle3", "hurdle4", "nt3", "nt4", "joint(sl2,sl2)", "sl3")),
    *(["scan-adapted", "--construction", c] for c in ("hurdle3", "hurdle4", "nt3", "b2m2")),
    *(["trk", "--construction", c] for c in ("nt4", "b2m2", "hurdle4", "full3", "sl3")),
]
CLI_LEMMAS = ("covering", "vanishing", "trace-ortho-1", "trace-ortho-2")
CLI_LEMMA_SEEDS = range(8)
CLI_SEEDS_PER_LEMMA = 2


def cli_lemma_argv(name: str, lemma_seed: int) -> list[str]:
    return ["lemma", "--name", name, "--trials", "20", "--seed", str(lemma_seed)]


def cli_all_argvs() -> list[list[str]]:
    """Every distinct call the workload can make (expected.json has one
    entry for each)."""
    return [list(a) for a in _CLI_FIXED] + [
        cli_lemma_argv(name, s) for name in CLI_LEMMAS for s in CLI_LEMMA_SEEDS]


def _report_digest(report: dict) -> str:
    return hashlib.sha256(acceptance.canonical_bytes(report)).hexdigest()[:20]


def cli_op(argv: list[str], out_path: str) -> Op:
    def call():
        return cli.main(argv + ["--out", out_path])

    def observe(code):
        problems = []
        try:
            with open(out_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError) as exc:
            return {"exit": code, "report": None}, 0, [f"no report: {exc}"]
        finally:
            if os.path.exists(out_path):
                os.remove(out_path)
        elements = 0
        if report.get("command") == "verify":
            fs = field_spec(report["config"]["field"])
            pred = spectra.parse_predicate(report["config"]["pred"])
            for check in report["checks"]:
                elements += check["checked"]
                if "witness" in check and not _violates(fs, pred, mat_from_json(check["witness"])):
                    problems.append("witness does not violate the predicate")
        return {"exit": code, "report": _report_digest(report)}, elements, problems
    return Op(" ".join(argv), call, observe)


def cli_small_ops(seed: int, rnd: int, out_dir: str) -> list[Op]:
    rng = round_rng("cli-small", seed, rnd)
    argvs = [list(a) for a in _CLI_FIXED]
    for name in CLI_LEMMAS:
        argvs += [cli_lemma_argv(name, s) for s in rng.sample(CLI_LEMMA_SEEDS, CLI_SEEDS_PER_LEMMA)]
    rng.shuffle(argvs)
    return [cli_op(argv, os.path.join(out_dir, f"op{i}.json")) for i, argv in enumerate(argvs)]


# ----------------------------------------------------------------------
# set-up: fixed tables each workload uses
# ----------------------------------------------------------------------
# (field, matrix size) pairs whose full spectrum tables the workload reads;
# set-up builds them, as a long-running user would have them built.
TABLES = {
    "scan-exhaustive": [(GF2, 4), (GF4, 4), (GF8, 4)],
    "scan-sampled": [(GF4, 5), (GF4, 6), (GF16, 5)],
    "lemma-structure": [(GF4, 2), (GF4, 3), (GF4, 4), (GF4, 5)],
    "cli-small": [(GF2, 2), (GF2, 3), (GF2, 4), (GF4, 2), (GF4, 3), (GF4, 4),
                  (GF8, 2), (GF8, 3), (GF16, 2), (GF16, 3)],
}


def warm_tables(workload: str) -> None:
    for fs, n in TABLES[workload]:
        fs.mul_table_np()
        if fs.q ** n <= 1 << 16:
            _bulk.spectrum_tables(fs, n)


def make_ops(workload: str, seed: int, rnd: int, workers: int, out_dir: str) -> list[Op]:
    if workload == "scan-exhaustive":
        return scan_exhaustive_ops(seed, rnd)
    if workload == "scan-sampled":
        return scan_sampled_ops(seed, rnd, workers)
    if workload == "lemma-structure":
        return lemma_structure_ops(seed, rnd)
    if workload == "cli-small":
        return cli_small_ops(seed, rnd, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
