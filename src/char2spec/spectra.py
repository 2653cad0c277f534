"""Bounded-spectrum predicates for matrices and matrix subspaces.

The four properties track how many distinct eigenvalues an element may
have: in the ground field or in its algebraic closure, counting or
discarding the eigenvalue 0.  All counts come from the characteristic
polynomial; the minimal polynomial has the same root set, which is
asserted against :func:`matrix.min_poly` in the tests.

Space-level verification covers every element when q^dim fits the
budget and falls back to seeded counter-based sampling otherwise.  The
verdict records the mode, and a failure always carries the witness
matrix that is smallest in enumeration (or sample-index) order; the
witness is re-verified through the scalar path before being reported.

Every property scanned here is invariant under scaling by c in F*:
chi_{cM}(x) = c^n chi_M(x/c), so the roots map to c*lambda (keeping "in
F" and "nonzero") and the coefficient of x^i is multiplied by
c^(n-i) (keeping "even").  Exhaustive scans are therefore projective:
they check the zero matrix and one element per line {c M}, the one of
smallest enumeration index, which is 1 + (q^dim - 1)/(q - 1) elements in
place of q^dim.  The representatives are visited in ascending index
order, so the first failing one is the minimal failing index of the
whole space, and the witness, its index and the reported ``checked``
count (q^dim) are those of a full enumeration.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec
from .matrix import Mat, char_poly
from .subspace import MatSubspace, index_chunks
from .upoly import (Poly, count_nonzero_roots_in_closure, count_nonzero_roots_in_field,
                    count_roots_in_closure, count_roots_in_field, poly_str)
from . import _bulk

CHUNK = 1 << 16


@dataclass(frozen=True)
class SpectrumProfile:
    char_poly: Poly
    distinct_in_f: int
    distinct_nonzero_in_f: int
    distinct_in_closure: int
    distinct_nonzero_in_closure: int

    def to_json(self) -> dict:
        return {"char_poly": poly_str(self.char_poly),
                "distinct_in_f": self.distinct_in_f,
                "distinct_nonzero_in_f": self.distinct_nonzero_in_f,
                "distinct_in_closure": self.distinct_in_closure,
                "distinct_nonzero_in_closure": self.distinct_nonzero_in_closure}


def profile(fs: FieldSpec, m: Mat) -> SpectrumProfile:
    f = char_poly(fs, m)
    return SpectrumProfile(
        char_poly=f,
        distinct_in_f=count_roots_in_field(fs, f),
        distinct_nonzero_in_f=count_nonzero_roots_in_field(fs, f),
        distinct_in_closure=count_roots_in_closure(fs, f),
        distinct_nonzero_in_closure=count_nonzero_roots_in_closure(fs, f),
    )


@dataclass(frozen=True)
class SpecPredicate:
    """k-spec / kbar-spec / k*-spec / kbar*-spec, encoded by where the roots
    are counted and whether 0 is discarded."""
    kind: str            # "in_field" | "in_closure"
    exclude_zero: bool
    k: int

    @property
    def name(self) -> str:
        bar = "bar" if self.kind == "in_closure" else ""
        star = "*" if self.exclude_zero else ""
        return f"{self.k}{bar}{star}-spec"

    def count(self, prof: SpectrumProfile) -> int:
        if self.kind == "in_field":
            return prof.distinct_nonzero_in_f if self.exclude_zero else prof.distinct_in_f
        return prof.distinct_nonzero_in_closure if self.exclude_zero else prof.distinct_in_closure


def parse_predicate(text: str, k: int | None = None) -> SpecPredicate:
    """Parse '1-spec', '2bar-spec', '0bar*-spec', '1*-spec' (and the same
    without the '-spec' suffix)."""
    t = text.strip().lower()
    if t.endswith("-spec"):
        t = t[:-5]
    star = t.endswith("*")
    if star:
        t = t[:-1]
    bar = t.endswith("bar")
    if bar:
        t = t[:-3]
    kk = int(t) if t else k
    if kk is None:
        raise ValueError(f"predicate {text!r} has no bound k")
    return SpecPredicate("in_closure" if bar else "in_field", star, kk)


def check_element(fs: FieldSpec, m: Mat, pred: SpecPredicate) -> bool:
    return pred.count(profile(fs, m)) <= pred.k


def is_even_poly(f: Poly) -> bool:
    """True iff every odd-degree coefficient vanishes."""
    return all(c == 0 for c in f[1::2])


@dataclass
class SpaceVerdict:
    predicate: str
    label: str
    mode: str              # "exhaustive" | "sampled"
    checked: int
    seed: int | None
    outcome: str           # "holds" | "fails"
    witness: Mat | None = None
    witness_profile: SpectrumProfile | None = None
    witness_index: int | None = None

    @property
    def holds(self) -> bool:
        return self.outcome == "holds"

    def to_json(self) -> dict:
        out = {"predicate": self.predicate, "label": self.label, "mode": self.mode,
               "checked": self.checked, "seed": self.seed, "outcome": self.outcome}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_profile"] = self.witness_profile.to_json()
            out["witness_index"] = self.witness_index
        return out


def pool_threads(workers: int, chunks: int) -> int:
    """Threads that run `chunks` index ranges: no more than the requested
    workers, the ranges or the machine's processors, and at least one."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def _scan_space(fs: FieldSpec, s: MatSubspace, fail_batch, fail_scalar,
                budget: int, samples: int, seed: int, workers: int):
    """Shared scan plumbing.  Returns (mode, checked, used_seed, index,
    witness): the minimal failing index and its element, or None twice.

    fail_batch(planes [n, m, k, W], count) -> bool array over the first
    `count` lanes of a bit-sliced batch (see :mod:`._bulk`), or None to
    force the scalar path; fail_scalar(Mat) -> bool.  The scan is
    exhaustive when q^dim <= budget, else `samples` seeded counter-based
    draws; the minimal failing index is independent of the worker
    partitioning.  The positions are cut into at most `workers` ranges and
    at most ceil(positions / CHUNK), and each range into batches of CHUNK.
    The witness is rebuilt from its index and re-checked with fail_scalar;
    a witness that passes it means the scan is inconsistent.

    Both predicates must be invariant under scaling: M fails iff c*M fails
    for every c in F*.  Exhaustive scans rely on it and are projective:
    they check index 0 and, on each line {c v}, only its smallest index
    (see :func:`_bulk.projective_indices`), 1 + (q^dim - 1)/(q - 1)
    elements in all.  Ranks rise with index, so the first failing rank is
    the minimal failing index of the whole space; `checked` reports q^dim.
    """
    n, m = s.shape
    d = s.dim
    q = fs.q
    k = fs.degree
    total = q ** d
    exhaustive = total <= budget
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled scan needs a positive sample count, got {samples}")
    count = _bulk.projective_count(q, d) if exhaustive else samples

    use_bulk = fail_batch is not None and _bulk.supports(fs)
    if use_bulk:
        # basis coordinates -> matrix entries, on planes
        to_entries = _bulk.linear_map(fs, s.space.basis, n * m)

    def run_range(lo: int, hi: int) -> int | None:
        for clo in range(lo, hi, CHUNK):
            chi = min(clo + CHUNK, hi)
            # sample indices are the positions themselves
            idx = _bulk.projective_indices(q, d, clo, chi) if exhaustive else None
            if not use_bulk:
                for i in (idx.tolist() if exhaustive else range(clo, chi)):
                    if fail_scalar(_element_for_index(fs, s, i, exhaustive, seed)):
                        return i
                continue
            if exhaustive:
                # base-q digit j of an index is its bits [j k, (j+1) k)
                coords = _bulk.code_planes(idx[:, None], d * k)
            else:
                coords = _bulk.code_planes(_bulk.sample_coords(q, d, seed, clo, chi), k)
            ents = _bulk.apply_map(coords, to_entries, n * m * k)
            hits = np.flatnonzero(fail_batch(ents.reshape(n, m, k, -1), chi - clo))
            if hits.size:
                first = int(hits[0])
                return int(idx[first]) if exhaustive else clo + first
        return None

    chunks = index_chunks(count, min(workers, -(-count // CHUNK)))
    threads = pool_threads(workers, len(chunks))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: run_range(*c), chunks))
    else:
        results = [run_range(*c) for c in chunks]
    fails = [r for r in results if r is not None]
    bad = min(fails) if fails else None
    witness = None
    if bad is not None:
        witness = _element_for_index(fs, s, bad, exhaustive, seed)
        if not fail_scalar(witness):
            raise AssertionError("witness failed to re-verify; scan is inconsistent")
    if exhaustive:
        return "exhaustive", total, None, bad, witness
    return "sampled", samples, seed, bad, witness


def _element_for_index(fs: FieldSpec, s: MatSubspace, index: int,
                       exhaustive: bool, seed: int) -> Mat:
    """The element at an enumeration index, or at a sample index of the
    seeded stream."""
    if exhaustive:
        return s.element_at(index)
    n, m = s.shape
    coords = _bulk.sample_coords(fs.q, s.dim, seed, index, index + 1)[0].tolist()
    return Mat(n, m, s.space.combine(coords))


def _space_verdict(fs: FieldSpec, predicate: str, label: str, scan) -> SpaceVerdict:
    mode, checked, used_seed, index, witness = scan
    if witness is None:
        return SpaceVerdict(predicate, label, mode, checked, used_seed, "holds")
    return SpaceVerdict(predicate, label, mode, checked, used_seed, "fails",
                        witness, profile(fs, witness), index)


def check_space(fs: FieldSpec, s: MatSubspace, pred: SpecPredicate,
                budget: int = 1 << 24, samples: int = 10 ** 6, seed: int = 0,
                workers: int = 1, label: str = "") -> SpaceVerdict:
    """Verify the predicate on every (or a seeded sample of) element(s)."""
    n, m = s.shape
    if n != m:
        raise ValueError("spectrum predicates need square matrices")

    def fail_batch(planes, count):
        polys = _bulk.monic_codes(_bulk.charpoly_planes(fs, planes), count)
        counts = _bulk.root_counts(fs, polys, pred.kind, pred.exclude_zero)
        return counts > pred.k

    def fail_scalar(mat: Mat) -> bool:
        return not check_element(fs, mat, pred)

    return _space_verdict(fs, pred.name, label, _scan_space(
        fs, s, fail_batch, fail_scalar, budget, samples, seed, workers))


def check_space_even_charpoly(fs: FieldSpec, s: MatSubspace,
                              budget: int = 1 << 24, samples: int = 10 ** 6,
                              seed: int = 0, workers: int = 1,
                              label: str = "") -> SpaceVerdict:
    """Verify that every element's characteristic polynomial is even
    (all odd-degree coefficients vanish)."""
    n, m = s.shape
    if n != m:
        raise ValueError("characteristic polynomials need square matrices")

    def fail_batch(planes, count):
        if n % 2:   # the leading coefficient 1 sits at an odd degree
            return np.ones(count, dtype=bool)
        return _bulk.nonzero_lanes(_bulk.charpoly_planes(fs, planes)[1::2], count)

    def fail_scalar(mat: Mat) -> bool:
        return not is_even_poly(char_poly(fs, mat))

    return _space_verdict(fs, "even-char-poly", label, _scan_space(
        fs, s, fail_batch, fail_scalar, budget, samples, seed, workers))
