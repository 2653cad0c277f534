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
place of q^dim.  They go in words of 64 consecutive indices: word 0,
whose non-representatives are checked too, then the index blocks that
hold the representatives, which are runs of whole words.  Words are
visited in ascending order, so the first failing lane is the minimal
failing index of the whole space, and the witness, its index and the
reported ``checked`` count (q^dim) are those of a full enumeration
(:func:`_scan_space` has the argument).

The predicates that keep the eigenvalue 0 (k-spec and kbar-spec) and
evenness are also invariant under translation by c I:
chi_{M+cI}(x) = chi_M(x + c), so every root moves by c (keeping "in F"
and the number of distinct roots), and in characteristic 2
(x + c)^2 = x^2 + c^2 keeps an even polynomial even.  The `*` forms are
not: a shift can move a root onto 0 or off it.  So an exhaustive scan
of a space that contains I (``line_plus``, ``optimal_2bar``, ``sl_2``
in characteristic 2) checks one element per coset M + F I, the one of
smallest index, and with the projective scan that is about
1 + (q^(dim-1) - 1)/(q - 1) elements.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .gf import FieldSpec, excerpt, read_decimal
from .matrix import Mat, char_poly, identity
from .subspace import DEFAULT_BUDGET, MatSubspace, index_chunks
from .upoly import Poly, count_roots_in_closure, count_roots_in_field, has_root_zero, poly_str
from . import _bulk

CHUNK = 1 << 16

# The one pool of scan threads, bounded by the processors: a thread starts
# only when a range finds none idle and lives as long as the process, keeping
# its malloc arena.  No range submits to the pool (scans do not nest).
_POOL = ThreadPoolExecutor(max_workers=os.cpu_count() or 1)


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
    """Distinct roots of the characteristic polynomial in F and in the
    closure, with one root count of each kind; the nonzero counts drop
    the root 0, as :func:`_bulk.spectrum_tables` does."""
    f = char_poly(fs, m)
    in_f, in_closure = count_roots_in_field(fs, f), count_roots_in_closure(fs, f)
    zero = has_root_zero(f)
    return SpectrumProfile(
        char_poly=f,
        distinct_in_f=in_f,
        distinct_nonzero_in_f=in_f - zero,
        distinct_in_closure=in_closure,
        distinct_nonzero_in_closure=in_closure - zero,
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


def parse_predicate(text: str) -> SpecPredicate:
    """Parse '1-spec', '2bar-spec', '0bar*-spec', '1*-spec' (and the same
    without the '-spec' suffix).  The bound k is written in the text and
    must be a nonnegative integer in ASCII decimal digits; ValueError
    otherwise."""
    t, quoted = text.strip().lower(), excerpt(text)
    if t.endswith("-spec"):
        t = t[:-5]
    star = t.endswith("*")
    if star:
        t = t[:-1]
    bar = t.endswith("bar")
    if bar:
        t = t[:-3]
    if not t:
        raise ValueError(f"predicate {quoted} has no bound k")
    k = read_decimal(t, f"predicate {quoted} has a bound k that is not an integer")
    if k < 0:
        raise ValueError(f"predicate {quoted} has a negative bound k")
    return SpecPredicate("in_closure" if bar else "in_field", star, k)


def check_element(fs: FieldSpec, m: Mat, pred: SpecPredicate) -> bool:
    return pred.count(profile(fs, m)) <= pred.k


def is_even_poly(f: Poly) -> bool:
    """True iff every odd-degree coefficient vanishes."""
    return all(c == 0 for c in f[1::2])


@dataclass(frozen=True)
class Scan:
    """What :func:`_scan_space` found: the minimal failing index and its
    element, or None twice.  The outcome follows from the witness."""
    mode: str              # "exhaustive" | "sampled"
    checked: int           # q^dim, or the sample count
    seed: int | None       # None when exhaustive
    witness_index: int | None
    witness: Mat | None

    @property
    def holds(self) -> bool:
        return self.witness is None

    @property
    def outcome(self) -> str:
        return "holds" if self.holds else "fails"


@dataclass(frozen=True)
class SpaceVerdict(Scan):
    predicate: str
    label: str
    witness_profile: SpectrumProfile | None

    def to_json(self) -> dict:
        out = {"predicate": self.predicate, "label": self.label, "mode": self.mode,
               "checked": self.checked, "seed": self.seed, "outcome": self.outcome}
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_profile"] = self.witness_profile.to_json()
            out["witness_index"] = self.witness_index
        return out


def _scan_space(fs: FieldSpec, s: MatSubspace, fail_batch, fail_scalar,
                budget: int, samples: int, seed: int, workers: int, shift=None) -> Scan:
    """Shared scan plumbing.  Returns a :class:`Scan`, which names the
    minimal failing index and its element, or None twice.

    fail_batch(planes [n, m, k, W], count) -> bool array over the first
    `count` lanes of a bit-sliced batch (see :mod:`._bulk`) decides every
    element.  The scan is exhaustive when q^dim <= budget, else `samples`
    seeded counter-based draws; the minimal failing index is independent
    of the worker partitioning.  The positions (64-lane words of indices
    when exhaustive, sample indices otherwise) are cut into at most
    `workers` ranges and at most ceil(positions / batch), and each range
    into batches: max(1, CHUNK // 64) words, or CHUNK samples.  Two or more
    ranges run on `_POOL`, so at most min(ranges, processors) threads run a
    scan; one range runs in the calling thread.  The witness alone is
    rebuilt from its index and re-checked with fail_scalar(Mat) -> bool; a
    witness that passes it means the scan is inconsistent.

    Both predicates must be invariant under scaling: M fails iff c*M fails
    for every c in F*.  Exhaustive scans rely on it and are projective:
    they check index 0 and, on each line {c v}, its smallest index, the
    one whose top nonzero base-q digit is 1.  Those indices are 0 and the
    blocks [q^j, 2 q^j), and the scan runs over them in 64-lane words
    (:func:`_bulk.projective_words`): word 0 holds indices 0 .. 63 (all of
    them when q^dim < 64), and every block with q^j >= 64 is a run of
    whole words.  The non-representatives in word 0 are checked too, which
    keeps the result exact: if one fails, so does the representative of
    its line, a smaller index in the same word.  Words rise with index, so
    the first failing lane is the minimal failing index of the whole
    space; `checked` reports q^dim.  Indices must fit int64, so an
    exhaustive scan of q^dim >= 2^63 elements is refused.

    `shift`, a nonzero flattened element, may name a translation both
    predicates are invariant under: M fails iff M + c shift fails for every
    c in F.  An exhaustive scan of a space that contains it visits one
    element per coset M + F shift.  With e_j = shift[pivot_j] its
    coordinates in the RREF basis and J the largest j with e_j != 0, the
    digits above J are the same across a coset and digit J takes every
    value once, so the element whose digit J is 0 is the coset's smallest
    index.  The scan drops basis row J, runs projectively over the
    remaining dim - 1 rows, and puts a 0 digit back at J in its minimal
    failing index i': (i' div q^J) q^(J+1) + (i' mod q^J), the minimal
    failing index of the whole space.  The budget, the int64 refusal and
    `checked` stay keyed on q^dim, and sampled scans ignore `shift`.
    """
    n, m = s.shape
    d = s.dim
    q = fs.q
    k = fs.degree
    total = q ** d
    exhaustive = total <= budget
    if exhaustive and total >= 1 << 63:
        raise ValueError(f"an exhaustive scan of q^dim = 2^{d * k} elements needs indices "
                         f"past int64; use a budget below 2^63")
    if not exhaustive and samples < 1:
        raise ValueError(f"a sampled scan needs a positive sample count, got {samples}")
    rows, drop = list(s.space.basis), None
    if exhaustive and shift is not None:
        e = [shift[p] for p in s.space.pivots]
        if s.space.combine(e) == tuple(shift):
            drop = max(j for j, c in enumerate(e) if c)
            del rows[drop]
    scan_dim = len(rows)
    if exhaustive:
        count, batch = _bulk.projective_word_count(q, scan_dim), max(1, CHUNK // 64)
    else:
        count, batch = samples, CHUNK
    # basis coordinates -> matrix entries, on planes
    to_entries = _bulk.linear_map(fs, rows, n * m)

    def run_range(lo: int, hi: int) -> int | None:
        for clo in range(lo, hi, batch):
            chi = min(clo + batch, hi)
            if exhaustive:
                words = _bulk.projective_words(q, scan_dim, clo, chi)
                # base-q digit j of an index is its bits [j k, (j+1) k)
                coords = _bulk.index_planes(words, scan_dim * k)
                lanes = min(64 * words.size, q ** scan_dim)
            else:   # sample indices are the positions themselves
                coords = _bulk.sample_planes(q, d, seed, clo, chi)
                lanes = chi - clo
            ents = _bulk.apply_map(coords, to_entries, n * m * k)
            hits = np.flatnonzero(fail_batch(ents.reshape(n, m, k, -1), lanes))
            if hits.size:
                first = int(hits[0])
                return 64 * int(words[first // 64]) + first % 64 if exhaustive else clo + first
        return None

    chunks = index_chunks(count, min(workers, -(-count // batch)))
    if len(chunks) > 1:
        results = list(_POOL.map(lambda c: run_range(*c), chunks))
    else:
        results = [run_range(*c) for c in chunks]
    fails = [r for r in results if r is not None]
    bad = min(fails) if fails else None
    witness = None
    if bad is not None:
        if drop is not None:    # put a 0 digit back at J
            low = bad % q ** drop
            bad = (bad - low) * q + low
        witness = _element_for_index(fs, s, bad, exhaustive, seed)
        if not fail_scalar(witness):
            raise AssertionError("witness failed to re-verify; scan is inconsistent")
    if exhaustive:
        return Scan("exhaustive", total, None, bad, witness)
    return Scan("sampled", samples, seed, bad, witness)


def _element_for_index(fs: FieldSpec, s: MatSubspace, index: int,
                       exhaustive: bool, seed: int) -> Mat:
    """The element at an enumeration index, or at a sample index of the
    seeded stream."""
    if exhaustive:
        return s.element_at(index)
    n, m = s.shape
    coords = _bulk.sample_coords(fs.q, s.dim, seed, index, index + 1)[0].tolist()
    return Mat(n, m, s.space.combine(coords))


def _space_verdict(fs: FieldSpec, predicate: str, label: str, scan: Scan) -> SpaceVerdict:
    w = scan.witness
    return SpaceVerdict(**vars(scan), predicate=predicate, label=label,
                        witness_profile=None if w is None else profile(fs, w))


def _spec_failure(fs: FieldSpec, pred: SpecPredicate):
    """The predicate's failure test on whole elements: the pair (fail_batch,
    fail_scalar) of :func:`_scan_space`, by batch root counts on planes."""
    def fail_batch(planes, count):
        coeffs = _bulk.charpoly_planes(fs, planes)
        return _bulk.spectrum_counts(fs, coeffs, count, pred.kind, pred.exclude_zero) > pred.k

    def fail_scalar(mat: Mat) -> bool:
        return not check_element(fs, mat, pred)
    return fail_batch, fail_scalar


def check_space(fs: FieldSpec, s: MatSubspace, pred: SpecPredicate,
                budget: int = DEFAULT_BUDGET, samples: int = 10 ** 6, seed: int = 0,
                workers: int = 1, label: str = "") -> SpaceVerdict:
    """Verify the predicate on every (or a seeded sample of) element(s)."""
    n, m = s.shape
    if n != m:
        raise ValueError("spectrum predicates need square matrices")
    # the `*` forms are not invariant under M -> M + cI
    shift = None if pred.exclude_zero else identity(n).entries
    return _space_verdict(fs, pred.name, label, _scan_space(
        fs, s, *_spec_failure(fs, pred), budget, samples, seed, workers, shift))


def check_space_even_charpoly(fs: FieldSpec, s: MatSubspace,
                              budget: int = DEFAULT_BUDGET, samples: int = 10 ** 6,
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
        fs, s, fail_batch, fail_scalar, budget, samples, seed, workers, identity(n).entries))
