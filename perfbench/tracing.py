"""Traced runs: spans around calls into char2spec, taken from outside.

The tracer replaces each public function of the library's modules with a
wrapper, at every module binding where callers look it up (``char_poly``
is imported by name into ``spectra``, ``structure`` and ``harnesses``, so
each of those names is replaced).  Nothing under ``src/`` changes.

``FieldSpec.mul`` is left alone: it runs ~10^8 times per workload, so
wrapping it would measure the tracer; the kernel probes below time field
multiplication instead.  For the same reason the polynomial helpers that
run below the root counters (10^5 calls and more per round) and the
one-line matrix constructors are left alone; the root counters are the
layer boundary that the metrics use.

Spans (name, start, end, parent, op id) stay in memory and are written
out when the run ends.  A span's self time is its duration minus the
union of its child spans, including children that ran on pool threads.
"""

from __future__ import annotations

import functools
import inspect
import json
import random
import statistics
import sys
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = ("gf", "upoly", "matrix", "subspace", "spectra", "_bulk",
           "constructions", "structure", "harnesses", "cli")

SKIP = {
    "upoly": {"poly", "deg", "is_monic", "poly_add", "poly_scale", "poly_mul", "monic",
              "poly_divmod", "poly_mod", "poly_div_exact", "poly_gcd", "poly_lcm",
              "poly_eval", "derivative", "frobenius_mod", "radical", "has_root_zero",
              "poly_str"},
    "matrix": {"from_rows", "zero", "identity", "unit", "transpose", "trace"},
}
METHODS = [("subspace", "VecSubspace", "intersect"), ("subspace", "VecSubspace", "member")]
GENERATORS = {"subspace.enumerate_grassmannian", "subspace.enumerate_projective"}

HARNESS_FUNCTIONS = (
    "trace_ortho1_harness", "trace_ortho2_harness", "transrank_harness",
    "covering_harness", "vanishing_harness", "confinement_first_harness",
    "confinement_second_harness", "splitting_harness", "hurdle_dimension_harness",
    "confinement_third_harness", "choice_lemma_audit")

SPAN_CAP = 200_000


class _Frame:
    __slots__ = ("name", "idx", "start", "children", "parent")

    def __init__(self, name, idx, start, parent):
        self.name = name
        self.idx = idx
        self.start = start
        self.children = []
        self.parent = parent


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


class Tracer:
    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(int)
        self.op_id = -1
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Frame] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack and stack is not self._main_stack:
            parent = self._main_stack[-1]   # pool thread: caused by the main thread's span
        else:
            parent = None
        with self._lock:
            if len(self.spans) < SPAN_CAP:
                idx = len(self.spans)
                self.spans.append(None)
            else:
                idx = -1
        frame = _Frame(name, idx, time.perf_counter(), parent)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        dur = end - frame.start
        self_t = dur - _union_length(frame.children)
        if frame.parent is not None:
            frame.parent.children.append((frame.start, end))
        with self._lock:
            self.calls[frame.name] += 1
            self.busy[frame.name] += dur
            self.self_time[frame.name] += self_t
            if frame.idx >= 0:
                parent_idx = frame.parent.idx if frame.parent is not None else -1
                self.spans[frame.idx] = (frame.name, frame.start - self.t0,
                                         end - self.t0, parent_idx, self.op_id)
            else:
                self.dropped += 1

    # -- patching ------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        if name in GENERATORS:
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                for item in fn(*args, **kwargs):
                    if tracer.enabled:
                        tracer.counts[name + ".items"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if counter is not None:
                with tracer._lock:
                    counter(tracer, args, kwargs, result, time.perf_counter() - frame.start)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every public function of the library's modules at every
        binding that refers to it."""
        import importlib
        mods = {m: importlib.import_module(f"char2spec.{m}") for m in MODULES}
        targets = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or attr in SKIP.get(short, ()):
                    continue
                if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                    if getattr(obj, "__module__", None) == mod.__name__:
                        # metric names start with a letter: _bulk reports as bulk
                        targets[obj] = f"{short.lstrip('_')}.{attr}"
        wrappers = {fn: self._wrap(name, fn) for fn, name in targets.items()}
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("char2spec"):
                continue
            for attr, obj in list(vars(mod).items()):
                try:
                    w = wrappers.get(obj)
                except TypeError:      # unhashable module attribute
                    continue
                if w is not None:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, w)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{cls_name}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------
    def write(self, path: str) -> None:
        spans = [s for s in self.spans if s is not None]
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        table = {n: {"calls": self.calls[n], "busy_s": self.busy[n], "self_s": self.self_time[n]}
                 for n in sorted(self.calls)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "dropped": self.dropped, "functions": table,
                       "columns": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": [[index[s[0]], round(s[1], 7), round(s[2], 7), s[3], s[4]]
                                 for s in spans]}, fh, separators=(",", ":"))


# ----------------------------------------------------------------------
# counts taken at layer boundaries, from arguments and results
# ----------------------------------------------------------------------
def _count_charpoly(t, args, kwargs, result, dur):
    mats = args[1]
    t.counts["bulk.batch_charpoly.matrices"] += mats.shape[0]
    n = mats.shape[1]
    t.counts[f"bulk.batch_charpoly.n{n}.matrices"] += mats.shape[0]
    t.counts[f"bulk.batch_charpoly.n{n}.busy_s"] += dur


def _count_rows(key):
    def count(t, args, kwargs, result, dur):
        t.counts[key] += result.shape[0]
    return count


def _count_samples(t, args, kwargs, result, dur):
    t.counts["bulk.sample_coords.rows"] += result.shape[0]
    if result.size:
        t.maxima["bulk.sample_coords.max_code"] = max(
            t.maxima["bulk.sample_coords.max_code"], int(result.max()))


def _count_root_counts(t, args, kwargs, result, dur):
    fs, polys = args[0], args[1]
    t.counts["bulk.root_counts.polys"] += polys.shape[0]
    # mirrors the rule in _bulk.root_counts: above 2^16 coefficient vectors
    # the polynomials go through the sparse cache
    if fs.q ** (polys.shape[1] - 1) > 1 << 16:
        t.counts["bulk.root_counts.sparse_polys"] += polys.shape[0]


def _count_checked(t, args, kwargs, result, dur):
    t.counts["spectra.check_space.elements"] += result.checked


def _count_instances(name):
    def count(t, args, kwargs, result, dur):
        t.counts[f"{name}.instances"] += result.detail.get("instances", 1)
    return count


COUNTERS = {
    "bulk.batch_charpoly": _count_charpoly,
    "bulk.elements_from_coords": _count_rows("bulk.elements_from_coords.rows"),
    "bulk.exhaustive_coords": _count_rows("bulk.exhaustive_coords.rows"),
    "bulk.sample_coords": _count_samples,
    "bulk.root_counts": _count_root_counts,
    "spectra.check_space": _count_checked,
    **{f"harnesses.{h}": _count_instances(f"harnesses.{h}") for h in HARNESS_FUNCTIONS},
}


def sparse_cache_entries() -> int:
    """Entries in the sparse root-count cache (0 if the library has none)."""
    from char2spec import _bulk
    cache = getattr(_bulk, "_sparse_cache", None)
    return sum(len(c) for c in cache.values()) if isinstance(cache, dict) else 0


def clear_sparse_cache() -> None:
    from char2spec import _bulk
    cache = getattr(_bulk, "_sparse_cache", None)
    if isinstance(cache, dict):
        cache.clear()


# ----------------------------------------------------------------------
# kernel probes on fixed seeded inputs
# ----------------------------------------------------------------------
def _median_time(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernel_probes() -> dict[str, float]:
    from char2spec import matrix
    from char2spec.gf import field_spec
    out = {}
    rng = random.Random(20240611)
    for k in (2, 4, 9):
        fs = field_spec(f"gf2^{k}")
        pairs = [(rng.randrange(fs.q), rng.randrange(fs.q)) for _ in range(20_000)]
        mul = fs.mul

        def scalar():
            for a, b in pairs:
                mul(a, b)
        out[f"gf.mul_scalar.k{k}.ns_per_op"] = 1e9 * _median_time(scalar) / len(pairs)
    nrng = np.random.default_rng(20240611)
    for k in (2, 4):
        fs = field_spec(f"gf2^{k}")
        table = fs.mul_table_np()
        a = nrng.integers(0, fs.q, 1 << 20, dtype=np.uint8)
        b = nrng.integers(0, fs.q, 1 << 20, dtype=np.uint8)
        out[f"gf.mul_table.k{k}.ns_per_op"] = 1e9 * _median_time(lambda: table[a, b]) / a.size
    fs = field_spec("gf4")
    mats = [matrix.random_matrix(fs, rng, 5) for _ in range(100)]
    for algo in ("hessenberg", "berkowitz"):
        fn = getattr(matrix, f"char_poly_{algo}")
        out[f"matrix.char_poly_{algo}.n5.us_per_call"] = (
            1e6 * _median_time(lambda: [fn(fs, m) for m in mats]) / len(mats))
    return out


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
LAYER_METRICS: list[tuple[str, str]] = [
    ("bulk.batch_charpoly.busy_s", "s"),
    ("bulk.batch_charpoly.matrices", "count"),
    *((f"bulk.batch_charpoly.n{n}.us_per_matrix", "us") for n in (3, 4, 5, 6)),
    ("bulk.elements_from_coords.busy_s", "s"),
    ("bulk.elements_from_coords.rows", "count"),
    ("bulk.exhaustive_coords.busy_s", "s"),
    ("bulk.exhaustive_coords.rows", "count"),
    ("bulk.sample_coords.busy_s", "s"),
    ("bulk.sample_coords.rows", "count"),
    ("bulk.sample_coords.max_code", "code"),
    ("bulk.root_counts.busy_s", "s"),
    ("bulk.root_counts.polys", "count"),
    ("bulk.root_counts.sparse_misses", "count"),
    ("bulk.root_counts.sparse_hit_ratio", "ratio"),
    ("bulk.root_counts.sparse_entries", "count"),
    ("bulk.spectrum_tables.busy_s", "s"),
    ("upoly.count_roots_in_field.calls", "count"),
    ("upoly.count_roots_in_field.busy_s", "s"),
    ("upoly.count_roots_in_closure.calls", "count"),
    ("upoly.count_roots_in_closure.busy_s", "s"),
    ("spectra.check_space.calls", "count"),
    ("spectra.check_space.busy_s", "s"),
    ("spectra.check_space.self_s", "s"),
    ("spectra.check_space.elements", "count"),
    ("spectra.check_space_even_charpoly.calls", "count"),
    ("spectra.check_space_even_charpoly.busy_s", "s"),
    ("spectra.profile.calls", "count"),
    ("spectra.profile.busy_s", "s"),
    ("matrix.char_poly.calls", "count"),
    ("matrix.char_poly.busy_s", "s"),
    ("matrix.rref_rows.calls", "count"),
    ("matrix.rref_rows.busy_s", "s"),
    ("subspace.VecSubspace.intersect.calls", "count"),
    ("subspace.VecSubspace.intersect.busy_s", "s"),
    ("subspace.enumerate_grassmannian.planes", "count"),
    ("subspace.enumerate_projective.points", "count"),
    ("structure.detect_hurdle.calls", "count"),
    ("structure.detect_hurdle.busy_s", "s"),
    ("structure.certifies_hurdle.calls", "count"),
    ("structure.certifies_hurdle.busy_s", "s"),
    ("structure.splitting_check.busy_s", "s"),
    ("structure.splitting_check.self_s", "s"),
    ("structure.adapted_scan.busy_s", "s"),
    *(m for h in HARNESS_FUNCTIONS
      for m in ((f"harnesses.{h}.busy_s", "s"), (f"harnesses.{h}.instances", "count"))),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("constructions.build_with_expected.busy_s", "s"),
    *((f"gf.mul_scalar.k{k}.ns_per_op", "ns") for k in (2, 4, 9)),
    *((f"gf.mul_table.k{k}.ns_per_op", "ns") for k in (2, 4)),
    ("matrix.char_poly_hessenberg.n5.us_per_call", "us"),
    ("matrix.char_poly_berkowitz.n5.us_per_call", "us"),
    ("trace.overhead_s", "s"),
]

_RENAMED = {"subspace.enumerate_grassmannian.planes": "subspace.enumerate_grassmannian.items",
            "subspace.enumerate_projective.points": "subspace.enumerate_projective.items"}


def layer_values(t: Tracer, rounds: int, sparse_misses: int, sparse_entries: int,
                 probes: dict[str, float], overhead_s: float) -> dict[str, float]:
    """Every per-layer metric (0 where a layer did no work on this
    workload).  Counts and busy times are per traced round."""
    out = {}
    for name, unit in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "calls":
            value = t.calls.get(base, 0)
        elif field == "busy_s":
            value = t.busy.get(base, 0.0)
        elif field == "self_s":
            value = t.self_time.get(base, 0.0)
        elif unit == "count":
            value = t.counts.get(_RENAMED.get(name, name), 0)
        else:
            continue
        out[name] = value / rounds
    for n in (3, 4, 5, 6):
        base = f"bulk.batch_charpoly.n{n}"
        mats = t.counts.get(f"{base}.matrices", 0)
        out[f"{base}.us_per_matrix"] = 1e6 * t.counts.get(f"{base}.busy_s", 0.0) / mats if mats else 0.0
    sparse_polys = t.counts.get("bulk.root_counts.sparse_polys", 0)
    out["bulk.sample_coords.max_code"] = t.maxima.get("bulk.sample_coords.max_code", 0)
    out["bulk.root_counts.sparse_misses"] = sparse_misses / rounds
    out["bulk.root_counts.sparse_entries"] = sparse_entries
    out["bulk.root_counts.sparse_hit_ratio"] = (
        1.0 - sparse_misses / sparse_polys if sparse_polys else 0.0)
    out.update(probes)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _ in LAYER_METRICS}
