"""The library names the benchmark harness under ``perfbench/`` binds.

The harness calls the library directly; a refactor that drops or renames
one of those names would otherwise show up only as failed benchmark ops.
Every name the harness reads off a library module must resolve, and
building the op lists and warming the tables reaches every binding the
workloads use at set-up.  The exhaustive scans alone are also run, once,
against their pinned results in ``expected.json``.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from char2spec.gf import GF4, GF16

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def perfbench_modules():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
        yield workloads, tracing
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_warms_and_builds_its_ops(perfbench_modules, tmp_path):
    workloads, _ = perfbench_modules
    for name in workloads.NAMES:
        workloads.warm_tables(name)
        ops = workloads.make_ops(name, 1, 0, 1, str(tmp_path))
        assert ops and all(callable(op.call) and callable(op.observe) for op in ops), name


def test_every_harness_the_benchmark_names_resolves_and_holds(perfbench_modules):
    # the workloads and the tracer name harnesses as strings: a renamed one
    # would show only as failed ops or as per-layer metrics that vanish
    workloads, tracing = perfbench_modules
    from char2spec import harnesses
    names = set(workloads.HARNESS_TRIALS) | set(tracing.HARNESS_FUNCTIONS)
    assert sorted(name for name in names if not hasattr(harnesses, name)) == []
    for name in workloads.HARNESS_TRIALS:
        v = getattr(harnesses, name)(GF4, 1, 0)
        assert v.holds and v.detail["instances"] == 1, (name, v.to_json())


def test_tracer_installs_and_uninstalls(perfbench_modules):
    _, tracing = perfbench_modules
    from char2spec import _bulk
    original = _bulk.charpoly_planes
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bulk.charpoly_planes is not original
    finally:
        tracer.uninstall()
    assert _bulk.charpoly_planes is original


@pytest.mark.parametrize("fs", [GF4, GF16], ids=["gf4", "gf16"])
def test_product_table_is_the_q_by_q_uint8_table(fs):
    table = fs.mul_table_np()
    assert table.shape == (fs.q, fs.q) and table.dtype == np.uint8
    assert table.tolist() == [[fs.mul(a, b) for b in range(fs.q)] for a in range(fs.q)]


def test_scan_exhaustive_ops_match_the_pinned_results(perfbench_modules, tmp_path):
    # one round of the exhaustive scans (seed 1, round 0) against
    # expected.json, so that a wrong witness index fails here and not
    # only in the benchmark
    workloads, _ = perfbench_modules
    expected = json.loads((PERFBENCH / "expected.json").read_text())["scan-exhaustive"]
    ops = workloads.make_ops("scan-exhaustive", 1, 0, 1, str(tmp_path))
    assert sorted(op.key for op in ops) == sorted(expected)
    for op in ops:
        got, checked, problems = op.observe(op.call())
        assert not problems, (op.key, problems)
        assert got == expected[op.key], op.key
        assert checked == expected[op.key]["checked"]


def _library_reads(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) for every name imported from a char2spec module and
    every attribute read off a name bound to one."""
    modules, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("char2spec"):
            for alias in node.names:
                target = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(target)
                except ModuleNotFoundError as exc:
                    if exc.name != target:
                        raise
                    reads.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("char2spec.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            reads.add((modules[node.value.id], node.attr))
    return reads


def test_every_library_name_the_benchmark_reads_resolves():
    reads = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        reads |= _library_reads(ast.parse(path.read_text(encoding="utf-8")))
    assert {("char2spec.spectra", "check_space_even_charpoly"),
            ("char2spec.constructions", "build"), ("char2spec._bulk", "spectrum_tables"),
            ("char2spec.harnesses", "confinement_third_harness"),
            ("char2spec.matrix", "mat_from_json")} <= reads
    missing = sorted(f"{module}.{name}" for module, name in reads
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


# names the tracer holds as strings that name nothing today: it skips them
# silently, so this set may only shrink (the benchmark's next change empties it)
_STALE_TRACER_NAMES = {"_bulk.batch_charpoly", "_bulk.elements_from_coords",
                       "_bulk.exhaustive_coords", "_bulk.root_counts",
                       "subspace.enumerate_grassmannian", "upoly.is_monic",
                       "upoly.poly_eval"}


def test_the_tracer_names_no_new_missing_function(perfbench_modules):
    _, tracing = perfbench_modules
    names = {f"{module}.{name}" for module, skipped in tracing.SKIP.items() for name in skipped}
    names |= {f"{module}.{cls}.{meth}" for module, cls, meth in tracing.METHODS}
    names |= set(tracing.GENERATORS) | set(tracing.COUNTERS)
    missing = set()
    for name in names:
        module, *path = name.split(".")
        module = "_bulk" if module == "bulk" else module    # metric names drop the underscore
        obj = importlib.import_module(f"char2spec.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.add(".".join([module, *path]))
    assert missing <= _STALE_TRACER_NAMES
