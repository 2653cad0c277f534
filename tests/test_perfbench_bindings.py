"""The library names the benchmark harness under ``perfbench/`` binds.

The harness calls the library directly; a refactor that drops or renames
one of those names would otherwise show up only as failed benchmark ops.
Building the op lists and warming the tables reaches every binding the
workloads use at set-up.  The exhaustive scans alone are also run, once,
against their pinned results in ``expected.json``.
"""

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
