#!/usr/bin/env python3
"""Record the expected result of every benchmark op in perfbench/expected.json.

    python3 perfbench/record.py

Run it from the root of a checkout, at the commit whose results the
benchmark should pin.  Each op's key must give the same result for every
seed (conjugation keeps every characteristic polynomial, and the
harnesses and sampled predicates hold for every seed); the recorder runs
several seeds and refuses to record a key whose result differs.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

SEEDS = (0, 1, 2)


def record_ops(ops, table: dict) -> None:
    for op in ops:
        got, _, problems = op.observe(op.call())
        if problems:
            raise SystemExit(f"{op.key}: {problems}")
        if table.setdefault(op.key, got) != got:
            raise SystemExit(f"{op.key}: result depends on the seed: {table[op.key]} vs {got}")


def main() -> int:
    tmp = HERE / "out" / "record-tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for name in workloads.NAMES:
            table = expected[name] = {}
            if name == "cli-small":
                record_ops([workloads.cli_op(argv, str(tmp / "op.json"))
                            for argv in workloads.cli_all_argvs()], table)
                continue
            for seed in SEEDS:
                record_ops(workloads.make_ops(name, seed, 0, 2, str(tmp)), table)
            print(f"{name}: {len(table)} keys", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
