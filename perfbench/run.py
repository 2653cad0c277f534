#!/usr/bin/env python3
"""Run one workload of the char2spec benchmark and print its metrics.

    python3 perfbench/run.py --workload scan-exhaustive --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the library from
``src/``.  A run measures set-up time in fresh processes, then repeats
rounds of the workload's ops in one process, as a closed loop (each op
starts when the previous one returns), until ``--seconds`` have passed.
Every op's result is checked against ``perfbench/expected.json``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` skips the
set-up measurement, runs untraced rounds for a third of the time, then
traced rounds, and prints the per-layer metrics (per traced round) and
the tracing overhead.  The
last line of standard output is one JSON object; the lines before it
print every metric by name and unit.  Results, and the spans of a traced
run, are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_EVERY_S = 0.02
MIN_CLI_OPS = 1000

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("elements_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("peak_rss_mb", "MB")]


def machine_record() -> dict:
    import numpy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def setup_probe(workload: str, seed: int) -> int:
    """Child process: get a workload ready, say so, and exit."""
    import workloads
    workloads.warm_tables(workload)
    workloads.make_ops(workload, seed, 0, 1, str(OUT))
    print("ready", flush=True)
    return 0


def measure_setup(workload: str, seed: int, speed) -> list[float]:
    """Seconds from starting a fresh process to a ready workload, each
    divided by the interpreter slowdown (set-up is imports and table
    building) measured just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed.slowdown()[0]
        t = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--setup-probe",
                               "--workload", workload, "--seed", str(seed)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        times.append(elapsed / (0.5 * (before + speed.slowdown()[0])))
    return times


class Runner:
    """Runs rounds of one workload and checks every result.

    Each call's time is divided by the machine's slowdown around it
    (speed.py); a round's time is the sum of its calls' times."""

    def __init__(self, make_ops, expected: dict, speed):
        self.make_ops = make_ops
        self.expected = expected
        self.speed = speed
        self.calls: list[tuple[str, float]] = []   # (op key, scaled time) of every call
        self.round_times: list[float] = []
        self.round_elements: list[int] = []
        self.raw_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sparse_misses = 0
        self.sparse_entries = 0

    def run_round(self, tracer=None) -> None:
        rnd = len(self.round_times)
        ops = self.make_ops(rnd)
        tracing.clear_sparse_cache()
        probes = [(time.perf_counter(), self.speed.slowdown())]
        results = []
        start = time.perf_counter()
        for op in ops:
            if time.perf_counter() - probes[-1][0] >= PROBE_EVERY_S:
                probes.append((time.perf_counter(), self.speed.slowdown()))
            before = probes[-1][1]
            if tracer is not None:
                tracer.op_id = self.attempted + len(results)
                tracer.enabled = True
            t = time.perf_counter()
            try:
                res, err = op.call(), None
            except Exception as exc:   # an op that raises is a failed op
                res, err = None, f"{type(exc).__name__}: {exc}"
            lat = time.perf_counter() - t
            if tracer is not None:
                tracer.enabled = False
            results.append((res, err, lat, before, len(probes)))
        self.raw_walls.append(time.perf_counter() - start)
        probes.append((time.perf_counter(), self.speed.slowdown()))
        entries = tracing.sparse_cache_entries()
        self.sparse_misses += entries
        self.sparse_entries = max(self.sparse_entries, entries)
        elements = 0
        scaled_sum = 0.0
        for op, (res, err, lat, before, after_idx) in zip(ops, results):
            # divide by the mean slowdown of the probes just before and after
            k = 1 if op.bulk else 0
            scaled = lat / (0.5 * (before[k] + probes[after_idx][1][k]))
            self.calls.append((op.key, scaled))
            scaled_sum += scaled
            self.attempted += 1
            problems = [err] if err else []
            if err is None:
                got, n, found = op.observe(res)
                elements += n
                problems += found
                want = self.expected.get(op.key)
                if want is None:
                    problems.append("no expected result recorded")
                elif got != want:
                    problems.append(f"got {got}, expected {want}")
            if problems:
                self.failed += 1
                self.failures.append(f"round {rnd} {op.key}: {'; '.join(problems)}")
        self.round_times.append(scaled_sum)
        self.round_elements.append(elements)

    def call_latencies_ms(self) -> list[float]:
        """Every call made, each at the median scaled time of the calls
        with its key: with a few dozen calls a round, a percentile over raw
        call times would follow a handful of calls."""
        by_key: dict[str, list[float]] = {}
        for key, t in self.calls:
            by_key.setdefault(key, []).append(t)
        med = {key: statistics.median(ts) for key, ts in by_key.items()}
        return [1000 * med[key] for key, _ in self.calls]

    def run_until(self, deadline: float, min_ops: int = 0, tracer=None) -> list[float]:
        """Rounds up to the deadline: another round starts while half of the
        last one still fits (and always until min_ops calls are made).
        Returns the round times."""
        first, ops0 = len(self.round_times), self.attempted
        while True:
            self.run_round(tracer)
            if (time.perf_counter() + 0.5 * self.raw_walls[-1] >= deadline
                    and self.attempted - ops0 >= min_ops):
                return self.round_times[first:]


def percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "char2spec" / "__init__.py").is_file():
        print(f"error: no char2spec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    tmp_dir = OUT / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(exist_ok=True)
    try:
        return _run(args, workloads, str(tmp_dir))
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _run(args, workloads, tmp_dir: str) -> int:
    machine = machine_record()
    # the load-size guard: never more pool threads than cores, and at most 2
    workers = min(2, os.cpu_count() or 1)
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    speed = Speed()
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, speed)
    workloads.warm_tables(args.workload)
    runner = Runner(lambda rnd: workloads.make_ops(args.workload, args.seed, rnd, workers, tmp_dir),
                    expected, speed)
    min_ops = MIN_CLI_OPS if args.workload == "cli-small" else 0
    start = time.perf_counter()

    if args.trace:
        plain = runner.run_until(start + args.seconds / 3)
        probes = tracing.kernel_probes()
        tracer = tracing.Tracer()
        tracer.install()
        misses_before = runner.sparse_misses
        try:
            traced = runner.run_until(start + args.seconds, tracer=tracer)
        finally:
            tracer.uninstall()
        overhead = statistics.median(traced) - statistics.median(plain)
        layers = tracing.layer_values(tracer, len(traced), runner.sparse_misses - misses_before,
                                      runner.sparse_entries, probes, overhead)
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.LAYER_METRICS}
        tracer.write(str(OUT / f"trace-{args.workload}-s{args.seed}.json"))
        rounds_note = (f"{len(plain)} untraced + {len(traced)} traced rounds; "
                       "counts and busy times are per traced round")
    else:
        times = runner.run_until(start + args.seconds, min_ops)
        lat_ms = runner.call_latencies_ms()
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(times),
            "elements_per_s": statistics.median(
                e / t for e, t in zip(runner.round_elements, times)),
            "op_p50_ms": statistics.median(lat_ms),
            "op_p99_ms": percentile(lat_ms, 99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        rounds_note = (f"{len(times)} rounds, {runner.attempted} calls; times at reference "
                       "speed, medians over rounds and calls; set-up the median of "
                       f"{SETUP_PROBES} fresh processes")

    fail_ratio = runner.failed / runner.attempted
    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"workers {workers}: {rounds_note}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'op_fail_ratio':<48} {fail_ratio:>16.6g} ratio "
          f"({runner.failed} of {runner.attempted} ops)")
    for line in runner.failures[:20]:
        print(f"  FAILED {line}")
    result = {"correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({**result, "machine": machine, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "op_fail_ratio": fail_ratio,
                   "setup_probes_s": setup_times, "round_times_s": runner.round_times,
                   "raw_round_walls_s": runner.raw_walls,
                   "failures": runner.failures}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
