"""Command-line front end.

Subcommands: verify, scan-adapted, detect-hurdle, trk, choice, lemma,
acceptance.  Every command emits one UTF-8 JSON report (stdout or --out)
with the configuration echoed back; reports are byte-identical for
identical configurations except for the timing_ms fields.  Exit code 0
means every check held, 1 means some check failed, 2 means a usage or
configuration error.

A command is ``cmd_x(args, fs) -> (config_extras, checks)``: it does the
work over the parsed field fs and returns the options it adds to the
config echo and its list of checks.  :func:`main` is the one place that
parses --field, times the run, echoes the configuration and emits the
report; :func:`_budgeted` turns a scan past the budget into a "budget"
check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

from . import __version__
from .gf import FieldSpec, field_spec
from .matrix import Mat
from .subspace import BudgetExceeded, DEFAULT_BUDGET
from .spectra import check_space, parse_predicate
from .structure import LemmaVerdict, adapted_scan, choice_solve, detect_hurdle, transitive_rank
from .harnesses import LEMMA_NAMES, choice_lemma_audit, run_lemma
from .acceptance import AcceptanceConfig, run_acceptance
from .constructions import build_with_expected
from .upoly import poly

SCHEMA = "char2spec-report/1"


def _config_echo(args, extras: dict) -> dict:
    return {"field": args.field, "budget": args.budget, "samples": args.samples,
            "seed": args.seed, "workers": args.workers, **extras}


def _report(command: str, config: dict, checks: list[dict], t0: float) -> dict:
    failed = sum(1 for c in checks
                 if c.get("outcome") not in ("holds", "pass", "none", "budget"))
    return {"schema": SCHEMA, "version": __version__, "command": command,
            "config": config, "checks": checks,
            "summary": {"total": len(checks), "failed": failed},
            "timing_ms": round(1000 * (time.perf_counter() - t0), 3)}


def _emit(report: dict, out_path: str | None) -> int:
    text = json.dumps(report, sort_keys=True, indent=2)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write the report to {out_path!r}: "
                             f"{exc.strerror or exc}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early: send the rest of stdout,
            # the flush at exit included, to devnull in place of a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["summary"]["failed"] == 0 else 1


def _budgeted(run) -> dict:
    """run()'s check, or a "budget" outcome when it has more objects to
    enumerate than the budget."""
    try:
        return run()
    except BudgetExceeded as exc:
        return {"outcome": "budget", "reason": str(exc)}


def cmd_verify(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    space, expected = build_with_expected(fs, args.construction)
    pred = parse_predicate(args.pred)
    verdict = check_space(fs, space, pred, budget=args.budget, samples=args.samples,
                          seed=args.seed, workers=args.workers, label=args.construction)
    check = {**verdict.to_json(), "dim": space.dim, "expected_dim": expected}
    if space.dim != expected:
        check["outcome"] = "fails"
    return {"construction": args.construction, "pred": pred.name}, [check]


def cmd_scan_adapted(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    space, _ = build_with_expected(fs, args.construction)

    def run():
        scan = adapted_scan(fs, space, label=args.construction, budget=args.budget)
        return {**scan.to_json(), "outcome": "holds"}
    return {"construction": args.construction}, [_budgeted(run)]


def cmd_detect_hurdle(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    space, _ = build_with_expected(fs, args.construction)
    cert = detect_hurdle(fs, space)
    check = ({"outcome": "none"} if cert is None
             else {"outcome": "holds", "certificate": cert.to_json()})
    return {"construction": args.construction}, [check]


def cmd_trk(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    space, _ = build_with_expected(fs, args.construction)

    def run():
        trk = transitive_rank(fs, space, budget=args.budget)
        return {"outcome": "holds", "trk": trk, "intransitive": trk < space.shape[0]}
    return {"construction": args.construction}, [_budgeted(run)]


def cmd_choice(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    if not args.matrix:
        verdict = choice_lemma_audit(fs, cap=args.cap, seed=args.seed)     # n = 3, its only size
        check = {**verdict.to_json(), "outcome": "holds" if verdict.holds else "fails"}
        return {"n": 3, "cap": args.cap}, [check]
    if args.target is None:
        raise ValueError("--matrix needs --target (comma-separated coefficients)")
    entries = _codes(fs, args.matrix, "--matrix")
    n = math.isqrt(len(entries))
    if n * n != len(entries):
        raise ValueError(f"--matrix: {len(entries)} entries do not make a square matrix")
    m = Mat(n, n, entries)
    target = poly(_codes(fs, args.target, "--target"))

    def run():
        r = choice_solve(fs, m, target, args.p, budget=args.budget)
        return ({"outcome": "holds", "block": r.to_json()} if r is not None
                else {"outcome": "fails", "reason": "no block achieves the target"})
    return {"n": n, "p": args.p, "target": args.target}, [_budgeted(run)]


def _codes(fs: FieldSpec, text: str, option: str) -> list[int]:
    """Comma-separated field elements, each a code in [0, q)."""
    values = [int(x) for x in text.split(",")]
    bad = [v for v in values if not 0 <= v < fs.q]
    if bad:
        raise ValueError(f"{option}: {bad[0]} is not an element of GF({fs.q})")
    return values


def cmd_lemma(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    try:
        verdict = run_lemma(fs, args.name, trials=args.trials, seed=args.seed,
                            workers=args.workers)
    except BudgetExceeded as exc:
        verdict = LemmaVerdict(args.name, "budget", {"reason": str(exc)})
    if verdict.outcome == "hypothesis-violation" and "trial" not in verdict.detail:
        # the harness rejects its own setup (such as the field), not a drawn instance
        raise ValueError(f"lemma {args.name}: {verdict.detail['reason']}")
    check = verdict.to_json()
    check["outcome"] = verdict.outcome if verdict.outcome != "hypothesis-violation" else "fails"
    return {"lemma": args.name, "trials": args.trials}, [check]


def cmd_acceptance(args, fs: FieldSpec) -> tuple[dict, list[dict]]:
    # the criteria pin their own fields; --field is parsed and echoed only
    cfg = AcceptanceConfig(budget=args.budget, samples=args.samples,
                           seed=args.seed, workers=args.workers)
    checks = run_acceptance(cfg, with_determinism=not args.skip_determinism)
    for c in checks:
        print(f"criterion {c['criterion']:>2} [{c['name']}]: {c['outcome']}", file=sys.stderr)
    return {}, checks


def _positive_int(text: str, log2_max: int | None = None) -> int:
    try:
        value = int(text)
        if value > 0 and (log2_max is None or value <= 1 << log2_max):
            return value
    except ValueError:
        pass
    bound = "" if log2_max is None else f" up to 2^{log2_max}"
    raise argparse.ArgumentTypeError(f"expected a positive integer{bound}, got {text!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="char2spec", allow_abbrev=False,
        description="Exact checks on bounded-spectrum matrix spaces over GF(2^k).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, fn, help: str) -> argparse.ArgumentParser:
        # no option abbreviations: under lemma, --n would stand for --name
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--field", default="gf4", help="gf2/gf4/gf8/gf16 or gf2^k[:modulus]")
        # a budget up to 2^62 keeps every exhaustive scan's indices within int64
        p.add_argument("--budget", type=functools.partial(_positive_int, log2_max=62),
                       default=DEFAULT_BUDGET,
                       help="max objects per exhaustive pass, at most 2^62 (default 2^24)")
        p.add_argument("--samples", type=_positive_int, default=10 ** 6)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=_positive_int, default=1,
                       help="scan threads; capped at the machine's processor count")
        p.add_argument("--out", default=None, help="write the JSON report to a file")
        p.set_defaults(fn=fn)
        return p

    p = add("verify", cmd_verify, "build a space and verify a spectrum predicate")
    p.add_argument("--construction", required=True)
    p.add_argument("--pred", required=True, help="e.g. 1-spec, 2bar-spec, 1bar*-spec")
    for name, fn, help in (("scan-adapted", cmd_scan_adapted, "adapted-vector scan of a space"),
                           ("detect-hurdle", cmd_detect_hurdle,
                            "search dual planes certifying a hurdle"),
                           ("trk", cmd_trk, "transitive rank of a space")):
        add(name, fn, help).add_argument("--construction", required=True)

    p = add("choice", cmd_choice, "choice solver audit (or one instance via --matrix)")
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--matrix", default=None,
                   help="comma-separated row-major entries of a square matrix")
    p.add_argument("--target", default=None, help="comma-separated coefficients, degree 0 first")
    p.add_argument("--p", type=int, default=1)

    p = add("lemma", cmd_lemma, "run a lemma harness")
    p.add_argument("--name", required=True, choices=LEMMA_NAMES)
    p.add_argument("--trials", type=_positive_int, default=200)

    p = add("acceptance", cmd_acceptance, "run the acceptance suite")
    p.add_argument("--skip-determinism", action="store_true",
                   help="skip the worker-count determinism criterion")
    # the acceptance criteria pin their own enumeration budget: the largest
    # exhaustive space has exactly 2^20 elements and the sampled criteria
    # must stay sampled
    p.set_defaults(budget=1 << 20)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        t0 = time.perf_counter()
        fs = field_spec(args.field)
        extras, checks = args.fn(args, fs)
        return _emit(_report(args.command, _config_echo(args, extras), checks, t0), args.out)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
