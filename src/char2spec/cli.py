"""Command-line front end.

Subcommands: verify, scan-adapted, detect-hurdle, trk, choice, lemma,
acceptance.  Every command emits one UTF-8 JSON report (stdout or --out)
with the configuration echoed back; reports are byte-identical for
identical configurations except for the timing_ms fields.  Exit code 0
means every check held, 1 means some check failed, 2 means a usage or
configuration error.
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


def _field(args) -> FieldSpec:
    return field_spec(args.field)


def _config_echo(args, extra: dict | None = None) -> dict:
    base = {"field": args.field, "budget": args.budget, "samples": args.samples,
            "seed": args.seed, "workers": args.workers}
    if extra:
        base.update(extra)
    return base


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
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe early: send the rest of stdout,
            # the flush at exit included, to devnull in place of a traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report["summary"]["failed"] == 0 else 1


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
    space, expected = build_with_expected(fs, args.construction)
    pred = parse_predicate(args.pred)
    verdict = check_space(fs, space, pred, budget=args.budget, samples=args.samples,
                          seed=args.seed, workers=args.workers, label=args.construction)
    check = verdict.to_json()
    check["dim"] = space.dim
    check["expected_dim"] = expected
    if space.dim != expected:
        check["outcome"] = "fails"
    cfg = _config_echo(args, {"construction": args.construction, "pred": pred.name})
    return _emit(_report("verify", cfg, [check], t0), args.out)


def cmd_scan_adapted(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
    space, _ = build_with_expected(fs, args.construction)
    try:
        check = adapted_scan(fs, space, label=args.construction, budget=args.budget).to_json()
        check["outcome"] = "holds"
    except BudgetExceeded as exc:
        check = {"outcome": "budget", "reason": str(exc)}
    cfg = _config_echo(args, {"construction": args.construction})
    return _emit(_report("scan-adapted", cfg, [check], t0), args.out)


def cmd_detect_hurdle(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
    space, _ = build_with_expected(fs, args.construction)
    cert = detect_hurdle(fs, space)
    if cert is None:
        check = {"outcome": "none"}
    else:
        check = {"outcome": "holds", "certificate": cert.to_json()}
    cfg = _config_echo(args, {"construction": args.construction})
    return _emit(_report("detect-hurdle", cfg, [check], t0), args.out)


def cmd_trk(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
    space, _ = build_with_expected(fs, args.construction)
    try:
        trk = transitive_rank(fs, space, budget=args.budget)
        check = {"outcome": "holds", "trk": trk, "intransitive": trk < space.shape[0]}
    except BudgetExceeded as exc:
        check = {"outcome": "budget", "reason": str(exc)}
    cfg = _config_echo(args, {"construction": args.construction})
    return _emit(_report("trk", cfg, [check], t0), args.out)


def cmd_choice(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
    if args.matrix:
        if args.target is None:
            raise ValueError("--matrix needs --target (comma-separated coefficients)")
        entries = _codes(fs, args.matrix, "--matrix")
        n = math.isqrt(len(entries))
        if n * n != len(entries):
            raise ValueError(f"--matrix: {len(entries)} entries do not make a square matrix")
        m = Mat(n, n, entries)
        target = poly(_codes(fs, args.target, "--target"))
        try:
            r = choice_solve(fs, m, target, args.p, budget=args.budget)
        except BudgetExceeded as exc:
            check = {"outcome": "budget", "reason": str(exc)}
        else:
            check = ({"outcome": "holds", "block": r.to_json()} if r is not None
                     else {"outcome": "fails", "reason": "no block achieves the target"})
        cfg = _config_echo(args, {"n": n, "p": args.p, "target": args.target})
        return _emit(_report("choice", cfg, [check], t0), args.out)
    verdict = choice_lemma_audit(fs, cap=args.cap, seed=args.seed)     # n = 3, its only size
    check = verdict.to_json()
    check["outcome"] = "holds" if verdict.holds else "fails"
    cfg = _config_echo(args, {"n": 3, "cap": args.cap})
    return _emit(_report("choice", cfg, [check], t0), args.out)


def _codes(fs: FieldSpec, text: str, option: str) -> list[int]:
    """Comma-separated field elements, each a code in [0, q)."""
    values = [int(x) for x in text.split(",")]
    bad = [v for v in values if not 0 <= v < fs.q]
    if bad:
        raise ValueError(f"{option}: {bad[0]} is not an element of GF({fs.q})")
    return values


def cmd_lemma(args) -> int:
    t0 = time.perf_counter()
    fs = _field(args)
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
    cfg = _config_echo(args, {"lemma": args.name, "trials": args.trials})
    return _emit(_report("lemma", cfg, [check], t0), args.out)


def cmd_acceptance(args) -> int:
    t0 = time.perf_counter()
    cfg = AcceptanceConfig(budget=args.budget, samples=args.samples,
                           seed=args.seed, workers=args.workers)
    checks = run_acceptance(cfg, with_determinism=not args.skip_determinism)["criteria"]
    for c in checks:
        print(f"criterion {c['criterion']:>2} [{c['name']}]: {c['outcome']}", file=sys.stderr)
    return _emit(_report("acceptance", _config_echo(args), checks, t0), args.out)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value > 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _budget(text: str) -> int:
    """An enumeration budget: a positive integer up to 2^62, which keeps
    every exhaustive scan's indices within int64."""
    try:
        value = int(text)
        if 0 < value <= 1 << 62:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer up to 2^62, got {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--field", default="gf4", help="gf2/gf4/gf8/gf16 or gf2^k[:modulus]")
    p.add_argument("--budget", type=_budget, default=DEFAULT_BUDGET,
                   help="max objects per exhaustive pass, at most 2^62 (default 2^24)")
    p.add_argument("--samples", type=_positive_int, default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="scan threads; capped at the machine's processor count")
    p.add_argument("--out", default=None, help="write the JSON report to a file")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="char2spec", allow_abbrev=False,
        description="Exact checks on bounded-spectrum matrix spaces over GF(2^k).")
    sub = parser.add_subparsers(dest="command", required=True)
    # no option abbreviations: under lemma, --n would stand for --name
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add("verify", help="build a space and verify a spectrum predicate")
    _add_common(p)
    p.add_argument("--construction", required=True)
    p.add_argument("--pred", required=True, help="e.g. 1-spec, 2bar-spec, 1bar*-spec")
    p.set_defaults(fn=cmd_verify)

    p = add("scan-adapted", help="adapted-vector scan of a space")
    _add_common(p)
    p.add_argument("--construction", required=True)
    p.set_defaults(fn=cmd_scan_adapted)

    p = add("detect-hurdle", help="search dual planes certifying a hurdle")
    _add_common(p)
    p.add_argument("--construction", required=True)
    p.set_defaults(fn=cmd_detect_hurdle)

    p = add("trk", help="transitive rank of a space")
    _add_common(p)
    p.add_argument("--construction", required=True)
    p.set_defaults(fn=cmd_trk)

    p = add("choice", help="choice solver audit (or one instance via --matrix)")
    _add_common(p)
    p.add_argument("--cap", type=_positive_int, default=None)
    p.add_argument("--matrix", default=None,
                   help="comma-separated row-major entries of a square matrix")
    p.add_argument("--target", default=None, help="comma-separated coefficients, degree 0 first")
    p.add_argument("--p", type=int, default=1)
    p.set_defaults(fn=cmd_choice)

    p = add("lemma", help="run a lemma harness")
    _add_common(p)
    p.add_argument("--name", required=True, choices=LEMMA_NAMES)
    p.add_argument("--trials", type=_positive_int, default=200)
    p.set_defaults(fn=cmd_lemma)

    p = add("acceptance", help="run the acceptance suite")
    _add_common(p)
    p.add_argument("--skip-determinism", action="store_true",
                   help="skip the worker-count determinism criterion")
    # the acceptance criteria pin their own enumeration budget: the largest
    # exhaustive space has exactly 2^20 elements and the sampled criteria
    # must stay sampled
    p.set_defaults(fn=cmd_acceptance, budget=1 << 20)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
