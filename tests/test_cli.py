import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from char2spec import acceptance, cli
from char2spec.cli import _parser, main
from char2spec.acceptance import canonical_bytes


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_verify_holds(capsys):
    code, report = run_cli(capsys, "verify", "--construction", "joint(sl2,nt2)",
                           "--pred", "1bar*-spec")
    assert code == 0
    check = report["checks"][0]
    assert check["outcome"] == "holds"
    assert check["dim"] == check["expected_dim"] == 8
    assert report["config"]["field"] == "gf4"
    assert report["schema"] == "char2spec-report/1"


def test_verify_fails_sets_exit_code(capsys):
    code, report = run_cli(capsys, "verify", "--construction", "full2",
                           "--pred", "1-spec")
    assert code == 1
    check = report["checks"][0]
    assert check["outcome"] == "fails"
    assert "witness" in check


def test_verify_b2m_2bar(capsys):
    code, report = run_cli(capsys, "verify", "--construction", "b2m2",
                           "--pred", "2bar-spec")
    assert code == 0
    assert report["checks"][0]["dim"] == 10


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "verify", "--construction", "bogus7",
                      "--pred", "1-spec")
    assert code == 2
    code = main(["verify", "--construction", "nt3"])  # missing --pred
    assert code == 2
    code = main(["lemma", "--name", "not-a-lemma"])
    assert code == 2
    for bad in ("0", "-3", "two"):
        code = main(["verify", "--construction", "nt3", "--pred", "1-spec", "--workers", bad])
        assert code == 2
        assert "--workers: expected a positive integer" in capsys.readouterr().err
    for bad in ("0", "-5"):
        code = main(["verify", "--construction", "full3", "--pred", "0-spec",
                     "--budget", "1", "--samples", bad])
        assert code == 2
        assert "--samples: expected a positive integer" in capsys.readouterr().err
    for bad in ("0", "-3"):
        code = main(["lemma", "--name", "covering", "--trials", bad])
        assert code == 2
        assert "--trials: expected a positive integer" in capsys.readouterr().err
    for bad in ("0", "-3"):
        code = main(["choice", "--cap", bad])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--cap: expected a positive integer" in captured.err
    # acceptance parses --field like every command, though its criteria pin their own
    code = main(["acceptance", "--field", "bogus"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown field name 'bogus'\n"
    # field numbers are ASCII decimal digits, and a bad one is a usage error naming the text
    for field, message in (("gf2^9:0x3", "modulus '0x3'"), ("gf2^1_6", "degree '1_6'")):
        code = main(["verify", "--construction", "nt2", "--pred", "1-spec", "--field", field])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: field {field!r} has a {message} that is not a decimal integer\n"
    # a construction of 0 x 0 matrices is refused by name; an inner nt0 is fine
    for argv in (["verify", "--construction", "nt0", "--pred", "1-spec"],
                 ["scan-adapted", "--construction", "full0"],
                 ["trk", "--construction", "nt0"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"construction '{argv[2]}' builds 0 x 0 matrices" in captured.err
    code, out = run_cli(capsys, "verify", "--construction", "joint(nt0,sl2,nt1)",
                        "--pred", "2-spec")
    assert code == 0 and out["checks"][0]["dim"] == 5


def test_predicate_bounds_are_usage_errors(capsys):
    # the bound k is written in the predicate: a negative, missing or
    # non-integer one is bad input, and there is no --k to supply it
    for pred, message in (("-1-spec", "predicate '-1-spec' has a negative bound k"),
                          ("*-spec", "predicate '*-spec' has no bound k"),
                          ("x-spec", "predicate 'x-spec' has a bound k that is not an integer"),
                          ("1.5-spec", "predicate '1.5-spec' has a bound k that is not an integer"),
                          ("2barbar-spec",
                           "predicate '2barbar-spec' has a bound k that is not an integer"),
                          ("1_0-spec", "predicate '1_0-spec' has a bound k that is not an integer"),
                          ("+2-spec", "predicate '+2-spec' has a bound k that is not an integer"),
                          (" 2 bar-spec",
                           "predicate ' 2 bar-spec' has a bound k that is not an integer"),
                          ("\u0663-spec",
                           "predicate '\u0663-spec' has a bound k that is not an integer")):
        code = main(["verify", "--construction", "nt2", f"--pred={pred}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert message in captured.err
    assert main(["verify", "--construction", "nt2", "--pred", "2-spec", "--k", "5"]) == 2
    assert "unrecognized arguments: --k 5" in capsys.readouterr().err


def test_choice_audit_refuses_wide_fields(capsys):
    for argv in (["choice", "--field", "gf2^9", "--cap", "10"],
                 ["lemma", "--name", "choice-audit", "--field", "gf2^9"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "the choice audit tries q^2 targets per matrix" in captured.err


def test_choice_audit_past_the_budget_is_a_budget_verdict(capsys):
    # more matrices than the default budget: refused before any is built,
    # so GF(2^5) allocates nothing and GF(2^8) does not pass numpy's size limit
    for argv in (["lemma", "--name", "choice-audit", "--field", "gf2^5"],
                 ["lemma", "--name", "choice-audit", "--field", "gf2^8"],
                 ["choice", "--field", "gf16"]):
        code, report = run_cli(capsys, *argv)
        assert code == 0 and report["summary"] == {"failed": 0, "total": 1}, argv
        check = report["checks"][0]
        assert check["outcome"] == "budget", argv
        reason = check.get("reason") or check["detail"]["reason"]
        assert reason.endswith(f"exceeds budget {1 << 24}")


def test_choice_audit_takes_the_budget_option(capsys):
    code, report = run_cli(capsys, "choice", "--budget", "10", "--cap", "1000")
    assert code == 0 and report["config"]["budget"] == 10
    check, = report["checks"]
    assert check["outcome"] == "budget" and check["reason"].endswith("exceeds budget 10")
    code, report = run_cli(capsys, "choice", "--budget", "10", "--cap", "10")
    assert code == 0 and report["checks"][0]["outcome"] == "holds"
    # the lemma command's --budget reaches the same audit (36864 GF(4) matrices)
    code, report = run_cli(capsys, "lemma", "--name", "choice-audit", "--budget", "10")
    assert code == 0 and report["config"]["budget"] == 10
    check, = report["checks"]
    assert (check["outcome"], check["detail"]) == (
        "budget", {"reason": "enumeration of 36864 objects exceeds budget 10"})


def test_choice_p_out_of_range_names_the_option(capsys, monkeypatch):
    _refuse_work(monkeypatch)
    for p in ("5", "0", "-1"):
        code = main(["choice", "--matrix", "0,0,1,1", "--target", "1,1,1", "--p", p])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --p: a split index of a 2 x 2 matrix lies in " \
                               f"1 .. n - 1 = 1, got {p}\n"
    code = main(["choice", "--matrix", "0,0,0,0,1,0,0,0,0,1,0,0,0,0,1,0",
                 "--target", "1,1,1,0,1", "--p", "4"])
    assert code == 2 and "1 .. n - 1 = 3, got 4" in capsys.readouterr().err


def test_choice_matrix_needs_target(capsys):
    code = main(["choice", "--matrix", "0,0,0,1,0,0,0,1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--matrix needs --target" in captured.err


def test_choice_codes_must_be_field_elements(capsys):
    # codes outside [0, q) are refused before any work, naming the value
    good = ("0,0,0,1,0,0,0,1,0", "1,1,0,1")
    for matrix, target, bad in [("9,1,0,1,0,1,0,1,0", "0,0,9,1", "--matrix: 9"),
                                (good[0], "0,0,9,1", "--target: 9"),
                                (good[0], "0,-1,0,1", "--target: -1"),
                                ("0,0,0,4,0,0,0,1,0", good[1], "--matrix: 4")]:
        code = main(["choice", "--field", "gf4", "--matrix", matrix, "--target", target])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: {bad} is not an element of GF(4)" in captured.err
    code = main(["choice", "--field", "gf4", "--matrix", good[0], "--target", good[1]])
    captured = capsys.readouterr()
    assert code == 0 and json.loads(captured.out)["checks"][0]["outcome"] == "holds"


# an argv for every integer option and code list, with the value last
_NUMBER_OPTIONS = {
    "--budget": ["verify", "--construction", "nt2", "--pred", "1-spec", "--budget"],
    "--samples": ["verify", "--construction", "nt2", "--pred", "1-spec", "--samples"],
    "--seed": ["verify", "--construction", "nt2", "--pred", "1-spec", "--seed"],
    "--workers": ["verify", "--construction", "nt2", "--pred", "1-spec", "--workers"],
    "--trials": ["lemma", "--name", "covering", "--trials"],
    "--cap": ["choice", "--cap"],
    "--p": ["choice", "--matrix", "0,0,1,1", "--target", "1,1,1", "--p"],
    # GF(32) holds the codes int() would read from '1_6', '+1' and ' 5'
    "--matrix": ["choice", "--field", "gf2^5", "--target", "1,1,1", "--matrix"],
    "--target": ["choice", "--field", "gf2^5", "--matrix", "0,0,1,1", "--target"],
}


def _refuse_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a refused command ran")
    for name in ("build_with_expected", "check_space", "run_lemma", "choice_lemma_audit",
                 "choice_solve"):
        monkeypatch.setattr(cli, name, refuse)


@pytest.mark.parametrize("text", ["1_6", "+1", " 5", "\u0663", "x"])
@pytest.mark.parametrize("option", list(_NUMBER_OPTIONS))
def test_numbers_are_ascii_decimal(capsys, monkeypatch, option, text):
    # every number on the command line follows one rule (gf.read_decimal):
    # int() would run '1_6' as 16, '+1' as 1 and an Arabic-Indic three as 3
    _refuse_work(monkeypatch)
    code = main(_NUMBER_OPTIONS[option] + [text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert any("error:" in line and option in line for line in captured.err.splitlines()), \
        captured.err


def test_number_rule_keeps_legal_inputs(capsys, monkeypatch):
    # a minus sign is allowed, and the bounds are checked after reading
    code, report = run_cli(capsys, "verify", "--construction", "nt2", "--pred", "1-spec",
                           "--seed", "-7")
    assert code == 0 and report["config"]["seed"] == -7
    assert main(["choice", "--matrix", "0,0,1,1", "--target", "1,1,1", "--p", "-1"]) == 2
    assert capsys.readouterr().err == \
        "error: --p: a split index of a 2 x 2 matrix lies in 1 .. n - 1 = 1, got -1\n"
    _refuse_work(monkeypatch)
    assert main(["choice", "--field", "gf4", "--matrix", "0,0,1,1", "--target", "0,-1,0,1"]) == 2
    assert capsys.readouterr().err == "error: --target: -1 is not an element of GF(4)\n"
    # --target without --matrix is refused, not dropped for the audit
    for argv in (["choice", "--target", "x,0,0"], ["choice", "--target", "1,1,1"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: --target needs --matrix " \
                                          "(comma-separated row-major entries)\n"
    assert main(["choice", "--matrix", "0,0,1,1", "--target", "x,0,0"]) == 2
    assert capsys.readouterr().err == "error: --target: 'x' is not an integer\n"


@pytest.mark.parametrize("expr,message", [
    ("nt\u0663", "unknown construction expression 'nt\u0663'"),
    ("nt\u00b2", "unknown construction expression 'nt\u00b2'"),
    ("b2m", "unknown construction expression 'b2m'"),
    ("mats_p", "unknown construction expression 'mats_p'"),
    ("nt65", "construction 'nt65' builds 65 x 65 matrices, past the bound of 64"),
    ("b2m33", "construction 'b2m33' builds 66 x 66 matrices, past the bound of 64"),
    ("joint(full33,full33)",
     "construction 'joint(full33,full33)' builds 66 x 66 matrices, past the bound of 64"),
    ("nt99999", "construction 'nt99999' builds 99999 x 99999 matrices, past the bound of 64"),
])
def test_construction_texts_are_refused_before_building(capsys, expr, message):
    # sizes are ASCII digits, and the matrix size is bounded before anything is built
    t0 = time.perf_counter()
    code = main(["verify", "--construction", expr, "--pred", "1-spec"])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_deep_nesting_is_a_usage_error(capsys):
    # nesting is bounded before parsing, which recurses once per level
    deep = "joint(" * 1200 + "nt1" + ")" * 1200
    t0 = time.perf_counter()
    code = main(["trk", "--construction", deep])
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the error line quotes the head of the expression and its length
    assert captured.err == f"error: construction {deep[:40]!r}... (8403 characters) " \
                           f"nests 1200 levels deep, past the bound of 400\n"
    assert len(captured.err.encode()) < 300
    code, report = run_cli(capsys, "trk", "--construction", "joint(" * 400 + "nt1" + ")" * 400)
    assert code == 0 and report["checks"][0]["outcome"] == "holds"


def test_long_digit_strings_name_their_input(capsys):
    # past int()'s 4300-digit limit a number is refused by the reader's caller
    digits = "1" * 5000
    for argv, start in (
            (["verify", "--construction", "nt2", "--pred", f"{digits}-spec"],
             f"error: predicate '{digits[:40]}'... (5005 characters) has a bound k "
             f"that is not an integer"),
            (["verify", "--construction", "nt2", "--pred", "1-spec", "--field", f"gf2^{digits}"],
             f"error: field 'gf2^{digits[:36]}'... (5004 characters) has a degree "
             f"'{digits[:40]}'... (5000 characters)"),
            (["verify", "--construction", f"nt{digits}", "--pred", "1-spec"],
             "error: construction atom 'nt' has a size of 5000 digits, too many to read"),
            (["verify", "--construction", "nt2", "--pred", "1-spec", "--budget", digits],
             "usage: ")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(start) and "Exceeds the limit" not in captured.err
        assert captured.err.count("error:") == 1
        # outside text is cut in the message, so every line stays short
        assert all(len(line.encode()) < 300 for line in captured.err.splitlines()), argv
    assert "--budget: expected a positive integer up to 2^62" in captured.err


def test_choice_refuses_the_options_of_the_other_mode(capsys, monkeypatch):
    # --cap belongs to the audit and --p to one instance; --p 1 is refused too
    instance = ["choice", "--matrix", "0,0,1,1", "--target", "1,1,1"]
    code, report = run_cli(capsys, *instance)
    assert code == 0 and report["config"]["p"] == 1 and "cap" not in report["config"]
    _refuse_work(monkeypatch)
    for argv, option in ((instance + ["--cap", "10"], "--cap"),
                         (["choice", "--p", "1"], "--p"),
                         (["choice", "--cap", "10", "--p", "2"], "--p")):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {option} ") and captured.err.count("\n") == 1


def test_integer_options_use_the_shared_reader():
    # argparse's type=int (and float) would take '1_6', '+1' and non-ASCII
    # digits: every numeric option, in every subcommand, reads through cli._integer
    commands = next(a for a in _parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    for name, sub in commands.items():
        for action in sub._actions:
            assert action.type not in (int, float), (name, action.option_strings)


def test_scan_adapted(capsys):
    code, report = run_cli(capsys, "scan-adapted", "--construction", "hurdle4")
    assert code == 0
    counts = report["checks"][0]["counts"]
    assert counts["points"] == 85 and counts["adapted"] == 0


def test_budget_bounds(capsys):
    # exhaustive indices must fit int64: budgets past 2^62 are usage errors
    for bad in ("100000000000000000000000", str((1 << 62) + 1), "0", "-4", "many"):
        code = main(["verify", "--field", "gf4", "--construction", "full6", "--pred", "6-spec",
                     "--budget", bad])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "--budget: expected a positive integer up to 2^62" in captured.err
    code, report = run_cli(capsys, "verify", "--field", "gf4", "--construction", "full6",
                           "--pred", "6-spec", "--budget", str(1 << 62), "--samples", "50")
    assert code == 0 and report["config"]["budget"] == 1 << 62
    assert report["checks"][0]["mode"] == "sampled"


def test_detect_hurdle_outcomes(capsys):
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "hurdle3")
    assert code == 0 and report["checks"][0]["outcome"] == "holds"
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "nt3")
    assert code == 0 and report["checks"][0]["outcome"] == "none"
    # the search walks no planes: --budget is only echoed
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "nt4",
                           "--budget", "10")
    assert code == 0 and report["checks"] == [{"outcome": "none"}]
    assert report["config"]["budget"] == 10
    # hurdle4 over GF(2^16) has ~2^64 dual planes, past any budget
    t0 = time.perf_counter()
    code, report = run_cli(capsys, "detect-hurdle", "--field", "gf2^16",
                           "--construction", "hurdle4")
    assert time.perf_counter() - t0 < 5
    assert code == 0 and report["checks"] == [{"outcome": "holds", "certificate": {
        "dual_plane": {"ambient": 4, "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}}}]


def test_trk(capsys):
    code, report = run_cli(capsys, "trk", "--construction", "nt4")
    assert code == 0
    assert report["checks"][0]["trk"] == 3
    assert report["checks"][0]["intransitive"] is True


def test_point_scans_honour_the_budget(capsys):
    # nt3 over GF(2^16) has ~4.3e9 projective points: a "budget" outcome,
    # at once, before any point is ranked or scanned
    for command in ("trk", "scan-adapted"):
        t0 = time.perf_counter()
        code, report = run_cli(capsys, command, "--field", "gf2^16", "--construction", "nt3",
                               "--budget", "1000")
        assert time.perf_counter() - t0 < 5
        assert code == 0 and report["summary"]["failed"] == 0
        assert report["checks"] == [{"outcome": "budget", "reason":
                                     "enumeration of 4295032833 objects exceeds budget 1000"}]
    # a harness instance past the default budget: transrank over GF(2^16)
    # draws n = 2 (65 537 points) and then n = 4
    code, report = run_cli(capsys, "lemma", "--field", "gf2^16", "--name", "transrank",
                           "--trials", "10", "--seed", "1")
    assert code == 0 and report["checks"] == [{"name": "transrank", "outcome": "budget", "detail": {
        "reason": "enumeration of 281479271743489 objects exceeds budget 16777216"}}]
    # full3 reaches rank 3 at its first point, before the budget is checked
    code, report = run_cli(capsys, "trk", "--field", "gf2^16", "--construction", "full3",
                           "--budget", "1000")
    assert report["checks"] == [{"outcome": "holds", "trk": 3, "intransitive": False}]
    code, report = run_cli(capsys, "trk", "--construction", "nt3", "--budget", "21")
    assert report["checks"] == [{"outcome": "holds", "trk": 2, "intransitive": True}]
    code, report = run_cli(capsys, "scan-adapted", "--construction", "nt3", "--budget", "21")
    assert report["checks"][0]["counts"]["points"] == 21


def test_choice_single_instance(capsys):
    # n is the square root of the entry count
    code, report = run_cli(capsys, "choice", "--matrix", "0,0,1,1", "--target", "1,1,1",
                           "--p", "1")
    assert code == 0 and report["config"]["n"] == 2
    assert report["checks"][0]["block"]["entries"] == [1]
    code, report = run_cli(capsys, "choice", "--matrix", "0,0,0,0,1,0,0,0,0,1,0,0,0,0,1,0",
                           "--target", "1,1,1,0,1", "--p", "1")
    # the shift matrix with top row (0, a, b, c) has char poly t^4 + a t^2 + b t + c
    assert code == 0 and report["config"]["n"] == 4
    assert report["checks"][0]["block"]["entries"] == [1, 1, 1]
    code = main(["choice", "--matrix", "0,0,1,1,0", "--target", "1,1,1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "error: --matrix: 5 entries do not make a square matrix" in captured.err


def test_lemma_subcommand(capsys):
    code, report = run_cli(capsys, "lemma", "--name", "transrank", "--trials", "10",
                           "--seed", "3")
    assert code == 0
    assert report["checks"][0]["outcome"] == "holds"


def test_lemma_runs_the_trials_it_echoes(capsys):
    for field in ("gf4", "gf2"):
        code, report = run_cli(capsys, "lemma", "--field", field, "--name", "confinement-second",
                               "--trials", "60")
        assert code == 0 and report["config"]["trials"] == 60
        assert report["checks"][0]["detail"]["instances"] == 60


def test_lemma_gf2_setup_errors_and_runs(capsys):
    # over GF(2) the last-block and diagonal-zero hypotheses fail: a usage
    # error, not a failure
    for name in ("lastblock", "diagonal-zero"):
        code = main(["lemma", "--field", "gf2", "--name", name])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"error: lemma {name}: needs |F| > 2" in captured.err
    # the vanishing harness draws its degree d <= |F|
    code, report = run_cli(capsys, "lemma", "--field", "gf2", "--name", "vanishing",
                           "--trials", "12", "--seed", "5")
    assert code == 0 and report["checks"][0]["outcome"] == "holds"


def test_lemma_vanishing_over_gf2_16_reports_budget(capsys):
    # the union test of 65 537 points against 55 537 drawn lines would hold
    # 13.6 GiB of codes
    code, report = run_cli(capsys, "lemma", "--field", "gf2^16", "--name", "vanishing",
                           "--trials", "3", "--seed", "1")
    assert code == 0 and report["checks"] == [{"name": "vanishing", "outcome": "budget", "detail": {
        "reason": "enumeration of 3639728369 objects exceeds budget 16777216"}}]


def test_closed_pipe_ends_quietly():
    # a reader that stops after one line: the report (about 740 kB) outgrows
    # the pipe, and the write after the close must not end in a traceback
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.Popen([sys.executable, "-m", "char2spec.cli", "scan-adapted",
                             "--field", "gf16", "--construction", "nt4"],
                            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


def test_no_command_takes_n(capsys):
    # the matrix size comes from the input: choice --matrix counts its
    # entries, and the choice audit runs at n = 3, its only size
    argvs = [["verify", "--construction", "nt3", "--pred", "1-spec"],
             ["scan-adapted", "--construction", "nt3"], ["detect-hurdle", "--construction", "nt3"],
             ["trk", "--construction", "nt3"], ["lemma", "--name", "covering", "--trials", "2"],
             ["acceptance", "--skip-determinism"], ["choice", "--cap", "10"],
             ["choice", "--matrix", "0,0,1,1", "--target", "1,1,1"]]
    for argv in argvs:
        assert main(argv + ["--n", "3"]) == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --n 3" in err, err
    code, report = run_cli(capsys, "choice", "--cap", "10")
    assert code == 0 and report["config"]["n"] == 3


def test_abbreviated_options_are_usage_errors(capsys):
    # no prefix stands for an option: --constr is not --construction, and
    # under lemma --n is not --name
    assert main(["trk", "--constr", "nt3"]) == 2
    assert "the following arguments are required: --construction" in capsys.readouterr().err
    assert main(["lemma", "--n", "covering", "--trials", "2"]) == 2
    assert "the following arguments are required: --name" in capsys.readouterr().err


def test_report_determinism(capsys):
    argv = ["lemma", "--name", "covering", "--trials", "20", "--seed", "9"]
    _, a = run_cli(capsys, *argv)
    _, b = run_cli(capsys, *argv)
    assert canonical_bytes(a) == canonical_bytes(b)


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["trk", "--construction", "nt3", "--out", str(path)])
    assert code == 0
    data = json.loads(path.read_text())
    assert data["checks"][0]["trk"] == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    # a directory, and a file in a directory that does not exist
    for path in (tmp_path, tmp_path / "missing" / "report.json"):
        code = main(["verify", "--construction", "nt2", "--pred", "0bar*-spec",
                     "--out", str(path)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and str(path) in captured.err
        assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_parser_is_built_once_and_answers_every_call_alike(capsys):
    # usage errors (exit 2), help (exit 0) and valid commands, mixed in one
    # process: every call must answer as its first call did
    argvs = [["--help"], ["verify", "--construction", "nt3"], ["trk", "--construction", "nt3"],
             ["lemma", "--name", "not-a-lemma"], ["detect-hurdle", "--help"],
             ["detect-hurdle", "--construction", "hurdle3"], ["trk", "--workers", "0"], [],
             ["verify", "--construction", "full2", "--pred", "1-spec", "--seed", "3"]]

    def call(argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        if out.startswith("{"):
            report = json.loads(out)
            del report["timing_ms"]
            out = canonical_bytes(report)
        return code, out, err

    first = [call(argv) for argv in argvs]
    assert [code for code, _, _ in first] == [0, 2, 0, 2, 0, 0, 2, 2, 1]
    assert _parser() is _parser()
    for _ in range(2):
        for i in (8, 3, 0, 5, 1, 4, 7, 2, 6):
            assert call(argvs[i]) == first[i]


# sha256 of canonical_bytes (timings stripped) of one or more reports of
# every subcommand, with the exit code: every outcome a command can print
_PINNED_REPORTS = [
    (["verify", "--construction", "joint(sl2,nt2)", "--pred", "1bar*-spec"], 0,
     "f90623d16885ca68ef4bba5a08a8e6d6a65274e02ef7780a30a0f53c7a7db7f4"),
    (["verify", "--construction", "full2", "--pred", "1-spec"], 1,
     "1bbf8df8bdb1b8fc212b16d29885b6057b056ce2629532f4a5241deb79f5fb63"),
    (["scan-adapted", "--construction", "hurdle3"], 0,
     "9814f35dd0707699724b76387151f2d7ee67206c8cc9a155660eed09ed4e4307"),
    (["scan-adapted", "--field", "gf2^16", "--construction", "nt3", "--budget", "1000"], 0,
     "ee65320788bd0b7fc92459580a37613be8615c66dece0aae74afde48f99b1e6a"),
    (["detect-hurdle", "--construction", "hurdle3"], 0,
     "a73d8d44fade9b27ea09b8954ca08efe2c79d93cc6807754558b6a68987a5885"),
    (["detect-hurdle", "--construction", "nt3"], 0,
     "34818bc8fe6305f4ca97337ed16c54bd47513e7ed659415c0722fbd5b48a13b2"),
    (["trk", "--construction", "nt4"], 0,
     "ee22966dfae733c41f5bc7d7f25347cf0dac4b812d4bee3b75b2bb2a4336651b"),
    (["trk", "--field", "gf2^16", "--construction", "nt3", "--budget", "1000"], 0,
     "fc31bb721ed66215033c0d5b013af158f2dd97287cc5aa570392f3bced45425a"),
    (["choice", "--cap", "10"], 0,
     "722fc837066413715e3d1d3682b68389251cea663d98950a7c418e0dd4ff8765"),
    (["choice", "--matrix", "0,0,1,1", "--target", "1,1,1"], 0,
     "47c87f20af3f4233530cf8c08d0c78f4f90d1d472c841e6e33ecd96618fc6be3"),
    (["choice", "--matrix", "0,0,0,0,1,0,0,0,0,1,0,0,0,0,1,0", "--target", "1,1,1,0,1",
      "--p", "2", "--budget", "10"], 0,
     "1f5e7f82d6ba6dd9e0b900bbac963597f5107d3694152398bf71cfbc4b06fa20"),
    (["lemma", "--name", "covering", "--trials", "10", "--seed", "3"], 0,
     "a250bf9295888c73fc2fe55aae5fdc7302aed9e7350363a823da09e6a1170cb0"),
    (["lemma", "--field", "gf2^16", "--name", "vanishing", "--trials", "3", "--seed", "1"], 0,
     "86dcbc8fbdb24428167e358786f89425c543535cc7a2ce6c0201a5dd84e4d85a"),
    (["acceptance", "--skip-determinism"], 1,
     "1441f089e76a27499caf322bfb15d75344d4ff70ff927436ace8ec905fadbb67"),
]


@pytest.mark.parametrize("argv,code,digest", _PINNED_REPORTS,
                         ids=[" ".join(argv) for argv, _, _ in _PINNED_REPORTS])
def test_reports_are_pinned(capsys, argv, code, digest):
    got, report = run_cli(capsys, *argv)
    assert (got, hashlib.sha256(canonical_bytes(report)).hexdigest()) == (code, digest)


def test_choice_matrix_without_a_block_is_pinned(capsys, monkeypatch):
    # no regular Hessenberg input leaves the solve without a block (the
    # choice lemma), so the "fails" report is reached through a stub
    monkeypatch.setattr(cli, "choice_solve", lambda *args, **kwargs: None)
    code, report = run_cli(capsys, "choice", "--matrix", "0,0,1,1", "--target", "1,1,1")
    assert report["checks"] == [{"outcome": "fails", "reason": "no block achieves the target"}]
    assert (code, hashlib.sha256(canonical_bytes(report)).hexdigest()) == (
        1, "fbd2eb1945c233ec7641a3749382cb514b70a2a762e7d33278e6bce54a01f708")


def test_every_subcommand_has_a_pinned_report():
    # a new subcommand must pin its own report above
    commands = next(a for a in _parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    assert set(commands) == {argv[0] for argv, _, _ in _PINNED_REPORTS}


def test_acceptance_report_times_every_criterion(capsys, monkeypatch):
    # the criteria report no timings: the runner times each one, criterion
    # 11 (which reruns the runner at 1, 4 and 8 workers) included
    monkeypatch.setattr(acceptance, "CRITERIA", [acceptance.criterion_1])
    assert "timing_ms" not in acceptance.criterion_1(acceptance.AcceptanceConfig())
    code, report = run_cli(capsys, "acceptance")
    assert code == 0 and [(c["criterion"], c["outcome"]) for c in report["checks"]] == [
        (1, "pass"), (11, "pass")]
    assert all(c["timing_ms"] >= 0 for c in report["checks"])
    code, report = run_cli(capsys, "acceptance", "--skip-determinism")
    assert [c["criterion"] for c in report["checks"]] == [1]
