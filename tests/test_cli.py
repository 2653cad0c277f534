import json

import pytest

from char2spec.cli import main
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


def test_choice_matrix_needs_target(capsys):
    code = main(["choice", "--n", "3", "--matrix", "0,0,0,1,0,0,0,1,0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--matrix needs --target" in captured.err


def test_scan_adapted(capsys):
    code, report = run_cli(capsys, "scan-adapted", "--construction", "hurdle4")
    assert code == 0
    counts = report["checks"][0]["counts"]
    assert counts["points"] == 85 and counts["adapted"] == 0


def test_detect_hurdle_outcomes(capsys):
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "hurdle3")
    assert code == 0 and report["checks"][0]["outcome"] == "holds"
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "nt3")
    assert code == 0 and report["checks"][0]["outcome"] == "none"
    code, report = run_cli(capsys, "detect-hurdle", "--construction", "nt4",
                           "--budget", "10")
    assert code == 0 and report["checks"][0]["outcome"] == "budget"


def test_trk(capsys):
    code, report = run_cli(capsys, "trk", "--construction", "nt4")
    assert code == 0
    assert report["checks"][0]["trk"] == 3
    assert report["checks"][0]["intransitive"] is True


def test_choice_single_instance(capsys):
    code, report = run_cli(capsys, "choice", "--n", "2",
                           "--matrix", "0,0,1,1", "--target", "1,1,1", "--p", "1")
    assert code == 0
    assert report["checks"][0]["block"]["entries"] == [1]


def test_lemma_subcommand(capsys):
    code, report = run_cli(capsys, "lemma", "--name", "transrank", "--trials", "10",
                           "--seed", "3")
    assert code == 0
    assert report["checks"][0]["outcome"] == "holds"


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
