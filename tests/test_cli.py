"""Command-line interface: subcommands, exit codes, report files."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from superflag.cli import (
    UsageError, build_parser, main, parse_flag_type, parse_index_sets)
from superflag.charts import validate_flag_type


# `superflag bwb` output, pinned from the root-enumerating implementation.
BWB_OUTPUT = {
    (3, 2): (
        "highest weights at (k1=3, l1=2):\n"
        "  mu1 - mu2                not dominant  (negative against mu2)\n"
        "  mu1 - la2                not dominant  (negative against la1 + la2)\n"
        "  -mu2 + la1               not dominant  (negative against mu1 + mu2)\n"
        "  la1 - la2                not dominant  (negative against 2*la2)\n"
        "  0                        dominant\n"
        "global fiber functions: ℂ\n"
    ),
    (1, 1): (
        "highest weights at (k1=1, l1=1):\n"
        "  (empty list)\n"
        "global fiber functions: {0}\n"
    ),
    (2, 1): (
        "highest weights at (k1=2, l1=1):\n"
        "  mu1 - la1                not dominant  (negative against 2*la1)\n"
        "  -mu1 + la1               not dominant  (negative against mu1)\n"
        "  0                        dominant\n"
        "global fiber functions: ℂ\n"
    ),
    (1, 2): (
        "highest weights at (k1=1, l1=2):\n"
        "  la1 - la2                not dominant  (negative against 2*la2)\n"
        "global fiber functions: {0}\n"
    ),
    (4, 3): (
        "highest weights at (k1=4, l1=3):\n"
        "  mu1 - mu3                not dominant  (negative against mu2 + mu3)\n"
        "  mu1 - la3                not dominant  (negative against la1 + la3)\n"
        "  -mu3 + la1               not dominant  (negative against mu1 + mu3)\n"
        "  la1 - la3                not dominant  (negative against la2 + la3)\n"
        "  0                        dominant\n"
        "global fiber functions: ℂ\n"
    ),
    (6, 5): (
        "highest weights at (k1=6, l1=5):\n"
        "  mu1 - mu5                not dominant  (negative against mu2 + mu5)\n"
        "  mu1 - la5                not dominant  (negative against la1 + la5)\n"
        "  -mu5 + la1               not dominant  (negative against mu1 + mu5)\n"
        "  la1 - la5                not dominant  (negative against la2 + la5)\n"
        "  0                        dominant\n"
        "global fiber functions: ℂ\n"
    ),
    (200, 3): (
        "highest weights at (k1=200, l1=3):\n"
        "  mu1 - mu199              not dominant  (negative against mu2 + mu199)\n"
        "  mu1 - la3                not dominant  (negative against la1 + la3)\n"
        "  -mu199 + la1             not dominant  (negative against mu1 + mu199)\n"
        "  la1 - la3                not dominant  (negative against la2 + la3)\n"
        "  0                        dominant\n"
        "global fiber functions: ℂ\n"
    ),
}

# A suite's wall time in its report line, e.g. "(3 checks, 0.01s, ".
_TIMING = re.compile(r"\d+\.\d+s,")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_flag_type():
    assert parse_flag_type("k=3,1 l=2,1") == ((3, 1), (2, 1))
    with pytest.raises(UsageError):
        parse_flag_type("k=3,1")
    with pytest.raises(UsageError):
        parse_flag_type("k=a,1 l=2,1")


def test_parse_index_sets():
    ft = validate_flag_type((3, 1, 1), (2, 1, 0))
    got = parse_index_sets(["I1=2;1", "I2=1;"], ft)
    assert got == (((2,), (1,)), ((1,), ()))
    with pytest.raises(UsageError):
        parse_index_sets(["I1=2;1"], ft)      # missing I2
    with pytest.raises(UsageError):
        parse_index_sets(["I1=2;1", "bogus"], ft)


def test_osp_basis_lists_generators(capsys):
    code, out, _ = run(capsys, "osp-basis", "--flavor", "odd",
                       "--m", "1", "--n", "1")
    assert code == 0
    assert "6 even + 6 odd" in out
    assert "A11:1,1" in out and "G4:1" in out


def test_check_membership_pass_fail(capsys):
    member = "1,0,0,0,0; 0,-1,0,0,0; 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0"
    code, out, _ = run(capsys, "check-membership", "--flavor", "odd",
                       "--m", "1", "--n", "1", "--matrix", member)
    assert code == 0 and "member" in out
    non_member = "1,0,0,0,0; 0,1,0,0,0; 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0"
    code, out, _ = run(capsys, "check-membership", "--flavor", "odd",
                       "--m", "1", "--n", "1", "--matrix", non_member)
    assert code == 1 and "NOT a member" in out


def test_flag_validate(capsys):
    code, out, _ = run(capsys, "flag-validate", "--type", "k=3,1 l=2,1")
    assert code == 0
    assert "valid flag type" in out and "3 even, 3 odd" in out
    code, out, _ = run(capsys, "flag-validate", "--type", "k=1,2 l=1,1")
    assert code == 1 and "invalid" in out
    code, _, err = run(capsys, "flag-validate", "--type", "nonsense")
    assert code == 2 and "error" in err


def test_act_round_trip(capsys):
    code, out, _ = run(capsys, "act", "--type", "k=2,1 l=1,1",
                       "--matrix", "2,0,0; 1,1,0; 0,0,1")
    assert code == 0
    assert "transformed chart" in out
    assert "1/2 + 1/2*x1_2_1" in out


def test_act_rejects_bad_matrix(capsys):
    code, _, err = run(capsys, "act", "--type", "k=2,1 l=1,1",
                       "--matrix", "1,1,0; 0,1,0; 0,0,1")
    assert code == 2 and "error" in err


def test_fundamental_field_golden(capsys):
    code, out, _ = run(capsys, "fundamental-field", "--k1", "2", "--l1", "1",
                       "--tag", "G4:1")
    assert code == 0
    assert "d/dxi1_1 - x1_1*d/deta1_1_1 - xi1_1*d/dy1_1_1" in out
    code, out, _ = run(capsys, "fundamental-field", "--k1", "2", "--l1", "1",
                       "--tag", "C12:1,1", "--negate")
    assert code == 0 and "d/deta1_1_1" in out
    code, _, err = run(capsys, "fundamental-field", "--k1", "2", "--l1", "1",
                       "--tag", "NOPE:1")
    assert code == 2


def test_isotropic_chart_residual_reported(capsys):
    code, out, _ = run(capsys, "isotropic-chart", "--k1", "2", "--l1", "1")
    assert code == 0
    assert "isotropy residual Z^ST Gamma Z: 0" in out
    assert "-1/2*x1_1^2" in out


def test_bwb_prints_verdicts(capsys):
    code, out, _ = run(capsys, "bwb", "--k1", "3", "--l1", "2")
    assert code == 0
    assert "not dominant" in out and "dominant" in out
    assert "global fiber functions: ℂ" in out
    code, out, _ = run(capsys, "bwb", "--k1", "1", "--l1", "1")
    assert code == 0 and "{0}" in out


@pytest.mark.parametrize("k1,l1", list(BWB_OUTPUT))
def test_bwb_output_pinned(capsys, k1, l1):
    code, out, err = run(capsys, "bwb", "--k1", str(k1), "--l1", str(l1))
    assert (code, out, err) == (0, BWB_OUTPUT[k1, l1], "")


def test_cached_parser_gives_the_same_result_every_call(capsys):
    """The parser is built once per process; no call may leak into the
    next (an ``append`` default list filled by one ``act`` call would
    change the chart of the following call without ``--index-set``)."""
    calls = [
        ["act", "--type", "k=2,1 l=1,1", "--matrix", "0,1,0; 1,0,0; 0,0,1",
         "--index-set", "I1=2;1", "--target", "I1=1;1"],
        ["act", "--type", "k=2,1 l=1,1", "--matrix", "2,0,0; 1,1,0; 0,0,1"],
        ["verify", "--suite", "bwb", "--k1", "3", "--l1", "2"],
        ["verify", "--suite", "bwb", "--k1", "60", "--l1", "40"],
        ["--version"],
        ["bwb", "--k1", "3"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, _TIMING.sub("<t>", captured.out), captured.err

    first = [outcome(argv) for argv in calls]
    assert [code for code, _, _ in first] == [0, 0, 0, 0, 0, 2]
    assert "Z_1 = 1, 0; x1_1_1, xi1_1_1; 0, 1" in first[0][1]
    assert "1/2 + 1/2*x1_2_1" in first[1][1]
    for _ in range(2):
        assert [outcome(argv) for argv in calls] == first
    assert build_parser() is build_parser()


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bwb",
                       "--k1", "3", "--l1", "2")
    assert code == 0
    assert "verify: PASS" in out


def test_verify_json_out(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--suite", "osp-defining",
                       "--m", "1", "--n", "1", "--json-out", str(report))
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["schema"] == "superflag-report/1"
    assert payload["status"] == "pass"
    assert payload["reports"][0]["checks"]
    for check in payload["reports"][0]["checks"]:
        assert set(check) == {"id", "label", "status", "witness"}


def test_size_cap_enforced(capsys, monkeypatch):
    monkeypatch.setenv("SUPERFLAG_MAX_SIZE", "2")
    code, _, err = run(capsys, "isotropic-chart", "--k1", "3", "--l1", "1")
    assert code == 2
    assert "size cap" in err


def test_default_size_cap_is_4(capsys, monkeypatch):
    monkeypatch.delenv("SUPERFLAG_MAX_SIZE", raising=False)
    code, out, _ = run(capsys, "verify", "--suite", "isomorphism",
                       "--k1", "4", "--l1", "4")
    assert code == 0 and "verify: PASS" in out
    code, out, err = run(capsys, "verify", "--suite", "isomorphism",
                         "--k1", "5", "--l1", "4")
    assert code == 2 and out == "" and "size cap 4" in err


def test_verify_max_size_caps_single_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "osp-defining",
                       "--m", "2", "--n", "1", "--max-size", "1")
    assert code == 2 and "size cap 1" in err
    code, out, _ = run(capsys, "verify", "--suite", "osp-defining",
                       "--m", "1", "--n", "1", "--max-size", "1")
    assert code == 0 and "verify: PASS" in out


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_verify_max_size_below_one_is_usage_error(capsys, cap):
    for suite in ((), ("--suite", "osp-defining")):
        code, out, err = run(capsys, "verify", *suite, "--max-size", cap)
        assert code == 2 and out == ""
        assert f"--max-size must be at least 1, got {cap}" in err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_max_size_env_below_one_is_usage_error(capsys, monkeypatch, cap):
    monkeypatch.setenv("SUPERFLAG_MAX_SIZE", cap)
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == ""
    assert f"SUPERFLAG_MAX_SIZE must be at least 1, got {cap}" in err


@pytest.mark.parametrize("k1,l1", [("1", "0"), ("0", "1")])
def test_imp_witness_degenerate_sizes_are_usage_errors(capsys, k1, l1):
    code, out, err = run(capsys, "verify", "--suite", "imp-witness",
                         "--k1", k1, "--l1", l1)
    assert code == 2 and out == ""
    assert "the imP witness needs k1 >= 1 and l1 >= 1" in err


@pytest.mark.parametrize("k1,l1", [("1", "0"), ("0", "1")])
def test_isomorphism_degenerate_sizes_are_usage_errors(capsys, k1, l1):
    code, out, err = run(capsys, "verify", "--suite", "isomorphism",
                         "--k1", k1, "--l1", l1)
    assert code == 2 and out == ""
    assert "the isomorphism suite needs k1 >= 1 and l1 >= 1" in err


def test_bad_matrix_literal_is_usage_error(capsys):
    code, _, err = run(capsys, "check-membership", "--m", "1", "--n", "1",
                         "--matrix", "1/0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0;"
                                     " 0,0,0,0,0; 0,0,0,0,0")
    assert code == 2 and err.startswith("error: ") and "1/0" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_ends_without_traceback(unbuffered):
    """``superflag ... | head -1``: the reader takes one line and closes the
    pipe while about 300 kB, more than a pipe buffer holds, are unwritten."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, SUPERFLAG_MAX_SIZE="5",
               PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "superflag.cli", "osp-basis",
         "--m", "5", "--n", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    code = proc.wait(timeout=120)
    assert first.startswith(b"osp basis, flavor=odd, sizes=(5,5)")
    assert code in (0, 1, 2)
    assert err == b"", err.decode(errors="replace")
