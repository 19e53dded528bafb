"""Command-line interface: subcommands, exit codes, report files."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from superflag import osp
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


def test_parse_index_sets_rejects_a_repeated_step():
    ft = validate_flag_type((3, 1, 1), (2, 1, 0))
    with pytest.raises(UsageError, match="I1"):
        parse_index_sets(["I1=2;1", "I2=1;", "I1=3;1"], ft)


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


@pytest.mark.parametrize("matrix,want_code,want_out", [
    ("0,0,1,0,0; 0,0,0,0,0; 0,-1,0,0,0; 0,0,0,0,0; 0,0,0,0,0", 0,
     "member: defining equation M^ST G + G M = 0 holds\n"),
    ("1,0,0,0,0; 0,1,0,0,0; 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0", 1,
     "NOT a member; residual M^ST G + G M =\n"
     "  0, 2, 0, 0, 0; 2, 0, 0, 0, 0; 0, 0, 0, 0, 0; 0, 0, 0, 0, 0;"
     " 0, 0, 0, 0, 0\n"),
], ids=["member", "non-member"])
def test_check_membership_runs_the_residual_once(capsys, monkeypatch, matrix,
                                                 want_code, want_out):
    """check-membership decides and prints from one residual: README's
    (1,1) member and a non-member each make one ``osp.entry_residual``
    call, with the exit code and output unchanged."""
    calls = []
    real = osp.entry_residual

    def counted(entries, gram):
        calls.append(entries)
        return real(entries, gram)

    monkeypatch.setattr(osp, "entry_residual", counted)
    code, out, err = run(capsys, "check-membership", "--flavor", "odd",
                         "--m", "1", "--n", "1", "--matrix", matrix)
    assert (code, out, err) == (want_code, want_out, "")
    assert len(calls) == 1


@pytest.mark.parametrize("parity", ["auto", "0"])
def test_check_membership_non_homogeneous_is_usage_error(capsys, parity):
    """A scalar on an even slot beside one on an odd slot has no
    supertranspose: exit 2 with one error line, whether the declared
    parity or the membership test rejects it."""
    mixed = "1,0,0,0,1; 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0"
    code, out, err = run(capsys, "check-membership", "--flavor", "odd",
                         "--m", "1", "--n", "1", "--parity", parity,
                         "--matrix", mixed)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "parity-homogeneous" in err
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize("command", [["bwb"], ["verify", "--suite", "bwb"]])
def test_unallocatable_bwb_rank_is_a_usage_error(capsys, command):
    """bwb takes any rank, and a rank whose weights cannot be allocated
    exits 2 with one error line.  The allocation of a 10^15-entry weight
    fails at once, so the test allocates nothing."""
    code, out, err = run(capsys, *command, "--k1", "1000000000000000",
                         "--l1", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "memory" in err
    assert "Traceback" not in err and err.count("\n") == 1


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


def test_verify_json_out_is_one_write(tmp_path, capsys, monkeypatch):
    """The report file is written with one write of its whole text, the
    indented JSON with non-ASCII kept (bwb's fiber is ℂ) and a final
    newline."""
    from superflag import cli

    writes = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(text)
            return self.fh.write(text)

    monkeypatch.setattr(cli, "open", lambda *a, **k: Recording(open(*a, **k)),
                        raising=False)
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "bwb", "--k1", "3",
                     "--l1", "2", "--json-out", str(report))
    assert code == 0
    text = report.read_text(encoding="utf-8")
    payload = json.loads(text)
    assert "ℂ" in text
    assert writes == [text]
    assert text == json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def test_size_cap_enforced(capsys, monkeypatch):
    monkeypatch.setenv("SUPERFLAG_MAX_SIZE", "2")
    code, _, err = run(capsys, "isotropic-chart", "--k1", "3", "--l1", "1")
    assert code == 2
    assert "size cap" in err


def test_default_size_cap_is_6(capsys, monkeypatch):
    monkeypatch.delenv("SUPERFLAG_MAX_SIZE", raising=False)
    code, out, _ = run(capsys, "verify", "--suite", "isomorphism",
                       "--k1", "6", "--l1", "6")
    assert code == 0 and "verify: PASS" in out
    code, out, err = run(capsys, "verify", "--suite", "isomorphism",
                         "--k1", "7", "--l1", "6")
    assert code == 2 and out == "" and "size cap 6" in err


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


@pytest.mark.parametrize("k1,l1", [("2", "0"), ("0", "1")])
def test_bwb_degenerate_sizes_are_usage_errors(capsys, k1, l1):
    code, out, err = run(capsys, "verify", "--suite", "bwb",
                         "--k1", k1, "--l1", l1)
    assert code == 2 and out == ""
    assert "the bwb suite needs k1 >= 1 and l1 >= 1" in err


@pytest.mark.parametrize("argv,message", [
    (["--suite", "osp-defining", "--k1", "4"],
     "--suite osp-defining does not take --k1; it takes --m and --n"),
    (["--suite", "bwb", "--m", "2"],
     "--suite bwb does not take --m; it takes --k1 and --l1"),
    (["--suite", "isomorphism", "--k1", "2", "--l1", "1", "--n", "1"],
     "--suite isomorphism does not take --n; it takes --k1 and --l1"),
    (["--k1", "9", "--l1", "9"], "size flags need --suite (--k1, --l1 given)"),
    (["--m", "1"], "size flags need --suite (--m given)"),
])
def test_verify_size_flags_that_do_not_apply_are_usage_errors(
        capsys, argv, message):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_bad_matrix_literal_is_usage_error(capsys):
    code, _, err = run(capsys, "check-membership", "--m", "1", "--n", "1",
                         "--matrix", "1/0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0;"
                                     " 0,0,0,0,0; 0,0,0,0,0")
    assert code == 2 and err.startswith("error: ") and "1/0" in err


@pytest.mark.parametrize("entry", ["1e1000000000", "1_0"])
def test_exponent_and_separator_literals_are_usage_errors(capsys, entry):
    """A factor is an integer, a decimal or p/q: an exponent would build a
    huge integer before any size cap applies, so it is rejected unread."""
    code, out, err = run(capsys, "check-membership", "--m", "1", "--n", "1",
                         "--matrix", f"{entry},0,0,0,0; 0,0,0,0,0;"
                                     " 0,0,0,0,0; 0,0,0,0,0; 0,0,0,0,0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and entry in err


def test_unwritable_json_out_is_usage_error(tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--suite", "osp-defining",
                         "--m", "1", "--n", "1", "--json-out", str(report))
    assert code == 2 and "verify: PASS" in out
    assert err.startswith("error: cannot write the report to")
    assert not report.exists()


@pytest.mark.parametrize("flag_type", ["k=4,2 l=4,2", "k=4,3,2,1 l=4,3,2,1"])
def test_act_without_exact_inverse_fails_fast(flag_type):
    """2 on the diagonal and 1 elsewhere in each parity block: the
    designated submatrix holds even chart variables, so it has no exact
    inverse.  The timeout fails any invert that forms powers of N before
    it decides: at these types each power grows in degree, and summing
    them takes tens of seconds."""
    block = [[2 if i == j else 1 for j in range(4)] for i in range(4)]
    rows = [r + [0] * 4 for r in block] + [[0] * 4 + r for r in block]
    matrix = "; ".join(",".join(map(str, r)) for r in rows)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    env.pop("SUPERFLAG_MAX_SIZE", None)
    proc = subprocess.run(
        [sys.executable, "-m", "superflag.cli", "act", "--type", flag_type,
         "--matrix", matrix],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 2
    assert "not scalar-plus-nilpotent" in proc.stderr
    assert "Traceback" not in proc.stderr


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


# --- fuzzing cli.main ------------------------------------------------------
#
# Every argv must end in exit code 0, 1 or 2 without an exception escaping
# main.  Sizes above 3 are generated freely but reach the program only
# through a size cap of at most 3 (SUPERFLAG_MAX_SIZE or --max-size), which
# rejects them before any work; bwb is exempt from the cap and so draws its
# ranks from a small range.  No case may start a large computation.

settings.register_profile(
    "cli-fuzz", max_examples=300, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow])

#: Seconds any one fuzzed invocation may take; every case under a cap of
#: 3 finishes in well under a second.
CASE_BUDGET_S = 10.0

_small = st.integers(min_value=-2, max_value=3)
_valid = st.integers(min_value=1, max_value=3)
_sizes = st.one_of(_valid, _valid, st.integers(min_value=-2, max_value=0),
                   st.integers(min_value=4, max_value=10**9))
_ranks = st.integers(min_value=-2, max_value=60)
_numbers = st.sampled_from(["0", "0", "0", "1", "-1", "1/2", "i", "r2",
                            "1+i", "2*r2-i"])
_entries = _numbers | st.sampled_from(
    ["", "x", "1/0", "--", "*", "+", " 1 ", "r2*r2", "0/3"])
_literals = st.one_of(
    st.lists(st.lists(_entries, min_size=1, max_size=7).map(",".join),
             min_size=1, max_size=7).map(";".join),
    st.text(alphabet="0123456789-+*/,;ir2 e_", max_size=40))


def _square_literals(n):
    """n x n literals: the zero and identity matrices (parity-homogeneous,
    so they get past parsing), or rows of numbers or of any entries."""
    def diagonal(x):
        return ";".join(",".join(x if i == j else "0" for j in range(n))
                        for i in range(n))

    return st.one_of(
        st.sampled_from([diagonal("0"), diagonal("1"), diagonal("-1/2")]),
        st.sampled_from([_numbers, _entries]).flatmap(
            lambda entry: st.lists(
                st.lists(entry, min_size=n, max_size=n).map(",".join),
                min_size=n, max_size=n).map(";".join)))


_flag_types = st.builds(
    lambda k, l, k_text, l_text: f"{k_text}{','.join(map(str, k))}"
                                 f" {l_text}{','.join(map(str, l))}",
    st.lists(st.integers(min_value=-1, max_value=6), min_size=1, max_size=4),
    st.lists(st.integers(min_value=-1, max_value=6), min_size=1, max_size=4),
    st.sampled_from(["k=", "k=", "l=", ""]),
    st.sampled_from(["l=", "l=", "k="]))
#: Valid flag types and their total size m + n.
_valid_flag_types = [("k=1,0 l=1,1", 2), ("k=1,1 l=1,0", 2),
                     ("k=2,1 l=1,0", 3), ("k=2,1 l=1,1", 3),
                     ("k=1,0 l=2,1", 3), ("k=2,1,0 l=2,1,1", 4)]
_index_sets = st.builds(
    lambda step, even, odd: f"I{step}={even};{odd}",
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["", "1", "2", "1,2", "x"]),
    st.sampled_from(["", "1", "2", "1,2"]))
_tags = st.sampled_from(["G4:1", "G3:1", "A11:1,1", "B11:1,1", "C11:1,1",
                         "E:1,1", "nosuch", ""])


def _opt(flag, values):
    """``[flag, value]``, or nothing in one case out of four, so that
    required options go missing too."""
    given = values.map(lambda v: [flag, str(v)])
    return st.one_of(st.just([]), given, given, given)


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [t for p in ps for t in p])


def _command(name, *parts):
    return _argv(st.just([name]), *parts)


def _membership(flavor, m, n):
    total = {"odd": 2 * m + 1 + 2 * n, "even": 2 * m + 2 * n,
             "primed": m + 2 * n}[flavor]
    return _command(
        "check-membership", st.just(["--flavor", flavor]),
        st.just(["--m", str(m), "--n", str(n)]),
        _opt("--parity", st.sampled_from(["0", "1", "auto"])),
        _opt("--matrix", _square_literals(total) | _literals))


def _act(flag_type, total):
    return _command(
        "act", st.just(["--type", flag_type]),
        _opt("--matrix", _square_literals(total) | _literals),
        _opt("--index-set", _index_sets), _opt("--target", _index_sets))


_verify = st.sampled_from(
    ["osp-defining", "lemma-fields", "isomorphism", "imp-witness", None]
).flatmap(lambda suite: _command(
    "verify",
    st.just(["--suite", suite] if suite else []),
    *(_opt(f"--{p}", _sizes) for p in ("m", "n", "k1", "l1")),
    _opt("--max-size", st.integers(min_value=-1, max_value=3)),
    _opt("--json-out", st.sampled_from(["{tmp}/report.json",
                                        "{tmp}/missing/report.json"]))))

_verify_bwb = _command("verify", st.just(["--suite", "bwb"]),
                       _opt("--k1", _ranks), _opt("--l1", _ranks),
                       _opt("--max-size", _small))

_commands = st.one_of(
    _command("osp-basis",
             _opt("--flavor", st.sampled_from(["odd", "even", "primed",
                                               "gl", "nosuch"])),
             _opt("--m", _sizes), _opt("--n", _sizes)),
    _command("check-membership",
             _opt("--flavor", st.sampled_from(["odd", "even", "primed"])),
             _opt("--m", _sizes), _opt("--n", _sizes),
             _opt("--parity", st.sampled_from(["0", "1", "auto", "2"])),
             _opt("--matrix", _literals)),
    st.tuples(st.sampled_from(["odd", "even", "primed"]), _valid,
              _valid).flatmap(lambda fmn: _membership(*fmn)),
    _command("flag-validate", _opt("--type", _flag_types)),
    _command("act", _opt("--type", _flag_types), _opt("--matrix", _literals),
             _opt("--index-set", _index_sets),
             _opt("--target", _index_sets)),
    st.sampled_from(_valid_flag_types).flatmap(lambda ft: _act(*ft)),
    _command("fundamental-field", _opt("--k1", _sizes),
             _opt("--l1", _sizes), _opt("--tag", _tags),
             st.sampled_from([[], ["--negate"]])),
    _command("isotropic-chart", _opt("--k1", _sizes), _opt("--l1", _sizes),
             _opt("--tail", st.sampled_from(["k=1 l=0", "k=0 l=1",
                                             "k=1 l=1", "k=1", "x"]))),
    _command("bwb", _opt("--k1", _ranks), _opt("--l1", _ranks)),
    _verify,
    _verify,  # twice: verify has the most paths
    _verify_bwb,
    st.sampled_from([[], ["--version"], ["--help"], ["verify", "--help"],
                     ["no-such-command"]]),
)

_junk = st.one_of(
    st.just([]), st.just([]), st.just([]),
    st.lists(st.sampled_from(["--m", "1", "x", "--nosuch", "-1", ""]),
             min_size=1, max_size=2))


@seed(20261018)
@settings(settings.get_profile("cli-fuzz"))
@given(_commands, _junk,
       st.sampled_from(["3", "3", "3", "3", "2", "1", "0", "x"]))
def test_fuzzed_argv_exits_0_1_or_2_without_traceback(argv, junk, env_cap):
    out, err = StringIO(), StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        argv = [t.replace("{tmp}", tmp) for t in argv + junk]
        with mock.patch.dict(os.environ, {"SUPERFLAG_MAX_SIZE": env_cap}), \
                redirect_stdout(out), redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            elapsed = time.perf_counter() - t0
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    assert elapsed < CASE_BUDGET_S, (argv, elapsed)


# ---------------------------------------------------------------------------
# Pinned `superflag verify` output
# ---------------------------------------------------------------------------

#: sha256 of the text and of the --json-out JSON of each `superflag verify`
#: run, with the suite durations masked (``_masked_verify``), and its exit
#: code.  A change that promises to keep every output the same keeps these.
VERIFY_PINS = {
    (): (
        0, '4795ca0e1041e60eb4646e154c9458e6a5cff8639287bc7775d616ad2741b821',
        'df0e151c89cf71c2421a1f2f1e90439cdc37427db084fd2fb75cd9d02755700f'),
    ('--suite', 'osp-defining', '--m', '0', '--n', '1'): (
        0, '4d64e1b5b4c87615edfd6cab274019d01f7295aac7afe5d0ef13114fa32f0f3d',
        'aec9cd4c8a186a44a2fd87eccba6b4ed5889384c8c1f048a1a8a63b22ecfb9c8'),
    ('--suite', 'osp-defining', '--m', '0', '--n', '2'): (
        0, 'd2624aeb52b106da9e7f0af7c60629b95b1f8a94f7dbe8abe473e114d087a7f4',
        '4021a6c43e64bd6234977ee1b78c5417b503484cc29d70036e7eafa2be43fa74'),
    ('--suite', 'osp-defining', '--m', '0', '--n', '3'): (
        0, 'eb086082cf0e48abded6918929b7524e0eca7a89d27a649ce923e6f9b3286fe2',
        'ce4a8115468e5f62061ac4dc4001a89ce0b97439c6c3f11bcf64162be092bd9d'),
    ('--suite', 'osp-defining', '--m', '1', '--n', '1'): (
        0, '7eb6b25df8b6e2d331c54d018141867835853519ec7ceafce2a21604a773790f',
        '5ec7c55ec8986bd0f48a62dfb9bb4027a33681d863e7335e2376fa084f53722c'),
    ('--suite', 'osp-defining', '--m', '1', '--n', '2'): (
        0, 'cb4dde2d28f1b71ae0b1504d60d24eb71dba89e2c21e4f3a14d4ac3020f96c64',
        'eff36232637b397cecfad68e7072a765246cfba33b8d561dbe476ec5649d47c7'),
    ('--suite', 'osp-defining', '--m', '1', '--n', '3'): (
        0, '93996c8dbdf90640982259fef8c9da6bce1d5317cc34ed8e6c480fd48faa13af',
        '4c096071aee7ae665af990a228c2c4e5a0122010e3a84153800aca692cb4bd9a'),
    ('--suite', 'osp-defining', '--m', '2', '--n', '1'): (
        0, '6ff335be442e557247324fbcdb52ad2a3e9a2ae8dbb89d1f5b79d0e936f70a08',
        '27679e91a432d9b2b124e3af5354db6ac3bc35ad1cdae31327357b1c1d5b8252'),
    ('--suite', 'osp-defining', '--m', '2', '--n', '2'): (
        0, '8beba0a7c8e1bce8d6f02d557b2e545eaa556b1219b8d749ed083a4716200dc4',
        '1e89c383b741b082c0610550071d1149750e618f4238db7eca49c58a5aa71e95'),
    ('--suite', 'osp-defining', '--m', '2', '--n', '3'): (
        0, 'd986661e1349c39b78df678b4d55356bc316da153906a90e4dcc521f343b15de',
        'd33ad239042475febda5f053ff5856b1f5cc1bfe60c2947fbdfe9cbda5bda796'),
    ('--suite', 'osp-defining', '--m', '3', '--n', '1'): (
        0, 'ef875e826b8f08fe773ab66b0a3dc9fb2bededb7c4df79ac9768ca4681071cd1',
        '09f2ed2d9fd81d129c3e0e020fad9ce43d91a918e8178e9518029a53f2b3ff2e'),
    ('--suite', 'osp-defining', '--m', '3', '--n', '2'): (
        0, 'a16c17233588828f2a524c975f7487beefe6f187d213ac7d5af2f3bb623f913c',
        'bb6a2e6668d6ec21af24759aa5bfa693865ff7e3ad48a608abc1f5373722e457'),
    ('--suite', 'osp-defining', '--m', '3', '--n', '3'): (
        0, 'd0b6817f490101f4713cf8caa7ad69cc122a3b4d6f1f7868a19636b1d35dd52c',
        '0eea87e6f0bc10f169d4da3ce5e7fa8792e72266544b532e7b99ec6fbbab7c8f'),
    ('--suite', 'isomorphism', '--k1', '1', '--l1', '1'): (
        0, '163ac9ee2c37a78fc6a93729acd8fb4dbda486d2fab03ba21d6d277b15f17888',
        'fd6171050c6a5d7e77925b419fec6b5381cb3042af66b78a3ad50686d974d448'),
    ('--suite', 'isomorphism', '--k1', '1', '--l1', '2'): (
        0, '24f47483ffd55242bd94e24043af6bf7ff7e7ae05292e9bb058d3be37a42179c',
        'a1ed7e9933e7d860248bb600d6f02a4d436c8edb0796ee05925557b8d7329ebc'),
    ('--suite', 'isomorphism', '--k1', '1', '--l1', '3'): (
        0, '7e004c6f271e4cd2dda564b1a6488266cd1ff51ce71adc6b5b6962c30522c251',
        '42506fcb9b8053d65b9f4cd8e5f05e437f94444787f9ebb7ef84546d656622c4'),
    ('--suite', 'isomorphism', '--k1', '2', '--l1', '1'): (
        0, '115aa720fdaf2470f90b57ff7228949258e6219e4e1b15be6ffa841bde924c84',
        '6d2fea579680a387e005e2d8efd46ff1b35f8fbc0d3b9163c749b0a959e3a295'),
    ('--suite', 'isomorphism', '--k1', '2', '--l1', '2'): (
        0, '615c22407ff0540680f59c12d64fa8c936949a47f893e2427d5df560275690b4',
        '0f9ce7aa2eaca3f5c0e5b20b201bd25ac5e6a8f04eb606ca9f35f756e75cd533'),
    ('--suite', 'isomorphism', '--k1', '2', '--l1', '3'): (
        0, '02eb3686ab151241beb18833b1af58b5d4756393ed5e19a2e01795a2351f5325',
        '5ddbb9949cb0cafc1c2ca2431277f20b4c65c8668bbded1ac21dbba6636bc351'),
    ('--suite', 'isomorphism', '--k1', '3', '--l1', '1'): (
        0, 'b82a885635a2bdcd484530946cb0a4e7c8065e3d2fd73c2cd74ee9093eb60426',
        '24aba70d297505b45c0c378e5e85cd06f4746104ad2c49e7622da736e38f5d2b'),
    ('--suite', 'isomorphism', '--k1', '3', '--l1', '2'): (
        0, 'a8b485c69976b3bc9d20821ce8ac097c219be267ddb36efdb68f6eec0250ccbc',
        'a7c8422324221ae4f4b199c5d6cb6599359e7633d816b319621f62ba234bcbcf'),
    ('--suite', 'isomorphism', '--k1', '3', '--l1', '3'): (
        0, '7c87909db86cfeadbc61d0635fe6d6635ce62c3b15405a7f553c0171f6642643',
        '9d19b6c397ad2b6bee9fb944a4fd1c719e83a6738c9f7d13379825941ea5fa8c'),
}


#: sha256 of the stdout of two commands that print Grassmann polynomials
#: from wide charts under the default cap, with their exit codes: a field
#: at (6,6) and the tailed (5,4) chart of the benchmark's costliest pair.
#: A change to the ring's monomial keys keeps these.
POLYNOMIAL_PINS = {
    ("fundamental-field", "--k1", "6", "--l1", "6", "--tag", "C21:2,2"): (
        0, 'c02049aaafc63ea49374802648c9c90c4bb8bf91957d3588a24a4787c57a0a88'),
    ("isotropic-chart", "--k1", "5", "--l1", "4", "--tail", "k=2 l=1"): (
        0, '349a305d115585f0722874b45bd5bc14ebc7f351df6ff82c987f0d0a4c648226'),
}


@pytest.mark.parametrize("argv", sorted(POLYNOMIAL_PINS),
                         ids=lambda argv: argv[0])
def test_polynomial_output_matches_pins(capsys, monkeypatch, argv):
    monkeypatch.delenv("SUPERFLAG_MAX_SIZE", raising=False)
    code, out, err = run(capsys, *argv)
    assert err == ""
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        POLYNOMIAL_PINS[argv]


def _verify_runs():
    yield ()
    for m in range(4):
        for n in range(1, 4):
            yield ("--suite", "osp-defining", "--m", str(m), "--n", str(n))
    for k1 in range(1, 4):
        for l1 in range(1, 4):
            yield ("--suite", "isomorphism", "--k1", str(k1), "--l1", str(l1))


def _masked_verify(capsys, tmp_path, argv):
    """``superflag verify argv --json-out FILE`` through cli.main: the exit
    code, then the sha256 of its text and of its JSON, each with every
    duration masked and the text's report path named FILE."""
    report = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", *argv, "--json-out", str(report))
    text = re.sub(r", \d+\.\d\ds, backend=", ", N.NNs, backend=",
                  out.replace(str(report), "FILE") + err)
    payload = re.sub(r'"duration_seconds": [^,\n]+', '"duration_seconds": 0',
                     report.read_text(encoding="utf-8"))
    return (code,) + tuple(hashlib.sha256(s.encode()).hexdigest()
                           for s in (text, payload))


@pytest.mark.parametrize("argv", list(_verify_runs()),
                         ids=lambda argv: " ".join(argv[1::2]) or "default")
def test_verify_output_matches_pins(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.delenv("SUPERFLAG_MAX_SIZE", raising=False)
    assert _masked_verify(capsys, tmp_path, argv) == VERIFY_PINS[argv]
