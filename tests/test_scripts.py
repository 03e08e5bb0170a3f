"""The example scripts run end to end and print what their docstrings promise."""

import re
import sys

import pytest

import helpers

SCRIPTS = helpers.REPO / "scripts"


def test_cusp_walkthrough_runs():
    """Over Q at the default working precision, and over F5 at n_work 60."""
    for argv in ([], ["--field", "F5", "--n-work", "60"]):
        proc = helpers.python(str(SCRIPTS / "cusp_walkthrough.py"), *argv)
        assert proc.returncode == 0, proc.stderr
        assert "match = True" in proc.stdout


@pytest.mark.parametrize("script, argv, code, message", [
    ("cusp_walkthrough.py", ["--field", "F4"], 4, "bad field 'F4': modulus 4 is not prime"),
    ("cusp_walkthrough.py", ["--field", "Fx"], 4, "unrecognized field 'Fx'; use 'Q' or 'F<p>'"),
    ("jet_census.py", ["--p", "4"], 4, "bad field 'F4': modulus 4 is not prime"),
    ("jet_census.py", ["--windows", "8"], 1, "window x^8 is shorter than the congruence window x^9"),
], ids=["walkthrough-F4", "walkthrough-Fx", "census-p4", "census-window8"])
def test_a_bad_script_input_exits_with_its_error_code_and_one_line(script, argv, code, message):
    """The error's exit code and `script: message` on stderr, with no traceback."""
    proc = helpers.python(str(SCRIPTS / script), *argv)
    assert (proc.returncode, proc.stderr) == (code, f"{script}: {message}\n")


def test_jet_census_counts_members_and_finds_every_sampled_lift():
    proc = helpers.python(str(SCRIPTS / "jet_census.py"), "--windows", "9", "10", "11", "--samples", "3")
    assert proc.returncode == 0, proc.stderr
    rows = re.findall(r"^\s+x\^(\d+)\s+(\d+)\s+\S+\s+(\d+/\d+)", proc.stdout, re.M)
    assert [(m, count) for m, count, _ in rows] == [("9", "1"), ("10", "25"), ("11", "625")]
    assert [sampled for _, _, sampled in rows] == ["3/3"] * 3


def test_max_rss_passes_a_command_under_its_limit_and_fails_one_over_it():
    script = str(SCRIPTS / "max_rss.py")
    ok = helpers.python(script, "1000", sys.executable, "-c", "print('hi')")
    assert (ok.returncode, ok.stdout) == (0, "hi\n")
    assert re.fullmatch(r"peak RSS: \d+\.\d MB \(limit 1000 MB\)\n", ok.stderr)
    assert helpers.python(script, "1", sys.executable, "-c", "pass").returncode == 1
    failed = helpers.python(script, "1000", sys.executable, "-c", "raise SystemExit(3)")
    assert failed.returncode == 3
