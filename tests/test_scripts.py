"""The example scripts run end to end and print what their docstrings promise."""

import re
import sys

import helpers

SCRIPTS = helpers.REPO / "scripts"


def test_cusp_walkthrough_runs():
    proc = helpers.python(str(SCRIPTS / "cusp_walkthrough.py"))
    assert proc.returncode == 0, proc.stderr
    assert "match = True" in proc.stdout


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
