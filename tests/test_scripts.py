"""The example scripts run end to end and print what their docstrings promise."""

import re

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
