"""Session fixtures and the acceptance summary printed after the run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import helpers  # noqa: E402

ACCEPTANCE_RESULTS = {}


@pytest.fixture(scope="session")
def cusp_q():
    return helpers.model("cusp")


@pytest.fixture(scope="session")
def cusp_f5():
    return helpers.model("cusp_f5")


@pytest.fixture(scope="session")
def node():
    return helpers.model("node")


@pytest.fixture(scope="session")
def shifted_node():
    return helpers.model("shifted_node")


@pytest.fixture(scope="session")
def offjet():
    return helpers.model("cusp_offjet")


@pytest.fixture(scope="session")
def tcurve():
    return helpers.model("tcurve")


@pytest.fixture(scope="session")
def smooth():
    return helpers.model("smooth_point")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        verdict, label = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(f"ACCEPTANCE {n}: {verdict} - {label}")
