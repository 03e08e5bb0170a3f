"""The immutable record base behind arclift's input and result types."""

import pytest

import helpers
from arclift import (
    CheckResult,
    JetSet,
    QQ,
    SeriesRing,
    StructureError,
    build_model,
)
from arclift.ring import DEFAULT_PRECISION


def test_fields_can_be_neither_assigned_nor_deleted():
    ring = SeriesRing(QQ, 40)
    problem = helpers.problem("cusp")
    for record, field in ((ring, "n_work"), (problem, "c"), (CheckResult("a", True, "d"), "ok")):
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert (ring.n_work, problem.c) == (40, 4)


def test_equal_rings_are_equal_and_hash_alike():
    """Poly._compat and Poly._values accept an equal ring that is not the same object."""
    a, b = SeriesRing(QQ, 40), SeriesRing(QQ, 40)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert a != SeriesRing(QQ, 41)
    assert a != (QQ, 40)


def test_models_compare_by_identity():
    problem = helpers.problem("cusp")
    first, second = build_model(problem), build_model(problem)
    assert first == first
    assert first != second
    assert len({first, second}) == 2


def test_replace_validates_again():
    problem = helpers.problem("cusp")
    with pytest.raises(StructureError, match="congruence level c must be a positive integer"):
        problem.replace(c=0)
    with pytest.raises(TypeError):
        problem.replace(nope=1)
    moved = problem.replace(c=5)
    assert (moved.c, problem.c) == (5, 4)
    assert moved.jet == problem.jet and moved.certificate is problem.certificate


def test_positional_keyword_and_default_construction():
    assert SeriesRing(QQ, 40) == SeriesRing(field=QQ, n_work=40) == SeriesRing(QQ, n_work=40)
    assert SeriesRing(QQ).n_work == SeriesRing(field=QQ).n_work == DEFAULT_PRECISION
    problem = helpers.problem("cusp")
    assert problem.mode == "dvr"
    jets = JetSet(5, 2, 3, (), candidates=1)
    assert (jets.p, jets.n, jets.m, jets.ordered, jets.candidates) == (5, 2, 3, (), 1)
    with pytest.raises(TypeError):
        SeriesRing()
    with pytest.raises(TypeError):
        SeriesRing(QQ, 40, 1)
    with pytest.raises(TypeError):
        SeriesRing(QQ, field=QQ)


def test_repr_matches_the_dataclass_form():
    assert repr(CheckResult("a", True, "d")) == "CheckResult(name='a', ok=True, detail='d')"
    assert repr(SeriesRing(QQ, 40)) == "SeriesRing(field=QQ, n_work=40)"


def test_problem_space_is_built_once_and_not_carried_by_replace():
    problem = helpers.problem("cusp")
    assert problem.space is problem.space
    assert problem.space.names == ("Y1", "Y2")
    moved = problem.replace(c=5)
    assert moved.space is not problem.space
    assert moved.space == problem.space


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    """Both cost every `python -m arclift` several milliseconds of start-up."""
    code = "import sys, arclift.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = helpers.python("-c", code)
    assert (out.returncode, out.stdout.strip(), out.stderr) == (0, "[]", "")
