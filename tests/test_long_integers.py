"""Integer literals and printed coefficients of any length, read and written exactly.

Python refuses int <-> str conversions past a configurable digit limit
(4300 by default, as low as 640 with PYTHONINTMAXSTRDIGITS).  Every
integer here is longer than 4300 digits, or becomes so, and none of them
may depend on that limit or end in a traceback.  The integers are built
arithmetically, since int("...") itself is what the limit stops.
"""

from fractions import Fraction

import pytest

import helpers
from arclift import QQ, PrimeField, SeriesRing, VarSpace, parse_poly, parse_series
from helpers import run


def repunit(digit: int, length: int) -> int:
    """The integer written as `length` copies of `digit`."""
    return digit * (10**length - 1) // 9


ONES = "1" * 5000
SEVENS = "7" * 2500


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "F5"])
def test_the_parser_reads_long_literals_exactly(field):
    ring = SeriesRing(field, 40)
    big = field.coerce(repunit(1, 5000))
    assert parse_series(f"x^3 + {ONES}*x^30", ring).coeff_at(30) == big
    assert parse_series(f"-{ONES}", ring).coeff_at(0) == field.coerce(-repunit(1, 5000))
    poly = parse_poly(f"{ONES}*Y1^2 - Y2", ring, VarSpace.ys(2))
    assert poly.terms[(2, 0)].coeff_at(0) == big
    # an exponent past the working precision leaves nothing; a long O(...) caps at n_work
    assert parse_series(f"x^{ONES}", ring) == ring.zero()
    assert parse_series(f"1 + O(x^{ONES})", ring) == ring.one()


def test_the_parser_reads_long_denominators_exactly():
    ring = SeriesRing(QQ, 20)
    assert parse_series(f"1/{ONES}", ring).coeff_at(0) == Fraction(1, repunit(1, 5000))
    ring5 = SeriesRing(PrimeField(5), 20)
    assert parse_series(f"1/{ONES}", ring5).coeff_at(0) == 1


def test_the_printer_writes_long_coefficients_exactly():
    ring = SeriesRing(QQ, 40)
    long_num = repunit(7, 5000)
    series = ring.monomial(3) - ring.monomial(30, long_num)
    assert str(series) == f"x^3 - {'7' * 5000}*x^30 + O(x^40)"
    frac = ring.scalar(Fraction(-3, long_num))
    assert frac.render() == f"-3/{'7' * 5000}"
    poly = parse_poly(f"{'7' * 5000}*Y1 + x", ring, VarSpace.ys(1))
    assert poly.render() == f"x + {'7' * 5000}*Y1"
    assert parse_series(str(series), ring) == series


def test_validate_reads_a_long_jet_coefficient(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", jet=[f"x^3 + {ONES}*x^30", "x^2"])
    code, out, err = run(capsys, "validate", path)
    assert (code, err) == (0, "")
    assert "jet-kills-ideal: ok" in out


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["extract", "--arc", f"x^3 + {ONES}*x^30, x^2"], 2),
        (["lift", "--t-free", f"x^9 + {ONES}*x^20"], 0),
        (["lift", "--params", ONES], 0),
        (["lift", "--params", "1", "--reference", ONES], 1),
        (["extract", "--arc", "x^3, x^2", "--reference", ONES], 1),
    ],
)
def test_series_arguments_read_long_coefficients(capsys, argv, expected):
    code, out, err = run(capsys, argv[0], helpers.PROBLEMS / "cusp.json", *argv[1:])
    assert code == expected
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["desingularize"], ["desingularize", "--json"], ["lift", "--t-free", "x^9"]]
)
def test_commands_print_coefficients_longer_than_the_digit_limit(capsys, tmp_path, argv):
    """At n_work 64 the square of the 2500-digit jet coefficient reaches the output."""
    path = helpers.problem_file(tmp_path, "cusp", n_work=64, jet=[f"x^3 + {SEVENS}*x^30", "x^2"])
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (code, err) == (0, "")
    assert max(len(word) for word in out.replace("/", " ").replace("*", " ").split()) > 4300


def test_a_long_json_number_is_a_parse_error(capsys, tmp_path):
    text = (helpers.PROBLEMS / "cusp.json").read_text(encoding="utf-8")
    path = tmp_path / "problem.json"
    path.write_text(text.replace('"c": 4', f'"c": {"9" * 5000}'), encoding="utf-8")
    code, out, err = run(capsys, "validate", path)
    assert code == 4
    assert err.startswith("arclift: parse error: cannot read problem file:")


def test_a_problem_file_that_is_not_utf8_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "problem.json"
    path.write_bytes(b'{"field": "Q\xff"}')
    code, out, err = run(capsys, "validate", path)
    assert code == 4
    assert err.startswith("arclift: parse error: cannot read problem file:")


def test_the_exponent_cap_names_a_long_exponent_exactly(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", ideal=[f"Y1^2 - Y2^{ONES}"])
    code, out, err = run(capsys, "validate", path)
    assert code == 4
    assert f"variable exponent {ONES} exceeds the cap" in err
