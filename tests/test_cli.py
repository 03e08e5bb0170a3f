"""Command line behavior: formats, exit codes, determinism, JSON mode."""

import json
import os
import re
import time
import tracemalloc

import pytest

import cli_corpus
import helpers
import power_reference
from arclift import ArcliftError, ParseError, SeriesRing, parse_series
from arclift import arcs, cli, polyring, ring
from arclift.cli import MAX_COUNT, MAX_EXPONENT, MAX_NWORK, load_problem
from helpers import run

CUSP = str(helpers.PROBLEMS / "cusp.json")
CUSP5 = str(helpers.PROBLEMS / "cusp_f5.json")
NODE = str(helpers.PROBLEMS / "node.json")
OFFJET = str(helpers.PROBLEMS / "cusp_offjet.json")
OFFJET5 = str(helpers.PROBLEMS / "cusp_offjet_f5.json")
SHIFTED = str(helpers.PROBLEMS / "shifted_node.json")
SMOOTH = str(helpers.PROBLEMS / "smooth_point.json")
TCURVE = str(helpers.PROBLEMS / "tcurve.json")


# -- problem files -------------------------------------------------------


def test_every_shipped_problem_loads():
    for path in helpers.shipped_problems():
        prob = load_problem(str(path))
        assert prob.n == len(prob.jet)


def _built(build, arg):
    """build(arg) with every series as (nums, den, prec) and every Poly as its terms, or the error."""
    try:
        return power_reference.stored(build(arg))
    except ArcliftError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n_work", [40, 160, 320])
def test_parse_problem_builds_what_load_problem_reads_from_a_file(tmp_path, n_work):
    """Every shipped problem over its own field, F5 and F_(2^31-1): the same ring, jet,
    ideal, multiplier, cofactors and c, or the same error class and message."""
    path = tmp_path / "problem.json"
    for shipped in helpers.shipped_problems():
        raw = json.loads(shipped.read_text())
        for field in dict.fromkeys((raw["field"], "F5", "F2147483647")):
            data = dict(raw, field=field, n_work=n_work)
            path.write_text(json.dumps(data))
            want = _built(load_problem, str(path))
            assert _built(cli.parse_problem, data) == want, (shipped.name, field)


def test_load_rejects_unknown_keys():
    with pytest.raises(ParseError):
        cli.parse_problem(helpers.problem_data("cusp", extra=1))


@pytest.mark.parametrize("data, message", [
    ([], "problem data must be a JSON object"),
    ({"field": "Q"}, "problem data lacks required key 'n'"),
])
def test_a_structural_error_names_the_data_not_a_file(data, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        cli.parse_problem(data)


# -- validate ------------------------------------------------------------


def test_validate_golden(capsys):
    code, out, err = run(capsys, "validate", CUSP)
    assert code == 0
    assert out.splitlines() == [
        f"problem: {CUSP}",
        "field: Q",
        "n: 2  r: 1  c: 4  mode: dvr",
        "check certificate-cofactors: ok - multiplier identity holds for every generator",
        "check jet-kills-ideal: ok - every generator vanishes at the jet through x^8",
        "check minor-order: ok - e = 3 < c = 4",
        "valid: yes (e = 3)",
    ]


def test_validate_failure_exits_2(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", jet=["x^3", "x^2 + x^4"])
    code, out, err = run(capsys, "validate", path)
    assert code == 2
    assert "valid: no" in out
    assert "check jet-kills-ideal: FAIL" in out


def test_validate_json(capsys):
    code, out, err = run(capsys, "validate", CUSP, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert doc["e"] == 3
    assert [c["name"] for c in doc["checks"]] == [
        "certificate-cofactors",
        "jet-kills-ideal",
        "minor-order",
    ]
    assert list(doc) == sorted(doc)


# -- desingularize -------------------------------------------------------


def test_desingularize_golden(capsys):
    code, out, err = run(capsys, "desingularize", CUSP)
    assert code == 0
    lines = out.splitlines()
    assert "e: 3" in lines
    assert "d = 2*x^4 + O(x^40)" in lines
    assert "perm: 1 2" in lines
    assert "param_count: 1" in lines
    assert "free T: T2" in lines
    assert "g_1 = T1 + x^2*T1^2 + 6*x^6*T1*T2 - 3*x^10*T2^2 - 16*x^16*T2^3" in lines
    assert "loc_s = 1 + 2*x^2*T1 + 6*x^6*T2" in lines
    assert "verified: yes" in lines
    assert sum(1 for ln in lines if ln.startswith("verify ")) == 9


def test_a_defaulted_certificate_follows_the_order_of_f(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "tcurve", **helpers.TCURVE_F_REVERSED)
    code, out, err = run(capsys, "desingularize", path)
    assert (code, err) == (0, "")
    assert "verified: yes" in out.splitlines()


def test_desingularize_rejects_a_bad_depth(capsys, tmp_path):
    code, out, err = run(capsys, "desingularize", helpers.problem_file(tmp_path, "cusp", c=3))
    assert code == 2
    assert "minor-order" in err


@pytest.mark.parametrize("command", ["validate", "desingularize"])
def test_a_large_variable_exponent_is_no_recursion_error(command, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", ideal=["Y1^2 - Y2^3 + Y1^5000"])
    proc = helpers.python("-m", "arclift", command, path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("key", ["ideal", "certificate"])
def test_a_variable_exponent_above_the_cap_exits_4(key, tmp_path):
    big = f"Y1^{MAX_EXPONENT + 1}"
    if key == "ideal":
        path = helpers.problem_file(tmp_path, "cusp", ideal=[f"Y1^2 - Y2^3 + {big}"])
    else:
        path = helpers.problem_file(tmp_path, "cusp", certificate={"N": big, "cofactors": [["1"]]})
    proc = helpers.python("-m", "arclift", "validate", path)
    assert proc.returncode == 4
    assert f"variable exponent {MAX_EXPONENT + 1} exceeds the cap {MAX_EXPONENT}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_desingularize_out_file(capsys, tmp_path):
    target = tmp_path / "model.json"
    code, out, err = run(capsys, "desingularize", CUSP, "--out", str(target))
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["e"] == 3
    assert doc["verified"] is True
    ring = SeriesRing(load_problem(CUSP).ring.field)
    assert parse_series(doc["d"], ring) == ring.parse("2*x^4")


def test_an_unwritable_report_file_is_a_parse_error(capsys, tmp_path):
    target = tmp_path / "no_such_dir" / "model.json"
    code, out, err = run(capsys, "desingularize", CUSP, "--out", str(target))
    assert (code, out) == (4, "")
    assert err.startswith("arclift: parse error: cannot write report file: ")
    assert "Traceback" not in err


def test_report_series_reparse(capsys):
    """Every series the report prints must be readable back by the parser."""
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9")
    ring = load_problem(CUSP).ring
    for ln in out.splitlines():
        if ln.startswith(("t_", "y2_")):
            text = ln.split(" = ", 1)[1]
            parse_series(text, ring)


# -- lift ----------------------------------------------------------------


def test_lift_golden(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9")
    assert code == 0
    assert out.splitlines()[3:] == [
        "mode: t-free",
        "t_1 = 3*x^28 + O(x^32)",
        "t_2 = x^9 + O(x^40)",
        "y2_1 = x^3 + 6*x^18 + 6*x^33 + O(x^37)",
        "y2_2 = x^2 + 4*x^17 + O(x^40)",
        "strict: true",
        "residual_f: 40",
        "residual_i: 40",
        "newton_iterations: 1",
        "k0: 28",
        "eff_prec: 37",
    ]


def test_params_and_t_free_agree(capsys):
    """Offset 1 against the zero reference shifts the free slot by x^(2c+1)."""
    code1, out1, err1 = run(capsys, "lift", CUSP, "--t-free", "x^9")
    code2, out2, err2 = run(capsys, "lift", CUSP, "--params", "1")
    assert code1 == code2 == 0
    pick = lambda text: [
        ln for ln in text.splitlines() if ln.startswith(("t_", "y2_", "strict"))
    ]
    assert pick(out1) == pick(out2)


def test_lift_is_byte_deterministic(capsys):
    runs = [run(capsys, "lift", CUSP, "--random", "3", "2") for _ in range(2)]
    assert runs[0] == runs[1]
    assert "seed: 3  count: 2" in runs[0][1]
    assert runs[0][1].count("-- draw") == 2


def test_lift_reference_mode_exits_3_without_a_reference(capsys):
    code, out, err = run(capsys, "lift", OFFJET, "--search-depth", "2")
    assert code == 3
    assert "no strict lift found within search depth 2" in err


def test_a_huge_search_depth_exits_3_at_once(capsys):
    """The search stops at layer c, so a depth of 10^6 costs what depth c costs."""
    start = time.perf_counter()
    code, out, err = run(capsys, "lift", OFFJET, "--search-depth", "1000000")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (3, "", "arclift: no strict lift found within search depth 1000000\n")


def test_lift_reference_mode_finds_the_shifted_node(capsys):
    code, out, err = run(capsys, "lift", SHIFTED)
    assert code == 0
    assert "mode: reference" in out
    assert "strict: true" in out


def test_lift_json_roundtrips(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9", "--json")
    doc = json.loads(out)
    assert doc["mode"] == "t-free"
    assert doc["lift"]["strict"] is True
    assert doc["lift"]["eff_prec"] == 37
    ring = load_problem(CUSP).ring
    assert parse_series(doc["lift"]["y2"][1], ring) == ring.parse("x^2 + 4*x^17")


def test_lift_rejects_wrong_arity(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x, x^2")
    assert code == 1


def test_the_environment_does_not_change_a_problem(capsys, monkeypatch):
    """A variable in the environment does not set the precision of a file without n_work."""
    monkeypatch.setenv("ARCLIFT_NWORK", "20")
    assert load_problem(CUSP).ring.n_work == 40
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9")
    assert code == 0
    assert "eff_prec: 37" in out


def test_the_working_precision_cap_is_admitted():
    assert helpers.problem("cusp", n_work=MAX_NWORK).ring.n_work == MAX_NWORK


def test_a_working_precision_above_the_cap_in_the_file_exits_4(tmp_path):
    jet = ["x^3 + x^999999999", "x^2"]
    path = helpers.problem_file(tmp_path, "cusp", n_work=MAX_NWORK + 1, jet=jet)
    proc = helpers.python("-m", "arclift", "validate", path)
    assert proc.returncode == 4
    assert f"exceeds the cap {MAX_NWORK}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_n_is_checked_against_the_jet_before_anything_n_wide_is_built(capsys, tmp_path, monkeypatch):
    path = helpers.problem_file(tmp_path, "cusp", n=100_000, ideal=["Y1^2 - Y2^3 + Y3"])
    ys = cli.VarSpace.ys

    def no_wide_space(n):
        if n > 2:
            pytest.fail(f"a {n}-variable space was built for a 2-component jet")
        return ys(n)

    monkeypatch.setattr(cli.VarSpace, "ys", staticmethod(no_wide_space))
    code, out, err = run(capsys, "validate", path)
    assert code == 1
    assert "jet must have 100000 components, got 2" in err
    assert "Traceback" not in err


def test_a_jet_that_is_not_a_list_is_refused_before_anything_n_wide_is_built(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", n=10**6, jet="x^3")
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "validate", path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = "arclift: parse error: 'jet' must be a non-empty list of strings\n"
    assert (code, out, err) == (4, "", message)
    assert peak < 5 * 10**6


def _refused(capsys, code, message, *argv):
    """main(argv) prints nothing on stdout, exits with code and reports exactly message."""
    assert run(capsys, *argv) == (code, "", f"arclift: {message}\n")


def test_a_truncated_problem_file_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "truncated.json"
    text = (helpers.PROBLEMS / "cusp.json").read_text()[:40]
    path.write_text(text)
    with pytest.raises(json.JSONDecodeError) as exc:
        json.loads(text)
    _refused(capsys, 4, f"parse error: problem file is not valid JSON: {exc.value}",
             "validate", str(path))


def test_a_field_of_composite_order_is_a_parse_error(capsys, tmp_path):
    _refused(capsys, 4, "parse error: bad field 'F4': modulus 4 is not prime",
             "validate", helpers.problem_file(tmp_path, "cusp", field="F4"))


def test_a_strong_pseudoprime_field_order_is_a_parse_error(capsys, tmp_path):
    """2047 = 23 * 89 passes the base-2 Miller-Rabin round; the base-3 round refuses it."""
    _refused(capsys, 4, "parse error: bad field 'F2047': modulus 2047 is not prime",
             "validate", helpers.problem_file(tmp_path, "cusp", field="F2047"))


def test_a_denominator_divisible_by_the_field_prime_is_a_parse_error(capsys, tmp_path):
    """The cusp with its generator divided by 5 is valid over Q and refused over F5."""
    data = helpers.problem_data("cusp", ideal=["1/5*Y1^2 - 1/5*Y2^3"])
    assert cli.parse_problem(data).c == 4
    with pytest.raises(ParseError, match=r"^division by zero in F_5 \(at position 0\)$") as exc:
        cli.parse_problem(dict(data, field="F5"))
    assert exc.value.exit_code == 4
    _refused(capsys, 4, f"parse error: {exc.value}",
             "validate", helpers.problem_file(tmp_path, "cusp", ideal=data["ideal"], field="F5"))


def test_an_f_index_past_the_generators_is_refused_before_the_certificate_is_defaulted(
    capsys, tmp_path
):
    _refused(capsys, 1, "f indices must be distinct members of 1..1",
             "validate", helpers.problem_file(tmp_path, "cusp", f=[2]))


def test_c_cannot_be_inferred_where_multiplier_times_minor_vanishes_at_the_jet(capsys, tmp_path):
    path = helpers.problem_file(tmp_path, "cusp", c=None, jet=["0", "x^2"])
    _refused(capsys, 1, "cannot infer c: multiplier times minor vanishes at the jet "
             "to the checked precision x^40", "validate", path)


@pytest.mark.parametrize("c", [10**9, 10**20])
def test_a_huge_c_exits_1_against_the_jet_precision(capsys, tmp_path, c):
    code, out, err = run(capsys, "validate", helpers.problem_file(tmp_path, "cusp", c=c))
    assert (code, out) == (1, "")
    assert f"need at least 2c+1 = {2 * c + 1}" in err


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["validate", CUSP], ["lift", "--json", CUSP], ["--help"], ["lift", "--help"]],
                         ids=["validate", "lift-json", "help", "lift-help"])
def test_a_closed_stdout_exits_1_with_an_empty_stderr(monkeypatch, argv, unbuffered):
    """The pipe's read end is closed before the child starts, so its output fails to
    reach stdout whether print writes at once or the interpreter flushes at exit."""
    if unbuffered:
        monkeypatch.setenv("PYTHONUNBUFFERED", "1")
    else:
        monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = helpers.python("-m", "arclift", *argv, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, "")


# -- extract and roundtrip ------------------------------------------------


def test_extract_golden(capsys):
    code, out, err = run(
        capsys, "extract", CUSP, "--arc", "x^3 + 6*x^18 + 6*x^33, x^2 + 4*x^17"
    )
    assert code == 0
    assert "t_1 = 3*x^28 + O(x^35)" in out
    assert "t_2 = x^9 + O(x^32)" in out


def test_extract_non_strict_arc_exits_1(capsys):
    code, out, err = run(capsys, "extract", NODE, "--arc", "x^2 + x^9, x^4 + x^11")
    assert code == 1
    assert "congruence window" in err


def test_extract_refuses_an_arc_too_short_to_decide_the_window(capsys):
    _refused(capsys, 1, "arc component 1 is known only through x^4; "
             "extraction needs agreement decided through x^8",
             "extract", CUSP, "--arc", "x^3 + O(x^5), x^2 + O(x^5)")


def test_extract_with_reference_reports_offsets(capsys):
    code, out, err = run(
        capsys, "extract", CUSP,
        "--arc", "x^3 + 6*x^19 + 6*x^35, x^2 + 4*x^18",
        "--reference", "0",
    )
    assert code == 0
    assert "z_1 = x + O(x^23)" in out


def test_extract_out_of_family_exits_1(capsys):
    ring = SeriesRing(load_problem(CUSP).ring.field)
    s = ring.parse("x + x^8")
    arc = ", ".join(v.render() for v in (s * s * s, s * s))
    code, out, err = run(capsys, "extract", CUSP, "--arc", arc, "--reference", "0")
    assert code == 1
    assert "differs from the reference" in err


def test_roundtrip_golden(capsys):
    code, out, err = run(capsys, "roundtrip", CUSP, "--count", "3")
    assert code == 0
    lines = out.splitlines()
    assert "reference newton_iterations: 0" in lines
    assert lines.count("trial 1: ok (offsets recovered through x^22)") == 1
    assert "roundtrip: 3/3 ok" in lines


# -- oracle ----------------------------------------------------------------


def test_oracle_golden(capsys):
    code, out, err = run(capsys, "oracle", CUSP5, "--prec", "10")
    assert code == 0
    lines = out.splitlines()
    assert "window: x^10" in lines
    assert "candidates: 25" in lines
    assert "members: 25" in lines
    assert "containment: 10/10 random strict lifts are members" in lines
    assert "member 2: y1 = x^3 + O(x^10) ; y2 = x^2 + x^9 + O(x^10)" in lines


def test_oracle_is_deterministic(capsys):
    a = run(capsys, "oracle", CUSP5, "--prec", "11")
    b = run(capsys, "oracle", CUSP5, "--prec", "11")
    assert a == b


def test_oracle_with_no_family_members(capsys):
    code, out, err = run(capsys, "oracle", OFFJET5, "--prec", "10")
    assert code == 0
    assert "members: 0" in out
    assert "containment: skipped" in out


def test_oracle_rejects_rational_fields(capsys):
    code, out, err = run(capsys, "oracle", CUSP, "--prec", "10")
    assert code == 1


def test_oracle_budget_exit(capsys):
    code, out, err = run(capsys, "oracle", CUSP5, "--prec", "30")
    assert code == 1
    assert "budget" in err.lower()


@pytest.mark.parametrize("prec", ["5000", "10000000"])
def test_oracle_refuses_a_huge_window_without_a_traceback(prec):
    proc = helpers.python("-m", "arclift", "oracle", CUSP5, "--prec", prec)
    assert proc.returncode == 1
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_oracle_at_the_congruence_window_over_a_large_prime_builds_no_kernel(tmp_path):
    """At --prec 2c+1 there is no layer to extend, so J0's kernel, here p^2
    vectors over F_(2^31-1), is never built; the run needs no memory for it."""
    path = helpers.problem_file(tmp_path, "cusp", field="F2147483647")
    proc = helpers.python("-m", "arclift", "oracle", path, "--prec", "9", "--samples", "0",
                          max_memory=1 << 30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "candidates: 1" in lines and "members: 1" in lines
    assert "member 1: y1 = x^3 + O(x^9) ; y2 = x^2 + O(x^9)" in lines
    assert "Traceback" not in proc.stderr


def test_oracle_refuses_generators_known_short_of_the_window(capsys, tmp_path):
    _refused(capsys, 1, "a coefficient of generator 1 is known only through x^11, "
             "short of the window x^13", "oracle", helpers.problem_file(tmp_path, "cusp_f5", n_work=12),
             "--prec", "13")


def test_oracle_skips_containment_when_no_sampled_lift_settles_membership(capsys, tmp_path):
    """At n_work 12 no sampled lift of cusp_f5 is precise enough to settle membership mod x^10."""
    path = helpers.problem_file(tmp_path, "cusp_f5", n_work=12)
    code, out, err = run(capsys, "oracle", path, "--prec", "10")
    assert (code, err) == (0, "")
    assert "containment: skipped (precision cannot settle membership mod x^10)" in out.splitlines()
    code, out, err = run(capsys, "oracle", path, "--prec", "10", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["containment"] is None


def test_oracle_exits_2_when_a_strict_lift_is_not_a_member(capsys, monkeypatch):
    monkeypatch.setattr(arcs.JetSet, "contains", lambda self, arc: False)
    code, out, err = run(capsys, "oracle", CUSP5, "--prec", "10")
    assert code == 2
    assert "containment: 0/10 random strict lifts are members" in out.splitlines()
    assert err == "arclift: a strict lift is missing from the exhaustive member set\n"


# -- exit codes and parse errors -------------------------------------------


def test_missing_file_is_a_parse_error(capsys):
    code, out, err = run(capsys, "validate", "no_such_file.json")
    assert code == 4


def test_bad_series_text_is_a_parse_error(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "2x")
    assert code == 4


def test_usage_error_is_a_parse_error(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--no-such-flag")
    assert code == 4


def test_lift_rejects_a_reference_without_params(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9", "--reference", "0")
    assert code == 4
    assert err == "arclift: parse error: --reference applies only with --params\n"


def test_lift_rejects_prec_when_searching_for_a_reference(capsys):
    code, out, err = run(capsys, "lift", SHIFTED, "--prec", "20")
    assert code == 4
    assert "--prec" in err


SEARCH_DEPTH_ERR = "arclift: parse error: --search-depth applies only when searching for a reference lift\n"


def test_lift_rejects_search_depth_with_t_free(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9", "--search-depth", "99")
    assert (code, out, err) == (4, "", SEARCH_DEPTH_ERR)


def test_lift_rejects_search_depth_with_random_draws(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--random", "1", "1", "--search-depth", "3")
    assert (code, out, err) == (4, "", SEARCH_DEPTH_ERR)


def test_lift_rejects_search_depth_with_a_given_reference(capsys):
    code, out, err = run(
        capsys, "lift", CUSP, "--params", "1", "--reference", "0", "--search-depth", "3"
    )
    assert (code, out, err) == (4, "", SEARCH_DEPTH_ERR)


def test_lift_searches_to_the_given_depth_when_params_need_a_reference(capsys):
    code, out, err = run(capsys, "lift", OFFJET, "--params", "1", "--search-depth", "2")
    assert code == 3
    assert err == "arclift: no strict lift found within search depth 2\n"


MISSING = "no_such_problem.json"
NEGATIVE_DEPTH = "--search-depth must not be negative, got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", MISSING, "--search-depth", "-1"], NEGATIVE_DEPTH),
        (["roundtrip", MISSING, "--search-depth", "-1"], NEGATIVE_DEPTH),
        (["oracle", MISSING, "--prec", "10", "--search-depth", "-1"], NEGATIVE_DEPTH),
        (["oracle", MISSING, "--prec", "10", "--samples", "-3"],
         f"--samples must lie in 0..{MAX_COUNT}, got -3"),
        (["oracle", MISSING, "--prec", "10", "--samples", str(MAX_COUNT + 1)],
         f"--samples must lie in 0..{MAX_COUNT}, got {MAX_COUNT + 1}"),
        (["lift", MISSING, "--random", "1", str(MAX_COUNT + 1)],
         f"draw count {MAX_COUNT + 1} exceeds the cap {MAX_COUNT}"),
        (["roundtrip", MISSING, "--count", str(MAX_COUNT + 1)],
         f"trial count {MAX_COUNT + 1} exceeds the cap {MAX_COUNT}"),
    ],
)
def test_count_and_depth_flags_out_of_range_exit_4_before_the_file_is_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (4, "", f"arclift: parse error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lift", MISSING, "--random", "1", "0"], "draw count must be positive, got 0"),
        (["roundtrip", MISSING, "--count", "0"], "trial count must be positive, got 0"),
        (["roundtrip", OFFJET, "--count", "0"], "trial count must be positive, got 0"),
    ],
)
def test_counts_below_one_exit_1_before_the_file_is_read(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"arclift: {message}\n")


def test_zero_samples_and_a_zero_search_depth_are_admitted(capsys):
    code, out, err = run(
        capsys, "oracle", CUSP5, "--prec", "10", "--samples", "0", "--search-depth", "0"
    )
    assert code == 0
    assert not any(ln.startswith("containment") for ln in out.splitlines())


def test_every_error_class_exits_as_the_readme_table_says():
    table = {}
    for line in (helpers.REPO / "README.md").read_text(encoding="utf-8").splitlines():
        row = re.match(r"\| (\d) \|", line)
        if row:
            table.update((name, int(row.group(1))) for name in re.findall(r"`(\w+Error)`", line))
    classes, todo = [], [ArcliftError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    assert sorted(cls.__name__ for cls in classes) == sorted(table)
    for cls in classes:
        assert cls.exit_code == table[cls.__name__], cls.__name__


def test_importing_arclift_leaves_numpy_unloaded():
    proc = helpers.python("-c", "import sys, arclift, arclift.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_lift_names_a_bad_target(capsys):
    code, out, err = run(capsys, "lift", CUSP, "--t-free", "x^9", "--prec", "0")
    assert code == 1
    assert err == "arclift: target residual order must be at least 1, got 0\n"


@pytest.mark.parametrize("prec", ["0", "-3"])
def test_lift_params_names_a_bad_target(capsys, prec):
    code, out, err = run(capsys, "lift", CUSP, "--params", "1", "--prec", prec)
    assert (code, out) == (1, "")
    assert err == f"arclift: target residual order must be at least 1, got {prec}\n"


def test_smooth_point_has_no_parameters(capsys):
    code, out, err = run(capsys, "lift", SMOOTH, "--t-free", "")
    assert code in (0, 4)
    code, out, err = run(capsys, "lift", SMOOTH)
    assert code == 0
    assert "strict: true" in out


def test_space_curve_cli(capsys):
    code, out, err = run(capsys, "desingularize", TCURVE)
    assert code == 0
    assert "perm: 2 3 1" in out
    assert "verified: yes" in out


# -- one report per run ------------------------------------------------------


def test_the_cli_byte_corpus(monkeypatch):
    """Every recorded invocation still gives the same exit code, stdout, stderr and report."""
    monkeypatch.chdir(helpers.REPO)
    entries = json.loads(cli_corpus.GOLDEN.read_text(encoding="utf-8"))
    assert [e["argv"] for e in entries if cli_corpus.digest(e["argv"]) != e["sha256"]] == []


@pytest.mark.parametrize(
    "argv, renders",
    [
        (["lift", CUSP, "--t-free", "x^9"], 4),
        (["lift", CUSP, "--random", "1", "2"], 8),
        (["desingularize", TCURVE], 8),
        (["oracle", CUSP5, "--prec", "10"], 6),
        (["roundtrip", CUSP, "--count", "3"], 10),
    ],
)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_each_series_and_poly_is_rendered_once(capsys, monkeypatch, argv, renders, mode):
    calls = []
    render_terms = ring.render_terms

    def counting(terms):
        calls.append(1)
        return render_terms(terms)

    monkeypatch.setattr(ring, "render_terms", counting)
    monkeypatch.setattr(polyring, "render_terms", counting)
    code, out, err = run(capsys, *argv, *mode)
    assert code == 0
    assert len(calls) == renders


def test_jet_prec_is_not_a_problem_key(capsys, tmp_path):
    code, out, err = run(capsys, "validate", helpers.problem_file(tmp_path, "cusp", jet_prec=20))
    assert code == 4
    assert "unknown problem keys: jet_prec" in err


def test_an_o_marker_in_the_jet_truncates_it():
    problem = cli.parse_problem(helpers.problem_data("cusp", jet=["x^3 + O(x^20)", "x^2"]))
    assert problem.jet[0].prec == 20
    assert problem.jet[0] == problem.ring.parse("x^3").truncate(20)
    assert problem.jet[1].prec == problem.ring.n_work
