"""CLI: schema stability, exit codes, output formats."""

import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from floorconvex.cli import main
from floorconvex.sequences import SEQUENCE_NAMES

T_LIST_DECIMALS = [1.0, 1.0, 1 / 3, 1 / 18, 1 / 180, 1 / 2700, 1 / 56700,
                   1 / 1587600, 1 / 57153600]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_json_schema(capsys):
    code, out, _ = run(capsys, "exact", "--seq", "t", "--n", "8")
    assert code == 0
    d = json.loads(out)
    assert d["sequence"] == "t"
    assert {"sequence", "method", "rows", "manifest"} <= set(d)
    assert {"subcommand", "flags", "seed", "version", "schema", "started",
            "finished", "python", "numpy", "platform",
            "cpu_count"} == set(d["manifest"])
    assert len(d["rows"]) == 9
    for i, row in enumerate(d["rows"]):
        assert {"index", "num", "den", "decimal"} == set(row)
        assert Fraction(int(row["num"]), int(row["den"])) == Fraction(
            row["decimal"]).limit_denominator(10 ** 12)
        assert row["decimal"] == pytest.approx(T_LIST_DECIMALS[i])


def test_exact_rationals_round_trip_exactly(capsys):
    code, out, _ = run(capsys, "exact", "--seq", "ell", "--n", "6")
    d = json.loads(out)
    from floorconvex.sequences import ell_seq
    assert [Fraction(int(r["num"]), int(r["den"])) for r in d["rows"]] \
        == ell_seq(6)


def test_exact_table_past_the_int_digit_limit(capsys):
    # ell_150 has more digits than the default 4300-digit limit on int -> str;
    # the limit is lifted for the table only
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "exact", "--seq", "ell", "--n", "150")
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert len(rows) == 151
    assert max(len(rows[-1]["num"]), len(rows[-1]["den"])) > 4300
    assert sys.get_int_max_str_digits() == limit
    from floorconvex.sequences import ell_seq
    assert [Fraction(int(r["num"]), int(r["den"])) for r in rows[:7]] \
        == ell_seq(6)


def test_ell_first_passes_the_int_digit_limit_at_117(capsys):
    default = sys.int_info.default_max_str_digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(default + 1000)
    try:
        code, out, err = run(capsys, "exact", "--seq", "ell", "--n", "117")
        assert sys.get_int_max_str_digits() == default + 1000
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0, err
    digits = [max(len(r["num"]), len(r["den"]))
              for r in json.loads(out)["rows"]]
    assert max(digits[:117]) <= default < digits[117]


def test_exact_csv_has_manifest_comment(capsys):
    code, out, _ = run(capsys, "exact", "--seq", "t", "--n", "3",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "index,num,den,decimal"
    assert len(lines) == 6


def test_exact_invalid_n_exits_1(capsys):
    code, _, err = run(capsys, "exact", "--seq", "t", "--n", "-1")
    assert code == 1
    assert "error:" in err


def test_unknown_subcommand_exits_1(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_estimate_json(capsys):
    code, out, _ = run(capsys, "estimate", "--body", "triangle", "--n", "3",
                       "--samples", "50000", "--seed", "42")
    assert code == 0
    d = json.loads(out)
    row = d["rows"][0]
    assert {"estimate", "std_error", "ci_low", "ci_high", "n_samples",
            "seed", "n_success", "low_power", "wall_ms"} == set(row)
    assert d["manifest"]["seed"] == 42
    assert abs(row["estimate"] - 1 / 18) < 0.01


def test_estimate_json_reports_stats(capsys):
    code, out, _ = run(capsys, "estimate", "--body", "prism3d", "--n", "4",
                       "--samples", "3000", "--seed", "1", "--workers", "2")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert {"sample_ms", "predicate_ms", "exact_ms", "n_ambiguous",
            "n_chunks", "chunk_size", "workers"} == set(stats)
    assert stats["n_chunks"] == 1 and stats["workers"] == 2
    assert stats["predicate_ms"] > 0


def test_estimate_unset_seed_is_reported(capsys):
    code, out, _ = run(capsys, "estimate", "--body", "triangle", "--n", "2",
                       "--samples", "1000")
    d = json.loads(out)
    assert d["manifest"]["seed"] is not None
    assert d["rows"][0]["seed"] == d["manifest"]["seed"]


def test_estimate_beta2(capsys):
    code, out, _ = run(capsys, "estimate", "--estimator", "beta2", "--n", "2",
                       "--samples", "50000", "--seed", "1")
    d = json.loads(out)
    assert abs(d["rows"][0]["estimate"] - 0.2) < 0.02


def test_estimate_bad_body_exits_1(capsys):
    code, _, err = run(capsys, "estimate", "--body", "nope", "--n", "2",
                       "--samples", "10")
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("--body", "triangle", "--n", "3", "--samples", "0"),
    ("--body", "triangle", "--n", "1", "--samples", "0"),
    ("--estimator", "q2-height", "--body", "square", "--samples", "0"),
    ("--estimator", "beta2", "--n", "1", "--samples", "0"),
    ("--estimator", "beta2", "--n", "3", "--samples", "-5"),
    ("--body", "triangle", "--n", "3", "--samples", "100", "--workers", "0"),
    ("--estimator", "q2-height", "--body", "square", "--samples", "100",
     "--workers", "0"),
    *[("--estimator", e, "--body", "triangle", "--n", "-3", "--samples", "10")
      for e in ("q", "no-floor", "beta1", "beta2", "fradius")],
])
def test_estimate_counts_below_one_exit_1(capsys, argv):
    code, out, err = run(capsys, "estimate", "--seed", "1", *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv, says", [
    (("--estimator", "beta1", "--body", "square"), "--body"),
    (("--estimator", "beta2", "--body", "prism3d"), "--body"),
    (("--estimator", "fradius", "--body", "mountain3d"), "--body"),
    (("--estimator", "q2-height", "--n", "5"), "--n"),
    (("--estimator", "q2-height", "--body", "square", "--n", "3"), "--n"),
    # the chain estimators' own n check, reached only without a --body
    *[(("--estimator", e, "--n", "-3"), "n must be >= 0")
      for e in ("beta1", "beta2", "fradius")],
])
def test_estimate_refusals_exit_1(capsys, argv, says):
    code, out, err = run(capsys, "estimate", "--samples", "100", "--seed", "1",
                         *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert says in err


@pytest.mark.parametrize("argv, body", [
    (("--estimator", "beta2", "--n", "3"), None),
    (("--estimator", "fradius", "--n", "3"), None),
    (("--estimator", "q2-height",), "tetrahedron"),
    (("--n", "3"), "tetrahedron"),
    (("--estimator", "q2-height", "--body", "square", "--n", "2"), "square"),
])
def test_estimate_reports_the_body_it_samples(capsys, argv, body):
    code, out, _ = run(capsys, "estimate", "--samples", "100", "--seed", "1",
                       *argv)
    assert code == 0
    d = json.loads(out)
    assert d["body"] == body and d["manifest"]["flags"]["body"] == body


def test_quadrature(capsys):
    code, out, _ = run(capsys, "quadrature", "--top", "square", "--n", "3")
    assert code == 0
    d = json.loads(out)
    row = d["rows"][0]
    assert {"value", "error", "evaluations", "exhausted",
            "wall_ms", "num", "den"} == set(row)
    assert row["value"] == pytest.approx(5 / 36)
    assert (row["num"], row["den"]) == ("5", "36")


def test_quadrature_past_its_budget_exits_1(capsys):
    code, out, err = run(capsys, "quadrature", "--top", "mountain2d",
                         "--n", "4", "--budget", "10")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--budget 10" in err
    assert len(err.splitlines()) == 1


def test_quadrature_refuses_an_over_budget_run_before_any_work(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "quadrature", "--top", "mountain2d",
                         "--n", "200")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1 and out == ""
    assert err.startswith("error:") and "--budget" in err
    assert len(err.splitlines()) == 1


def test_quadrature_pwl_file(capsys, tmp_path):
    top = {"kind": "pwl", "knots": [[["0", "1"], ["1", "1"]],
                                    [["1", "1"], ["1", "1"]]]}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    code, out, _ = run(capsys, "quadrature", "--top", f"pwl:{path}",
                       "--n", "2")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == pytest.approx(0.5)


@pytest.mark.parametrize("argv, desc, says", [
    (("quadrature", "--n", "2", "--top", "pwl:"), {"kind": "pwl"}, "'knots'"),
    (("quadrature", "--n", "2", "--top", "pwl:"), {"knots": []}, "'kind'"),
    (("quadrature", "--n", "2", "--top", "pwl:"), [1, 2], "not a JSON object"),
    (("body", "--body", ""), [1, 2], "not a JSON object"),
    (("estimate", "--samples", "10", "--body", ""), "mountain",
     "not a JSON object"),
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[1, 2]]}, "is malformed"),
    (("body", "--body", ""), {"kind": "frustum", "dimension": 3, "h": "x"},
     "is malformed"),
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[[0, 0], [1, 1]], [[1, 1], [1, 1]]]},
     "is malformed"),
    (("body", "--body", ""), {"kind": "frustum", "dimension": 3, "h": "x"},
     "'h'"),
    (("body", "--body", ""), {"kind": "frustum", "dimension": 3, "h": True},
     "'h'"),
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[["0", "1"], ["0", "1"]],
                               [["1e3", "1"], ["1", "1"]]]}, "'knots'[1]"),
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[0, 0], [1, 0]]}, "'knots'[0]"),
    (("body", "--body", ""),
     {"kind": "prism", "dimension": 3, "floor": [["a", 1], [1, 0], [1, 1]]},
     "'floor'"),
    # a float knot part is refused, not truncated to an int (Q_3 would read 1/18)
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[["0", "1"], ["0", "1"]],
                               [["1", "2"], ["1", "1"]],
                               [["1", "1"], [0.9, 1]]]}, "'knots'[2]"),
    (("estimate", "--n", "3", "--samples", "100", "--body", ""),
     {"kind": "mountain", "apex": [math.nan, 0]}, "'apex'"),
    (("body", "--body", ""), {"kind": "mountain", "apex": ["1", 0]},
     "'apex'"),
    (("estimate", "--n", "3", "--samples", "100", "--body", ""),
     {"kind": "mountain", "apex": ["1", 0]}, "'apex'"),
    (("estimate", "--n", "3", "--samples", "100", "--body", ""),
     {"kind": "mountain", "apex": [math.inf, 0]}, "'apex'"),
    (("estimate", "--n", "3", "--samples", "100", "--body", ""),
     {"kind": "prism", "floor": [[0, 0], [math.inf, 0], [1, 1], [0, 1]]},
     "'floor'"),
    (("body", "--body", ""),
     {"kind": "prism", "floor": [[0, 0], [1e300, 0], [1e300, 1e300],
                                 [0, 1e300]]}, "'floor'"),
    (("estimate", "--n", "3", "--samples", "100", "--body", ""),
     {"kind": "prism", "floor": [[0, 0], [1e300, 0], [1e300, 1e300],
                                 [0, 1e300]]}, "'floor'"),
    (("body", "--body", ""),
     {"kind": "prism", "floor": [[0, 0], [1, 0], [True, True], [0, 1]]},
     "'floor'"),
    (("body", "--body", ""),
     {"kind": "prism", "floor": [[0, 0], [1, 0], ["1", "1"], [0, 1]]},
     "'floor'"),
    (("quadrature", "--n", "3", "--top", "pwl:"),
     {"kind": "pwl", "knots": [[["0", "1"], ["1", "1"]],
                               [["1", "1"], ["1", "1"]]], "extra": 1},
     "'extra'"),
    (("body", "--body", ""), {"kind": "frustum", "dimension": "3", "h": 0.5},
     "'dimension'"),
    # a float dimension is refused for every kind, not only where it breaks
    (("body", "--body", ""), {"kind": "frustum", "dimension": 3.0, "h": 0.5},
     "'dimension'"),
    (("body", "--body", ""), {"kind": "frustum", "dimension": 2.0, "h": 0.5},
     "'dimension'"),
    (("body", "--body", ""), {"kind": "prism", "floor": 5}, "'floor'"),
    (("body", "--body", ""), {"kind": "subprism2d", "top": []}, "'top'"),
    (("quadrature", "--n", "3", "--top", "pwl:"), {"kind": "pwl", "knots": 5},
     "'knots'"),
    (("body", "--body", ""), {"kind": "mountain", "dimension": 3.0},
     "'dimension'"),
])
def test_malformed_descriptor_exits_1(capsys, tmp_path, argv, desc, says):
    path = tmp_path / "desc.json"
    path.write_text(json.dumps(desc))
    code, _, err = run(capsys, *argv[:-1], f"{argv[-1]}{path}")
    assert code == 1
    assert err.startswith("error:") and says in err and str(path) in err


def test_body_subcommand(capsys):
    code, out, _ = run(capsys, "body", "--body", "mountain3d", "--levels", "3")
    assert code == 0
    d = json.loads(out)
    assert d["dimension"] == 3
    assert d["max_height"] == pytest.approx(3.0)
    assert d["volume"] == pytest.approx(1.0)
    assert len(d["rows"]) == 4
    assert {"height", "layer", "below"} == set(d["rows"][0])


def test_body_bad_file_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "body", "--body", str(path))
    assert code == 1


@pytest.mark.parametrize("sub", ["estimate", "body"])
def test_descriptor_missing_a_key_exits_1(capsys, tmp_path, sub):
    path = tmp_path / "frustum.json"
    path.write_text(json.dumps({"kind": "frustum", "dimension": 3}))
    code, _, err = run(capsys, sub, "--body", str(path))
    assert code == 1
    assert err.startswith("error:") and "'h'" in err


@pytest.mark.parametrize("flag, value", [("--samples", "0"),
                                         ("--trials", "-3")])
def test_verify_counts_out_of_range_exit_1(capsys, flag, value):
    code, _, err = run(capsys, "verify", "--suite", "w_formula", flag, value)
    assert code == 1
    assert err.startswith("error:")


def test_verify_pass_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "mountain_mixture",
                       "--trials", "5", "--seed", "3")
    assert code == 0
    assert "mountain_mixture" in out and "PASS" in out


def test_verify_failure_exit_2(capsys, monkeypatch):
    from floorconvex import harness

    def failing(seed=0, trials=None, samples=None):
        rep = harness.Report("doomed", seed)
        rep.add("always fails", 1.0, 0.0, -1.0, False)
        return rep

    monkeypatch.setitem(harness.SUITES, "doomed", failing)
    code, out, _ = run(capsys, "verify", "--suite", "doomed")
    assert code == 2
    assert "FAIL" in out


def test_verify_flags_every_low_power_tetra_sandwich_record(capsys, tmp_path):
    # at one sample per estimate every record is low-power, the equality
    # check of Q_T(2) = 1/2 among them, so none can fail the suite
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "tetra_sandwich",
                     "--samples", "1", "--output", str(path))
    assert code == 0
    records = json.loads(path.read_text())["reports"][0]["records"]
    eq = [r for r in records
          if r["description"] == "tetrahedron n=2: Q = u_2 = 1/2"]
    assert len(eq) == 1 and eq[0]["flagged"]
    assert all(r["flagged"] for r in records)


def test_verify_report_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--suite", "mountain_mixture",
                     "--trials", "3", "--output", str(path))
    assert code == 0
    d = json.loads(path.read_text())
    assert {"reports", "manifest"} == set(d)
    assert d["reports"][0]["suite"] == "mountain_mixture"


def test_output_file_and_plot(capsys, tmp_path):
    out_file = tmp_path / "seq.json"
    code, _, _ = run(capsys, "exact", "--seq", "y", "--n", "4",
                     "--output", str(out_file))
    assert code == 0
    assert json.loads(out_file.read_text())["sequence"] == "y"


@pytest.mark.parametrize("name, q2", [
    ("triangle", 1 / 3), ("square", 1 / 2), ("mountain3d", 1 / 2),
    ("prism3d", 2 / 3), ("tetrahedron", 1 / 2)])
def test_body_reports_exact_q2(capsys, name, q2):
    code, out, _ = run(capsys, "body", "--body", name)
    assert code == 0
    assert json.loads(out)["q2"] == pytest.approx(q2, abs=1e-12)


def test_frustum_q2_between_the_cone_and_the_prism(capsys):
    # h = 1 is the prism and h -> 2 the cone, so for 1 < h < 2
    # 1/3 < Q(2) < 1/2 in 2D and 1/2 < Q(2) < 2/3 in 3D; below h = 1 the
    # top outgrows the floor and Q(2) rises past the prism's value towards 1
    for d, lo, hi in ((2, 1 / 3, 1 / 2), (3, 1 / 2, 2 / 3)):
        q2 = {}
        for h in (0.1, 0.5, 1.0, 1.1, 1.5, 1.9):
            code, out, _ = run(capsys, "body", "--body", f"frustum{d}d:{h}")
            assert code == 0
            q2[h] = json.loads(out)["q2"]
        assert q2[1.0] == pytest.approx(hi, abs=1e-12)
        assert all(lo < q2[h] < hi for h in (1.1, 1.5, 1.9))
        assert hi < q2[0.5] < q2[0.1] < 1


@pytest.mark.parametrize("argv", [
    ("estimate", "--body", "frustum2d:1e-200", "--n", "3", "--samples", "2000",
     "--seed", "0"),
    ("estimate", "--body", "frustum3d:1e-300", "--n", "3", "--samples", "2000",
     "--seed", "0"),
    ("body", "--body", "frustum2d:5e-324"),
    ("body", "--body", "frustum2d:1e-200"),
])
def test_frustum_whose_dilation_overflows_exits_1(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:") and err.count("error:") == 1
    assert "h = " in err and "Traceback" not in err


@pytest.mark.parametrize("name", ["frustum3d:", "frustum2d:x",
                                  "frustum3d:nan", "frustum2d:-inf"])
def test_frustum_text_that_is_no_height_exits_1(capsys, name):
    code, out, err = run(capsys, "body", "--body", name)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "'h'" in err


def test_body_refuses_a_reflex_floor(capsys, tmp_path):
    path = tmp_path / "reflex.json"
    path.write_text(json.dumps({"kind": "prism", "floor": [
        [0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.6]]}))
    code, _, err = run(capsys, "body", "--body", str(path))
    assert code == 1
    assert err.startswith("error:") and "convex" in err


def test_body_levels_below_one_exit_1(capsys):
    code, _, err = run(capsys, "body", "--body", "square", "--levels", "0")
    assert code == 1
    assert err.startswith("error:")


def test_quadrature_top_of_any_2d_builtin(capsys):
    code, out, _ = run(capsys, "quadrature", "--top", "mountain2d", "--n", "3")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == pytest.approx(1 / 18)


@pytest.mark.parametrize("top", ["mountain3d", "frustum2d:0.5", "nope"])
def test_quadrature_top_without_a_top_function_exits_1(capsys, top):
    code, _, err = run(capsys, "quadrature", "--top", top, "--n", "3")
    assert code == 1
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# Any argv from the subcommands' own flags, with any JSON descriptor, exits 0,
# 1 or 2; exit 1 prints one error line, and JSON output is strict JSON

_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10 ** 400, 10 ** 400),
              st.floats(), st.text(max_size=4)),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=10)
_NUMBER = st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.floats(),
                    st.sampled_from([math.nan, math.inf, -math.inf, 1e300,
                                     -1e300, 5e-324, True, "1"]))
_POINT = st.lists(_NUMBER, min_size=2, max_size=3)
_VALUE = st.one_of(_NUMBER, _POINT, st.lists(_POINT, max_size=4), _ANY)
_BUILTIN = st.one_of(
    st.sampled_from(["triangle", "square", "parabola", "mountain2d",
                     "mountain3d", "prism3d", "tetrahedron", "nope"]),
    st.builds("{}:{}".format, st.sampled_from(["frustum2d", "frustum3d"]),
              st.one_of(st.floats().map(repr), st.text(max_size=3))))
_SUITES = ["prism_bounds", "ccsf", "dominance", "layer_concavity",
           "tetra_sandwich", "w_formula", "mountain_mixture", "conjecture",
           "nope"]


def _descriptor(draw):
    """A body or top descriptor of each kind, with a floor of any numbers,
    and most often one key's value, or an extra key, drawn from any JSON."""
    top = {"kind": "pwl", "knots": [[["0", "1"], ["0", "1"]],
                                    [["1", "2"], ["1", "1"]],
                                    [["1", "1"], [draw(_NUMBER), "1"]]]}
    floor = draw(st.lists(st.lists(_NUMBER, min_size=2, max_size=2),
                          min_size=3, max_size=5))
    mountain = {"kind": "mountain", "dimension": 3, "floor": floor,
                "apex": [0.25, 0, 3]}
    prism = {"kind": "prism", "dimension": 3, "floor": floor}
    desc = draw(st.sampled_from([
        top, {"kind": "quadratic"},
        {"kind": "subprism2d", "dimension": 2, "top": top},
        mountain, mountain, prism, prism,
        {"kind": "frustum", "dimension": 3, "h": 0.5, "floor": floor},
        {"kind": "frustum", "dimension": 2, "h": 1.5},
        {"kind": "tetrahedron", "dimension": 3}]))
    key = draw(st.sampled_from([*desc, "extra", None, None, None]))
    return desc if key is None else {**desc, key: draw(_VALUE)}


def _count(lo, hi):
    """A count flag's value, most often in [lo, hi], else below lo."""
    return st.one_of(*[st.integers(lo, hi)] * 7, st.integers(-3, lo - 1)).map(str)


def _argv(draw, path):
    """argv of a random subcommand, with each flag in range or out of it;
    a descriptor file is at path."""
    sub = draw(st.sampled_from(["exact", "verify", "quadrature", "quadrature",
                                *["estimate", "body"] * 3]))
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    body = draw(st.one_of(st.just(path), st.just(path), st.just(path), _BUILTIN))
    seed = ["--seed", draw(st.integers(-1, 2 ** 70).map(str))]
    if sub == "exact":
        return ["exact", "--seq", draw(st.sampled_from(SEQUENCE_NAMES + ("nope",))),
                "--n", draw(_count(0, 30)), *fmt]
    if sub == "estimate":
        argv = ["estimate", "--estimator",
                draw(st.sampled_from(["q", "q", "q", "no-floor", "q2-height",
                                      "beta1", "beta2", "fradius"])),
                "--n", draw(_count(0, 6)), "--samples", draw(_count(1, 2000)),
                "--workers", draw(_count(1, 2)), *seed, *fmt]
        return argv + (["--body", body] if draw(st.integers(0, 7)) else [])
    if sub == "quadrature":
        top = draw(st.one_of(st.just(f"pwl:{path}"), st.just(f"pwl:{path}"),
                             _BUILTIN))
        return ["quadrature", "--top", top, "--n", draw(_count(0, 6)),
                "--budget", draw(_count(1, 10 ** 6)), *fmt]
    if sub == "verify":
        return ["verify", "--suite", draw(st.sampled_from(_SUITES)),
                "--trials", draw(_count(0, 3)),
                "--samples", draw(_count(1, 2000)), *seed]
    return ["body", "--body", body, "--levels", draw(_count(1, 20)), *fmt]


def _strict(constant):
    raise ValueError(f"stdout holds {constant}, which is not strict JSON")


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exits_0_1_or_2_on_any_input(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz_descriptor.json"
    path.write_text(json.dumps(_descriptor(data.draw)))
    argv = _argv(data.draw, str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), argv
    if code == 1:
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
        assert "Traceback" not in err and out == ""
    if code == 0 and argv[0] != "verify" and "csv" not in argv:
        json.loads(out, parse_constant=_strict)
