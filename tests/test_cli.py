"""CLI: schema stability, exit codes, output formats."""

import json
import sys
from fractions import Fraction

import pytest

from floorconvex.cli import main

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
            "finished"} == set(d["manifest"])
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
])
def test_estimate_counts_below_one_exit_1(capsys, argv):
    code, _, err = run(capsys, "estimate", "--seed", "1", *argv)
    assert code == 1
    assert err.startswith("error:")


def test_quadrature(capsys):
    code, out, _ = run(capsys, "quadrature", "--top", "square", "--n", "3")
    assert code == 0
    d = json.loads(out)
    row = d["rows"][0]
    assert {"value", "error", "evaluations", "exhausted"} == set(row)
    assert row["value"] == pytest.approx(5 / 36)


def test_quadrature_pwl_file(capsys, tmp_path):
    top = {"kind": "pwl", "knots": [[["0", "1"], ["1", "1"]],
                                    [["1", "1"], ["1", "1"]]]}
    path = tmp_path / "top.json"
    path.write_text(json.dumps(top))
    code, out, _ = run(capsys, "quadrature", "--top", f"pwl:{path}",
                       "--n", "2")
    assert code == 0
    assert json.loads(out)["rows"][0]["value"] == pytest.approx(0.5)


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
    plot = tmp_path / "seq.dat"
    code, _, _ = run(capsys, "exact", "--seq", "y", "--n", "4",
                     "--output", str(out_file), "--plot", str(plot))
    assert code == 0
    assert json.loads(out_file.read_text())["sequence"] == "y"
    lines = plot.read_text().strip().splitlines()
    assert len(lines) == 5
    assert lines[2].split() == ["2", "0.2"]
