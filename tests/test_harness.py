"""Verification suites: determinism, pass status, report schema."""

import json

import pytest

from floorconvex import harness


def test_all_suites_pass_at_small_scale():
    reports = harness.run_suites(
        ["prism_bounds", "dominance", "layer_concavity", "mountain_mixture"],
        seed=5, trials=20)
    for r in reports:
        assert r.passed, r.summary()


def test_statistical_suites_pass():
    for name, kwargs in [("ccsf", {"trials": 3, "samples": 100_000}),
                         ("w_formula", {"trials": 10, "samples": 50_000}),
                         ("tetra_sandwich", {"n_max": 3, "samples": 150_000})]:
        rep = harness.SUITES[name](seed=9, **kwargs)
        assert rep.passed, rep.summary()


def test_trials_leave_tetra_sandwich_n_max_alone():
    (rep,) = harness.run_suites(["tetra_sandwich"], trials=6, samples=2000)
    assert rep.params["n_max"] == 4


def test_conjecture_suite_never_fails():
    rep = harness.suite_conjecture(trials=2, seed=3)
    assert rep.passed
    assert all(r.flagged for r in rep.records)


def test_reports_are_deterministic():
    a = harness.suite_prism_bounds(trials=10, seed=21)
    b = harness.suite_prism_bounds(trials=10, seed=21)
    assert [vars(r) for r in a.records] == [vars(r) for r in b.records]
    c = harness.suite_prism_bounds(trials=10, seed=22)
    assert [vars(r) for r in c.records] != [vars(r) for r in a.records]


def test_report_schema():
    rep = harness.suite_mountain_mixture(trials=3, seed=1)
    j = rep.to_json()
    assert {"suite", "seed", "params", "n_trials", "n_failed", "n_flagged",
            "passed", "records", "findings",
            "random_model"} <= set(j)
    for rec in j["records"]:
        assert {"description", "lhs", "rhs", "margin", "passed",
                "flagged"} == set(rec)
    # serializable end to end
    json.loads(json.dumps([rep.to_json()]))


def test_flagged_trials_do_not_gate():
    rep = harness.Report("demo", 0)
    rep.add("fails but flagged", 1.0, 0.0, -1.0, False, flagged=True)
    rep.add("passes", 0.0, 1.0, 1.0, True)
    assert rep.passed
    rep.add("fails hard", 1.0, 0.0, -1.0, False)
    assert not rep.passed


def test_w_formula_values():
    assert harness.w_formula(0.5, 1.0) == pytest.approx(1 / 12)
    assert harness.w_formula(0.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        harness.w_formula(1.0, 1.0)


def test_unknown_suite_raises():
    with pytest.raises(ValueError):
        harness.run_suites(["nope"])
