"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import child  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCES = json.loads((HERE / "references.json").read_text())


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, None)


def test_self_time_of_nested_spans():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1),
             _span(3, 1.5, 2.0, 2), _span(4, 5.0, 9.0, 1)]
    own = self_times(spans)
    assert own == {1: 4.0, 2: 1.5, 3: 0.5, 4: 4.0}


def test_self_time_counts_overlapping_children_once():
    # two worker threads under one operation: [1, 4] and [2, 6] cover 5
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1),
             _span(3, 2.0, 6.0, 1), _span(4, 12.0, 13.0, 1)]
    assert self_times(spans)[1] == 5.0


def test_spans_on_two_threads_parent_to_the_operation():
    tr = Tracer()
    both_open = threading.Barrier(2, timeout=5)

    def work(i):
        token = tr.begin(f"chunk{i}")
        inner = tr.begin("inner")
        both_open.wait()
        tr.end(inner)
        tr.end(token)

    root = tr.begin("op")
    threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=5)
        assert not t.is_alive()
    op = tr.end(root)
    by_name = {s.name: s for s in tr.spans if s.name != "inner"}
    assert by_name["chunk0"].parent == by_name["chunk1"].parent == op.sid
    inners = [s for s in tr.spans if s.name == "inner"]
    assert {s.parent for s in inners} == {by_name["chunk0"].sid,
                                          by_name["chunk1"].sid}
    chunks = [by_name["chunk0"], by_name["chunk1"]]
    lo = min(s.start for s in chunks)
    hi = max(s.end for s in chunks)
    # the chunks overlap at the barrier, so their union is one interval
    assert abs(self_times(tr.spans)[op.sid] - (op.duration - (hi - lo))) \
        < 1e-9


def test_wrappers_are_restored():
    class Owner:
        @staticmethod
        def f(x):
            return x + 1

    table = {"g": lambda: 2}
    tr = Tracer()
    original = Owner.__dict__["f"]
    tr.wrap_span(Owner, "f", "f")
    tr.wrap_count(table, "g", "g")
    assert Owner.f(1) == 2 and table["g"]() == 2
    tr.restore()
    assert Owner.__dict__["f"] is original
    assert [s.name for s in tr.spans] == ["f"]
    assert tr.counters["g"][0] == 1


def test_metric_names_and_units():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    per_layer = {m["name"]: (m["unit"], m["better"])
                 for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: (spec["unit"], spec["better"])
                         for name, spec in layers.PER_LAYER.items()}
    import run
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_checks_reject_a_perturbed_estimate():
    assert checks.within(0.5, 0.001, Fraction(1, 2)) is None
    assert checks.within(0.5 + 0.0049, 0.001, Fraction(1, 2)) is None
    assert checks.within(0.5 + 0.0051, 0.001, Fraction(1, 2)) is not None
    # combined sigma of estimate and reference
    assert checks.within(0.507, 0.001, 0.5, 0.001) is None
    assert checks.within(0.508, 0.001, 0.5, 0.001) is not None
    assert checks.at_least(0.1, 0.001, 0.106) is not None
    assert checks.at_most(0.1, 0.001, 0.094) is not None


def test_workload_checks_accept_the_reference_and_reject_a_shift():
    class Estimate:
        def __init__(self, estimate, std_error):
            self.estimate, self.std_error = estimate, std_error

    for op in workloads.build("mc3d", 0, REFERENCES):
        ref = REFERENCES["mc3d"][op.name]
        se = 5 * ref["std_error"]       # a 250k-trial call on 10^7 trials
        assert op.check(Estimate(ref["estimate"], se)) is None
        assert op.check(Estimate(ref["estimate"] + 30 * se, se)) is not None


def test_checks_reject_a_wrong_fraction():
    exact = Fraction(187, 23040)
    assert checks.close(float(exact), exact) is None
    assert checks.close(float(exact), Fraction(188, 23040)) is not None
    rows = [{"num": "1", "den": "1"}, {"num": "1", "den": "2"}]
    digest = checks.table_digest([("1", "1"), ("1", "2")])
    assert checks.table(rows, digest) is None
    rows[1]["den"] = "3"
    assert checks.table(rows, digest) is not None


def test_reference_tables_cover_every_sequence():
    from floorconvex.sequences import SEQUENCE_NAMES
    assert set(REFERENCES["tables"]) == set(SEQUENCE_NAMES)
    for case in layers.PRED3D_CASES:
        ref = REFERENCES["mc3d"][case]
        assert ref["seed"] == workloads.REFERENCE_SEED
        assert ref["n_samples"] >= 10_000_000


def test_times_at_reference_speed():
    ref = speed.REF_KERNEL_S
    # a host running the kernel at half speed doubles the times it measures
    assert speed.scale([2 * ref, 2 * ref, 9 * ref]) == 0.5
    assert speed.scale([]) == 1.0


def test_kernel_time_is_taken_out_of_python_level_calls():
    def busy():
        end = time.perf_counter() + 4 * speed.TICK_S
        while time.perf_counter() < end:
            pass

    runner = child.Runner(speed.Speedometer())
    runner.run(workloads.Op("busy", busy, lambda out: None, "quadrature"))
    ticks = len(runner.speed.times)
    assert ticks >= 3
    # the kernel ran inside the call and its time is not the call's
    assert abs(runner.samples["busy"][0] + runner.speed.paused
               - 4 * speed.TICK_S) < 0.1
    runner.run(workloads.Op("mc", busy, lambda out: None, "mc"))
    assert len(runner.speed.times) == ticks


def test_an_operation_fails_once_however_often_it_is_called():
    def boom():
        raise RuntimeError("exit 1")

    good = workloads.Op("good", lambda: 1, lambda out: None, "cli")
    bad = workloads.Op("bad", boom, lambda out: None, "cli")
    wrong = workloads.Op("wrong", lambda: 2, lambda out: "differs", "cli")
    runner = child.Runner()
    for _ in range(3):
        for op in (good, bad, wrong):
            runner.run(op)
    assert runner.calls == 9
    assert runner.failed_ops == {"bad", "wrong"}
    assert runner.wrong == 3
    assert len(runner.samples["good"]) == 3
