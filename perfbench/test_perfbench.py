"""Tests of the benchmark's own logic: the tail rule, span self time, output
fingerprints and the metric lists in BENCHMARK.json."""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from bench_jobs import WORKLOADS, Api, Search  # noqa: E402
from bench_metrics import compare_round, tail_percentile  # noqa: E402
from bench_spans import Tracer  # noqa: E402


class TestTailPercentile:
    def test_ten_jobs_beyond_the_tail(self):
        times = [float(t) for t in range(40, 0, -1)]  # 1..40, unsorted
        value, pct, count = tail_percentile(times)
        assert count == 40
        assert value == 30.0  # 30 is followed by exactly ten larger times
        assert pct == pytest.approx(100 * 29 / 39)
        assert sum(t > value for t in times) == 10

    def test_eleven_jobs_give_the_minimum(self):
        value, pct, count = tail_percentile([5.0, 1.0] + [9.0] * 9)
        assert (value, pct, count) == (1.0, 0.0, 11)

    def test_too_few_jobs_give_the_maximum(self):
        assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_no_jobs(self):
        with pytest.raises(ValueError):
            tail_percentile([])


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


class TestSelfTime:
    def test_nested_spans(self):
        # outer [0, 10] holds a [1, 4] (which holds b [1.5, 2.5]) and c [5, 6]
        tracer = Tracer(clock=scripted_clock([0, 1, 1.5, 2.5, 4, 5, 6, 10]))
        outer = tracer.open("outer")
        a = tracer.open("a")
        b = tracer.open("b")
        tracer.close(b)
        tracer.close(a)
        c = tracer.open("c")
        tracer.close(c)
        tracer.close(outer)
        assert list(tracer.parent) == [-1, outer, a, outer]
        assert tracer.self_times() == pytest.approx([6.0, 2.0, 1.0, 1.0])
        agg = tracer.by_name()
        assert agg["outer"] == pytest.approx({"calls": 1, "busy_s": 10.0, "self_s": 6.0})
        assert agg["a"]["self_s"] == pytest.approx(2.0)
        assert tracer.top_level_s() == pytest.approx(10.0)
        assert tracer.top_level_s(exclude=("outer",)) == 0

    def test_repeated_name_sums(self):
        tracer = Tracer(clock=scripted_clock([0, 1, 2, 4]))
        for _ in range(2):
            tracer.close(tracer.open("x"))
        assert tracer.by_name()["x"] == pytest.approx({"calls": 2, "busy_s": 3.0, "self_s": 3.0})

    def test_out_of_order_close(self):
        tracer = Tracer(clock=scripted_clock([0, 1, 2]))
        first = tracer.open("a")
        tracer.open("b")
        with pytest.raises(RuntimeError):
            tracer.close(first)


class TestWrapping:
    def test_install_and_uninstall(self):
        import tsplocal.localsearch.improv as improv

        original = improv.count_structure
        tracer = Tracer()
        tracer.install([("tsplocal.localsearch.improv", "count_structure", "cs")])
        try:
            assert improv.count_structure(3, frozenset()) == (3, 0, 3)
        finally:
            tracer.uninstall()
        assert improv.count_structure is original
        assert tracer.by_name()["cs"]["calls"] == 1

    def test_wrapped_class_keeps_isinstance(self):
        from tsplocal.core import GraphInstance
        from tsplocal.extremal import SimpleGraph

        tracer = Tracer()
        traced = tracer.wrap_class("gi", GraphInstance)
        inst = traced(SimpleGraph(3, [(0, 1), (1, 2)]))
        assert isinstance(inst, GraphInstance) and isinstance(inst, traced)
        assert inst.c(0, 2) == 2
        assert tracer.by_name()["gi"]["calls"] == 1


class TestFingerprint:
    JOB = "lin_kernighan52_n200"

    def check(self, api, x, tour, reference):
        record = run.JobRecord(0, self.JOB, 0.0, tour, None)
        return run.check_pass(Search(), api, [x], [record], reference)

    def test_swapped_vertices_are_flagged(self):
        api = Api()
        x = Search().make_round(api, 7, 0, HERE)
        start = x["t200"]  # a valid output: it costs no more than the start
        fingerprints, failures = self.check(api, x, start, [])
        assert failures == []
        reference = [{"fingerprints": fingerprints[0]}]
        assert self.check(api, x, start, reference)[1] == []

        order = list(start.order)
        order[3], order[11] = order[11], order[3]
        _, failures = self.check(api, x, api.Tour(order), reference)
        assert (0, self.JOB, "fingerprint differs from the reference") in failures

    def test_compare_round(self):
        assert compare_round({"a": "1"}, {"a": "2"}) == ["a"]
        assert compare_round({}, {"a": "1"}) == ["a"]
        assert compare_round({"a": "1"}, None) == []


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
