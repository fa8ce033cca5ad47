"""Tests of the benchmark's own helpers (no Spark needed):

    python3 -m pytest perfbench -q
"""
import json
from pathlib import Path

import pandas as pd
import pytest

import measures
import run
import spans


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestTail:
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_too_few_samples(self, n):
        assert measures.tail(list(range(n))) is None

    def test_eleven_samples_leave_ten_beyond_the_smallest(self):
        pct, value = measures.tail([float(x) for x in range(11, 0, -1)])
        assert value == 1.0
        assert pct == pytest.approx(100 / 11)

    @pytest.mark.parametrize("n, pct, value", [(20, 50.0, 9), (100, 90.0, 89), (1000, 99.0, 989)])
    def test_highest_percentile_with_ten_beyond(self, n, pct, value):
        samples = list(range(n))[::-1]
        got_pct, got_value = measures.tail(samples)
        assert (got_pct, got_value) == (pytest.approx(pct), value)
        assert sum(x > got_value for x in samples) == measures.TAIL_BEYOND


class TestSelfTime:
    def test_children_are_subtracted_once_and_clipped(self):
        ss = [
            spans.Span(0, "outer", None, 0.0, 10.0),
            spans.Span(1, "a", 0, 1.0, 3.0),
            spans.Span(2, "b", 0, 2.0, 5.0),  # overlaps a: union is [1, 5]
            spans.Span(3, "c", 0, 8.0, 12.0),  # runs past the parent: [8, 10]
            spans.Span(4, "d", 2, 2.5, 4.0),  # grandchild: not the parent's concern
        ]
        got = spans.self_times(ss)
        assert got[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert got[2] == pytest.approx(3.0 - 1.5)
        assert got[4] == pytest.approx(1.5)

    def test_wrapped_calls_nest_and_summarise(self):
        clock = FakeClock()
        tracer = spans.Tracer(clock=clock)

        class Mod:
            @staticmethod
            def leaf(dt):
                clock.now += dt
                tracer.count("rows", 5)
                return "leaf"

            @staticmethod
            def top():
                clock.now += 1.0
                Mod.leaf(2.0)
                Mod.leaf(3.0)
                return "top"

        orig_top = Mod.top
        tracer.wrap(Mod, "leaf", "m.leaf")
        tracer.wrap(Mod, "top", "m.top")
        assert Mod.top() == "top"
        tracer.unpatch()
        assert Mod.top is orig_top and not tracer._patches

        summary = spans.layer_summary(
            tracer.spans, {1: {"spark_jobs": 2.0}, 2: {"spark_jobs": 3.0}, 0: {"spark_jobs": 1.0}}
        )
        top, leaf = summary["m.top"], summary["m.leaf"]
        assert (top["calls"], top["wall_s"], top["self_s"]) == (1, 6.0, 1.0)
        assert (leaf["calls"], leaf["wall_s"], leaf["self_s"]) == (2, 5.0, 5.0)
        assert (top["spark_jobs"], leaf["spark_jobs"]) == (6.0, 5.0)
        assert (top["rows"], leaf["rows"]) == (10.0, 10.0)


class TestFailRatio:
    def _labels(self):
        return pd.DataFrame({"id": [1, 1, 2, 2], "t": [0, 1, 0, 1], "label": [1, 2, 2, 2]})

    def test_injected_label_mismatch_fails_every_covered_operation(self):
        want = self._labels()
        got = want.sample(frac=1.0, random_state=0)  # row order does not matter
        bad = want.copy()
        bad.loc[1, "label"] = 1
        out = measures.Outcomes()
        out.record(3, measures.labels_match(got, want))
        out.record(3, measures.labels_match(bad, want))
        assert (out.attempted, out.failed, out.fail_ratio) == (6, 3, 0.5)

    def test_injected_cover_mismatch(self):
        want = ([{1, 2}, {3, 4, 5}], 7, 3)
        assert measures.cover_match(([{5, 4, 3}, {2, 1}], 7, 3), want)
        assert not measures.cover_match(([{1, 2}, {3, 4}], 7, 3), want)
        assert not measures.cover_match(([{1, 2}, {3, 4, 5}], 8, 3), want)
        out = measures.Outcomes()
        out.record(1, measures.cover_match(([{1, 2}], 7, 3), want))
        assert (out.attempted, out.failed, out.fail_ratio) == (1, 1, 1.0)

    def test_nothing_attempted(self):
        assert measures.Outcomes().fail_ratio == 0.0


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_catalog()
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
