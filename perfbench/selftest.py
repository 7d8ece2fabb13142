"""Self-tests of the benchmark's own arithmetic and instrumentation.

Run with ``python3 perfbench/selftest.py``.  The file name keeps pytest
from collecting it, so the library's test suite does not pay for it.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Boundary, Instrumentation, SpanRecorder  # noqa: E402
from stats import TickClock, tail_percentile  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_p99_kept_when_ten_samples_lie_beyond(self):
        values = list(range(1, 1001))
        tail = tail_percentile(values, 99.0)
        self.assertEqual(tail.percentile, 99.0)
        self.assertEqual(tail.value, 990)
        self.assertEqual((tail.samples, tail.beyond), (1000, 10))

    def test_lowered_to_the_highest_with_ten_beyond(self):
        values = list(range(500, 0, -1))  # order must not matter
        tail = tail_percentile(values, 99.0)
        self.assertEqual(tail.percentile, 98.0)
        self.assertEqual(tail.value, 490)
        self.assertEqual((tail.samples, tail.beyond), (500, 10))

    def test_larger_sample_has_more_beyond(self):
        tail = tail_percentile([float(v) for v in range(2000)], 99.0)
        self.assertEqual((tail.percentile, tail.beyond), (99.0, 20))

    def test_median_of_small_sample(self):
        tail = tail_percentile([3.0, 1.0, 2.0], 50.0, min_beyond=1)
        self.assertEqual((tail.value, tail.beyond), (2.0, 1))

    def test_tiny_sample_reports_smallest(self):
        tail = tail_percentile([5.0, 4.0, 6.0], 99.0)
        self.assertEqual((tail.value, tail.samples, tail.beyond), (4.0, 3, 2))


class ScriptedClock:
    """A clock returning scripted times, one per call."""

    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 6] (which holds c [2, 4]) and d [7, 9].
        recorder = SpanRecorder(ScriptedClock([0, 1, 2, 4, 6, 7, 9, 10]))
        a = recorder.enter("a")
        b = recorder.enter("b")
        c = recorder.enter("c", request_id=7)
        recorder.exit(c)
        recorder.exit(b)
        d = recorder.enter("d")
        recorder.exit(d)
        recorder.exit(a)
        self.assertEqual(recorder.self_times(), [3, 3, 2, 2])
        self.assertEqual(recorder.parents, [-1, 0, 1, 0])
        self.assertEqual(recorder.requests, [None, None, 7, None])
        self.assertEqual(recorder.totals()["c"], (1, 2))

    def test_repeated_names_sum(self):
        recorder = SpanRecorder(ScriptedClock([0, 1, 2, 4, 5, 9]))
        outer = recorder.enter("x")
        inner = recorder.enter("x")
        recorder.exit(inner)
        recorder.exit(outer)
        other = recorder.enter("y")
        recorder.exit(other)
        self.assertEqual(recorder.totals(), {"x": (2, 4), "y": (1, 4)})

    def test_exporters(self):
        recorder = SpanRecorder(ScriptedClock([0.0, 0.5, 1.0, 2.0]))
        outer = recorder.enter("layer.outer")
        inner = recorder.enter("layer.inner", request_id=3)
        recorder.exit(inner)
        recorder.exit(outer)
        with tempfile.TemporaryDirectory() as tmp:
            jsonl = os.path.join(tmp, "spans.jsonl")
            chrome = os.path.join(tmp, "trace.json")
            recorder.write_jsonl(jsonl)
            recorder.write_chrome(chrome)
            with open(jsonl) as fh:
                rows = [json.loads(line) for line in fh]
            with open(chrome) as fh:
                events = json.load(fh)["traceEvents"]
        self.assertEqual([r["parent"] for r in rows], [-1, 0])
        self.assertEqual(rows[1]["request_id"], 3)
        self.assertAlmostEqual(rows[0]["self_us"], 1.5e6)
        self.assertEqual([e["ph"] for e in events], ["X", "X"])
        self.assertAlmostEqual(events[1]["dur"], 0.5e6)
        self.assertEqual(events[1]["args"]["request_id"], 3)


class TickClockTest(unittest.TestCase):
    def setUp(self):
        self.clock = TickClock()
        self.clock.add(0, 0.0, 1.0)
        self.clock.add(1, 1.0, 5.0)  # a slow tick
        self.clock.add(2, 5.0, 6.0)

    def test_due_time_interpolates_inside_the_tick(self):
        self.assertEqual(self.clock.due(0.25), 0.25)
        self.assertEqual(self.clock.due(1.5), 3.0)
        self.assertEqual(self.clock.due(2.0), 5.0)

    def test_completion_is_the_end_of_the_tick(self):
        self.assertEqual(self.clock.completed(2.0), 5.0)
        self.assertEqual(self.clock.completed(3.0), 6.0)
        self.assertIsNone(self.clock.completed(7.0))

    def test_slow_tick_delays_everything_due_during_it(self):
        # Due at virtual 1.5, done at the end of tick 2: 3 s of wall,
        # although only 1.5 virtual ticks passed.
        self.assertEqual(self.clock.completed(3.0) - self.clock.due(1.5), 3.0)
        # Due at 0.5, done at the end of tick 1: the slow tick counts.
        self.assertEqual(self.clock.completed(2.0) - self.clock.due(0.5), 4.5)

    def test_gaps_between_ticks_are_allowed(self):
        self.clock.add(3, 10.0, 11.0)
        self.assertEqual(self.clock.completed(4.0), 11.0)
        self.assertEqual(self.clock.durations(), [1.0, 4.0, 1.0, 1.0])
        with self.assertRaises(ValueError):
            self.clock.add(3, 12.0, 13.0)


def _fake_module():
    module = types.ModuleType("perfbench_selftest_fake")

    def helper(x):
        return x + 1

    class Base:
        def inherited(self, request):
            return request.request_id

    class Thing(Base):
        def method(self, x):
            return module.helper(x) * 2

        @staticmethod
        def static(x):
            return -x  # not a function attribute: reported absent

    module.helper = helper
    module.Base = Base
    module.Thing = Thing
    return module


class InstrumentationTest(unittest.TestCase):
    def setUp(self):
        self.module = _fake_module()
        sys.modules[self.module.__name__] = self.module
        name = self.module.__name__
        self.boundaries = [
            Boundary("fake", f"{name}:helper"),
            Boundary("fake", f"{name}:Thing.method"),
            Boundary("fake", f"{name}:Thing.inherited", request_arg=1),
            Boundary("fake", f"{name}:Thing.static"),
            Boundary("fake", f"{name}:Thing.deleted"),
            Boundary("fake", f"{name}:Gone.method"),
            Boundary("fake", "perfbench_no_such_module:f"),
        ]

    def tearDown(self):
        del sys.modules[self.module.__name__]

    def test_wrappers_record_and_are_restored(self):
        module = self.module
        originals = (
            module.helper,
            vars(module.Thing)["method"],
        )
        recorder = SpanRecorder()
        instrumentation = Instrumentation(self.boundaries, recorder)
        with instrumentation:
            self.assertFalse(instrumentation.restored())
            thing = module.Thing()
            self.assertEqual(thing.method(1), 4)
            self.assertEqual(
                thing.inherited(types.SimpleNamespace(request_id=9)), 9
            )
            self.assertEqual(module.Thing.static(2), -2)
        self.assertTrue(instrumentation.restored())
        self.assertIs(module.helper, originals[0])
        self.assertIs(vars(module.Thing)["method"], originals[1])
        self.assertNotIn("inherited", vars(module.Thing))
        self.assertEqual(
            instrumentation.absent,
            ["fake.Thing.static", "fake.Thing.deleted", "fake.Gone.method",
             "fake.f"],
        )
        # ``method`` looks ``helper`` up in its module at call time, so
        # the helper span nests under the method span.
        self.assertEqual(
            recorder.names,
            ["fake.Thing.method", "fake.helper", "fake.Thing.inherited"],
        )
        self.assertEqual(recorder.parents, [-1, 0, -1])
        self.assertEqual(recorder.requests, [None, None, 9])
        # Calls after restoration are not recorded.
        module.Thing().method(1)
        self.assertEqual(len(recorder), 3)

    def test_restored_after_an_exception(self):
        recorder = SpanRecorder()
        instrumentation = Instrumentation(self.boundaries, recorder)
        with self.assertRaises(ZeroDivisionError):
            with instrumentation:
                self.module.Thing().method(1) / 0
        self.assertTrue(instrumentation.restored())


if __name__ == "__main__":
    unittest.main()
