"""Unit tests for tracing/metrics and seeded RNG streams."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.rng import RandomStreams
from repro.sim.trace import Counter, TimeSeries, Tracer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        counter.incr()
        counter.incr(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").incr(-1)


class TestTimeSeries:
    def test_summary_statistics(self):
        series = TimeSeries("s")
        for index, value in enumerate([1.0, 2.0, 3.0, 4.0]):
            series.add(float(index), value)
        assert series.mean() == 2.5
        assert series.minimum() == 1.0
        assert series.maximum() == 4.0
        assert series.count() == 4

    def test_empty_statistics_are_nan(self):
        series = TimeSeries("s")
        assert math.isnan(series.mean())
        assert math.isnan(series.percentile(50))
        assert math.isnan(series.stddev())

    def test_percentile_bounds_validation(self):
        series = TimeSeries("s")
        series.add(0, 1)
        with pytest.raises(ValueError):
            series.percentile(101)

    def test_percentile_extremes(self):
        series = TimeSeries("s")
        for value in range(1, 101):
            series.add(0.0, float(value))
        assert series.percentile(100) == 100.0
        assert series.percentile(50) == 50.0
        assert series.percentile(99) == 99.0

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9,
                              allow_nan=False), min_size=1, max_size=100))
    def test_property_percentiles_within_range(self, values):
        series = TimeSeries("s")
        for value in values:
            series.add(0.0, value)
        for pct in (0, 25, 50, 75, 100):
            result = series.percentile(pct)
            assert min(values) <= result <= max(values)

    def test_stddev_of_constant_is_zero(self):
        series = TimeSeries("s")
        for _ in range(5):
            series.add(0.0, 3.0)
        assert series.stddev() == 0.0

    def test_summary_keys(self):
        series = TimeSeries("s")
        series.add(0.0, 1.0)
        assert set(series.summary()) == {"count", "mean", "min", "max",
                                         "p50", "p95", "p99"}


class TestTracer:
    def test_counters_created_on_demand(self):
        tracer = Tracer()
        tracer.count("a")
        tracer.count("a", 2)
        assert tracer.counter_value("a") == 3
        assert tracer.counter_value("missing") == 0

    def test_counters_snapshot_sorted(self):
        tracer = Tracer()
        tracer.count("b")
        tracer.count("a")
        assert list(tracer.counters()) == ["a", "b"]

    def test_read_from_adds_the_owner_total_when_rendered(self):
        tracer = Tracer()
        owners = [0, 0]
        tracer.read_from("b", lambda: owners[0])
        tracer.read_from("b", lambda: owners[1])
        tracer.count("a")
        # a read-from name appears once its total is non-zero, as a
        # per-event counter appears on its first count
        assert tracer.counters() == {"a": 1}
        assert tracer.counter_value("b") == 0
        owners[:] = [2, 3]
        tracer.count("b")
        assert tracer.counters() == {"a": 1, "b": 6}
        assert tracer.counter_value("b") == 6

    def test_series_sampling(self):
        tracer = Tracer()
        tracer.sample("s", 1.0, 10.0)
        tracer.sample("s", 2.0, 20.0)
        assert tracer.series("s").count() == 2
        assert tracer.series_names() == ["s"]

    def test_event_log_filtering(self):
        tracer = Tracer()
        tracer.log(1.0, "enroll", who="x")
        tracer.log(2.0, "failover", which=1)
        assert len(tracer.events()) == 2
        assert tracer.events("enroll")[0][2] == {"who": "x"}

    def test_event_log_bounded(self):
        tracer = Tracer(log_limit=3)
        for index in range(10):
            tracer.log(float(index), "k")
        assert len(tracer.events()) == 3


class TestRandomStreams:
    def test_same_seed_same_sequence(self):
        a = RandomStreams(42).stream("loss")
        b = RandomStreams(42).stream("loss")
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]

    def test_different_streams_are_independent(self):
        streams = RandomStreams(42)
        first = [streams.stream("a").random() for _ in range(5)]
        second = [streams.stream("b").random() for _ in range(5)]
        assert first != second

    def test_stream_stability_under_new_streams(self):
        streams_one = RandomStreams(1)
        value_before = streams_one.stream("x").random()
        streams_two = RandomStreams(1)
        streams_two.stream("unrelated")  # creating another stream first
        value_after = streams_two.stream("x").random()
        assert value_before == value_after

    def test_fork_derives_new_master(self):
        parent = RandomStreams(7)
        child_a = parent.fork("trial-1")
        child_b = parent.fork("trial-2")
        assert child_a.seed != child_b.seed
        assert child_a.stream("x").random() != child_b.stream("x").random()

    def test_fork_deterministic(self):
        assert RandomStreams(7).fork("t").seed == RandomStreams(7).fork("t").seed
