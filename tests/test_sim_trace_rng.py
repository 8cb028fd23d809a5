"""Unit tests for tracing/metrics and seeded RNG streams."""

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.trace import Counter, Tracer


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter("x")
        counter.incr()
        counter.incr(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").incr(-1)


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
