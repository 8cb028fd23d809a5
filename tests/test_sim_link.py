"""Unit tests for simulated links and loss models."""

import random

import pytest

from repro.sim.engine import Engine
from repro.sim.link import GilbertElliott, Link, NoLoss, UniformLoss


def make_link(**kwargs):
    engine = Engine()
    link = Link(engine, "test", **kwargs)
    inbox_a, inbox_b = [], []
    link.ends[0].attach(lambda p, s: inbox_a.append((engine.now, p, s)))
    link.ends[1].attach(lambda p, s: inbox_b.append((engine.now, p, s)))
    return engine, link, inbox_a, inbox_b


class TestDelivery:
    def test_one_frame_arrives_at_peer(self):
        engine, link, inbox_a, inbox_b = make_link()
        link.ends[0].send("hello", 100)
        engine.run()
        assert [(p, s) for _, p, s in inbox_b] == [("hello", 100)]
        assert inbox_a == []

    def test_delivery_time_is_serialization_plus_propagation(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.01)
        link.ends[0].send("x", 1250)  # 1250 B at 1 Mb/s = 10 ms
        engine.run()
        assert inbox_b[0][0] == pytest.approx(0.02)

    def test_back_to_back_frames_serialize_sequentially(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("one", 1250)
        link.ends[0].send("two", 1250)
        engine.run()
        times = [t for t, _p, _s in inbox_b]
        assert times == pytest.approx([0.01, 0.02])

    def test_full_duplex_directions_independent(self):
        engine, link, inbox_a, inbox_b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("to-b", 1250)
        link.ends[1].send("to-a", 1250)
        engine.run()
        assert inbox_a[0][0] == pytest.approx(0.01)
        assert inbox_b[0][0] == pytest.approx(0.01)

    def test_queue_limit_tail_drop(self):
        engine, link, _a, inbox_b = make_link(queue_limit=2, capacity_bps=1e6)
        results = [link.ends[0].send(str(i), 1000) for i in range(5)]
        engine.run()
        # one in service leaves as queue slots free up; only rejects count
        assert results.count(False) >= 1
        assert link.frames_dropped_queue[0] == results.count(False)
        assert len(inbox_b) == results.count(True)

    def test_zero_size_frame_rejected(self):
        engine, link, _a, _b = make_link()
        with pytest.raises(ValueError):
            link.ends[0].send("x", 0)

    def test_peer_property(self):
        _engine, link, _a, _b = make_link()
        assert link.ends[0].peer is link.ends[1]
        assert link.ends[1].peer is link.ends[0]

    def test_statistics_track_bytes(self):
        engine, link, _a, _b = make_link()
        link.ends[0].send("x", 300)
        link.ends[0].send("y", 200)
        engine.run()
        assert link.bytes_delivered[0] == 500
        assert link.frames_delivered[0] == 2


class TestLazyQueues:
    def test_a_built_idle_plant_holds_no_queue(self):
        from repro.experiments.e6_scalability import build_flood_spec
        from repro.shard import all_nodes_announce, attach_flood
        spec = build_flood_spec(10, 20)
        network = spec.build(seed=1)
        attach_flood(network, all_nodes_announce(spec.nodes))
        assert len(network.links) == 210
        assert all(queue is None for link in network.links.values()
                   for queue in link._queues)

    def test_burst_keeps_fifo_and_tail_drops_at_the_limit(self):
        engine, link, inbox_a, inbox_b = make_link(queue_limit=2,
                                                   capacity_bps=1e6)
        results = [link.ends[0].send(str(i), 1000) for i in range(5)]
        # one frame on the wire, two queued behind it, two dropped
        assert results == [True, True, True, False, False]
        assert link.frames_sent == [3, 0]
        assert link.frames_dropped_queue == [2, 0]
        assert link._queues[1] is None
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["0", "1", "2"]
        assert inbox_a == []
        # the drained direction serves the next burst the same way
        results = [link.ends[0].send(str(i), 1000) for i in range(5, 9)]
        assert results == [True, True, True, False]
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["0", "1", "2", "5", "6", "7"]

    def test_zero_queue_limit_drops_every_frame(self):
        engine, link, _a, inbox_b = make_link(queue_limit=0)
        assert [link.ends[0].send("x", 100) for _ in range(3)] == [False] * 3
        engine.run()
        assert inbox_b == []
        assert link.frames_sent == [0, 0]
        assert link.frames_dropped_queue == [3, 0]
        assert link._queues == [None, None]

    def test_fail_with_and_without_a_queue(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6)
        link.ends[0].send("x", 1250)
        link.ends[0].send("y", 1250)     # queued: direction 0 is busy
        assert link._queues[1] is None
        engine.call_at(0.005, link.fail)
        engine.run()
        assert inbox_b == []
        link.repair()
        link.ends[0].send("z", 1250)
        engine.run()
        assert [p for _t, p, _s in inbox_b] == ["z"]


class TestFailure:
    def test_failed_link_drops_everything(self):
        engine, link, _a, inbox_b = make_link()
        link.fail()
        assert link.ends[0].send("x", 100) is False
        engine.run()
        assert inbox_b == []

    def test_repair_restores_delivery(self):
        engine, link, _a, inbox_b = make_link()
        link.fail()
        link.repair()
        link.ends[0].send("x", 100)
        engine.run()
        assert len(inbox_b) == 1

    def test_in_flight_frames_lost_on_failure(self):
        engine, link, _a, inbox_b = make_link(capacity_bps=1e6, delay=0.5)
        link.ends[0].send("x", 1250)
        engine.call_at(0.1, link.fail)
        engine.run()
        assert inbox_b == []

    def test_observers_notified_once_per_transition(self):
        _engine, link, _a, _b = make_link()
        seen = []
        link.observe(lambda lk, up: seen.append(up))
        link.fail()
        link.fail()   # no-op
        link.repair()
        link.repair()  # no-op
        assert seen == [False, True]

    def test_utilization_estimate(self):
        engine, link, _a, _b = make_link(capacity_bps=1e6, delay=0.0)
        link.ends[0].send("x", 12500)  # 0.1 s of the wire
        engine.run()
        assert link.utilization(1.0, 0) == pytest.approx(0.1)


class TestLossModels:
    def test_no_loss_never_drops(self):
        model = NoLoss()
        rng = random.Random(1)
        assert not any(model.should_drop(rng, 0.0) for _ in range(1000))

    def test_uniform_loss_rate_is_approximate(self):
        model = UniformLoss(0.3)
        rng = random.Random(1)
        drops = sum(model.should_drop(rng, 0.0) for _ in range(10000))
        assert 0.27 < drops / 10000 < 0.33

    def test_uniform_loss_validates_probability(self):
        with pytest.raises(ValueError):
            UniformLoss(1.5)

    def test_gilbert_elliott_is_bursty(self):
        model = GilbertElliott(p_good_to_bad=0.01, p_bad_to_good=0.1,
                               loss_good=0.0, loss_bad=1.0)
        rng = random.Random(7)
        outcomes = [model.should_drop(rng, 0.0) for _ in range(20000)]
        drops = sum(outcomes)
        assert drops > 0
        # burstiness: drops cluster — count runs of consecutive drops
        runs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
        assert runs > drops * 0.5  # far more clustered than independent loss

    def test_gilbert_elliott_validates_parameters(self):
        with pytest.raises(ValueError):
            GilbertElliott(p_good_to_bad=2.0)

    def test_lossy_link_drops_frames(self):
        engine = Engine()
        link = Link(engine, "lossy", loss=UniformLoss(1.0),
                    rng=random.Random(3))
        inbox = []
        link.ends[1].attach(lambda p, s: inbox.append(p))
        link.ends[0].send("x", 100)
        engine.run()
        assert inbox == []
        assert link.frames_dropped_loss[0] == 1


class TestValidation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Link(Engine(), "bad", capacity_bps=0)
        with pytest.raises(ValueError):
            Link(Engine(), "bad", delay=-1)
