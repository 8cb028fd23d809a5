"""Unit tests for the shim DIF over a point-to-point link."""

import pytest

from repro.core.names import ApplicationName, DifName
from repro.core.shim import ShimIpcp
from repro.sim.engine import Engine
from repro.sim.link import Link


def make_shim_pair(capacity_bps=1e8, queue_limit=256):
    engine = Engine()
    link = Link(engine, "wire", capacity_bps=capacity_bps, delay=0.001,
                queue_limit=queue_limit)
    left = ShimIpcp(engine, DifName("shim:wire"), "left", link.ends[0])
    right = ShimIpcp(engine, DifName("shim:wire"), "right", link.ends[1])
    return engine, link, left, right


class TestAllocation:
    def test_flow_to_registered_app(self):
        engine, _link, left, right = make_shim_pair()
        inbound = []
        right.register_app(ApplicationName("svc"), inbound.append)
        flow = left.allocate_flow(ApplicationName("cli"),
                                  ApplicationName("svc"))
        engine.run(until=1.0)
        assert flow.allocated
        assert len(inbound) == 1
        assert inbound[0].allocated
        assert inbound[0].remote_app == ApplicationName("cli")

    def test_flow_to_unknown_app_fails(self):
        engine, _link, left, right = make_shim_pair()
        flow = left.allocate_flow(ApplicationName("cli"),
                                  ApplicationName("ghost"))
        failures = []
        flow.when("failed", lambda f: failures.append(f.failure_reason))
        engine.run(until=1.0)
        assert flow.state == "failed"
        assert failures == ["no-such-app"]

    def test_unregister_stops_new_flows(self):
        engine, _link, left, right = make_shim_pair()
        right.register_app(ApplicationName("svc"), lambda f: None)
        right.unregister_app(ApplicationName("svc"))
        flow = left.allocate_flow(ApplicationName("cli"),
                                  ApplicationName("svc"))
        engine.run(until=1.0)
        assert flow.state == "failed"

    def test_registered_apps_listed(self):
        _engine, _link, left, _right = make_shim_pair()
        left.register_app(ApplicationName("a"), lambda f: None)
        left.register_app(ApplicationName("b"), lambda f: None)
        assert left.registered_apps() == (ApplicationName("a"),
                                          ApplicationName("b"))

    def test_simultaneous_allocations_use_distinct_ids(self):
        engine, _link, left, right = make_shim_pair()
        inbound = []
        left.register_app(ApplicationName("lsvc"), inbound.append)
        right.register_app(ApplicationName("rsvc"), inbound.append)
        flow_lr = left.allocate_flow(ApplicationName("a"),
                                     ApplicationName("rsvc"))
        flow_rl = right.allocate_flow(ApplicationName("b"),
                                      ApplicationName("lsvc"))
        engine.run(until=1.0)
        assert flow_lr.allocated and flow_rl.allocated
        assert len(inbound) == 2


class TestDataTransfer:
    def _allocated_pair(self):
        engine, link, left, right = make_shim_pair()
        inbound = []
        right.register_app(ApplicationName("svc"), inbound.append)
        flow = left.allocate_flow(ApplicationName("cli"),
                                  ApplicationName("svc"))
        engine.run(until=1.0)
        return engine, link, flow, inbound[0]

    def test_bidirectional_data(self):
        engine, _link, out_flow, in_flow = self._allocated_pair()
        got_right, got_left = [], []
        in_flow.set_receiver(lambda p, s: got_right.append(p))
        out_flow.set_receiver(lambda p, s: got_left.append(p))
        out_flow.send("ping", 10)
        engine.run(until=2.0)
        in_flow.send("pong", 10)
        engine.run(until=3.0)
        assert got_right == ["ping"]
        assert got_left == ["pong"]

    def test_nominal_bps_exposes_link_capacity(self):
        engine, link, out_flow, in_flow = self._allocated_pair()
        assert out_flow.nominal_bps == link.capacity_bps
        assert in_flow.nominal_bps == link.capacity_bps

    def test_deallocate_releases_far_end(self):
        engine, _link, out_flow, in_flow = self._allocated_pair()
        released = []
        in_flow.when("deallocated", lambda f: released.append(1))
        out_flow.deallocate()
        engine.run(until=2.0)
        assert released
        assert in_flow.state == "deallocated"

    def test_send_after_peer_deallocation_is_dropped(self):
        engine, _link, out_flow, in_flow = self._allocated_pair()
        in_flow.deallocate()
        engine.run(until=2.0)
        # the local flow learned of the release
        assert out_flow.state == "deallocated"

    def test_frames_carry_shim_overhead(self):
        engine, link, out_flow, _in_flow = self._allocated_pair()
        delivered_before = link.bytes_delivered[0]
        out_flow.send("x", 100)
        engine.run(until=2.0)
        from repro.core.shim import SHIM_HEADER_BYTES
        assert link.bytes_delivered[0] - delivered_before == 100 + SHIM_HEADER_BYTES


class TestWritable:
    """A refused send is followed by WRITABLE once the link takes a frame
    again (docs/ARCHITECTURE.md, "Backpressure is a notification")."""

    def _refused_pair(self, queue_limit=2):
        engine, link, left, right = make_shim_pair(capacity_bps=1e6,
                                                   queue_limit=queue_limit)
        inbound = []
        right.register_app(ApplicationName("svc"), inbound.append)
        flows = [left.allocate_flow(ApplicationName(f"cli{index}"),
                                    ApplicationName("svc"))
                 for index in range(2)]
        engine.run(until=1.0)
        assert all(flow.allocated for flow in flows)
        return engine, link, flows

    def test_a_tail_drop_is_writable_when_the_frame_in_service_ends(self):
        engine, link, (first, second) = self._refused_pair()
        # 1,000 B frames take 8 ms each at 1 Mb/s: one in service, two
        # waiting, and the fourth is dropped at the tail
        assert [first.send("x", 992) for _ in range(4)] == [
            True, True, True, False]
        assert second.send("y", 992) is False
        head_ends = engine.now + 0.008
        heard = []
        for flow in (second, first):
            flow.when("writable", lambda f: heard.append(
                (f.local_app, engine.now)))
        engine.run(until=engine.now + 0.005)
        assert heard == []
        engine.run(until=engine.now + 0.1)
        # one wait served both refused flows, in the order they were
        # refused, at the end of the frame in service
        assert [app for app, _at in heard] == [ApplicationName("cli0"),
                                               ApplicationName("cli1")]
        assert all(at == pytest.approx(head_ends) for _app, at in heard)

    def test_a_down_link_is_writable_at_its_repair(self):
        engine, link, (flow, _other) = self._refused_pair()
        heard = []
        flow.when("writable", lambda f: heard.append(engine.now))
        link.fail()
        assert flow.send("x", 100) is False
        engine.run(until=engine.now + 1.0)
        assert heard == []
        link.repair()
        assert heard == [engine.now]
        assert flow.send("x", 100) is True
